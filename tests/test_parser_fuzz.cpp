// Table-driven + seeded-mutation malformed-input suite for every
// Status-returning parser a user can feed bytes into: HACCRG_FAULTS
// plans, suppression files, the strict environment parser, analyze-
// options compatibility, and the fuzz spec format. The contract under
// test is uniform: never crash, never abort, and on failure leave the
// out-parameter untouched. Mutations reuse the fuzzer's seed machinery
// (SplitMix64), so a failing case is reproducible from its seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "analysis/static_race.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "fuzz/spec.hpp"
#include "haccrg/options.hpp"
#include "serve/protocol.hpp"
#include "sim/sim_config.hpp"

namespace haccrg {
namespace {

/// One seeded byte-level mutation: replace, insert, or delete at a
/// random position (the classic dumb-fuzz trio).
std::string mutate(const std::string& input, SplitMix64& rng) {
  std::string s = input;
  const u64 roll = rng.next();
  const size_t pos = s.empty() ? 0 : rng.next() % s.size();
  const char byte = static_cast<char>(rng.next() & 0xff);
  switch (roll % 3) {
    case 0:
      if (!s.empty()) s[pos] = byte;
      break;
    case 1: s.insert(pos, 1, byte); break;
    default:
      if (!s.empty()) s.erase(pos, 1);
      break;
  }
  return s;
}

// --- FaultPlan::parse --------------------------------------------------------

TEST(ParserFuzzFaultPlan, MalformedTable) {
  const char* cases[] = {
      "seed",             // no '='
      "seed=",            // empty value
      "seed=abc",         // non-numeric
      "=5",               // empty key
      "bogus=1",          // unknown key
      "shared_flip=-1",   // negative
      "shared_flip=1000001",  // > 1e6 ppm
      "seed=1 icnt_drop=5",   // wrong separator
      "shared_flip=999999999999999999999",  // overflow
  };
  for (const char* text : cases) {
    fault::FaultPlan plan;
    plan.seed = 123;
    plan.set_rate(fault::FaultSite::kIcntDup, 77);
    EXPECT_FALSE(fault::FaultPlan::parse(text, plan).ok()) << text;
    EXPECT_EQ(plan.seed, 123u) << "out must be untouched: " << text;
    EXPECT_EQ(plan.rate(fault::FaultSite::kIcntDup), 77u) << text;
  }
}

TEST(ParserFuzzFaultPlan, EmptyPairsAreTolerated) {
  // Documented leniency: "a=1,,b=2" and trailing commas parse.
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::FaultPlan::parse("seed=1,,icnt_drop=5,", plan).ok());
  EXPECT_EQ(plan.seed, 1u);
  EXPECT_EQ(plan.rate(fault::FaultSite::kIcntDrop), 5u);
}

TEST(ParserFuzzFaultPlan, ServeSitesParse) {
  // The serving chaos sites share the plan grammar and the ppm range
  // check with the simulator sites.
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::FaultPlan::parse(
                  "seed=3,serve_worker_stall=1000000,serve_queue_reject=250000", plan)
                  .ok());
  EXPECT_EQ(plan.rate(fault::FaultSite::kServeWorkerStall), 1'000'000u);
  EXPECT_EQ(plan.rate(fault::FaultSite::kServeQueueReject), 250'000u);

  fault::FaultPlan untouched;
  untouched.seed = 55;
  EXPECT_FALSE(fault::FaultPlan::parse("serve_frame_corrupt=1000001", untouched).ok());
  EXPECT_EQ(untouched.seed, 55u);
}

TEST(ParserFuzzFaultPlan, SeededMutationsNeverCrash) {
  const std::string valid =
      "seed=7,shared_flip=100,global_flip=200,bloom_flip=300,racereg_drop=400,"
      "icnt_drop=500,icnt_dup=600,icnt_delay=700,dram_flip=800,trace_corrupt=900,"
      "serve_frame_truncate=50,serve_frame_corrupt=60,serve_decode_corrupt=70,"
      "serve_worker_stall=80,serve_queue_reject=90";
  SplitMix64 rng(0x66757a7aULL);
  for (int i = 0; i < 2000; ++i) {
    std::string text = valid;
    const u32 rounds = 1 + static_cast<u32>(rng.next() % 4);
    for (u32 r = 0; r < rounds; ++r) text = mutate(text, rng);
    fault::FaultPlan plan;
    plan.seed = 31337;
    const Status st = fault::FaultPlan::parse(text, plan);
    if (!st.ok()) {
      EXPECT_EQ(plan.seed, 31337u) << "iteration " << i << ": " << text;
    }
  }
}

// --- Suppression files -------------------------------------------------------

TEST(ParserFuzzSuppressions, MalformedTable) {
  const char* cases[] = {
      "{",                          // unterminated block
      "}",                          // close without open
      "{\n}\n",                     // block without a name
      "{\n{\n",                     // nested open
      "stray content\n",            // content outside a block
      "{\nname\nkernel:\n}\n",      // empty value
      "{\nname\npc: 12x\n}\n",      // non-decimal pc
      "{\nname\nsecond name\n}\n",  // two names
  };
  for (const char* text : cases) {
    std::vector<analysis::Suppression> out(1);
    EXPECT_FALSE(analysis::parse_suppressions(text, out).ok()) << text;
    EXPECT_EQ(out.size(), 1u) << "out must be untouched: " << text;
  }
}

TEST(ParserFuzzSuppressions, ValidFileAppends) {
  const std::string text =
      "# comment\n{\nknown-hist-race\nkernel: HIST\nkind: may-race\npc: 12\n}\n"
      "{\ncatch-all\n}\n";
  std::vector<analysis::Suppression> out(1);
  ASSERT_TRUE(analysis::parse_suppressions(text, out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1].name, "known-hist-race");
  EXPECT_EQ(out[1].kernel_glob, "HIST");
  EXPECT_EQ(out[1].pc, "12");
  EXPECT_EQ(out[2].kernel_glob, "*");
}

TEST(ParserFuzzSuppressions, SeededMutationsNeverCrash) {
  const std::string valid = "{\nname-1\nkernel: SCAN\nkind: lint:*\npc: 3\n}\n";
  SplitMix64 rng(0x73757070ULL);
  for (int i = 0; i < 2000; ++i) {
    std::string text = valid;
    const u32 rounds = 1 + static_cast<u32>(rng.next() % 4);
    for (u32 r = 0; r < rounds; ++r) text = mutate(text, rng);
    std::vector<analysis::Suppression> out(2);
    const Status st = analysis::parse_suppressions(text, out);
    if (!st.ok()) {
      EXPECT_EQ(out.size(), 2u) << "iteration " << i << ": " << text;
    }
  }
}

TEST(ParserFuzzSuppressions, LoadMissingFileIsNotFound) {
  std::vector<analysis::Suppression> out;
  const Status st = analysis::load_suppressions("/nonexistent/suppressions.supp", out);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_TRUE(out.empty());
}

// --- SimConfig::parse_env ----------------------------------------------------

class ParserFuzzSimEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("HACCRG_THREADS");
    unsetenv("HACCRG_FAULTS");
  }
};

TEST_F(ParserFuzzSimEnv, MalformedThreadsTable) {
  const char* cases[] = {"0", "abc", "-3", "65", "1e3", "999999999999"};
  for (const char* value : cases) {
    setenv("HACCRG_THREADS", value, 1);
    sim::SimConfig out;
    out.num_threads = 31;
    EXPECT_FALSE(sim::SimConfig::parse_env(out).ok()) << value;
    EXPECT_EQ(out.num_threads, 31u) << "out must be untouched: " << value;
  }
}

TEST_F(ParserFuzzSimEnv, MalformedFaultsRejected) {
  setenv("HACCRG_THREADS", "2", 1);
  setenv("HACCRG_FAULTS", "seed=oops", 1);
  sim::SimConfig out;
  EXPECT_FALSE(sim::SimConfig::parse_env(out).ok());
  setenv("HACCRG_FAULTS", "seed=9,icnt_drop=100", 1);
  ASSERT_TRUE(sim::SimConfig::parse_env(out).ok());
  EXPECT_EQ(out.num_threads, 2u);
  EXPECT_EQ(out.faults.seed, 9u);
}

// --- filter_compatible (AnalyzeOptions vs detector config) -------------------

TEST(ParserFuzzFilterCompat, RejectsIncompatibleReports) {
  rd::HaccrgConfig det;
  det.enable_shared = true;
  det.enable_global = true;
  det.shared_granularity = 16;
  det.global_granularity = 4;

  analysis::AnalyzeOptions matching = analysis::options_for(det, 64, 2);
  EXPECT_TRUE(analysis::filter_compatible(matching, det, 64, 2).ok());

  analysis::AnalyzeOptions wrong_gran = matching;
  wrong_gran.shared_granularity = 4;
  EXPECT_FALSE(analysis::filter_compatible(wrong_gran, det, 64, 2).ok());

  analysis::AnalyzeOptions wrong_geom = matching;
  wrong_geom.block_dim = 128;
  EXPECT_FALSE(analysis::filter_compatible(wrong_geom, det, 64, 2).ok());

  rd::HaccrgConfig regrouped = det;
  regrouped.warp_regrouping = true;
  analysis::AnalyzeOptions warp_sync = matching;
  warp_sync.warp_synchronous = true;
  EXPECT_FALSE(analysis::filter_compatible(warp_sync, regrouped, 64, 2).ok());
}

// --- serve protocol: parse_request / parse_response --------------------------

/// A sentinel-filled request whose every field must survive a failed
/// parse untouched (the serve parser's documented contract).
serve::Request sentinel_request() {
  serve::Request r;
  r.verb = serve::Verb::kCancel;
  r.job_id = 424242;
  r.kernel = 99;
  r.wait = true;
  r.deadline_ms = 31337;
  r.trace = {0xde, 0xad};
  return r;
}

void expect_request_untouched(const serve::Request& r, const std::string& what) {
  EXPECT_EQ(r.verb, serve::Verb::kCancel) << what;
  EXPECT_EQ(r.job_id, 424242u) << what;
  EXPECT_EQ(r.kernel, 99) << what;
  EXPECT_TRUE(r.wait) << what;
  EXPECT_EQ(r.deadline_ms, 31337u) << what;
  EXPECT_EQ(r.trace, (std::vector<u8>{0xde, 0xad})) << what;
}

TEST(ParserFuzzServeRequest, MalformedTable) {
  const char* cases[] = {
      "",                                // empty payload
      "\n",                              // no verb
      "FROBNICATE\n\n",                  // unknown verb
      "SUBMIT\n\n",                      // SUBMIT without a body
      "SUBMIT\nworkers: 0\n\nxx",        // workers below range
      "SUBMIT\nworkers: 65\n\nxx",       // workers above range
      "SUBMIT\nworkers: -2\n\nxx",       // signed number
      "SUBMIT\nworkers: 2\nworkers: 2\n\nxx",  // duplicate field
      "SUBMIT\nkernel: 9999999\n\nxx",   // kernel over the cap
      "SUBMIT\njob: 5\n\nxx",            // field of another verb
      "RESULT\n\n",                      // job verbs need a job id
      "RESULT\njob: 0\n\n",              // job ids start at 1
      "RESULT\njob: abc\n\n",            // non-numeric
      "RESULT\njob: 1\nwait: 2\n\n",     // wait is 0/1
      "RESULT\njob: 1\n\ntrailing",      // body on a bodiless verb
      "STATS\nbogus: 1\n\n",             // unknown field
      "STATS\nbogus 1\n\n",              // field without ': '
      "STATS\n",                         // missing blank-line terminator
      "CANCEL\njob: 1\x01\n\n",          // non-printable byte in the head
      "SUBMIT\ndeadline_ms: 0\n\nxx",        // deadlines start at 1ms
      "SUBMIT\ndeadline_ms: 86400001\n\nxx", // above the 24h cap
      "SUBMIT\ndeadline_ms: abc\n\nxx",      // non-numeric deadline
      "SUBMIT\ndeadline_ms: -5\n\nxx",       // signed deadline
      "RESULT\njob: 1\ndeadline_ms: 5\n\n",  // deadline is SUBMIT-only
  };
  for (const char* text : cases) {
    serve::Request out = sentinel_request();
    EXPECT_FALSE(
        serve::parse_request(reinterpret_cast<const u8*>(text), std::strlen(text), out).ok())
        << text;
    expect_request_untouched(out, text);
  }
}

TEST(ParserFuzzServeRequest, SeededMutationsNeverCrash) {
  serve::Request valid;
  valid.verb = serve::Verb::kSubmit;
  valid.kernel = 2;
  valid.deadline_ms = 1500;
  valid.trace = {0x10, 0x20, 0x30, 0x40, 0x50};
  std::vector<u8> encoded;
  serve::encode_request(valid, encoded);
  std::string base(encoded.begin(), encoded.end());
  // Older clients still send the (now ignored) per-job "workers" key;
  // keep it in the mutation base so its range check stays fuzzed.
  base.insert(base.find('\n') + 1, "workers: 4\n");

  SplitMix64 rng(0x73657276ULL);
  u32 accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string text = base;
    const u32 rounds = 1 + static_cast<u32>(rng.next() % 4);
    for (u32 r = 0; r < rounds; ++r) text = mutate(text, rng);
    serve::Request out = sentinel_request();
    const Status st =
        serve::parse_request(reinterpret_cast<const u8*>(text.data()), text.size(), out);
    if (st.ok()) {
      ++accepted;  // a mutated body is still a valid SUBMIT
    } else {
      expect_request_untouched(out, "iteration " + std::to_string(i));
    }
  }
  // Body bytes are opaque, so plenty of mutants must still parse.
  EXPECT_GT(accepted, 0u);
}

TEST(ParserFuzzServeResponse, SeededMutationsNeverCrash) {
  serve::Response valid;
  valid.ok = true;
  valid.job_id = 12;
  valid.state = "done";
  valid.body = "{\"unique_races\": 3}";
  std::vector<u8> encoded;
  serve::encode_response(valid, encoded);
  const std::string base(encoded.begin(), encoded.end());

  SplitMix64 rng(0x72657370ULL);
  for (int i = 0; i < 2000; ++i) {
    std::string text = base;
    const u32 rounds = 1 + static_cast<u32>(rng.next() % 4);
    for (u32 r = 0; r < rounds; ++r) text = mutate(text, rng);
    serve::Response out;
    out.job_id = 777;
    out.state = "sentinel";
    const Status st =
        serve::parse_response(reinterpret_cast<const u8*>(text.data()), text.size(), out);
    if (!st.ok()) {
      EXPECT_EQ(out.job_id, 777u) << "iteration " << i;
      EXPECT_EQ(out.state, "sentinel") << "iteration " << i;
    }
  }
}

// --- fuzz::KernelSpec::parse -------------------------------------------------

TEST(ParserFuzzKernelSpec, SeededMutationsNeverCrashAndRoundTrip) {
  const std::string valid = fuzz::spec_from_seed(5).serialize();
  SplitMix64 rng(0x73706563ULL);
  u32 accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string text = valid;
    const u32 rounds = 1 + static_cast<u32>(rng.next() % 4);
    for (u32 r = 0; r < rounds; ++r) text = mutate(text, rng);
    fuzz::KernelSpec out;
    out.name = "sentinel";
    const Status st = fuzz::KernelSpec::parse(text, out);
    if (st.ok()) {
      // Whatever survived mutation must re-serialize losslessly and
      // stay inside the validated envelope.
      ++accepted;
      EXPECT_TRUE(out.validate().ok());
      fuzz::KernelSpec again;
      ASSERT_TRUE(fuzz::KernelSpec::parse(out.serialize(), again).ok());
      EXPECT_EQ(again.serialize(), out.serialize());
    } else {
      EXPECT_EQ(out.name, "sentinel") << "iteration " << i << ": " << text;
    }
  }
  // The format is line-oriented and forgiving of whitespace, so some
  // mutants must still parse — otherwise the harness tests nothing.
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace haccrg
