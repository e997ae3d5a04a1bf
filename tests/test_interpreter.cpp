// The SM interpreter, instruction by instruction: every ALU opcode and
// every setp comparison runs on warps with a divergent and a partial
// active mask, and is checked lane by lane against a scalar reference.
// Inactive lanes must keep their registers and predicate bits, and the
// lane-instruction counter must grow by exactly the active-lane count.
// A second suite runs the ten registry kernels on 16-lane warps, the only
// geometry here whose full warps do not fill a 32-bit lane mask.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "isa/builder.hpp"
#include "kernels/common.hpp"
#include "sim/gpu.hpp"

namespace haccrg {
namespace {

using isa::CmpOp;
using isa::KernelBuilder;
using isa::Operand;
using isa::Pred;
using isa::Reg;
using isa::SpecialReg;

// Two blocks of 48 threads on one SM: each block has a full 32-lane warp
// and a 16-lane one, and the per-thread selector m makes both divergent.
constexpr u32 kBlockDim = 48;
constexpr u32 kGridDim = 2;
constexpr u32 kThreads = kBlockDim * kGridDim;

/// The registers and predicates a case's body may use. Before the body,
/// q = (d & 1) != 0 on every lane and p = (m != 0) is the if's predicate.
struct Regs {
  Reg d, a, b;
  Pred q, p;
};

/// One lane's architectural state, as the scalar reference sees it.
struct Lane {
  u32 a = 0, b = 0, d = 0;
  bool q = false, p = false;
  u32 thread = 0;  ///< global thread id
};

struct Case {
  std::string name;
  bool floats = false;
  u32 body_instructions = 1;
  std::function<void(KernelBuilder&, const Regs&)> emit;
  std::function<void(Lane&)> ref;  ///< applied to active lanes only
};

struct Inputs {
  std::vector<u32> a, b, d, m;
};

Inputs make_inputs(bool floats, u32 seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<f32> real(-100.0f, 100.0f);
  Inputs in;
  for (u32 t = 0; t < kThreads; ++t) {
    const u32 a = floats ? as_u32(real(rng)) : static_cast<u32>(rng());
    u32 b = floats ? as_u32(real(rng)) : static_cast<u32>(rng());
    if (t % 5 == 0) b = a;                            // equal operands
    if (t % 7 == 3) b = floats ? as_u32(0.0f) : 0u;  // division by zero
    if (!floats && t % 11 == 4) b = a ^ 0x80000000u;  // signed/unsigned disagree
    in.a.push_back(a);
    in.b.push_back(b);
    in.d.push_back(static_cast<u32>(rng()));
    in.m.push_back(rng() % 3 != 0 ? 1u : 0u);
  }
  return in;
}

struct Outcome {
  std::vector<u32> d, a, q, p;
  u64 lane_instructions = 0;
};

/// Load a, b, d, m; derive q and p; run `body` under if (p); store d, a, q, p.
Outcome run(const Inputs& in, const std::function<void(KernelBuilder&, const Regs&)>& body) {
  arch::GpuConfig cfg;
  cfg.num_sms = 1;
  cfg.device_mem_bytes = 4 * 1024 * 1024;
  sim::Gpu gpu(cfg, rd::HaccrgConfig{});
  std::vector<Addr> buf;
  for (u32 i = 0; i < 8; ++i) buf.push_back(gpu.allocator().alloc(kThreads * 4, "buf"));
  for (u32 t = 0; t < kThreads; ++t) {
    gpu.memory().write_u32(buf[0] + t * 4, in.a[t]);
    gpu.memory().write_u32(buf[1] + t * 4, in.b[t]);
    gpu.memory().write_u32(buf[2] + t * 4, in.d[t]);
    gpu.memory().write_u32(buf[3] + t * 4, in.m[t]);
  }

  KernelBuilder kb("interp");
  const Reg gid = kb.special(SpecialReg::kGTid);
  std::vector<Reg> addr;
  for (u32 i = 0; i < 8; ++i) addr.push_back(kb.addr(kb.param(i), gid, 4));
  Regs r{kb.reg(), kb.reg(), kb.reg(), kb.pred(), kb.pred()};
  const Reg m = kb.reg();
  kb.ld_global(r.a, addr[0]);
  kb.ld_global(r.b, addr[1]);
  kb.ld_global(r.d, addr[2]);
  kb.ld_global(m, addr[3]);
  const Reg low = kb.reg();
  kb.and_(low, r.d, 1);
  kb.setp(r.q, CmpOp::kNe, low, 0);
  kb.setp(r.p, CmpOp::kNe, m, 0);
  const Reg one = kb.imm(1);
  const Reg zero = kb.imm(0);
  kb.if_(r.p, [&] { body(kb, r); });
  const Reg qv = kb.reg();
  const Reg pv = kb.reg();
  kb.sel(qv, r.q, one, zero);
  kb.sel(pv, r.p, one, zero);
  kb.st_global(addr[4], r.d);
  kb.st_global(addr[5], r.a);
  kb.st_global(addr[6], qv);
  kb.st_global(addr[7], pv);
  const isa::Program prog = kb.build();

  sim::LaunchConfig launch;
  launch.program = &prog;
  launch.grid_dim = kGridDim;
  launch.block_dim = kBlockDim;
  for (u32 i = 0; i < 8; ++i) launch.params[i] = static_cast<u32>(buf[i]);
  const sim::SimResult result = gpu.launch(launch);
  EXPECT_TRUE(result.completed) << result.error;

  Outcome out;
  out.lane_instructions = result.lane_instructions;
  for (u32 t = 0; t < kThreads; ++t) {
    out.d.push_back(gpu.memory().read_u32(buf[4] + t * 4));
    out.a.push_back(gpu.memory().read_u32(buf[5] + t * 4));
    out.q.push_back(gpu.memory().read_u32(buf[6] + t * 4));
    out.p.push_back(gpu.memory().read_u32(buf[7] + t * 4));
  }
  return out;
}

/// Run `c` and an empty body on the same inputs; compare every lane with
/// the reference and the lane-instruction delta with the active count.
void check(const Case& c) {
  SCOPED_TRACE(c.name);
  const Inputs in = make_inputs(c.floats, 7);
  const Outcome got = run(in, c.emit);
  const Outcome base = run(in, [](KernelBuilder&, const Regs&) {});
  u64 active = 0;
  for (u32 t = 0; t < kThreads; ++t) {
    Lane lane{in.a[t], in.b[t], in.d[t], (in.d[t] & 1) != 0, in.m[t] != 0, t};
    if (in.m[t] != 0) {
      ++active;
      c.ref(lane);
    }
    EXPECT_EQ(got.d[t], lane.d) << "d, thread " << t;
    EXPECT_EQ(got.a[t], lane.a) << "a, thread " << t;
    EXPECT_EQ(got.q[t], lane.q ? 1u : 0u) << "q, thread " << t;
    EXPECT_EQ(got.p[t], lane.p ? 1u : 0u) << "p, thread " << t;
  }
  ASSERT_GT(active, 0u);
  ASSERT_LT(active, u64{kThreads});
  EXPECT_EQ(got.lane_instructions - base.lane_instructions, c.body_instructions * active);
}

f32 f(u32 v) { return as_f32(v); }
i32 s(u32 v) { return static_cast<i32>(v); }

using BinaryEmit = void (KernelBuilder::*)(Reg, Reg, Operand);
struct Binary {
  const char* name;
  BinaryEmit emit;
  u32 (*ref)(u32, u32);
  bool floats;
};

const Binary kBinary[] = {
    {"add", &KernelBuilder::add, [](u32 a, u32 b) { return a + b; }, false},
    {"sub", &KernelBuilder::sub, [](u32 a, u32 b) { return a - b; }, false},
    {"mul", &KernelBuilder::mul, [](u32 a, u32 b) { return a * b; }, false},
    {"mulhi", &KernelBuilder::mulhi,
     [](u32 a, u32 b) { return static_cast<u32>((u64{a} * u64{b}) >> 32); }, false},
    {"div", &KernelBuilder::div, [](u32 a, u32 b) { return b == 0 ? 0 : a / b; }, false},
    {"rem", &KernelBuilder::rem, [](u32 a, u32 b) { return b == 0 ? 0 : a % b; }, false},
    {"umin", &KernelBuilder::umin, [](u32 a, u32 b) { return a < b ? a : b; }, false},
    {"umax", &KernelBuilder::umax, [](u32 a, u32 b) { return a < b ? b : a; }, false},
    {"and", &KernelBuilder::and_, [](u32 a, u32 b) { return a & b; }, false},
    {"or", &KernelBuilder::or_, [](u32 a, u32 b) { return a | b; }, false},
    {"xor", &KernelBuilder::xor_, [](u32 a, u32 b) { return a ^ b; }, false},
    {"shl", &KernelBuilder::shl, [](u32 a, u32 b) { return a << (b % 32); }, false},
    {"shr", &KernelBuilder::shr, [](u32 a, u32 b) { return a >> (b % 32); }, false},
    {"sra", &KernelBuilder::sra,
     [](u32 a, u32 b) { return static_cast<u32>(s(a) >> (b % 32)); }, false},
    {"fadd", &KernelBuilder::fadd, [](u32 a, u32 b) { return as_u32(f(a) + f(b)); }, true},
    {"fsub", &KernelBuilder::fsub, [](u32 a, u32 b) { return as_u32(f(a) - f(b)); }, true},
    {"fmul", &KernelBuilder::fmul, [](u32 a, u32 b) { return as_u32(f(a) * f(b)); }, true},
    {"fdiv", &KernelBuilder::fdiv, [](u32 a, u32 b) { return as_u32(f(a) / f(b)); }, true},
    {"fmin", &KernelBuilder::fmin,
     [](u32 a, u32 b) { return as_u32(f(b) < f(a) ? f(b) : f(a)); }, true},
    {"fmax", &KernelBuilder::fmax,
     [](u32 a, u32 b) { return as_u32(f(a) < f(b) ? f(b) : f(a)); }, true},
};

TEST(Interpreter, BinaryAluOpsRegisterImmediateAndAliased) {
  for (const Binary& op : kBinary) {
    const u32 imm = op.floats ? as_u32(-2.5f) : 0x9e3779b9u;
    check({std::string(op.name) + " d,a,b", op.floats, 1,
           [&](KernelBuilder& kb, const Regs& r) { (kb.*op.emit)(r.d, r.a, r.b); },
           [&](Lane& l) { l.d = op.ref(l.a, l.b); }});
    check({std::string(op.name) + " d,a,imm", op.floats, 1,
           [&](KernelBuilder& kb, const Regs& r) { (kb.*op.emit)(r.d, r.a, imm); },
           [&](Lane& l) { l.d = op.ref(l.a, imm); }});
    check({std::string(op.name) + " a,a,a", op.floats, 1,
           [&](KernelBuilder& kb, const Regs& r) { (kb.*op.emit)(r.a, r.a, r.a); },
           [&](Lane& l) { l.a = op.ref(l.a, l.a); }});
  }
}

using UnaryEmit = void (KernelBuilder::*)(Reg, Reg);
struct Unary {
  const char* name;
  UnaryEmit emit;
  u32 (*ref)(u32);
  bool floats;
};

const Unary kUnary[] = {
    {"not", &KernelBuilder::not_, [](u32 a) { return ~a; }, false},
    {"fsqrt", &KernelBuilder::fsqrt, [](u32 a) { return as_u32(std::sqrt(f(a))); }, true},
    {"fabs", &KernelBuilder::fabs_, [](u32 a) { return as_u32(std::fabs(f(a))); }, true},
    {"flog", &KernelBuilder::flog, [](u32 a) { return as_u32(std::log(f(a))); }, true},
    {"fexp", &KernelBuilder::fexp, [](u32 a) { return as_u32(std::exp(f(a))); }, true},
    {"i2f", &KernelBuilder::i2f, [](u32 a) { return as_u32(static_cast<f32>(s(a))); }, false},
    {"f2i", &KernelBuilder::f2i, [](u32 a) { return static_cast<u32>(static_cast<i32>(f(a))); },
     true},
};

TEST(Interpreter, UnaryAluOpsAndAliased) {
  for (const Unary& op : kUnary) {
    check({std::string(op.name) + " d,a", op.floats, 1,
           [&](KernelBuilder& kb, const Regs& r) { (kb.*op.emit)(r.d, r.a); },
           [&](Lane& l) { l.d = op.ref(l.a); }});
    check({std::string(op.name) + " a,a", op.floats, 1,
           [&](KernelBuilder& kb, const Regs& r) { (kb.*op.emit)(r.a, r.a); },
           [&](Lane& l) { l.a = op.ref(l.a); }});
  }
}

TEST(Interpreter, MovSelSpecialAndParam) {
  check({"mov d,a", false, 1, [](KernelBuilder& kb, const Regs& r) { kb.mov(r.d, r.a); },
         [](Lane& l) { l.d = l.a; }});
  check({"mov d,imm", false, 1, [](KernelBuilder& kb, const Regs& r) { kb.mov(r.d, 12345u); },
         [](Lane& l) { l.d = 12345u; }});
  check({"sel d,q,a,b", false, 1, [](KernelBuilder& kb, const Regs& r) { kb.sel(r.d, r.q, r.a, r.b); },
         [](Lane& l) { l.d = l.q ? l.a : l.b; }});
  check({"sel a,q,a,a", false, 1, [](KernelBuilder& kb, const Regs& r) { kb.sel(r.a, r.q, r.a, r.a); },
         [](Lane&) {}});
  check({"sel a,p,b,a", false, 1, [](KernelBuilder& kb, const Regs& r) { kb.sel(r.a, r.p, r.b, r.a); },
         [](Lane& l) { l.a = l.b; }});

  // The launch is two blocks of 48 threads on SM 0; thread t is lane
  // (t % 48) % 32 of warp (t % 48) / 32 in block t / 48.
  const auto tid = [](const Lane& l) { return l.thread % kBlockDim; };
  const std::pair<SpecialReg, std::function<u32(const Lane&)>> specials[] = {
      {SpecialReg::kTid, tid},
      {SpecialReg::kNTid, [](const Lane&) { return kBlockDim; }},
      {SpecialReg::kCtaId, [](const Lane& l) { return l.thread / kBlockDim; }},
      {SpecialReg::kNCtaId, [](const Lane&) { return kGridDim; }},
      {SpecialReg::kGTid, [](const Lane& l) { return l.thread; }},
      {SpecialReg::kLane, [&](const Lane& l) { return tid(l) % 32; }},
      {SpecialReg::kWarpId, [&](const Lane& l) { return tid(l) / 32; }},
      {SpecialReg::kSmId, [](const Lane&) { return 0u; }},
  };
  for (const auto& [which, value] : specials) {
    check({"special " + std::to_string(static_cast<u32>(which)), false, 2,
           [&](KernelBuilder& kb, const Regs& r) { kb.mov(r.d, kb.special(which)); },
           [&](Lane& l) { l.d = value(l); }});
  }

  // Parameter 3 holds the device address of the m buffer, which the
  // scalar side does not know; compare every active lane with lane 0's.
  const Inputs in = make_inputs(false, 7);
  const Outcome got = run(in, [](KernelBuilder& kb, const Regs& r) { kb.mov(r.d, kb.param(3)); });
  const u32 first = static_cast<u32>(std::find(in.m.begin(), in.m.end(), 1u) - in.m.begin());
  for (u32 t = 0; t < kThreads; ++t)
    EXPECT_EQ(got.d[t], in.m[t] != 0 ? got.d[first] : in.d[t]) << "param, thread " << t;
  EXPECT_NE(got.d[first], in.d[first]);
}

bool compare(CmpOp op, u32 a, u32 b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLtU: return a < b;
    case CmpOp::kLeU: return a <= b;
    case CmpOp::kGtU: return a > b;
    case CmpOp::kGeU: return a >= b;
    case CmpOp::kLtS: return s(a) < s(b);
    case CmpOp::kLeS: return s(a) <= s(b);
    case CmpOp::kGtS: return s(a) > s(b);
    case CmpOp::kGeS: return s(a) >= s(b);
    case CmpOp::kLtF: return f(a) < f(b);
    case CmpOp::kLeF: return f(a) <= f(b);
    case CmpOp::kGtF: return f(a) > f(b);
    case CmpOp::kGeF: return f(a) >= f(b);
    case CmpOp::kEqF: return f(a) == f(b);
    case CmpOp::kNeF: return f(a) != f(b);
  }
  return false;
}

TEST(Interpreter, SetpEveryComparisonKeepsInactiveBits) {
  for (u32 c = 0; c <= static_cast<u32>(CmpOp::kNeF); ++c) {
    const CmpOp op = static_cast<CmpOp>(c);
    const bool floats = op >= CmpOp::kLtF;
    const u32 imm = floats ? as_u32(1.5f) : 0x80000001u;
    const std::string name = "setp " + std::string(isa::cmp_name(op));
    check({name + " q,a,b", floats, 1,
           [&](KernelBuilder& kb, const Regs& r) { kb.setp(r.q, op, r.a, r.b); },
           [&](Lane& l) { l.q = compare(op, l.a, l.b); }});
    check({name + " q,a,imm", floats, 1,
           [&](KernelBuilder& kb, const Regs& r) { kb.setp(r.q, op, r.a, imm); },
           [&](Lane& l) { l.q = compare(op, l.a, imm); }});
    check({name + " q,a,a", floats, 1,
           [&](KernelBuilder& kb, const Regs& r) { kb.setp(r.q, op, r.a, r.a); },
           [&](Lane& l) { l.q = compare(op, l.a, l.a); }});
    // Overwrite the predicate the enclosing if is steering by.
    check({name + " p,a,b", floats, 1,
           [&](KernelBuilder& kb, const Regs& r) { kb.setp(r.p, op, r.a, r.b); },
           [&](Lane& l) { l.p = compare(op, l.a, l.b); }});
  }
}

// --- Narrow warps -------------------------------------------------------------

struct NarrowPin {
  const char* name;
  Cycle cycles;
  u64 races;  ///< RaceLog::total()
};

// Cycles and race totals of the seed-0 inputs on 8 SMs with 16-lane warps
// (simd width 8) under combined detection. They pin the interpreter's
// partial-mask paths: a change here is a behaviour change.
const NarrowPin kNarrowPins[] = {
    {"MCARLO", 13612, 0}, {"SCAN", 6844, 768},  {"FWALSH", 4085, 0},  {"HIST", 42162, 65091},
    {"SORTNW", 18605, 0}, {"REDUCE", 18837, 0}, {"PSUM", 5795, 0},    {"OFFT", 943, 16},
    {"KMEANS", 55434, 6144}, {"HASH", 7341, 0},
};

TEST(NarrowWarp, RegistryKernelsRunOnSixteenLaneWarps) {
  arch::GpuConfig cfg;
  cfg.num_sms = 8;
  cfg.warp_size = 16;
  cfg.simd_width = 8;
  cfg.device_mem_bytes = 16 * 1024 * 1024;
  ASSERT_EQ(cfg.validate(), "");
  rd::HaccrgConfig det;
  det.enable_shared = true;
  det.enable_global = true;
  det.shared_granularity = 16;
  det.global_granularity = 4;
  ASSERT_EQ(std::size(kNarrowPins), kernels::all_benchmarks().size());
  for (const NarrowPin& pin : kNarrowPins) {
    SCOPED_TRACE(pin.name);
    const kernels::BenchmarkInfo* info = kernels::find_benchmark(pin.name);
    ASSERT_NE(info, nullptr);
    sim::Gpu gpu(cfg, det);
    kernels::PreparedKernel prep = info->prepare(gpu, kernels::BenchOptions{});
    const sim::SimResult result = gpu.launch(prep.launch());
    ASSERT_TRUE(result.completed) << result.error;
    std::string msg;
    EXPECT_TRUE(prep.verify(gpu.memory(), &msg)) << msg;
    EXPECT_EQ(result.cycles, pin.cycles);
    EXPECT_EQ(result.races.total(), pin.races);
  }
}

}  // namespace
}  // namespace haccrg
