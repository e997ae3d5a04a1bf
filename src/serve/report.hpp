// Structured race reports for the serving path. The JSON is built from
// the replay result's canonical race identity set (sorted RaceKeys), so
// two replays of the same trace produce byte-identical reports — whatever
// worker or arena ran them, which is what lets the server memoize
// results and the isolation tests compare bytes.
//
// Races are grouped for reporting by (pc, space, class) where class is
// the (race type, detection mechanism) pair: one group per distinct
// program location and failure mode, with an occurrence count and the
// first (lowest-key) occurrence spelled out. The full identity count is
// kept per group; raw un-deduplicated totals are omitted on purpose —
// they are detector-internal and say nothing about the program.
#pragma once

#include <string>

#include "trace/replay.hpp"

namespace haccrg::serve {

/// Render `result` (which must be ok) as the service's report JSON.
std::string build_report_json(const trace::ReplayResult& result);

/// Minimal JSON string escaping (quotes, backslash, control bytes).
std::string json_escape(const std::string& text);

}  // namespace haccrg::serve
