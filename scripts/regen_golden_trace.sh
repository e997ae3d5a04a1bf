#!/usr/bin/env bash
# Regenerate the golden access trace under tests/golden/.
#
# The golden trace is REDUCE with its barrier removed (injected race),
# recorded on the default experiment machine; trace_reduce_races.txt is
# the live run's race set, which TraceReplayGolden asserts the replay
# engine still reproduces. Recording is deterministic, so rerunning this
# script without a detector/format change is a no-op diff; the ctest
# golden_trace_current holds it to that by recording into OUT_DIR and
# comparing bytes with the committed files.
#
# Run after an INTENTIONAL change to the trace format, the recorder, or
# the detectors, then review `git diff tests/golden/` and commit the new
# files together with the code. Bump trace::kFormatVersion when the wire
# format itself changes.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${OUT_DIR:-tests/golden}"
CLI="$BUILD_DIR/src/trace/haccrg-trace"
if [[ ! -x "$CLI" ]]; then
  echo "building haccrg-trace..."
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" --target haccrg-trace -j >/dev/null
fi

"$CLI" record --kernel REDUCE --inject barrier:0 \
  --out "$OUT_DIR/trace_reduce.trc" \
  --races "$OUT_DIR/trace_reduce_races.txt"
if [[ "$OUT_DIR" == tests/golden ]]; then
  echo "regenerated:"
  git -c color.status=always status --short tests/golden/ || true
fi
