#!/usr/bin/env bash
# The committed golden trace must be exactly what the recorder writes
# today. Records the run scripts/regen_golden_trace.sh records, into a
# scratch directory, and requires byte equality with both golden files:
# a recorder or timing change that moves the trace fails here until the
# goldens are regenerated (TraceReplayGolden alone only replays the
# committed file, so it cannot notice).
#
#   test_golden_trace.sh BUILD_DIR SOURCE_DIR WORKDIR
set -u

BUILD=$1
SOURCE=$2
WORK=$3
rm -rf "$WORK"
mkdir -p "$WORK"

if ! BUILD_DIR="$BUILD" OUT_DIR="$WORK" bash "$SOURCE/scripts/regen_golden_trace.sh" \
    >"$WORK/record.log" 2>&1; then
  echo "FAIL: recording the golden run failed"
  sed 's/^/  /' "$WORK/record.log"
  exit 1
fi

fails=0
for file in trace_reduce.trc trace_reduce_races.txt; do
  if ! cmp "$SOURCE/tests/golden/$file" "$WORK/$file"; then
    echo "FAIL: tests/golden/$file differs from a fresh recording;" \
         "if the change is intentional, run scripts/regen_golden_trace.sh"
    fails=$((fails + 1))
  fi
done
[ "$fails" -eq 0 ] || exit 1
echo "golden trace matches a fresh recording"
