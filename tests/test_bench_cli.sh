#!/usr/bin/env bash
# Flag-parsing contract of the bench binaries that take options:
# bench_hotpath and bench_fig7_performance. An unknown flag, a stray
# positional argument, a flag without its value and a malformed numeric
# value must each exit 2 with a usage line on stderr, before any
# benchmark work starts. Valid flags are not run here: each would
# simulate the whole suite. bench_serving is checked only for refusing
# --job-workers: replay is serial per job, so there is nothing to set.
#
#   test_bench_cli.sh BENCH_HOTPATH BENCH_FIG7 BENCH_SERVING [WORKDIR]
set -u

HOTPATH=$1
FIG7=$2
SERVING=$3
WORK=${4:-$(mktemp -d)}
# The test runs from inside $WORK (a mis-parsed run would write its JSON
# there), so relative binary paths must be anchored to the caller's cwd.
case "$HOTPATH" in /*) ;; *) HOTPATH="$PWD/$HOTPATH" ;; esac
case "$FIG7" in /*) ;; *) FIG7="$PWD/$FIG7" ;; esac
case "$SERVING" in /*) ;; *) SERVING="$PWD/$SERVING" ;; esac
mkdir -p "$WORK"
cd "$WORK" || exit 99

fails=0

expect_usage() {
  "$@" >cli_stdout.txt 2>cli_stderr.txt
  local got=$?
  if [ "$got" -ne 2 ]; then
    echo "FAIL: expected exit 2, got $got: $*"
    fails=$((fails + 1))
    return
  fi
  if ! grep -q '^usage:' cli_stderr.txt; then
    echo "FAIL: exit 2 without a usage line: $*"
    fails=$((fails + 1))
  fi
}

for bin in "$HOTPATH" "$FIG7"; do
  expect_usage "$bin" --bogus
  expect_usage "$bin" --bogus value
  expect_usage "$bin" positional
  expect_usage "$bin" --json
done

expect_usage "$HOTPATH" --baseline
expect_usage "$HOTPATH" --write-baseline
expect_usage "$HOTPATH" --max-regress
expect_usage "$HOTPATH" --max-regress abc
expect_usage "$HOTPATH" --max-regress 0.25x
expect_usage "$HOTPATH" --max-regress -0.1
expect_usage "$HOTPATH" --max-regress ""
expect_usage "$HOTPATH" --json out.json --max-regress

expect_usage "$FIG7" --threads
expect_usage "$FIG7" --threads 0
expect_usage "$FIG7" --threads 1,x
expect_usage "$FIG7" --threads 1,2 extra

expect_usage "$SERVING" --job-workers 2

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed"
  exit 1
fi
echo "all bench flag checks passed"
exit 0
