#!/usr/bin/env bash
# Exit-code and round-trip contract test for the haccrg-served CLI.
#
#   0 success    1 job/request failed    2 usage    3 transport/io error
#
# Covers the `once` in-process path, a full submit/status/result/stats/
# shutdown round trip against a socket daemon, and the error paths
# (missing files, dead sockets, bad arguments). Every failure must be a
# clean diagnosed exit — no aborts, no uncaught throws, and a non-empty
# stderr diagnosis on every non-zero path.
set -u

BIN=$1        # haccrg-served
TRACE_BIN=$2  # haccrg-trace (records the input trace)
WORK=${3:-$(mktemp -d)}
# The test runs from inside $WORK, so relative binary paths (as
# scripts/check.sh passes) must be anchored to the caller's cwd first.
case "$BIN" in /*) ;; *) BIN="$PWD/$BIN" ;; esac
case "$TRACE_BIN" in /*) ;; *) TRACE_BIN="$PWD/$TRACE_BIN" ;; esac
mkdir -p "$WORK"
cd "$WORK" || exit 99

fails=0

expect_exit() {
  local want=$1
  shift
  "$@" >cli_stdout.txt 2>cli_stderr.txt
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: expected exit $want, got $got: $*"
    sed 's/^/  stderr: /' cli_stderr.txt
    fails=$((fails + 1))
    return 1
  fi
  if [ "$want" -ne 0 ] && [ ! -s cli_stderr.txt ]; then
    echo "FAIL: exit $want with empty stderr: $*"
    fails=$((fails + 1))
    return 1
  fi
  return 0
}

expect_stdout() {
  if ! grep -q "$1" cli_stdout.txt; then
    echo "FAIL: stdout missing '$1' after: $2"
    sed 's/^/  stdout: /' cli_stdout.txt
    fails=$((fails + 1))
  fi
}

# --- Usage errors (2) --------------------------------------------------------
expect_exit 2 "$BIN"
expect_exit 2 "$BIN" frobnicate
expect_exit 2 "$BIN" serve
expect_exit 2 "$BIN" serve --socket sock.s --stdio
expect_exit 2 "$BIN" once
expect_exit 2 "$BIN" once --trace x.trc --bogus
expect_exit 2 "$BIN" client
expect_exit 2 "$BIN" client --socket sock.s frobnicate
expect_exit 2 "$BIN" client --socket sock.s submit

# --- A recorded trace to serve ----------------------------------------------
expect_exit 0 "$TRACE_BIN" record --kernel REDUCE --out good.trc

# --- Strict numeric flags: junk, trailing text, out of range (2) ------------
expect_exit 2 "$BIN" once --trace good.trc --kernel abc
expect_exit 2 "$BIN" once --trace good.trc --kernel 1x
expect_exit 2 "$BIN" once --trace good.trc --kernel -1
expect_exit 2 "$BIN" once --trace good.trc --kernel 99999999999999999999
expect_exit 2 "$BIN" once --trace good.trc --deadline-ms abc
expect_exit 2 "$BIN" once --trace good.trc --deadline-ms 86400001
expect_exit 2 "$BIN" once --trace good.trc --workers 2   # not a per-job flag
expect_exit 2 "$BIN" client --socket sock.s submit good.trc --kernel 2.5
expect_exit 2 "$BIN" client --socket sock.s submit good.trc --deadline-ms ""
expect_exit 2 "$BIN" client --socket sock.s submit good.trc --retries abc
expect_exit 2 "$BIN" client --socket sock.s submit good.trc --workers 2
expect_exit 2 "$BIN" client --socket sock.s status 1x
expect_exit 2 "$BIN" client --socket sock.s result 0 --wait
expect_exit 2 "$BIN" serve --socket strict.s --workers abc
expect_exit 2 "$BIN" serve --socket strict.s --workers 0
expect_exit 2 "$BIN" serve --socket strict.s --workers 65
expect_exit 2 "$BIN" serve --socket strict.s --queue abc
expect_exit 2 "$BIN" serve --socket strict.s --queue 0
expect_exit 2 "$BIN" serve --socket strict.s --deadline-ms 5ms
expect_exit 2 "$BIN" serve --socket strict.s --drain-timeout 50x
expect_exit 2 "$BIN" serve --socket strict.s --drain-timeout -2
if [ -e strict.s ]; then
  echo "FAIL: a serve usage error still bound its socket"
  fails=$((fails + 1))
fi

# --- once: in-process round trip ---------------------------------------------
expect_exit 0 "$BIN" once --trace good.trc
expect_stdout '"unique_races"' "once --trace good.trc"
expect_exit 3 "$BIN" once --trace ./does_not_exist.trc
expect_exit 1 "$BIN" once --trace good.trc --kernel 5000   # no such slice
printf 'not a haccrg trace\n' > garbage.trc
expect_exit 1 "$BIN" once --trace garbage.trc              # decode fails

# --- client against a dead socket (3) ----------------------------------------
expect_exit 3 "$BIN" client --socket ./no_daemon.s stats

# --- socket daemon round trip ------------------------------------------------
"$BIN" serve --socket daemon.s --workers 2 >daemon_out.txt 2>daemon_err.txt &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [ -S daemon.s ] && break
  sleep 0.1
done
if [ ! -S daemon.s ]; then
  echo "FAIL: daemon never created its socket"
  sed 's/^/  daemon: /' daemon_err.txt
  kill "$DAEMON_PID" 2>/dev/null
  exit 1
fi

expect_exit 0 "$BIN" client --socket daemon.s submit good.trc --retries 2
expect_stdout 'job: ' "client submit"
JOB=$(sed -n 's/^job: //p' cli_stdout.txt)
if [ -z "$JOB" ]; then
  echo "FAIL: submit did not return a job id"
  fails=$((fails + 1))
  JOB=1
fi

expect_exit 0 "$BIN" client --socket daemon.s result "$JOB" --wait
expect_stdout '"unique_races"' "client result --wait"
expect_exit 0 "$BIN" client --socket daemon.s status "$JOB"
expect_stdout 'state: done' "client status"
expect_exit 1 "$BIN" client --socket daemon.s cancel "$JOB"   # already done
expect_exit 1 "$BIN" client --socket daemon.s result 424242   # no such job
expect_exit 0 "$BIN" client --socket daemon.s stats
expect_stdout '"queue_depth"' "client stats"

# --- transport death mid-request must not kill the daemon --------------------
# Half a SUBMIT frame, then the connection dies: the daemon must drop the
# connection and keep serving.
expect_exit 0 "$BIN" client --socket daemon.s abort-mid-submit good.trc
expect_exit 0 "$BIN" client --socket daemon.s stats
expect_stdout '"queue_depth"' "stats after abort-mid-submit"

# RESULT --wait sent, then the client vanishes before the reply: the
# daemon's write hits EPIPE (not SIGPIPE) and the job stays served.
expect_exit 0 "$BIN" client --socket daemon.s abort-mid-result "$JOB"
expect_exit 0 "$BIN" client --socket daemon.s status "$JOB"
expect_stdout 'state: done' "status after abort-mid-result"

# --- per-job deadline over the wire ------------------------------------------
expect_exit 0 "$BIN" client --socket daemon.s submit good.trc --deadline-ms 60000
JOBD=$(sed -n 's/^job: //p' cli_stdout.txt)
expect_exit 0 "$BIN" client --socket daemon.s result "${JOBD:-3}" --wait
expect_stdout '"unique_races"' "result of deadlined submit"

# A memoized resubmission must serve the identical report.
expect_exit 0 "$BIN" client --socket daemon.s submit good.trc
JOB2=$(sed -n 's/^job: //p' cli_stdout.txt)
expect_exit 0 "$BIN" client --socket daemon.s result "${JOB2:-2}" --wait
tail -n +3 cli_stdout.txt > report2.txt   # drop the job:/state: lines
expect_exit 0 "$BIN" client --socket daemon.s result "$JOB" --wait
tail -n +3 cli_stdout.txt > report1.txt
if ! cmp -s report1.txt report2.txt; then
  echo "FAIL: resubmitted trace served a different report"
  fails=$((fails + 1))
fi

expect_exit 0 "$BIN" client --socket daemon.s shutdown
expect_stdout 'state: drained' "client shutdown"
wait "$DAEMON_PID"
DAEMON_EXIT=$?
if [ "$DAEMON_EXIT" -ne 0 ]; then
  echo "FAIL: daemon exited $DAEMON_EXIT after shutdown"
  sed 's/^/  daemon: /' daemon_err.txt
  fails=$((fails + 1))
fi
if [ -S daemon.s ]; then
  echo "FAIL: daemon left its socket behind"
  fails=$((fails + 1))
fi

# --- usage: a malformed fault plan is a usage error, not a crash -------------
expect_exit 2 "$BIN" serve --socket bad.s --faults "not_a_plan"

# --- deadlines + timed drain under injected stalls ---------------------------
# Every job stalls 100ms (injected) against a 5ms default deadline: jobs
# settle timed-out; result --wait reports the deadline error as a job
# failure (exit 1). A 50ms drain budget bounds shutdown even with jobs
# still queued behind the single stalled worker.
"$BIN" serve --socket slow.s --workers 1 --deadline-ms 5 --drain-timeout 50 \
  --faults "serve_worker_stall=1000000,seed=7" >slow_out.txt 2>slow_err.txt &
SLOW_PID=$!
for _ in $(seq 1 100); do
  [ -S slow.s ] && break
  sleep 0.1
done
if [ ! -S slow.s ]; then
  echo "FAIL: fault-injected daemon never created its socket"
  sed 's/^/  daemon: /' slow_err.txt
  kill "$SLOW_PID" 2>/dev/null
  exit 1
fi

expect_exit 0 "$BIN" client --socket slow.s submit good.trc
SJOB=$(sed -n 's/^job: //p' cli_stdout.txt)
expect_exit 1 "$BIN" client --socket slow.s result "${SJOB:-1}" --wait
expect_exit 0 "$BIN" client --socket slow.s status "${SJOB:-1}"
expect_stdout 'state: timed-out' "status of a deadlined stall"

# Queue a few more, then shut down: the drain budget cancels what the
# stalled worker cannot reach, and the daemon still exits cleanly.
expect_exit 0 "$BIN" client --socket slow.s submit good.trc
expect_exit 0 "$BIN" client --socket slow.s submit good.trc
expect_exit 0 "$BIN" client --socket slow.s shutdown
wait "$SLOW_PID"
if [ $? -ne 0 ]; then
  echo "FAIL: fault-injected daemon exited non-zero after timed drain"
  sed 's/^/  daemon: /' slow_err.txt
  fails=$((fails + 1))
fi

# --- stdio transport ---------------------------------------------------------
# One STATS frame over stdin: 4-byte LE length prefix + "STATS\n\n".
printf '\x07\x00\x00\x00STATS\n\n' | "$BIN" serve --stdio >stdio_out.bin 2>/dev/null
if [ $? -ne 0 ]; then
  echo "FAIL: stdio serve exited non-zero"
  fails=$((fails + 1))
fi
if ! grep -aq '"queue_depth"' stdio_out.bin; then
  echo "FAIL: stdio STATS reply missing stats JSON"
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed"
  exit 1
fi
echo "all serve CLI checks passed"
exit 0
