#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Every argument goes to the binary unchanged; it parses them strictly (an
unknown flag or a missing value exits 2). The build lives in
.bench_build/perfbench under the checkout root and is reused by later
runs; build output goes to standard error, so the last line of standard
output is the binary's result line. Exits 1 without a result when the
build fails.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build() -> bool:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no repository sources under {ROOT}", file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def git_describe() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main() -> int:
    if not build():
        return 1
    env = dict(os.environ, PERFBENCH_GIT_DESCRIBE=git_describe())
    sys.stdout.flush()
    return subprocess.run([str(BUILD / "perfbench"), *sys.argv[1:]], cwd=ROOT,
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
