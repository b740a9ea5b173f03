#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the collector from src/) into the directory named
by CARGO_TARGET_DIR, or .bench_build when it is unset; later runs reuse that
build. The last line of standard output is the benchmark's JSON result. A
failed build or a failed run exits non-zero without printing a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("scale_openloop", "cycle_storm", "socket_churn")
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns the binary."""
    # The Makefile appears only once a configure has succeeded.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-G", "Unix Makefiles",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=50,
                        help="set-up + drive time to measure (see README.md)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a whole number")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    work_dir = os.path.join(os.path.relpath(build_dir), "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        command += ["--spans-out",
                    os.path.join(work_dir, f"spans-{args.workload}.csv")]
    # perfbench forks site processes; its own process group lets a stopped
    # run take every one of them down with it.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        stdout, _ = proc.communicate()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        print(f"run.py: perfbench exited with {proc.returncode}", file=sys.stderr)
        return 1
    print(json.dumps(json.loads(lines[-1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
