#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The harness (perfbench/perfbench.ml) is built with dune into the
directory named by $CARGO_TARGET_DIR (default .bench_build) and run in a
fresh process, so the peak RSS it reports belongs to this workload
alone. Its stdout is passed through; the last line is the JSON result.
The exit code is the harness's: 0 when every statistic checked out.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["headline-maxdelay", "uniform-delay", "da-large-t", "sweep-check"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds the harness; returns its path, or None after printing why not."""
    out = build_dir()
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", out,
           "--display", "quiet", "./perfbench/perfbench.exe"]
    try:
        code, log = run_group(cmd, BUILD_TIMEOUT_S, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    except OSError as exc:
        code, log = None, str(exc)
    if code != 0:
        sys.stderr.write(log or f"ran past {BUILD_TIMEOUT_S} s\n")
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(out, "default", "perfbench", "perfbench.exe")


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in a process group of its own, so a timeout stops every
    process it started. Returns (exit code, stdout), or (None, None)
    after a timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        return None, None


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pins", default=os.path.join(HERE, "pins.txt"),
                    help="pin file (default perfbench/pins.txt)")
    ap.add_argument("--min-reps", type=int, default=3,
                    help="least repetitions of each kind (default 3)")
    args = ap.parse_args(argv)

    exe = build()
    if exe is None:
        return 2
    out = os.path.join(build_dir(), "perfbench-out")
    os.makedirs(out, exist_ok=True)
    spans = os.path.join(out, f"spans-{args.workload}-seed{args.seed}.jsonl")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", args.pins, "--min-reps", str(args.min_reps),
           "--spans-out", spans]
    code, _ = run_group(cmd, RUN_TIMEOUT_S)
    if code is None:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
