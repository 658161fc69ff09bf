#!/usr/bin/env python3
"""Self-checks of the perfbench benchmark. Run from the repository root:

    python3 perfbench/selfcheck.py [--workloads a,b,...]

1. A corrupted pin (one cell's W, then one workload digest) makes the
   run fail: the failure is counted in the JSON result, `correct` is
   false and the exit code is nonzero.
2. Every metric name printed (text lines and JSON) matches
   [A-Za-z0-9_.-]+, and every unit the unit alphabet of BENCHMARK.json.
3. The untraced run prints exactly the end_to_end names of
   BENCHMARK.json, and the traced run exactly the per_layer names, on
   every workload; both pass their own checks on the default seed.

Every run uses one rep of each kind (--seconds 0 --min-reps 1).
Exits 0 when every check holds.
"""

import argparse
import json
import os
import re
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload, trace=0, pins=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--trace", str(trace), "--seconds", "0", "--min-reps", "1"]
    if pins:
        cmd += ["--pins", pins]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def corrupted_pins(mutate):
    with open(os.path.join(HERE, "pins.txt")) as f:
        lines = f.read().splitlines()
    path = os.path.join(run.build_dir(), "perfbench-out", "selfcheck-pins.txt")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write("\n".join(mutate(lines)) + "\n")
    return path


def bump_w(lines, cell="da-q4/max-delay/p256/t4096/d16/seed*"):
    out = []
    for line in lines:
        parts = line.split()
        if parts[:2] == ["cell", cell]:
            parts[2] = str(int(parts[2]) + 1)
            line = " ".join(parts)
        out.append(line)
    return out


def flip_digest(lines, workload="headline-maxdelay"):
    out = []
    for line in lines:
        parts = line.split()
        if parts[:2] == ["digest", workload]:
            parts[3] = "0" * 32
            line = " ".join(parts)
        out.append(line)
    return out


def check_corrupted(label, mutate, cells):
    rc, _, result = bench("headline-maxdelay", pins=corrupted_pins(mutate))
    check(rc != 0, f"{label}: nonzero exit (got {rc})")
    check(result is not None and result["correct"] is False,
          f"{label}: result says correct=false")
    check(result is not None and result["failed"] >= cells
          and result["attempted"] >= result["failed"],
          f"{label}: at least {cells} failed cell run(s) counted "
          f"(got {result and result['failed']} of {result and result['attempted']})")


def check_names(workload, trace, want):
    rc, lines, result = bench(workload, trace=trace)
    tag = f"{workload} --trace {trace}"
    check(rc == 0 and result is not None and result["correct"],
          f"{tag}: exit 0, correct=true")
    if result is None:
        return
    printed = {l.split()[1]: l.split()[-1] for l in lines if l.startswith("metric ")}
    bad = [n for n in list(result["metrics"]) + list(printed) if not NAME.match(n)]
    check(not bad, f"{tag}: metric names match [A-Za-z0-9_.-]+ {bad or ''}")
    units = [m["unit"] for m in result["metrics"].values()] + list(printed.values())
    bad = [u for u in units if not UNIT.match(u)]
    check(not bad, f"{tag}: units are well formed {bad or ''}")
    got = set(result["metrics"])
    check(got == set(want), f"{tag}: JSON metrics are exactly BENCHMARK.json's "
          f"(missing {sorted(set(want) - got)}, extra {sorted(got - set(want))})")
    check(set(want) <= set(printed), f"{tag}: every name is printed as a text line")
    check("failed_frac" in printed, f"{tag}: failed_frac is printed")
    integral = all(isinstance(result[k], int) for k in ("attempted", "failed"))
    check(integral and result["attempted"] >= 1, f"{tag}: attempted/failed are counts")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check([w["name"] for w in spec["workloads"]] == run.WORKLOADS,
          "BENCHMARK.json lists the harness's workloads")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) is not None and len(m["name"]) <= 64,
              f"BENCHMARK.json name {m['name']!r} is well formed")
    if run.build() is None:
        check(False, "harness builds")
        return 1
    check_corrupted("corrupted cell pin", bump_w, 1)
    check_corrupted("corrupted digest pin", flip_digest, 3)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for w in args.workloads.split(","):
        check_names(w, 0, e2e)
        check_names(w, 1, layers)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
