#!/usr/bin/env python3
"""Run the hlstb benchmark and judge its results.

Run from the repository root:

    python3 perfbench/suite.py                  # one run per workload
    python3 perfbench/suite.py --trace          # ... plus one traced run each
    python3 perfbench/suite.py --sets 2 --runs 5   # steadiness check

Every run goes through the command in BENCHMARK.json with the
standard arguments, so it measures what any caller of that command
sees. The script prints each end-to-end metric by name
and unit for each workload, and exits 1 if any run fails, reports an
output mismatch, or (with --trace) breaks the stage-accounting
tolerance.

With --sets 2 it makes two sets of runs of the same build, each run
with its own seed, and reports per metric and workload whether the
sets agree: every spread (quartile distance over median, as
statistics.quantiles gives it) within the metric's bound, setup_s
excepted, and the second median no worse than the first by more than
the bound. Every result is stored with nproc, the load average and the
git revision in .perfbench_runs/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Stage accounting: the share of lane time (lanes x sweep wall) that
# point evaluations cover, i.e. stage busy time plus dse.unattributed_ms.
# The rest is time outside any point: enumeration, thread start, the
# pool's tail, and on worker lanes the lease-granular tail and
# handshakes.
ACCOUNTED_MIN = {"scoreboard": 0.90, "synth-wide": 0.90, "scoreboard-lanes": 0.65}


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    env_before = {"nproc": os.cpu_count(), "loadavg": os.getloadavg(), "rev": git_rev()}
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "exit": proc.returncode, "wall_s": time.time() - t0, "env": env_before,
    }
    lines = proc.stdout.strip().splitlines()
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["result"] = None
        sys.stderr.write(proc.stderr[-4000:])
    return record


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--runs", type=int, default=1, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1, help="sets of runs to compare (1 or 2)")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--seed0", type=int, default=1, help="first seed")
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    e2e = bench["end_to_end"]

    records = []
    ok = True
    for s in range(args.sets):
        for r in range(args.runs):
            for w in workloads:
                seed = args.seed0 + 1000 * s + r
                rec = run_once(bench, w, seed, seconds, False)
                rec["set"] = s
                records.append(rec)
                res = rec["result"]
                good = rec["exit"] == 0 and res is not None and res["correct"] and res["failed"] == 0
                ok &= good
                print(f"set {s} run {r} {w:<17} seed {seed:<5} {'ok' if good else 'FAILED'} "
                      f"({rec['wall_s']:.1f} s, load {rec['env']['loadavg'][0]:.2f})", flush=True)

    print(f"\nend-to-end metrics (nproc {os.cpu_count()}, rev {git_rev()[:12]}):")
    for w in workloads:
        print(f"\n  {w}")
        for m in e2e:
            per_set = []
            for s in range(args.sets):
                vals = [rec["result"]["metrics"][m["name"]]["value"] for rec in records
                        if rec["workload"] == w and rec["set"] == s and rec["result"]
                        and m["name"] in rec["result"]["metrics"]]
                per_set.append(vals)
            if not all(per_set):
                print(f"    {m['name']:<14} missing")
                ok = False
                continue
            meds = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            line = f"    {m['name']:<14} {m['unit']:<5}" + "".join(
                f"  median {med:>12.6g} spread {sp:6.3f}" for med, sp in zip(meds, spreads))
            verdict = ""
            if args.runs > 1:
                agree = m["name"] == "setup_s" or all(sp <= m["bound"] for sp in spreads)
                if len(meds) == 2:
                    agree &= worse_by(meds[0], meds[1], m["better"]) <= m["bound"]
                verdict = f"  bound {m['bound']:.2f} {'agree' if agree else 'DISAGREE'}"
                ok &= agree
            print(line + verdict)

    if args.trace:
        print("\nper-layer metrics (traced runs):")
        for w in workloads:
            rec = run_once(bench, w, args.seed0, seconds, True)
            rec["set"] = "trace"
            records.append(rec)
            res = rec["result"]
            if rec["exit"] != 0 or res is None or not res["correct"]:
                print(f"  {w}: FAILED")
                ok = False
                continue
            print(f"\n  {w}")
            for m in bench["per_layer"]:
                v = res["metrics"][m["name"]]["value"]
                print(f"    {m['name']:<38} {v:>16.6f} {m['unit']}")
            if w in ACCOUNTED_MIN:
                u = res["metrics"]["dse.pool.utilisation"]["value"]
                fine = u >= ACCOUNTED_MIN[w]
                ok &= fine
                print(f"    stage accounting: stages + unattributed cover {100 * u:.1f}% of lane time "
                      f"(tolerance >= {100 * ACCOUNTED_MIN[w]:.0f}%): {'ok' if fine else 'OUTSIDE'}")

    os.makedirs(".perfbench_runs", exist_ok=True)
    out = os.path.join(".perfbench_runs", time.strftime("suite-%Y%m%d-%H%M%S.json"))
    with open(out, "w") as f:
        json.dump(records, f, indent=1)
    print(f"\nresults: {out}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
