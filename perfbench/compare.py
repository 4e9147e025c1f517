#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent commit and a change.

Collect alternating runs of two checkouts (each run appends its result
line, with its environment stamp, to a log file):

    python3 perfbench/compare.py collect PARENT_DIR CHANGE_DIR \\
        --workload compile --runs 10 --out /path/to/logs

Then judge them:

    python3 perfbench/compare.py judge logs/parent.jsonl logs/change.jsonl

For every workload and end-to-end metric, the i-th run of the change is
paired with the i-th run of the parent.  The rule is the one for a small
sandbox: with at least ten pairs, a change "wins" a metric when it is
better in at least 9 of every 10 pairs (ties count for neither side) and
its median is better than the parent's by more than the parent's own
interquartile range.  Otherwise, a metric whose parent spread
(IQR / median) exceeds its bound is "unresolved", or "unchanged" when
every change run is better than every parent run.  It "regressed" when its
median is worse than the parent's by more than the metric's bound.
Anything else is "unchanged".

Run length and bounds come from BENCHMARK.json; seeds start at 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
FIRST_SEED = 1


def load(path):
    """Untraced results by workload, in run order."""
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def judge_metric(spec, parent, change):
    """Verdict and summary numbers of one metric over paired runs."""
    lower = spec["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    spread = iqr / abs(mp) if mp else float("inf")
    worse_by = ((mc - mp) if lower else (mp - mc)) / abs(mp) if mp else 0.0
    if len(pairs) < 10:
        verdict = "too few pairs"
    elif wins >= 0.9 * len(pairs) and better(mc, mp) and abs(mc - mp) > iqr:
        verdict = "improved"
    elif spread > spec["bound"]:
        all_better = all(better(c, p) for c in change for p in parent)
        verdict = "unchanged" if all_better else "unresolved"
    elif worse_by > spec["bound"]:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    return {"parent": (mp, q1, q3), "change": (mc, *quartiles(change)), "wins": wins,
            "pairs": len(pairs), "spread": spread, "verdict": verdict}


def judge(args):
    bench = json.load(open(BENCHMARK))
    parent, change = load(args.parent), load(args.change)
    worst = 0
    for workload in sorted(set(parent) | set(change)):
        print("workload %s: %d parent runs, %d change runs"
              % (workload, len(parent.get(workload, [])), len(change.get(workload, []))))
        for spec in bench["end_to_end"]:
            name = spec["name"]
            p = [r["result"]["metrics"][name]["value"] for r in parent.get(workload, [])]
            c = [r["result"]["metrics"][name]["value"] for r in change.get(workload, [])]
            if not p or not c:
                continue
            v = judge_metric(spec, p, c)
            print("  %-16s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  "
                  "wins %d/%d  spread %.3f (bound %.2f)  %s"
                  % ((name,) + v["parent"] + v["change"]
                     + (v["wins"], v["pairs"], v["spread"], spec["bound"], v["verdict"])))
            worst = max(worst, v["verdict"] == "regressed")
        pf = sum(r["result"]["failed"] for r in parent.get(workload, []))
        cf = sum(r["result"]["failed"] for r in change.get(workload, []))
        print("  failed operations: parent %d, change %d%s"
              % (pf, cf, "  (more failures: no gain counts)" if cf > pf else ""))
    return worst


def collect(args):
    """Alternate runs of the two checkouts, the same seed within a pair."""
    os.makedirs(args.out, exist_ok=True)
    sides = [("parent", args.parent_dir), ("change", args.change_dir)]
    seconds = json.load(open(BENCHMARK))["run_seconds"]
    for i in range(args.runs):
        for name, checkout in (sides if i % 2 == 0 else sides[::-1]):
            log = os.path.abspath(os.path.join(args.out, name + ".jsonl"))
            r = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                                "--workload", args.workload, "--seed", str(FIRST_SEED + i),
                                "--seconds", str(seconds), "--trace", "0", "--log", log],
                               cwd=checkout, stdout=subprocess.DEVNULL)
            if r.returncode != 0:
                sys.exit("run %d of %s failed with exit code %d" % (i, name, r.returncode))
            print("run %d: %s done" % (i, name), flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run two checkouts alternately")
    c.add_argument("parent_dir")
    c.add_argument("change_dir")
    c.add_argument("--workload", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--out", required=True)
    j = sub.add_parser("judge", help="apply the comparison rule to two logs")
    j.add_argument("parent")
    j.add_argument("change")
    args = ap.parse_args()
    sys.exit(collect(args) if args.cmd == "collect" else judge(args))


if __name__ == "__main__":
    main()
