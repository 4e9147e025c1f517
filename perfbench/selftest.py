#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks.  Run from the checkout root:

    python3 perfbench/selftest.py

- a corrupted pin is counted as a failed operation and makes the run
  incorrect;
- a simulation reported at elapsed 0 is counted as a failed operation;
- alloc_mw repeats exactly across two runs of compile and of project;
- compare.py's verdicts on fixed data.

Each of the first three runs perfbench/run.py for one short pass and
reads its result line.  Exits 1 when a test fails.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(BENCH, "_work")
sys.path.insert(0, BENCH)
import compare  # noqa: E402


def run(*extra):
    r = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--seconds", "1",
                        "--trace", "0"] + list(extra), stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise AssertionError("run.py %s exited %d" % (" ".join(extra), r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def corrupted_pin():
    pins = json.load(open(os.path.join(BENCH, "pins.json")))
    seed = 1
    variant = str(seed % 4)
    pin = pins["project"][variant]["p400"]
    pin["json"] = "0" * 32
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "pins-corrupted.json")
    with open(path, "w") as f:
        json.dump(pins, f)
    r = run("--workload", "project", "--seed", str(seed), "--pins", path)
    assert r["failed"] >= 1 and not r["correct"], r


def zero_elapsed():
    clean = run("--workload", "simulate", "--seed", "1")
    zeroed = run("--workload", "simulate", "--seed", "1", "--zero-elapsed")
    assert zeroed["failed"] > clean["failed"] and not zeroed["correct"], (clean, zeroed)


def alloc_repeats():
    for workload in ("compile", "project"):
        a = run("--workload", workload, "--seed", "2")["metrics"]["alloc_mw"]["value"]
        b = run("--workload", workload, "--seed", "2")["metrics"]["alloc_mw"]["value"]
        assert a == b, (workload, a, b)


def verdicts():
    spec = {"name": "wall_s", "better": "lower", "bound": 0.25}

    def verdict(parent, change):
        return compare.judge_metric(spec, parent, change)["verdict"]

    steady = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(steady, [x * 0.8 for x in steady]) == "improved"
    assert verdict(steady, [x * 1.5 for x in steady]) == "regressed"
    assert verdict(steady, steady[::-1]) == "unchanged"
    assert verdict(steady[:9], steady[:9]) == "too few pairs"
    # Every change run beats every parent run, but by less than the
    # parent's IQR (median 32, IQR about 39): no gain, and the wide
    # parent spread is not "unresolved" either.
    wide = [10, 11, 12, 13, 14, 50, 51, 52, 53, 100]
    assert verdict(wide, [9] * 10) == "unchanged"
    assert verdict(wide, [x + 1 for x in wide]) == "unresolved"


def main():
    failed = 0
    for test in (verdicts, corrupted_pin, zero_elapsed, alloc_repeats):
        try:
            test()
            print("ok   %s" % test.__name__, flush=True)
        except AssertionError as e:
            failed += 1
            print("FAIL %s: %s" % (test.__name__, e), flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
