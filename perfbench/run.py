#!/usr/bin/env python3
"""Host-clock benchmark of warpcc: compile, project and simulate workloads.

Run from the root of a warpcc checkout:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 15 --trace 0

It builds `bin/warpcc.exe` and `perfbench/hostbench.exe` from source, sets
the workload's inputs up from the seed, then runs closed-loop passes (one
client, one operation in flight) for --seconds.  Every output is checked
against perfbench/pins.json.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones,
which come from a separate traced replay.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import random
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(BENCH, "_work")
PINS = os.path.join(BENCH, "pins.json")
TARGETS = ("bin/warpcc.exe", "perfbench/hostbench.exe")
WARPCC, HOSTBENCH = (os.path.join("_build", "default", t) for t in TARGETS)

WORKLOADS = ("compile", "project", "simulate")
VARIANTS = 4  # pinned input sets; --seed picks one
# Set-up runs several times per run and reports the median; simulate's
# set-up compiles every input, so it repeats fewer times.
SETUP_REPEATS = {"compile": 5, "project": 5, "simulate": 3}
# `hostbench calibrate` time on the reference host (2 cores, OCaml 5.1.1,
# idle).  Every reported time is scaled by this over the run's median
# calibration time, so that the host's speed drifting between runs does
# not read as a change in the program.
CALIB_REF_S = 0.2

# Per-layer ratios of two counts the replay records on one layer.
RATIOS = {
    "warp.modsched.pipelined_ratio": ("warp.modsched", "pipelined", "candidates"),
    "parallel_cc.parrun.spec_commit_ratio":
        ("parallel_cc.parrun", "spec_committed", "spec_dispatched"),
    "parallel_cc.cache.hit_ratio": ("parallel_cc.cache", "hits", "lookups"),
}


def metric_specs(trace):
    """(name, unit) of every metric BENCHMARK.json declares for the mode."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


class BenchError(Exception):
    pass


def md5_bytes(b):
    return hashlib.md5(b).hexdigest()


def md5_file(path):
    with open(path, "rb") as f:
        return md5_bytes(f.read())


def log(msg):
    print(msg, flush=True)


# --- build and environment -------------------------------------------------

def check_checkout():
    for p in ("dune-project", os.path.join("bin", "warpcc.ml"), "lib",
              os.path.join("perfbench", "dune")):
        if not os.path.exists(p):
            raise BenchError("not the root of a warpcc checkout: %s is missing" % p)


def build():
    # No shared dune cache: the build reads and writes only the checkout.
    r = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled"]
                       + ["./" + t for t in TARGETS],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout + r.stderr)


def source_digest():
    """Digest of the sources the benchmark builds, standing in for the
    commit in a checkout that is not a git repository."""
    h = hashlib.md5()
    for top in ("bin", "lib", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_", ".")))
            for fn in sorted(filenames):
                p = os.path.join(dirpath, fn)
                h.update(p.encode())
                h.update(open(p, "rb").read())
    return h.hexdigest()[:12]


def environment(seed):
    commit = None
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "--short", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        commit = r.stdout.strip() if r.returncode == 0 else None
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True).stdout.strip()
    except OSError:
        ocaml = ""
    return {"nproc": os.cpu_count(), "ocaml": ocaml or "unknown",
            "commit": commit or "src-" + source_digest(), "seed": seed}


# --- child processes -------------------------------------------------------

GC_LINE = re.compile(r"^(allocated_words|minor_words|promoted_words|major_words|"
                     r"minor_collections|major_collections|forced_major_collections|"
                     r"heap_words|top_heap_words|mean_space_overhead|"
                     r"compactions|heap_chunks|top_heap_chunks): ")


def run_child(argv, gc_stats=False):
    """Run one child in WORK; returns wall and CPU seconds, exit code,
    stdout, stderr without the GC report, and the GC report."""
    env = dict(os.environ)
    if gc_stats:
        env["OCAMLRUNPARAM"] = "v=0x400"
    else:
        env.pop("OCAMLRUNPARAM", None)
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    p = subprocess.run(argv, cwd=WORK, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    gc, rest = {}, []
    for line in p.stderr.decode(errors="replace").splitlines():
        if gc_stats and GC_LINE.match(line):
            k, v = line.split(": ", 1)
            gc[k] = float(v)
        else:
            rest.append(line)
    return {"wall": wall, "cpu": cpu, "code": p.returncode, "stdout": p.stdout,
            "stderr": "\n".join(rest), "gc": gc}


def hostbench(args):
    r = run_child([os.path.join("..", "..", HOSTBENCH)] + args)
    if r["code"] != 0:
        raise BenchError("hostbench %s failed (exit %d):\n%s" % (" ".join(args), r["code"],
                                                                 r["stderr"]))
    r["json"] = json.loads(r["stdout"].decode().strip().splitlines()[-1])
    return r


def warpcc(args):
    return run_child([os.path.join("..", "..", WARPCC)] + args, gc_stats=True)


# --- workloads -------------------------------------------------------------

def fresh(path):
    p = os.path.join(WORK, path)
    if os.path.isdir(p):
        shutil.rmtree(p)
    elif os.path.exists(p):
        os.remove(p)


def setup(workload, variant):
    """Set the workload up SETUP_REPEATS[workload] times; returns the times.  Disk
    writes are flushed around each set-up so that neither the deletions
    before it nor its own writes land in a timed region."""
    times = []
    for _ in range(SETUP_REPEATS[workload]):
        fresh("setup.bin" if workload == "simulate" else "inputs")
        os.sync()
        times.append(setup_once(workload, variant))
        os.sync()
    return times


def setup_once(workload, variant):
    if workload == "simulate":
        return hostbench(["sim-setup", "setup.bin"])["wall"]
    return hostbench(["gen-" + workload, "inputs", str(variant)])["wall"]


def shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def dir_digests(d):
    return {f: md5_file(os.path.join(d, f)) for f in sorted(os.listdir(d))}


def compile_item(name):
    out = os.path.join("out", name)
    fresh(out)
    os.makedirs(os.path.join(WORK, out))
    r = warpcc(["compile", "-o", out, os.path.join("inputs", name + ".w2")])
    return {"name": name, "wall": r["wall"], "cpu": r["cpu"], "code": r["code"],
            "alloc_w": r["gc"].get("allocated_words", 0.0),
            "heap_w": r["gc"].get("top_heap_words", 0.0),
            "out": {"stdout": md5_bytes(r["stdout"]), "stderr": md5_bytes(r["stderr"].encode()),
                    "files": dir_digests(os.path.join(WORK, out))},
            "stdout": r["stdout"].decode(errors="replace")}


def project_item(name):
    fresh(os.path.join("out", name + ".json"))
    os.makedirs(os.path.join(WORK, "out"), exist_ok=True)
    r = warpcc(["analyze", "--project", os.path.join("inputs", name),
                "--json", os.path.join("out", name + ".json")])
    path = os.path.join(WORK, "out", name + ".json")
    return {"name": name, "wall": r["wall"], "cpu": r["cpu"], "code": r["code"],
            "alloc_w": r["gc"].get("allocated_words", 0.0),
            "heap_w": r["gc"].get("top_heap_words", 0.0),
            "out": {"stdout": md5_bytes(r["stdout"]), "stderr": md5_bytes(r["stderr"].encode()),
                    "json": md5_file(path) if os.path.exists(path) else None}}


def inputs(workload):
    """The set-up's inputs in order, each with its size: source lines of a
    compile input (from gen-compile's manifest), modules of a project."""
    d = os.path.join(WORK, "inputs")
    if workload == "compile":
        with open(os.path.join(d, "manifest.tsv")) as f:
            rows = [line.rstrip("\n").split("\t") for line in f]
        return {row[0]: int(row[5]) for row in rows}
    sizes = {p: len([f for f in os.listdir(os.path.join(d, p)) if f.endswith(".w2")])
             for p in os.listdir(d)}
    return dict(sorted(sizes.items(), key=lambda kv: kv[1]))


def cli_pass(workload, seed):
    item = compile_item if workload == "compile" else project_item
    items = [item(n) for n in shuffled(inputs(workload), seed)]
    return {"items": items,
            "wall_s": sum(i["wall"] for i in items),
            "cpu_s": sum(i["cpu"] for i in items),
            "alloc_w": sum(i["alloc_w"] for i in items),
            "heap_w": max(i["heap_w"] for i in items)}


def sim_pass(seed, trace_out=None, zero_elapsed=False):
    """One simulate pass in its own process; returns it and, when traced,
    its layer table."""
    args = ["simulate", "setup.bin", str(seed)]
    if trace_out:
        args += ["--trace-out", trace_out]
    if zero_elapsed:
        args.append("--zero-elapsed")
    r = hostbench(args)["json"]
    return {"items": r["sims"], "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
            "alloc_w": r["alloc_w"], "heap_w": r["top_heap_words"],
            "untraced_s": r.get("untraced_s")}, r.get("layers")


def one_pass(workload, seed, zero_elapsed=False):
    if workload == "simulate":
        return sim_pass(seed, zero_elapsed=zero_elapsed)[0]
    return cli_pass(workload, seed)


def calibrate():
    return hostbench(["calibrate"])["json"]["calib_s"]


def timed_passes(workload, seed, seconds, zero_elapsed=False):
    """Closed loop: passes back to back until `seconds` have elapsed (at
    least one), each input once per pass in an order drawn from the seed.
    Returns the passes and host-speed calibration samples taken before the
    first pass and after each one."""
    calib, passes, t_start = [calibrate()], [], time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        passes.append(one_pass(workload, seed * 1000 + len(passes), zero_elapsed))
        calib.append(calibrate())
    return passes, calib


# --- output checks ---------------------------------------------------------

WIDES = re.compile(r"^section \S+\s+(\d+) wides", re.M)
FUNC = re.compile(r"^  (\S+)\s+\d+ loc\s+ir=\d+\s+opt-work=(\d+)\s+sched-work=(\d+)\s+wides=(\d+)",
                  re.M)


def check_cli_item(workload, item, pins, failures):
    """Exit code 0 and every output digest equal to its pin."""
    why = None
    pin = pins.get(item["name"])
    if item["code"] != 0:
        why = "exit code %d" % item["code"]
    elif pin is None:
        why = "no pin"
    elif {k: v for k, v in pin.items() if k != "cycles"} != item["out"]:
        why = "output differs from its pin"
    if why:
        failures.append("%s %s: %s" % (workload, item["name"], why))
    return why is None


def check_sim_item(item, pins, failures):
    """Pinned sims must pass the invariants and reproduce their pinned
    digest; a sim that failed them at the pinned commit has no pin and
    counts as failed until it passes."""
    pin = pins.get(item["key"])
    if not item["ok"]:
        failures.append("simulate %s: %s" % (item["key"], item["why"]))
        return False, pin is not None
    if pin is not None and pin != item["digest"]:
        failures.append("simulate %s: simulated numbers differ from the pin" % item["key"])
        return False, True
    return True, False


def cells_check(pins, failures):
    """Run each compiled entry call on the cycle simulator (outside the
    timed passes); the result must equal the reference interpreter's and
    the cycle count its pin."""
    rows = hostbench(["cells", "inputs"])["json"]["cells"]
    ok, cycles = 0, 0
    for row in rows:
        pin = pins.get(row["name"], {}).get("cycles")
        if not row["ok"]:
            failures.append("cells %s: %s" % (row["name"], row["why"]))
        elif pin != row["cycles"]:
            failures.append("cells %s: %d cycles, pinned %s" % (row["name"], row["cycles"], pin))
        else:
            ok += 1
        cycles += row["cycles"]
    return len(rows), len(rows) - ok, cycles


# --- statistics ------------------------------------------------------------

def pct(values, p):
    """Percentile p (0-100) with linear interpolation between ranks."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_pct(n):
    """The highest of the usual percentiles with >= 10 samples beyond it."""
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (1 - p / 100.0) >= 10:
            best = p
    return best


def timing_line(name, values, unit):
    xs = list(values)
    t = tail_pct(len(xs))
    tail = "p%g %.6g" % (t, pct(xs, t)) if t else "no percentile with 10 samples beyond"
    return "  %-28s median %.6g %s, %s, n=%d" % (name, statistics.median(xs), unit, tail, len(xs))


def slope(xs, ys):
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / den


def ranks(xs):
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    r = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        for k in range(i, j + 1):
            r[order[k]] = (i + j) / 2.0 + 1
        i = j + 1
    return r


def spearman(xs, ys):
    rx, ry = ranks(xs), ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den if den else 0.0


# --- metrics ---------------------------------------------------------------

def item_walls(passes):
    """Per-input wall seconds across passes."""
    walls = {}
    for p in passes:
        for i in p["items"]:
            walls.setdefault(i["name"], []).append(i["wall"])
    return walls


def end_to_end(workload, setup_times, passes, attempted, failed):
    walls = [p["wall_s"] for p in passes]
    log("raw timings (median, tail percentile, sample count):")
    log(timing_line("setup_s", setup_times, "s"))
    log(timing_line("wall_s per pass", walls, "s"))
    if workload == "simulate":
        items_ms = [i["ms"] for p in passes for i in p["items"]]
        by_size = {}
        for p in passes:
            for i in p["items"]:
                if i["modules"]:
                    by_size.setdefault(i["modules"], []).append(i["ms"])
        sizes = sorted(by_size)
        exponent = slope(sizes, [statistics.median(by_size[s]) for s in sizes])
    else:
        per_input = {n: statistics.median(v) for n, v in item_walls(passes).items()}
        items_ms = [i["wall"] * 1000.0 for p in passes for i in p["items"]]
        sizes = {n: size for n, size in inputs(workload).items()
                 if workload == "project" or n.startswith("ladder_")}
        exponent = slope(list(sizes.values()), [per_input[n] for n in sizes])
        for n in sorted(per_input):
            log(timing_line("input %s" % n, item_walls(passes)[n], "s"))
    log(timing_line("item latency", items_ms, "ms"))
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "alloc_mw": statistics.median(p["alloc_w"] for p in passes) / 1e6,
        "peak_heap_mb": statistics.median(p["heap_w"] for p in passes) * 8 / 1e6,
        "ok_frac": (attempted - failed) / attempted,
        "size_exponent": exponent,
        "item_p50_ms": pct(items_ms, 50),
        "item_p95_ms": pct(items_ms, 95),
    }


def layer_metrics(layers, specs):
    """Per-layer metrics from the replay's layer table: <layer>.s, .calls,
    .alloc_mw and every count the replay recorded, plus the ratios.
    Layers a workload bypasses are absent and read 0."""
    m = {}
    for name, _ in specs:
        layer, _, field = name.rpartition(".")
        row = layers.get(layer, {})
        if field == "alloc_mw" and "alloc_w" in row:
            m[name] = row["alloc_w"] / 1e6
        elif field in row:
            m[name] = row[field]

    def ratio(a, b):
        return a / b if b else 0.0

    for name, (layer, num, den) in RATIOS.items():
        row = layers.get(layer, {})
        m[name] = ratio(row.get(num, 0), row.get(den, 0))
    m["warp.codegen.replay_coverage"] = ratio(
        sum(layers.get(l, {}).get("s", 0.0)
            for l in ("warp.regalloc", "warp.modsched", "warp.listsched")),
        layers.get("warp.codegen", {}).get("s", 0.0))
    m["bench.harness.s"] = sum(layers.get(l, {}).get("s", 0.0)
                               for l in ("bench.pass", "bench.input"))
    return m


def replay_compile(passes, specs, failures):
    """Traced replay of every compile; its outputs and work units must
    equal those of the last untraced pass."""
    r = hostbench(["replay-compile", "inputs", "trace-compile.json"])["json"]
    last = {i["name"]: i for i in passes[-1]["items"]}
    work, secs, bad = [], [], 0
    for row in r["inputs"]:
        cli = last[row["name"]]
        cli_funcs = [(f, int(o), int(s), int(w)) for f, o, s, w in FUNC.findall(cli["stdout"])]
        replay_funcs = [(f["name"], f["opt_work"], f["sched_work"], f["wides"])
                        for f in row["funcs"]]
        if row["files"] != cli["out"]["files"] or cli_funcs != replay_funcs:
            failures.append("replay %s: outputs or work units differ from warpcc compile"
                            % row["name"])
            bad += 1
        for f in row["funcs"]:
            work.append(f["opt_work"] + f["sched_work"])
            secs.append(f["opt_s"] + f["codegen_s"])
    m = layer_metrics(r["layers"], specs)
    m["driver.cost.rank_agreement"] = spearman(work, secs)
    return m, r["pass_s"], r["untraced_s"], len(r["inputs"]), bad, bad


def replay_project(passes, specs, failures):
    """Traced replay of every analyze; its JSON must equal the CLI's."""
    r = hostbench(["replay-project", "inputs", "trace-project.json"])["json"]
    last = {i["name"]: i for i in passes[-1]["items"]}
    per_module, bad = {}, 0
    for row in r["inputs"]:
        if row["json"] != last[row["name"]]["out"]["json"]:
            failures.append("replay %s: JSON differs from warpcc analyze" % row["name"])
            bad += 1
        per_module[row["modules"]] = row["summarize_s"] / row["modules"]
    m = layer_metrics(r["layers"], specs)
    m["analysis.modan.summarize.per_module_ratio"] = \
        per_module[max(per_module)] / per_module[min(per_module)]
    return m, r["pass_s"], r["untraced_s"], len(r["inputs"]), bad, bad


def replay_simulate(seed, pins, specs, failures):
    """One traced simulate pass; host tracing must leave every simulated
    number equal to its pin."""
    p, layers = sim_pass(seed, trace_out="trace-simulate.json")
    bad = unexpected = 0
    for item in p["items"]:
        ok, pinned = check_sim_item(item, pins, failures)
        bad += not ok
        unexpected += (not ok) and pinned
    return (layer_metrics(layers, specs), p["wall_s"], p["untraced_s"], len(p["items"]), bad,
            unexpected)


# --- pins ------------------------------------------------------------------

def record_pins(path):
    """Record every output of this commit: one pass per variant of the
    compile and project workloads, and one simulate pass, pinning only
    the sims that pass every invariant."""
    pins = {"compile": {}, "project": {}, "simulate": {}}
    for workload in ("compile", "project"):
        for v in range(VARIANTS):
            fresh("inputs")
            setup_once(workload, v)
            items = cli_pass(workload, v)["items"]
            pins[workload][str(v)] = {i["name"]: dict(i["out"]) for i in items}
            if workload == "compile":
                for row in hostbench(["cells", "inputs"])["json"]["cells"]:
                    if not row["ok"]:
                        raise BenchError("cells %s: %s" % (row["name"], row["why"]))
                    pins["compile"][str(v)][row["name"]]["cycles"] = row["cycles"]
            log("pinned %s variant %d" % (workload, v))
    fresh("setup.bin")
    setup_once("simulate", 0)
    sims = sim_pass(0)[0]["items"]
    pins["simulate"]["all"] = {s["key"]: s["digest"] for s in sims if s["ok"]}
    for s in sims:
        if not s["ok"]:
            log("not pinned (fails at this commit): %s: %s" % (s["key"], s["why"]))
    with open(path, "w") as f:
        json.dump(pins, f, indent=0, sort_keys=True)
        f.write("\n")


# --- main ------------------------------------------------------------------

def run(args):
    variant = args.seed % VARIANTS
    with open(args.pins) as f:
        all_pins = json.load(f)
    pins = all_pins[args.workload]["all" if args.workload == "simulate" else str(variant)]
    env = environment(args.seed)
    log("env: " + json.dumps(env, sort_keys=True))
    log("workload %s, seed %d (input variant %d), %d s closed loop, 1 client"
        % (args.workload, args.seed, variant, args.seconds))

    setup_times = setup(args.workload, variant)
    failures = []
    passes, calib = timed_passes(args.workload, args.seed, args.seconds, args.zero_elapsed)

    attempted = failed = unexpected = 0
    for p in passes:
        for item in p["items"]:
            attempted += 1
            if args.workload == "simulate":
                ok, pinned = check_sim_item(item, pins, failures)
                unexpected += (not ok) and pinned
            else:
                ok = check_cli_item(args.workload, item, pins, failures)
                unexpected += not ok
            failed += not ok
    run_cycles = code_wides = 0
    if args.workload == "compile":
        n, bad, run_cycles = cells_check(pins, failures)
        attempted += n
        failed += bad
        unexpected += bad
        code_wides = sum(int(w) for i in passes[-1]["items"] for w in WIDES.findall(i["stdout"]))

    specs = metric_specs(args.trace)
    if args.trace:
        # Each replay runs its pass untraced and then traced in one
        # process; the difference is the cost of tracing.
        if args.workload == "compile":
            metrics, traced_s, untraced_s, checked, bad, new_bad = \
                replay_compile(passes, specs, failures)
            metrics["out.code_wides"] = code_wides
            metrics["out.run_cycles"] = run_cycles
        elif args.workload == "project":
            metrics, traced_s, untraced_s, checked, bad, new_bad = \
                replay_project(passes, specs, failures)
        else:
            metrics, traced_s, untraced_s, checked, bad, new_bad = \
                replay_simulate(args.seed, pins, specs, failures)
        attempted += checked
        failed += bad
        unexpected += new_bad
        metrics["trace.overhead_s"] = traced_s - untraced_s
        if args.workload != "simulate":
            for name, walls in item_walls(passes).items():
                metrics["input.%s.wall_s" % name] = statistics.median(walls)
        log("replay: %.3f s traced against %.3f s untraced; host spans in "
            "perfbench/_work/trace-%s.json" % (traced_s, untraced_s, args.workload))
        calib.append(calibrate())
        metrics = {name: metrics.get(name, 0) for name, _ in specs}
    else:
        metrics = end_to_end(args.workload, setup_times, passes, attempted, failed)
    # Report every time in reference seconds: scaled by how much slower
    # than the reference host the fixed calibration workload ran.
    speed = statistics.median(calib) / CALIB_REF_S
    log("host speed: calibration median %.4f s over %d samples, reference %.2f s; "
        "times below are divided by %.4f" % (statistics.median(calib), len(calib),
                                              CALIB_REF_S, speed))
    for name, unit in specs:
        if unit in ("s", "ms"):
            metrics[name] /= speed

    for f in failures[:20]:
        log("FAILED " + f)
    if len(failures) > 20:
        log("... and %d more failures" % (len(failures) - 20))
    log("%d of %d checked operations failed (%d not known to fail at the pinned commit)"
        % (failed, attempted, unexpected))
    log("metrics:")
    for name, unit in specs:
        log("  %-44s %.6g %s" % (name, metrics[name], unit))
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs}}
    if args.log:
        with open(args.log, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "env": env,
                                "calib_s": statistics.median(calib), "result": result}) + "\n")
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pins", default=PINS, help="pin file (default perfbench/pins.json)")
    ap.add_argument("--log", help="append the run's result with its environment stamp here")
    ap.add_argument("--record-pins", action="store_true",
                    help="record the outputs of this commit into --pins and exit")
    ap.add_argument("--zero-elapsed", action="store_true",
                    help="self-test hook: report every simulation as ending at elapsed 0")
    args = ap.parse_args()
    if not args.record_pins and args.workload is None:
        ap.error("--workload is required")
    try:
        check_checkout()
        build()
        os.makedirs(WORK, exist_ok=True)
        if args.record_pins:
            record_pins(args.pins)
        else:
            run(args)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)


if __name__ == "__main__":
    main()
