#!/usr/bin/env python3
"""Benchmark runner for the MSCCL++ simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload coll_grid --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/, runs the
workload, checks its outputs and prints one JSON object as the last line
of stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
Metric definitions and the reasons behind each workload are in
perfbench/METRICS.md.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"

# Deterministic per-rep counts that must repeat exactly within a run.
EXACT_COUNTS = ("events", "allocs", "frames")

# simprof must attribute at least this share of traced host time.
MIN_ATTRIBUTED_PCT = 95.0

# simprof origins (or origin prefixes) per layer.
SIMPROF_LAYERS = {
    "gpu.host_ms": ("gpu.",),
    "channel.host_ms": ("channel.", "proxy."),
    "core.host_ms": ("core.",),
    "fabric.host_ms": ("fabric.", "link."),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally (the build step re-runs
    CMake itself when a CMakeLists.txt changed); output goes to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    steps = [["cmake", "--build", BUILD, "--target", "perfbench",
              "-j", BUILD_JOBS]]
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_binary(args, workdir):
    """Run perfbench with a clean MSCCLPP_* environment in workdir."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MSCCLPP_")}
    proc = subprocess.Popen([BINARY] + args, cwd=workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("perfbench timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("perfbench exited with %d: %s"
                         % (proc.returncode, err.strip()[-2000:]))
    return json.loads(out)


def sim_differences(a, b, what):
    """Simulated results of two reps that are not bit-identical."""
    problems = []
    for key in sorted(set(a["sim"]) | set(b["sim"])):
        if key not in a["sim"] or key not in b["sim"]:
            problems.append("simulated %s missing in %s" % (key, what))
        elif a["sim"][key] != b["sim"][key]:
            problems.append("simulated %s differs in %s: %r vs %r"
                            % (key, what, a["sim"][key], b["sim"][key]))
    return problems


def check_deterministic(reps):
    """Every simulated result and exact count must repeat bit for bit."""
    problems = []
    first = reps[0]
    for i, rep in enumerate(reps[1:], start=1):
        for key in EXACT_COUNTS:
            if rep[key] != first[key]:
                problems.append("%s differs in rep %d: %r vs %r"
                                % (key, i, rep[key], first[key]))
        for key in ("setup_calls", "host_calls"):
            if len(rep[key]) != len(first[key]):
                problems.append("%s differ in rep %d: %d vs %d"
                                % (key, i, len(rep[key]), len(first[key])))
        problems += sim_differences(first, rep, "rep %d" % i)
    return problems


def fastest(reps, key, rated=True):
    """Sum of each call's fastest time over the reps. Every rep makes the
    same calls, and other tenants of a shared host only ever add time to
    a call, so its minimum is the estimate they move least (a median of
    rep totals moved 2-3x as much between runs). When `rated`, each
    rep's wall times are first scaled by its reference rate (reference
    seconds per wall second over the rep's metered calls; see RefClock
    in src/common.hpp), which takes out how fast the shared host ran
    during that rep."""
    scaled = [[t * (r["ref_rate"] if rated else 1.0) for t in r[key]]
              for r in reps]
    return sum(min(c) for c in zip(*scaled))


def end_to_end(raw):
    """Host times are in reference seconds; their wall-clock twins go to
    stderr."""
    reps = raw["reps"]
    log("wall clock: host %.4f s, setup %.4f s"
        % (fastest(reps, "host_calls", rated=False),
           fastest(reps, "setup_calls", rated=False)))
    metrics = {
        "host_s": fastest(reps, "host_calls"),
        "setup_s": fastest(reps, "setup_calls"),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    for key, value in reps[0]["sim"].items():
        metrics[key] = value
    return metrics


def simprof_totals(workdir):
    """Sum the simprof dumps of the traced leg."""
    wall = attributed = dispatch = 0
    origins = {}
    sections = {}
    files = sorted(glob.glob(os.path.join(workdir, "*simprof.json")))
    for path in files:
        with open(path) as f:
            d = json.load(f)
        wall += d["wall_measured_ns"]
        attributed += d["attributed_ns"]
        dispatch += d["scheduler"]["dispatch_ns"]
        for row in d["origins"]:
            table = sections if row["kind"] == "section" else origins
            ns, ev = table.get(row["origin"], (0, 0))
            table[row["origin"]] = (ns + row["host_ns"], ev + row["events"])
    if not files:
        raise BenchError("traced run wrote no simprof dumps")
    out = {
        "sim.dispatch_ms": dispatch / 1e6,
        "simprof.attributed_pct": 100.0 * attributed / wall if wall else 0.0,
    }
    for name, prefixes in SIMPROF_LAYERS.items():
        out[name] = sum(ns for origin, (ns, _) in origins.items()
                        if origin.startswith(prefixes)) / 1e6
    ns, steps = sections.get("serving.replica_step", (0, 0))
    out["serving.step_host_ms"] = ns / 1e6 / steps if steps else 0.0
    return out


def per_layer(raw, workdir, names):
    legs = {r["leg"]: r for r in raw["reps"]}
    plain, traced = legs["plain"], legs["traced"]
    problems = sim_differences(plain, traced, "the traced rep")

    m = dict.fromkeys(names, 0.0)
    m.update(plain["layers"])
    m.update({k: v for k, v in plain["sim"].items() if k in m})
    events = plain["events"]
    m["sim.events"] = events
    m["sim.allocs_per_event"] = plain["allocs"] / events if events else 0.0
    m["sim.frames_per_event"] = plain["frames"] / events if events else 0.0
    m["sim.max_queue_depth"] = plain["max_queue_depth"]
    m["sim.events_per_s"] = events / plain["host_s"] if plain["host_s"] else 0
    m["trace.overhead_s"] = traced["host_s"] - plain["host_s"]
    for key in ("tuner.profile_points", "tuner.plan_cache_hit_ratio"):
        if key in traced["layers"]:
            m[key] = traced["layers"][key]
    m.update(simprof_totals(workdir))
    if m["simprof.attributed_pct"] < MIN_ATTRIBUTED_PCT:
        problems.append("simprof attributed only %.2f%% of traced host time"
                        % m["simprof.attributed_pct"])

    if "diag" in legs:
        on, off = legs["diag"], legs["diag_obsoff"]
        # Request tracing adds its bucket shares; everything else must
        # be the same with obs on and off.
        shared = {k: v for k, v in on["sim"].items()
                  if not k.startswith("reqtrace.")}
        problems += sim_differences({"sim": shared}, off,
                                    "serve_diag with obs off")
        m["obs.overhead_x"] = on["host_s"] / off["host_s"]
        for key in ("obs.trace_events", "obs.dump_mb", "fabric.faults"):
            m[key] = on["layers"][key]
        m["serving.migrations"] = on["layers"]["serving.migrations"]
        for key, value in on["sim"].items():
            if key.startswith("reqtrace."):
                m[key] = value
    return {n: m[n] for n in names}, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %r" % opts.workload)
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]

    build()
    os.makedirs(os.path.join(BUILD_ROOT, "tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(BUILD_ROOT, "tmp"))
    try:
        raw = run_binary(["--workload", opts.workload,
                          "--seed", str(opts.seed),
                          "--seconds", str(opts.seconds),
                          "--trace", str(opts.trace)], workdir)
        if opts.trace:
            values, problems = per_layer(raw, workdir,
                                         [m["name"] for m in wanted])
            keep = os.path.join(BUILD_ROOT, "trace", opts.workload)
            shutil.rmtree(keep, ignore_errors=True)
            os.makedirs(keep)
            for path in glob.glob(os.path.join(workdir, "*.json")):
                name = os.path.basename(path)
                if name == "spans.json" or "simprof" in name:
                    shutil.copy(path, keep)
        else:
            problems = check_deterministic(raw["reps"])
            if problems:
                problems.insert(0, "nondeterministic simulation")
            values = end_to_end(raw)
            for m in wanted:
                if not values.get(m["name"], 0) > 0:
                    problems.append("metric %s missing or not positive"
                                    % m["name"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in raw["errors"]:
        log("check failed: " + err)
    for p in problems:
        log("error: " + p)
    log("%s seed %d: %d reps, %d operations checked, %d failed"
        % (opts.workload, opts.seed, len(raw["reps"]), raw["attempted"],
           raw["failed"]))
    result = {
        "correct": raw["failed"] == 0 and not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
