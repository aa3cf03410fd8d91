#!/usr/bin/env python3
"""End-to-end benchmark of the V10 simulator.

    python3 perfbench/run.py --workload pair-grid --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the simulator libraries plus the v10bench program)
in Release mode on first use, runs one workload in its own process,
checks its outputs and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from an untraced run;
--trace 1 reports the per-layer metrics from a run that alternates
untraced and traced passes (see README.md for every metric).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("pair-grid", "advise-zoo", "serve-fleet", "serve-chaos")
DEFAULT_SEEDS = {"pair-grid": 1, "advise-zoo": 1, "serve-fleet": 1,
                 "serve-chaos": 11}
HELD_OUT_SEED = 1009

# Span layers: the simulator's modules the benchmark calls into, plus
# the benchmark's own code between calls.
LAYERS = ("workload", "v10", "sched", "sim", "npu", "collocate",
          "serve", "metrics", "trace", "bench")

# Simulated results a pass reports; identical on every pass.
SIM_METRICS = ("tput_gap_pct", "overlap_gap_pp", "fleet_stp",
               "goodput_rps", "slo_miss_pct", "npu.sa_util",
               "npu.vu_util", "npu.hbm_util", "npu.overlap",
               "sched.preemptions", "sched.ctx_overhead_cycles",
               "serve.epochs", "serve.rejected", "serve.shed")

# Per-layer metric -> span name whose time (or count) it sums.
SPAN_TIMES = {
    "workload.compile_s": "workload.compile",
    "v10.ref_s": "v10.ref",
    "v10.cell_s": "v10.cell",
    "v10.train_s": "v10.train",
    "v10.dispatch_s": "v10.dispatch",
    "v10.profile_s": "v10.profile",
    "sched.construct_s": "sched.construct",
    "sched.run_s": "sched.run",
    "collocate.fit_s": "collocate.fit",
    "serve.calibrate_s": "serve.calibrate",
    "serve.arrivals_s": "serve.arrivals",
    "serve.merge_s": "serve.merge",
    "serve.place_s": "serve.place",
    "serve.run_s": "serve.run",
    "serve.report_s": "serve.report",
    "metrics.register_s": "metrics.register",
    "metrics.stats_json_s": "metrics.stats_json",
    "trace.write_s": "trace.write",
}
SPAN_COUNTS = ("workload.compiles", "v10.refs", "v10.cells",
               "v10.profiles", "sim.events", "sim.cycles",
               "serve.arrivals", "serve.report_bytes", "trace.spans",
               "trace.bytes")


class BenchError(Exception):
    pass


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values, q):
    """Nearest-rank q-quantile, refused unless at least ten samples
    lie beyond it."""
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < 10:
        raise BenchError(f"p{round(q * 100)} of {n} samples has fewer "
                         "than 10 samples beyond it")
    return sorted(values)[rank - 1]


def self_times(spans):
    """Per span id: its duration minus the part of its interval that
    its direct children cover."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s["id"], []),
                        key=lambda c: c["start"]):
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def roots_of(spans):
    """Map span id -> id of its root span."""
    by_id = {s["id"]: s for s in spans}
    root = {}
    for s in spans:
        r = s
        while r["parent"] >= 0:
            r = by_id[r["parent"]]
        root[s["id"]] = r["id"]
    return root


def span_totals(spans):
    """Per root span (the setup and each traced pass): summed time per
    span name, summed counts, and summed self time per layer."""
    selfs = self_times(spans)
    root = roots_of(spans)
    totals = {}
    for s in spans:
        t = totals.setdefault(root[s["id"]], {
            "root": None, "time": {}, "count": {}, "self": {}})
        if s["parent"] < 0:
            t["root"] = s["name"]
        t["time"][s["name"]] = (t["time"].get(s["name"], 0.0) +
                                s["end"] - s["start"])
        for k, v in s["counts"].items():
            t["count"][k] = t["count"].get(k, 0.0) + v
        layer = s["name"].split(".", 1)[0]
        t["self"][layer] = t["self"].get(layer, 0.0) + selfs[s["id"]]
    return list(totals.values())


def setup_plus_pass(totals, kind, key):
    """The value in the (single) traced setup plus its median over the
    traced passes."""
    setup = [t[kind].get(key, 0.0) for t in totals
             if t["root"] == "bench.setup"]
    passes = [t[kind].get(key, 0.0) for t in totals
              if t["root"] == "bench.pass"]
    return sum(setup) + median(passes)


def check_passes(raw):
    """Counts the run's operations and failures: each pass's own
    failed operations, plus every operation of a pass whose output
    digest or simulated results differ from the first pass's."""
    passes = raw["passes"]
    first = passes[0]
    attempted = failed = 0
    errors = []
    for i, p in enumerate(passes):
        attempted += p["ops"]
        failed += p["failed"]
        errors += p["errors"]
        if p["digest"] != first["digest"] or p["sim"] != first["sim"]:
            failed += p["ops"] - p["failed"]
            kind = "traced" if p["traced"] else "untraced"
            errors.append(f"pass {i} ({kind}) output differs from pass 0")
    return attempted, failed, errors


def end_to_end_metrics(raw):
    untraced = [p for p in raw["passes"] if not p["traced"]]
    return {
        "setup_s": (median(raw["setup_s"]), "s"),
        "wall_s": (median([p["wall_s"] for p in untraced]), "s"),
        "cpu_s": (median([p["cpu_s"] for p in untraced]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer_metrics(raw, spans, attempted, failed):
    passes = raw["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    totals = span_totals(spans)
    m = {}

    cells = [ms for p in untraced for ms in p["cell_ms"]]
    m["cell_ms_p50"] = (median(cells), "ms")
    m["cell_ms_p90"] = (tail_percentile(cells, 0.9) if cells else 0.0,
                        "ms")
    m["cell_samples"] = (len(cells), "count")
    m["ops"] = (attempted, "count")
    m["ops_failed"] = (failed, "count")

    sim = passes[0]["sim"]
    units = {"tput_gap_pct": "%", "overlap_gap_pp": "pp",
             "fleet_stp": "1", "goodput_rps": "req/s",
             "slo_miss_pct": "%", "sched.ctx_overhead_cycles": "cycles"}
    for name in SIM_METRICS:
        unit = units.get(name, "count" if name.startswith(
            ("sched.", "serve.")) else "1")
        m[name] = (sim.get(name, 0.0), unit)

    for metric, span in SPAN_TIMES.items():
        m[metric] = (setup_plus_pass(totals, "time", span), "s")
    for name in SPAN_COUNTS:
        unit = "B" if name.endswith("bytes") else (
            "cycles" if name == "sim.cycles" else "count")
        m[name] = (setup_plus_pass(totals, "count", name), unit)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (
            setup_plus_pass(totals, "self", layer), "s")

    events, cycles = m["sim.events"][0], m["sim.cycles"][0]
    m["sim.ns_per_event"] = (
        m["sched.run_s"][0] * 1e9 / events if events else 0.0, "ns")
    m["sim.events_per_cycle"] = (events / cycles if cycles else 0.0, "1")

    offered = raw.get("serve.offered", 0)
    run_s = m["serve.run_s"][0]
    # An estimate: run() generates the arrival streams itself, so its
    # own time is taken as run minus the separately timed generation.
    m["serve.self_s"] = (max(0.0, run_s - m["serve.arrivals_s"][0]), "s")
    m["serve.us_per_request"] = (
        run_s * 1e6 / offered if offered else 0.0, "us")
    growth_kb = raw.get("serve.rss_growth_kb", 0)
    m["serve.rss_growth_mb"] = (growth_kb / 1024.0, "MB")
    m["serve.bytes_per_request"] = (
        growth_kb * 1024.0 / offered if offered else 0.0, "B")

    base = median([p["wall_s"] for p in untraced])
    with_spans = median([p["wall_s"] for p in traced])
    m["bench.trace_overhead_pct"] = (
        (with_spans - base) / base * 100.0 if base else 0.0, "%")
    return m


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configure (once) and build v10bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "v10bench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, env=env,
                           timeout=850)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "v10bench")


def run_v10bench(binary, workload, seed, seconds, traced, spans_path):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds),
           "--mode", "traced" if traced else "untraced"]
    if traced:
        cmd += ["--spans-out", spans_path]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=170)
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(r.stderr[-4000:])
        raise BenchError(f"v10bench exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own; "
                    f"{HELD_OUT_SEED} is held out)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    try:
        binary = build()
        spans_path = os.path.join(
            build_dir(), f"spans-{args.workload}-{seed}.jsonl")
        raw = run_v10bench(binary, args.workload, seed, args.seconds,
                           args.trace == 1, spans_path)
        attempted, failed, errors = check_passes(raw)
        if args.trace == 1:
            with open(spans_path) as f:
                spans = [json.loads(line) for line in f]
            metrics = per_layer_metrics(raw, spans, attempted, failed)
        else:
            metrics = end_to_end_metrics(raw)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    for e in errors:
        print(f"error: {e}")
    sim = raw["passes"][0]["sim"]
    print(f"digest {args.workload} seed={seed} "
          f"{raw['passes'][0]['digest']}")
    print("simulated " + " ".join(f"{k}={v:.6g}"
                                  for k, v in sorted(sim.items())))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
