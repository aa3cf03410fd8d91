#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py            # all tests
    python3 perfbench/test_perfbench.py Offline    # no build, no runs

The Emission tests build v10bench on first use and run every
workload briefly in both modes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def span(id_, name, start, end, parent=-1, **counts):
    return {"id": id_, "name": name, "start": start, "end": end,
            "parent": parent, "counts": counts}


def synthetic_raw(traced_passes=2, untraced_passes=2, cells=0):
    passes = []
    for i in range(traced_passes + untraced_passes):
        passes.append({"traced": i % 2 == 1 and i // 2 < traced_passes,
                       "wall_s": 1.0, "cpu_s": 1.0, "ops": 1,
                       "failed": 0, "digest": "d", "errors": [],
                       "cell_ms": [1.0] * cells, "sim": {"fleet_stp": 2}})
    return {"setup_s": [0.1, 0.2, 0.3], "peak_rss_kb": 2048,
            "passes": passes}


class Offline(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        # root 0..10 with children 1..3 and 2..6 (overlapping: 1..6
        # covered) and 8..9; grandchild 2..4 under the 2..6 child.
        spans = [span(0, "bench.pass", 0, 10),
                 span(1, "v10.cell", 1, 3, 0),
                 span(2, "sched.run", 2, 6, 0),
                 span(3, "sim.construct", 2, 4, 2),
                 span(4, "serve.run", 8, 9, 0)]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10 - 5 - 1)
        self.assertAlmostEqual(selfs[1], 2)
        self.assertAlmostEqual(selfs[2], 4 - 2)
        self.assertAlmostEqual(selfs[3], 2)
        self.assertAlmostEqual(selfs[4], 1)

    def test_layer_self_times_partition_each_root(self):
        spans = [span(0, "bench.setup", 0, 4),
                 span(1, "v10.ref", 1, 3, 0, **{"v10.refs": 1}),
                 span(2, "bench.pass", 5, 9),
                 span(3, "v10.cell", 5, 8, 2),
                 span(4, "sched.run", 6, 8, 3, **{"sim.events": 7}),
                 span(5, "bench.pass", 10, 16),
                 span(6, "v10.cell", 10, 15, 5),
                 span(7, "sched.run", 11, 15, 6, **{"sim.events": 7})]
        totals = run.span_totals(spans)
        for t in totals:
            root_time = t["time"][t["root"]]
            self.assertAlmostEqual(sum(t["self"].values()), root_time)
        # setup once + median of the passes
        self.assertAlmostEqual(
            run.setup_plus_pass(totals, "self", "sched"), (2 + 4) / 2)
        self.assertAlmostEqual(
            run.setup_plus_pass(totals, "time", "v10.ref"), 2)
        self.assertEqual(
            run.setup_plus_pass(totals, "count", "sim.events"), 7)
        self.assertEqual(
            run.setup_plus_pass(totals, "count", "v10.refs"), 1)

    def test_p90_needs_ten_samples_beyond_it(self):
        with self.assertRaises(run.BenchError):
            run.tail_percentile(list(range(99)), 0.9)
        self.assertEqual(run.tail_percentile(list(range(100)), 0.9), 89)
        values = list(range(1000, 0, -1))
        p90 = run.tail_percentile(values, 0.9)
        self.assertGreaterEqual(sum(v > p90 for v in values), 10)
        with self.assertRaises(run.BenchError):
            run.tail_percentile([], 0.5)

    def test_a_differing_pass_fails_all_its_operations(self):
        raw = synthetic_raw()
        raw["passes"][1]["digest"] = "other"
        attempted, failed, errors = run.check_passes(raw)
        self.assertEqual((attempted, failed), (4, 1))
        self.assertEqual(len(errors), 1)
        raw = synthetic_raw()
        raw["passes"][2]["sim"] = {"fleet_stp": 3}
        self.assertEqual(run.check_passes(raw)[1], 1)

    def test_spec_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_metric_names_and_units(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)

    def test_per_layer_metrics_match_the_spec(self):
        raw = synthetic_raw(cells=100)
        spans = [span(0, "bench.setup", 0, 1), span(1, "bench.pass", 2, 3)]
        got = run.per_layer_metrics(raw, spans, 4, 0)
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual({k: u for k, (_, u) in got.items()}, want)
        got = run.end_to_end_metrics(raw)
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.assertEqual({k: u for k, (_, u) in got.items()}, want)


class Emission(unittest.TestCase):
    """Every workload prints every declared metric, in both modes."""

    def run_bench(self, workload, trace):
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", "5", "--seconds", "1",
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=run.ROOT,
            timeout=900)
        self.assertEqual(r.returncode, 0)
        return json.loads(r.stdout.strip().splitlines()[-1])

    def test_every_workload_emits_every_metric(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"] for m in SPEC[section]}
            for w in run.WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    res = self.run_bench(w, trace)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(set(res["metrics"]), want)
                    for name, m in res["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float))
                        if section == "end_to_end":
                            self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
