#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The schedule and end-to-end tests build the driver first (as run.py does)
and run one short workload, so they take about a minute on four cores.
"""

import json
import math
import re
import statistics
import subprocess
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CONFIG = json.loads((run.HERE / "config.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.supported_percentile(1000, 99.0), 99.0)
        self.assertEqual(run.supported_percentile(999, 99.0), 90.0)
        self.assertEqual(run.supported_percentile(100), 90.0)
        self.assertEqual(run.supported_percentile(99), 50.0)
        self.assertEqual(run.supported_percentile(10000), 99.9)
        self.assertIsNone(run.supported_percentile(19))

    def test_nearest_rank_counts_failures_as_late(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile(values[:99] + [math.inf], 99), 99)
        self.assertTrue(math.isinf(run.percentile([1.0, math.inf], 99)))

    def test_tail_falls_back_to_a_supported_percentile(self):
        values = [float(v) for v in range(500)]
        self.assertEqual(run.tail(values, 99.0), run.percentile(values, 90.0))

    def test_ladder_supports_the_tail_on_every_segment(self):
        """Every rung's segments support the tail, also in the traced run,
        which splits run_seconds over two passes."""
        serve_s = BENCHMARK["run_seconds"] * (1 - CONFIG["learn_share"])
        for name, cfg in CONFIG["workloads"].items():
            for rung in cfg["load"]["rungs"]:
                for passes in (1, 2):
                    n = round(rung["rate"] * rung["share"] * serve_s /
                              passes / CONFIG["rounds"])
                    self.assertEqual(run.supported_percentile(n, run.TAIL),
                                     run.TAIL, f"{name} {rung['name']}: {n}")


class RungVerdicts(unittest.TestCase):
    LOAD = {"rungs": [{"name": "r", "rate": 1000}], "p90_limit_ms": 10.0,
            "lateness_limit_ms": 5.0}

    def segment(self, latency_ms, growth=0.0, late_ms=0.1, cpu_s=0.0):
        n = len(latency_ms)
        return {"name": "r", "count": n, "latency_ms": latency_ms,
                "lateness_ms": [late_ms] * n, "outstanding_mid": 0,
                "outstanding_end": round(growth * n / 2),
                "reply_span_s": n / 1000.0, "server_cpu_s": cpu_s}

    def summary(self, segments):
        [out] = run.rung_summaries(segments, self.LOAD, 0.1)
        return out

    def test_reports_the_median_round(self):
        rounds = [self.segment([float(r + 1)] * 100) for r in range(10)]
        out = self.summary(rounds)
        self.assertEqual(out["p50_ms"], 5.5)
        self.assertEqual(out["p90_ms"], 5.5)
        self.assertTrue(out["meets_slo"])

    def test_server_cpu_per_answered_request_over_all_rounds(self):
        rounds = [self.segment([1.0] * 100, cpu_s=0.001 * (r + 1))
                  for r in range(4)]
        rounds[0]["latency_ms"][:10] = [-1.0] * 10
        self.assertAlmostEqual(self.summary(rounds)["server_cpu_us"],
                               1e6 * 0.010 / 390)

    def test_flags_judge_the_median_round(self):
        for grown, flagged in ((4, False), (6, True)):
            rounds = [self.segment([1.0] * 100, growth=0.2 if r < grown
                                   else 0.0) for r in range(10)]
            self.assertEqual(self.summary(rounds)["flags"] == ["backlog grew"],
                             flagged, grown)
        for lagged, flagged in ((4, False), (6, True)):
            rounds = [self.segment([1.0] * 100, late_ms=9.0 if r < lagged
                                   else 0.1) for r in range(10)]
            self.assertEqual(
                self.summary(rounds)["flags"] == ["generator lagged"],
                flagged, lagged)

    def test_latency_limit_judges_the_median_round(self):
        rounds = [self.segment([20.0 if r < 6 else 1.0] * 100)
                  for r in range(10)]
        out = self.summary(rounds)
        self.assertEqual(out["p90_ms"], 20.0)
        self.assertFalse(out["meets_slo"])

    def test_a_failed_request_fails_the_rung(self):
        rounds = [self.segment([1.0] * 100) for _ in range(10)]
        rounds[3]["latency_ms"][0] = -1.0
        self.assertFalse(self.summary(rounds)["meets_slo"])


class SpeedScale(unittest.TestCase):
    def probe(self, ms):
        return {"core_ms": ms / 4, "l3_ms": 3 * ms / 4}

    def test_scale_is_the_reference_over_the_median_probe(self):
        raw = {"setup_probe": [self.probe(1.0)],
               "passes": [{"learn": [{"probes": [self.probe(4.0),
                                                  self.probe(8.0)]}]}]}
        self.assertEqual(run.speed_scale(raw, 2.0), 0.5)

    def test_cpu_times_scale_and_memory_does_not(self):
        learn = [{"lasso_iter_cpu_ms": [1.0, 3.0], "pca_iter_cpu_ms": [2.0],
                  "alg2_iter_cpu_ms": [4.0]},
                 {"lasso_iter_cpu_ms": [4.0], "pca_iter_cpu_ms": [2.0],
                  "alg2_iter_cpu_ms": [4.0]}]
        serve = [{"name": name, "latency_ms": [1.0] * 100,
                  "server_cpu_s": 0.01} for name in ("light", "heavy")]
        raw = {"setup_cpu_s": [1.0, 3.0, 2.0], "peak_rss_kb": 2048}
        pass_ = {"learn": learn, "serve": serve}
        one = run.pass_metrics(raw, pass_, 1.0)
        half = run.pass_metrics(raw, pass_, 0.5)
        self.assertEqual(one["lasso_iter_cpu_ms"], 3.0)
        self.assertEqual(one["serve_cpu_us.light"], 100.0)
        for name, value in one.items():
            expected = value if name == "peak_rss_mb" else value / 2
            self.assertAlmostEqual(half[name], expected, msg=name)


class Schedule(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def schedule(self, seed, rate=1000, count=2000):
        out = subprocess.run(
            [str(run.DRIVER), "--print-schedule", "--seed", str(seed),
             "--rate", str(rate), "--count", str(count)],
            check=True, capture_output=True, text=True)
        return [float(v) for v in out.stdout.split()]

    def test_same_seed_same_schedule(self):
        self.assertEqual(self.schedule(7), self.schedule(7))
        self.assertNotEqual(self.schedule(7), self.schedule(8))

    def test_poisson_arrivals_at_the_rate(self):
        at = self.schedule(3, rate=1000, count=20000)
        self.assertEqual(at, sorted(at))
        gaps = [b - a for a, b in zip([0.0] + at, at)]
        self.assertAlmostEqual(statistics.fmean(gaps), 1e-3, delta=5e-5)


class Declarations(unittest.TestCase):
    def test_names_and_units(self):
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
        names = END_TO_END + PER_LAYER + WORKLOADS
        self.assertEqual(len(names), len(set(names)))

    def test_every_workload_says_why(self):
        self.assertEqual(sorted(WORKLOADS), sorted(CONFIG["workloads"]))
        for w in BENCHMARK["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertTrue(w["why"].strip())
            self.assertNotIn("\n", w["why"])
            self.assertLessEqual(len(w["why"]), 200)

    def test_layer_map_names_declared_metrics_and_workloads(self):
        layers = CONFIG["layers"]
        self.assertEqual(sorted(layers), sorted(PER_LAYER))
        for name, entry in layers.items():
            self.assertEqual(sorted(entry), ["flat", "moves"], name)
            for workload, targets in entry["moves"].items():
                self.assertIn(workload, WORKLOADS, name)
                for target in targets:
                    self.assertIn(target, END_TO_END, name)
            for workload in entry["flat"]:
                self.assertIn(workload, WORKLOADS, name)
                self.assertNotIn(workload, entry["moves"], name)

    def test_bounds(self):
        for m in BENCHMARK["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower", "bound": max(
                                      m["bound"]
                                      for m in BENCHMARK["end_to_end"])}])


class EndToEnd(unittest.TestCase):
    """One short run of the cheaper workload in each mode: the last line is
    the result object, with every declared metric by name and unit."""

    def result(self, trace):
        out = subprocess.run(
            ["python3", str(run.HERE / "run.py"), "--workload", "evolving",
             "--seed", "5", "--seconds", "4", "--trace", str(trace)],
            check=True, capture_output=True, text=True, cwd=run.ROOT,
            timeout=180)
        return json.loads(out.stdout.splitlines()[-1])

    def check(self, result, declared):
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(sorted(result["metrics"]), sorted(units))
        for name, metric in result["metrics"].items():
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertEqual(metric["unit"], units[name])
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_untraced_run_prints_end_to_end_metrics(self):
        result = self.result(0)
        self.check(result, BENCHMARK["end_to_end"])
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_traced_run_prints_per_layer_metrics(self):
        self.check(self.result(1), BENCHMARK["per_layer"])


if __name__ == "__main__":
    unittest.main()
