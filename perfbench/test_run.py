#!/usr/bin/env python3
"""Tests of the benchmark's statistics and name-validation helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import statistics
import unittest

import run


def load_spec():
    with open(run.SPEC_PATH) as f:
        return json.load(f)


class StatisticsTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            run.median([])

    def test_iqr_share_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.iqr_share(values),
                               (q3 - q1) / statistics.median(values))

    def test_iqr_share_of_constant_values_is_zero(self):
        self.assertEqual(run.iqr_share([2.0] * 5), 0.0)

    def test_iqr_share_needs_two_values(self):
        with self.assertRaises(ValueError):
            run.iqr_share([1.0])

    def test_ratio_with_zero_base_is_absent(self):
        self.assertIsNone(run.ratio(5, 0))
        self.assertEqual(run.ratio(0, 4), 0.0)
        self.assertEqual(run.ratio(3, 4), 0.75)


class EndToEndMetricsTest(unittest.TestCase):
    RAW = {
        "variants": 2,
        # Variant 0: 2M insts, fastest rep 0.4 s; variant 1: 1M, 0.1 s.
        "rep_insts": [2_000_000, 1_000_000, 2_000_000, 1_000_000],
        "rep_wall_s": [0.5, 0.1, 0.4, 0.2],
        "setup_s": [0.3, 0.1, 0.2],
        "peak_rss_kb": 2048,
        "sim_ipc": 0.75,
        "sim_bpki": 12.5,
        "attempted": 8,
        "failed": 2,
    }

    def test_rate_is_the_fastest_pass_over_all_variants(self):
        m = run.end_to_end_metrics(self.RAW)
        self.assertAlmostEqual(m["sim_minsts_per_s"], 3.0 / 0.5)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(m["pass_frac"], 0.75)
        self.assertEqual(m["sim_ipc"], 0.75)
        self.assertEqual(m["sim_bpki"], 12.5)

    def test_a_run_must_cover_every_variant(self):
        with self.assertRaises(ValueError):
            run.best_pass_rate([1, 1], [0.1, 0.1], 3)

    def test_metric_names_match_benchmark_json(self):
        spec = load_spec()
        self.assertEqual(sorted(run.end_to_end_metrics(self.RAW)),
                         sorted(m["name"] for m in spec["end_to_end"]))


def traced_raw(workload="stream-1c"):
    """A minimal raw line of a traced run with two traced reps."""
    layers = {name: {"calls": 10, "self_ns": 1e8}
              for name in ("cpu", "workload", "mem", "prefetch", "sim",
                           "snap")}
    layers["snap"] = {"calls": 0, "self_ns": 0.0}
    counts = {k: 4 for k in (
        "insts", "cycles", "rob_full_cycles", "demand_accesses",
        "l1_misses", "l2_hits", "l2_misses", "mshr_stalls", "mshr_merges",
        "pref_drops", "demand_miss_fills", "demand_miss_cycles",
        "pref_sent", "pref_used", "pref_late", "demand_misses",
        "pollution_misses", "intervals", "bus_accesses",
        "bus_busy_cycles", "bus_capacity_cycles", "row_hits",
        "row_conflicts", "row_empties", "promotions", "low_tier_drops",
        "queued_sum", "queued_samples", "events_serviced",
        "cross_pollution")}
    counts.update(insts=8000, level_buckets=[0, 0, 0, 1, 3],
                  insert_buckets=[1, 0, 0, 3], core_ipc_min=0.5,
                  core_ipc_max=2.0)
    return {
        "workload": workload,
        "rep_wall_s": [0.5, 0.5],
        "extras": {"trace.bytes_per_op": 3.0},
        "sweep": [],
        "traced": {
            "wall_s": [1.0, 2.0],
            "busy_s": 1.0,
            "span_cost_ns": 50.0,
            "prefetch_candidates": 5,
            "layers": layers,
            "counts": counts,
            "isolated": {"observes": 3, "ns_per_observe": 12.0},
        },
    }


class LayerMetricsTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = load_spec()
        metrics, _ = run.layer_metrics(traced_raw())
        self.assertEqual(sorted(metrics),
                         sorted(m["name"] for m in spec["per_layer"]))

    def test_counts_are_per_rep_and_shares_use_busy_time(self):
        m, _ = run.layer_metrics(traced_raw())
        self.assertEqual(m["cpu.step_calls"], 5)
        self.assertAlmostEqual(m["cpu.self_ns_per_step"], 1e7)
        self.assertAlmostEqual(m["cpu.share"], 0.1)
        self.assertAlmostEqual(m["other.share"], 0.5)
        self.assertAlmostEqual(m["trace_overhead"], 3.0)
        self.assertAlmostEqual(m["core.mean_level"], 4.75)
        self.assertAlmostEqual(m["core.lru_insert_frac"], 0.25)
        self.assertAlmostEqual(m["mem.mshr_stalls_pki"], 0.5)

    def test_single_workload_layers_are_reported_where_they_run(self):
        _, x = run.layer_metrics(traced_raw("stream-1c"))
        self.assertEqual(x, {})
        _, x = run.layer_metrics(traced_raw("replay-ghb"))
        self.assertEqual(x["trace.bytes_per_op"], 3.0)
        _, x = run.layer_metrics(traced_raw("frfcfs-mix8"))
        self.assertAlmostEqual(x["mc.ipc_min_over_max"], 0.25)

    def test_zero_base_is_absent_not_zero(self):
        raw = traced_raw()
        raw["traced"]["layers"]["cpu"]["calls"] = 0
        m, _ = run.layer_metrics(raw)
        self.assertIsNone(m["cpu.self_ns_per_step"])


class SpecValidationTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def assertRejected(self, spec):
        with self.assertRaises(run.SpecError):
            run.validate_spec(spec)

    def test_committed_spec_is_valid(self):
        run.validate_spec(self.spec)

    def test_names_follow_the_contract(self):
        for bad in ["", "-lead", ".lead", "has space", "a" * 65, "x/y"]:
            spec = copy.deepcopy(self.spec)
            spec["workloads"][0]["name"] = bad
            self.assertRejected(spec)
        for good in ["a", "9x", "a.b-c_d", "a" * 64]:
            spec = copy.deepcopy(self.spec)
            spec["workloads"][0]["name"] = good
            run.validate_spec(spec)

    def test_names_are_used_once_across_all_lists(self):
        spec = copy.deepcopy(self.spec)
        spec["per_layer"][0]["name"] = spec["end_to_end"][0]["name"]
        self.assertRejected(spec)

    def test_units(self):
        for bad in ["", "a" * 17, "m s", "ms!"]:
            spec = copy.deepcopy(self.spec)
            spec["end_to_end"][0]["unit"] = bad
            self.assertRejected(spec)
        for good in ["ms", "1/s", "%", "count", "accesses/kinst"]:
            spec = copy.deepcopy(self.spec)
            spec["end_to_end"][0]["unit"] = good
            run.validate_spec(spec)

    def test_bounds(self):
        for bad in [0, -0.1, 0.26, True, "0.1"]:
            spec = copy.deepcopy(self.spec)
            spec["end_to_end"][0]["bound"] = bad
            self.assertRejected(spec)

    def test_setup_s_is_required(self):
        spec = copy.deepcopy(self.spec)
        spec["end_to_end"] = [m for m in spec["end_to_end"]
                              if m["name"] != "setup_s"]
        self.assertRejected(spec)

    def test_paths_and_command_stay_in_the_repo(self):
        for bad in ["/abs", "../up", "a/../b", "sp ace"]:
            spec = copy.deepcopy(self.spec)
            spec["paths"] = [bad]
            self.assertRejected(spec)
        spec = copy.deepcopy(self.spec)
        spec["command"] = ["python3", "../run.py"]
        self.assertRejected(spec)

    def test_workload_count_and_why(self):
        spec = copy.deepcopy(self.spec)
        spec["workloads"] = spec["workloads"][:1]
        self.assertRejected(spec)
        spec = copy.deepcopy(self.spec)
        spec["workloads"][0]["why"] = "two\nlines"
        self.assertRejected(spec)

    def test_extra_keys_are_rejected(self):
        spec = copy.deepcopy(self.spec)
        spec["extra"] = 1
        self.assertRejected(spec)
        spec = copy.deepcopy(self.spec)
        spec["per_layer"][0]["bound"] = 0.1
        self.assertRejected(spec)

    def test_workloads_match_the_binary(self):
        # The names the C++ side accepts (src/workloads.cc).
        with open(os.path.join(run.BENCH_DIR, "src",
                               "workloads.cc")) as f:
            source = f.read()
        for w in self.spec["workloads"]:
            self.assertIn('"%s"' % w["name"], source)


if __name__ == "__main__":
    unittest.main()
