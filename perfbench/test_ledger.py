"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import ledger


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # p99 of 1000 samples is rank 990, with exactly ten beyond it.
        self.assertEqual(ledger.tail_percentile(1000), 99)
        # 999 samples: rank ceil(989.01) = 990 leaves nine, so p98.
        self.assertEqual(ledger.tail_percentile(999), 98)
        self.assertEqual(ledger.tail_percentile(100), 90)
        self.assertEqual(ledger.tail_percentile(20), 50)
        self.assertEqual(ledger.tail_percentile(11), 9)

    def test_too_few_samples(self):
        self.assertIsNone(ledger.tail_percentile(10))
        self.assertIsNone(ledger.tail_percentile(1))
        self.assertEqual(ledger.tail([3.0, 1.0, 2.0]), (50, 2.0))
        # 14 samples: p28 has ten beyond it, but a tail below the median
        # is no tail, so the median stands in.
        self.assertEqual(ledger.tail_percentile(14), 28)
        self.assertEqual(ledger.tail([float(i) for i in range(14)]),
                         (50, 6.5))

    def test_cap(self):
        self.assertEqual(ledger.tail_percentile(100000), 99)
        self.assertEqual(ledger.tail_percentile(100000, cap=95), 95)

    def test_value_has_ten_beyond(self):
        values = [float(i) for i in range(1, 201)]  # 1..200, shuffled below
        values = values[::2] + values[1::2]
        p, v = ledger.tail(values)
        self.assertEqual(p, 95)
        self.assertEqual(v, 190.0)
        self.assertEqual(sum(1 for x in values if x > v), 10)

    def test_nearest_rank(self):
        self.assertEqual(ledger.nearest_rank([1, 2, 3, 4], 50), 2)
        self.assertEqual(ledger.nearest_rank([1, 2, 3, 4], 51), 3)
        self.assertEqual(ledger.nearest_rank([1, 2, 3, 4], 100), 4)


class IntervalUnion(unittest.TestCase):
    def test_union(self):
        self.assertEqual(ledger.union_length([]), 0.0)
        self.assertEqual(ledger.union_length([(0, 1), (2, 3)]), 2)
        self.assertEqual(ledger.union_length([(0, 2), (1, 3)]), 3)
        self.assertEqual(ledger.union_length([(1, 3), (0, 5), (6, 7)]), 6)
        # Touching intervals merge without double counting.
        self.assertEqual(ledger.union_length([(0, 1), (1, 2)]), 2)

    def test_gap_is_window_minus_union(self):
        # Job [0, 10]; two overlapping lanes cover [1, 4] and [3, 6];
        # a span beyond the job is clipped away.
        spans = [(1, 4), (3, 6), (9, 12)]
        self.assertEqual(ledger.uncovered(0, 10, spans), 10 - 5 - 1)
        self.assertEqual(ledger.uncovered(0, 10, []), 10)
        self.assertEqual(ledger.uncovered(0, 10, [(-1, 11)]), 0)

    def test_complement(self):
        self.assertEqual(ledger.complement(0, 10, [(2, 3), (5, 12)]),
                         [(0, 2), (3, 5)])
        self.assertEqual(ledger.complement(0, 10, []), [(0, 10)])
        self.assertEqual(ledger.complement(0, 10, [(0, 10)]), [])


class SelfTime(unittest.TestCase):
    def test_subtracts_covered_part_once(self):
        # Children overlap each other and stick out of the parent.
        self.assertEqual(ledger.self_time((0, 10), [(1, 3), (2, 4), (8, 12)]),
                         10 - 3 - 2)

    def test_no_children(self):
        self.assertEqual(ledger.self_time((5, 7), []), 2)


class Steal(unittest.TestCase):
    def test_share(self):
        self.assertEqual(ledger.steal_share((10, 1000), (30, 2000)), 0.02)
        self.assertEqual(ledger.steal_share(None, (30, 2000)), 0.0)
        self.assertEqual(ledger.steal_share((10, 1000), (10, 1000)), 0.0)


def driver_span(kind, start, end, nbytes=0):
    return [kind, start, end, nbytes]


class Rounds(unittest.TestCase):
    def test_rounds_partition_job(self):
        driver = [
            driver_span("submit", 0.0, 0.1), driver_span("submit", 0.1, 0.2),
            driver_span("wait", 0.2, 1.0), driver_span("fetch", 1.0, 1.5),
            driver_span("discard", 1.6, 1.7),
            driver_span("submit", 2.0, 2.1), driver_span("wait", 2.1, 3.0),
            driver_span("fetch", 3.0, 3.2),
        ]
        self.assertEqual(ledger.rounds(driver, 0.0, 3.5), [2.0, 1.5])

    def test_one_round_is_the_job(self):
        driver = [driver_span("submit", 1.5, 1.6), driver_span("wait", 1.6, 2.0)]
        self.assertEqual(ledger.rounds(driver, 1.0, 2.5), [1.5])

    def test_submits_before_a_wait_stay_in_one_round(self):
        driver = [driver_span("submit", 0.0, 0.1), driver_span("submit", 0.5, 0.6),
                  driver_span("wait", 0.6, 1.0), driver_span("submit", 1.2, 1.3),
                  driver_span("wait", 1.3, 1.9)]
        self.assertEqual(ledger.rounds(driver, 0.0, 2.0), [1.2, 0.8])


def traced_op():
    """A two-task job on [0, 10] with the driver's runner calls."""
    return {
        "setup_start": -1.0, "setup_end": 0.0,
        "job_start": 0.0, "job_end": 10.0, "teardown_end": 11.0,
        "work": 100, "work_unit": "samples",
        "cpu_s": 5.0, "peak_rss_mb": 10.0,
        "setup_samples": [1.0],
        "driver": [driver_span("submit", 0.0, 1.0),
                   driver_span("wait", 1.0, 8.0),
                   driver_span("fetch", 8.0, 9.0, 64)],
        "tasks": [["map", "map", 2.0, 4.0, 1.5, 10, 20, 7],
                  ["fetch", "fetch", 2.0, 2.5, 0.1, 10, 0, 7],
                  ["reduce", "reduce", 3.0, 5.0, 1.0, 20, 5, 8]],
        "user": {"map": [4, 1.0], "reduce": [2, 0.5], "combine": [0, 0.0]},
        "counters": {"mrs.master.tasks_assigned": 4,
                     "mrs.master.tasks_completed": 2,
                     "mrs.retry.fetch": 1, "mrs.retry.rpc": 2,
                     "mrs.http.pool.hits": 3, "mrs.http.pool.misses": 1},
        "histograms": {"mrs.http.client.request_seconds": [5, 0.25],
                       "mrs.http.server.handle_seconds": [5, 0.125],
                       "mrs.shuffle.lock_wait_s": [0, 0.0],
                       "mrs.spill.merge_fan_in": [2, 6.0]},
        "budget_high_water": 0,
    }


class OpLayers(unittest.TestCase):
    def test_ledger(self):
        m = ledger.op_layers(traced_op())
        self.assertEqual(m["core.tasks"], 2)
        self.assertEqual(m["core.task_wall_s"], 4.0)
        self.assertEqual(m["core.task_cpu_s"], 2.5)
        # Task spans minus the user callbacks inside them.
        self.assertEqual(m["core.task_overhead_s"], 4.0 - 1.5)
        self.assertEqual(m["core.task_bytes_in"], 30)
        self.assertEqual(m["core.gap_s"], 10 - 3)
        self.assertEqual(m["core.submit_s"], 1.0)
        self.assertEqual(m["core.wait_s"], 7.0)
        self.assertEqual(m["core.collect_fetch_bytes"], 64)
        # Driver self time: the job span minus its runner calls.
        self.assertEqual(m["core.driver_s"], 1.0)
        # Waiting with no task open: [1, 2] and [5, 8].
        self.assertEqual(m["core.unaccounted_s"], 4.0)
        self.assertEqual(m["rt.fetch_span_s"], 0.5)
        self.assertEqual(m["rt.retries"], 3)
        self.assertEqual(m["rt.task_useful_ratio"], 0.5)
        self.assertEqual(m["http.pool_hit_ratio"], 0.75)
        self.assertEqual(m["http.client_s"], 0.25)
        self.assertEqual(m["fs.merge_fan_in_mean"], 3.0)
        self.assertEqual(m["interp.us_per_sample"], 1e6 * 1.0 / 100)
        self.assertEqual(m["fs.spill_bytes"], 0)

    def test_every_layer_metric_is_reported(self):
        m = ledger.aggregate_layers([traced_op()], [traced_op()])
        self.assertEqual(set(m), {name for name, _ in ledger.PER_LAYER})
        self.assertEqual(m["obs.tracing_overhead_frac"], 0.0)

    def test_end_to_end(self):
        m, samples, p = ledger.aggregate_end_to_end([traced_op()])
        self.assertEqual(set(m), {name for name, _ in ledger.END_TO_END})
        self.assertEqual(m["job_s"], 10.0)
        self.assertEqual(m["setup_s"], 1.0)
        self.assertEqual(m["teardown_s"], 1.0)
        self.assertEqual(m["work_per_s"], 10.0)
        self.assertEqual((samples, p), (1, 50))
        self.assertEqual(m["round_p50_s"], 10.0)

    def test_round_tail_is_median_of_job_tails(self):
        # Three jobs of 1000 rounds: one slow job must not set the tail.
        ops = []
        for slow in (1.0, 1.0, 5.0):
            op = traced_op()
            op["driver"] = []
            t = 0.0
            for i in range(1000):
                step = slow * (2.0 if i >= 985 else 1.0)
                op["driver"].append(driver_span("submit", t, t))
                op["driver"].append(driver_span("wait", t, t + step))
                t += step
            op["job_start"] = 0.0
            op["job_end"] = t
            ops.append(op)
        m, samples, p = ledger.aggregate_end_to_end(ops)
        self.assertEqual((samples, p), (1000, 99))
        self.assertEqual(m["round_p50_s"], 1.0)
        layers = ledger.aggregate_layers(ops, ops)
        self.assertEqual(layers["core.round_p99_s"], 2.0)

    def test_setup_pools_every_cycle(self):
        a, b = traced_op(), traced_op()
        a["setup_samples"] = [1.0, 2.0, 9.0]
        b["setup_samples"] = [3.0, 4.0]
        m, _, _ = ledger.aggregate_end_to_end([a, b])
        self.assertEqual(m["setup_s"], 3.0)

    def test_chrome_trace_lanes(self):
        events = ledger.chrome_trace(traced_op())["traceEvents"]
        lanes = {e["tid"] for e in events}
        self.assertEqual(lanes, {0, 1, 2})
        job = [e for e in events if e["name"] == "job"][0]
        self.assertEqual((job["ts"], job["dur"]), (1e6, 10e6))


if __name__ == "__main__":
    unittest.main()
