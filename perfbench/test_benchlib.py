"""Tests of the benchmark's own math.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchlib as bl
import run


def span(due, sent, done, kind=bl.PUT, ok=1, attempts=1, redirects=0, timeouts=0):
    return bl.Span(due, sent, done, attempts, redirects, timeouts, kind, ok, 0)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(bl.percentile(v, 50), 50)
        self.assertEqual(bl.percentile(v, 99), 99)
        self.assertEqual(bl.percentile(v, 100), 100)
        self.assertEqual(bl.percentile([7], 99), 7)
        self.assertEqual(bl.percentile([3, 1, 2], 50), 2)  # sorts first

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            bl.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        # 1000 samples: exactly 10 lie above p99, so p99 is reported.
        self.assertEqual(bl.tail(list(range(1000))), (99.0, 989, 1000))
        # 999 samples: only 9 above p99, so it falls back to p90.
        pct, value, n = bl.tail(list(range(999)))
        self.assertEqual((pct, n), (90.0, 999))
        self.assertEqual(value, bl.percentile(list(range(999)), 90))
        # 20 samples: only the median has ten beyond it.
        self.assertEqual(bl.tail(list(range(20)))[0], 50.0)

    def test_tail_without_enough_samples_reports_the_max(self):
        self.assertEqual(bl.tail([5, 9, 1]), (None, 9, 3))
        self.assertEqual(bl.tail([]), (None, 0, 0))

    def test_beyond_counts_samples_above(self):
        for n in (10, 99, 100, 101, 1000):
            for p in (50.0, 90.0, 99.0):
                v = list(range(n))
                cut = bl.percentile(v, p)
                self.assertEqual(bl.beyond(n, p), sum(1 for x in v if x > cut))


class LatencyTest(unittest.TestCase):
    def test_paced_counts_from_due_time(self):
        s = span(due=1000, sent=1500, done=1800)
        self.assertEqual(bl.latency_ns(s, paced=True), 800)
        self.assertEqual(bl.latency_ns(s, paced=False), 300)
        self.assertEqual(bl.gen_late_ns(s), 500)

    def test_a_stall_is_charged_to_requests_queued_behind_it(self):
        # One session, a request due every 10 ns; the first one stalls for
        # 100 ns, so the next ones are sent late and all wait on it.
        period, stall = 10, 100
        spans, free_at = [], 0
        for k in range(5):
            due = k * period
            sent = max(due, free_at)
            done = sent + (stall if k == 0 else 1)
            free_at = done
            spans.append(span(due, sent, done))
        paced = [bl.latency_ns(s, True) for s in spans]
        closed = [bl.latency_ns(s, False) for s in spans]
        self.assertEqual(paced, [100, 91, 82, 73, 64])
        self.assertEqual(closed, [100, 1, 1, 1, 1])

    def test_kv_failover_is_timed_from_due_and_others_from_send(self):
        spans = [span(0, 0, 10), span(100, 600, 700, kind=bl.GET),
                 span(200, 600, 800)]
        s = self.run_with(spans, bl.REFERENCE_NS)
        paced, ctx = run.kv_end_to_end("kv_failover", s)
        closed, _ = run.kv_end_to_end("kv_write", s)
        self.assertEqual(paced["p50_us"], 0.6)     # latencies 10, 600, 600 ns
        self.assertEqual(closed["p50_us"], 0.1)    # latencies 10, 100, 200 ns
        self.assertEqual(ctx["latency_from"], "due time")
        self.assertEqual(ctx["latency"]["samples"], 3)
        # Kill at 50 ns; the first acked write after it completes at 800.
        self.assertEqual(paced["unavail_ms"], 750e-6)
        self.assertEqual(closed["unavail_ms"], 2e-6)  # the idle probes'
        self.assertEqual(paced["cpu_us_per_op"], 1.0)  # 3 us over 3 acked ops

    @staticmethod
    def run_with(spans, reference_ns):
        cycle = {"spans_list": spans, "measure_start_ns": 0, "kill_ns": 50,
                 "cpu_start": [{"cpu_ns": 0}], "cpu_end": [{"cpu_ns": 3000}],
                 "final": [{"hwm_kb": 1024}], "reference_ns": [reference_ns] * 3}
        return {"cycles": [cycle], "setup_ns": [1000], "probe_unavail_ns": [2]}

    def test_cpu_bound_figures_are_read_at_the_reference_speed(self):
        # The reference work took twice its reference time: the host ran
        # at half speed, so CPU-bound figures read half as long.
        spans = [span(0, 0, 10), span(0, 0, 20, kind=bl.GET), span(0, 0, 30)]
        s = self.run_with(spans, 2 * bl.REFERENCE_NS)
        read, ctx = run.kv_end_to_end("kv_read", s)
        write, _ = run.kv_end_to_end("kv_write", s)
        for m in (read, write):
            self.assertEqual(m["cpu_us_per_op"], 0.5)
            self.assertEqual(m["setup_s"], 0.5e-6)
        self.assertEqual(read["p50_us"], 0.01)       # lease reads: CPU work
        self.assertEqual(write["p50_us"], 0.02)      # batch timer: as timed
        self.assertEqual(ctx["reference_speed"]["p50_us_as_timed"], 0.02)
        self.assertEqual(ctx["cpu_us_per_op"]["value"], 1.0)

    def test_first_ack_after_ignores_reads_and_failures(self):
        spans = [span(0, 0, 5), span(0, 0, 20, kind=bl.GET), span(0, 0, 30, ok=0),
                 span(0, 0, 40), span(0, 0, 35)]
        self.assertEqual(bl.first_ack_after(spans, 10), 35)
        self.assertIsNone(bl.first_ack_after(spans, 40))


class RatioTest(unittest.TestCase):
    def test_ratio_carries_its_base(self):
        self.assertEqual(bl.ratio(3, 4), {"value": 0.75, "num": 3, "base": 4})

    def test_zero_base_is_zero_not_an_error(self):
        self.assertEqual(bl.ratio(0, 0), {"value": 0.0, "num": 0, "base": 0})

    def test_overhead_is_percent_of_untraced(self):
        r = run.overhead(200.0, 150.0)
        self.assertEqual((r["value"], r["base"]), (25.0, 200.0))


class FoldTest(unittest.TestCase):
    def test_fold_nodes_sums_counters_and_maxes_gauges(self):
        a = {"counters": {"net.sent.p1": 3, "kv.batches": 2},
             "gauges": {"kv.applied_slot": 10},
             "histograms": {"net.send_batch": {"count": 2, "sum": 5}}}
        b = {"counters": {"net.sent.p0": 4},
             "gauges": {"kv.applied_slot": 12},
             "histograms": {"net.send_batch": {"count": 1, "sum": 1}}}
        counters, gauges, hist = bl.fold_nodes([a, b])
        self.assertEqual(bl.sum_prefix(counters, "net.sent.p"), 7)
        self.assertEqual(gauges["kv.applied_slot"], 12)
        self.assertEqual(hist["net.send_batch"], (3, 6))

    def test_fold_clusters_adds_each_clusters_gauge_once(self):
        node = {"counters": {"kv.batches": 1}, "gauges": {"kv.applied_slot": 5},
                "histograms": {"net.recv_batch": {"count": 1, "sum": 2}}}
        other = {"counters": {}, "gauges": {"kv.applied_slot": 7}}
        counters, gauges, hist = bl.fold_clusters([[node, node], [other]])
        self.assertEqual(counters["kv.batches"], 2)
        self.assertEqual(gauges["kv.applied_slot"], 12)   # 5 + 7, not 5+5+7
        self.assertEqual(hist["net.recv_batch"], (2, 4))

    def test_protocol_layers(self):
        self.assertEqual(bl.protocol_layer(2), "fd")          # ring FD
        self.assertEqual(bl.protocol_layer(16), "broadcast")  # kv batch RB
        self.assertEqual(bl.protocol_layer(15), "kv")
        self.assertEqual(bl.protocol_layer(1000), "core")     # slot 0 consensus
        self.assertEqual(bl.protocol_layer(1001), "broadcast")  # slot 0 RB
        self.assertEqual(bl.protocol_layer(2942), "core")

    def test_frame_shares_carry_the_send_count(self):
        doc = {"events": [[0, 0, "send", 1, 13, -1], [0, 0, "send", 2, 1000, -1],
                          [0, 0, "send", 2, 1001, -1], [0, 0, "send", 1, 16, -1],
                          [0, 0, "deliver", 1, 13, -1]]}
        shares = bl.frame_shares([doc])
        self.assertEqual(shares["fd"], {"value": 0.25, "num": 1, "base": 4})
        self.assertEqual(shares["broadcast"]["num"], 2)
        self.assertEqual(shares["core"]["value"], 0.25)

    def test_detection_aligns_node_time_to_the_kill(self):
        lines = [{"t_ms": 100, "suspected": [0]},   # before the kill
                 {"t_ms": 900, "suspected": []},
                 {"t_ms": 1300, "suspected": [2, 0]}]
        epoch = 5_000_000
        kill = epoch + 1_000_000                      # node time 1000 ms
        self.assertEqual(bl.detect_ms(lines, epoch, 0, kill), 300.0)
        self.assertIsNone(bl.detect_ms(lines, epoch, 1, kill))

    def test_omega_moves_off_the_victim(self):
        lines = [{"t_ms": 1100, "trusted": 0}, {"t_ms": 1200, "trusted": None},
                 {"t_ms": 1250, "trusted": 1}]
        epoch = 0
        self.assertEqual(bl.omega_ms(lines, epoch, 0, 1_000_000), 250.0)

    def test_leader_changes(self):
        lines = [{"trusted": None}, {"trusted": 0}, {"trusted": 0},
                 {"trusted": 1}, {"trusted": 2}, {"trusted": 2}]
        self.assertEqual(bl.leader_changes(lines), 2)

    def test_span_records_round_trip(self):
        raw = bl.SPAN.pack(1, 2, 3, 4, 5, 6, bl.GET, 1, 3)
        self.assertEqual(bl.read_spans(raw * 2),
                         [bl.Span(1, 2, 3, 4, 5, 6, bl.GET, 1, 3)] * 2)


def case(idx, profile, ns, pass_no, reference_ns=bl.REFERENCE_NS):
    return bl.Case(ns, 0, 0, 0, 0, ns, pass_no, idx, 1, profile, reference_ns)


class FuzzFoldTest(unittest.TestCase):
    # Two profiles of two cases each (7 runs first), over three passes;
    # pass 1 is a burst of host load that doubles every case.
    CASES = [case(i, p, ns * (2 if k == 1 else 1), k)
             for k in range(3)
             for i, p, ns in ((0, 7, 10), (1, 7, 30), (2, 3, 50), (3, 3, 70))]

    def test_a_slow_pass_moves_no_case_median(self):
        self.assertEqual(bl.case_medians(self.CASES),
                         {0: (7, 10), 1: (7, 30), 2: (3, 50), 3: (3, 70)})
        self.assertEqual(run.case_ns(self.CASES, "cpu_ns"), [10, 30, 50, 70])

    def test_reference_speed_undoes_a_slow_pass(self):
        # Pass 1's doubled cases ran while the reference work also took
        # twice as long (its median: one outlier moves no pass's scale).
        cases = [c._replace(reference_ns=bl.REFERENCE_NS * (2 if c.pass_no == 1 else 1)
                            + (5 if c.idx == 0 else 0))
                 for c in self.CASES]
        scaled = bl.at_reference_speed(cases)
        by_pass = {}
        for c in scaled:
            by_pass.setdefault(c.pass_no, []).append(round(c.case_ns, 6))
        self.assertEqual(by_pass, {k: [10, 30, 50, 70] for k in range(3)})
        self.assertEqual([round(c.cpu_ns, 6) for c in scaled[4:8]], [10, 30, 50, 70])

    def test_a_slower_case_still_reads_slower(self):
        # The repository's code got 20% slower; the reference work did not.
        slower = [c._replace(case_ns=c.case_ns * 1.2) for c in self.CASES]
        before = bl.case_medians(bl.at_reference_speed(self.CASES))
        after = bl.case_medians(bl.at_reference_speed(slower))
        for i in before:
            self.assertAlmostEqual(after[i][1], before[i][1] * 1.2)

    def test_first_profile_is_the_one_case_zero_belongs_to(self):
        self.assertEqual(bl.first_profile_ns(bl.case_medians(self.CASES)), 40)

    def test_slowest_profile_by_its_median_case(self):
        self.assertEqual(bl.slowest_profile_ns(bl.case_medians(self.CASES)), 60)


class AbortedRunTest(unittest.TestCase):
    def test_a_failed_cluster_set_up_is_an_incorrect_result(self):
        metrics, _, errors, attempted, failed = run.aborted(
            [{"errors": ["cycle0: LOST acked write probe.a"]}, {"errors": []}])
        self.assertEqual(errors, ["cycle0: LOST acked write probe.a"])
        self.assertEqual((attempted, failed), (1, 1))
        self.assertEqual(set(metrics),
                         {n for n, _ in run.END_TO_END + run.PER_LAYER})
        line = run.result_line(metrics, run.END_TO_END, not errors,
                               attempted, failed)
        self.assertIn('"correct": false', line)


if __name__ == "__main__":
    unittest.main()
