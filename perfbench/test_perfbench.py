"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(checks.percentile(values, 0.5), 50)
        self.assertEqual(checks.percentile(values, 0.9), 90)
        self.assertEqual(checks.percentile(values, 0.99), 99)
        self.assertEqual(checks.percentile(values, 1.0), 100)
        self.assertEqual(checks.percentile([7.0], 0.99), 7.0)

    def test_order_does_not_matter(self):
        values = list(range(1000))
        shuffled = values[:]
        random.Random(3).shuffle(shuffled)
        self.assertEqual(checks.percentile(values, 0.99), checks.percentile(shuffled, 0.99))

    def test_failed_requests_sort_last(self):
        values = [1.0] * 98 + [float("inf")] * 2
        self.assertEqual(checks.percentile(values, 0.98), 1.0)
        self.assertEqual(checks.percentile(values, 0.99), float("inf"))

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            checks.percentile([], 0.5)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(checks.tail_percentile(list(range(1000)), 0.99), 989)
        self.assertEqual(checks.tail_percentile(list(range(200)), 0.95), 189)
        for n, q in ((999, 0.99), (199, 0.95), (99, 0.9)):
            with self.assertRaises(ValueError):
                checks.tail_percentile(list(range(n)), q)

    def test_reported_tail_has_ten_samples_beyond_it(self):
        rng = random.Random(11)
        for n in (20, 57, 100, 101, 999, 1000, 1234, 5000):
            values = [rng.random() for _ in range(n)]
            for q in (0.5, 0.9, 0.95, 0.99):
                try:
                    tail = checks.tail_percentile(values, q)
                except ValueError:
                    self.assertLess(n - math.ceil(q * n), 10, (n, q))
                    continue
                self.assertGreaterEqual(sum(v > tail for v in values), 10, (n, q))


def ref_lines(n):
    return {str(i): '{"id":"%d","ok":true,"op":"ping","result":{"pong":true}}' % i
            for i in range(n)}


class ResponseCheckerTest(unittest.TestCase):
    def test_exact_match_passes(self):
        expected = ref_lines(5)
        got = list(expected.values())[::-1]  # completion order differs
        report = checks.check_responses(expected, got)
        self.assertTrue(checks.responses_correct(report))
        self.assertEqual(checks.failed_ids(report), set())

    def test_corrupted_response_is_rejected(self):
        expected = ref_lines(5)
        got = list(expected.values())
        got[2] = got[2].replace("true}}", "false}}")
        report = checks.check_responses(expected, got)
        self.assertFalse(checks.responses_correct(report))
        self.assertEqual(report["mismatch"], ["2"])
        self.assertEqual(checks.failed_ids(report), {"2"})

    def test_duplicated_response_is_rejected(self):
        expected = ref_lines(5)
        got = list(expected.values()) + [expected["3"]]
        report = checks.check_responses(expected, got)
        self.assertFalse(checks.responses_correct(report))
        self.assertEqual(report["duplicate"], ["3"])

    def test_missing_response_is_rejected(self):
        expected = ref_lines(5)
        got = [line for rid, line in expected.items() if rid != "4"]
        report = checks.check_responses(expected, got)
        self.assertFalse(checks.responses_correct(report))
        self.assertEqual(report["missing"], ["4"])

    def test_unknown_id_is_rejected(self):
        expected = ref_lines(2)
        got = list(expected.values()) + ['{"id":"99","ok":true,"op":"ping"}', "garbage"]
        report = checks.check_responses(expected, got)
        self.assertFalse(checks.responses_correct(report))
        self.assertEqual(len(report["unknown"]), 2)

    def test_shed_counts_as_failed_but_not_incorrect(self):
        expected = ref_lines(3)
        got = list(expected.values())
        got[1] = ('{"id":"1","ok":false,"error":{"code":"Overloaded","message":"queue full"},'
                  '"retry_after_ms":20}')
        report = checks.check_responses(expected, got)
        self.assertTrue(checks.responses_correct(report))
        self.assertEqual(checks.failed_ids(report), {"1"})

    def test_response_id(self):
        self.assertEqual(checks.response_id('{"id":"17","ok":true}'), "17")
        self.assertEqual(checks.response_id('{"ok":true,"id":"x"}'), "x")
        self.assertIsNone(checks.response_id("not json"))
        self.assertIsNone(checks.response_id('{"id":3}'))


DUMP = """{
  "qbd.solve.calls": 12,
  "serve.cache.hits": 40,
  "serve.requests.admitted": 98,
  "serve.requests.completed": 97,
  "serve.requests.cancelled": 1,
  "serve.requests.received": 101,
  "serve.requests.shed": 2,
  "serve.requests.invalid": 1
}
"""


class CounterBalanceTest(unittest.TestCase):
    def test_balanced_dump(self):
        dump = checks.parse_metrics_dump(DUMP)
        self.assertEqual(checks.counter_balance(dump, 101), [])

    def test_absent_counters_read_as_zero(self):
        dump = checks.parse_metrics_dump('{"serve.requests.received": 3,'
                                         ' "serve.requests.admitted": 3,'
                                         ' "serve.requests.completed": 3}')
        self.assertEqual(checks.counter_balance(dump, 3), [])

    def test_admission_imbalance(self):
        dump = checks.parse_metrics_dump(DUMP.replace('"serve.requests.shed": 2',
                                                      '"serve.requests.shed": 1'))
        problems = checks.counter_balance(dump, 101)
        self.assertEqual(len(problems), 1)
        self.assertIn("received 101 != admitted 98 + shed 1 + invalid 1", problems[0])

    def test_completion_imbalance(self):
        dump = checks.parse_metrics_dump(DUMP.replace('"serve.requests.cancelled": 1',
                                                      '"serve.requests.cancelled": 0'))
        problems = checks.counter_balance(dump, 101)
        self.assertEqual(problems, ["admitted 98 != completed 97 + cancelled 0"])

    def test_received_must_equal_sent(self):
        dump = checks.parse_metrics_dump(DUMP)
        self.assertEqual(checks.counter_balance(dump, 100), ["received 101 != sent 100"])

    def test_dump_must_be_an_object(self):
        with self.assertRaises(ValueError):
            checks.parse_metrics_dump("[1, 2]")


class FingerprintTest(unittest.TestCase):
    FP = {"cpu_model": "Xeon", "nproc": 4, "compiler": "GNU 12.2.0", "build_type": "Release",
          "CSQ_OBS": "ON", "CSQ_NATIVE_KERNELS": "ON"}

    def test_same_fingerprint_compares(self):
        self.assertEqual(checks.fingerprint_mismatch(self.FP, dict(self.FP)), [])

    def test_different_host_refuses(self):
        other = dict(self.FP, nproc=1, CSQ_OBS="OFF")
        self.assertEqual(checks.fingerprint_mismatch(self.FP, other), ["nproc", "CSQ_OBS"])


class CompareTest(unittest.TestCase):
    FP = FingerprintTest.FP

    def write(self, d, name, fp, metrics):
        path = os.path.join(d, name)
        with open(path, "w") as f:
            json.dump({"workload": "serve-cold", "seed": 1, "trace": 1, "fingerprint": fp,
                       "host": {"host_spin_ms": 14.0},
                       "result": {"metrics": {k: {"value": v, "unit": "ratio"}
                                              for k, v in metrics.items()}}}, f)
        return path

    def test_zero_base_is_reported_not_divided(self):
        with tempfile.TemporaryDirectory() as d:
            a = self.write(d, "a.json", self.FP, {"pool.suspends_per_task": 0.0})
            b = self.write(d, "b.json", self.FP, {"pool.suspends_per_task": 0.05})
            with contextlib.redirect_stdout(io.StringIO()) as out:
                self.assertEqual(run.compare(a, b), 0)
        self.assertIn("the base is 0", out.getvalue())

    def test_different_fingerprints_refuse(self):
        with tempfile.TemporaryDirectory() as d:
            a = self.write(d, "a.json", self.FP, {"pool.grant_ratio": 0.5})
            b = self.write(d, "b.json", dict(self.FP, nproc=1), {"pool.grant_ratio": 0.5})
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(run.compare(a, b), 3)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(gen.cold_lines(5, 0, 300), gen.cold_lines(5, 0, 300))
        self.assertEqual(gen.hot_lines(5, 1, 64, 300), gen.hot_lines(5, 1, 64, 300))
        self.assertEqual(gen.figure_sweeps(5), gen.figure_sweeps(5))
        self.assertNotEqual(gen.cold_lines(5, 0, 300), gen.cold_lines(6, 0, 300))

    def test_ids_are_line_indexes(self):
        for lines in (gen.cold_lines(1, 2, 100), gen.hot_lines(1, 0, 64, 100)):
            for i, line in enumerate(lines):
                self.assertEqual(checks.response_id(line), str(i))

    def test_cold_configs_are_distinct_and_stable(self):
        lines = gen.cold_lines(2, 0, 4000)
        bodies = [line.split(",", 1)[1] for line in lines]
        self.assertEqual(len(set(bodies)), len(bodies))
        for line in lines:
            fields = dict(kv.split(":") for kv in line.strip("{}").replace('"', "").split(","))
            rho_s, rho_l = float(fields["rho_s"]), float(fields["rho_l"])
            self.assertLess(rho_s, 0.975 * gen.max_rho_short(fields["policy"], rho_l) + 1e-6)

    def test_hot_stream_reuses_the_hot_set(self):
        lines = gen.hot_lines(3, 0, 64, 2000)
        hot = {line.split(",", 1)[1] for line in lines[:64]}
        analyzes = [line for line in lines[64:] if '"op":"analyze"' in line]
        self.assertTrue(all(line.split(",", 1)[1] in hot for line in analyzes))
        self.assertTrue(800 < len(analyzes) < 1200)  # about half


if __name__ == "__main__":
    unittest.main()
