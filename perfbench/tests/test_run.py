"""Tests of the benchmark runner (run.py): the result line round-trips,
capped children are censored and counted as failed, and a run attempts the
same operations whatever its seed.

Run from the repository root: python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402


class ResultLine(unittest.TestCase):
    def test_round_trip(self):
        metrics = {"kops_cpu_s": (0.1234567891, "s"), "completed_frac": (0.75, "ratio")}
        line = run.format_result(True, 8, 2, metrics)
        self.assertEqual(run.parse_result(line), (True, 8, 2, metrics))

    def test_rejects_extra_keys_and_bad_counts(self):
        good = json.loads(run.format_result(False, 1, 1, {}))
        with self.assertRaises(ValueError):
            run.parse_result(json.dumps(dict(good, extra=1)))
        with self.assertRaises(ValueError):
            run.parse_result(json.dumps(dict(good, attempted=0)))
        with self.assertRaises(ValueError):
            run.parse_result(json.dumps(dict(good, failed=1.5)))

    def test_refuses_non_finite_values(self):
        with self.assertRaises(ValueError):
            run.format_result(True, 1, 0, {"x_s": (float("nan"), "s")})


class Caps(unittest.TestCase):
    def test_time_cap_kills_and_censors(self):
        child = run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
        self.assertEqual(child.status, "timeout")
        self.assertTrue(child.censored)
        self.assertGreaterEqual(child.wall_s, 0.5)
        self.assertLess(child.wall_s, 5.0)

    def test_processor_time_cap_kills_and_censors(self):
        child = run.spawn([sys.executable, "-c", "while True: pass"], 30.0, 1)
        self.assertEqual(child.status, "cpu")
        self.assertTrue(child.censored)
        self.assertGreaterEqual(child.cpu_s, 1.0)
        self.assertLess(child.cpu_s, 3.0)

    def test_waiting_does_not_count_against_the_processor_cap(self):
        child = run.spawn([sys.executable, "-c", "import time; time.sleep(1.5)"], 30.0, 1)
        self.assertEqual(child.status, "ok")
        self.assertGreaterEqual(child.wall_s, 1.5)

    def test_address_space_cap_censors(self):
        grab = "x = bytearray(1 << 30); print('allocated')"
        child = run.spawn([sys.executable, "-c", grab], 30.0, address_space=256 << 20)
        self.assertEqual(child.status, "crash")
        self.assertTrue(child.censored)
        self.assertNotIn("allocated", child.stdout)

    def test_completed_child_reports(self):
        child = run.spawn([sys.executable, "-c", "print('{\"seconds\": 1.5}')"], 30.0)
        self.assertEqual(child.status, "ok")
        self.assertEqual(child.report(), {"seconds": 1.5})
        self.assertGreater(child.rss_mb, 0.0)


def fake_spawn(argv, wall_cap_s, cpu_cap_s=None, address_space=run.ADDRESS_SPACE_BYTES):
    """Stands in for `run.spawn`: maxsize hits the processor-time cap,
    adaptive answers wrongly, every other arm is correct."""
    arm = argv[argv.index("--arm") + 1]
    if arm == "maxsize":
        return run.Child("cpu", cpu_cap_s + 0.5, cpu_cap_s + 0.01, 900.0, "", "")
    # The host runs at half the reference speed.
    report = {
        "seconds": 0.3,
        "cpu_seconds": 0.25,
        "calibration_s": 2 * run.REFERENCE_CALIBRATION_S,
        "peak_rss_mb": 50.0,
        "correct": arm != "adaptive",
        "error": "wrong",
    }
    return run.Child("ok", 0.3, 0.3, 50.0, json.dumps(report) + "\n", "")


def untraced(seed, seconds):
    args = types.SimpleNamespace(workload="grover", seed=seed, seconds=seconds)
    real = run.spawn
    run.spawn = fake_spawn
    try:
        return run.untraced("perfbench", args, [4 * run.REFERENCE_CALIBRATION_S])
    finally:
        run.spawn = real


class Untraced(unittest.TestCase):
    def test_censored_arm_reports_the_cap_and_counts_as_failed(self):
        values, attempted, failed, correct = untraced(seed=1, seconds=0.0)
        reps = run.MIN_REPS
        self.assertEqual(attempted, (len(run.ARMS) - 1) * reps + 1)
        self.assertEqual(failed, 1 + reps)  # maxsize censored once, adaptive wrong each time
        self.assertFalse(correct)
        # Times are reported at the reference speed: kops's beside its own
        # calibration runs; the censored maxsize (last in this seed's order)
        # ran under a cap and is read at the run's median speed so far,
        # which the five arm runs before it set to half the reference.
        self.assertEqual(values["kops_cpu_s"], (0.125, reps))
        self.assertAlmostEqual(values["maxsize_cpu_s"][0], run.CPU_CAP_S + 0.005)
        self.assertEqual(values["maxsize_cpu_s"][1], 1)
        self.assertEqual(values["peak_rss_mb"], (50.0, attempted - 1))
        arms = len(run.ARMS)
        self.assertAlmostEqual(values["completed_frac"][0], (arms - 2) / arms)

    def test_operation_counts_do_not_depend_on_the_seed(self):
        counts = {untraced(seed, seconds=8.0)[1:3] for seed in range(4)}
        self.assertEqual(len(counts), 1)
        attempted, _ = counts.pop()
        reps = run.repetitions("grover", 8.0)
        self.assertEqual(attempted, sum(reps.values()) - reps["maxsize"] + 1)

    def test_repetitions_stay_within_their_limits(self):
        for workload in run.NOMINAL_CPU_S:
            for n in run.repetitions(workload, 8.0).values():
                self.assertGreaterEqual(n, run.MIN_REPS)
                self.assertLessEqual(n, run.MAX_REPS)


if __name__ == "__main__":
    unittest.main()
