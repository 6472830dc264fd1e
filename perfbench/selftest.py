"""Tests of the benchmark itself: failures are counted and the trace measures something.

    python3 perfbench/selftest.py

Runs a few CLI jobs and one traced pass per workload (about 15 s).
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

import run
import tracer
import workloads

EXIT3_JOB = ("disc-d", "--framing", "1", "--m-max", "2", "--k-max", "2")  # d_{2,2} = 3/2
GOOD_JOB = ("sequences", "--which", "dmm", "--format", "text")


class FailureAccounting(unittest.TestCase):
    def setUp(self):
        self.golden = json.loads(run.GOLDEN.read_text())
        self.launcher = self.enterContext(run.Launcher())
        run.WORK.mkdir(exist_ok=True)
        self.dir = Path(self.enterContext(tempfile.TemporaryDirectory(dir=run.WORK)))

    def job(self, argv, golden):
        return run.run_job(self.launcher, argv, self.dir, self.dir, golden)

    def test_golden_job_completes(self):
        self.assertTrue(self.job(GOOD_JOB, self.golden).ok)

    def test_exit3_job_fails_even_against_its_own_digest(self):
        first = self.job(EXIT3_JOB, {})
        self.assertEqual(first.status, 3)
        self.assertFalse(first.ok)
        own = {workloads.key(EXIT3_JOB): {"exit": 3, "stdout_sha256": first.sha256}}
        self.assertFalse(self.job(EXIT3_JOB, own).ok)

    def test_wrong_golden_fails(self):
        wrong = dict(self.golden)
        wrong[workloads.key(GOOD_JOB)] = {"exit": 0, "stdout_sha256": "0" * 64}
        self.assertFalse(self.job(GOOD_JOB, wrong).ok)

    def test_fail_rate_counts_both(self):
        wrong = dict(self.golden)
        wrong[workloads.key(GOOD_JOB)] = {"exit": 0, "stdout_sha256": "0" * 64}
        passed = run.run_pass(self.launcher, [GOOD_JOB], self.golden)
        failed = run.run_pass(self.launcher, [EXIT3_JOB, GOOD_JOB], wrong)
        self.assertEqual(passed.failed / len(passed.jobs), 0)
        self.assertEqual(failed.failed / len(failed.jobs), 1)

    def test_rss_is_the_jobs_own(self):
        # the benchmark process is larger than a small job; the job's max-RSS
        # must not inherit it from the process that forked the job
        ballast = bytearray(64 * 2**20)
        ballast[::4096] = b"\1" * len(ballast[::4096])
        self.assertLess(self.job(GOOD_JOB, self.golden).rss_mb, 48)


class Tracing(unittest.TestCase):
    def test_every_expected_layer_is_called_and_self_times_add_up(self):
        golden = json.loads(run.GOLDEN.read_text())
        launcher = self.enterContext(run.Launcher())
        for name, reached in workloads.LAYERS_REACHED.items():
            with self.subTest(workload=name):
                result = run.run_pass(launcher, workloads.draw(name, 0), golden, traced=True)
                self.assertTrue(all(j.ok for j in result.jobs), "traced output differs from golden")
                self.assertEqual(result.absent, set())
                for layer in reached:
                    self.assertGreater(result.layers.get(layer, {}).get("calls", 0), 0, layer)
                for doc in result.spans:
                    rows = tracer.layer_times(doc)
                    root = doc["spans"][0]
                    self.assertEqual(sum(r["self_ns"] for r in rows.values()), root[3] - root[2])

    def test_missing_function_is_reported_absent(self):
        layers = dict(tracer.LAYERS, **{"laurent.gone": ("conifold.laurent", "no_such_function"),
                                        "nowhere.fn": ("conifold.nowhere", "fn")})
        sys.path.insert(0, str(run.ROOT / "src"))
        try:
            recorder = tracer.Recorder(layers)
            self.assertEqual(recorder.install(), ["laurent.gone", "nowhere.fn"])
        finally:
            sys.path.remove(str(run.ROOT / "src"))

    def test_nesting_is_checked(self):
        doc = {"names": [tracer.ROOT, "a"], "spans": [[-1, 0, 0, 10], [0, 1, 5, 20]]}
        with self.assertRaises(ValueError):
            tracer.layer_times(doc)


if __name__ == "__main__":
    unittest.main()
