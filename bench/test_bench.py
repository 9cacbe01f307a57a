"""Self-test of the benchmark harness.

    python3 -m unittest discover -s bench -p 'test_bench.py'

Runs every workload at smoke size, traced and untraced; shows that a
corrupted certificate is counted as a failed op; and shows that set-up
is a pure function of the seed.
"""

import io
import json
import random
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import inputs
import run

import pipgeom.cli

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class SmokeRuns(unittest.TestCase):
    def test_every_workload_at_smoke_size(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(inputs.WORKLOADS))
        for workload in inputs.WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run.run(workload, seed=7, seconds=0, trace=trace, smoke=True)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    if trace:
                        self.assertTrue(result["record"]["counts_repeat"])
                    else:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))


class CorruptedCertificate(unittest.TestCase):
    def test_wrong_boundary_count_is_a_failed_op(self):
        honest = pipgeom.cli.main

        def lying_main(argv):
            out = io.StringIO()
            with redirect_stdout(out):
                code = honest(argv)
            report = json.loads(out.getvalue())
            if report["results"]["is_pip"]:
                report["results"]["b"] += 1
            print(json.dumps(report))
            return code

        pipgeom.cli.main = lying_main
        try:
            with redirect_stderr(io.StringIO()) as err:
                result = run.run("certify-many", seed=7, seconds=0, trace=False, smoke=True)
        finally:
            pipgeom.cli.main = honest
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["record"]["ops_failed_ratio"], 0)
        self.assertIn("profile", err.getvalue())

    def test_wrong_quasipolynomial_is_caught_by_the_direct_count(self):
        points = inputs._random_points(random.Random(3))
        run.WORK.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            path = Path(tmp) / "p.json"
            path.write_text(json.dumps({"vertices": [[str(x), str(y)] for x, y in points]}))
            code, stdout = run._certify(str(path))
            op = {"kind": "random", "name": "p"}
            self.assertEqual(run.checks.check_certify(op, code, stdout, path), "")
            report = json.loads(stdout)
            c0 = report["results"]["coeffs"]["0"]
            c0[0] = str(Fraction(c0[0]) + 1)
            self.assertIn("direct count", run.checks.check_certify(op, code, json.dumps(report), path))


class Determinism(unittest.TestCase):
    def test_same_seed_same_digest(self):
        run.WORK.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            for workload in ("certify-deep", "certify-many"):
                a = inputs.build(workload, 11, Path(tmp) / "a", smoke=True)["digest"]
                b = inputs.build(workload, 11, Path(tmp) / "b", smoke=True)["digest"]
                c = inputs.build(workload, 12, Path(tmp) / "c", smoke=True)["digest"]
                self.assertEqual(a, b)
                self.assertNotEqual(a, c)


if __name__ == "__main__":
    unittest.main()
