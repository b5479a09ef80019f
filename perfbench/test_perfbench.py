"""Tests of the benchmark itself (not of parh); they take about a minute.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from parh.groups import parse_cayley_table  # noqa: E402
from spans import COUNT_METRICS, TIME_METRICS  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, build_inputs, mismatches, relabel, s3_relabellings, s3_table,
    table_text)

COUNT_SUFFIXES = ("_calls", "_cols", "_nnz", "_terms")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def scratch_dir(name: str) -> Path:
    path = ROOT / ".perfbench" / f"{name}-test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class PinnedValuesTest(unittest.TestCase):
    def setUp(self):
        self.workdir = scratch_dir("pinned")

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_pinned_values_hold_on_three_seeds(self):
        for seed in (1, 2, 3):
            for workload in WORKLOADS.values():
                inputs = build_inputs(seed, self.workdir, parse_cayley_table,
                                      workload.draw)
                tally = worker.Tally()
                worker.run_pass(workload, inputs, 0, tally)
                self.assertGreater(tally.attempted, 0)
                self.assertEqual(tally.failed, 0, f"{workload.name} seed {seed}")

    def test_a_wrong_value_is_reported(self):
        inputs = build_inputs(1, self.workdir, parse_cayley_table,
                              WORKLOADS["hom-s3"].draw)
        op = WORKLOADS["hom-s3"].ops(inputs)[1]
        data = {"dims": [32, 1], "checks": {"d2_zero": True,
                                            "homotopy_id": True},
                "vanishing": False, "ok": False}
        problems = mismatches(op, data)
        self.assertIn("verify kpar-coeff-vanishing s3_1_0: dims expected"
                      " [32, 0], received [32, 1]", problems)
        self.assertEqual(len(problems), 3)


class RelabellingTest(unittest.TestCase):
    def test_every_table_is_a_copy_of_s3_with_identity_at_zero(self):
        tables = s3_relabellings()
        for table in tables:
            group = parse_cayley_table(table_text(table))
            self.assertEqual(group.table, table)
            self.assertEqual(table[0], list(range(6)))
            orders = sorted(next(k for k in range(1, 7)
                                 if (g ** k).is_identity())
                            for g in group.elements)
            self.assertEqual(orders, [1, 2, 2, 2, 3, 3])
            self.assertNotEqual(table, [list(r) for r in zip(*table)])
        # Relabellings by one of the 6 automorphisms give the same table,
        # so the 5! relabellings give 20 distinct ones.
        self.assertEqual(len({str(t) for t in tables}), 20)
        rng = random.Random(0)
        for _ in range(200):
            perm = list(range(1, 6))
            rng.shuffle(perm)
            self.assertIn(relabel(s3_table(), [0, *perm]), tables)

    def test_hom_s3_reads_the_same_five_tables_in_a_seeded_order(self):
        workdir = scratch_dir("orders")
        fixed = sorted(table_text(t) for t in s3_relabellings()[::4])
        try:
            orders = set()
            for seed in (1, 2, 3):
                inputs = build_inputs(seed, workdir, parse_cayley_table,
                                      WORKLOADS["hom-s3"].draw)
                texts = [Path(t).read_text() for t in inputs.tables]
                self.assertEqual(sorted(texts), fixed)
                orders.add(tuple(texts))
                again = build_inputs(seed, workdir, parse_cayley_table,
                                     WORKLOADS["hom-s3"].draw)
                self.assertEqual(again.z_seed, inputs.z_seed)
            self.assertEqual(len(orders), 3)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


class TracedRunTest(unittest.TestCase):
    def traced(self, workload: str) -> dict:
        out = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", "1")
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.splitlines()[-1])
        self.assertTrue(result["correct"])
        return {k: m["value"] for k, m in result["metrics"].items()}

    def test_counts_repeat_and_self_times_account_for_the_wall_time(self):
        declared = {m["name"] for m in run.SPEC["per_layer"]}
        for name in WORKLOADS:
            first, second = self.traced(name), self.traced(name)
            self.assertEqual(set(first), declared)
            counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
            self.assertEqual(sorted(counts), sorted(COUNT_METRICS))
            for key in counts:
                self.assertEqual(first[key], second[key], f"{name} {key}")
            layers = sum(first[k] for k in TIME_METRICS)
            self.assertAlmostEqual(layers + first["trace.unattributed_s"],
                                   first["trace.wall_s"], places=6)


class ContractTest(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in run.SPEC["workloads"]],
                         list(WORKLOADS))

    def test_exits_nonzero_without_the_program(self):
        bare = scratch_dir("bare")
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = bench("--workload", "z-groupoid", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertEqual(out.returncode, 1, out.stderr)
            self.assertIn("worker exited", out.stderr)
            self.assertNotIn("{", out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
