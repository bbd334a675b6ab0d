"""Self-tests of the benchmark harness; they never run opdyn.

    python3 -m pytest perfbench/test_harness.py
    python3 perfbench/test_harness.py
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER, ROOT, WORK, WORKLOADS  # noqa: E402
from tracer import self_time_table, self_times  # noqa: E402


def _temp_dir(prefix):
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK)


def _write_output(outdir, rows):
    """A families-run output directory holding ``rows``."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "report.csv"), "w", encoding="ascii") as fh:
        fh.write(check.HEADER + "\n")
        for q, k, n, v, b, verdict in rows:
            bound = "" if b is None else f"{b:.16e}"
            fh.write(f"{q},{k},{n},{v:.16e},{bound},{verdict}\n")
    verdicts = {row[0]: row[5] for row in rows}
    lines = [f"{q}: {v}; fitted_rate=n/a" for q, v in verdicts.items()]
    decays = all(v.startswith("decays-below") for v in verdicts.values())
    lines.append(f"all-decays: {'yes' if decays else 'no'}")
    with open(os.path.join(outdir, "summary.txt"), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


class GateTest(unittest.TestCase):
    """The gate accepts the stored reference output and rejects each defect."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = _temp_dir("selftest-")
        wl = workloads.generate("families", check.DEFAULT_SEED, os.path.join(cls.tmp, "in"))
        cls.reference = check.load_reference("families")
        cls.gate = check.Gate(wl, cls.reference)
        cls.oracle_only = check.Gate(wl, None)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def _problems(self, rows, code, gate=None):
        outdir = tempfile.mkdtemp(dir=self.tmp)
        _write_output(outdir, rows)
        return (gate or self.gate).check(outdir, code)

    def _row_index(self, quantity, k):
        for idx, row in enumerate(self.reference["rows"]):
            if row[0] == quantity and row[1] == k:
                return idx
        raise AssertionError(f"no row {quantity} k={k}")

    def test_reference_output_passes(self):
        rows = list(self.reference["rows"])
        self.assertEqual(self._problems(rows, self.reference["exit_code"]), [])

    def test_flipped_verdict_is_rejected(self):
        rows = list(self.reference["rows"])
        q = rows[0][0]
        rows = [r[:5] + ("fails",) if r[0] == q else r for r in rows]
        self.assertNotEqual(self._problems(rows, self.reference["exit_code"]), [])

    def test_scaled_value_is_rejected_by_reference(self):
        rows = list(self.reference["rows"])
        idx = self._row_index("norm(W1^(+1n) P10)", 50)  # not an oracle k
        q, k, n, v, b, verdict = rows[idx]
        rows[idx] = (q, k, n, v * (1 + 1e-6), b, verdict)
        self.assertNotEqual(self._problems(rows, self.reference["exit_code"]), [])

    def test_scaled_value_is_rejected_by_oracle(self):
        rows = list(self.reference["rows"])
        idx = self._row_index("norm(W1^(+1n) W2^(-2n) P10)", 97)
        q, k, n, v, b, verdict = rows[idx]
        rows[idx] = (q, k, n, v * (1 + 1e-6), b, verdict)
        found = self._problems(rows, self.reference["exit_code"], self.oracle_only)
        self.assertTrue(any("oracle" in p for p in found), found)

    def test_wrong_exit_code_is_rejected(self):
        rows = list(self.reference["rows"])
        for code in (0, 2, None):
            self.assertNotEqual(self._problems(rows, code), [], code)


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # request 0: a [0, 10] > b [1, 4] > c [2, 3]; a > b [5, 9]
        # request 1: a [20, 21]
        names = ["a", "b", "c"]
        start = [0.0, 1.0, 2.0, 5.0, 20.0]
        end = [10.0, 4.0, 3.0, 9.0, 21.0]
        name = [0, 1, 2, 1, 0]
        parent = [-1, 0, 1, 0, -1]
        request = [0, 0, 0, 0, 1]
        self.assertEqual(list(self_times(start, end, parent)), [3.0, 2.0, 1.0, 4.0, 1.0])
        table = self_time_table(names, start, end, name, parent, request)
        self.assertEqual(
            table,
            {0: {"a": (1, 3.0), "b": (2, 6.0), "c": (1, 1.0)}, 1: {"a": (1, 1.0)}},
        )


class SeedTest(unittest.TestCase):
    def _files(self, name, seed, directory):
        workloads.generate(name, seed, directory)
        return sorted(os.listdir(directory))

    def test_same_seed_same_bytes_other_seed_differs(self):
        tmp = _temp_dir("seed-")
        try:
            for name in workloads.GENERATORS:
                a, b, c = (os.path.join(tmp, f"{name}{i}") for i in range(3))
                files = self._files(name, 7, a)
                self.assertEqual(self._files(name, 7, b), files)
                self.assertEqual(self._files(name, 8, c), files)
                _, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
                self.assertEqual((mismatch, errors), ([], []), name)
                _, mismatch, _ = filecmp.cmpfiles(a, c, files, shallow=False)
                self.assertNotEqual(mismatch, [], name)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in manifest["end_to_end"]}, END_TO_END_UNITS
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in manifest["per_layer"]], list(PER_LAYER)
        )


if __name__ == "__main__":
    unittest.main()
