"""Self-tests of the benchmark itself (not of the library).

Run from the repository root:

    python3 perfbench/selftest.py

They check that the seeded inputs are reproducible, that a corrupted answer
and a query past its time limit are counted as failed and an `Unknown`
verdict apart, that times are scaled by the speed gauge, that the p90 leaves
at least ten samples beyond it, that two traced runs with the same seed
count the same work and leave every report unchanged, and that the
benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from commend import cli  # noqa: E402

WORKLOADS = list(run.TRACE_QUERIES)


def _first(workload, seed, n):
    gen = workloads.generate(workload, seed)
    return [next(gen) for _ in range(n)]


def _corrupt(command, result):
    """Change the answer so that its check must fail."""
    changes = {
        "search": lambda r: r.update(total_pairs=r["total_pairs"] + 1),
        "classify": lambda r: r.update(tag="Ex9"),
        "classify-p1": lambda r: r.update({"class": "Corrupted"}),
        "portrait": lambda r: r.update(case="O4-none"),
        "orbifold-cover": lambda r: r.update(selfcover=False),
        "critical": lambda r: r.update(total_degree=r["total_degree"] + 1),
        "chain-check": lambda r: r.update(chain=False),
        "critical-orbit": lambda r: r.update(resolved=False),
        "ramified-invariance":
            lambda r: r.update(witness=r["witness"] + " + 1"),
        "image-curve": lambda r: r.update(image="z1 - 12345"),
        "invariant-lines": lambda r: r["lines"].append(
            {"line": "z1 - 12345", "totally_invariant": False}),
        "lemma3": lambda r: r.update(verified=False),
        "lemma4": lambda r: r.update(verified=False),
        "prop2-reduce": lambda r: r.update(case=0),
    }
    changes[command](result)


class TestInputs(unittest.TestCase):
    def test_same_seed_same_argv(self):
        for workload in WORKLOADS:
            a = [q.argv for q in _first(workload, 1, 30)]
            b = [q.argv for q in _first(workload, 1, 30)]
            self.assertEqual(json.dumps(a), json.dumps(b), workload)

    def test_other_seed_other_argv(self):
        for workload in WORKLOADS:
            a = [q.argv for q in _first(workload, 1, 30)]
            b = [q.argv for q in _first(workload, 2, 30)]
            self.assertNotEqual(a, b, workload)

    def test_argv_distinct_within_run(self):
        for workload in WORKLOADS:
            argvs = [tuple(q.argv) for q in _first(workload, 1, 120)]
            self.assertEqual(len(argvs), len(set(argvs)), workload)


class TestFailureCounting(unittest.TestCase):
    def setUp(self):
        signal.signal(signal.SIGALRM, run._on_alarm)

    def test_corrupted_answer_counted(self):
        for workload in WORKLOADS:
            for query in _first(workload, 1, 40):
                code, stdout, error, elapsed = run.call(cli, query.argv, 60)
                if run.judge(checks, query, code, stdout, error).ok:
                    break
            else:
                self.fail(f"no query of {workload} passes its check")
            report = json.loads(stdout)
            _corrupt(query.argv[checks._command_index(query.argv)],
                     report["result"])
            done = [(query, (code, json.dumps(report), error, elapsed))]
            failed, unknown = run.report_failures(
                run.verdicts(checks, done))
            self.assertEqual((len(failed), len(unknown)), (1, 0), workload)

    def test_unknown_verdict_counted_apart(self):
        for workload, command in (("plane", "classify"),
                                  ("p1-classify", "classify-p1")):
            query = next(q for q in _first(workload, 1, 40)
                         if q.argv[checks._command_index(q.argv)] == command)
            key = "tag" if command == "classify" else "class"
            report = {"result": {key: "Unknown"}}
            done = [(query, (0, json.dumps(report), "", 0.0))]
            failed, unknown = run.report_failures(
                run.verdicts(checks, done))
            self.assertEqual((len(failed), len(unknown)), (0, 1), workload)

    def test_p90_keeps_ten_samples_beyond(self):
        for n, rank in ((200, 180), (100, 90), (60, 50)):
            value, beyond = run.tail_percentile(range(1, n + 1))
            self.assertEqual((value, beyond), (rank, n - rank), n)

    def test_times_scaled_by_the_gauge_around_them(self):
        nominal = run.NOMINAL_GAUGE_S
        gauge = [nominal] * 30 + [2 * nominal] * 30
        scaled = run.at_nominal_speed([1.0] * 60, gauge)
        self.assertEqual((scaled[0], scaled[-1]), (1.0, 0.5))

    def test_query_past_limit_counted(self):
        query = _first("grid-search", 1, 2)[1]
        code, stdout, error, elapsed = run.call(cli, query.argv, 0.01)
        self.assertIsNone(code)
        verdict = run.judge(checks, query, code, stdout, error)
        self.assertFalse(verdict.ok)
        self.assertIn("query limit", verdict.cause)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


class TestTracedRun(unittest.TestCase):
    def test_counts_repeat_and_reports_unchanged(self):
        # plane makes field and resultant calls, grid-search search pairs
        for workload, nonzero in (
                ("plane", ("field.mul_calls", "mpoly.resultant_calls")),
                ("grid-search", ("classify.search_pairs",))):
            runs = []
            for _ in range(2):
                proc = _bench("--workload", workload, "--seed", "5",
                              "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertNotIn("TRACE CHECK FAILED", proc.stdout)
                runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            for result in runs:
                # correct covers identical report bytes traced vs. untraced
                # and module self times summing to the profiled wall time
                self.assertTrue(result["correct"], workload)
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] == "count"} for r in runs]
            self.assertEqual(counts[0], counts[1], workload)
            for name in nonzero:
                self.assertGreater(counts[0][name], 0, name)


class TestWithoutSources(unittest.TestCase):
    def test_refuses_to_run(self):
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = _bench("--workload", "plane", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
