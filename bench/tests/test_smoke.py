"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/tests

Runs every workload once at ``--size tiny`` (about a minute), checks
that every metric named in BENCHMARK.json is emitted, and that failing
operations are counted instead of crashing the harness.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import worker  # noqa: E402

from arithinv.errors import NoConvergence  # noqa: E402

# Baseline defects the hard set keeps measured (see bench/README.md).
KNOWN_DEFECTS = {
    ("curve", "big_a4"): "root iteration budget exhausted",
    ("field", "Qr211"): "unit log row does not sum to 0",
}


def run_bench(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    record = ROOT / ".bench_out" / ("record-all-seed3-trace%d.json" % trace)
    return result, json.loads(record.read_text())


@pytest.fixture(scope="module")
def runs():
    return {trace: run_bench(trace) for trace in (0, 1)}


@pytest.fixture(scope="module")
def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(runs, bench_spec, trace, key):
    result, record = runs[trace]
    assert result["correct"], [s["wrong"] for s in record["workloads"]]
    workloads = [w["name"] for w in bench_spec["workloads"]]
    expected = {"%s.%s" % (w, m["name"]) for w in workloads for m in bench_spec[key]}
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in bench_spec[key]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name.split(".", 1)[1]]
        assert isinstance(metric["value"], (int, float))
    if trace == 0:
        for w in workloads:
            assert result["metrics"][w + ".setup_s"]["value"] > 0
            assert result["metrics"][w + ".wall_s"]["value"] > 0
    else:
        assert result["metrics"]["verify_corpus.analytic.agm_periods.calls_per_curve"]["value"] > 0


def test_failed_operations_are_counted(runs):
    result, record = runs[0]
    ops = [op for s in record["workloads"] for op in s["ops"]]
    assert result["attempted"] == len(ops)
    assert result["failed"] == sum(1 for op in ops if not op["ok"])
    by_key = {(op["kind"], op["label"]): op for op in ops}
    for key, message in KNOWN_DEFECTS.items():
        op = by_key[key]
        if not op["ok"]:  # the baseline defect: counted, with its error
            assert message in op["error"]


def test_pass_counts_raises_and_exit_codes():
    log = worker.Pass(None)

    def raises():
        raise NoConvergence("root iteration budget exhausted")

    assert log.run("curve", "a", raises) is None
    assert log.run("curve", "b", lambda: (2, "error: boom")) is None
    assert log.run("curve", "c", lambda: (0, "x"), lambda value: ["bad"]) is None
    assert log.run("curve", "d", lambda: (0, "x"), lambda value: []) == "x"
    # a checked non-zero exit (`inv verify` with a fail verdict) is wrong
    assert log.run("verify", "e", lambda: (1, "x"), lambda value: ["fail"], checked_codes=(0, 1)) is None
    assert [op["ok"] for op in log.ops] == [False, False, False, True, False]
    assert log.ops[0]["error"].startswith("NoConvergence")
    assert log.wrong == ["curve c: check: bad", "verify e: check: fail"]


def test_fail_verdict_fails_the_verify_check():
    row = {"check_id": "c1", "object": "37a", "lhs": 1.0, "rhs": 2.0, "margin": 1.0, "verdict": "pass", "note": ""}
    reference = {"objects": {"37a": checks.row_digest([row])}, "corpus_free": {}}
    assert checks.check_verify_report({"rows": [row]}, ["37a"], reference) == []
    failed = dict(row, verdict="fail")
    problems = checks.check_verify_report({"rows": [failed]}, ["37a"], reference)
    assert problems[0].startswith("1 fail verdicts")
    assert "rows for 37a differ from the reference" in problems


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
