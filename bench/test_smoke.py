"""Smoke test of the benchmark command at tiny sizes.

    python3 -m pytest bench/test_smoke.py
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from itertools import combinations

import pytest

import layertrace
import run
import workloads

TINY = {
    "campaign": {"entries": 2, "quota": 1, "n": (7,)},
    "sharpness": {"params": [(1, 2, 3, 1), (2, 2, 3, 1)]},
    "certify": {"per_kind": 4, "entries": 2, "crosscheck_per_kind": 2},
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> tuple[int, list[str]]:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, sizes=TINY[workload])
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    code, lines = run_tiny(workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


def test_tampered_certificate_fails_the_command(monkeypatch):
    honest = workloads.run_query

    def tampered(fb, query):
        out = honest(fb, query)
        if query[0] == "toughness":
            out = dataclasses.replace(out, value=out.value + 1)
        return out

    monkeypatch.setattr(workloads, "run_query", tampered)
    code, lines = run_tiny("certify", 0)
    assert code != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's files
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("n", [1, 4, 6])
@pytest.mark.parametrize("min_size", [0, 2])
def test_scan_position_follows_size_then_lexicographic_order(n, min_size):
    order = [s for k in range(min_size, n + 1) for s in combinations(range(n), k)]
    for visited, s in enumerate(order, start=1):
        assert layertrace.scan_position(n, s, min_size) == visited
    assert layertrace.scan_total(n, min_size) == len(order)


def test_budget_fallback_is_counted():
    fb = run.import_package()
    argv = ["extremal", "--m", "2", "--a", "3", "--b", "4", "--n", "1", "--budget", "500"]
    with layertrace.Tracer(fb) as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert fb.cli.main(argv) == 0
    metrics = tracer.metrics()
    assert metrics["factors.find_ab_factor.budget_exceeded"] == (1, "count")
    assert metrics["avoidance.deletions"] == (1, "count")
