"""Tests of the benchmark itself. From the repository root: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from alliances.generators import petersen
from alliances.report import analyze, report_to_json
from bench_checks import check_report
from bench_trace import Span, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("alliance_solver.nodes.", "spectral.sweeps", "bounds.applicable", "bounds.tight")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(trace, section):
    # Seed 0 is the digest seed, so this also checks the recorded digest.
    result = result_of(run_bench("--workload", "survey_n10", "--seed", "0", "--seconds", "1", "--trace", str(trace)))
    declared = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == declared


@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCHMARK["workloads"]])
def test_counts_repeat_for_a_seed(workload):
    runs = []
    for _ in range(2):
        result = result_of(run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
        runs.append({k: m["value"] for k, m in result["metrics"].items() if k.startswith(COUNTS)})
    assert len(runs[0]) == 12
    assert runs[0] == runs[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", "survey_n10", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    spans = [
        Span("graph", 0.0, 10.0, None, 0),
        Span("report.analyze", 1.0, 4.0, 0, 0),
        Span("spectral.summary", 2.0, 3.0, 1, 0),
        Span("report.serialize", 5.0, 6.0, 0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_checks_reject_wrong_outputs():
    g = petersen()
    good = analyze(g, label="petersen", deterministic=True)
    assert check_report(g, good, report_to_json(good)) == []

    def problems_after(edit) -> list[str]:
        bad = json.loads(report_to_json(good))
        edit(bad)
        return check_report(g, bad, report_to_json(bad))

    assert problems_after(lambda r: r["exact"]["domination"]["witness"].pop())
    assert problems_after(lambda r: r["exact"]["global_defensive"].update(witness=[0, 1, 2, 3, 4][: r["exact"]["global_defensive"]["value"]]))
    assert problems_after(lambda r: r["spectral"].update(spectral_radius=r["spectral"]["spectral_radius"] + 1e-6))
    row = next(entry for entry in good["bounds"] if "exact" in entry)
    index = good["bounds"].index(row)
    assert problems_after(lambda r: r["bounds"][index].update(value=row["exact"] + 1, gap=-1))
