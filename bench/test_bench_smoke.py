"""Smoke test for the benchmark: every workload, tiny size, one short run.

    python -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def tiny_run(workload: str, trace: int) -> tuple[dict, str]:
    proc = run_bench(ROOT, "--workload", workload, "--size", "tiny", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("decision_digest"))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_emitted_no_failures_digests_match(workload):
    plain, plain_digest = tiny_run(workload, trace=0)
    traced, traced_digest = tiny_run(workload, trace=1)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert result["attempted"] >= 1
        assert result["failed"] == 0  # failed_frac == 0
        assert result["correct"] is True
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert traced_digest == plain_digest


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "sparse_stream", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
