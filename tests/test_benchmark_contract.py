"""The benchmark's traced run, as the benchmark runs it on a fresh checkout:
it must exit 0 and end with a result line that carries every per-layer
metric ``BENCHMARK.json`` declares, with no wrong answer and no failure."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# desk-grid is the paper's regime; steinhaus-search's spans run through the
# triangle and search kernels that steinhaus calls.
@pytest.mark.parametrize("workload", ["desk-grid", "steinhaus-search"])
def test_traced_run_reports_every_per_layer_metric(tmp_path, workload):
    pytest.importorskip("numpy", reason="perfbench's tracer needs numpy")
    if shutil.which("gcc") is None:
        pytest.skip("gcc is missing: the traced run compiles the kernels with it")
    # A copy of what the benchmark checks out, so that nothing is written here.
    skip = shutil.ignore_patterns("__pycache__", "*.so", ".perfbench_out")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
    assert result["correct"] is True
    assert result["failed"] == 0
