"""The benchmark's layer tracer still reads what the library returns.

``perfbench/layertrace.py`` wraps the library from outside and reads, among
others, ``build_reduced(...)[0].n``, ``.lower.nnz`` and ``.nnz_percent()``,
``build_mesh(...).interfaces``, ``cli._write_csv`` and
``FourierProjector.__init__``.  A traced pass whose reading fails counts as
failed, so a traced run of each tiny workload must end with none failed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["ref_band", "variable_sparse", "flux_sweep",
                                      "convergence_study"])
def test_traced_benchmark_passes(workload):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--tiny", "--trace", "1", "--seconds", "0.5"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "failed_fraction 0 1" in lines, proc.stdout
    summary = json.loads(lines[-1])
    assert summary["failed"] == 0 and summary["attempted"] > 0
    metrics = summary["metrics"]
    assert metrics["assembly.n"]["value"] > 0
    assert metrics["assembly.nnz_A"]["value"] > 0
    assert metrics["geometry.interfaces"]["value"] > 0
    assert metrics["spectrum.projector_s"]["value"] > 0
