"""The demos run to completion against the library in this tree.

Demo 05 (a convergence study of about 20 s) is left out; the CLI
convergence test covers its path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_analytic_band.py", "02_aligned_meshes.py", "03_band_solve.py",
         "04_alignment_comparison.py", "06_flux_surface_sweep.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
