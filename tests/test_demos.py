"""The quick demo scripts run to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_weight_replacement.py", "02_orthogonality_score.py", "03_restraint_relaxation_training.py"])
def test_demo_exits_0(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
