"""The quick demo scripts run to completion against the source tree."""

import functools
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import svdn

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


@pytest.mark.parametrize("demo", ["04_method_comparison.py", "05_dimension_sweep.py"])
def test_long_demo_runs_on_a_short_schedule(demo, monkeypatch, capsys):
    """The long demos, in-process with their schedule cut to two step-0
    epochs and one one-epoch iteration; the files keep their own schedule."""
    short = functools.partial(svdn.RriSchedule, step0_epochs=2, restraint_epochs=1, relaxation_epochs=1, max_rri=1)
    monkeypatch.setattr(svdn, "RriSchedule", short)
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert "mAP" in capsys.readouterr().out


def test_readme_quickstart_runs_on_a_short_schedule(monkeypatch, capsys):
    """The README's python block, run as written with its schedule cut short."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    short = functools.partial(svdn.RriSchedule, step0_epochs=2, restraint_epochs=1, relaxation_epochs=1, max_rri=1)
    monkeypatch.setattr(svdn, "RriSchedule", short)
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
