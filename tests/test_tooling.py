"""The test configuration and packaging: a failing test is reported, not
fatal, and the installed command runs the CLI."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import svdn.cli

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # hypothesis's failure report may import libcst, which warns with a
    # DeprecationWarning; under this project's warning filters that warning
    # must not stop pytest with INTERNALERROR (exit 3) before the other tests
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "-rA", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "FAILED test_probe.py::test_fails" in proc.stdout
    assert "PASSED test_probe.py::test_passes" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout


def test_console_script_runs_the_cli_main():
    # the `svdn` command that pip installs; Python 3.10 has no tomllib, so the table is read as text
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", PYPROJECT.read_text(), re.M | re.S).group(1)
    scripts = dict(re.findall(r'^(\S+) = "(.+)"$', table, re.M))
    assert list(scripts) == ["svdn"]
    module, name = scripts["svdn"].split(":")
    assert getattr(importlib.import_module(module), name) is svdn.cli.main
