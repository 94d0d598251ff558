"""The bytes of every CLI artifact and every stdout, pinned.

A list of commands runs in process through ``cli.main`` with relative
paths, so manifests and printed paths hold no temporary directory.  The
SHA-256 of each file it leaves, and of each command's stdout, must match
``artifact_digests.json`` under the fingerprint of the numerical
environment: BLAS may round another build, core or numpy differently.  On
an unknown fingerprint the test still checks that a run with warm dataset
sidecars and a run with none write the same bytes, then skips.

To pin a new environment, run ``python tests/test_artifact_digests.py``
and add what it prints to the JSON file.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from svdn.cli import main

DIGESTS = Path(__file__).with_name("artifact_digests.json")
SIDECAR_GLOB = ".*.parsed.npz"

EVAL = ["eval", "--dataset", "data/dataset.csv", "--ckpt", "run/ckpt_final.svdn"]
BIG_EVAL = ["eval", "--dataset", "big/dataset.csv", "--ckpt", "run/ckpt_final.svdn"]
COMMANDS = [
    ["gen", "--out", "data", "--ids", "12"],
    ["train", "--out", "run", "--dataset", "data/dataset.csv", "--max-rri", "3"],
    [*EVAL, "--out", "eval"],
    [*EVAL, "--out", "eval_l2", "--l2-normalize"],
    [*EVAL, "--out", "eval_output", "--feature", "output"],
    ["diagnose", "--out", "diag", "--dataset", "data/dataset.csv", "run"],
    ["compare", "--out", "cmp", "--dataset", "data/dataset.csv", "--max-rri", "1"],
    ["sweep-dim", "--out", "sweep", "--dataset", "data/dataset.csv", "--dims", "4,6", "--max-rri", "2"],
    ["gen", "--out", "big", "--ids", "300"],  # 3000 gallery rows: several feature blocks
    [*BIG_EVAL, "--out", "big_eval"],
    [*BIG_EVAL, "--out", "big_eval_output", "--feature", "output"],
    ["train", "--out", "flat", "--dataset", "data/dataset.csv", "--hidden-dims", "", "--eigen-dim", "8", "--max-rri", "2"],
]


def _openblas_config() -> str:
    """The configuration string of the OpenBLAS numpy loaded, which names
    the core it runs on, not only the one it was built for."""
    for lib in sorted(glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown BLAS"


def fingerprint() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    features = ",".join(name for name, on in __cpu_features__.items() if on)
    return f"numpy {np.__version__} | {_openblas_config()} | {features}"


def run_commands(root: Path, cold: bool) -> dict[str, str]:
    """SHA-256 of each file the commands leave under ``root`` and of each
    command's stdout; ``cold`` deletes every dataset sidecar before each
    command.  Sidecars are a cache and are not digested."""
    os.chdir(root)
    digests = {}
    for i, argv in enumerate(COMMANDS):
        if cold:
            for sidecar in root.rglob(SIDECAR_GLOB):
                sidecar.unlink()
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(argv) == 0, argv
        digests[f"stdout/{i:02d} {' '.join(argv[:3])}"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    for path in sorted(root.rglob("*")):
        if path.is_file() and not path.match(SIDECAR_GLOB):
            digests[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_artifact_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "warm").mkdir()
    (tmp_path / "cold").mkdir()
    warm = run_commands(tmp_path / "warm", cold=False)
    assert run_commands(tmp_path / "cold", cold=True) == warm
    known = json.loads(DIGESTS.read_text())
    key = fingerprint()
    if key not in known:
        pytest.skip(f"no pinned digests for this environment: {key}")
    assert warm == known[key]


if __name__ == "__main__":  # print this environment's entry for artifact_digests.json
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_commands(Path(tmp), cold=False)
        os.chdir("/")
    print(json.dumps({fingerprint(): digests}, indent=2, sort_keys=True))
