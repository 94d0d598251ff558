"""All-or-nothing artifact files: ``errors.open_artifact`` and the
writers built on it, plus a guard that no other code in ``src/svdn``
creates a file."""

import ast
import os
import re
from pathlib import Path

import pytest

import svdn
from svdn.errors import open_artifact, write_csv
from svdn.evaluation import RetrievalDataset, generate_synthetic, load_dataset, save_dataset

PACKAGE = Path(svdn.__file__).parent


class RowsFailingAt:
    """Feature rows that raise once ``stop`` rows have been handed out."""

    def __init__(self, features, stop):
        self.features, self.stop, self.shape = features, stop, features.shape

    def __iter__(self):
        for i, row in enumerate(self.features):
            if i == self.stop:
                raise RuntimeError("row source failed")
            yield row


def failing_copy(dataset, stop):
    return RetrievalDataset(RowsFailingAt(dataset.features, stop), dataset.ids, dataset.cameras, dataset.split)


class TestOpenArtifact:
    def test_failed_dataset_write_leaves_no_file(self, tmp_path):
        data = generate_synthetic()
        n = data.features.shape[0]
        with pytest.raises(RuntimeError, match="row source failed"):
            save_dataset(failing_copy(data, n - 40), tmp_path / "dataset.csv")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_old_bytes(self, tmp_path):
        data = generate_synthetic()
        path = tmp_path / "dataset.csv"
        save_dataset(data, path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            save_dataset(failing_copy(generate_synthetic(seed=1), 100), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        load_dataset(path)

    @pytest.mark.parametrize("mode", ["w", "wb"])
    def test_interrupt_removes_temporary_file(self, tmp_path, mode):
        with pytest.raises(KeyboardInterrupt):
            with open_artifact(tmp_path / "x", mode) as fh:
                fh.write("partial" if mode == "w" else b"partial")
                assert [p.name for p in tmp_path.iterdir()] == [f".x.{os.getpid()}.tmp"]
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []

    def test_file_mode_matches_plain_open(self, tmp_path):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "plain", "w"):
                pass
            write_csv(tmp_path / "artifact.csv", ["a"], [[1]])
        finally:
            os.umask(old)
        assert (tmp_path / "artifact.csv").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_text_is_utf8_with_newlines_as_given(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["name", "note"], [["é", "a,b"], ["x", "line\r\nbreak"]])
        assert (tmp_path / "t.csv").read_bytes() == 'name,note\né,"a,b"\nx,"line\r\nbreak"\n'.encode()


def _is_write_mode(node) -> bool:
    """Whether an ``open`` call can create a file: its mode (the second
    argument or ``mode=``, and also the first for a method such as
    ``Path.open``) holds w, x or a, or is not a literal."""
    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    first = node.args[:1] if isinstance(node.func, ast.Attribute) else []
    for m in modes + first:
        if isinstance(m, ast.Constant):
            if isinstance(m.value, str) and re.fullmatch(r"[rwxabt+]+", m.value) and set(m.value) & set("wxa"):
                return True
        elif m not in first:
            return True
    return False


def file_writers(source: str) -> list[str]:
    """Every call in ``source`` that creates or writes a file, or sets up
    a ``csv`` writer, as ``line: code``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        hit = False
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
            hit = (name == "open" and _is_write_mode(node)) or name in ("write_text", "write_bytes")
            hit = hit or (isinstance(fn, ast.Attribute) and name in ("writer", "DictWriter"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            hit = "csv" in modules
        if hit:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_only_errors_module_writes_files():
    offenders = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "errors.py" and (hits := file_writers(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}, "write files through svdn.errors.open_artifact / write_csv"


@pytest.mark.parametrize(
    "code",
    [
        "open(p, 'w')",
        "open(p, mode='a')",
        "open(p, 'xb')",
        "open(p, m)",
        "Path(p).open('w')",
        "gzip.open(p, 'wt')",
        "Path(p).write_text(s)",
        "p.write_bytes(b)",
        "csv.writer(fh)",
        "import csv",
        "from csv import writer",
    ],
)
def test_guard_flags_each_writer(code):
    assert len(file_writers(code)) == 1


@pytest.mark.parametrize("code", ["open(p)", "open(p, 'r')", "Path(p).read_text()", "p.open('rb')", "p.open(encoding=e)", "fh.write(s)"])
def test_guard_passes_readers(code):
    assert file_writers(code) == []
