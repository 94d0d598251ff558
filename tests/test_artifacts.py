"""All-or-nothing artifact files: ``errors.open_artifact`` and the
writers built on it, plus a guard that no other code in ``src/svdn``
creates a file."""

import ast
import os
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import svdn
from svdn.errors import open_artifact, write_csv
from svdn.evaluation import generate_synthetic, load_dataset, save_dataset

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
    """What ``save_dataset`` reads of ``dataset``, with a failing row source:
    a dataset itself only takes a finite matrix as its features."""
    return SimpleNamespace(
        dim=dataset.dim, features=RowsFailingAt(dataset.features, stop), ids=dataset.ids, cameras=dataset.cameras, split=dataset.split
    )


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

    def test_link_at_the_temporary_name_is_not_written_through(self, tmp_path):
        victim = tmp_path / "victim"
        victim.write_bytes(b"keep")
        (tmp_path / f".x.{os.getpid()}.tmp").symlink_to(victim)
        with pytest.raises(FileExistsError):
            with open_artifact(tmp_path / "x", "wb") as fh:
                fh.write(b"new")
        assert victim.read_bytes() == b"keep"
        assert [p.name for p in tmp_path.iterdir()] == ["victim"]

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

    def test_float_cells_are_written_as_their_repr(self, tmp_path):
        values = [-0.0, 5e-324, 1.2345678901234567e300, 0.1, 1 / 3, -2.5e-7]
        values += np.random.default_rng(0).standard_normal(1000).tolist()
        write_csv(tmp_path / "f.csv", ["plain", "float64"], [[v, np.float64(v)] for v in values])
        rows = (tmp_path / "f.csv").read_text().splitlines()[1:]
        assert rows == [f"{v!r},{v!r}" for v in values]
        assert [float(r.split(",")[0]) for r in rows] == values


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


# numpy's file writers: each takes the file (a path or a handle) first
NUMPY_WRITERS = ("save", "savez", "savez_compressed", "savetxt", "tofile")


def _call_name(fn) -> str | None:
    return fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None


def _writes_to_artifact(tree) -> set[int]:
    """The ids of the calls whose first argument is the name bound by an
    enclosing ``with open_artifact(...) as <name>``."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.With):
            handles = {
                item.optional_vars.id
                for item in node.items
                if isinstance(item.context_expr, ast.Call)
                and _call_name(item.context_expr.func) == "open_artifact"
                and isinstance(item.optional_vars, ast.Name)
            }
            for call in (n for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Call)):
                if call.args and isinstance(call.args[0], ast.Name) and call.args[0].id in handles:
                    inside.add(id(call))
    return inside


def file_writers(source: str) -> list[str]:
    """Every call in ``source`` that creates or writes a file, or sets up
    a ``csv`` writer, as ``line: code``.  A numpy writer counts unless it
    writes the handle of an enclosing ``open_artifact``."""
    found = []
    tree = ast.parse(source)
    to_artifact = _writes_to_artifact(tree)
    for node in ast.walk(tree):
        hit = False
        if isinstance(node, ast.Call):
            fn = node.func
            name = _call_name(fn)
            hit = (name == "open" and _is_write_mode(node)) or name in ("write_text", "write_bytes")
            hit = hit or (isinstance(fn, ast.Attribute) and name in ("writer", "DictWriter"))
            hit = hit or (name in NUMPY_WRITERS and id(node) not in to_artifact)
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
        "np.save(p, a)",
        "np.savez(p, a=a)",
        "np.savez_compressed(p, a=a)",
        "np.savetxt(p, a)",
        "a.tofile(p)",
        "with open_artifact(p, 'wb') as fh:\n    np.savez(p, a=a)",
        "with open_artifact(p, 'wb') as fh:\n    pass\nnp.savez(fh, a=a)",
    ],
)
def test_guard_flags_each_writer(code):
    assert len(file_writers(code)) == 1


@pytest.mark.parametrize(
    "code",
    [
        "open(p)",
        "open(p, 'r')",
        "Path(p).read_text()",
        "p.open('rb')",
        "p.open(encoding=e)",
        "fh.write(s)",
        "np.load(p)",
        "with open_artifact(p, 'wb') as fh:\n    np.savez(fh, a=a)",
    ],
)
def test_guard_passes_readers(code):
    assert file_writers(code) == []
