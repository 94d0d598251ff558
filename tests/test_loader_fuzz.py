"""Damaged input files: a truncated or byte-mutated dataset or checkpoint
either loads or raises ValidationError, never any other exception; with a
damaged parsed-table sidecar, a dataset loads as a fresh parse does."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdn.errors import ValidationError
from svdn.evaluation import generate_synthetic, load_dataset, save_dataset
from svdn.network import build_model, load_checkpoint, save_checkpoint

# arbitrary bytes, with the CSV and number syntax characters drawn more often
BYTES = st.one_of(st.integers(0, 255), st.sampled_from(list(b',"\n\r_.-+e9 \x00')))


def damage(data, raw: bytes) -> bytes:
    """``raw`` truncated, or with one to three of its bytes replaced, as drawn."""
    raw = bytearray(raw)
    if data.draw(st.booleans(), label="truncate"):
        return bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="length")])
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        raw[data.draw(st.integers(0, len(raw) - 1), label="offset")] = data.draw(BYTES, label="byte")
    return bytes(raw)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("saved")
    data = generate_synthetic(identities=6, cameras=2, samples_per_id_camera=2, dim=3, seed=4)
    save_dataset(data, tmp / "dataset.csv")
    classes = np.unique(data.train_ids).size
    save_checkpoint(build_model(data.dim, (5,), 4, classes, seed=4), tmp / "model.svdn")
    return {"dataset": (tmp / "dataset.csv", load_dataset), "checkpoint": (tmp / "model.svdn", load_checkpoint)}


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_file_loads_or_raises_validation_error(saved, kind, data):
    path, loader = saved[kind]
    damaged = path.with_name("damaged_" + path.name)
    damaged.write_bytes(damage(data, path.read_bytes()))
    try:
        loader(damaged)
    except ValidationError:
        pass


@pytest.fixture(scope="module")
def sidecar(tmp_path_factory):
    """A dataset CSV, its sidecar and that sidecar's intact bytes, and the
    dataset a fresh parse gives."""
    tmp = tmp_path_factory.mktemp("sidecar")
    path, cache = tmp / "dataset.csv", tmp / ".dataset.csv.parsed.npz"
    save_dataset(generate_synthetic(identities=6, cameras=2, samples_per_id_camera=2, dim=3, seed=4), path)
    fresh = load_dataset(path)
    return path, cache, cache.read_bytes(), fresh


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_sidecar_loads_as_a_fresh_parse(sidecar, data):
    path, cache, intact, fresh = sidecar
    cache.write_bytes(damage(data, intact))
    loaded = load_dataset(path)
    for name in ("features", "ids", "cameras", "split"):
        got, want = getattr(loaded, name), getattr(fresh, name)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
