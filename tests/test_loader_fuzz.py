"""Damaged input files: a truncated or byte-mutated dataset or checkpoint
either loads or raises ValidationError, never any other exception."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdn.errors import ValidationError
from svdn.evaluation import generate_synthetic, load_dataset, save_dataset
from svdn.network import build_model, load_checkpoint, save_checkpoint

# arbitrary bytes, with the CSV and number syntax characters drawn more often
BYTES = st.one_of(st.integers(0, 255), st.sampled_from(list(b',"\n\r_.-+e9 \x00')))


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
    raw = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            raw[data.draw(st.integers(0, len(raw) - 1), label="offset")] = data.draw(BYTES, label="byte")
    damaged = path.with_name("damaged_" + path.name)
    damaged.write_bytes(bytes(raw))
    try:
        loader(damaged)
    except ValidationError:
        pass
