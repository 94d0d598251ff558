from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdn.config import RunConfig, load_config, override_config, parse_config
from svdn.errors import ValidationError
from svdn.network import FEATURE_KINDS
from svdn.trainer import RriSchedule


FULL = """
# run configuration
dataset = runs/dataset.csv
hidden_dims = 64, 48
eigen_dim = 24
feature = output

step0_epochs = 5
restraint_epochs = 3
relaxation_epochs = 2
max_rri = 4
lr_step0 = 0.1
lr_restraint = 0.05
lr_relaxation = 0.02
batch_size = 16
epsilon_s = 0.002
seed = 9
"""


def test_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.feature == "input"
    assert cfg.dataset is None


def test_full_file():
    cfg = parse_config(FULL)
    assert cfg.dataset == "runs/dataset.csv"
    assert cfg.hidden_dims == (64, 48)
    assert cfg.eigen_dim == 24
    assert cfg.feature == "output"
    s = cfg
    assert (s.step0_epochs, s.restraint_epochs, s.relaxation_epochs, s.max_rri) == (5, 3, 2, 4)
    assert (s.lr_step0, s.lr_restraint, s.lr_relaxation) == (0.1, 0.05, 0.02)
    assert (s.batch_size, s.epsilon_s, s.seed) == (16, 0.002, 9)


def test_unknown_key_named():
    with pytest.raises(ValidationError, match="momentum"):
        parse_config("momentum = 0.9")


def test_bad_value_names_key():
    with pytest.raises(ValidationError, match="batch_size"):
        parse_config("batch_size = many")
    with pytest.raises(ValidationError, match="lr_step0"):
        parse_config("lr_step0 = fast")
    with pytest.raises(ValidationError, match="hidden_dims"):
        parse_config("hidden_dims = 64,x")


def test_repeated_key_names_key_and_both_lines():
    with pytest.raises(ValidationError, match=r"run\.cfg:4: config key 'seed' already given on line 2"):
        parse_config("# run\nseed = 3\nmax_rri = 2\nseed = 5\n", source="run.cfg")


def test_missing_equals_rejected():
    with pytest.raises(ValidationError, match="key = value"):
        parse_config("step0_epochs 5")


def test_invalid_feature_rejected():
    with pytest.raises(ValidationError, match="feature"):
        parse_config("feature = middle")


def test_schedule_bounds_enforced():
    with pytest.raises(ValidationError, match="step0_epochs"):
        parse_config("step0_epochs = 0")
    with pytest.raises(ValidationError, match="lr_restraint"):
        parse_config("lr_restraint = 0")


def test_load_config_names_file_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nwhatever = 1\n")
    with pytest.raises(ValidationError, match=r"run\.cfg:2.*whatever"):
        load_config(path)


def test_override_wins_over_file():
    cfg = parse_config(FULL)
    out = override_config(cfg, seed=77, eigen_dim=8, dataset=None)
    assert out.seed == 77
    assert out.eigen_dim == 8
    assert out.dataset == "runs/dataset.csv"  # None means "not given"


def test_override_validates():
    cfg = RunConfig()
    with pytest.raises(ValidationError):
        override_config(cfg, batch_size=0)


def test_empty_hidden_dims_is_no_hidden_layer():
    assert parse_config("hidden_dims =").hidden_dims == ()


SCHEDULE_KEYS = [f.name for f in fields(RriSchedule)]
# values of every kind a field holds, in range or not
ANY_VALUE = st.one_of(
    st.booleans(),
    st.lists(st.booleans(), min_size=1, max_size=2).map(tuple),
    st.integers(),
    st.integers(min_value=0, max_value=2**70),
    st.floats(),
    st.floats(min_value=0.0),
    st.integers(min_value=-1, max_value=2**70).map(float),
    st.text(max_size=8),
    st.sampled_from(FEATURE_KINDS),
    st.lists(st.integers(min_value=-1, max_value=300), max_size=3),
    st.lists(st.integers(min_value=1, max_value=300), max_size=3).map(tuple),
    st.tuples(st.integers(min_value=1, max_value=300), st.floats(min_value=1, max_value=300)),
)


def _text(value) -> str:
    """The ``key = value`` text form of a schedule field's value."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@settings(max_examples=300)
@given(key=st.sampled_from(SCHEDULE_KEYS), value=ANY_VALUE)
def test_schedule_is_valid_when_made_and_round_trips_as_text(key, value):
    try:
        cfg = RunConfig(**{key: value})
    except ValidationError as exc:
        assert f"schedule field {key!r}" in str(exc)
        with pytest.raises(ValidationError, match=f"schedule field {key!r}"):
            replace(RunConfig(), **{key: value})
        return
    assert parse_config(f"{key} = {_text(getattr(cfg, key))}") == cfg
    with pytest.raises(FrozenInstanceError):
        setattr(cfg, key, getattr(RunConfig(), key))


def test_accepted_widths_are_stored_as_a_tuple():
    widths = [16, 12]
    sched = RriSchedule(hidden_dims=widths)
    widths.append(0)
    assert sched.hidden_dims == (16, 12)
