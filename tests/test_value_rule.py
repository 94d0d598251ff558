"""The one rule for an integer or real setting (``errors.check_int``,
``check_real``), checked through every caller that takes such a setting:
the ``RriSchedule`` fields, ``generate_synthetic``, ``build_model`` and
``run_baseline``."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdn.errors import ValidationError, check_int, check_real
from svdn.evaluation import generate_synthetic
from svdn.network import build_model
from svdn.trainer import RriSchedule, initial_model, run_baseline

DATA = generate_synthetic(identities=4, cameras=2, samples_per_id_camera=2, dim=4, seed=1)
SHAPE = RriSchedule(hidden_dims=(4,), eigen_dim=2, seed=3)


def _schedule_field(name):
    return lambda value: getattr(RriSchedule(**{name: value}), name)


def _baseline(n_rri):
    _, record = run_baseline(initial_model(DATA, SHAPE), DATA, SHAPE, n_rri)
    return record.rri_index


def _no_value(call):
    """``call`` for a function that keeps no setting: it returns None."""
    def run(value):
        call(value)
    return run


# (label, minimum, call): call(value) passes value in the slot the label names, the other
# arguments valid, and returns where it keeps the value, or None if it keeps none.
INT_CALLERS = [
    *[(f"schedule field {f.name!r}", 0 if f.name == "seed" else 1, _schedule_field(f.name))
      for f in fields(RriSchedule) if isinstance(f.default, int)],
    ("schedule field 'hidden_dims' entry", 1, lambda v: RriSchedule(hidden_dims=(4, v)).hidden_dims[1]),
    *[(name, low, _no_value(lambda v, name=name: generate_synthetic(**{name: v})))
      for name, low in [("identities", 2), ("cameras", 2), ("samples_per_id_camera", 2), ("dim", 1), ("seed", 0)]],
    ("input_dim", 1, _no_value(lambda v: build_model(v, (3,), 2, 2, 0))),
    ("hidden_dims entry", 1, _no_value(lambda v: build_model(4, (3, v), 2, 2, 0))),
    ("eigen_dim", 1, _no_value(lambda v: build_model(4, (3,), v, 2, 0))),
    ("num_classes", 2, _no_value(lambda v: build_model(4, (3,), 2, v, 0))),
    ("seed", 0, _no_value(lambda v: build_model(4, (3,), 2, 2, v))),
    ("n_rri", 0, _baseline),
]
# (label, positive, call), as INT_CALLERS: positive says > 0, else >= 0.
REAL_CALLERS = [
    *[(f"schedule field {f.name!r}", True, _schedule_field(f.name))
      for f in fields(RriSchedule) if isinstance(f.default, float)],
    ("noise", False, _no_value(lambda v: generate_synthetic(noise=v))),
    ("camera_scale", False, _no_value(lambda v: generate_synthetic(camera_scale=v))),
]


def _rejects(call, label, value):
    with pytest.raises(ValidationError) as exc:
        call(value)
    assert str(exc.value).startswith(f"{label} must be "), (label, value, str(exc.value))


def _bad_int(low: int):
    """A bool, any float (2.5, 3.0, NaN, +-inf), text, or an integer below ``low``, numpy's too."""
    return st.one_of(
        st.booleans(), st.booleans().map(np.bool_), st.floats(), st.floats().map(np.float64), st.just(str(low)),
        st.integers(max_value=low - 1), st.integers(min_value=-2**63, max_value=low - 1).map(np.int64),
    )


def _bad_real(positive: bool):
    """A bool, NaN, +-inf, text, a number below the minimum, or an integer past the float range."""
    below = st.floats(max_value=0.0) if positive else st.floats(max_value=-1e-300)
    return st.one_of(
        st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf, np.nan, np.inf]), st.just("1.0"),
        below, st.integers(min_value=2**1024), st.integers(max_value=-1),
        st.just(0) if positive else st.nothing(),
    )


@settings(max_examples=400, deadline=None)
@given(caller=st.sampled_from(INT_CALLERS), data=st.data())
def test_bad_integer_raises_naming_the_label(caller, data):
    label, low, call = caller
    _rejects(call, label, data.draw(_bad_int(low)))


@settings(max_examples=200, deadline=None)
@given(caller=st.sampled_from(REAL_CALLERS), data=st.data())
def test_bad_real_raises_naming_the_label(caller, data):
    label, positive, call = caller
    _rejects(call, label, data.draw(_bad_real(positive)))


@pytest.mark.parametrize("label, low, call", INT_CALLERS, ids=[c[0] for c in INT_CALLERS])
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_numpy_integer_accepted_and_kept_as_int(label, low, call, kind):
    kept = call(kind(low + 1))
    assert kept is None or (type(kept) is int and kept == low + 1)


@pytest.mark.parametrize("label, positive, call", REAL_CALLERS, ids=[c[0] for c in REAL_CALLERS])
@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.25), 1])
@pytest.mark.filterwarnings("error")  # a float32 is not compared with a float64 bound, which warns of overflow
def test_real_accepted_and_kept_as_float(label, positive, call, value):
    kept = call(value)
    assert kept is None or (type(kept) is float and kept == float(value))


def test_zero_is_the_edge_of_a_non_negative_real():
    assert check_real("x", 0, positive=False) == 0.0
    with pytest.raises(ValidationError, match=re.escape("x must be finite and > 0, got 0")):
        check_real("x", 0, positive=True)


def test_the_messages():
    with pytest.raises(ValidationError, match=re.escape("n must be an integer >= 2, got True")):
        check_int("n", True, 2)
    with pytest.raises(ValidationError, match=re.escape("r must be finite and >= 0, got nan")):
        check_real("r", math.nan, positive=False)
