"""Tests of the benchmark's own arithmetic and oracle.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

import svdn  # noqa: E402
from svdn import decorrelate  # noqa: E402


def span(name, start, end, parent=None, command=0):
    return [name, start, end, parent, command]


def test_self_time_subtracts_children_once():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("trainer.run_rri", 1.0, 9.0, parent=0),
        span("network.sgd_step", 2.0, 4.0, parent=1),
        span("network.sgd_step", 5.0, 6.0, parent=1),
        span("linalg.svd", 5.5, 6.0, parent=3),
        # Overlaps its sibling on [3, 4]; the overlap is covered once.
        span("diagnostics.s_of_w", 3.0, 4.5, parent=1),
        # Sticks out past its parent's end; only the part inside counts.
        span("cli.write", 9.5, 11.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 8 - 0.5, 8 - 3.5, 2.0, 0.5, 0.5, 1.5, 1.5])


def test_summarize_groups_by_command_and_layer():
    t = tracing.Tracer()
    t.spans = [
        span("cli.main", 0.0, 4.0, command=0),
        span("linalg.pairwise_sq_dist", 1.0, 2.0, parent=0, command=0),
        span("linalg.pairwise_sq_dist", 2.0, 4.0, parent=0, command=0),
        span("cli.main", 5.0, 6.0, command=1),
    ]
    t.counters = {1: {"flops": 10, "peak_out_bytes": 8}, 2: {"flops": 5, "peak_out_bytes": 4}}
    summary = tracing.summarize(t)
    first = summary[0]["names"]["linalg.pairwise_sq_dist"]
    assert first["calls"] == 2 and first["durations"] == [1.0, 2.0]
    assert first["counters"] == {"flops": 15, "peak_out_bytes": 8}
    assert summary[0]["layers"]["cli"] == pytest.approx(1.0)
    assert summary[0]["layers"]["linalg"] == pytest.approx(3.0)
    assert summary[1]["layers"]["cli"] == pytest.approx(1.0)


def test_installed_records_nested_spans_and_restores():
    original = vars(decorrelate)["apply"]
    t = tracing.Tracer()
    w = np.random.default_rng(0).normal(size=(6, 3))
    with tracing.installed(t) as missing:
        with t.span("cli.main"):
            decorrelate.apply(w, svdn.DecorrMethod.US)
    assert missing == []
    assert vars(decorrelate)["apply"] is original
    names = [s[tracing.NAME] for s in t.spans]
    assert names == ["cli.main", "decorrelate.apply", "linalg.svd"]
    assert [s[tracing.PARENT] for s in t.spans] == [None, 0, 1]


def toy_splits():
    """Tie-heavy and junk-heavy: equal distances across identities, a
    query whose only same-identity row is junk, and a perfect query."""
    query = oracle.Split(
        features=np.array([[0.0], [0.0], [1.0], [2.0]]),
        ids=np.array([1, 3, 2, 1]),
        cameras=np.array([0, 1, 1, 1]),
    )
    gallery = oracle.Split(
        features=np.array([[1.0], [1.0], [1.0], [0.5], [2.0], [-1.0]]),
        ids=np.array([1, 2, 1, 2, 1, 3]),
        cameras=np.array([0, 1, 1, 0, 2, 1]),
    )
    return query, gallery


def test_brute_force_scorer_on_ties_and_junk():
    query, gallery = toy_splits()
    rank1, mean_ap, excluded = oracle.brute_force_scores(query, gallery)
    # Query 0 ranks its positives 2nd and 4th of the kept rows (ties go
    # to the lower index), query 1 has only junk, query 2 ranks its one
    # positive 2nd, query 3 ranks both positives first.
    assert excluded == 1
    assert rank1 == pytest.approx(1 / 3, abs=1e-15)
    assert mean_ap == pytest.approx((11 / 30 + 10 / 30 + 1.0) / 3, abs=1e-15)


def as_dataset(query, gallery):
    n_q, n_g = query.ids.size, gallery.ids.size
    return svdn.RetrievalDataset(
        features=np.vstack([query.features, gallery.features]),
        ids=np.concatenate([query.ids, gallery.ids]),
        cameras=np.concatenate([query.cameras, gallery.cameras]),
        split=np.array(["query"] * n_q + ["gallery"] * n_g),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_brute_force_scorer_matches_svdn(seed):
    """Small integer features make exact ties common and keep both
    distance formulas exact, so the two scorers must agree to 1e-12."""
    rng = np.random.default_rng(seed)
    query = oracle.Split(rng.integers(0, 3, (12, 2)).astype(float), rng.integers(0, 4, 12), rng.integers(0, 3, 12))
    gallery = oracle.Split(rng.integers(0, 3, (40, 2)).astype(float), rng.integers(0, 4, 40), rng.integers(0, 3, 40))
    rank1, mean_ap, excluded = oracle.brute_force_scores(query, gallery)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = svdn.evaluate(as_dataset(query, gallery), svdn.rank_gallery(query.features, gallery.features))
    assert abs(rank1 - report.cmc[0]) <= 1e-12
    assert abs(mean_ap - report.map) <= 1e-12
    assert excluded == report.excluded_queries


def test_checkpoint_reader_and_features_match_svdn(tmp_path):
    model = svdn.build_model(5, (7, 6), 4, 3, seed=1)
    svdn.save_checkpoint(model, tmp_path / "m.svdn")
    layers = oracle.read_checkpoint(tmp_path / "m.svdn")
    x = np.random.default_rng(2).normal(size=(9, 5))
    for which in ("input", "output"):
        np.testing.assert_allclose(oracle.retrieval_features(layers, x, which), model.extract_features(x, which), rtol=1e-12)


def test_benchmark_json_names_the_workloads_run_has():
    assert [w["name"] for w in run.load_spec()["workloads"]] == list(run.WORKLOADS)


def test_every_per_layer_metric_is_computed():
    names = [m["name"] for m in run.load_spec()["per_layer"]]
    t = tracing.Tracer()
    t.spans = [span("cli.main", 0.0, 1.0)]
    values = run.per_layer_metrics(names, tracing.summarize(t), 1.0, {"map": 0.5, "rank1": 0.5})
    assert set(values) == set(names)
