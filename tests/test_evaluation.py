import hashlib
import os
import re
import tempfile
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import FrozenInstanceError
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdn import evaluation
from svdn.cli import main
from svdn.decorrelate import DecorrMethod, apply
from svdn.errors import DegeneracyError, NumericError, ValidationError, decode_text
from svdn.evaluation import (
    QUERY_BLOCK,
    SPLITS,
    RankingReport,
    RetrievalDataset,
    evaluate,
    evaluate_features,
    format_report,
    generate_synthetic,
    l2_normalize,
    load_dataset,
    rank_gallery,
    save_dataset,
    write_report,
)
from svdn.network import build_model, save_checkpoint

from oracles import (
    csv_dataset_text,
    loop_first_unmatched_query,
    loop_rank_aps,
    loop_sq_dists,
    loop_synthetic,
    oracle_evaluate,
)

# finite doubles, with the edge cases named explicitly
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]),
)
# identity and camera labels, negative and beyond 32 bits
LABELS = st.sampled_from([-(2**40), -1, 2**40])
# labels as a caller may give them: a list, or an array of a dtype that
# casts safely to int64, each with labels that dtype holds
LABEL_FORMS = {
    "list": (list, LABELS),
    "int64": (lambda v: np.array(v, dtype=np.int64), LABELS),
    "int32": (lambda v: np.array(v, dtype=np.int32), st.integers(-(2**31), 2**31 - 1)),
    "uint32": (lambda v: np.array(v, dtype=np.uint32), st.integers(0, 2**32 - 1)),
}


@st.composite
def dataset_fields(draw, max_rows=24):
    """The fields of a dataset, as lists or as arrays.  Small integer
    features and labels make distance ties, junk rows and queries without
    a cross-camera match common."""
    n, d = draw(st.integers(1, max_rows)), draw(st.integers(1, 3))
    column = lambda values: st.lists(values, min_size=n, max_size=n)  # noqa: E731
    fields = {
        "features": draw(column(st.lists(st.integers(0, 2).map(float), min_size=d, max_size=d))),
        "ids": draw(column(st.integers(0, 3))),
        "cameras": draw(column(st.integers(0, 2))),
        "split": draw(column(st.sampled_from(SPLITS))),
    }
    if draw(st.booleans()):
        fields = {name: np.array(value) for name, value in fields.items()}
    return fields


# a dataset is only ever drawn through its constructor
datasets = dataset_fields().map(lambda fields: RetrievalDataset(**fields))

# measured once on the default generator configuration and frozen as a
# regression bound (+/- 0.1)
DEFAULT_RAW_RANK1 = 0.3906


def small_dataset(seed=0, **kw):
    kw.setdefault("identities", 8)
    kw.setdefault("cameras", 2)
    kw.setdefault("samples_per_id_camera", 3)
    kw.setdefault("dim", 5)
    return generate_synthetic(seed=seed, **kw)


class TestRankGallery:
    def test_exact_copy_ranked_first(self):
        rng = np.random.default_rng(0)
        gallery = rng.normal(size=(10, 4))
        query = gallery[[6]]
        assert rank_gallery(query, gallery)[0, 0] == 6

    def test_one_dimensional_example(self):
        ranked = rank_gallery(np.array([[0.0]]), np.array([[3.0], [-1.0], [2.0]]))
        assert ranked[0].tolist() == [1, 2, 0]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(20, 8))
        g = rng.normal(size=(20, 8))
        ranked = rank_gallery(q, g)
        oracle = np.argsort(loop_sq_dists(q, g), axis=1, kind="stable")
        assert np.array_equal(ranked, oracle)

    def test_tie_break_by_gallery_index(self):
        gallery = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        ranked = rank_gallery(np.array([[0.0, 0.0]]), gallery)
        assert ranked[0].tolist() == [0, 1, 2]

    @pytest.mark.parametrize("seed", range(5))
    def test_ranked_path_matches_blocked_scoring_on_continuous_features(self, seed):
        # each query has a positive at q + e and a negative at q - e: equally
        # far in exact arithmetic, so the last bits of the distance product
        # decide their order, and both paths must compute the same bits
        rng = np.random.default_rng(seed)
        n_query, dim = 2 * QUERY_BLOCK + 2, 37
        q, e = rng.normal(size=(2, n_query, dim))
        g = np.vstack([q + e, q - e, rng.normal(size=(n_query, dim))])
        q_ids = np.arange(n_query)
        g_ids = np.concatenate([q_ids, (q_ids + 1) % n_query, rng.integers(0, n_query, n_query)])
        order = rng.permutation(g_ids.size)
        ds = manual_dataset(q_ids, np.zeros(n_query, dtype=int), g_ids[order], np.ones(g_ids.size, dtype=int))
        assert_same_report(evaluate(ds, rank_gallery(q, g[order])), evaluate_features(ds, q, g[order]))

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            rank_gallery(np.ones((2, 3)), np.ones((2, 4)))


def manual_dataset(q_ids, q_cams, g_ids, g_cams, dim=2):
    """Dataset with given query/gallery labels; features are placeholders."""
    n = len(q_ids) + len(g_ids)
    return RetrievalDataset(
        features=np.zeros((n, dim)),
        ids=np.array(list(q_ids) + list(g_ids)),
        cameras=np.array(list(q_cams) + list(g_cams)),
        split=np.array(["query"] * len(q_ids) + ["gallery"] * len(g_ids)),
    )


class TestEvaluate:
    def test_single_query_perfect(self):
        ds = manual_dataset([1], [0], [1, 2, 3], [1, 1, 1])
        report = evaluate(ds, np.array([[0, 1, 2]]))
        assert report.per_query_ap.tolist() == [1.0]
        assert report.map == 1.0
        assert np.all(report.cmc == 1.0)

    def test_ap_for_hits_at_ranks_1_and_3(self):
        ds = manual_dataset([1], [0], [1, 2, 1, 3], [1, 1, 1, 1])
        report = evaluate(ds, np.array([[0, 1, 2, 3]]))
        assert abs(report.per_query_ap[0] - 5.0 / 6.0) <= 1e-15

    def test_junk_filtering_same_id_same_camera(self):
        # the first gallery item shares id AND camera with the query, so it
        # is dropped and the hit at raw rank 2 counts as rank 1
        ds = manual_dataset([1], [0], [1, 1, 2], [0, 1, 1])
        report = evaluate(ds, np.array([[0, 1, 2]]))
        assert report.map == 1.0
        assert report.cmc[0] == 1.0

    def test_excluded_query_warns_and_counts(self):
        ds = manual_dataset([1, 2], [0, 0], [1, 2], [0, 1])
        # query 0's only same-id gallery item shares its camera -> excluded
        with pytest.warns(UserWarning):
            report = evaluate(ds, np.array([[0, 1], [1, 0]]))
        assert report.excluded_queries == 1
        assert len(report.per_query_ap) == 1

    def test_all_excluded_degenerate(self):
        ds = manual_dataset([1], [0], [1], [0])
        with pytest.warns(UserWarning):
            with pytest.raises(DegeneracyError):
                evaluate(ds, np.array([[0]]))

    def test_ranked_lists_must_cover_gallery(self):
        ds = manual_dataset([1], [0], [1, 2], [1, 1])
        with pytest.raises(ValidationError):
            evaluate(ds, np.array([[0, 0]]))
        with pytest.raises(ValidationError):
            evaluate(ds, np.array([[0]]))

    @pytest.mark.parametrize("ranked", [[[-1, 0]], [[0, 2]], [[1, 1]]])
    def test_ranked_lists_out_of_range_or_repeated_rejected(self, ranked):
        # -1 must not wrap around to the last gallery row
        ds = manual_dataset([1], [0], [1, 2], [1, 1])
        with pytest.raises(ValidationError, match="query 0"):
            evaluate(ds, np.array(ranked))

    def test_ranked_lists_must_be_integer(self):
        ds = manual_dataset([1], [0], [1, 2], [1, 1])
        with pytest.raises(ValidationError):
            evaluate(ds, np.array([[0.0, 1.0]]))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        n_query, n_gallery = 12, 50
        q_ids = rng.integers(0, 8, size=n_query)
        q_cams = rng.integers(0, 3, size=n_query)
        g_ids = np.concatenate([q_ids, rng.integers(0, 8, size=n_gallery - n_query)])
        g_cams = np.concatenate([(q_cams + 1) % 3, rng.integers(0, 3, size=n_gallery - n_query)])
        ds = manual_dataset(q_ids, q_cams, g_ids, g_cams)
        ranked = np.argsort(rng.normal(size=(n_query, n_gallery)), axis=1)
        report = evaluate(ds, ranked)
        cmc, mean_ap, aps, excluded = oracle_evaluate(q_ids, q_cams, g_ids, g_cams, ranked)
        assert excluded == report.excluded_queries
        assert np.abs(report.cmc - cmc).max() <= 1e-12
        assert abs(report.map - mean_ap) <= 1e-12

    def test_cmc_non_decreasing_ends_at_one(self):
        ds = small_dataset(seed=3)
        report = evaluate(ds, rank_gallery(ds.query_features, ds.gallery_features))
        assert np.all(np.diff(report.cmc) >= 0)
        assert report.cmc[-1] == 1.0

    def test_gallery_permutation_invariance(self):
        ds = small_dataset(seed=4, noise=0.7)
        base = evaluate(ds, rank_gallery(ds.query_features, ds.gallery_features))
        rng = np.random.default_rng(9)
        perm = rng.permutation(ds.gallery_features.shape[0])
        mask = ds.split == "gallery"
        shuffled = RetrievalDataset(
            features=np.vstack([ds.features[~mask], ds.features[mask][perm]]),
            ids=np.concatenate([ds.ids[~mask], ds.ids[mask][perm]]),
            cameras=np.concatenate([ds.cameras[~mask], ds.cameras[mask][perm]]),
            split=np.concatenate([ds.split[~mask], ds.split[mask][perm]]),
        )
        other = evaluate(shuffled, rank_gallery(shuffled.query_features, shuffled.gallery_features))
        assert abs(base.map - other.map) <= 1e-12
        assert np.abs(base.cmc - other.cmc).max() <= 1e-12

    def test_metrics_invariant_under_distance_preserving_replacement(self):
        ds = small_dataset(seed=5)
        w = np.random.default_rng(6).normal(size=(ds.dim, 4))
        w_new = apply(w, DecorrMethod.US)
        before = evaluate(ds, rank_gallery(ds.query_features @ w, ds.gallery_features @ w))
        after = evaluate(ds, rank_gallery(ds.query_features @ w_new, ds.gallery_features @ w_new))
        assert before.map == after.map
        assert np.array_equal(before.cmc, after.cmc)


def tie_heavy_case(seed, n_query, n_gallery, n_ids=5, n_cams=3, dim=2):
    """Labels plus small-integer features, so exact distance ties are
    common.  Every query gets a cross-camera positive except the last,
    whose identity appears in the gallery only under its own camera."""
    rng = np.random.default_rng(seed)
    q_ids = rng.integers(0, n_ids, size=n_query)
    q_cams = rng.integers(0, n_cams, size=n_query)
    q_ids[-1] = n_ids
    g_ids = np.concatenate([q_ids[:-1], [n_ids, n_ids], rng.integers(0, n_ids, size=n_gallery - n_query - 1)])
    g_cams = np.concatenate([(q_cams[:-1] + 1) % n_cams, q_cams[-1:], q_cams[-1:], rng.integers(0, n_cams, size=n_gallery - n_query - 1)])
    q = rng.integers(0, 3, size=(n_query, dim)).astype(float)
    g = rng.integers(0, 3, size=(n_gallery, dim)).astype(float)
    return manual_dataset(q_ids, q_cams, g_ids, g_cams), q, g


def with_duplicates_and_extra_positives(ds, g, n_cams, rng, n_dup, max_extra):
    """The gallery of ``ds`` plus ``n_dup`` copies of random gallery rows
    (features and labels) and up to ``max_extra`` more cross-camera
    positives for each query but the last, in shuffled gallery order."""
    q_ids, q_cams = ds.query_ids, ds.query_cameras
    dup = rng.integers(0, g.shape[0], n_dup)
    extra = np.repeat(np.arange(q_ids.size - 1), rng.integers(0, max_extra + 1, q_ids.size - 1))
    g_ids = np.concatenate([ds.gallery_ids, ds.gallery_ids[dup], q_ids[extra]])
    g_cams = np.concatenate([ds.gallery_cameras, ds.gallery_cameras[dup], (q_cams[extra] + 1) % n_cams])
    g = np.vstack([g, g[dup], rng.integers(0, 3, size=(extra.size, g.shape[1])).astype(float)])
    order = rng.permutation(g_ids.size)
    return manual_dataset(q_ids, q_cams, g_ids[order], g_cams[order]), g[order]


@st.composite
def tie_heavy_cases(draw):
    """``tie_heavy_case`` with duplicated gallery rows and extra positives."""
    seed, n_query, n_cams = draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 30)), draw(st.integers(2, 4))
    n_gallery, n_ids, dim = n_query + draw(st.integers(1, 30)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    ds, q, g = tie_heavy_case(seed, n_query, n_gallery, n_ids, n_cams, dim)
    rng = np.random.default_rng(seed)
    ds, g = with_duplicates_and_extra_positives(ds, g, n_cams, rng, draw(st.integers(0, 20)), draw(st.integers(0, 12)))
    return ds, q, g


# drawn datasets that retrieval can score: unmatched queries included
drawn_cases = datasets.filter(lambda ds: ds.query_ids.size and ds.gallery_ids.size).map(
    lambda ds: (ds, ds.query_features, ds.gallery_features)
)


def assert_same_report(a, b):
    assert np.array_equal(a.cmc, b.cmc)
    assert np.array_equal(a.per_query_ap, b.per_query_ap)
    assert a.excluded_queries == b.excluded_queries
    assert a.map == b.map


class TestEvaluateFeatures:
    def test_tie_and_junk_heavy_case_matches_oracle_across_blocks(self):
        n_query = QUERY_BLOCK + 44
        ds, q, g = tie_heavy_case(seed=21, n_query=n_query, n_gallery=n_query + 30)
        with pytest.warns(UserWarning, match="1 of"):
            got = evaluate_features(ds, q, g)
        assert got.excluded_queries == 1
        assert len(got.per_query_ap) == n_query - 1

        ranked = np.argsort(loop_sq_dists(q, g), axis=1, kind="stable")
        cmc, mean_ap, aps, excluded = oracle_evaluate(ds.query_ids, ds.query_cameras, ds.gallery_ids, ds.gallery_cameras, ranked)
        assert excluded == 1
        assert np.abs(got.cmc - cmc).max() <= 1e-12
        assert np.abs(got.per_query_ap - np.asarray(aps)).max() <= 1e-12
        assert abs(got.map - mean_ap) <= 1e-12

        with pytest.warns(UserWarning):
            assert_same_report(got, evaluate(ds, rank_gallery(q, g)))

    @settings(max_examples=80, deadline=None)
    @given(case=st.one_of(tie_heavy_cases(), drawn_cases), block=st.integers(1, 8))
    def test_property_matches_ranked_path_and_oracle(self, case, block):
        ds, q, g = case
        args = (ds.query_ids, ds.query_cameras, ds.gallery_ids, ds.gallery_cameras)
        aps = loop_rank_aps(*args, loop_sq_dists(q, g))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with mock.patch.object(evaluation, "QUERY_BLOCK", block):
                if aps.size == 0:  # a drawn dataset whose queries are all unmatched
                    for score in (lambda: evaluate_features(ds, q, g), lambda: evaluate(ds, rank_gallery(q, g))):
                        with pytest.raises(DegeneracyError):
                            score()
                    return
                got = evaluate_features(ds, q, g)
            ranked = rank_gallery(q, g)
            assert_same_report(got, evaluate(ds, ranked))
        assert np.array_equal(got.per_query_ap, aps)
        cmc, mean_ap, _, excluded = oracle_evaluate(*args, ranked)
        assert excluded == got.excluded_queries
        assert np.abs(got.cmc - cmc).max() <= 1e-12
        assert abs(got.map - mean_ap) <= 1e-12

    def test_many_positives_per_query_match_loop_reference(self):
        # APs over 8+ and 128+ positives take numpy's pairwise summation
        rng = np.random.default_rng(3)
        counts = [1, 7, 8, 9, 130]
        q_ids = np.arange(len(counts))
        g_ids = np.concatenate([np.repeat(q_ids, counts), rng.integers(0, len(counts), 60)])
        g_cams = np.concatenate([np.ones(sum(counts), dtype=int), rng.integers(0, 2, 60)])
        ds = manual_dataset(q_ids, np.zeros_like(q_ids), g_ids, g_cams)
        q, g = rng.normal(size=(len(counts), 3)), rng.normal(size=(g_ids.size, 3))
        got = evaluate_features(ds, q, g)
        reference = loop_rank_aps(ds.query_ids, ds.query_cameras, ds.gallery_ids, ds.gallery_cameras, loop_sq_dists(q, g))
        assert np.array_equal(got.per_query_ap, reference)

    def test_peak_memory_is_one_query_block(self):
        # the full 1000 x 5000 distance matrix alone would take 38 MiB
        n_query, n_gallery, dim = 1000, 5000, 32
        ds = manual_dataset(
            np.arange(n_query) % 500, np.zeros(n_query, dtype=int), np.arange(n_gallery) % 500, np.ones(n_gallery, dtype=int)
        )
        rng = np.random.default_rng(0)
        q, g = rng.normal(size=(n_query, dim)), rng.normal(size=(n_gallery, dim))
        tracemalloc.start()
        try:
            evaluate_features(ds, q, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_peak_memory_is_one_distance_block_plus_scratch(self):
        # one 64 x 5000 float64 distance block is 2.44 MiB; a full-size
        # norms array and mask beside it would add another 2.75 MiB
        n_query, n_gallery, dim = 1000, 5000, 32
        ds = manual_dataset(
            np.arange(n_query) % 500, np.zeros(n_query, dtype=int), np.arange(n_gallery) % 500, np.ones(n_gallery, dtype=int)
        )
        rng = np.random.default_rng(0)
        q, g = rng.normal(size=(n_query, dim)), rng.normal(size=(n_gallery, dim))
        tracemalloc.start()
        try:
            evaluate_features(ds, q, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= QUERY_BLOCK * n_gallery * 8 + 2.5 * 2**20

    def test_overflowing_distances_raise_naming_norms(self):
        ds = manual_dataset([0, 1], [0, 0], [0, 1, 0], [1, 1, 1])
        q, g = [[1e200, 0.0], [0.0, 1.0]], [[1e200, 1.0], [0.0, 2.0], [3.0, 0.0]]
        with pytest.raises(NumericError, match="overflow.*squared row norms inf and inf"):
            evaluate_features(ds, q, g)

    def test_shape_mismatch_rejected(self):
        ds, q, g = tie_heavy_case(seed=0, n_query=4, n_gallery=9)
        with pytest.raises(ValidationError):
            evaluate_features(ds, q[:3], g)
        with pytest.raises(ValidationError):
            evaluate_features(ds, q, g[:, :1])


class TestGenerator:
    def test_deterministic(self):
        a = generate_synthetic(seed=11)
        b = generate_synthetic(seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.cameras, b.cameras)
        assert np.array_equal(a.split, b.split)

    def test_zero_noise_zero_camera_collapses_identities(self):
        ds = generate_synthetic(identities=4, cameras=2, samples_per_id_camera=2, dim=6, noise=0.0, camera_scale=0.0, seed=1)
        for i in np.unique(ds.ids):
            rows = ds.features[ds.ids == i]
            assert np.abs(rows - rows[0]).max() == 0.0
        report = evaluate(ds, rank_gallery(ds.query_features, ds.gallery_features))
        assert report.cmc[0] == 1.0

    def test_default_probe_band(self):
        ds = generate_synthetic()
        report = evaluate(ds, rank_gallery(ds.query_features, ds.gallery_features))
        rank1 = report.cmc[0]
        assert 0.3 < rank1 < 0.95
        assert abs(rank1 - DEFAULT_RAW_RANK1) <= 0.1

    def test_split_structure(self):
        ds = generate_synthetic(identities=10, cameras=3, samples_per_id_camera=4, dim=6, seed=2)
        assert set(np.unique(ds.split)) == {"train", "query", "gallery"}
        train_ids = set(np.unique(ds.train_ids))
        test_ids = set(np.unique(ds.query_ids))
        assert train_ids.isdisjoint(test_ids)
        assert len(train_ids) == 5
        # one query per (identity, camera) cell of the test identities
        assert ds.query_features.shape[0] == len(test_ids) * 3
        evaluation._validate_cross_camera(ds)

    @settings(max_examples=30, deadline=None)
    @given(
        identities=st.integers(2, 9),
        cameras=st.integers(2, 4),
        samples=st.integers(2, 4),
        dim=st.integers(1, 6),
        noise=st.floats(0.0, 2.0),
        camera_scale=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_query_has_a_cross_camera_match(self, identities, cameras, samples, dim, noise, camera_scale, seed):
        ds = generate_synthetic(identities, cameras, samples, dim, noise, camera_scale, seed)
        assert loop_first_unmatched_query(ds.query_ids, ds.query_cameras, ds.gallery_ids, ds.gallery_cameras) is None

    @settings(max_examples=30, deadline=None)
    @given(
        identities=st.integers(2, 9),
        cameras=st.integers(2, 4),
        samples=st.integers(2, 4),
        dim=st.integers(1, 6),
        noise=st.floats(0.0, 2.0),
        camera_scale=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_the_row_loop(self, identities, cameras, samples, dim, noise, camera_scale, seed):
        ds = generate_synthetic(identities, cameras, samples, dim, noise, camera_scale, seed)
        features, ids, cams, split = loop_synthetic(identities, cameras, samples, dim, noise, camera_scale, seed)
        assert ds.features.tobytes() == features.tobytes()
        assert (ds.ids.tolist(), ds.cameras.tolist(), ds.split.tolist()) == (ids, cams, split)

    def test_config_validation(self):
        bad = [
            ("identities", 1),
            ("identities", 4.5),
            ("identities", True),
            ("cameras", 1),
            ("cameras", "3"),
            ("samples_per_id_camera", 1),
            ("dim", 0),
            ("dim", np.float64(3.0)),
            ("seed", -1),
            ("seed", 1.5),
            ("noise", -0.1),
            ("noise", np.nan),
            ("noise", "0.5"),
            ("camera_scale", np.inf),
            ("camera_scale", -np.inf),
        ]
        for name, value in bad:
            with pytest.raises(ValidationError, match=f"^{name} must be "):
                generate_synthetic(**{name: value})

    def test_numpy_integer_parameters_accepted(self):
        a = generate_synthetic(identities=np.int64(4), cameras=np.int32(2), dim=np.uint8(3), seed=np.int64(2))
        b = generate_synthetic(identities=4, cameras=2, dim=3, seed=2)
        assert a.features.tobytes() == b.features.tobytes()

    def test_cross_camera_invariant_enforced_by_validate(self):
        ds = small_dataset(seed=7)
        bad = RetrievalDataset(
            features=ds.features.copy(),
            ids=ds.ids.copy(),
            cameras=np.zeros_like(ds.cameras),  # all one camera
            split=ds.split.copy(),
        )
        with pytest.raises(ValidationError, match="has no gallery sample under a different camera"):
            evaluation._validate_cross_camera(bad)


class TestDatasetValue:
    @settings(max_examples=60, deadline=None)
    @given(ds=datasets)
    def test_split_properties_are_the_mask_selections(self, ds):
        for tag in SPLITS:
            mask = ds.split == tag
            for name in ("features", "ids", "cameras"):
                got = getattr(ds, f"{tag}_{name}", None)
                if got is not None:
                    want = getattr(ds, name)[mask]
                    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    @settings(max_examples=40, deadline=None)
    @given(fields=dataset_fields())
    def test_list_fields_make_the_array_dataset(self, fields):
        listed = RetrievalDataset(**{name: np.asarray(value).tolist() for name, value in fields.items()})
        arrays = RetrievalDataset(**{name: np.asarray(value) for name, value in fields.items()})
        for name in ("features", "ids", "cameras", "split", "query_ids", "gallery_cameras"):
            got, want = getattr(listed, name), getattr(arrays, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert listed.features.dtype == np.float64

    @settings(max_examples=40, deadline=None)
    @given(fields=dataset_fields(), name=st.sampled_from(["ids", "cameras", "split"]))
    def test_field_one_entry_short_rejected(self, fields, name):
        fields[name] = fields[name][:-1]
        with pytest.raises(ValidationError, match=f"^{name} must have one entry per row"):
            RetrievalDataset(**fields)

    @settings(max_examples=40, deadline=None)
    @given(fields=dataset_fields(), row=st.integers(0, 23))
    def test_unknown_tag_named_as_plain_text(self, fields, row):
        split = list(fields["split"])
        split[row % len(split)] = "holdout"
        with pytest.raises(ValidationError, match=re.escape("unknown split tags ['holdout']; expected one of")):
            RetrievalDataset(**{**fields, "split": np.array(split)})

    @settings(max_examples=40, deadline=None)
    @given(fields=dataset_fields(), row=st.integers(0, 23), value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_feature_rejected(self, fields, row, value):
        features = np.array(fields["features"])
        features[row % len(features), 0] = value
        with pytest.raises(ValidationError, match="^features: contains non-finite entries"):
            RetrievalDataset(**{**fields, "features": features})

    @pytest.mark.parametrize("name", ["ids", "cameras"])
    @pytest.mark.parametrize(
        "labels",
        [
            np.array([0.5, 1.0, 2.0]),
            np.array([0.0, 1.0, 2.0]),
            np.array(["0", "1", "2"]),
            np.array([None, 1, 2], dtype=object),
            np.array([2**63, 1, 2], dtype=object),
            np.array([0, 1, 2], dtype=np.uint64),
        ],
        ids=["float", "integral-float", "string", "object-None", "object-2**63", "uint64"],
    )
    def test_label_dtype_outside_int64_rejected(self, name, labels):
        fields = {"features": np.zeros((3, 2)), "ids": [0, 1, 2], "cameras": [0, 1, 0], "split": ["query", "gallery", "gallery"]}
        with pytest.raises(ValidationError, match=re.escape(f"{name} must be integer labels that int64 holds, got dtype {labels.dtype}")):
            RetrievalDataset(**{**fields, name: labels})

    def test_fractional_ids_rejected_when_made(self):
        # 1.5 and 1.7 would score as two identities, and a CSV can hold neither
        with pytest.raises(ValidationError, match="^ids must be integer labels that int64 holds, got dtype float64"):
            RetrievalDataset(features=np.zeros((3, 1)), ids=[1.5, 1.7, 2.0], cameras=[0, 1, 0], split=["query", "gallery", "gallery"])

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int16, np.int32, np.uint32, np.int64])
    def test_labels_are_stored_as_contiguous_int64(self, dtype):
        labels = np.array([1, 0, 1, 0, 1, 0], dtype=dtype)[::2]
        ds = RetrievalDataset(features=np.zeros((3, 1)), ids=labels, cameras=labels, split=["query", "gallery", "gallery"])
        for got in (ds.ids, ds.cameras):
            assert got.dtype == np.int64 and got.flags.c_contiguous and got.tolist() == labels.tolist()

    def test_fields_cannot_be_rebound(self):
        ds = small_dataset()
        with pytest.raises(FrozenInstanceError):
            ds.features = ds.features[:1]

    def test_datasets_and_reports_compare_by_identity(self):
        a, b = generate_synthetic(), generate_synthetic()
        ra, rb = (evaluate_features(ds, ds.query_features, ds.gallery_features) for ds in (a, b))
        for x, y in ((a, b), (ra, rb)):
            assert x == x and x != y
            assert hash(x) == hash(x) and len({x, y}) == 2


class TestValidate:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(LABELS, LABELS, st.sampled_from(["query", "gallery"])), min_size=1, max_size=25))
    def test_matches_per_query_loop(self, rows):
        ids, cams, split = zip(*rows)
        ds = RetrievalDataset(
            features=np.zeros((len(rows), 2)),
            ids=np.array(ids, dtype=np.int64),
            cameras=np.array(cams, dtype=np.int64),
            split=np.array(split),
        )
        first = loop_first_unmatched_query(ds.query_ids, ds.query_cameras, ds.gallery_ids, ds.gallery_cameras)
        if first is None:
            evaluation._validate_cross_camera(ds)
        else:
            named = f"query identity {ds.query_ids[first]} (camera {ds.query_cameras[first]}) has no"
            with pytest.raises(ValidationError, match=re.escape(named)):
                evaluation._validate_cross_camera(ds)


class TestCsvRoundTrips:
    def test_dataset_round_trip_is_exact(self, tmp_path):
        ds = small_dataset(seed=8)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.ids, ds.ids)
        assert np.array_equal(loaded.cameras, ds.cameras)
        assert np.array_equal(loaded.split, ds.split)

    def test_same_seed_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(generate_synthetic(seed=9), p1)
        save_dataset(generate_synthetic(seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(small_dataset(seed=10, dim=3), path)
        header = path.read_text().splitlines()[0]
        assert header == "id,camera,split,f0,f1,f2"

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,cam,split,f0\n1,0,train,0.5\n")
        with pytest.raises(ValidationError):
            load_dataset(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,camera,split,f0,f1\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: no rows after the header")):
            load_dataset(path)

    def test_bad_split_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        # a tag longer than any valid one must not be cut down to a valid one
        for tag in ("holdout", "gallery-2"):
            path.write_text(f"id,camera,split,f0\n1,0,{tag},0.5\n")
            with pytest.raises(ValidationError):
                load_dataset(path)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 5), n=st.integers(1, 8), form=st.sampled_from(sorted(LABEL_FORMS)))
    def test_round_trip_is_byte_exact(self, data, d, n, form):
        make, labels = LABEL_FORMS[form]
        given_labels = {name: make(data.draw(st.lists(labels, min_size=n, max_size=n))) for name in ("ids", "cameras")}
        ds = RetrievalDataset(
            features=np.array(data.draw(st.lists(st.lists(FINITE, min_size=d, max_size=d), min_size=n, max_size=n))),
            split=np.array(data.draw(st.lists(st.sampled_from(["train", "gallery"]), min_size=n, max_size=n))),
            **given_labels,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.csv"
            save_dataset(ds, path)
            assert path.read_text() == csv_dataset_text(ds)
            loaded = load_dataset(path)
        assert loaded.features.tobytes() == ds.features.tobytes()
        for name, given_values in given_labels.items():
            assert getattr(ds, name).tolist() == np.asarray(given_values).tolist()
            assert getattr(loaded, name).dtype == np.int64
            assert getattr(loaded, name).tobytes() == getattr(ds, name).tobytes()
        assert np.array_equal(loaded.split, ds.split)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda fields: fields[:-1],
            lambda fields: fields + ["0.5"],
            lambda fields: fields[:3] + ["abc"] + fields[4:],
            lambda fields: ["x"] + fields[1:],
            lambda fields: [],
            lambda fields: ["99999999999999999999"] + fields[1:],
            lambda fields: fields[:3] + [fields[3][:4] + "_" + fields[3][4:]] + fields[4:],
            lambda fields: fields[:3] + ["nan"] + fields[4:],
            lambda fields: fields[:-1] + ["-inf"],
        ],
        ids=[
            "field_missing",
            "field_extra",
            "non_numeric_feature",
            "non_numeric_id",
            "blank_line",
            "id_out_of_int64",
            "underscore_in_feature",
            "nan_feature",
            "inf_feature",
        ],
    )
    def test_malformed_row_names_path_and_line(self, tmp_path, mutate):
        path = tmp_path / "ds.csv"
        save_dataset(small_dataset(seed=12), path)
        lines = path.read_text().split("\n")
        lines[4] = ",".join(mutate(lines[4].split(",")))
        path.write_text("\n".join(lines))
        with pytest.raises(ValidationError, match=re.escape(f"{path}:5:")):
            load_dataset(path)

    def test_every_row_one_field_too_many_names_line_2(self, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(small_dataset(seed=12), path)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + [row + ",0.5" for row in rows]) + "\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:2:")):
            load_dataset(path)

    @pytest.mark.parametrize("dialect", ["crlf", "quoted"])
    def test_csv_dialects_load_like_plain(self, tmp_path, dialect):
        ds = small_dataset(seed=13)
        plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
        save_dataset(ds, plain)
        text = plain.read_text()
        other.write_text(text.replace("\n", "\r\n") if dialect == "crlf" else text.replace(",gallery,", ',"gallery",'), newline="")
        loaded = load_dataset(other)
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(loaded.split, ds.split)

    def test_report_csv_and_table(self, tmp_path):
        report = RankingReport(cmc=np.array([0.5, 0.75, 1.0]), map=0.625, per_query_ap=np.array([0.5, 0.75]))
        path = tmp_path / "report.csv"
        write_report(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,value"
        assert lines[1] == "rank1,0.5"
        assert "map,0.625" in lines
        table = format_report(report)
        assert "mAP" in table and "0.6250" in table


class TestParsedSidecar:
    """``load_dataset`` keeps each CSV's parsed table in ``.{name}.parsed.npz``
    beside it, keyed by the SHA-256 of the CSV's bytes."""

    @staticmethod
    def saved(tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(small_dataset(seed=14), path)
        return path, tmp_path / ".ds.csv.parsed.npz"

    @staticmethod
    def assert_same_arrays(a, b):
        for name in ("features", "ids", "cameras", "split"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            assert (x.flags.c_contiguous, x.flags.f_contiguous) == (y.flags.c_contiguous, y.flags.f_contiguous)

    @staticmethod
    def forge(sidecar, path, **fields):
        """Write ``sidecar`` with the digest of ``path``, the current version and ``fields``, which win."""
        own = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(), "version": evaluation._CACHE_VERSION}
        np.savez(sidecar, **{**own, **fields})

    def test_warm_load_skips_the_parse_and_matches_the_cold_one(self, tmp_path):
        path, sidecar = self.saved(tmp_path)
        cold = load_dataset(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [sidecar.name, path.name]
        with mock.patch.object(evaluation, "_parse_table", side_effect=AssertionError("parsed again")):
            warm = load_dataset(path)
        self.assert_same_arrays(warm, cold)

    def test_changed_byte_is_a_miss_and_a_rewrite(self, tmp_path):
        path, sidecar = self.saved(tmp_path)
        load_dataset(path)
        raw = path.read_bytes()
        # the last digit of the last row: still a finite float, now another one
        digit = next(i for i in range(len(raw) - 2, 0, -1) if raw[i : i + 1].isdigit() and raw[i + 1 : i + 2] == b"\n")
        path.write_bytes(raw[:digit] + (b"1" if raw[digit : digit + 1] != b"1" else b"2") + raw[digit + 1 :])
        with mock.patch.object(evaluation, "_parse_table", wraps=evaluation._parse_table) as parse:
            changed = load_dataset(path)
        assert parse.call_count == 1
        with np.load(sidecar) as stored:
            assert stored["sha256"].item() == hashlib.sha256(path.read_bytes()).hexdigest()
        sidecar.unlink()
        self.assert_same_arrays(changed, load_dataset(path))

    @pytest.mark.parametrize(
        "change",
        [
            lambda sha, table: {"sha256": "0" * 64},
            lambda sha, table: {"version": evaluation._CACHE_VERSION + 1},
            lambda sha, table: {"table": table.astype(table.dtype.newbyteorder(">"))},
            lambda sha, table: {"table": table[:, None]},
            lambda sha, table: {"table": np.array([{"pickled": 1}], dtype=object)},
            lambda sha, table: {"sha256": np.array([sha, sha])},
        ],
        ids=["other_digest", "other_version", "big_endian", "two_dimensional", "pickled", "digest_not_a_scalar"],
    )
    def test_unusable_sidecar_is_a_miss_and_a_rewrite(self, tmp_path, change):
        path, sidecar = self.saved(tmp_path)
        fresh = load_dataset(path)
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        with np.load(sidecar) as stored:
            table = stored["table"]
        self.forge(sidecar, path, **{"table": table, **change(sha, table)})
        with mock.patch.object(evaluation, "_parse_table", wraps=evaluation._parse_table) as parse:
            self.assert_same_arrays(load_dataset(path), fresh)
        assert parse.call_count == 1
        with mock.patch.object(evaluation, "_parse_table", side_effect=AssertionError("parsed again")):
            self.assert_same_arrays(load_dataset(path), fresh)  # the rewritten sidecar is a hit

    @pytest.mark.parametrize(
        "field, value, message",
        [("f", np.nan, ":2: non-finite feature value"), ("split", "holdout", "unknown split tags")],
        ids=["nan_feature", "unknown_split"],
    )
    def test_forged_sidecar_is_still_validated(self, tmp_path, field, value, message):
        path, sidecar = self.saved(tmp_path)
        load_dataset(path)
        with np.load(sidecar) as stored:
            table = stored["table"]
        table[field][0] = value
        self.forge(sidecar, path, table=table)
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_dataset(path)

    @pytest.mark.parametrize("when", ["on_open", "after_writing"])
    def test_unwritable_directory_still_loads(self, tmp_path, monkeypatch, when):
        path, sidecar = self.saved(tmp_path)
        real = evaluation.open_artifact

        @contextmanager
        def refused(target, mode="w"):
            if when == "on_open":
                raise PermissionError(13, "Permission denied", str(target))
            with real(target, mode) as fh:
                yield fh
                raise PermissionError(13, "Permission denied", str(target))

        monkeypatch.setattr(evaluation, "open_artifact", refused)
        loaded = load_dataset(path)
        assert list(tmp_path.iterdir()) == [path]
        monkeypatch.undo()
        self.assert_same_arrays(loaded, load_dataset(path))

    @pytest.mark.parametrize(
        "plant", ["group_writable", "other_writable", "foreign_owner", "symlink", "fifo", "directory"]
    )
    def test_untrusted_sidecar_is_neither_read_nor_replaced(self, tmp_path, plant):
        path, sidecar = self.saved(tmp_path)
        fresh = load_dataset(path)
        with np.load(sidecar) as stored:
            table = stored["table"]
        table["f"][0, 0] += 1.0  # another table that passes every check
        sidecar.unlink()
        if plant == "foreign_owner" and os.geteuid() != 0:
            pytest.skip("giving a file to another user needs root")
        if plant in ("group_writable", "other_writable", "foreign_owner"):
            self.forge(sidecar, path, table=table)
            os.chmod(sidecar, {"group_writable": 0o664, "other_writable": 0o646}.get(plant, 0o644))
            if plant == "foreign_owner":
                os.chown(sidecar, os.geteuid() + 1, -1)
        elif plant == "symlink":
            self.forge(tmp_path / "target.npz", path, table=table)
            sidecar.symlink_to(tmp_path / "target.npz")
        elif plant == "fifo":
            os.mkfifo(sidecar)
        else:
            sidecar.mkdir()
        before = os.lstat(sidecar)
        with mock.patch.object(evaluation, "_parse_table", wraps=evaluation._parse_table) as parse:
            self.assert_same_arrays(load_dataset(path), fresh)
        assert parse.call_count == 1
        after = os.lstat(sidecar)
        assert (after.st_ino, after.st_mode, after.st_uid, after.st_mtime_ns) == (
            before.st_ino, before.st_mode, before.st_uid, before.st_mtime_ns
        )
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_untrusted_sidecar_does_not_hide_a_malformed_csv(self, tmp_path):
        path, sidecar = self.saved(tmp_path)
        load_dataset(path)
        with np.load(sidecar) as stored:
            table = stored["table"]
        path.write_bytes(path.read_bytes() + b"\xff\n")
        self.forge(sidecar, path, table=table)
        os.chmod(sidecar, 0o664)
        with pytest.raises(ValidationError, match="not UTF-8"):
            load_dataset(path)

    @pytest.mark.skipif(os.geteuid() != 0, reason="giving files to another user needs root")
    def test_sidecar_owned_by_the_csv_owner_is_trusted(self, tmp_path):
        path, sidecar = self.saved(tmp_path)
        cold = load_dataset(path)
        for p in (path, sidecar):
            os.chown(p, os.geteuid() + 1, -1)
        with mock.patch.object(evaluation, "_parse_table", side_effect=AssertionError("parsed again")):
            self.assert_same_arrays(load_dataset(path), cold)

    def test_sidecar_written_under_a_group_writable_umask_is_trusted(self, tmp_path):
        path, sidecar = self.saved(tmp_path)
        old = os.umask(0o002)
        try:
            cold = load_dataset(path)
        finally:
            os.umask(old)
        assert sidecar.stat().st_mode & 0o022 == 0
        with mock.patch.object(evaluation, "_parse_table", side_effect=AssertionError("parsed again")):
            self.assert_same_arrays(load_dataset(path), cold)

    def test_cache_version_is_pinned_to_the_parser_output(self):
        """If this digest changes, the parser's output did: bump
        ``_CACHE_VERSION`` with it, or old sidecars keep the old table."""
        raw = (
            b'id,camera,split,f0,f1\r\n1,0,train,0.5,"-1.25"\r\n"2",1,query,1e-300,3\r\n'
            b"2,2,gallery,0.1,2.5e10\r\n3,0,gallery_extra,7,-0.0\r\n"
        )
        table = evaluation._parse_table(decode_text(raw, "pin.csv").split("\n"), "pin.csv")
        digest = hashlib.sha256(repr(table.dtype.descr).encode() + table.tobytes()).hexdigest()
        assert (evaluation._CACHE_VERSION, digest) == (
            1,
            "d6ace16162153b9749cf693bbad3ae359dbb5fdb1b62e3b52040275115dd0df4",
        )

    def test_cli_eval_cold_then_warm_gives_the_same_bytes(self, tmp_path, capsys):
        path, sidecar = self.saved(tmp_path)
        save_checkpoint(build_model(5, (6,), 4, 4, seed=1), tmp_path / "m.svdn")
        outputs = []
        for run in ("cold", "warm"):
            assert sidecar.exists() == (run == "warm")
            argv = ["eval", "--out", str(tmp_path / run), "--dataset", str(path), "--ckpt", str(tmp_path / "m.svdn")]
            assert main(argv) == 0
            outputs.append(((tmp_path / run / "report.csv").read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]


class TestL2Normalize:
    def test_unit_rows(self):
        x = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]])
        out = l2_normalize(x)
        assert np.allclose(out[0], [0.6, 0.8])
        assert np.array_equal(out[1], [0.0, 0.0])
        assert np.allclose(out[2], [0.0, 1.0])

    def test_rows_outside_the_squared_range_come_out_unit(self):
        x = [[1e200, 0.0], [0.0, 1.0], [1e-200, 0.0], [3e-160, 4e-160]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = l2_normalize(x)
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.6, 0.8]], rtol=0, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from([0.0, 1e-300, 1e-160, 1e-100, 1.0, 1e100, 1e154, 1e300]), min_size=1, max_size=6),
    )
    def test_every_nonzero_row_has_unit_norm_and_ordinary_rows_keep_their_bits(self, seed, scales):
        x = np.random.default_rng(seed).standard_normal((len(scales), 4)) * np.array(scales)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = l2_normalize(x)
        nonzero = np.array(scales) > 0.0
        assert not out[~nonzero].any()
        np.testing.assert_allclose(np.linalg.norm(out[nonzero], axis=1), 1.0, rtol=1e-14)
        # rows whose squares stay normal floats: the plain division, bit for bit
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(x, axis=1, keepdims=True)
        ordinary = (np.array(scales) >= 1e-100) & (np.array(scales) <= 1e100)
        assert np.array_equal(out[ordinary], (x / np.where(norms == 0.0, 1.0, norms))[ordinary])
