import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdn import evaluation
from svdn.decorrelate import DecorrMethod, apply
from svdn.errors import DegeneracyError, NumericError, ValidationError
from svdn.evaluation import (
    QUERY_BLOCK,
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

from oracles import (
    csv_dataset_text,
    loop_first_unmatched_query,
    loop_rank_aps,
    loop_sq_dists,
    oracle_evaluate,
)

# finite doubles, with the edge cases named explicitly
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]),
)
# identity and camera labels, negative and beyond 32 bits
LABELS = st.sampled_from([-(2**40), -1, 2**40])

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
        ).validate()
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

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_query=st.integers(2, 30),
        extra_gallery=st.integers(1, 30),
        n_ids=st.integers(1, 6),
        n_cams=st.integers(2, 4),
        dim=st.integers(1, 3),
        block=st.integers(1, 8),
        n_dup=st.integers(0, 20),
        max_extra=st.integers(0, 12),
    )
    def test_property_matches_ranked_path_and_oracle(
        self, seed, n_query, extra_gallery, n_ids, n_cams, dim, block, n_dup, max_extra
    ):
        ds, q, g = tie_heavy_case(seed, n_query, n_query + extra_gallery, n_ids, n_cams, dim)
        ds, g = with_duplicates_and_extra_positives(ds, g, n_cams, np.random.default_rng(seed), n_dup, max_extra)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with mock.patch.object(evaluation, "QUERY_BLOCK", block):
                got = evaluate_features(ds, q, g)
            ranked = rank_gallery(q, g)
            assert_same_report(got, evaluate(ds, ranked))
        args = (ds.query_ids, ds.query_cameras, ds.gallery_ids, ds.gallery_cameras)
        assert np.array_equal(got.per_query_ap, loop_rank_aps(*args, loop_sq_dists(q, g)))
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
        ds.validate()

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            generate_synthetic(identities=1)
        with pytest.raises(ValidationError):
            generate_synthetic(cameras=1)
        with pytest.raises(ValidationError):
            generate_synthetic(samples_per_id_camera=1)
        with pytest.raises(ValidationError):
            generate_synthetic(noise=-0.1)
        with pytest.raises(ValidationError, match="seed"):
            generate_synthetic(seed=-1)

    def test_cross_camera_invariant_enforced_by_validate(self):
        ds = small_dataset(seed=7)
        bad = RetrievalDataset(
            features=ds.features.copy(),
            ids=ds.ids.copy(),
            cameras=np.zeros_like(ds.cameras),  # all one camera
            split=ds.split.copy(),
        )
        with pytest.raises(ValidationError):
            bad.validate()


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
            ds.validate()
        else:
            named = f"query identity {ds.query_ids[first]} (camera {ds.query_cameras[first]}) has no"
            with pytest.raises(ValidationError, match=re.escape(named)):
                ds.validate()


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

    def test_bad_split_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        # a tag longer than any valid one must not be cut down to a valid one
        for tag in ("holdout", "gallery-2"):
            path.write_text(f"id,camera,split,f0\n1,0,{tag},0.5\n")
            with pytest.raises(ValidationError):
                load_dataset(path)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.integers(1, 5), n=st.integers(1, 8))
    def test_round_trip_is_byte_exact(self, data, d, n):
        ds = RetrievalDataset(
            features=np.array(data.draw(st.lists(st.lists(FINITE, min_size=d, max_size=d), min_size=n, max_size=n))),
            ids=np.array(data.draw(st.lists(LABELS, min_size=n, max_size=n)), dtype=np.int64),
            cameras=np.array(data.draw(st.lists(LABELS, min_size=n, max_size=n)), dtype=np.int64),
            split=np.array(data.draw(st.lists(st.sampled_from(["train", "gallery"]), min_size=n, max_size=n))),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.csv"
            save_dataset(ds, path)
            assert path.read_text() == csv_dataset_text(ds)
            loaded = load_dataset(path)
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(loaded.ids, ds.ids)
        assert np.array_equal(loaded.cameras, ds.cameras)
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
