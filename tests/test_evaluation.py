import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdn import evaluation
from svdn.decorrelate import DecorrMethod, apply
from svdn.errors import DegeneracyError, ValidationError
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

from oracles import loop_sq_dists, oracle_evaluate

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
    )
    def test_property_matches_ranked_path_and_oracle(self, seed, n_query, extra_gallery, n_ids, n_cams, dim, block):
        ds, q, g = tie_heavy_case(seed, n_query, n_query + extra_gallery, n_ids, n_cams, dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with mock.patch.object(evaluation, "QUERY_BLOCK", block):
                got = evaluate_features(ds, q, g)
            ranked = rank_gallery(q, g)
            assert_same_report(got, evaluate(ds, ranked))
        cmc, mean_ap, _, excluded = oracle_evaluate(ds.query_ids, ds.query_cameras, ds.gallery_ids, ds.gallery_cameras, ranked)
        assert excluded == got.excluded_queries
        assert np.abs(got.cmc - cmc).max() <= 1e-12
        assert abs(got.map - mean_ap) <= 1e-12

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
        path.write_text("id,camera,split,f0\n1,0,holdout,0.5\n")
        with pytest.raises(ValidationError):
            load_dataset(path)

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
