import numpy as np
import pytest

from svdn.decorrelate import DecorrMethod, apply
from svdn.diagnostics import rri_converged, s_of_w
from svdn.errors import DegeneracyError

from oracles import loop_gram_score


class TestScore:
    def test_orthogonal_is_exactly_one(self):
        assert s_of_w(np.eye(5)) == 1.0
        perm = np.eye(4)[:, [2, 0, 3, 1]] * np.array([1.0, -1.0, 1.0, -1.0])
        assert s_of_w(perm) == 1.0

    def test_identical_unit_columns_one_over_k(self):
        col = np.array([3.0, 4.0]) / 5.0
        for k in (2, 3, 7):
            w = np.tile(col[:, None], (1, k))
            assert abs(s_of_w(w) - 1.0 / k) <= 1e-12

    def test_matches_loop_oracle(self):
        w = np.random.default_rng(11).normal(size=(8, 4))
        assert abs(s_of_w(w) - loop_gram_score(w)) <= 1e-12

    def test_returns_float_between_one_over_k_and_one(self):
        score = s_of_w(np.random.default_rng(0).normal(size=(6, 3)))
        assert isinstance(score, float)
        assert 1.0 / 3 <= score <= 1.0

    def test_power_of_two_scaling_is_bitwise_invariant(self):
        w = np.random.default_rng(2).normal(size=(7, 5))
        assert s_of_w(4.0 * w) == s_of_w(w)

    def test_general_scaling_invariance(self):
        w = np.random.default_rng(3).normal(size=(7, 5))
        assert abs(s_of_w(3.0 * w) - s_of_w(w)) <= 1e-12

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(9, 6))
        p = rng.permutation(6)
        assert abs(s_of_w(w[:, p]) - s_of_w(w)) <= 1e-13

    def test_all_zero_degenerate(self):
        with pytest.raises(DegeneracyError):
            s_of_w(np.zeros((4, 3)))

    def test_zero_column_warns(self):
        w = np.eye(3).copy()
        w[:, 1] = 0.0
        with pytest.warns(UserWarning):
            score = s_of_w(w)
        assert score == 1.0  # zero column adds nothing to either sum

    def test_decorrelated_matrices_score_near_one(self):
        w = np.random.default_rng(5).normal(size=(10, 4))
        for method in (DecorrMethod.US, DecorrMethod.U, DecorrMethod.UVT, DecorrMethod.QD):
            assert s_of_w(apply(w, method)) >= 1.0 - 1e-6


class TestConvergence:
    def test_spec_cases(self):
        assert rri_converged([0.2, 0.9, 0.9995, 0.9996, 0.9996], epsilon_s=1e-3)
        assert not rri_converged([0.2, 0.5], epsilon_s=1e-3)

    def test_needs_three_entries(self):
        assert not rri_converged([], epsilon_s=1e-3)
        assert not rri_converged([0.9], epsilon_s=1e-3)
        assert not rri_converged([0.9, 0.9], epsilon_s=1e-3)
        assert rri_converged([0.9, 0.9, 0.9], epsilon_s=1e-3)

    def test_strictly_below_threshold(self):
        # deltas exactly at epsilon must not fire
        assert not rri_converged([0.5, 0.501, 0.502], epsilon_s=1e-3)
        assert rri_converged([0.5, 0.5009, 0.5017], epsilon_s=1e-3)

    def test_only_last_two_deltas_matter(self):
        assert rri_converged([0.1, 0.9, 0.9001, 0.9002], epsilon_s=1e-3)

    def test_accepts_s_of_w_scores(self):
        w = np.random.default_rng(6).normal(size=(6, 4))
        assert rri_converged([s_of_w(w), s_of_w(2.0 * w), s_of_w(4.0 * w)], epsilon_s=1e-3)
