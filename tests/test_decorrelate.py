import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdn.decorrelate import DecorrMethod, apply, distance_preservation_gap
from svdn.errors import DegeneracyError, ValidationError
from svdn.linalg import svd

from oracles import loop_sq_dists


def random_w(n, k, seed):
    return np.random.default_rng(seed).normal(size=(n, k))


class TestApply:
    def test_orig_is_bitwise_copy(self):
        w = random_w(5, 3, seed=0)
        out = apply(w, DecorrMethod.ORIG)
        assert np.array_equal(out, w)
        assert out is not w

    def test_us_of_axis_aligned_orthonormal(self):
        # identity and signed permutations have unambiguous factorizations,
        # so the replacement returns the input up to the sign convention
        for w in (np.eye(4), np.eye(4)[:, [1, 3, 0, 2]] * np.array([-1.0, 1.0, -1.0, 1.0])):
            out = apply(w, DecorrMethod.US)
            assert np.allclose(np.abs(out), np.abs(w), atol=1e-12)
            assert np.allclose(out.T @ out, np.eye(4), atol=1e-12)

    def test_us_of_general_orthonormal_stays_orthonormal(self):
        # repeated singular values make the factors non-unique, so only the
        # contract (orthonormal columns, same span, deterministic) is stable
        q, _ = np.linalg.qr(random_w(7, 3, seed=8))
        out = apply(q, DecorrMethod.US)
        assert np.allclose(out.T @ out, np.eye(3), atol=1e-9)
        assert np.linalg.matrix_rank(np.hstack([q, out])) == 3
        assert np.array_equal(out, apply(q, DecorrMethod.US))

    def test_us_gram_is_diagonal_of_squared_singulars(self):
        w = random_w(6, 3, seed=13)
        out = apply(w, DecorrMethod.US)
        _, s, _ = svd(w)
        gram = out.T @ out
        assert np.allclose(gram, np.diag(s**2), atol=1e-9)

    @pytest.mark.parametrize("method", [DecorrMethod.US, DecorrMethod.U, DecorrMethod.UVT, DecorrMethod.QD])
    def test_outputs_have_orthogonal_columns(self, method):
        w = random_w(9, 4, seed=21)
        out = apply(w, method)
        assert out.shape == w.shape
        gram = out.T @ out
        norms = np.sqrt(np.diag(gram))
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-9 * np.outer(norms, norms).max()

    @pytest.mark.parametrize("method", [DecorrMethod.U, DecorrMethod.UVT])
    def test_u_and_uvt_are_orthonormal(self, method):
        w = random_w(9, 4, seed=22)
        out = apply(w, method)
        assert np.linalg.norm(out.T @ out - np.eye(4)) <= 1e-9

    def test_us_idempotent_up_to_convention(self):
        w = random_w(8, 4, seed=33)
        once = apply(w, DecorrMethod.US)
        twice = apply(once, DecorrMethod.US)
        assert np.linalg.norm(twice - once) <= 1e-9 * (1 + np.linalg.norm(once))

    def test_qd_rank_deficient_propagates(self):
        col = np.arange(1.0, 6.0)
        w = np.stack([col, 2 * col, np.ones(5)], axis=1)
        with pytest.raises(DegeneracyError):
            apply(w, DecorrMethod.QD)

    def test_from_name(self):
        assert DecorrMethod.from_name("us") is DecorrMethod.US
        assert DecorrMethod.from_name("UVt") is DecorrMethod.UVT
        with pytest.raises(ValidationError):
            DecorrMethod.from_name("banana")

    def test_method_name_is_not_a_method(self):
        with pytest.raises(ValidationError, match="^unknown decorrelation method: 'US'$"):
            apply(random_w(5, 3, seed=0), "US")


class TestDistancePreservation:
    def test_identical_matrices_gap_zero(self):
        w = random_w(6, 3, seed=1)
        h = random_w(10, 6, seed=2)
        assert distance_preservation_gap(w, w, h) == 0.0

    def test_us_preserves_distances(self):
        w = random_w(6, 4, seed=3)
        h = random_w(12, 6, seed=4)
        gap = distance_preservation_gap(w, apply(w, DecorrMethod.US), h)
        d = np.sqrt(loop_sq_dists(h @ w, h @ w))
        assert gap <= 1e-7 * (1 + d.max())

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 200),
        k=st.integers(1, 40),
        m=st.integers(2, 20),
        w_scale=st.sampled_from([1e-3, 0.05, 1.0, 37.0, 1e3]),
        h_scale=st.sampled_from([1e-3, 1.0, 1e3]),
        near_duplicates=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_us_keeps_distances_on_random_tall_shapes(self, n, k, m, w_scale, h_scale, near_duplicates, seed):
        """Criterion 1's bound, gap / (1 + largest distance) <= 1e-7, on
        tall matrices whose leading columns may nearly repeat the first."""
        k = min(k, n)
        rng = np.random.default_rng(seed)
        w = w_scale * rng.normal(size=(n, k))
        for j in range(1, min(near_duplicates + 1, k)):
            w[:, j] = w[:, 0] + 1e-9 * w_scale * rng.normal(size=n)
        h = h_scale * rng.normal(size=(m, n))
        gap = distance_preservation_gap(w, apply(w, DecorrMethod.US), h)
        d = np.sqrt(loop_sq_dists(h @ w, h @ w))
        assert gap / (1.0 + d.max()) <= 1e-7

    def test_us_preserves_ranking(self):
        w = random_w(6, 4, seed=5)
        h = random_w(15, 6, seed=6)
        f_old = h @ w
        f_new = h @ apply(w, DecorrMethod.US)
        d_old = loop_sq_dists(f_old, f_old)
        d_new = loop_sq_dists(f_new, f_new)
        assert np.array_equal(np.argsort(d_old, axis=1, kind="stable"), np.argsort(d_new, axis=1, kind="stable"))

    def test_u_changes_distances_on_generic_input(self):
        w = random_w(6, 3, seed=7)  # generic: distinct singular values
        h = random_w(10, 6, seed=8)
        w_u = apply(w, DecorrMethod.U)
        gap = distance_preservation_gap(w, w_u, h)
        # oracle: the definition itself, computed with loops
        d_old = np.sqrt(loop_sq_dists(h @ w, h @ w))
        d_new = np.sqrt(loop_sq_dists(h @ w_u, h @ w_u))
        expected = np.abs(d_old - d_new).max()
        assert abs(gap - expected) <= 1e-12
        assert gap > 0.0

    def test_shape_validation(self):
        w = random_w(6, 3, seed=9)
        with pytest.raises(ValidationError):
            distance_preservation_gap(w, random_w(6, 2, seed=10), random_w(4, 6, seed=11))
        with pytest.raises(ValidationError):
            distance_preservation_gap(w, w, random_w(4, 5, seed=12))
