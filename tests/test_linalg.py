import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svdn import linalg
from svdn.errors import DegeneracyError, NumericError, ValidationError
from svdn.linalg import SvdFactors, _sq_dist_blocks, pairwise_sq_dist, qr, svd

from oracles import jacobi_eigenvalues, loop_sq_dists, reference_sq_dist_blocks


def random_matrix(n, k, seed, scale=1.0):
    return np.random.default_rng(seed).normal(size=(n, k)) * scale


class TestSvd:
    def test_identity(self):
        u, s, vt = svd(np.eye(3))
        assert np.allclose(u, np.eye(3), atol=1e-12)
        assert np.allclose(s, [1.0, 1.0, 1.0], atol=1e-12)
        assert np.allclose(vt, np.eye(3), atol=1e-12)

    def test_diagonal_already_sorted(self):
        u, s, vt = svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(u, np.eye(3), atol=1e-12)
        assert np.allclose(s, [3.0, 2.0, 1.0], atol=1e-12)
        assert np.allclose(vt, np.eye(3), atol=1e-12)

    def test_reconstruction_and_jacobi_cross_check(self):
        w = random_matrix(8, 4, seed=42)
        u, s, vt = svd(w)
        rec = u @ np.diag(s) @ vt
        assert np.linalg.norm(rec - w) / np.linalg.norm(w) < 1e-9
        # singular values must match the eigenvalues of w^T w computed by
        # an independent Jacobi iteration
        eig = jacobi_eigenvalues(w.T @ w)
        assert np.allclose(s, np.sqrt(np.clip(eig, 0.0, None)), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_factor_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        w = rng.normal(size=(n, k)) * rng.uniform(0.01, 100.0)
        factors = svd(w)
        assert isinstance(factors, SvdFactors)
        u, s, vt = factors
        assert np.linalg.norm(u.T @ u - np.eye(k)) <= 1e-9
        assert np.linalg.norm(vt @ vt.T - np.eye(k)) <= 1e-9
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)
        assert np.linalg.norm(u @ np.diag(s) @ vt - w) <= 1e-9 * (1 + np.linalg.norm(w))

    def test_sign_convention(self):
        for seed in range(6):
            u, _, _ = svd(random_matrix(9, 5, seed))
            for j in range(u.shape[1]):
                i = int(np.argmax(np.abs(u[:, j])))
                assert u[i, j] >= 0.0

    def test_determinism_bitwise(self):
        w = random_matrix(10, 6, seed=3)
        a = svd(w.copy())
        b = svd(w.copy())
        assert np.array_equal(a.u, b.u) and np.array_equal(a.s, b.s) and np.array_equal(a.vt, b.vt)

    def test_rejects_wide_matrix(self):
        with pytest.raises(ValidationError):
            svd(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        w = np.ones((3, 2))
        w[0, 0] = np.nan
        with pytest.raises(ValidationError):
            svd(w)

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            svd(np.ones(4))


class TestQr:
    def test_identity(self):
        q, r = qr(np.eye(2))
        assert np.allclose(q, np.eye(2), atol=1e-12)
        assert np.allclose(r, np.eye(2), atol=1e-12)

    def test_small_example(self):
        w = np.array([[3.0, 1.0], [4.0, 1.0]])
        q, r = qr(w)
        assert np.linalg.norm(q.T @ q - np.eye(2)) <= 1e-9
        assert np.allclose(r, np.triu(r))
        assert np.all(np.diag(r) > 0)
        assert np.linalg.norm(q @ r - w) <= 1e-9 * np.linalg.norm(w)

    @pytest.mark.parametrize("seed", range(6))
    def test_reconstruction_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 25))
        k = int(rng.integers(1, n + 1))
        w = rng.normal(size=(n, k))
        q, r = qr(w)
        assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-9
        assert np.allclose(r, np.triu(r))
        assert np.all(np.diag(r) >= 0)
        assert np.linalg.norm(q @ r - w) <= 1e-9 * (1 + np.linalg.norm(w))

    def test_duplicated_column_degenerate(self):
        col = np.arange(1.0, 5.0)
        w = np.stack([col, col], axis=1)
        with pytest.raises(DegeneracyError, match="column"):
            qr(w)

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegeneracyError):
            qr(np.zeros((3, 2)))


class TestPairwiseSqDist:
    def test_known_value(self):
        d = pairwise_sq_dist(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert d.shape == (1, 1)
        assert d[0, 0] == 25.0

    def test_identical_rows_exact_zero(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 5)) * 37.0
        b = rng.normal(size=(4, 5))
        b[2] = a[3]
        d = pairwise_sq_dist(a, b)
        assert d[3, 2] == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(4, 3))
        assert np.abs(pairwise_sq_dist(a, b) - loop_sq_dists(a, b)).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_self_symmetry_zero_diagonal(self, seed):
        a = np.random.default_rng(seed).normal(size=(12, 7)) * 10.0
        d = pairwise_sq_dist(a, a)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.all(d >= 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            pairwise_sq_dist(np.ones((2, 3)), np.ones((2, 4)))

    @pytest.mark.parametrize("bad", [[["a"]], [[object()]], [[1.0, 2.0], [3.0]]], ids=["string", "object", "ragged"])
    def test_malformed_input_named(self, bad):
        with pytest.raises(ValidationError, match="^a: expected a numeric 2-D array"):
            pairwise_sq_dist(bad, [[1.0]])

    def test_common_offset_identical_pair_exact_zero(self):
        rng = np.random.default_rng(3)
        a = 1e6 + rng.normal(size=(20, 8))
        b = 1e6 + rng.normal(size=(15, 8))
        b[4] = a[11]
        d = pairwise_sq_dist(a, b)
        assert d[11, 4] == 0.0
        assert np.all(d >= 0.0)

    def test_common_offset_near_identical_pair_matches_loop(self):
        rng = np.random.default_rng(4)
        a = 1e6 + rng.normal(size=(20, 8))
        b = 1e6 + rng.normal(size=(15, 8))
        b[4] = a[11] + 1e-3 * rng.normal(size=8)
        d, ref = pairwise_sq_dist(a, b), loop_sq_dists(a, b)
        assert ref[11, 4] < 1e-4
        assert np.all(np.abs(d - ref) <= 1e-12 * ref)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        m=st.integers(1, 12),
        k=st.integers(1, 40),
        scale=st.sampled_from([1e-3, 1.0, 37.0, 1e4]),
        offset=st.sampled_from([0.0, 1.0, -250.0, 1e6]),
        seed=st.integers(0, 2**32 - 1),
        block=st.integers(1, 12),
    )
    def test_property_against_loop_oracle(self, n, m, k, scale, offset, seed, block):
        """Identical row pairs give exactly 0; every entry is within the
        expansion's rounding bound of the loop oracle.  Blocks of ``block``
        rows written through the reused buffers have the bits of
        ``pairwise_sq_dist`` on the same rows, also when only the first
        block holds near-duplicate rows (the recompute path).  A BLAS
        product's bits may depend on its row count, so each block is
        compared with its own rows alone."""
        rng = np.random.default_rng(seed)
        a = offset + scale * rng.normal(size=(n, k))
        b = offset + scale * rng.normal(size=(m, k))
        pairs, near = [], []
        for j in range(m):
            u = rng.random()
            if u < 0.4:
                pairs.append((int(rng.integers(n)), j))
            elif u < 0.7:
                near.append((int(rng.integers(min(block, n))), j))
        for i, j in pairs:
            b[j] = a[i]
        for i, j in near:
            b[j] = a[i] + 1e-6 * scale * rng.normal(size=k)
        blocks = np.concatenate([blk.copy() for blk in _sq_dist_blocks(a, b, block)])
        one_by_one = np.concatenate([pairwise_sq_dist(a[s : s + block], b) for s in range(0, n, block)])
        assert np.array_equal(blocks, one_by_one)
        d, ref = pairwise_sq_dist(a, b), loop_sq_dists(a, b)
        for i, j in pairs:
            assert d[i, j] == 0.0
        norms = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
        assert np.all(np.abs(d - ref) <= 4 * (k + 2) * np.finfo(float).eps * norms)
        assert np.all(d >= 0.0)
        self_d = pairwise_sq_dist(a, a)
        assert np.array_equal(self_d, self_d.T)
        assert np.all(np.diag(self_d) == 0.0)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 30),
        k=st.integers(1, 20),
        rows=st.integers(1, 48),
        widths=st.integers(1, 3),
        same=st.booleans(),
        offset=st.sampled_from([0.0, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sub_chunked_epilogue_keeps_every_bit(self, n, m, k, rows, widths, same, offset, seed):
        """With a scratch of 1-3 gallery rows every block's epilogue runs in
        1-row or ragged sub-chunks; exact and near duplicates of rows from
        anywhere in ``a`` (so in later sub-chunks too) and the zero diagonal
        of ``a is b`` drive the recompute, which must take each sub-chunk's
        own query rows.  Every block equals the one-pass epilogue's."""
        rng = np.random.default_rng(seed)
        a = offset + rng.normal(size=(n, k))
        b = a if same else offset + rng.normal(size=(m, k))
        if not same:
            for j in range(m):
                if rng.random() < 0.5:
                    b[j] = a[rng.integers(n)] + rng.choice([0.0, 1e-7]) * rng.normal(size=k)
        with mock.patch.object(linalg, "_EPILOGUE_ENTRIES", widths * b.shape[0]):
            for got, want in zip(_sq_dist_blocks(a, b, rows), reference_sq_dist_blocks(a, b, rows), strict=True):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "a, b, largest",
        [
            ([[1e200, 0.0], [0.0, 1.0]], [[1e200, 1.0], [0.0, 2.0], [3.0, 0.0]], "inf and inf"),
            ([[1e154, 0.0]], [[0.0, 1e154], [1.0, 1.0]], "1e+308 and 1e+308"),
        ],
    )
    def test_overflowing_norms_raise_naming_both(self, a, b, largest):
        # each squared norm of the second case is finite; 2 * (|x|^2 + |y|^2) is not
        with pytest.raises(NumericError, match=f"overflow.*{re.escape(largest)}"):
            pairwise_sq_dist(a, b)

    def test_largest_norms_that_fit_give_finite_distances(self):
        a, b = np.array([[1e153, 0.0], [0.0, 1.0]]), np.array([[0.0, 1e153], [1e153, 1.0]])
        d = pairwise_sq_dist(a, b)
        assert np.all(np.isfinite(d)) and np.all(d >= 0.0)
        assert d[0, 0] == 2e306

    def test_peak_memory_is_the_output_plus_scratch(self):
        # the output alone is 600 x 2000 float64, 9.16 MiB; a full-size
        # norms array and mask beside it would add another 10.3 MiB
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(600, 16)), rng.normal(size=(2000, 16))
        tracemalloc.start()
        try:
            pairwise_sq_dist(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 600 * 2000 * 8 + 2**20
