"""Dense linear-algebra kernel used by every other module.

All operations take and return plain float64 numpy arrays.  Inputs are
validated (2-D, non-empty, finite) at every public entry point, and the
factorizations are post-processed with fixed sign conventions so that
repeated calls on the same bits return the same bits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegeneracyError, NumericError, ValidationError

# pairwise_sq_dist recomputes, from the row difference, every entry smaller
# than this share of |x|^2 + |y|^2, in chunks of this many row pairs.  The
# expansion and the recompute take a distance block this many entries at a
# time (256 KiB of float64, at least one row), so the norms and mask scratch
# they go through stays in L2.
_CANCELLATION = 2.0**-20
_RECOMPUTE_CHUNK = 4096
_EPILOGUE_ENTRIES = 1 << 15


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite float64 2-D array or raise ValidationError."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValidationError(f"{name}: expected a 2-D array, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValidationError(f"{name}: empty matrix of shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name}: contains non-finite entries")
    return m


class SvdFactors(NamedTuple):
    """Thin SVD ``w = u @ diag(s) @ vt`` with a deterministic sign choice."""

    u: np.ndarray   # (n, k), orthonormal columns
    s: np.ndarray   # (k,), non-negative, non-increasing
    vt: np.ndarray  # (k, k), orthonormal rows


def svd(w) -> SvdFactors:
    """Thin singular value decomposition of a tall matrix (rows >= cols).

    Each left singular vector is flipped, if needed, so that its
    largest-magnitude entry is non-negative (first such entry on ties);
    the matching row of ``vt`` is flipped to compensate, leaving the
    product unchanged.  This makes the factorization a pure function of
    the input bits.
    """
    w = as_matrix(w, "w")
    n, k = w.shape
    if n < k:
        raise ValidationError(f"w: thin orientation requires rows >= cols, got {n}x{k}")
    try:
        u, s, vt = np.linalg.svd(w, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge: {exc}") from exc
    for j in range(k):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0.0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]
    return SvdFactors(np.ascontiguousarray(u), s, np.ascontiguousarray(vt))


def qr(w) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization of a tall full-column-rank matrix.

    Signs are fixed so the diagonal of ``r`` is non-negative.  A pivot
    with ``|r[i, i]| <= 1e-12 * ||w||_F`` means column ``i`` is linearly
    dependent on the preceding ones and raises DegeneracyError.
    """
    w = as_matrix(w, "w")
    n, k = w.shape
    if n < k:
        raise ValidationError(f"w: thin orientation requires rows >= cols, got {n}x{k}")
    q, r = np.linalg.qr(w)
    tol = 1e-12 * float(np.linalg.norm(w))
    for i in range(k):
        if abs(r[i, i]) <= tol:
            raise DegeneracyError(
                f"w is rank-deficient at column {i}: |r[{i},{i}]| = {abs(r[i, i]):.3e} <= {tol:.3e}"
            )
        if r[i, i] < 0.0:
            q[:, i] = -q[:, i]
            r[i, :] = -r[i, :]
    return np.ascontiguousarray(q), np.ascontiguousarray(r)


def pairwise_sq_dist(a, b) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and of ``b``.

    Uses the expansion ``(|x|^2 + |y|^2) - 2 x.y`` with the inner products
    from one BLAS product (``a @ a.T`` when ``a is b``).  That expansion
    loses precision where the distance is small next to the squared
    norms, so every entry below ``_CANCELLATION * (|x|^2 + |y|^2)`` is
    recomputed as the sum of squares of the row difference.  Hence:

    * bitwise-identical row pairs give exactly 0, and every entry is
      non-negative;
    * an entry keeps its expansion value only when it is at least
      ``_CANCELLATION`` (2**-20) of ``|x|^2 + |y|^2``, which bounds its
      relative rounding error by about ``(k + 2) * 2**-32`` for rows of
      length ``k``; a recomputed entry is as accurate as a direct k-term
      sum of squares;
    * when ``a is b`` the result is exactly symmetric with a zero
      diagonal.

    Rows whose squared norms could overflow float64 somewhere in the
    expansion raise NumericError instead of giving inf or NaN entries.
    """
    same = a is b
    a = as_matrix(a, "a")
    b = a if same else as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValidationError(f"pairwise_sq_dist: row dimensions differ, {a.shape[1]} vs {b.shape[1]}")
    return next(_sq_dist_blocks(a, b, a.shape[0]))


def _sq_dist_blocks(a: np.ndarray, b: np.ndarray, rows: int):
    """Yield :func:`pairwise_sq_dist` of each consecutive ``rows``-row
    slice of ``a`` against all of ``b``, for inputs already checked.

    The squared norms and ``b.T`` are taken once, and every block's
    product is written into the same ``rows x len(b)`` distance buffer,
    so a caller must be done with a block before it asks for the next.
    The expansion and recompute then run over sub-chunks of about
    ``_EPILOGUE_ENTRIES`` entries (at least one row) through one norms
    and one mask scratch of that size; each entry goes through the same
    operations as in a one-pass epilogue, so it keeps its bits.  The
    one-block case (``rows >= len(a)``) with ``a is b`` hands BLAS the
    product of a matrix with its own transpose, which it computes
    exactly symmetric.

    Raises NumericError when ``2 * (max |x|^2 + max |y|^2)``, which
    bounds every product, norm sum and distance, is not finite."""
    a2 = np.einsum("ij,ij->i", a, a)
    b2 = a2 if a is b else np.einsum("ij,ij->i", b, b)
    a2_max, b2_max = float(a2.max()), float(b2.max())
    if not np.isfinite(2.0 * (a2_max + b2_max)):
        raise NumericError(
            f"squared distances overflow float64: largest squared row norms {a2_max:.6g} and {b2_max:.6g}"
        )
    bt = b.T
    height = min(rows, a.shape[0])
    d_buf = np.empty((height, b.shape[0]))
    sub = max(1, min(height, _EPILOGUE_ENTRIES // b.shape[0]))
    norms_buf, mask_buf = np.empty((sub, b.shape[0])), np.empty((sub, b.shape[0]), dtype=bool)
    for start in range(0, a.shape[0], rows):
        block = a[start : start + rows]
        d = d_buf[: block.shape[0]]
        np.matmul(block, bt, out=d)
        for s in range(0, block.shape[0], sub):
            ds = d[s : s + sub]
            norms, mask = norms_buf[: ds.shape[0]], mask_buf[: ds.shape[0]]
            ds *= -2.0
            np.add.outer(a2[start + s : start + s + ds.shape[0]], b2, out=norms)
            ds += norms
            norms *= _CANCELLATION
            close = np.flatnonzero(np.less_equal(ds, norms, out=mask))
            for lo in range(0, close.size, _RECOMPUTE_CHUNK):
                i, j = np.divmod(close[lo : lo + _RECOMPUTE_CHUNK], ds.shape[1])
                diff = block[s + i] - b[j]
                ds[i, j] = np.einsum("ij,ij->i", diff, diff)
        yield d
