"""Weight-matrix replacement transforms that orthogonalize columns.

Given a weight matrix whose columns act as projection directions, each
transform below substitutes a matrix with mutually orthogonal columns.
Only the ``US`` replacement (left singular vectors scaled by the
singular values) preserves every pairwise Euclidean distance between
projected features; the others change the geometry and serve as
comparison points.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ValidationError
from .linalg import as_matrix, pairwise_sq_dist, qr, svd


class DecorrMethod(Enum):
    """The five weight-replacement strategies."""

    ORIG = "Orig"   # keep the learned matrix unchanged
    US = "US"       # left singular vectors scaled by singular values
    U = "U"         # left singular vectors alone
    UVT = "UVt"     # drop the singular values from the full factorization
    QD = "QD"       # QR basis scaled by the diagonal of R

    @classmethod
    def from_name(cls, name: str) -> "DecorrMethod":
        for method in cls:
            if method.value.lower() == name.lower():
                return method
        valid = ", ".join(m.value for m in cls)
        raise ValidationError(f"unknown decorrelation method {name!r}; expected one of: {valid}")


def apply(w, method: DecorrMethod) -> np.ndarray:
    """Return the replaced weight matrix, same shape as ``w``.

    ``w`` must be tall (rows >= cols); ``QD`` additionally requires full
    column rank and propagates the rank-deficiency error from the QR
    factorization.
    """
    w = as_matrix(w, "w")
    if method is DecorrMethod.ORIG:
        return w.copy()
    if method is DecorrMethod.QD:
        q, r = qr(w)
        return q * np.diag(r)
    u, s, vt = svd(w)
    if method is DecorrMethod.US:
        return u * s
    if method is DecorrMethod.U:
        return u.copy()
    if method is DecorrMethod.UVT:
        return u @ vt
    raise ValidationError(f"unknown decorrelation method: {method!r}")


def distance_preservation_gap(w, w_new, h) -> float:
    """Largest absolute change over all pairwise Euclidean distances of the
    projected features ``h @ w`` versus ``h @ w_new``.

    A pure measurement: 0 means the replacement left the feature geometry
    (and therefore any distance-based ranking) untouched.
    """
    w = as_matrix(w, "w")
    w_new = as_matrix(w_new, "w_new")
    h = as_matrix(h, "h")
    if w.shape != w_new.shape:
        raise ValidationError(f"w and w_new must have the same shape, got {w.shape} vs {w_new.shape}")
    if h.shape[1] != w.shape[0]:
        raise ValidationError(f"h has {h.shape[1]} columns but w has {w.shape[0]} rows")
    f_old, f_new = h @ w, h @ w_new
    d_old = np.sqrt(pairwise_sq_dist(f_old, f_old))
    d_new = np.sqrt(pairwise_sq_dist(f_new, f_new))
    return float(np.abs(d_old - d_new).max())
