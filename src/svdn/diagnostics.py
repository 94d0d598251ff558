"""Orthogonality diagnostics for weight matrices.

The correlation score of a matrix is the ratio of the diagonal mass of
its gram matrix to the total absolute gram mass.  It is 1 exactly when
the columns are mutually orthogonal and 1/k when all k columns are
identical, so a low score flags redundant weight vectors.  The plateau
detector below turns the score history of a training run into a stop
signal.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .errors import DegeneracyError
from .linalg import as_matrix


def s_of_w(w) -> float:
    """Correlation score of the columns of ``w``, in [1/k, 1] for k columns.

    Columns of zero norm contribute nothing to either sum and trigger a
    warning; an all-zero matrix makes the ratio 0/0 and is rejected.
    """
    w = as_matrix(w, "w")
    g = w.T @ w
    diag = np.diag(g)
    total = float(np.abs(g).sum())
    if total == 0.0:
        raise DegeneracyError("s_of_w: all columns have zero norm")
    if np.any(diag == 0.0):
        warnings.warn("s_of_w: zero-norm column contributes nothing to the score", stacklevel=2)
    return float(diag.sum()) / total


def rri_converged(history: Sequence[float], epsilon_s: float) -> bool:
    """True once the two most recent changes of the score are both below
    ``epsilon_s``.  Needs at least three entries.
    """
    if len(history) < 3:
        return False
    a, b, c = history[-3:]
    return abs(b - a) < epsilon_s and abs(c - b) < epsilon_s
