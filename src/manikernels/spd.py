"""The manifold of symmetric positive definite matrices.

Provides the validated SPD point constructor and the two SPD metrics
that are not embeddings, as row functions from one point to a stack of
points that the distance drivers checked with :func:`make_spd` (the
root-Stein row also takes each point's log-determinant, which the
drivers compute once per stack):

* ``affine-invariant``   ||log(S1^{-1/2} S2 S1^{-1/2})||_F
* ``root-stein``         [log det((S1+S2)/2) - (1/2) log det(S1 S2)]^{1/2}

The log-Euclidean, Cholesky and power-Euclidean metrics are embeddings
and live in the metric registry of :mod:`~manikernels.kernels`. The
root-Stein divergence is not a geodesic distance and its triangle
inequality is not relied on anywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import NotSpdError, NumericalError
from .matrixops import _above_floor, _eigh, cholesky_lower, require_symmetric, spd_floor

#: Default exponent for the power-Euclidean metric.
DEFAULT_POWER_ALPHA = 0.5

# Negative Stein radicand tolerated as roundoff before clamping to 0.
_STEIN_CLAMP = 1e-12


def make_spd(raw) -> np.ndarray:
    """Validated SPD matrix, or stack of them, from raw square arrays.

    Returns the symmetrized input; rejects it when the smallest eigenvalue
    of any item is at or below the relative floor.
    """
    s = require_symmetric(raw)
    _above_floor(_eigh(s, vectors=False), spd_floor(s))
    return s


def log_det_spd(s):
    """log det(S) via Cholesky, 2 * sum(log diag(L)), of one matrix or a stack.

    Reads the lower triangle only: S is taken to be symmetric.
    """
    try:
        length = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"Cholesky pivot failure: {exc}") from exc
    return 2.0 * np.sum(np.log(np.diagonal(length, axis1=-2, axis2=-1)), axis=-1)


def stein_divergence_sq(x, log_det_x, ys, log_det_ys):
    """Squared root-Stein divergence from ``x`` to one SPD matrix or each
    of a stack, given their :func:`log_det_spd` values, with
    roundoff-scale negatives clamped."""
    val = log_det_spd((x + ys) / 2.0) - 0.5 * (log_det_x + log_det_ys)
    if np.min(val) < -_STEIN_CLAMP:
        raise NumericalError(f"Stein radicand {np.min(val):.3e} negative beyond roundoff")
    return np.maximum(val, 0.0)


def affine_invariant_sq(x, ys):
    """Squared affine-invariant distance from ``x`` to one SPD matrix or
    each of a stack.

    With x = L L^T, this is the sum of log^2 of the eigenvalues of the
    whitened L^{-1} Y L^{-T}, which are those of x^{-1} Y.
    """
    inv_length = np.linalg.inv(cholesky_lower(x))
    whitened = inv_length @ ys @ inv_length.T
    whitened = (whitened + np.swapaxes(whitened, -1, -2)) / 2.0
    w = _above_floor(_eigh(whitened, vectors=False), spd_floor(whitened))
    return np.sum(np.log(w) ** 2, axis=-1)
