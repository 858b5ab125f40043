"""The manifold of symmetric positive definite matrices.

Provides the validated SPD point constructor, five metrics, Karcher
means, and the dispersion statistic used to rank covariance descriptors.

Metrics (S1, S2 SPD, ``chol`` the lower Cholesky factor):

* ``log-euclidean``      ||log S1 - log S2||_F
* ``affine-invariant``   ||log(S1^{-1/2} S2 S1^{-1/2})||_F
* ``cholesky``           ||chol S1 - chol S2||_F
* ``power-euclidean``    (1/|alpha|) ||S1^alpha - S2^alpha||_F
* ``root-stein``         [log det((S1+S2)/2) - (1/2) log det(S1 S2)]^{1/2}

The root-Stein divergence is not a geodesic distance and its triangle
inequality is not relied on anywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadParamError,
    DimMismatchError,
    NoConvergenceError,
    NotSpdError,
    NumericalError,
    UnsupportedMetricError,
)
from .matrixops import (
    _above_floor,
    _eigh,
    _stack_points,
    cholesky_lower,
    frob,
    require_symmetric,
    spd_exp,
    spd_floor,
    spd_inv_sqrt,
    spd_log,
    spd_power,
)

SPD_METRICS = (
    "log-euclidean",
    "affine-invariant",
    "cholesky",
    "power-euclidean",
    "root-stein",
)

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
    _above_floor(_eigh(s)[0], spd_floor(s))
    return s


def _check_metric(metric: str) -> None:
    if metric not in SPD_METRICS:
        raise UnsupportedMetricError(f"unknown SPD metric {metric!r}")


def log_det_spd(s):
    """log det(S) via Cholesky, 2 * sum(log diag(L)), of one matrix or a stack.

    Reads the lower triangle only: S is taken to be symmetric.
    """
    try:
        length = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"Cholesky pivot failure: {exc}") from exc
    return 2.0 * np.sum(np.log(np.diagonal(length, axis1=-2, axis2=-1)), axis=-1)


def stein_divergence_sq(x, ys):
    """Squared root-Stein divergence from ``x`` to one SPD matrix or each
    of a stack, with roundoff-scale negatives clamped."""
    x, ys = require_symmetric(x), require_symmetric(ys)
    if ys.shape[-2:] != x.shape:
        raise DimMismatchError(f"shape mismatch: {x.shape} vs {ys.shape}")
    log_det_x = log_det_spd(x)
    log_det_ys = log_det_spd(ys)
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
    x, ys = require_symmetric(x), require_symmetric(ys)
    if ys.shape[-2:] != x.shape:
        raise DimMismatchError(f"shape mismatch: {x.shape} vs {ys.shape}")
    inv_length = np.linalg.inv(cholesky_lower(x))
    whitened = inv_length @ ys @ inv_length.T
    whitened = (whitened + np.swapaxes(whitened, -1, -2)) / 2.0
    w = _above_floor(np.linalg.eigvalsh(whitened), spd_floor(whitened))
    return np.sum(np.log(w) ** 2, axis=-1)


def spd_distance(metric: str, s1, s2, alpha: float = DEFAULT_POWER_ALPHA):
    """Distance from ``s1`` to one SPD matrix ``s2`` (a float), or to each
    of a stack of them (an array), under the selected metric."""
    _check_metric(metric)
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if s2.shape[-2:] != s1.shape:
        raise DimMismatchError(f"shape mismatch: {s1.shape} vs {s2.shape}")
    if metric == "log-euclidean":
        return frob(spd_log(s1) - spd_log(s2))
    if metric == "affine-invariant":
        return np.sqrt(affine_invariant_sq(s1, s2))
    if metric == "cholesky":
        return frob(cholesky_lower(s1) - cholesky_lower(s2))
    if metric == "power-euclidean":
        if alpha == 0:
            raise BadParamError("power-euclidean alpha must be nonzero")
        return frob(spd_power(s1, alpha) - spd_power(s2, alpha)) / abs(alpha)
    # root-stein
    return np.sqrt(stein_divergence_sq(s1, s2))


def karcher_mean_log_euclidean(points) -> np.ndarray:
    """Closed-form log-Euclidean mean exp(mean(log X_i))."""
    return spd_exp(spd_log(_stack_points(points)).mean(axis=0))


def karcher_mean_iterative(
    metric: str,
    points,
    max_iter: int = 500,
    tol: float = 1e-10,
    alpha: float = DEFAULT_POWER_ALPHA,
) -> np.ndarray:
    """Karcher mean under the selected metric.

    Cholesky and power-Euclidean means are the closed-form pullback of the
    Euclidean mean in the mapped space; the log-Euclidean mean defers to
    the closed form. The affine-invariant mean runs the fixed-point
    iteration M <- M^{1/2} exp(mean_i log(M^{-1/2} X_i M^{-1/2})) M^{1/2}
    until the tangent-step norm drops below ``tol``.
    """
    _check_metric(metric)
    if metric == "root-stein":
        raise UnsupportedMetricError("no Karcher mean implemented for root-stein")
    stack = _stack_points(points)
    if metric == "log-euclidean":
        return karcher_mean_log_euclidean(stack)
    if metric == "cholesky":
        mean_l = cholesky_lower(stack).mean(axis=0)
        return mean_l @ mean_l.T
    if metric == "power-euclidean":
        if alpha == 0:
            raise BadParamError("power-euclidean alpha must be nonzero")
        return spd_power(spd_power(stack, alpha).mean(axis=0), 1.0 / alpha)
    # affine-invariant: fixed-point iteration, warm-started at the
    # log-Euclidean mean.
    mean = karcher_mean_log_euclidean(stack)
    for _ in range(max_iter):
        inv_sqrt = spd_inv_sqrt(mean)
        tangent = spd_log(inv_sqrt @ stack @ inv_sqrt).mean(axis=0)
        step = frob(tangent)
        sqrt = spd_power(mean, 0.5)
        mean = require_symmetric(sqrt @ spd_exp(tangent) @ sqrt)
        if step < tol:
            return mean
    raise NoConvergenceError(f"affine-invariant mean: no convergence in {max_iter} iterations")


def affine_invariant_grad_norm(mean, points) -> float:
    """Norm of the Riemannian gradient of the affine-invariant mean objective.

    Zero exactly at the Karcher mean; used as a stationarity certificate.
    """
    inv_sqrt = spd_inv_sqrt(mean)
    return frob(spd_log(inv_sqrt @ _stack_points(points) @ inv_sqrt).mean(axis=0))


def dispersion_stat(
    metric: str,
    points,
    p: float,
    mean,
    alpha: float = DEFAULT_POWER_ALPHA,
) -> float:
    """Mean p-th power of distances from each point to ``mean``:
    (1/m) * sum_i d(X_i, mean)^p."""
    if p <= 0:
        raise BadParamError(f"dispersion exponent must be positive, got {p}")
    dists = spd_distance(metric, mean, _stack_points(points), alpha=alpha)
    return float(np.mean(dists**p))
