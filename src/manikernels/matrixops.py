"""Dense symmetric/rectangular matrix primitives and the SPD contract.

Everything here is a thin, contract-checked layer over LAPACK (via
``numpy.linalg``): the symmetry check, the relative SPD eigenvalue
floor, SPD matrix functions (log, exp, fractional power) computed
through the eigendecomposition, Cholesky with the positive-diagonal
convention, and the sign convention of eigen- and singular-vector
columns.

The symmetric-matrix functions take one ``(d, d)`` matrix or an
``(..., d, d)`` stack of them and act on each matrix of a stack alone;
LAPACK runs the same routine on each matrix, so a stacked call returns
exactly what a loop over the items would. A check fails for the whole
call when any one item fails it.

All functions are pure and operate on ``float64`` arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadShapeError,
    NoConvergenceError,
    NonSymmetricError,
    NotSpdError,
    ZeroExponentError,
)

# Relative symmetry tolerance; inputs within it are symmetrized, anything
# worse is rejected.
SYM_TOL = 1e-9


def frob(a):
    """Frobenius norm of a matrix, or of each matrix of a stack."""
    return np.linalg.norm(a, axis=(-2, -1))


def _transpose(s) -> np.ndarray:
    return np.swapaxes(s, -1, -2)


def require_symmetric(s) -> np.ndarray:
    """Return the symmetrized copy (S + S^T)/2 of a matrix or of each
    matrix of a stack, rejecting the call when any asymmetry
    ||S - S^T||_F / max(1, ||S||_F) exceeds ``SYM_TOL``."""
    s = np.asarray(s, dtype=float)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise BadShapeError(f"expected a square matrix or a stack of them, got shape {s.shape}")
    st = _transpose(s)
    defect = np.max(frob(s - st) / np.maximum(1.0, frob(s)), initial=0.0)
    if defect > SYM_TOL:
        raise NonSymmetricError(f"asymmetry {defect:.3e} exceeds tolerance {SYM_TOL:.3e}")
    return (s + st) / 2.0


def _floor_of_trace(trace, d):
    return 1e-12 * np.maximum(1.0, trace / d)


def spd_floor(s):
    """Relative eigenvalue floor below which a matrix (each matrix of a
    stack) is not accepted as SPD: 1e-12 * max(1, trace / d)."""
    s = np.asarray(s, dtype=float)
    return _floor_of_trace(np.trace(s, axis1=-2, axis2=-1), s.shape[-1])


def _above_floor(w, floor):
    """Ascending eigenvalues ``w`` of each item, checked to clear its floor."""
    low = w[..., 0] <= floor
    if np.any(low):
        raise NotSpdError(f"min eigenvalue {np.min(w[..., 0][low]):.3e} at or below SPD floor")
    return w


def _eigh(s, vectors=True):
    """Ascending eigh (eigvalsh without ``vectors``), failures mapped."""
    try:
        return np.linalg.eigh(s) if vectors else np.linalg.eigvalsh(s)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc


def _spectral(s, fn, floor_rule=None) -> np.ndarray:
    """f(S) = U diag(f(w)) U^T of a symmetric matrix or of each matrix of
    a stack, re-symmetrized. ``floor_rule(w, floor)`` screens the
    eigenvalues against the SPD floor first."""
    s = require_symmetric(s)
    w, u = _eigh(s)
    if floor_rule is not None:
        w = floor_rule(w, spd_floor(s))
    out = (u * fn(w)[..., None, :]) @ _transpose(u)
    return (out + _transpose(out)) / 2.0


def spd_log(s) -> np.ndarray:
    """Matrix logarithm of an SPD matrix (or stack) via eigendecomposition.

    Raises NotSpdError when a smallest eigenvalue is at or below the
    relative floor.
    """
    return _spectral(s, np.log, _above_floor)


def spd_exp(a) -> np.ndarray:
    """Matrix exponential of a symmetric matrix (or stack); the result is SPD."""
    return _spectral(a, np.exp)


def require_spd_exp(a) -> None:
    """Reject a symmetric matrix (or stack) whose exponential fails the
    SPD floor, judged from the eigenvalues w of A without forming
    exp(A): its eigenvalues are exp(w) and its trace is their sum."""
    w = np.exp(_eigh(require_symmetric(a), vectors=False))
    _above_floor(w, _floor_of_trace(w.sum(axis=-1), w.shape[-1]))


def spd_power(s, alpha: float) -> np.ndarray:
    """Fractional power S^alpha of an SPD matrix or stack (eigenvalues
    mapped, basis kept)."""
    if alpha == 0:
        raise ZeroExponentError("matrix power with exponent 0 is not defined here")
    return _spectral(s, lambda w: w**alpha, _above_floor)


def _fix_column_signs(*mats):
    """Flip columns in place, jointly across ``mats``, so that the
    largest-magnitude entry of each column of the first is positive; a
    tie goes to the first index (``argmax``)."""
    lead = mats[0]
    for c in range(lead.shape[1]):
        j = int(np.argmax(np.abs(lead[:, c])))
        if lead[j, c] < 0:
            for mat in mats:
                mat[:, c] = -mat[:, c]


def cholesky_lower(s) -> np.ndarray:
    """Lower Cholesky factor with strictly positive diagonal (L @ L.T == S)
    of a matrix or of each matrix of a stack."""
    s = require_symmetric(s)
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"Cholesky pivot failure: {exc}") from exc
