"""Dense symmetric/rectangular matrix primitives.

Everything here is a thin, contract-checked layer over LAPACK (via
``numpy.linalg``): symmetric eigendecomposition, SPD matrix functions
(log, exp, fractional power) computed through the eigendecomposition,
Cholesky with the positive-diagonal convention, and thin SVD.

All functions are pure and operate on ``float64`` arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadShapeError,
    ClampWarning,
    NoConvergenceError,
    NonSymmetricError,
    NotSpdError,
    ZeroExponentError,
)

# Relative symmetry tolerance; inputs within 10x of it are symmetrized,
# anything worse is rejected.
SYM_TOL = 1e-10

# Orthonormality / reconstruction tolerances used by invariant checks.
ORTHO_TOL = 1e-9
RECON_TOL = 1e-9


def frob(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def symmetry_defect(s) -> float:
    """Relative asymmetry ||S - S^T||_F / max(1, ||S||_F)."""
    s = np.asarray(s, dtype=float)
    return frob(s - s.T) / max(1.0, frob(s))


def require_symmetric(s, tol: float = 10 * SYM_TOL) -> np.ndarray:
    """Return the symmetrized copy (S + S^T)/2, rejecting matrices whose
    asymmetry exceeds ``tol`` relative to max(1, ||S||_F)."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise BadShapeError(f"expected a square matrix, got shape {s.shape}")
    defect = symmetry_defect(s)
    if defect > tol:
        raise NonSymmetricError(f"asymmetry {defect:.3e} exceeds tolerance {tol:.3e}")
    return (s + s.T) / 2.0


def spd_floor(s) -> float:
    """Relative eigenvalue floor below which a matrix is not accepted as SPD."""
    s = np.asarray(s, dtype=float)
    d = s.shape[0]
    return 1e-12 * max(1.0, float(np.trace(s)) / d)


@dataclass(frozen=True)
class EigenDecomp:
    """Symmetric eigendecomposition with eigenvalues in non-increasing order."""

    values: np.ndarray  # (d,)
    vectors: np.ndarray  # (d, d), orthonormal columns


@dataclass(frozen=True)
class ThinSvd:
    """Thin SVD A = u @ diag(s) @ v.T with non-increasing singular values."""

    u: np.ndarray  # (n, r)
    s: np.ndarray  # (r,)
    v: np.ndarray  # (r, r)


def sym_eig(s) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues sorted descending."""
    s = require_symmetric(s)
    try:
        w, u = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc
    return EigenDecomp(values=w[::-1].copy(), vectors=u[:, ::-1].copy())


def _eigh(s):
    """Ascending eigh with the solver-failure contract applied."""
    try:
        return np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigensolver failed: {exc}") from exc


def _apply_spectral(s, fn) -> np.ndarray:
    """f(S) = U diag(f(w)) U^T for symmetric S; output re-symmetrized."""
    w, u = _eigh(s)
    out = (u * fn(w)) @ u.T
    return (out + out.T) / 2.0


def spd_log(s) -> np.ndarray:
    """Matrix logarithm of an SPD matrix via eigendecomposition.

    Raises NotSpdError when the smallest eigenvalue is at or below the
    relative floor.
    """
    s = require_symmetric(s)
    w, u = _eigh(s)
    if w[0] <= spd_floor(s):
        raise NotSpdError(f"min eigenvalue {w[0]:.3e} at or below SPD floor")
    out = (u * np.log(w)) @ u.T
    return (out + out.T) / 2.0


def spd_exp(a) -> np.ndarray:
    """Matrix exponential of a symmetric matrix; the result is SPD."""
    a = require_symmetric(a)
    return _apply_spectral(a, np.exp)


def spd_power(s, alpha: float) -> np.ndarray:
    """Fractional power S^alpha of an SPD matrix (eigenvalues mapped, basis kept)."""
    if alpha == 0:
        raise ZeroExponentError("matrix power with exponent 0 is not defined here")
    s = require_symmetric(s)
    w, u = _eigh(s)
    if w[0] <= spd_floor(s):
        raise NotSpdError(f"min eigenvalue {w[0]:.3e} at or below SPD floor")
    out = (u * w**alpha) @ u.T
    return (out + out.T) / 2.0


def spd_inv_sqrt(s) -> np.ndarray:
    """S^{-1/2} with eigenvalues clamped at the SPD floor.

    Clamping only absorbs roundoff; a clamp is reported as a ClampWarning.
    """
    s = require_symmetric(s)
    w, u = _eigh(s)
    floor = spd_floor(s)
    if w[0] <= floor:
        if w[0] <= -abs(floor):
            raise NotSpdError(f"min eigenvalue {w[0]:.3e} is negative beyond roundoff")
        warnings.warn("eigenvalue clamped to SPD floor in inverse square root", ClampWarning)
        w = np.maximum(w, floor)
    out = (u * w**-0.5) @ u.T
    return (out + out.T) / 2.0


def cholesky_lower(s) -> np.ndarray:
    """Lower Cholesky factor with strictly positive diagonal (L @ L.T == S)."""
    s = require_symmetric(s)
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(f"Cholesky pivot failure: {exc}") from exc


def thin_svd(a) -> ThinSvd:
    """Thin SVD of an n x r matrix (n >= r >= 1)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise BadShapeError(f"expected a 2-d array, got shape {a.shape}")
    n, r = a.shape
    if r < 1 or n < r:
        raise BadShapeError(f"thin SVD needs n >= r >= 1, got {n} x {r}")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD failed: {exc}") from exc
    return ThinSvd(u=u, s=s, v=vh.T.copy())
