"""The Grassmann manifold of r-dimensional subspaces of R^n.

Points are n x r matrices with orthonormal columns; every function here
depends on the column span only. The principal angles theta_i between
two subspaces, the arccosines of the singular values of Y1^T Y2, are
taken from one basis to one basis or to each of a stack; the metrics
built on them are entries of :data:`manikernels.kernels.METRICS`.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadShapeError,
    DimMismatchError,
    NoConvergenceError,
    NumericalError,
    RankDeficientError,
)
from .matrixops import _fix_column_signs

# Singular values of Y1^T Y2 may exceed 1 by roundoff; anything beyond this
# width is a genuine numerical problem.
_COS_CLAMP = 1e-8


def make_grassmann(raw) -> np.ndarray:
    """Orthonormal basis spanning the columns of ``raw``, or of each
    matrix of an ``(..., n, r)`` stack.

    Uses the thin QR factorization with the positive-diagonal convention, so
    already-orthonormal inputs are returned essentially unchanged. A stack
    equals the loop over its items bit for bit, and fails if any item fails.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim < 2:
        raise BadShapeError(f"expected a matrix or a stack of them, got shape {raw.shape}")
    n, r = raw.shape[-2:]
    if r < 1 or n <= r:
        raise BadShapeError(f"need n > r >= 1, got {n} x {r}")
    sv = np.linalg.svd(raw, compute_uv=False)
    low = (sv[..., 0] == 0.0) | (sv[..., -1] <= max(n, r) * np.finfo(float).eps * sv[..., 0])
    if np.any(low):
        min_sv = np.min(sv[..., -1][low])
        raise RankDeficientError(f"columns are not full rank (min sv {min_sv:.3e})")
    q, rr = np.linalg.qr(raw)
    signs = np.sign(np.diagonal(rr, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def require_orthonormal(y) -> np.ndarray:
    """``y`` back, unless max |Y^T Y - I| of a basis exceeds the clamp width."""
    defect = np.max(np.abs(np.swapaxes(y, -1, -2) @ y - np.eye(y.shape[-1])), initial=0.0)
    if not defect <= _COS_CLAMP:
        raise NumericalError(f"basis columns not orthonormal: max |Y^T Y - I| = {defect:.3e}")
    return y


def principal_angles(y1, y2) -> np.ndarray:
    """Principal angles between span(y1) and span(y2), ascending in [0, pi/2].

    ``y2`` is one basis or a stack of them; the angles run along the last axis.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if y1.ndim != 2 or y2.shape[-2:] != y1.shape:
        raise DimMismatchError(f"shape mismatch: {y1.shape} vs {y2.shape}")
    s = np.linalg.svd(y1.T @ y2, compute_uv=False)
    if s.size and np.max(s[..., 0]) > 1.0 + _COS_CLAMP:
        raise NumericalError(
            f"principal-angle cosine {np.max(s[..., 0]):.12f} exceeds 1 beyond roundoff"
        )
    s = np.clip(s, 0.0, 1.0)
    # cosines come out non-increasing, so the angles are already ascending
    return np.arccos(s)


def subspace_from_vectors(f, r: int) -> np.ndarray:
    """Dominant r-dimensional subspace of a set of column vectors.

    ``f`` is n x p with one descriptor per column; the basis is the top-r
    left singular vectors. Columns are sign-normalized (largest-magnitude
    entry positive) for reproducibility.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2:
        raise BadShapeError(f"expected a 2-d array, got shape {f.shape}")
    n, p = f.shape
    if r < 1 or r >= min(n, p):
        raise BadShapeError(f"need 1 <= r < min(n, p) = {min(n, p)}, got r = {r}")
    try:
        u, s, _ = np.linalg.svd(f, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD failed: {exc}") from exc
    if s[0] == 0.0 or s[r - 1] <= max(n, p) * np.finfo(float).eps * s[0]:
        raise RankDeficientError(f"rank below {r} (sv_{r} = {s[r - 1]:.3e})")
    basis = u[:, :r].copy()
    _fix_column_signs(basis)
    return basis
