"""Reference implementations and fixtures that only the tests use.

The package computes every distance through the metric registry of
``manikernels.kernels`` and audits Gram matrices with one ``eigvalsh``;
the functions here restate the definitions directly (a pairwise SPD
distance per metric, Karcher means, the PSD and CND tests, linear
Grams, Gram readers, an inverse square root, the per-problem CV grid
search) so the tests can check the package against them, and keeps a
few input fixtures.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import replace

import numpy as np

from manikernels.errors import (
    BadParamError,
    DimMismatchError,
    NoConvergenceError,
    NotSpdError,
    UnsupportedMetricError,
)
from manikernels.data import stack_items
from manikernels.grassmann import make_grassmann
from manikernels.kernels import (
    GramMatrix,
    KernelSpec,
    gram_from_squared_distances,
    squared_distance_matrix,
)
from manikernels.learn import (
    multiclass_svm_predict,
    multiclass_svm_train,
    principal_gram,
    svm_predict,
    svm_train,
)
from manikernels.matrixops import (
    _spectral,
    cholesky_lower,
    frob,
    require_symmetric,
    spd_exp,
    spd_log,
    spd_power,
)
from manikernels.spd import DEFAULT_POWER_ALPHA, affine_invariant_sq, stein_divergence_sq

# ---------------------------------------------------------------------------
# Inverse square root with a roundoff clamp
# ---------------------------------------------------------------------------


class ClampWarning(UserWarning):
    """Roundoff-scale eigenvalue was clamped to the SPD floor."""


def _clamped_to_floor(w, floor):
    """Ascending eigenvalues ``w`` of each item, raised to its floor where
    they sit at or below it by roundoff (a ClampWarning)."""
    if np.any(w[..., 0] <= floor):
        if np.any(w[..., 0] <= -np.abs(floor)):
            raise NotSpdError(f"min eigenvalue {np.min(w[..., 0]):.3e} is negative beyond roundoff")
        warnings.warn("eigenvalue clamped to SPD floor in inverse square root", ClampWarning)
        w = np.maximum(w, np.asarray(floor)[..., None])
    return w


def spd_inv_sqrt(s) -> np.ndarray:
    """S^{-1/2} of an SPD matrix or stack, with eigenvalues clamped at the
    SPD floor.

    Clamping only absorbs roundoff; a clamp is reported as a ClampWarning.
    """
    return _spectral(s, lambda w: w**-0.5, _clamped_to_floor)


# ---------------------------------------------------------------------------
# SPD distances, Karcher means and dispersion
# ---------------------------------------------------------------------------

SPD_METRICS = (
    "log-euclidean",
    "affine-invariant",
    "cholesky",
    "power-euclidean",
    "root-stein",
)


def _check_metric(metric: str) -> None:
    if metric not in SPD_METRICS:
        raise UnsupportedMetricError(f"unknown SPD metric {metric!r}")


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
    return spd_exp(spd_log(stack_items(points)).mean(axis=0))


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
    stack = stack_items(points)
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
    return frob(spd_log(inv_sqrt @ stack_items(points) @ inv_sqrt).mean(axis=0))


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
    dists = spd_distance(metric, mean, stack_items(points), alpha=alpha)
    return float(np.mean(dists**p))


# ---------------------------------------------------------------------------
# Definiteness tests, bandwidth heuristic and linear Grams
# ---------------------------------------------------------------------------

def psd_check(matrix, tol: float) -> tuple[bool, float]:
    """(min eigenvalue >= -tol, min eigenvalue) for a symmetric matrix."""
    m = require_symmetric(matrix)
    w = np.linalg.eigvalsh(m)
    return bool(w[0] >= -tol), float(w[0])


def cnd_check(matrix, tol: float) -> tuple[bool, float]:
    """Conditionally-negative-semi-definite test via the centering projector.

    With P = I - (1/m) 1 1^T, the matrix M satisfies c^T M c <= 0 for every
    c summing to zero iff P M P has no eigenvalue above 0. Returns
    (max eig of PMP <= tol, max eig of PMP).
    """
    m = require_symmetric(matrix)
    size = m.shape[0]
    p = np.eye(size) - np.full((size, size), 1.0 / size)
    pmp = require_symmetric(p @ m @ p)
    w = np.linalg.eigvalsh(pmp)
    return bool(w[-1] <= tol), float(w[-1])


def median_heuristic_gamma(d2) -> float:
    """1 / median of the off-diagonal squared distances (1.0 if degenerate)."""
    d2 = np.asarray(d2, dtype=float)
    m = d2.shape[0]
    if m < 2:
        return 1.0
    off = d2[np.triu_indices(m, 1)]
    med = float(np.median(off))
    return 1.0 / med if med > 0 else 1.0


def projection_linear_gram(points) -> np.ndarray:
    """Gamma-free baseline Gram on subspaces: K_ij = ||Y_i^T Y_j||_F^2.

    The linear kernel of the projector embedding Y -> Y Y^T; for
    orthonormal bases it equals r - d^2 under the projection metric.
    """
    pts = stack_items(points)
    return pts.shape[-1] - squared_distance_matrix("grassmann", "projection", pts)


def euclidean_linear_gram(points) -> np.ndarray:
    """Plain linear-kernel Gram of flattened points: K = X X^T."""
    pts = stack_items(points)
    flat = np.stack([p.ravel() for p in pts])
    k = flat @ flat.T
    return (k + k.T) / 2.0


# ---------------------------------------------------------------------------
# Readers of the Gram files the CLI writes
# ---------------------------------------------------------------------------

def gram_from_csv(path) -> GramMatrix:
    """Read a Gram matrix written by ``kernels.gram_to_csv``."""
    meta: dict[str, str] = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" in token:
                        key, val = token.split("=", 1)
                        meta[key] = val
                continue
            rows.append([float(x) for x in line.split(",")])
    spec = KernelSpec(
        manifold=meta["manifold"],
        metric=meta["metric"],
        gamma=float(meta["gamma"]),
        alpha=float(meta.get("alpha", DEFAULT_POWER_ALPHA)),
    )
    min_eigen = float(meta["min_eigen"]) if "min_eigen" in meta else None
    return GramMatrix(entries=np.array(rows), spec=spec, min_eigen=min_eigen)


def gram_from_json(path) -> GramMatrix:
    """Read a Gram matrix written by ``kernels.gram_to_json``."""
    with open(path) as fh:
        payload = json.load(fh)
    return GramMatrix(
        entries=np.array(payload["entries"], dtype=float),
        spec=KernelSpec(**payload["spec"]),
        min_eigen=payload.get("min_eigen"),
    )


# ---------------------------------------------------------------------------
# Fixtures: a subspace sample, a planar two-class set and a PGM writer
# ---------------------------------------------------------------------------

def sample_grassmann(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    """Uniform-ish subspace sample: orthonormalized Gaussian n x r matrix."""
    return make_grassmann(rng.standard_normal((n, r)))


def synth_two_rings(
    per_ring: int,
    seed: int = 0,
    radii=(1.0, 2.0),
    noise_scale: float = 0.1,
):
    """Two noisy concentric rings in the plane; a classic non-linear pair."""
    rng = np.random.default_rng(seed)
    points, labels = [], []
    for c, radius in enumerate(radii):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=per_ring)
        radiuses = radius + noise_scale * rng.standard_normal(per_ring)
        for t, r in zip(angles, radiuses):
            points.append(np.array([r * np.cos(t), r * np.sin(t)]))
            labels.append(c)
    return points, np.array(labels, dtype=int)


def write_pgm(path, image, maxval: int = 255) -> None:
    """Ascii (P2) PGM writer; values clipped into [0, maxval] and rounded."""
    img = np.asarray(image, dtype=float)
    vals = np.clip(np.round(img), 0, maxval).astype(int)
    lines = ["P2", f"{img.shape[1]} {img.shape[0]}", str(maxval)]
    for row in vals:
        lines.append(" ".join(str(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Cross-validated grid search, one SMO solve per problem
# ---------------------------------------------------------------------------

def cv_select_per_problem(d2, labels, spec, args):
    """``cli._cv_select`` as one ``svm_train`` (or ``multiclass_svm_train``)
    call per fold and C on the fold's principal Gram, the loop the batched
    solve replaced; it must pick the same (gram, C)."""
    from manikernels.cli import _binary_labels, _cv_folds, _grid

    if args.cv < 2:
        raise BadParamError(f"--cv needs at least 2 folds, got {args.cv}")
    gammas = _grid(args.gamma_grid, "gamma grid") if args.gamma_grid else [spec.gamma]
    cs = _grid(args.c_grid, "C grid") if args.c_grid else [args.C]
    labels = np.asarray(labels)
    binary = len(np.unique(labels)) == 2
    y = _binary_labels(labels) if binary else labels
    folds = _cv_folds(len(labels), args.cv, args.seed)
    best = None
    for gamma in gammas:
        gram = gram_from_squared_distances(replace(spec, gamma=gamma), d2)
        correct = [0] * len(cs)
        total = 0
        for f in range(args.cv):
            test = folds == f
            train = ~test
            if len(np.unique(labels[train])) < 2:
                continue
            sub = principal_gram(gram, train)
            cols = gram.entries[np.ix_(train, test)]
            for c_index, c_val in enumerate(cs):
                if binary:
                    model = svm_train(sub, y[train], c_val, kkt_tol=args.kkt_tol)
                    pred = svm_predict(model, cols)
                else:
                    model = multiclass_svm_train(sub, y[train], c_val, mode=args.mode, kkt_tol=args.kkt_tol)
                    pred = multiclass_svm_predict(model, cols)
                correct[c_index] += int(np.sum(pred == y[test]))
            total += int(test.sum())
        for c_index, c_val in enumerate(cs):
            score = correct[c_index] / total if total else 0.0
            if best is None or score > best[0]:
                best = (score, gram, c_val)
    return best[1], best[2]
