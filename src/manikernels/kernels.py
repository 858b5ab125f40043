"""Gaussian RBF kernels built from manifold metrics.

A kernel is specified by a manifold, a metric on it, and a bandwidth
gamma > 0; its value is k(x, y) = exp(-gamma * d^2(x, y)). Whether such
a kernel is positive definite for every gamma depends on the metric:
squared distances that embed isometrically in an inner product space
(log-Euclidean, Cholesky, power-Euclidean on SPD; projection on
Grassmann; plain Euclidean) give PSD Gram matrices for all gamma, the
others do not.

Every metric is one entry of :data:`METRICS`, keyed by (manifold,
metric), of one of two kinds:

* an embedding ``points -> (features, scale)`` with
  d^2(x, y) = scale * ||phi(x) - phi(y)||^2, whose distance matrices
  come from matrix products of the features (log-Euclidean, Cholesky,
  power-Euclidean with scale 1/alpha^2, Euclidean; and projection,
  phi(Y) = YY^T / sqrt(2), which keeps each basis Y and takes
  r - ||X^T Y||_F^2 from r x r cross-Grams, never an n x n projector);
* a row function ``(x, ys) -> d^2`` from one point to a stack of points
  (affine-invariant and root-Stein from :mod:`~manikernels.spd`; the
  other four Grassmann metrics, each d^2 straight from the principal
  angles of :func:`~manikernels.grassmann.principal_angles`).

This module builds distance and Gram matrices from the registry, audits
their smallest eigenvalue (once, on first use), searches for
indefiniteness witnesses, and writes Gram matrices to CSV and JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import grassmann as gr
from . import spd as sp
from .data import _sample_symmetric, save_json, save_matrix_csv, stack_items, typed
from .errors import (
    BadParamError,
    BadShapeError,
    DimMismatchError,
    NumericalError,
    UnsupportedMetricError,
)
from .matrixops import cholesky_lower, require_spd_exp, spd_exp, spd_log, spd_power
from .spd import DEFAULT_POWER_ALPHA, make_spd

MANIFOLDS = ("spd", "grassmann", "euclidean")

#: Indefiniteness threshold scale: an eigenvalue below -WITNESS_TOL_FACTOR * m
#: is a genuine witness rather than roundoff (desk scale, m <= a few hundred).
WITNESS_TOL_FACTOR = 1e-7

#: Gap allowed, per m^2, between the smallest eigenvalue of one Gram from
#: the stacked ``eigvalsh`` screen of :func:`definiteness_search` and from
#: ``eigh``. Both solvers are backward stable, so each is within a modest
#: multiple of m * eps * ||K||_2 of the exact value, and ||K||_2 <= m for
#: entries in (0, 1]. Measured gaps at m = 40 are about 1e-15, far inside
#: the 1.4e-12 this allows.
_SCREEN_SLACK = 4 * np.finfo(float).eps


def _flat(stack) -> np.ndarray:
    return stack.reshape(len(stack), -1)


#: Floats in one block of r x r cross-Grams of :func:`_projection_sq_distances`.
_CROSS_GRAM_BLOCK = 1 << 18


def _projection_sq_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """||phi(x_i) - phi(y_j)||^2 = r - ||X_i^T Y_j||_F^2 (clamped at 0) of the
    projection embedding phi(Y) = YY^T / sqrt(2), kept as the bases Y: one
    matrix product gives the r x r cross-Grams of a block of xs and all ys."""
    m, n, r = ys.shape
    y_cols = np.transpose(ys, (1, 2, 0)).reshape(n, r * m)  # column (c, j): Y_j[:, c]
    step = max(1, _CROSS_GRAM_BLOCK // max(1, m * r * r))
    d2 = np.empty((len(xs), m))
    for i in range(0, len(xs), step):
        block = xs[i : i + step]
        cross = np.moveaxis(block, 0, 1).reshape(n, len(block) * r).T @ y_cols
        cross *= cross
        d2[i : i + step] = r - cross.reshape(len(block), r * r, m).sum(axis=1)
    return np.maximum(d2, 0.0, out=d2)


def _power_features(points, alpha):
    if alpha == 0:
        raise BadParamError("alpha must be nonzero")
    # numpy gives inf where Python floats raise on an overflowing square
    # or a division by 0.0; the distance driver rejects a non-finite scale
    return _flat(spd_power(points, alpha)), float(1.0 / np.float64(alpha) ** 2)


#: The metric registry: (manifold, metric) -> ("embed", points, alpha ->
#: (features, scale)) or ("row", x, ys -> d^2 from x to each of ys). An
#: embedding whose features are not flat vectors adds the function that
#: gives ||phi(x_i) - phi(y_j)||^2 from two stacks of them. A row entry may
#: add per-point terms, points -> one value per point, that the driver
#: computes once per stack; its row function then takes each point with its
#: term, (x, term_x, ys, terms_ys). Entries look their functions up at call
#: time, so a wrapped module function (a tracer's span, a test double) runs.
METRICS = {
    ("spd", "log-euclidean"): ("embed", lambda pts, alpha: (_flat(spd_log(pts)), 1.0)),
    ("spd", "cholesky"): ("embed", lambda pts, alpha: (_flat(cholesky_lower(make_spd(pts))), 1.0)),
    ("spd", "power-euclidean"): ("embed", _power_features),
    ("euclidean", "euclidean"): ("embed", lambda pts, alpha: (_flat(pts), 1.0)),
    ("spd", "affine-invariant"): ("row", lambda x, ys: sp.affine_invariant_sq(x, ys)),
    ("spd", "root-stein"): (
        "row",
        lambda x, ld_x, ys, ld_ys: sp.stein_divergence_sq(x, ld_x, ys, ld_ys),
        lambda pts: sp.log_det_spd(pts),
    ),
    ("grassmann", "projection"): (
        "embed", lambda pts, alpha: (gr.require_orthonormal(pts), 1.0), _projection_sq_distances
    ),
    ("grassmann", "arc-length"): (
        "row", lambda x, ys: np.sum(gr.principal_angles(x, ys) ** 2, axis=-1)
    ),
    ("grassmann", "fubini-study"): (
        "row", lambda x, ys: np.arccos(np.prod(np.cos(gr.principal_angles(x, ys)), axis=-1)) ** 2
    ),
    ("grassmann", "chordal-2norm"): (
        "row", lambda x, ys: 4.0 * np.max(np.sin(gr.principal_angles(x, ys) / 2.0) ** 2, axis=-1)
    ),
    ("grassmann", "chordal-fnorm"): (
        "row", lambda x, ys: 4.0 * np.sum(np.sin(gr.principal_angles(x, ys) / 2.0) ** 2, axis=-1)
    ),
}


def _lookup(manifold: str, metric: str):
    if manifold not in MANIFOLDS:
        raise BadParamError(f"unknown manifold {manifold!r}")
    if (manifold, metric) not in METRICS:
        raise UnsupportedMetricError(
            f"metric {metric!r} is not defined on manifold {manifold!r}"
        )
    return METRICS[manifold, metric]


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel selector: manifold, metric, bandwidth.

    ``alpha`` only matters for the power-Euclidean metric.
    """

    manifold: str
    metric: str
    gamma: float
    alpha: float = DEFAULT_POWER_ALPHA

    def __post_init__(self):
        _lookup(self.manifold, self.metric)
        if not 0 < typed(self.gamma, "gamma", float, 0) < np.inf:
            raise BadParamError(f"gamma must be a positive finite number, got {self.gamma}")
        if not np.isfinite(alpha := typed(self.alpha, "alpha", float, 0)) or alpha == 0:
            raise BadParamError(f"alpha must be a finite nonzero number, got {self.alpha}")


def _manifold_points(manifold: str, points) -> np.ndarray:
    """Points as one stack. On the SPD and Grassmann manifolds each point
    must be one matrix, so that the stacked matrix functions never read
    a stack of points as one point or one point as a stack."""
    pts = stack_items(points)
    if manifold != "euclidean" and pts.ndim != 3:
        raise BadShapeError(f"{manifold} points must be matrices, got point shape {pts.shape[1:]}")
    return pts


def _feature_sq_distances(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """||fx_i - fy_j||^2 from inner products, clamped at 0."""
    sq_x = np.einsum("ij,ij->i", fx, fx)
    sq_y = np.einsum("ij,ij->i", fy, fy)
    d2 = sq_x[:, None] + sq_y[None, :] - 2.0 * (fx @ fy.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _sq_distances(manifold: str, metric: str, xs, ys, alpha: float) -> np.ndarray:
    """d^2(x_i, y_j) from the registry entry. With ``ys`` None, the exactly
    symmetric triangle of ``xs``: an embedding's matrix is symmetrized with
    a zero diagonal, and a row function takes each point against the later
    points only and mirrors the upper rows."""
    kind, fn, *more = _lookup(manifold, metric)
    triangle = ys is None
    stacks = [_manifold_points(manifold, pts) for pts in ([xs] if triangle else [xs, ys])]
    if stacks[0].shape[1:] != stacks[-1].shape[1:]:
        raise DimMismatchError(f"point shapes differ: {stacks[0].shape[1:]} vs {stacks[-1].shape[1:]}")
    if kind == "embed":
        (sq_distances,) = more or [_feature_sq_distances]
        with np.errstate(all="ignore"):  # an overflow is reported below
            feats = [fn(pts, alpha) for pts in stacks]
            scale = feats[0][1]
            d2 = sq_distances(feats[0][0], feats[-1][0])
            if triangle:
                d2 = (d2 + d2.T) / 2.0
                np.fill_diagonal(d2, 0.0)
            d2 = d2 * scale
            if not (np.isfinite(scale) and np.isfinite(d2).all()):
                raise NumericalError(f"embedding gives non-finite squared distances (scale {scale!r})")
            return d2
    # each stack is checked once (SPD points against the floor, Grassmann bases
    # for orthonormal columns) and given its per-point terms (root-Stein's log-dets)
    check = make_spd if manifold == "spd" else gr.require_orthonormal
    args = [[pts, *(term(pts) for term in more)] for pts in map(check, stacks)]
    d2 = np.zeros((len(stacks[0]), len(stacks[-1])))
    for i in range(len(d2) - triangle):
        start = i + 1 if triangle else 0
        d2[i, start:] = fn(*(a[i] for a in args[0]), *(a[start:] for a in args[-1]))
    return d2 + d2.T if triangle else d2


def squared_distance_matrix(
    manifold: str, metric: str, points, alpha: float = DEFAULT_POWER_ALPHA
) -> np.ndarray:
    """Symmetric matrix of pairwise squared distances with exact-zero diagonal."""
    return _sq_distances(manifold, metric, points, None, alpha)


def cross_squared_distances(
    manifold: str, metric: str, xs, ys, alpha: float = DEFAULT_POWER_ALPHA
) -> np.ndarray:
    """Rectangular matrix of squared distances d^2(x_i, y_j)."""
    return _sq_distances(manifold, metric, xs, ys, alpha)


def cross_gram(spec: KernelSpec, xs, ys) -> np.ndarray:
    """Kernel evaluations between two point sets (len(xs) x len(ys))."""
    d2 = cross_squared_distances(spec.manifold, spec.metric, xs, ys, alpha=spec.alpha)
    return np.exp(-spec.gamma * d2)


@dataclass
class GramMatrix:
    """Kernel matrix over a point set, with its eigenvalue audit.

    ``min_eigen`` is the smallest eigenvalue once :meth:`audit` has run,
    or a lower bound on it that the matrix was built with: a kernel
    combination (which has ``spec`` None) or a principal submatrix
    carries one. ``symmetric`` marks entries that are exactly symmetric
    by construction; the learners take those without a symmetry check.
    """

    entries: np.ndarray
    spec: KernelSpec | None = None
    min_eigen: float | None = None
    symmetric: bool = False

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def audit(self) -> float:
        """``min_eigen``, computed by ``eigvalsh`` on the first call
        when the matrix carries none."""
        if self.min_eigen is None:
            self.min_eigen = float(np.linalg.eigvalsh(self.entries)[0])
        return self.min_eigen


def gram_matrix(spec: KernelSpec, points) -> GramMatrix:
    """Gram matrix K_ij = exp(-gamma d^2(x_i, x_j)) with unit diagonal."""
    d2 = squared_distance_matrix(spec.manifold, spec.metric, points, alpha=spec.alpha)
    return gram_from_squared_distances(spec, d2)


def gram_from_squared_distances(spec: KernelSpec, d2) -> GramMatrix:
    """Gram matrix from a precomputed squared-distance matrix."""
    d2 = np.asarray(d2, dtype=float)
    k = np.exp(-spec.gamma * d2)
    np.fill_diagonal(k, 1.0)
    k = (k + k.T) / 2.0
    return GramMatrix(entries=k, spec=spec, symmetric=True)


@dataclass
class DefinitenessReport:
    """Outcome of a randomized search for Gram-matrix indefiniteness."""

    verdict: str  # "psd_within_tol" | "witness_found"
    min_eigen: float
    gamma: float
    manifold: str
    metric: str
    m: int
    trials_run: int
    gamma_grid: tuple = ()
    alpha: float = DEFAULT_POWER_ALPHA
    witness_seed: int | None = None
    witness_trial: int | None = None
    witness_points: np.ndarray | list = field(default_factory=list)  # the (m, ...) trial stack


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # Per-trial streams so trial results do not depend on evaluation order.
    return np.random.default_rng([seed, trial])


def _trial_sample(rng, manifold, metric, m, dim, subspace_dim, alpha):
    """One trial's squared-distance matrix, and a function that returns
    its ``m`` points. SPD points are log-normal, exp(S) of a Gaussian
    symmetric S. A log-Euclidean trial takes the distances from S, since
    log(exp S) = S; it checks exp(S) against the SPD floor from the
    eigenvalues of S, and forms exp(S) only for its points."""
    if manifold == "spd":
        logs = _sample_symmetric(rng, (m, dim, dim))
        if metric == "log-euclidean":
            require_spd_exp(logs)
            return squared_distance_matrix("euclidean", "euclidean", _flat(logs)), lambda: spd_exp(logs)
        points = spd_exp(logs)
    elif manifold == "grassmann":
        points = gr.make_grassmann(rng.standard_normal((m, dim, subspace_dim)))
    else:
        points = rng.standard_normal((m, dim))
    return squared_distance_matrix(manifold, metric, points, alpha=alpha), lambda: points


def _rayleigh_longdouble(d2, gamma, vec) -> float:
    """High-precision Rayleigh quotient of the Gram built from d2."""
    k = np.exp(-np.longdouble(gamma) * d2.astype(np.longdouble))
    np.fill_diagonal(k, np.longdouble(1.0))
    v = vec.astype(np.longdouble)
    return float((v @ k @ v) / (v @ v))


def definiteness_search(
    manifold: str,
    metric: str,
    gamma_grid,
    m: int = 40,
    trials: int = 50,
    seed: int = 0,
    *,
    dim: int = 3,
    subspace_dim: int = 2,
    alpha: float = DEFAULT_POWER_ALPHA,
) -> DefinitenessReport:
    """Randomized audit of Gaussian-kernel positive definiteness.

    Samples ``trials`` point sets of size ``m``, builds the Gram matrix for
    every gamma in the grid, and reports the first eigenvalue witness below
    ``-WITNESS_TOL_FACTOR * m`` (re-verified with an extended-precision
    Rayleigh quotient before being accepted). One stacked ``eigvalsh`` per
    trial screens the grid; ``eigh``, which gives the reported eigenvalue
    and the witness vector, runs only on a Gram whose screened smallest
    eigenvalue could lower the running minimum or be a witness.
    Deterministic given (seed, grid, m, trials): trial t uses the stream
    seeded by (seed, t) and trials are scanned in index order. The sizes,
    and the kernel of each gamma as a :class:`KernelSpec`, are checked
    before any point is drawn.
    """
    grid = [KernelSpec(manifold, metric, float(g), alpha).gamma for g in gamma_grid]
    if not grid:
        raise BadParamError("gamma grid must be non-empty")
    if m < 3:
        raise BadParamError(f"need at least 3 points per trial, got {m}")
    if trials < 1:
        raise BadParamError(f"need at least 1 trial, got {trials}")
    if dim < 1:
        raise BadParamError(f"dim must be positive, got {dim}")
    if manifold == "grassmann" and not 1 <= subspace_dim < dim:
        raise BadParamError(f"need 1 <= r < n, got r={subspace_dim}, n={dim}")
    witness_tol = WITNESS_TOL_FACTOR * m
    report = DefinitenessReport(
        verdict="psd_within_tol",
        min_eigen=np.inf,
        gamma=grid[0],
        manifold=manifold,
        metric=metric,
        m=m,
        trials_run=0,
        gamma_grid=tuple(grid),
        alpha=alpha,
    )
    slack = _SCREEN_SLACK * m * m
    diag = np.arange(m)
    for trial in range(trials):
        d2, points = _trial_sample(_trial_rng(seed, trial), manifold, metric, m, dim, subspace_dim, alpha)
        report.trials_run = trial + 1
        ks = np.exp(-np.array(grid)[:, None, None] * d2)
        ks[:, diag, diag] = 1.0
        for gamma, k, low in zip(grid, ks, np.linalg.eigvalsh(ks)[:, 0]):
            if low >= max(report.min_eigen, -witness_tol) + slack:
                continue  # eigh would move neither the minimum nor the verdict
            w, u = np.linalg.eigh(k)
            if w[0] < report.min_eigen:
                report.min_eigen, report.gamma = float(w[0]), gamma
            if w[0] < -witness_tol and _rayleigh_longdouble(d2, gamma, u[:, 0]) < -witness_tol:
                return replace(
                    report,
                    verdict="witness_found",
                    min_eigen=float(w[0]),
                    gamma=gamma,
                    witness_seed=seed,
                    witness_trial=trial,
                    witness_points=points(),
                )
    return report


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def gram_to_csv(gram: GramMatrix, path, extra_header: list[str] | None = None) -> None:
    """Row-major CSV with a one-line `key=value` header comment."""
    spec = gram.spec
    header = (
        f"m={gram.size} gamma={spec.gamma!r} manifold={spec.manifold}"
        f" metric={spec.metric} alpha={spec.alpha!r}"
    )
    if gram.min_eigen is not None:
        header += f" min_eigen={gram.min_eigen!r}"
    save_matrix_csv(path, gram.entries, header_lines=[*(extra_header or []), header])


def gram_to_json(gram: GramMatrix, path, provenance: dict | None = None) -> None:
    payload = {
        "spec": gram.spec, "m": gram.size, "entries": gram.entries, "min_eigen": gram.min_eigen
    }
    if provenance is not None:
        payload["provenance"] = provenance
    save_json(path, payload)
