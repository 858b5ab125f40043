"""Reference implementations and fixtures that only the tests use.

The package computes every distance through the metric registry of
``manikernels.kernels`` and audits Gram matrices with one ``eigvalsh``;
the functions here restate the definitions directly (a pairwise SPD
distance per metric, the affine-invariant one from scipy's generalized
eigenvalues, a Grassmann distance per metric from scipy's principal
angles, a replicated-border central difference, Karcher means, the PSD
and CND tests, linear Grams, Gram readers, an inverse square root, the
+-1 prediction and the dual and primal objectives of one binary SVM,
the log-normal SPD sample of the definiteness trials, the per-problem
CV grid search, the per-gamma definiteness search, the per-entry CSV
writer) so the tests can check the package against them (no distance
here calls the package formula it checks), and keeps a few input
fixtures (a dataset writer without the finiteness check among them), the
out-of-sample Fisher projection, the paper's table of metrics whose
Gaussian kernel is positive definite for every gamma, and the
spatio-temporal structure tensor, which no command computes.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import replace

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from manikernels.errors import (
    BadParamError,
    DimMismatchError,
    FrameMismatchError,
    NoConvergenceError,
    NotPsdError,
    NotSpdError,
    OneClassError,
    TooSmallError,
    UnsupportedMetricError,
)
from manikernels.data import save_json, stack_items
from manikernels.grassmann import make_grassmann
from manikernels.kernels import (
    WITNESS_TOL_FACTOR,
    DefinitenessReport,
    GramMatrix,
    KernelSpec,
    _lookup,
    _rayleigh_longdouble,
    _trial_rng,
    _trial_sample,
    gram_from_squared_distances,
    squared_distance_matrix,
)
from manikernels.learn import (
    PSD_TOL_FACTOR,
    Embedding,
    multiclass_svm_predict,
    multiclass_svm_train,
    principal_gram,
    svm_decision,
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
from manikernels.spd import DEFAULT_POWER_ALPHA

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


def _each(fn, x, ys):
    """``fn(x, y)``, a 1-d array, for one item ``ys`` or for each item of
    a stack of them."""
    ys = np.asarray(ys, dtype=float)
    results = [fn(x, y) for y in ys.reshape(-1, *np.shape(x))]
    return np.reshape(results, ys.shape[: ys.ndim - np.ndim(x)] + (-1,))


def spd_distance(metric: str, s1, s2, alpha: float = DEFAULT_POWER_ALPHA):
    """Distance from ``s1`` to one SPD matrix ``s2`` (a float), or to each
    of a stack of them (an array), under the selected metric. The
    affine-invariant distance is (sum_i log^2 lambda_i)^{1/2} over the
    generalized eigenvalues of S2 v = lambda S1 v, and root-Stein takes
    its log-determinants from ``slogdet``."""
    _check_metric(metric)
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if s2.shape[-2:] != s1.shape:
        raise DimMismatchError(f"shape mismatch: {s1.shape} vs {s2.shape}")
    if metric == "log-euclidean":
        return frob(spd_log(s1) - spd_log(s2))
    if metric == "affine-invariant":
        lams = _each(lambda x, y: scipy.linalg.eigh(y, x, eigvals_only=True), s1, s2)
        return np.sqrt(np.sum(np.log(lams) ** 2, axis=-1))
    if metric == "cholesky":
        return frob(cholesky_lower(s1) - cholesky_lower(s2))
    if metric == "power-euclidean":
        if alpha == 0:
            raise BadParamError("power-euclidean alpha must be nonzero")
        return frob(spd_power(s1, alpha) - spd_power(s2, alpha)) / abs(alpha)
    # root-stein
    mid, one, two = (np.linalg.slogdet(s)[1] for s in ((s1 + s2) / 2.0, s1, s2))
    return np.sqrt(mid - 0.5 * (one + two))


GRASSMANN_METRICS = (
    "projection",
    "arc-length",
    "fubini-study",
    "chordal-2norm",
    "chordal-fnorm",
)


def grassmann_distance(metric: str, y1, y2):
    """Distance from ``y1`` to one subspace ``y2``, or to each of a stack,
    under the selected metric, from the principal angles theta_i of
    ``scipy.linalg.subspace_angles``."""
    if metric not in GRASSMANN_METRICS:
        raise UnsupportedMetricError(f"unknown Grassmann metric {metric!r}")
    theta = _each(scipy.linalg.subspace_angles, np.asarray(y1, dtype=float), y2)
    if metric == "projection":
        return np.sqrt(np.sum(np.sin(theta) ** 2, axis=-1))
    if metric == "arc-length":
        return np.sqrt(np.sum(theta**2, axis=-1))
    if metric == "fubini-study":
        return np.arccos(np.prod(np.cos(theta), axis=-1))
    if metric == "chordal-2norm":
        return 2.0 * np.max(np.sin(theta / 2.0), axis=-1)
    return 2.0 * np.sqrt(np.sum(np.sin(theta / 2.0) ** 2, axis=-1))


#: The paper's metrics whose Gaussian kernel is positive definite for
#: every gamma > 0: the squared distance is conditionally negative
#: definite because it embeds isometrically in an inner product space.
PD_FOR_ALL_GAMMA = {
    ("spd", "log-euclidean"),
    ("spd", "cholesky"),
    ("spd", "power-euclidean"),
    ("grassmann", "projection"),
    ("euclidean", "euclidean"),
}


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


def fda_project(embedding: Embedding, kernel_columns) -> np.ndarray:
    """Project out-of-sample points given their kernel columns (m x t)
    through the ``weights`` that ``learn.kernel_fda`` fills."""
    if embedding.weights is None:
        raise BadParamError("embedding has no projection coefficients")
    cols = np.asarray(kernel_columns, dtype=float)
    if cols.ndim == 1:
        cols = cols[:, None]
    if cols.shape[0] != embedding.weights.shape[0]:
        raise DimMismatchError(
            f"kernel columns have {cols.shape[0]} rows, expected {embedding.weights.shape[0]}"
        )
    return cols.T @ embedding.weights


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
# Fixtures: a subspace sample, a planar two-class set, an unchecked
# dataset writer and a PGM writer
# ---------------------------------------------------------------------------

def sample_spd(rng: np.random.Generator, dim: int, count: int | None = None) -> np.ndarray:
    """Log-normal SPD sample: exp of a Gaussian symmetric matrix, or a
    ``(count, dim, dim)`` stack of them, well conditioned by construction.
    A stack draws its normals in one call and so equals ``count`` single
    draws from the same stream, and the points of an SPD definiteness
    trial from the trial's stream."""
    a = rng.standard_normal((dim, dim) if count is None else (count, dim, dim))
    return spd_exp((a + np.swapaxes(a, -1, -2)) / 2.0)


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


def save_dataset_unchecked(path, kind, items) -> None:
    """A dataset file as ``data.save_dataset`` writes it, without its
    finiteness check, so a test can write NaN and Infinity tokens."""
    stack = np.asarray(items, dtype=float)
    save_json(path, {"kind": kind, "count": len(stack), "shape": stack.shape[1:], "items": stack})


def save_matrix_csv_per_entry(path, matrix, header_lines=()) -> None:
    """``data.save_matrix_csv`` as one ``repr`` per entry, every row
    formatted in full and the file written at once."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [f"# {line}" for line in header_lines]
    for row in mat:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
# Region covariance from every ordered channel product
# ---------------------------------------------------------------------------

def region_covariance_all_products(maps, rects, epsilon=None) -> np.ndarray:
    """``features.region_covariance`` of valid rectangles from two
    integral images, one of the c channels and one of all c^2 ordered
    products ch_i * ch_j, each matrix then symmetrized as (C + C^T) / 2:
    the formulation the one image of the c(c+1)/2 distinct products
    replaced. Each cumulative sum adds the same values in the same order
    and a * b == b * a, so it must give the same bytes."""
    ch = np.asarray(maps, dtype=float)
    c, h, w = ch.shape
    s1 = np.zeros((c, h + 1, w + 1))
    s1[:, 1:, 1:] = ch.cumsum(axis=1).cumsum(axis=2)
    s2 = np.zeros((c, c, h + 1, w + 1))
    s2[:, :, 1:, 1:] = (ch[:, None] * ch[None, :]).cumsum(axis=2).cumsum(axis=3)
    rects = np.asarray(rects)
    x0, y0, rw, rh = np.atleast_2d(rects).astype(int).T
    n = rw * rh
    ya, yb, xa, xb = y0, y0 + rh, x0, x0 + rw
    sums = (s1[:, yb, xb] - s1[:, ya, xb] - s1[:, yb, xa] + s1[:, ya, xa]).T
    quads = s2[:, :, yb, xb] - s2[:, :, ya, xb] - s2[:, :, yb, xa] + s2[:, :, ya, xa]
    quads = np.moveaxis(quads, -1, 0)
    cov = (quads - sums[:, :, None] * sums[:, None, :] / n[:, None, None]) / (n - 1)[:, None, None]
    cov = (cov + np.swapaxes(cov, -1, -2)) / 2.0
    if epsilon is None:
        epsilon = 1e-6 * (np.trace(cov, axis1=-2, axis2=-1) + 1.0)
    covs = cov + np.multiply.outer(epsilon, np.eye(c))
    return covs[0] if rects.ndim == 1 else covs


# ---------------------------------------------------------------------------
# Spatio-temporal structure tensors
# ---------------------------------------------------------------------------

def gaussian_smooth(planes, sigma: float) -> np.ndarray:
    """Gaussian blur of the last two axes, one axis at a time: sampled
    weights exp(-x^2 / 2 sigma^2) over |x| <= int(4 sigma + 0.5), summing
    to one, with edge values repeated past the border. Each plane equals
    ``scipy.ndimage.gaussian_filter(plane, sigma, mode="nearest")``."""
    radius = int(4.0 * sigma + 0.5)
    weights = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
    weights /= weights.sum()
    out = np.asarray(planes, dtype=float)
    for axis in (-2, -1):
        pad = [(0, 0)] * out.ndim
        pad[axis] = (radius, radius)
        windows = sliding_window_view(np.pad(out, pad, mode="edge"), weights.size, axis=axis)
        out = windows @ weights
    return out


def central_difference(image, axis: int) -> np.ndarray:
    """(I[i + 1] - I[i - 1]) / 2 along ``axis`` of a 2-d image, an index
    past either border taking the border value."""
    n = image.shape[axis]
    ahead = np.take(image, np.minimum(np.arange(n) + 1, n - 1), axis=axis)
    behind = np.take(image, np.maximum(np.arange(n) - 1, 0), axis=axis)
    return (ahead - behind) / 2.0


def structure_tensor_field(frames, smoothing_sigma: float, epsilon: float = 1e-6) -> np.ndarray:
    """Per-pixel 3x3 structure tensors from 2 or 3 frames, the paper's
    spatio-temporal SPD descriptor.

    The gradient (Ix, Iy, It) takes spatial derivatives on the reference
    frame (first of 2, middle of 3) and the temporal derivative across
    the frames; the outer product field is smoothed channel-wise with a
    Gaussian of ``smoothing_sigma`` and shifted by ``epsilon * I``.
    Returns an (h, w, 3, 3) array.
    """
    imgs = [np.asarray(f, dtype=float) for f in frames]
    if len(imgs) not in (2, 3):
        raise FrameMismatchError(f"need 2 or 3 frames, got {len(imgs)}")
    shape = imgs[0].shape
    for f in imgs:
        if f.shape != shape or f.ndim != 2:
            raise FrameMismatchError("frames must share one 2-d shape")
    if shape[0] < 3 or shape[1] < 3:
        raise TooSmallError(f"frames too small for derivatives: {shape}")
    if len(imgs) == 2:
        ref = imgs[0]
        it = imgs[1] - imgs[0]
    else:
        ref = imgs[1]
        it = (imgs[2] - imgs[0]) / 2.0
    grads = np.stack([central_difference(ref, 1), central_difference(ref, 0), it])  # (3, h, w)
    prods = grads[:, None, :, :] * grads[None, :, :, :]  # (3, 3, h, w)
    smoothed = gaussian_smooth(prods, smoothing_sigma) if smoothing_sigma > 0 else prods
    tensors = smoothed.transpose(2, 3, 0, 1).copy()
    tensors += epsilon * np.eye(3)
    return tensors


# ---------------------------------------------------------------------------
# Definiteness search, one eigh per (trial, gamma)
# ---------------------------------------------------------------------------

def definiteness_search_per_gamma(
    manifold,
    metric,
    gamma_grid,
    m=40,
    trials=50,
    seed=0,
    *,
    dim=3,
    subspace_dim=2,
    alpha=DEFAULT_POWER_ALPHA,
):
    """``kernels.definiteness_search`` with a full ``eigh`` of every
    (trial, gamma) Gram, the loop the stacked ``eigvalsh`` screen
    replaced; it draws each trial as the search does and must give the
    same report."""
    _lookup(manifold, metric)
    grid = [float(g) for g in gamma_grid]
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
    for trial in range(trials):
        d2, points = _trial_sample(_trial_rng(seed, trial), manifold, metric, m, dim, subspace_dim,
                                   alpha)
        report.trials_run = trial + 1
        for gamma in grid:
            k = np.exp(-gamma * d2)
            np.fill_diagonal(k, 1.0)
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
# Cross-validated grid search, one SMO solve per problem
# ---------------------------------------------------------------------------

def svm_objectives(model, k, y) -> tuple[float, float]:
    """(dual, primal) objective values of a trained binary SVM:
    dual = sum(alpha) - (1/2) dc^T K dc, primal = (1/2) dc^T K dc
    + C * sum(hinge); their gap certifies solution quality."""
    k = k.entries if isinstance(k, GramMatrix) else np.asarray(k, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    dc = model.dual_coefs
    quad = float(dc @ k @ dc)
    dual = float(np.sum(np.abs(dc))) - 0.5 * quad
    margins = y * (k @ dc + model.bias)
    primal = 0.5 * quad + model.C * float(np.sum(np.maximum(0.0, 1.0 - margins)))
    return dual, primal


def svm_predict(model, kernel_columns) -> np.ndarray:
    """Class labels in {-1, +1} of one binary SVM; ties at 0 go positive."""
    return np.where(svm_decision(model, kernel_columns) >= 0, 1, -1)


def cv_select_per_problem(d2, labels, spec, mode, args):
    """``cli._cv_select`` as one ``svm_train`` (or ``multiclass_svm_train``)
    call per fold and C on the fold's principal Gram, the loop the batched
    solve replaced; it must pick the same (gram, C). The reduction follows
    from the labels as the CLI documents it, not from ``mode``: two classes
    are one +-1 problem, the larger class +1, and more take ``--mode``. A
    gamma is skipped when a fold's fit or the full Gram's audit finds it
    indefinite. A fold that tests no point (more folds than points) is
    fitted and adds 0 to every score, where the CLI leaves it out."""
    from manikernels.cli import _cv_folds, _grid

    if args.cv < 2:
        raise BadParamError(f"--cv needs at least 2 folds, got {args.cv}")
    gammas = _grid(args.gamma_grid, "gamma grid") if args.gamma_grid else [spec.gamma]
    cs = _grid(args.c_grid, "C grid") if args.c_grid else [args.C]
    labels = np.asarray(labels)
    binary = len(np.unique(labels)) == 2
    y = np.where(labels == labels.max(), 1, -1) if binary else labels
    folds = _cv_folds(len(labels), args.cv, args.seed)
    scored = [f for f in range(args.cv) if len(np.unique(labels[folds != f])) >= 2]
    total = sum(int(np.sum(folds == f)) for f in scored)
    if not total:
        raise OneClassError(f"no fold of {args.cv} can be scored")
    best = None
    for gamma in gammas:
        gram = gram_from_squared_distances(replace(spec, gamma=gamma), d2)
        correct = [0] * len(cs)
        try:
            for f in scored:
                test = folds == f
                train = ~test
                sub = principal_gram(gram, train)
                cols = gram.entries[np.ix_(train, test)]
                for c_index, c_val in enumerate(cs):
                    if binary:
                        model = svm_train(sub, y[train], c_val, kkt_tol=args.kkt_tol)
                        pred = svm_predict(model, cols)
                    else:
                        model = multiclass_svm_train(
                            sub, y[train], c_val, mode=args.mode, kkt_tol=args.kkt_tol
                        )
                        pred, _ = multiclass_svm_predict(model, cols)
                    correct[c_index] += int(np.sum(pred == y[test]))
        except NotPsdError:
            continue
        if gram.audit() < -PSD_TOL_FACTOR * len(labels):
            continue
        for c_index, c_val in enumerate(cs):
            score = correct[c_index] / total
            if best is None or score > best[0]:
                best = (score, gram, c_val)
    if best is None:
        raise NotPsdError("every gamma of the grid is indefinite")
    return best[1], best[2]
