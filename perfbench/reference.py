"""Reference computations the benchmark checks program outputs against.

Everything here uses numpy and scipy only, never ``manikernels``, and
follows the textbook definition of each quantity rather than the
program's algorithm: generalized eigenvalues for the affine-invariant
distance, ``slogdet`` for root-Stein, ``scipy.linalg.subspace_angles``
for arc length, explicit projectors for the projection distance, and
covariances taken directly from the pixels of a rectangle.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


# ---------------------------------------------------------------------------
# Squared distances
# ---------------------------------------------------------------------------

def affine_invariant_d2(a, b) -> float:
    """sum_i log^2 lambda_i with lambda the eigenvalues of A^{-1} B."""
    lam = scipy.linalg.eigh(b, a, eigvals_only=True)
    return float(np.sum(np.log(lam) ** 2))


def root_stein_d2(a, b) -> float:
    """log det((A+B)/2) - (log det A + log det B) / 2."""
    _, mid = np.linalg.slogdet((a + b) / 2.0)
    _, lda = np.linalg.slogdet(a)
    _, ldb = np.linalg.slogdet(b)
    return float(mid - 0.5 * (lda + ldb))


def arc_length_d2(y1, y2) -> float:
    """Sum of squared principal angles between the two column spans."""
    return float(np.sum(scipy.linalg.subspace_angles(y1, y2) ** 2))


def projection_d2(y1, y2) -> float:
    """(1/2) ||Y1 Y1^T - Y2 Y2^T||_F^2 from the explicit projectors."""
    diff = y1 @ y1.T - y2 @ y2.T
    return float(0.5 * np.sum(diff * diff))


PAIR_D2 = {
    "affine-invariant": affine_invariant_d2,
    "root-stein": root_stein_d2,
    "arc-length": arc_length_d2,
    "projection": projection_d2,
}


def sym_log(s) -> np.ndarray:
    """Matrix logarithm of an SPD matrix from its eigendecomposition."""
    w, u = np.linalg.eigh(s)
    return (u * np.log(w)) @ u.T


def log_euclidean_d2(xs, ys=None) -> np.ndarray:
    """||log X_i - log Y_j||_F^2, one row of differences at a time."""
    lx = np.stack([sym_log(p) for p in xs])
    ly = lx if ys is None else np.stack([sym_log(p) for p in ys])
    return np.array([np.sum((ly - a) ** 2, axis=(1, 2)) for a in lx])


def pairwise_d2(metric: str, points) -> np.ndarray:
    """Symmetric squared-distance matrix of ``points`` under ``metric``."""
    if metric == "log-euclidean":
        return log_euclidean_d2(points)
    fn = PAIR_D2[metric]
    m = len(points)
    d2 = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d2[i, j] = d2[j, i] = fn(points[i], points[j])
    return d2


def cross_d2(metric: str, xs, ys) -> np.ndarray:
    """Rectangular squared-distance matrix d^2(x_i, y_j)."""
    if metric == "log-euclidean":
        return log_euclidean_d2(xs, ys)
    fn = PAIR_D2[metric]
    return np.array([[fn(x, y) for y in ys] for x in xs])


def gaussian_gram(d2, gamma: float) -> np.ndarray:
    """exp(-gamma d^2) with an exact unit diagonal."""
    k = np.exp(-gamma * np.asarray(d2, dtype=float))
    np.fill_diagonal(k, 1.0)
    return k


# ---------------------------------------------------------------------------
# Learners
# ---------------------------------------------------------------------------

def kmeans_energy(k, labels) -> float:
    """sum_c [sum_{i in c} K_ii - (1/|c|) sum_{p,q in c} K_pq]."""
    total = 0.0
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        total += float(np.trace(k[np.ix_(idx, idx)])) - float(k[np.ix_(idx, idx)].sum()) / idx.size
    return total


def best_single_move_delta(k, labels, n_clusters: int) -> float:
    """Smallest energy change from moving one point to another cluster.

    Moves that would empty a cluster are excluded. A negative value means
    the partition is not a local minimum under single-point moves.
    """
    m = k.shape[0]
    onehot = np.zeros((m, n_clusters))
    onehot[np.arange(m), labels] = 1.0
    sizes = onehot.sum(axis=0)
    sums = k @ onehot
    within = np.einsum("ic,ic->c", onehot, sums)
    with np.errstate(divide="ignore", invalid="ignore"):
        dist2 = np.diag(k)[:, None] - 2.0 * sums / sizes + within / sizes**2
        own = sizes[labels]
        leave = own / (own - 1.0) * dist2[np.arange(m), labels]
        join = sizes / (sizes + 1.0) * dist2
    delta = join - leave[:, None]
    delta[np.arange(m), labels] = np.inf
    delta[own <= 1, :] = np.inf
    return float(delta.min())


def svm_kkt_gap(k, y, alpha, C: float) -> float:
    """Maximal KKT violation of the dual SVM at ``alpha``.

    With g = Q alpha - 1 and Q = (y y^T) * K, the gap is the largest
    -y_i g_i over the indices that may move up minus the smallest over
    those that may move down; it is at most 0 at an exact optimum.
    """
    y = np.asarray(y, dtype=float)
    grad = (y[:, None] * y[None, :] * k) @ alpha - 1.0
    f = -y * grad
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
    if not up.any() or not low.any():
        return 0.0
    return float(f[up].max() - f[low].min())


def svm_dual_objective(k, dual_coefs) -> float:
    """sum_i alpha_i - (1/2) sum_ij alpha_i y_i K_ij alpha_j y_j."""
    dc = np.asarray(dual_coefs, dtype=float)
    return float(np.sum(np.abs(dc)) - 0.5 * dc @ k @ dc)


# ---------------------------------------------------------------------------
# Image descriptors
# ---------------------------------------------------------------------------

def _central_dx(img):
    p = np.concatenate([img[:, :1], img, img[:, -1:]], axis=1)
    return (p[:, 2:] - p[:, :-2]) / 2.0


def _second_dx(img):
    p = np.concatenate([img[:, :1], img, img[:, -1:]], axis=1)
    return p[:, 2:] - 2.0 * p[:, 1:-1] + p[:, :-2]


def pedestrian_features(img) -> np.ndarray:
    """(h, w, 8) per-pixel vectors [x, y, |Ix|, |Iy|, |grad|, |Ixx|, |Iyy|,
    arctan(|Ix| / |Iy|)], derivatives by central differences with the
    border pixel repeated, |Iy| floored at 1e-8 in the angle."""
    img = np.asarray(img, dtype=float)
    h, w = img.shape
    ix, iy = _central_dx(img), _central_dx(img.T).T
    ixx, iyy = _second_dx(img), _second_dx(img.T).T
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    return np.stack(
        [
            xs,
            ys,
            np.abs(ix),
            np.abs(iy),
            np.hypot(ix, iy),
            np.abs(ixx),
            np.abs(iyy),
            np.arctan(np.abs(ix) / np.maximum(np.abs(iy), 1e-8)),
        ],
        axis=-1,
    )


def rect_covariance(features, rect) -> np.ndarray:
    """Sample covariance of the feature vectors of the pixels in ``rect``
    = (x0, y0, w, h), plus 1e-6 * (trace + 1) * I."""
    x0, y0, w, h = rect
    pixels = features[y0 : y0 + h, x0 : x0 + w].reshape(-1, features.shape[-1])
    cov = np.cov(pixels, rowvar=False)
    return cov + 1e-6 * (np.trace(cov) + 1.0) * np.eye(cov.shape[0])


def normalized_covariance(features, rect) -> np.ndarray:
    """Rectangle covariance scaled by the full window's channel deviations."""
    full = rect_covariance(features, (0, 0, features.shape[1], features.shape[0]))
    scale = 1.0 / np.sqrt(np.diag(full))
    return rect_covariance(features, rect) * np.outer(scale, scale)


def log_euclidean_dispersion(mats) -> float:
    """Mean log-Euclidean distance of the matrices to their log-Euclidean mean."""
    logs = np.stack([sym_log(m) for m in mats])
    centre = logs.mean(axis=0)
    return float(np.mean([np.linalg.norm(lg - centre) for lg in logs]))


def overlap_ratio(a, b) -> float:
    """Intersection area over the smaller rectangle's area."""
    ix = max(0, min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0]))
    iy = max(0, min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1]))
    return ix * iy / min(a[2] * a[3], b[2] * b[3])
