"""Kernelized learning algorithms over precomputed Gram matrices.

Every algorithm here sees only kernel evaluations, never explicit
feature vectors, so the same code serves any manifold (or plain
Euclidean data) once a Gram matrix has been built. Inputs may be plain
``numpy`` arrays or :class:`~manikernels.kernels.GramMatrix` instances.

Determinism: tie-breaks always pick the lowest index, restarts derive
their seeds as ``seed + restart_index``, and nothing depends on
evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import typed
from .errors import (
    BadParamError,
    DimMismatchError,
    NoConvergenceError,
    NotPsdError,
    OneClassError,
    SingularScatterError,
)
from .kernels import GramMatrix
from .matrixops import _fix_column_signs, require_symmetric

#: Default KKT tolerance for the SMO solver.
KKT_TOL = 1e-3

#: Iteration cap of the SMO solver, past which it raises NoConvergenceError.
SMO_MAX_ITER = 100_000

#: Problem count from which :func:`svm_train_batch` solves in lockstep;
#: below it each problem runs alone in :func:`svm_train`.
LOCKSTEP_MIN_PROBLEMS = 8

#: Default number of k-means restarts.
DEFAULT_RESTARTS = 20

#: Safety bound on k-means moves per restart, per point. The descent
#: strictly lowers the energy over finitely many partitions, so it ends
#: on its own; this only turns a defect into an error.
MAX_MOVES_PER_POINT = 100

#: Eigenvalue audit slack per matrix row for PSD preconditions.
PSD_TOL_FACTOR = 1e-8


def as_gram(k) -> GramMatrix:
    """``k`` (a GramMatrix or an array) as a GramMatrix marked ``symmetric``.

    Each public learner calls this once on its input. A GramMatrix marked
    ``symmetric`` passes through, audit included, and that is how the
    learners hand checked matrices to their inner fits; anything else
    gets one symmetry check, and a GramMatrix keeps its spec and audit.
    """
    gram = k if isinstance(k, GramMatrix) else GramMatrix(k)
    if gram.symmetric:
        return gram
    return replace(gram, entries=require_symmetric(gram.entries), symmetric=True)


def _require_psd(gram: GramMatrix) -> float:
    """The audit of ``gram`` (:meth:`GramMatrix.audit`); raises
    NotPsdError below ``-PSD_TOL_FACTOR * m``."""
    m, min_eigen = gram.size, gram.audit()
    if min_eigen < -PSD_TOL_FACTOR * m:
        raise NotPsdError(f"kernel matrix has eigenvalue {min_eigen:.3e} below -{PSD_TOL_FACTOR * m:.1e}")
    return min_eigen


def _require_c(C) -> None:
    """Raises BadParamError unless ``C`` (a number or an array) is positive and finite."""
    c = np.asarray(C, dtype=float)
    bad = c[~((c > 0) & (c < np.inf))]
    if bad.size:
        raise BadParamError(f"C must be positive and finite, got {bad[0]}")


def _require_non_negative(name: str, value) -> None:
    """Raises BadParamError unless ``value`` is finite and >= 0; NaN fails
    the comparison, as in :func:`_require_c`."""
    if not 0 <= value < np.inf:
        raise BadParamError(f"{name} must be finite and non-negative, got {value}")


def principal_gram(gram, idx) -> GramMatrix:
    """The principal submatrix of ``gram`` on the points ``idx`` (indices
    or a boolean mask). By Cauchy interlacing its smallest eigenvalue is
    at least that of ``gram``, so it carries the audit of ``gram`` when
    that clears its own slack, ``-PSD_TOL_FACTOR`` times its size, and is
    otherwise audited alone on first use: every PSD verdict on it is the
    one a direct audit of it gives.
    """
    gram = as_gram(gram)
    sub = gram.entries[np.ix_(idx, idx)]
    min_eigen = gram.audit()
    carried = min_eigen if min_eigen >= -PSD_TOL_FACTOR * len(sub) else None
    return GramMatrix(sub, spec=gram.spec, min_eigen=carried, symmetric=True)


# ---------------------------------------------------------------------------
# Kernel k-means
# ---------------------------------------------------------------------------

@dataclass
class ClusterResult:
    labels: np.ndarray  # (m,) ints in [0, k)
    energy: float  # sum of squared RKHS distances to assigned centroids
    restarts_used: int
    n_moves: int  # single-point moves made by the winning restart
    energy_trace: list = field(default_factory=list)  # before each move and at the end, winning run


def _kmeanspp_init(k: np.ndarray, n_clusters: int, rng: np.random.Generator):
    """RKHS k-means++ seeding: next center drawn with probability
    proportional to the squared distance to the nearest chosen center."""
    m = k.shape[0]
    diag = np.diag(k)
    centers = [int(rng.integers(m))]
    d2 = np.maximum(diag - 2.0 * k[:, centers[0]] + diag[centers[0]], 0.0)
    for _ in range(1, n_clusters):
        total = d2.sum()
        if total <= 0.0:
            remaining = np.setdiff1d(np.arange(m), centers)
            nxt = int(remaining[rng.integers(remaining.size)])
        else:
            nxt = int(rng.choice(m, p=d2 / total))
        centers.append(nxt)
        d2 = np.minimum(d2, np.maximum(diag - 2.0 * k[:, nxt] + diag[nxt], 0.0))
    center_d2 = diag[:, None] - 2.0 * k[:, centers] + diag[centers][None, :]
    return np.argmin(center_d2, axis=1)


def _cluster_sums(k: np.ndarray, labels: np.ndarray, n_clusters: int):
    """(counts, sums, within): sums[c, i] = sum_{j in c} K_ij and
    within[c] = sum_{p,q in c} K_pq, for a symmetric K."""
    z = np.zeros((n_clusters, k.shape[0]))
    z[labels, np.arange(k.shape[0])] = 1.0
    sums = z @ k
    return z.sum(axis=1), sums, np.einsum("ci,ci->c", z, sums)


def _local_search(k: np.ndarray, labels: np.ndarray, n_clusters: int):
    """Best single-point moves until none lowers the energy.

    Moving x from cluster a (size na) to c (size nc) changes the energy
    by nc/(nc+1) * d2(x, mu_c) - na/(na-1) * d2(x, mu_a) (Dhillon, Guan
    & Kogan, ICDM 2002). A point Lloyd would move also passes this test,
    so the fixed point is a Lloyd fixed point too. Each move updates the
    cluster sums as a rank-1 change of two rows, O(mk). Empty initial
    clusters are first reseeded with the point farthest from its own
    centroid; moves never empty a cluster. Ties go to the lowest point,
    then the lowest cluster. Returns (labels, energy, n_moves, trace)
    with the energy recomputed from the final labels.
    """
    m = k.shape[0]
    rows = np.arange(m)
    diag = np.diag(k)
    diag_sum = float(diag.sum())
    labels = labels.copy()
    counts, sums, within = _cluster_sums(k, labels, n_clusters)
    own = labels * m + rows  # flat index of (labels[i], i) in a (k, m) array

    def move(i, c):
        a = labels[i]
        within[a] -= 2.0 * sums[a, i] - diag[i]
        within[c] += 2.0 * sums[c, i] + diag[i]
        sums[a] -= k[i]
        sums[c] += k[i]
        counts[a] -= 1.0
        counts[c] += 1.0
        labels[i] = c
        own[i] = c * m + i

    for c in np.flatnonzero(counts == 0):
        size = counts[labels]
        own_d2 = np.maximum(diag - 2.0 * sums.take(own) / size + within[labels] / size**2, 0.0)
        # only points whose cluster keeps >= 1 member are eligible
        move(int(np.argmax(np.where(size >= 2, own_d2, -np.inf))), c)

    limit = MAX_MOVES_PER_POINT * m
    n_moves = 0
    trace = []
    while True:
        inv = 1.0 / counts
        trace.append(diag_sum - float(within @ inv))
        d2 = sums * (-2.0 * inv)[:, None]
        d2 += (within * inv**2)[:, None]
        d2 += diag
        np.maximum(d2, 0.0, out=d2)
        # a singleton leaves at no gain, so its moves never lower the energy
        leave = np.where(counts > 1.0, counts / np.maximum(counts - 1.0, 1.0), 0.0)
        delta = d2 * (counts / (counts + 1.0))[:, None]
        delta -= leave[labels] * d2.take(own)
        delta.put(own, np.inf)
        best = delta.min(axis=0)
        i = int(np.argmin(best))
        if best[i] >= -1e-12:
            break
        if n_moves == limit:
            raise NoConvergenceError(f"k-means local search still improving after {limit} moves")
        move(i, int(np.argmin(delta[:, i])))
        n_moves += 1
    counts, _, within = _cluster_sums(k, labels, n_clusters)
    energy = diag_sum - float(within @ (1.0 / counts))
    return labels, energy, n_moves, trace


def kernel_kmeans(
    k,
    n_clusters: int,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> ClusterResult:
    """Kernel k-means by single-point descent in the RKHS.

    ||phi(x) - mu_c||^2 expands to K_xx - (2/|c|) sum_{j in c} K_xj
    + (1/|c|^2) sum_{p,q in c} K_pq, so only kernel entries are needed.
    Each restart seeds a partition (k-means++ and random partitions
    alternate), reseeds empty clusters with far points, then takes the
    best single-point move until no move lowers the energy, which makes
    the result a local minimum under single moves and Lloyd steps alike.
    The lowest-energy restart wins. A restart still improving after
    ``MAX_MOVES_PER_POINT * m`` moves raises NoConvergenceError.
    """
    gram = as_gram(k)
    k = gram.entries
    m = k.shape[0]
    if n_clusters < 1 or n_clusters > m:
        raise BadParamError(f"need 1 <= k <= {m}, got {n_clusters}")
    if restarts < 1:
        raise BadParamError("need at least one restart")
    _require_psd(gram)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        # alternate seeding styles for initialization diversity
        if r % 2:
            labels = rng.integers(n_clusters, size=m)
        else:
            labels = _kmeanspp_init(k, n_clusters, rng)
        labels, energy, n_moves, trace = _local_search(k, labels, n_clusters)
        if best is None or energy < best.energy:
            best = ClusterResult(
                labels=labels.astype(int),
                energy=energy,
                restarts_used=restarts,
                n_moves=n_moves,
                energy_trace=trace,
            )
    return best


# ---------------------------------------------------------------------------
# Kernel PCA
# ---------------------------------------------------------------------------

@dataclass
class Embedding:
    coords: np.ndarray  # (m, l)
    eigenvalues: np.ndarray  # (l,)
    weights: np.ndarray | None = None  # (m, l) out-of-sample projection coefficients


def kernel_pca(k, n_components: int) -> Embedding:
    """Principal directions of the kernel-induced feature cloud.

    Double-centers the kernel matrix, eigendecomposes it, and returns
    per-point coordinates scaled so the c-th column has squared norm equal
    to the c-th eigenvalue. Column signs follow the convention that the
    largest-magnitude coordinate is positive.
    """
    k = as_gram(k).entries
    m = k.shape[0]
    if n_components < 1 or n_components > m:
        raise BadParamError(f"need 1 <= l <= {m}, got {n_components}")
    # H K H with H = I - 11^T/m, as column means then row means off
    kc = k - k.mean(axis=0)
    kc = require_symmetric(kc - kc.mean(axis=1, keepdims=True))
    w, u = np.linalg.eigh(kc)
    if w[0] < -PSD_TOL_FACTOR * m:
        raise NotPsdError(f"centered kernel has eigenvalue {w[0]:.3e}")
    w = w[::-1][:n_components].copy()
    u = u[:, ::-1][:, :n_components].copy()
    coords = u * np.sqrt(np.maximum(w, 0.0))
    _fix_column_signs(coords, u)
    return Embedding(coords=coords, eigenvalues=w)


# ---------------------------------------------------------------------------
# Kernel FDA
# ---------------------------------------------------------------------------

def kernel_fda(k, labels, ridge: float | None = None, dims: int | None = None) -> Embedding:
    """Kernel Fisher discriminant projections.

    Solves the generalized eigenproblem between-class vs within-class
    scatter in the RKHS, the within-class part regularized by
    ``ridge * I`` (default 1e-4 * trace(W) / m), by Cholesky whitening of
    the within-class part; one that is not positive definite raises
    SingularScatterError. Returns the training projections plus the
    coefficient matrix that projects kernel columns of other points.
    """
    if ridge is not None:
        _require_non_negative("ridge", ridge)
    gram = as_gram(k)
    k = gram.entries
    m = k.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (m,):
        raise DimMismatchError(f"labels shape {labels.shape} != ({m},)")
    classes = np.unique(labels)
    n_classes = len(classes)
    if n_classes < 2:
        raise OneClassError("kernel FDA needs at least two classes")
    if dims is None:
        dims = n_classes - 1
    if dims < 1 or dims > n_classes - 1:
        raise BadParamError(f"need 1 <= dims <= {n_classes - 1}, got {dims}")
    _require_psd(gram)
    mu = k.mean(axis=1)
    between = np.zeros((m, m))
    within = np.zeros((m, m))
    for cls in classes:
        idx = np.flatnonzero(labels == cls)
        kc = k[:, idx]
        mu_c = kc.mean(axis=1)
        diff = mu_c - mu
        between += idx.size * np.outer(diff, diff)
        # K_c (I - 11^T/n_c) K_c^T = D D^T with D = K_c less its row means
        d = kc - mu_c[:, None]
        within += d @ d.T
    if ridge is None:
        ridge = 1e-4 * float(np.trace(within)) / m
        if ridge <= 0.0:
            # zero within-scatter (duplicated points per class) still needs
            # a strictly positive regularizer to pose the eigenproblem
            ridge = 1e-8 * float(np.trace(k)) / m
    # B a = w N a by Cholesky whitening: with N = L L^T, the eigenvectors
    # v of L^-1 B L^-T give a = L^-T v, normalized so that a^T N a = I
    try:
        chol = np.linalg.cholesky(require_symmetric(within + ridge * np.eye(m)))
    except np.linalg.LinAlgError as exc:
        raise SingularScatterError(
            "within-class scatter is singular; pass a positive ridge"
        ) from exc
    half = np.linalg.solve(chol, require_symmetric(between))
    whitened = np.linalg.solve(chol, half.T)
    w, v = np.linalg.eigh((whitened + whitened.T) / 2.0)
    a = np.linalg.solve(chol.T, v)
    w = w[::-1][:dims].copy()
    a = a[:, ::-1][:, :dims].copy()
    coords = k @ a
    _fix_column_signs(coords, a)
    return Embedding(coords=coords, eigenvalues=w, weights=a)


# ---------------------------------------------------------------------------
# Binary SVM (SMO)
# ---------------------------------------------------------------------------

@dataclass
class SvmModel:
    dual_coefs: np.ndarray  # alpha_i * y_i, full length m
    bias: float
    support_indices: np.ndarray
    C: float
    kkt_violation: float = 0.0
    n_iter: int = 0

    def __post_init__(self):
        # a model read back from JSON arrives with lists and plain numbers
        for name, kind, ndim in (("dual_coefs", float, 1), ("bias", float, 0), ("support_indices", int, 1),
                                 ("C", float, 0), ("kkt_violation", float, 0), ("n_iter", int, 0)):
            setattr(self, name, typed(getattr(self, name), name, kind, ndim))
        sv = self.support_indices
        if sv.size and not 0 <= sv.min() <= sv.max() < len(self.dual_coefs):
            raise BadParamError(f"support indices must lie in [0, {len(self.dual_coefs)})")
        values = {"dual_coefs": self.dual_coefs, "bias": self.bias, "kkt_violation": self.kkt_violation}
        bad = [name for name, value in values.items() if not np.isfinite(value).all()]
        if bad:
            raise BadParamError(f"{', '.join(bad)} must be finite")
        _require_c(self.C)


def _svm_model(alpha, y, f, C: float, n_iter: int) -> SvmModel:
    """The model of an SMO solution ``alpha`` to labels ``y`` with
    gradient ``f``: its KKT violation gap max_up f - min_low f, its bias
    (the mean of f over unbounded support vectors, or the midpoint of the
    feasible interval when none are unbounded) and its support set."""
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
    violation = 0.0
    if up.any() and low.any():
        violation = max(float(f[up].max() - f[low].min()), 0.0)
    free = (alpha > 0) & (alpha < C)
    if free.any():
        bias = float(f[free].mean())
    elif up.any() and low.any():
        bias = float((f[up].max() + f[low].min()) / 2.0)
    else:
        bias = 0.0
    return SvmModel(
        dual_coefs=alpha * y,
        bias=bias,
        support_indices=np.flatnonzero(alpha > 0),
        C=C,
        kkt_violation=violation,
        n_iter=n_iter,
    )


def svm_train(k, y, C: float, kkt_tol: float = KKT_TOL) -> SvmModel:
    """Soft-margin dual SVM solved by sequential minimal optimization.

    Second-order working set, audited once. Each step takes i = argmax
    f over the "up" set, with f = y - K(alpha o y), and j = argmax
    b^2 / a over the "low" set, with b = f_i - f_j > 0 and
    a = K_ii + K_jj - 2 K_ij (Fan, Chen & Lin, JMLR 2005; the LIBSVM
    rule); ties go to the lowest index. It stops once the KKT violation
    gap max_up f - min_low f drops to ``kkt_tol``; after ``SMO_MAX_ITER``
    steps it raises NoConvergenceError. The PSD audit is the input's
    :meth:`GramMatrix.audit`. The model comes from :func:`_svm_model`.
    """
    gram = as_gram(k)
    k = gram.entries
    m = k.shape[0]
    y = np.asarray(y, dtype=float).ravel()
    if y.shape != (m,):
        raise DimMismatchError(f"labels shape {y.shape} != ({m},)")
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise BadParamError("labels must be -1/+1")
    if len(np.unique(y)) < 2:
        raise OneClassError("training labels contain a single class")
    _require_c(C)
    _require_non_negative("kkt_tol", kkt_tol)
    _require_psd(gram)

    # scalars live in lists: numpy scalar arithmetic would dominate the loop
    labels = y.tolist()
    diag = np.diag(k)
    k_diag = diag.tolist()
    alpha = [0.0] * m
    f = y.copy()  # y - K (alpha o y), kept up to date from two kernel rows
    # the up/low sets as additive masks: 0 inside, -inf/+inf outside
    up_mask = np.where(y > 0, 0.0, -np.inf)
    low_mask = np.where(y < 0, 0.0, np.inf)
    curv_rows = {}  # i -> K_ii + K_tt - 2 K_it floored at 1e-12, built on first use
    f_up, score, delta = np.empty(m), np.empty(m), np.empty(m)
    n_iter = 0
    for n_iter in range(1, SMO_MAX_ITER + 1):
        np.add(f, up_mask, out=f_up)
        i = int(f_up.argmax())
        f_i = float(f_up[i])
        np.add(f, low_mask, out=score)
        # an empty set reads -inf or +inf here, and so stops the loop
        if f_i - float(score[score.argmin()]) <= kkt_tol:
            break
        np.subtract(f_i, score, out=score)
        np.maximum(score, 0.0, out=score)
        np.square(score, out=score)
        curv_i = curv_rows.get(i)
        if curv_i is None:
            curv_i = curv_rows[i] = np.maximum(diag + (k_diag[i] - 2.0 * k[i]), 1e-12)
        score /= curv_i
        j = int(score.argmax())
        curv = k_diag[i] + k_diag[j] - 2.0 * float(k[i, j])
        if curv <= 0:
            curv = 1e-12
        y_i, y_j = labels[i], labels[j]
        cap_i = (C - alpha[i]) if y_i > 0 else alpha[i]
        cap_j = alpha[j] if y_j > 0 else (C - alpha[j])
        step = min((f_i - float(f[j])) / curv, cap_i, cap_j)
        alpha[i] = min(max(alpha[i] + y_i * step, 0.0), C)
        alpha[j] = min(max(alpha[j] - y_j * step, 0.0), C)
        np.subtract(k[i], k[j], out=delta)
        delta *= step
        f -= delta
        for t, y_t in ((i, y_i), (j, y_j)):
            below, above = alpha[t] < C, alpha[t] > 0.0
            up_mask[t] = 0.0 if (below if y_t > 0 else above) else -np.inf
            low_mask[t] = 0.0 if (above if y_t > 0 else below) else np.inf
    else:
        raise NoConvergenceError(f"SMO did not converge in {SMO_MAX_ITER} iterations")
    return _svm_model(np.array(alpha), y, f, C, n_iter)


def svm_train_batch(k, Y, C, kkt_tol: float = KKT_TOL) -> list[SvmModel]:
    """:func:`svm_train` on many binary problems over one Gram.

    Row b of ``Y`` labels problem b: +1/-1 on its points and 0 on the
    points outside it; ``C[b]`` is its C. Model b is bit for bit
    ``svm_train(principal_gram(k, Y[b] != 0), Y[b][Y[b] != 0], C[b])``,
    over the points of problem b. Each distinct set of points gets one
    such Gram (``k`` itself for every point) and one PSD verdict, so
    ``k`` is audited once when its audit covers them all. A batched step
    costs several scalar ones: fewer than ``LOCKSTEP_MIN_PROBLEMS``
    problems run exactly that, and more run in lockstep.

    The lockstep solver holds alpha, f and the up/low masks as (B, m)
    arrays on the shared Gram; a point marked 0 starts outside both
    sets, so no step picks it and its alpha stays 0. Each step takes the
    WSS2 step of every live problem, in the arithmetic order of
    :func:`svm_train` (Python's ``min``/``max`` become ``np.where`` so
    that even signed zeros agree), and a problem leaves the batch on its
    own KKT gap. A problem still live after ``SMO_MAX_ITER`` steps
    raises NoConvergenceError.
    """
    gram = as_gram(k)
    k = gram.entries
    m = k.shape[0]
    Y = np.array(Y, dtype=float)  # a copy: the live rows are compacted in place
    C = np.asarray(C, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != m or C.shape != Y.shape[:1]:
        raise DimMismatchError(f"labels shape {Y.shape} and C shape {C.shape} do not fit (B, {m})")
    if not np.isin(Y, (-1.0, 0.0, 1.0)).all():
        raise BadParamError("labels must be -1/0/+1")
    if not ((Y > 0).any(axis=1) & (Y < 0).any(axis=1)).all():
        raise OneClassError("training labels contain a single class")
    _require_c(C)
    _require_non_negative("kkt_tol", kkt_tol)
    masks = Y != 0
    scalar = len(Y) < LOCKSTEP_MIN_PROBLEMS
    models = [None] * len(Y)
    for b in np.sort(np.unique(masks, axis=0, return_index=True)[1]):
        on = masks[b]
        sub = gram if on.all() else principal_gram(gram, on)
        _require_psd(sub)
        for r in np.flatnonzero((masks == on).all(axis=1)) if scalar else ():
            models[r] = svm_train(sub, Y[r, on], float(C[r]), kkt_tol=kkt_tol)
    if scalar:
        return models

    diag = np.diag(k)
    # row i: K_ii + K_tt - 2 K_it floored at 1e-12, as svm_train builds it
    curv_rows = k * -2.0
    curv_rows += diag[:, None]
    curv_rows += diag
    np.maximum(curv_rows, 1e-12, out=curv_rows)
    ids = np.arange(len(Y))  # the problem of each live row
    first = masks.argmax(axis=1)  # the lowest point of each problem
    # (B, m) state and work arrays, allocated once: the live rows come first
    alpha = np.zeros(Y.shape)
    f = Y.copy()
    up = np.where(Y > 0, 0.0, -np.inf)
    low = np.where(Y < 0, 0.0, np.inf)
    score, work, rows = np.empty(Y.shape), np.empty(Y.shape), np.empty(Y.shape)
    k_flat = k.ravel()
    flat = np.arange(len(Y)) * m  # flat offset of each row

    def clip(a):  # min(max(a, 0.0), C) with Python's choice among equals
        a = np.where(0.0 > a, 0.0, a)
        return np.where(C < a, C, a)

    for n_iter in range(1, SMO_MAX_ITER + 1):
        np.add(f, up, out=work)
        i = work.argmax(axis=1)
        f_i = work.take(flat + i)
        np.add(f, low, out=score)
        stop = f_i - score.min(axis=1) <= kkt_tol
        if stop.any():
            for r in np.flatnonzero(stop):
                on = masks[r]
                models[ids[r]] = _svm_model(alpha[r, on], Y[r, on], f[r, on], float(C[r]), n_iter)
            keep = np.flatnonzero(~stop)
            if not keep.size:
                break
            for a in (alpha, f, up, low, Y, masks, score):
                a[: keep.size] = a[keep]
            alpha, f, up, low, Y, masks, score, work, rows = (
                a[: keep.size] for a in (alpha, f, up, low, Y, masks, score, work, rows)
            )
            ids, first, C, i, f_i = (a[keep] for a in (ids, first, C, i, f_i))
            flat = flat[: keep.size]
        np.subtract(f_i[:, None], score, out=score)
        np.maximum(score, 0.0, out=score)
        np.square(score, out=score)
        # mode="clip" (the indices are in range) spares the buffered copy of "raise"
        score /= np.take(curv_rows, i, axis=0, out=rows, mode="clip")
        j = score.argmax(axis=1)
        j_flat = flat + j
        # all-zero scores: svm_train's argmax takes the problem's lowest point
        lost = score.take(j_flat) == 0.0
        if lost.any():
            j = np.where(lost, first, j)
            j_flat = flat + j
        i_flat = flat + i
        curv = diag[i] + diag[j] - 2.0 * k_flat.take(i * m + j)
        curv = np.where(curv <= 0, 1e-12, curv)
        y_i, y_j = Y.take(i_flat), Y.take(j_flat)
        a_i, a_j = alpha.take(i_flat), alpha.take(j_flat)
        cap_i = np.where(y_i > 0, C - a_i, a_i)
        cap_j = np.where(y_j > 0, a_j, C - a_j)
        step = (f_i - f.take(j_flat)) / curv
        step = np.where(cap_i < step, cap_i, step)
        step = np.where(cap_j < step, cap_j, step)
        alpha.put(i_flat, clip(alpha.take(i_flat) + y_i * step))
        alpha.put(j_flat, clip(alpha.take(j_flat) - y_j * step))
        np.take(k, i, axis=0, out=work, mode="clip")
        work -= np.take(k, j, axis=0, out=rows, mode="clip")
        work *= step[:, None]
        f -= work
        # i and j rejoin the up/low sets by their final alpha
        t_flat = np.concatenate((i_flat, j_flat))
        a_t, positive = alpha.take(t_flat), np.concatenate((y_i, y_j)) > 0
        below, above = a_t < np.concatenate((C, C)), a_t > 0.0
        up.put(t_flat, np.where(np.where(positive, below, above), 0.0, -np.inf))
        low.put(t_flat, np.where(np.where(positive, above, below), 0.0, np.inf))
    else:
        raise NoConvergenceError(f"SMO did not converge in {SMO_MAX_ITER} iterations")
    return models


def svm_decision(model: SvmModel, kernel_columns) -> np.ndarray:
    """Decision values f(x) = sum_i dual_coefs_i k(x_i, x) + bias.

    ``kernel_columns`` holds one column per test point (m x t).
    """
    cols = np.asarray(kernel_columns, dtype=float)
    if cols.shape[0] != model.dual_coefs.shape[0]:
        raise DimMismatchError(
            f"kernel columns have {cols.shape[0]} rows, expected {model.dual_coefs.shape[0]}"
        )
    return model.dual_coefs @ cols + model.bias


def svm_dual_objective(model: SvmModel, k) -> float:
    """Dual objective sum(alpha) - (1/2) dc^T K dc of a model trained on
    the kernel matrix ``k``; over MKL weights its value is J(lambda)."""
    dc = model.dual_coefs
    return float(np.sum(np.abs(dc))) - 0.5 * float(dc @ as_gram(k).entries @ dc)


# ---------------------------------------------------------------------------
# Multiclass wrappers
# ---------------------------------------------------------------------------

#: The reductions of a classification problem to binary SVMs.
_SVM_MODES = ("binary", "one-vs-all", "one-vs-one")


@dataclass
class MulticlassSvmModel:
    mode: str  # "binary" | "one-vs-all" | "one-vs-one"
    classes: np.ndarray
    models: list
    pair_indices: list | None = None  # training-subset indices per pair (ovo)
    pairs: list | None = None  # (class_a, class_b) per model (ovo)

    def __post_init__(self):
        # a model read back from a file predicts only once its parts agree
        n = len(self.classes)
        distinct = len(np.unique(self.classes)) == n
        got = np.asarray(self.classes).tolist()
        if self.mode not in _SVM_MODES:
            raise BadParamError(f"unknown multiclass mode {self.mode!r}")
        if self.mode == "binary" and not (n == 2 and distinct):
            raise BadParamError(f"a binary model needs 2 distinct classes, got {got}")
        if n < 2 or not distinct:
            raise BadParamError(f"need at least 2 distinct classes, got {got}")
        if self.mode != "one-vs-one":
            n_models = 1 if self.mode == "binary" else n
            if len(self.models) != n_models:
                raise BadParamError(f"{self.mode} needs {n_models} models, got {len(self.models)}")
            return
        n_pairs = n * (n - 1) // 2
        if not len(self.models) == len(self.pairs or ()) == len(self.pair_indices or ()) == n_pairs:
            raise BadParamError(
                f"one-vs-one over {n} classes needs {n_pairs} models, pairs and index sets"
            )
        known = set(self.classes.tolist())
        for model, (a, b), idx in zip(self.models, self.pairs, self.pair_indices):
            if a == b or not {a, b} <= known:
                raise BadParamError(f"pair {(a, b)} is not two distinct classes of {sorted(known)}")
            if len(idx) != len(model.dual_coefs) or (len(idx) and min(idx) < 0):
                raise BadParamError(f"pair {(a, b)} needs {len(model.dual_coefs)} indices >= 0")


def _binary_problems(y, mode: str):
    """The binary problems of the ``mode`` reduction of the labels ``y``,
    as (codes, fields). Row p of ``codes`` labels problem p with +1/-1 on
    its points and 0 off them, the form :func:`svm_train_batch` takes;
    ``fields`` are the :class:`MulticlassSvmModel` fields but its models:
    mode, classes and, for one-vs-one, the (class_a, class_b) of each
    problem, +1 on class_a, and its points. The one problem of "binary"
    codes the larger of exactly two classes +1."""
    if mode not in _SVM_MODES:
        raise BadParamError(f"unknown multiclass mode {mode!r}")
    classes = np.unique(y)
    if len(classes) < 2:
        raise OneClassError("training labels contain a single class")
    fields = {"mode": mode, "classes": classes}
    if mode == "binary":
        if len(classes) > 2:
            raise BadParamError("binary SVM needs exactly two label values")
        return np.where(y == classes[1], 1.0, -1.0)[None], fields
    if mode == "one-vs-all":
        return np.where(y == classes[:, None], 1.0, -1.0), fields
    pairs = [(a, b) for n, a in enumerate(classes) for b in classes[n + 1:]]
    codes = np.array([np.where(y == a, 1.0, np.where(y == b, -1.0, 0.0)) for a, b in pairs])
    return codes, dict(fields, pairs=pairs, pair_indices=[np.flatnonzero(code) for code in codes])


def multiclass_svm_train(
    k,
    y,
    C: float,
    mode: str = "one-vs-all",
    kkt_tol: float = KKT_TOL,
) -> MulticlassSvmModel:
    """Binary, one-vs-all or one-vs-one reduction to binary SVMs, whose
    problems go to one :func:`svm_train_batch` on the kernel matrix."""
    codes, fields = _binary_problems(np.asarray(y).ravel(), mode)
    models = svm_train_batch(k, codes, np.full(len(codes), C), kkt_tol=kkt_tol)
    return MulticlassSvmModel(models=models, **fields)


def multiclass_svm_predict(model: MulticlassSvmModel, kernel_columns) -> np.ndarray:
    """Predicted class ids: the larger class where a binary decision is
    >= 0, the largest one-vs-all decision, or the most one-vs-one votes,
    summed decisions breaking ties; other ties go to the lowest class id."""
    cols = np.asarray(kernel_columns, dtype=float)
    if model.mode == "binary":
        return model.classes[(svm_decision(model.models[0], cols) >= 0).astype(int)]
    if model.mode == "one-vs-all":
        return model.classes[np.argmax([svm_decision(mdl, cols) for mdl in model.models], axis=0)]
    votes = np.zeros((len(model.classes), cols.shape[1]))
    sums = np.zeros_like(votes)
    pos = {c: i for i, c in enumerate(model.classes)}
    for mdl, idx, (cls_a, cls_b) in zip(model.models, model.pair_indices, model.pairs):
        dec = svm_decision(mdl, cols[idx, :])
        votes[pos[cls_a]] += dec >= 0
        votes[pos[cls_b]] += dec < 0
        sums[pos[cls_a]] += dec
        sums[pos[cls_b]] -= dec
    # fold summed decisions in as a strictly-smaller tie-break term
    scale = 1.0 / (4.0 * (1.0 + np.max(np.abs(sums))))
    return model.classes[np.argmax(votes + sums * scale, axis=0)]


# ---------------------------------------------------------------------------
# Multiple kernel learning
# ---------------------------------------------------------------------------

@dataclass
class MklModel:
    weights: np.ndarray  # simplex weights over the kernel list
    svm: SvmModel
    objective_trace: list
    n_outer: int  # accepted outer steps, len(objective_trace) - 1
    stop: str  # how the outer loop ended, see mkl_train


def combine_kernels(kernels, weights) -> np.ndarray:
    mats = [as_gram(k).entries for k in kernels]
    out = np.zeros_like(mats[0])
    for w, mat in zip(weights, mats):
        out += w * mat
    return out


def mkl_train(
    kernels,
    y,
    C: float,
    max_outer_iter: int = 50,
    tol: float = 1e-6,
) -> MklModel:
    """Simplex-constrained multiple kernel learning around an SVM.

    Minimizes the optimal SVM objective J(lambda) of the combined kernel
    K(lambda) = sum_j lambda_j K_j over the unit simplex, alternating an
    SVM solve (lambda fixed) with a reduced-gradient descent step on
    lambda (dual fixed; dJ/dlambda_j = -(1/2) dc^T K_j dc), with a
    backtracking line search that only accepts non-increasing objectives.
    Each kernel is checked for symmetry and audited once; by Weyl's
    inequality sum_j lambda_j min_eigen(K_j) bounds the smallest
    eigenvalue of K(lambda) from below, so the inner solves run neither
    check nor eigenvalue audit.

    The model records ``n_outer``, the accepted outer steps, and
    ``stop``, how the loop ended: ``"stationary"`` (the reduced gradient
    is zero), ``"line-search"`` (20 step halvings all raised the
    objective), ``"tol"`` (an accepted step lowered it by less than
    ``tol``) or ``"max-outer"`` (``max_outer_iter`` steps were taken).
    """
    _require_non_negative("max_outer_iter", max_outer_iter)
    _require_non_negative("tol", tol)
    grams = [as_gram(k) for k in kernels]
    if not grams:
        raise BadParamError("need at least one kernel")
    if any(gram.size != grams[0].size for gram in grams):
        raise DimMismatchError("kernel matrices differ in size")
    min_eigens = [_require_psd(gram) for gram in grams]
    n_kernels = len(grams)
    lam = np.full(n_kernels, 1.0 / n_kernels)

    def solve(weights):
        # a weighted sum of exactly symmetric matrices is exactly symmetric
        combined = GramMatrix(
            combine_kernels(grams, weights), min_eigen=float(weights @ min_eigens), symmetric=True
        )
        model = svm_train(combined, y, C)
        return model, svm_dual_objective(model, combined)

    model, objective = solve(lam)
    trace = [objective]
    stop = "max-outer"
    for _ in range(max_outer_iter):
        dc = model.dual_coefs
        grad = np.array([-0.5 * float(dc @ gram.entries @ dc) for gram in grams])
        pivot = int(np.argmax(lam))
        direction = -(grad - grad[pivot])
        direction[(lam <= 0) & (direction < 0)] = 0.0
        direction[pivot] = 0.0
        direction[pivot] = -direction.sum()
        if np.linalg.norm(direction) < 1e-14:
            stop = "stationary"
            break
        neg = direction < 0
        step = float(np.min(lam[neg] / -direction[neg]))
        for _ in range(20):
            trial = np.clip(lam + step * direction, 0.0, None)
            trial /= trial.sum()
            trial_model, trial_objective = solve(trial)
            if trial_objective <= objective:
                lam, model, objective = trial, trial_model, trial_objective
                break
            step /= 2.0
        else:
            stop = "line-search"
            break
        trace.append(objective)
        if trace[-2] - trace[-1] < tol:
            stop = "tol"
            break
    return MklModel(weights=lam, svm=model, objective_trace=trace, n_outer=len(trace) - 1, stop=stop)
