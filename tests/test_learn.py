import numpy as np
import pytest

from manikernels import learn
from manikernels.errors import (
    BadParamError,
    NoConvergenceError,
    NotPsdError,
    OneClassError,
    SingularScatterError,
)
from manikernels.kernels import (
    KernelSpec,
    cross_gram,
    gram_matrix,
    squared_distance_matrix,
)
from manikernels.learn import (
    Embedding,
    kernel_fda,
    kernel_kmeans,
    kernel_pca,
)
from manikernels.matrixops import spd_exp

from oracles import euclidean_linear_gram, fda_project, median_heuristic_gamma, synth_two_rings


def euclid_gauss_gram(points, gamma):
    spec = KernelSpec(manifold="euclidean", metric="euclidean", gamma=gamma)
    return gram_matrix(spec, points)


def exhaustive_two_cluster_energy(k):
    """Brute-force optimum of the 2-cluster RKHS objective.

    Per-cluster energy sum_i K_ii - (1/|c|) sum_{ij} K_ij; enumerates every
    nonempty bipartition.
    """
    m = k.shape[0]
    diag = np.diag(k)
    best = np.inf
    for bits in range(1, 2**m - 1):
        mask = np.array([(bits >> i) & 1 for i in range(m)], dtype=bool)
        energy = 0.0
        for cluster in (mask, ~mask):
            idx = np.flatnonzero(cluster)
            sub = k[np.ix_(idx, idx)]
            energy += diag[idx].sum() - sub.sum() / idx.size
        best = min(best, energy)
    return best


# ---------------------------------------------------------------------------
# kernel k-means
# ---------------------------------------------------------------------------

def test_kmeans_k_equals_m_zero_energy():
    rng = np.random.default_rng(0)
    pts = [rng.standard_normal(2) for _ in range(6)]
    gram = euclid_gauss_gram(pts, 1.0)
    result = kernel_kmeans(gram, 6, restarts=3, seed=0)
    assert result.energy == pytest.approx(0.0, abs=1e-12)
    assert sorted(result.labels.tolist()) == list(range(6))


def test_kmeans_duplicates_trigger_empty_cluster_repair():
    pts = [np.zeros(2), np.zeros(2), np.ones(2), np.ones(2)]
    gram = euclid_gauss_gram(pts, 1.0)
    result = kernel_kmeans(gram, 4, restarts=2, seed=1)
    assert result.energy == pytest.approx(0.0, abs=1e-12)
    assert sorted(result.labels.tolist()) == [0, 1, 2, 3]


def test_kmeans_two_spd_groups_recovered():
    rng = np.random.default_rng(2)
    logs = [0.01 * _sym(rng, 3) for _ in range(10)]
    logs += [5.0 * np.eye(3) + 0.01 * _sym(rng, 3) for _ in range(10)]
    points = [spd_exp(log) for log in logs]
    d2 = squared_distance_matrix("spd", "log-euclidean", points)
    # construction check: tight within groups, far between
    assert np.sqrt(d2[:10, :10].max()) <= 0.1
    assert np.sqrt(d2[:10, 10:].min()) >= 5.0
    spec = KernelSpec(manifold="spd", metric="log-euclidean", gamma=1.0)
    gram = gram_matrix(spec, points)
    result = kernel_kmeans(gram, 2, restarts=10, seed=3)
    truth = np.array([0] * 10 + [1] * 10)
    agreement = max(
        np.mean(result.labels == truth), np.mean(result.labels == 1 - truth)
    )
    assert agreement == 1.0


def _sym(rng, d):
    a = rng.standard_normal((d, d))
    return (a + a.T) / 2.0


def test_kmeans_matches_exhaustive_optimum():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 9))
        pts = [rng.standard_normal(2) for _ in range(m)]
        gram = euclid_gauss_gram(pts, 0.5)
        result = kernel_kmeans(gram, 2, restarts=32, seed=seed)
        oracle = exhaustive_two_cluster_energy(gram.entries)
        assert result.energy == pytest.approx(oracle, abs=1e-10)


def test_kmeans_energy_trace_non_increasing():
    rng = np.random.default_rng(4)
    pts = [rng.standard_normal(3) for _ in range(25)]
    gram = euclid_gauss_gram(pts, 0.7)
    result = kernel_kmeans(gram, 4, restarts=5, seed=5)
    trace = np.array(result.energy_trace)
    assert np.all(np.diff(trace) <= 1e-10)
    assert result.restarts_used == 5


def best_single_move_delta(k, labels, n_clusters):
    """(smallest energy change over every single-point move that leaves
    no cluster empty, energy of the partition), from a fresh K @ Z."""
    m = k.shape[0]
    z = np.zeros((m, n_clusters))
    z[np.arange(m), labels] = 1.0
    sizes = z.sum(axis=0)
    sums = k @ z
    within = np.einsum("ic,ic->c", z, sums)
    dist2 = np.diag(k)[:, None] - 2.0 * sums / sizes + within / sizes**2
    best = np.inf
    for i in range(m):
        a = labels[i]
        if sizes[a] < 2:
            continue
        leave = sizes[a] / (sizes[a] - 1.0) * dist2[i, a]
        for c in range(n_clusters):
            if c != a:
                best = min(best, sizes[c] / (sizes[c] + 1.0) * dist2[i, c] - leave)
    energy = float(np.trace(k) - np.sum(within / sizes))
    return best, energy


def _spd_cloud_gram():
    rng = np.random.default_rng([0, 200])
    points = [spd_exp(0.5 * _sym(rng, 8)) for _ in range(200)]
    return gram_matrix(KernelSpec(manifold="spd", metric="log-euclidean", gamma=0.1), points)


def test_kmeans_stops_at_single_move_local_minimum():
    gram = _spd_cloud_gram()
    result = kernel_kmeans(gram, 3, restarts=2, seed=0)
    delta, energy = best_single_move_delta(gram.entries, result.labels, 3)
    assert result.energy == pytest.approx(energy, rel=1e-12)
    assert delta >= -1e-9 * result.energy
    assert result.n_moves > 0


def test_kmeans_move_bound_raises(monkeypatch):
    monkeypatch.setattr(learn, "MAX_MOVES_PER_POINT", 0)
    with pytest.raises(NoConvergenceError):
        kernel_kmeans(_spd_cloud_gram(), 3, restarts=2, seed=0)


def test_kmeans_param_errors():
    gram = euclid_gauss_gram([np.zeros(2), np.ones(2)], 1.0)
    with pytest.raises(BadParamError):
        kernel_kmeans(gram, 0)
    with pytest.raises(BadParamError):
        kernel_kmeans(gram, 1, restarts=0)
    with pytest.raises(BadParamError):
        kernel_kmeans(gram, 3)
    with pytest.raises(NotPsdError):
        kernel_kmeans(np.array([[1.0, 2.0], [2.0, 1.0]]), 1)


# ---------------------------------------------------------------------------
# kernel PCA
# ---------------------------------------------------------------------------

def test_kpca_identical_rows_center_to_zero():
    k = np.ones((5, 5))
    emb = kernel_pca(k, 3)
    np.testing.assert_allclose(emb.coords, 0.0, atol=1e-9)


def test_kpca_matches_classical_pca_scores():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20, 4))
    x -= x.mean(axis=0)
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    classical = u * s  # classical PCA scores
    emb = kernel_pca(euclidean_linear_gram(list(x)), 4)
    for c in range(4):
        col = emb.coords[:, c]
        ref = classical[:, c]
        assert min(np.linalg.norm(col - ref), np.linalg.norm(col + ref)) <= 1e-8


def test_kpca_trace_preservation():
    rng = np.random.default_rng(7)
    pts = [rng.standard_normal(3) for _ in range(10)]
    gram = euclid_gauss_gram(pts, 1.0)
    emb = kernel_pca(gram, 10)
    k = gram.entries
    h = np.eye(10) - np.full((10, 10), 0.1)
    centered = h @ k @ h
    assert emb.eigenvalues.sum() == pytest.approx(np.trace(centered), abs=1e-9)
    assert np.all(np.diff(emb.eigenvalues) <= 1e-12)
    assert np.all(emb.eigenvalues >= -1e-8 * 10)


def test_kpca_column_squared_norm_equals_eigenvalue():
    rng = np.random.default_rng(8)
    pts = [rng.standard_normal(2) for _ in range(12)]
    emb = kernel_pca(euclid_gauss_gram(pts, 2.0), 5)
    for c in range(5):
        assert np.linalg.norm(emb.coords[:, c]) ** 2 == pytest.approx(
            max(emb.eigenvalues[c], 0.0), abs=1e-10
        )


def test_kpca_sign_convention_deterministic():
    rng = np.random.default_rng(9)
    pts = [rng.standard_normal(2) for _ in range(8)]
    emb = kernel_pca(euclid_gauss_gram(pts, 1.0), 3)
    for c in range(3):
        j = np.argmax(np.abs(emb.coords[:, c]))
        assert emb.coords[j, c] >= 0


def test_kpca_bad_l():
    gram = euclid_gauss_gram([np.zeros(2), np.ones(2)], 1.0)
    with pytest.raises(BadParamError):
        kernel_pca(gram, 0)
    with pytest.raises(BadParamError):
        kernel_pca(gram, 3)


def _captured(monkeypatch, name):
    """The matrices the test hands to ``np.linalg.<name>``, in call order."""
    seen = []
    real = getattr(np.linalg, name)

    def capture(a, *args, **kwargs):
        seen.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, capture)
    return seen


def test_centring_matches_the_centring_matrix_forms(monkeypatch):
    rng = np.random.default_rng(31)
    m, ridge = 60, 1e-3
    points = [spd_exp(0.5 * _sym(rng, 4)) for _ in range(m)]
    labels = np.arange(m) % 3
    k = gram_matrix(KernelSpec(manifold="spd", metric="log-euclidean", gamma=0.5), points).entries
    centring = np.eye(m) - np.full((m, m), 1.0 / m)

    eighs = _captured(monkeypatch, "eigh")
    kernel_pca(k, 3)
    want = centring @ k @ centring
    assert np.linalg.norm(eighs[0] - want) <= 1e-12 * np.linalg.norm(want)

    choleskys = _captured(monkeypatch, "cholesky")
    kernel_fda(k, labels, ridge=ridge)
    want = ridge * np.eye(m)
    for cls in range(3):
        kc = k[:, labels == cls]
        n = kc.shape[1]
        want += kc @ (np.eye(n) - np.full((n, n), 1.0 / n)) @ kc.T
    assert np.linalg.norm(choleskys[0] - want) <= 1e-12 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# kernel FDA
# ---------------------------------------------------------------------------

def test_kfda_two_duplicated_points_separate():
    pts = [np.zeros(2), np.zeros(2), np.ones(2), np.ones(2)]
    labels = np.array([0, 0, 1, 1])
    gram = euclid_gauss_gram(pts, 1.0)
    emb = kernel_fda(gram, labels)
    proj = emb.coords[:, 0]
    margin = min(proj[2:]) - max(proj[:2])
    assert abs(margin) > 0  # separated with a strict gap
    assert len(set(np.sign(proj - proj.mean()))) == 2


def test_kfda_invariant_to_relabeling():
    rng = np.random.default_rng(10)
    pts = [rng.standard_normal(2) for _ in range(12)]
    labels = np.array([0, 1] * 6)
    gram = euclid_gauss_gram(pts, 1.0)
    a = kernel_fda(gram, labels)
    b = kernel_fda(gram, 1 - labels)
    np.testing.assert_allclose(np.abs(a.coords), np.abs(b.coords), atol=1e-8)


def test_kfda_rings_benchmark():
    pts, labels = synth_two_rings(100, seed=11)
    rng = np.random.default_rng(12)
    order = rng.permutation(len(pts))
    train, test = order[:120], order[120:]
    train_pts = [pts[i] for i in train]
    test_pts = [pts[i] for i in test]
    d2 = squared_distance_matrix("euclidean", "euclidean", train_pts)
    gamma = median_heuristic_gamma(d2)
    spec = KernelSpec(manifold="euclidean", metric="euclidean", gamma=gamma)
    gram = gram_matrix(spec, train_pts)
    emb = kernel_fda(gram, labels[train])
    cols = cross_gram(spec, train_pts, test_pts)
    test_proj = fda_project(emb, cols)
    correct = 0
    for t in range(len(test_pts)):
        nn = np.argmin(np.linalg.norm(emb.coords - test_proj[t], axis=1))
        correct += labels[train][nn] == labels[test][t]
    assert correct / len(test_pts) >= 0.95


def test_kfda_singular_scatter_without_ridge():
    pts = [np.zeros(2), np.zeros(2), np.ones(2), np.ones(2)]
    gram = euclid_gauss_gram(pts, 1.0)
    with pytest.raises(SingularScatterError):
        kernel_fda(gram, np.array([0, 0, 1, 1]), ridge=0.0)


def test_kfda_one_class_is_a_one_class_error():
    gram = euclid_gauss_gram([np.zeros(2), np.ones(2), 2 * np.ones(2)], 1.0)
    with pytest.raises(OneClassError):
        kernel_fda(gram, np.array([4, 4, 4]))


def test_kfda_bad_dims():
    pts = [np.zeros(2), np.ones(2), 2 * np.ones(2), 3 * np.ones(2)]
    gram = euclid_gauss_gram(pts, 1.0)
    with pytest.raises(BadParamError):
        kernel_fda(gram, np.array([0, 0, 1, 1]), dims=2)


def test_fda_project_requires_weights():
    emb = Embedding(coords=np.zeros((2, 1)), eigenvalues=np.zeros(1))
    with pytest.raises(BadParamError):
        fda_project(emb, np.zeros((2, 3)))
