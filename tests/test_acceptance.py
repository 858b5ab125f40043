"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line with the measured
quantity so a plain `pytest -s tests/test_acceptance.py` reads as a
checklist.
"""

import itertools
import json
import time

import numpy as np

from manikernels.cli import run as cli_run
from manikernels.data import synth_spd_blobs
from manikernels.features import region_covariance
from manikernels.kernels import (
    KernelSpec,
    cross_squared_distances,
    definiteness_search,
    gram_from_squared_distances,
    gram_matrix,
    squared_distance_matrix,
)
from manikernels.learn import (
    kernel_kmeans,
    kernel_pca,
    mkl_train,
    svm_train,
)

from oracles import (
    affine_invariant_grad_norm,
    cnd_check,
    euclidean_linear_gram,
    grassmann_distance,
    karcher_mean_iterative,
    karcher_mean_log_euclidean,
    median_heuristic_gamma,
    psd_check,
    sample_grassmann,
    sample_spd,
    svm_objectives,
)

GRID = (1e-2, 1e-1, 1.0, 10.0, 100.0)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Definiteness matrix reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_definiteness_matrix():
    start = time.time()
    m = 40
    yes_cases = [
        ("spd", "log-euclidean", dict(dim=3)),
        ("spd", "log-euclidean", dict(dim=5)),
        ("spd", "cholesky", dict(dim=3)),
        ("spd", "cholesky", dict(dim=5)),
        ("spd", "power-euclidean", dict(dim=3)),
        ("spd", "power-euclidean", dict(dim=5)),
        ("grassmann", "projection", dict(dim=5, subspace_dim=2)),
        ("grassmann", "projection", dict(dim=10, subspace_dim=3)),
    ]
    worst = np.inf
    for manifold, metric, kw in yes_cases:
        rep = definiteness_search(
            manifold, metric, GRID, m=m, trials=50, seed=7, alpha=0.5, **kw
        )
        assert rep.verdict == "psd_within_tol", (manifold, metric, kw, rep.verdict)
        assert rep.min_eigen >= -1e-8 * m, (manifold, metric, kw, rep.min_eigen)
        worst = min(worst, rep.min_eigen)
    no_cases = [
        ("grassmann", "arc-length", dict(dim=5, subspace_dim=2)),
        ("grassmann", "fubini-study", dict(dim=5, subspace_dim=2)),
        ("grassmann", "chordal-2norm", dict(dim=5, subspace_dim=2)),
        ("grassmann", "chordal-fnorm", dict(dim=5, subspace_dim=2)),
        ("spd", "root-stein", dict(dim=3)),
    ]
    for manifold, metric, kw in no_cases:
        rep = definiteness_search(manifold, metric, GRID, m=m, trials=200, seed=7, **kw)
        assert rep.verdict == "witness_found", (manifold, metric, kw)
        assert rep.min_eigen < -1e-7 * m, (manifold, metric, kw, rep.min_eigen)
    elapsed = time.time() - start
    _report(
        "criterion 1 (definiteness tables)",
        elapsed <= 120.0,
        f"8 PSD cases (worst min eig {worst:.2e} >= {-1e-8 * m:.0e}), "
        f"5 witnesses found, {elapsed:.1f}s <= 120s",
    )


# ---------------------------------------------------------------------------
# 2. Schoenberg consistency between CND and PSD tests
# ---------------------------------------------------------------------------

def test_criterion_2_cnd_psd_consistency():
    rng = np.random.default_rng(42)
    cases = [
        ("spd", "log-euclidean", lambda: [sample_spd(rng, 3) for _ in range(15)]),
        ("spd", "cholesky", lambda: [sample_spd(rng, 3) for _ in range(15)]),
        ("spd", "power-euclidean", lambda: [sample_spd(rng, 3) for _ in range(15)]),
        ("grassmann", "projection", lambda: [sample_grassmann(rng, 6, 2) for _ in range(15)]),
    ]
    checked = 0
    for manifold, metric, sampler in cases:
        for _ in range(20):
            points = sampler()
            m = len(points)
            d2 = squared_distance_matrix(manifold, metric, points)
            cnd_ok, _ = cnd_check(d2, 1e-8 * m)
            psd_ok = all(psd_check(np.exp(-g * d2), 1e-8 * m)[0] for g in GRID)
            assert cnd_ok == psd_ok, (manifold, metric)
            assert cnd_ok
            checked += 1
    _report(
        "criterion 2 (CND <=> PSD)",
        checked == 80,
        f"{checked} point sets agreed at tol 1e-8*m",
    )


# ---------------------------------------------------------------------------
# 3. Fast projection identity
# ---------------------------------------------------------------------------

def test_criterion_3_fast_projection_identity():
    # the registry's projection embedding against the projector form and
    # the squared sines of scipy's principal angles
    start = time.time()
    rng = np.random.default_rng(1)
    shapes = [(10, 2), (40, 3), (120, 4), (550, 5)]
    worst = 0.0
    for i in range(200):
        n, r = shapes[i % len(shapes)]
        y1 = sample_grassmann(rng, n, r)
        y2 = sample_grassmann(rng, n, r)
        fast = cross_squared_distances("grassmann", "projection", [y1], [y2])[0, 0]
        projector = 0.5 * np.linalg.norm(y1 @ y1.T - y2 @ y2.T) ** 2
        angles = float(grassmann_distance("projection", y1, y2) ** 2)
        worst = max(worst, abs(fast - projector), abs(fast - angles))
    elapsed = time.time() - start
    _report(
        "criterion 3 (fast projection identity)",
        worst <= 1e-9 and elapsed <= 10.0,
        f"max deviation {worst:.2e} <= 1e-9 over 200 pairs up to (550, 5), {elapsed:.1f}s <= 10s",
    )


# ---------------------------------------------------------------------------
# 4. Karcher mean consistency
# ---------------------------------------------------------------------------

def _log_mean_gradient_descent(points, steps=3000, lr=0.4):
    logs = []
    for p in points:
        w, u = np.linalg.eigh(p)
        logs.append((u * np.log(w)) @ u.T)
    logs = np.stack(logs)
    current = np.zeros_like(logs[0])
    for _ in range(steps):
        grad = 2.0 * (current - logs).sum(axis=0)
        current = current - lr * grad / len(logs)
    w, u = np.linalg.eigh(current)
    return (u * np.exp(w)) @ u.T


def test_criterion_4_karcher_consistency():
    rng = np.random.default_rng(2)
    worst_le = 0.0
    for _ in range(20):
        points = [sample_spd(rng, 3) for _ in range(8)]
        closed = karcher_mean_log_euclidean(points)
        oracle = _log_mean_gradient_descent(points)
        worst_le = max(worst_le, float(np.linalg.norm(closed - oracle)))
    assert worst_le <= 1e-8

    worst_grad = 0.0
    for _ in range(5):
        points = [sample_spd(rng, 3) for _ in range(8)]
        mean = karcher_mean_iterative("affine-invariant", points, tol=1e-10)
        worst_grad = max(worst_grad, affine_invariant_grad_norm(mean, points))
    _report(
        "criterion 4 (Karcher consistency)",
        worst_le <= 1e-8 and worst_grad < 1e-7,
        f"closed vs iterative {worst_le:.2e} <= 1e-8; "
        f"affine-invariant grad norm {worst_grad:.2e} < 1e-7",
    )


# ---------------------------------------------------------------------------
# 5. Oracle equivalences
# ---------------------------------------------------------------------------

def _exhaustive_two_cluster_energy(k):
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


def test_criterion_5_oracle_equivalences():
    # kernel k-means vs exhaustive enumeration
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 9))
        pts = [rng.standard_normal(2) for _ in range(m)]
        gram = gram_matrix(
            KernelSpec(manifold="euclidean", metric="euclidean", gamma=0.5), pts
        )
        result = kernel_kmeans(gram, 2, restarts=32, seed=seed)
        oracle = _exhaustive_two_cluster_energy(gram.entries)
        assert abs(result.energy - oracle) <= 1e-10, (seed, result.energy, oracle)

    # integral-image covariance vs direct covariance
    rng = np.random.default_rng(100)
    maps = rng.uniform(size=(4, 16, 18))
    worst_cov = 0.0
    for _ in range(50):
        w = int(rng.integers(3, 12))
        h = int(rng.integers(3, 10))
        x0 = int(rng.integers(0, maps.shape[2] - w + 1))
        y0 = int(rng.integers(0, maps.shape[1] - h + 1))
        cov = region_covariance(maps, (x0, y0, w, h), epsilon=1e-9)
        pixels = maps[:, y0 : y0 + h, x0 : x0 + w].reshape(4, -1)
        direct = np.cov(pixels, ddof=1) + 1e-9 * np.eye(4)
        rel = np.linalg.norm(cov - direct) / max(1.0, np.linalg.norm(direct))
        worst_cov = max(worst_cov, rel)
    assert worst_cov <= 1e-8

    # kernel PCA vs classical PCA on a linear kernel
    rng = np.random.default_rng(101)
    x = rng.standard_normal((25, 5))
    x -= x.mean(axis=0)
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    classical = u * s
    emb = kernel_pca(euclidean_linear_gram(list(x)), 5)
    worst_pca = 0.0
    for c in range(5):
        col, ref = emb.coords[:, c], classical[:, c]
        worst_pca = max(
            worst_pca, min(np.linalg.norm(col - ref), np.linalg.norm(col + ref))
        )
    _report(
        "criterion 5 (oracle equivalences)",
        worst_cov <= 1e-8 and worst_pca <= 1e-8,
        f"20 exhaustive k-means optima matched; covariance dev {worst_cov:.2e}; "
        f"kPCA vs PCA dev {worst_pca:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. SVM correctness
# ---------------------------------------------------------------------------

def test_criterion_6_svm_correctness():
    model = svm_train(np.eye(2), np.array([1.0, -1.0]), C=10.0)
    exact = (
        model.dual_coefs[0] == 1.0
        and model.dual_coefs[1] == -1.0
        and model.bias == 0.0
    )
    assert exact

    worst_kkt, worst_gap = 0.0, 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(20, 61))
        pts = [rng.standard_normal(2) for _ in range(m)]
        y = np.where(np.array([p[0] + 0.3 * p[1] for p in pts]) > 0, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        gram = gram_matrix(
            KernelSpec(manifold="euclidean", metric="euclidean", gamma=1.0), pts
        )
        c_val = [0.5, 1.0, 10.0][seed % 3]
        model = svm_train(gram, y, C=c_val, kkt_tol=1e-9)
        dual, primal = svm_objectives(model, gram, y)
        worst_kkt = max(worst_kkt, model.kkt_violation)
        worst_gap = max(worst_gap, (primal - dual) / m)
    _report(
        "criterion 6 (SVM correctness)",
        exact and worst_kkt <= 1e-3 and worst_gap <= 1e-6,
        f"two-point dual exact; KKT violation {worst_kkt:.2e} <= 1e-3; "
        f"duality gap {worst_gap:.2e}*m <= 1e-6*m",
    )


# ---------------------------------------------------------------------------
# 7. Qualitative clustering ordering
# ---------------------------------------------------------------------------

def _clustering_accuracy(labels, truth, k):
    best = 0.0
    for perm in itertools.permutations(range(k)):
        mapped = np.array([perm[v] for v in labels])
        best = max(best, float(np.mean(mapped == truth)))
    return best


def test_criterion_7_clustering_ordering():
    start = time.time()
    accs = {"kkm_le": [], "kkm_eu": [], "km_eu": []}
    for seed in range(10):
        k = 3 + seed % 3
        pts, truth = synth_spd_blobs(
            k, 40, 3, seed=seed, center_scale=1.5, noise_scale=0.4
        )
        d2_le = squared_distance_matrix("spd", "log-euclidean", pts)
        gram_le = gram_from_squared_distances(
            KernelSpec("spd", "log-euclidean", median_heuristic_gamma(d2_le)), d2_le
        )
        d2_eu = squared_distance_matrix("euclidean", "euclidean", pts)
        gram_eu = gram_from_squared_distances(
            KernelSpec("euclidean", "euclidean", median_heuristic_gamma(d2_eu)), d2_eu
        )
        linear = euclidean_linear_gram(pts)  # kernel k-means on X X^T == plain k-means
        accs["kkm_le"].append(
            _clustering_accuracy(kernel_kmeans(gram_le, k, restarts=20, seed=seed).labels, truth, k)
        )
        accs["kkm_eu"].append(
            _clustering_accuracy(kernel_kmeans(gram_eu, k, restarts=20, seed=seed).labels, truth, k)
        )
        accs["km_eu"].append(
            _clustering_accuracy(kernel_kmeans(linear, k, restarts=20, seed=seed).labels, truth, k)
        )
    le = 100.0 * np.mean(accs["kkm_le"])
    kkm_eu = 100.0 * np.mean(accs["kkm_eu"])
    km_eu = 100.0 * np.mean(accs["km_eu"])
    elapsed = time.time() - start
    _report(
        "criterion 7 (clustering ordering)",
        le >= kkm_eu + 5.0 and le >= km_eu + 5.0 and elapsed <= 60.0,
        f"KKM-logE {le:.1f} >= KKM-Eucl {kkm_eu:.1f} + 5 and >= KM-Eucl {km_eu:.1f} + 5; "
        f"{elapsed:.1f}s <= 60s",
    )


# ---------------------------------------------------------------------------
# 8. MKL sanity
# ---------------------------------------------------------------------------

def test_criterion_8_mkl_sanity():
    rng = np.random.default_rng(0)
    pts = [rng.standard_normal(2) + (2.0 if i % 2 else -2.0) * np.array([1.0, 0.0]) for i in range(30)]
    y = np.array([1.0 if i % 2 else -1.0 for i in range(30)])
    spec = KernelSpec(manifold="euclidean", metric="euclidean", gamma=0.5)
    gram = gram_matrix(spec, pts)
    single = mkl_train([gram], y, C=5.0)
    plain = svm_train(gram, y, C=5.0)
    dual_single, _ = svm_objectives(single.svm, gram, y)
    dual_plain, _ = svm_objectives(plain, gram, y)
    objective_dev = abs(dual_single - dual_plain)
    assert objective_dev <= 1e-6

    worst_noise_weight = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pos = rng.standard_normal((15, 2)) * 0.4 + [2.0, 0.0]
        neg = rng.standard_normal((15, 2)) * 0.4 + [-2.0, 0.0]
        pts = [p for p in np.vstack([pos, neg])]
        y = np.array([1.0] * 15 + [-1.0] * 15)
        informative = gram_matrix(spec, pts)
        noise = gram_matrix(spec, [rng.standard_normal(2) for _ in range(30)])
        mkl = mkl_train([informative, noise], y, C=10.0)
        worst_noise_weight = max(worst_noise_weight, float(mkl.weights[1]))
    _report(
        "criterion 8 (MKL sanity)",
        objective_dev <= 1e-6 and worst_noise_weight <= 0.1,
        f"single-kernel objective dev {objective_dev:.2e} <= 1e-6; "
        f"max noise weight {worst_noise_weight:.3f} <= 0.1",
    )


# ---------------------------------------------------------------------------
# 9. CLI reproducibility
# ---------------------------------------------------------------------------

def test_criterion_9_cli_reproducibility(tmp_path):
    data = tmp_path / "blobs.json"
    assert cli_run(
        [
            "synth", "--kind", "spd-blobs", "--clusters", "2", "--per-cluster", "8",
            "--dim", "3", "--seed", "5", "--out", str(data),
        ]
    ) == 0
    grass = tmp_path / "grass.json"
    assert cli_run(
        [
            "synth", "--kind", "grassmann-clusters", "--clusters", "2",
            "--per-cluster", "6", "--dim", "6", "--subspace-dim", "2",
            "--seed", "5", "--out", str(grass),
        ]
    ) == 0
    commands = [
        ["synth", "--kind", "spd-blobs", "--clusters", "2", "--per-cluster", "8",
         "--dim", "3", "--seed", "5"],
        ["definiteness", "--manifold", "spd", "--metric", "log-euclidean", "--dim", "3",
         "--gamma-grid", "0.01,0.1,1,10,100", "--m", "20", "--trials", "5", "--seed", "7"],
        ["gram", "--input", str(data), "--gamma", "1.0", "--audit"],
        ["cluster", "--input", str(data), "--gamma", "1.0", "--k", "2", "--seed", "1"],
        ["kpca", "--input", str(data), "--gamma", "1.0", "--l", "3"],
        ["kfda", "--input", str(data), "--gamma", "1.0"],
        ["svm-train", "--input", str(data), "--gamma", "1.0", "--C", "10.0"],
        ["mkl-train", "--inputs", str(data), "--gamma-grid", "0.1,1", "--C", "5.0"],
        ["gram", "--input", str(grass), "--metric", "projection", "--gamma", "0.5"],
    ]
    ext = {"gram": ".csv", "cluster": ".csv", "kpca": ".csv", "kfda": ".csv"}
    for i, argv in enumerate(commands):
        suffix = ext.get(argv[0], ".json")
        out1 = tmp_path / f"out_{i}_a{suffix}"
        out2 = tmp_path / f"out_{i}_b{suffix}"
        assert cli_run(argv + ["--out", str(out1)]) == 0, argv
        assert cli_run(argv + ["--out", str(out2)]) == 0, argv
        assert out1.read_bytes() == out2.read_bytes(), argv
    _report(
        "criterion 9 (CLI reproducibility)",
        True,
        f"{len(commands)} commands byte-identical across two invocations",
    )
