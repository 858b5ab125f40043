"""Closed-form tests of the benchmark's reference computations.

Run with ``python -m pytest perfbench``.
"""

import numpy as np
import pytest

import reference as ref


def _rotation(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def _commuting_pair(rng, d=4):
    q = _rotation(rng, d)
    a = rng.uniform(0.2, 5.0, size=d)
    b = rng.uniform(0.2, 5.0, size=d)
    return (q * a) @ q.T, (q * b) @ q.T, a, b


def _subspaces_with_angles(rng, n, thetas):
    """Two bases of R^n whose principal angles are exactly ``thetas``."""
    r = len(thetas)
    e = np.eye(n)
    y1 = e[:, :r]
    y2 = np.stack([np.cos(t) * e[:, i] + np.sin(t) * e[:, r + i] for i, t in enumerate(thetas)], axis=1)
    q = _rotation(rng, n)
    return q @ y1, q @ y2


def test_affine_invariant_equals_log_euclidean_on_commuting_pairs():
    rng = np.random.default_rng(0)
    a_mat, b_mat, a, b = _commuting_pair(rng)
    want = float(np.sum(np.log(b / a) ** 2))
    assert ref.affine_invariant_d2(a_mat, b_mat) == pytest.approx(want, rel=1e-10)
    assert ref.log_euclidean_d2([a_mat], [b_mat])[0, 0] == pytest.approx(want, rel=1e-10)
    assert ref.cross_d2("affine-invariant", [a_mat], [b_mat])[0, 0] == pytest.approx(want, rel=1e-10)


def test_affine_invariant_is_congruence_invariant():
    rng = np.random.default_rng(1)
    a_mat, b_mat, _, _ = _commuting_pair(rng)
    g = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    assert ref.affine_invariant_d2(g @ a_mat @ g.T, g @ b_mat @ g.T) == pytest.approx(
        ref.affine_invariant_d2(a_mat, b_mat), rel=1e-8
    )


def test_root_stein_on_commuting_pairs():
    rng = np.random.default_rng(2)
    a_mat, b_mat, a, b = _commuting_pair(rng)
    want = float(np.sum(np.log((a + b) / 2) - 0.5 * (np.log(a) + np.log(b))))
    assert ref.root_stein_d2(a_mat, b_mat) == pytest.approx(want, rel=1e-10)
    assert ref.root_stein_d2(a_mat, a_mat) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("thetas", [(0.3, 1.1), (0.05, 0.7, 1.5)])
def test_grassmann_distances_from_chosen_angles(thetas):
    rng = np.random.default_rng(3)
    y1, y2 = _subspaces_with_angles(rng, 9, thetas)
    thetas = np.array(thetas)
    assert ref.arc_length_d2(y1, y2) == pytest.approx(float(np.sum(thetas**2)), rel=1e-10)
    assert ref.projection_d2(y1, y2) == pytest.approx(float(np.sum(np.sin(thetas) ** 2)), rel=1e-10)


def test_pairwise_matrix_is_symmetric_with_zero_diagonal():
    rng = np.random.default_rng(4)
    pts = [np.linalg.qr(rng.standard_normal((6, 2)))[0] for _ in range(5)]
    d2 = ref.pairwise_d2("arc-length", pts)
    assert np.array_equal(d2, d2.T) and np.all(np.diag(d2) == 0)
    assert d2[1, 3] == pytest.approx(ref.arc_length_d2(pts[1], pts[3]))
    k = ref.gaussian_gram(d2, 0.5)
    assert np.all(np.diag(k) == 1.0) and k[1, 3] == pytest.approx(np.exp(-0.5 * d2[1, 3]))


def test_kmeans_energy_of_linear_kernel_is_within_cluster_scatter():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, 3))
    labels = np.array([0, 1, 2] * 4)
    want = sum(float(np.sum((x[labels == c] - x[labels == c].mean(axis=0)) ** 2)) for c in range(3))
    assert ref.kmeans_energy(x @ x.T, labels) == pytest.approx(want, rel=1e-10)


def test_best_single_move_matches_brute_force():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((10, 2))
    k = np.exp(-0.5 * np.sum((x[:, None] - x[None]) ** 2, axis=-1))
    labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 0])
    base = ref.kmeans_energy(k, labels)
    deltas = []
    for i in range(10):
        for c in range(3):
            moved = labels.copy()
            moved[i] = c
            if c != labels[i] and np.all(np.bincount(moved, minlength=3) > 0):
                deltas.append(ref.kmeans_energy(k, moved) - base)
    assert ref.best_single_move_delta(k, labels, 3) == pytest.approx(min(deltas), abs=1e-12)


def test_svm_kkt_gap_and_objective_of_two_point_problem():
    # x = +1 (y = +1) and x = -1 (y = -1), linear kernel: the optimum is
    # alpha = (1/2, 1/2), with dual objective 1/2 and no KKT violation.
    k = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.array([1.0, -1.0])
    assert ref.svm_kkt_gap(k, y, np.array([0.5, 0.5]), C=10.0) == pytest.approx(0.0, abs=1e-15)
    assert ref.svm_kkt_gap(k, y, np.zeros(2), C=10.0) == pytest.approx(2.0)
    assert ref.svm_dual_objective(k, np.array([0.5, -0.5])) == pytest.approx(0.5)


def test_pedestrian_features_of_a_ramp():
    ys, xs = np.mgrid[0:6, 0:7].astype(float)
    f = ref.pedestrian_features(3 * xs + 2 * ys)
    inner = f[1:-1, 1:-1]
    assert np.array_equal(f[..., 0], xs) and np.array_equal(f[..., 1], ys)
    np.testing.assert_allclose(inner[..., 2:7], np.broadcast_to([3, 2, np.sqrt(13), 0, 0], inner[..., 2:7].shape))
    np.testing.assert_allclose(inner[..., 7], np.arctan(1.5))
    # the repeated border pixel halves the central difference at the edge
    np.testing.assert_allclose(f[2, 0, 2], 1.5)


def test_rect_covariance_of_pixel_coordinates():
    ys, xs = np.mgrid[0:20, 0:30].astype(float)
    features = np.stack([xs, ys], axis=-1)
    w, h = 6, 4
    cov = ref.rect_covariance(features, (5, 7, w, h))
    n = w * h
    var_x = (w * w - 1) / 12 * n / (n - 1)
    var_y = (h * h - 1) / 12 * n / (n - 1)
    eps = 1e-6 * (var_x + var_y + 1)
    np.testing.assert_allclose(cov, np.diag([var_x + eps, var_y + eps]), atol=1e-12)


def test_log_euclidean_dispersion_of_scaled_identities():
    t = np.array([0.0, 1.0, 3.0])
    mats = [np.exp(v) * np.eye(3) for v in t]
    want = float(np.mean(np.abs(t - t.mean())) * np.sqrt(3))
    assert ref.log_euclidean_dispersion(mats) == pytest.approx(want, rel=1e-12)


def test_overlap_ratio():
    assert ref.overlap_ratio((0, 0, 10, 10), (2, 2, 3, 3)) == 1.0
    assert ref.overlap_ratio((0, 0, 4, 4), (4, 0, 4, 4)) == 0.0
    assert ref.overlap_ratio((0, 0, 4, 4), (2, 0, 4, 4)) == 0.5
