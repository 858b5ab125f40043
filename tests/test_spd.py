import numpy as np
import pytest

from manikernels.errors import (
    BadParamError,
    BadShapeError,
    DimMismatchError,
    EmptySetError,
    NoConvergenceError,
    NotSpdError,
    UnsupportedMetricError,
)
from manikernels.spd import make_spd

from oracles import (
    affine_invariant_grad_norm,
    dispersion_stat,
    karcher_mean_iterative,
    karcher_mean_log_euclidean,
    spd_distance,
)

METRICS_WITH_TRIANGLE = ("log-euclidean", "affine-invariant", "cholesky", "power-euclidean")


def rand_spd(rng, d, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = rng.uniform(lo, hi, size=d)
    return (q * w) @ q.T


def rand_sym(rng, d):
    a = rng.standard_normal((d, d))
    return (a + a.T) / 2.0


# ---------------------------------------------------------------------------
# make_spd
# ---------------------------------------------------------------------------

def test_make_spd_strict_accepts_identity():
    np.testing.assert_allclose(make_spd(np.eye(3)), np.eye(3))


def test_make_spd_accepts_shifted_gram():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    make_spd(a.T @ a + 1e-8 * np.eye(4))  # PSD plus a shift is strictly PD


def test_make_spd_strict_rejects():
    with pytest.raises(NotSpdError):
        make_spd(np.zeros((2, 2)))
    with pytest.raises(BadShapeError):
        make_spd(np.zeros((2, 3)))


def test_make_spd_reads_eigenvalues_only(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("make_spd computed eigenvectors")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    stack = np.stack([rand_spd(np.random.default_rng(seed), 4) for seed in range(5)])
    np.testing.assert_array_equal(make_spd(stack), (stack + np.swapaxes(stack, -1, -2)) / 2.0)
    with pytest.raises(NotSpdError):
        make_spd(np.concatenate([stack, np.diag([1.0, 1.0, 1.0, -1.0])[None]]))


def test_make_spd_solver_failure_is_no_convergence(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(NoConvergenceError):
        make_spd(np.eye(3))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_log_euclidean_diagonal_case():
    d = spd_distance("log-euclidean", np.eye(2), np.diag([np.e**2, np.e**2]))
    assert d == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)


def test_cholesky_distance_diagonal():
    assert spd_distance("cholesky", np.array([[4.0]]), np.array([[9.0]])) == pytest.approx(1.0)


def test_power_distance_diagonal():
    d = spd_distance("power-euclidean", np.array([[4.0]]), np.array([[9.0]]), alpha=0.5)
    assert d == pytest.approx(2.0)


def test_affine_invariant_against_eigenvalue_formula():
    # d(I, S) = sqrt(sum log^2 lambda_i(S))
    rng = np.random.default_rng(1)
    for _ in range(5):
        s = rand_spd(rng, 4)
        expect = np.sqrt(np.sum(np.log(np.linalg.eigvalsh(s)) ** 2))
        assert spd_distance("affine-invariant", np.eye(4), s) == pytest.approx(expect, abs=1e-10)


def test_stein_zero_on_identical():
    rng = np.random.default_rng(2)
    s = rand_spd(rng, 3)
    assert spd_distance("root-stein", s, s) == pytest.approx(0.0, abs=1e-7)


def test_distance_dim_mismatch():
    with pytest.raises(DimMismatchError):
        spd_distance("log-euclidean", np.eye(2), np.eye(3))


def test_unknown_metric():
    with pytest.raises(UnsupportedMetricError):
        spd_distance("nope", np.eye(2), np.eye(2))


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(3)
    for metric in METRICS_WITH_TRIANGLE:
        for _ in range(100):
            a, b, c = (rand_spd(rng, 3) for _ in range(3))
            dab = spd_distance(metric, a, b)
            dba = spd_distance(metric, b, a)
            dac = spd_distance(metric, a, c)
            dcb = spd_distance(metric, c, b)
            assert dab >= 0
            assert spd_distance(metric, a, a) == pytest.approx(0.0, abs=1e-9)
            assert abs(dab - dba) <= 1e-9
            assert dab <= dac + dcb + 1e-9


def test_stein_axioms_without_triangle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        dab = spd_distance("root-stein", a, b)
        assert dab >= 0
        assert abs(dab - spd_distance("root-stein", b, a)) <= 1e-9
        assert spd_distance("root-stein", a, a) == pytest.approx(0.0, abs=1e-7)


def test_affine_invariance_under_congruence():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s1, s2 = rand_spd(rng, 3), rand_spd(rng, 3)
        a = rng.standard_normal((3, 3))
        while abs(np.linalg.det(a)) < 1e-3:
            a = rng.standard_normal((3, 3))
        d0 = spd_distance("affine-invariant", s1, s2)
        d1 = spd_distance("affine-invariant", a.T @ s1 @ a, a.T @ s2 @ a)
        assert abs(d0 - d1) <= 1e-8 * max(1.0, d0)


# ---------------------------------------------------------------------------
# Karcher means
# ---------------------------------------------------------------------------

def _log_mean_gradient_descent(points, steps=2000, lr=0.4):
    # independent oracle: gradient descent on sum ||L - log X_i||_F^2 over
    # symmetric L, mapped back through the plain eigendecomposition
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


def test_karcher_le_singleton():
    rng = np.random.default_rng(6)
    s = rand_spd(rng, 3)
    np.testing.assert_allclose(karcher_mean_log_euclidean([s]), s, atol=1e-12)


def test_karcher_le_log_midpoint():
    mean = karcher_mean_log_euclidean([np.eye(2), np.diag([np.e**2, np.e**2])])
    np.testing.assert_allclose(mean, np.diag([np.e, np.e]), rtol=1e-12)


def test_karcher_le_matches_gradient_descent_oracle():
    rng = np.random.default_rng(7)
    points = [rand_spd(rng, 3) for _ in range(10)]
    mean = karcher_mean_log_euclidean(points)
    oracle = _log_mean_gradient_descent(points)
    assert np.linalg.norm(mean - oracle) <= 1e-8


def test_karcher_le_first_order_minimality():
    rng = np.random.default_rng(8)
    points = [rand_spd(rng, 3) for _ in range(6)]
    mean = karcher_mean_log_euclidean(points)

    def objective(candidate):
        return sum(spd_distance("log-euclidean", candidate, p) ** 2 for p in points)

    base = objective(mean)
    w, u = np.linalg.eigh(mean)
    log_mean = (u * np.log(w)) @ u.T
    for _ in range(20):
        step = 1e-4 * rand_sym(rng, 3)
        ww, uu = np.linalg.eigh(log_mean + step)
        perturbed = (uu * np.exp(ww)) @ uu.T
        assert objective(perturbed) >= base - 1e-12


def test_karcher_iterative_singleton_affine():
    rng = np.random.default_rng(9)
    s = rand_spd(rng, 3)
    out = karcher_mean_iterative("affine-invariant", [s])
    np.testing.assert_allclose(out, s, atol=1e-10)


def test_karcher_iterative_cholesky_closed_form():
    out = karcher_mean_iterative("cholesky", [np.diag([4.0]), np.diag([16.0])])
    np.testing.assert_allclose(out, np.diag([9.0]), rtol=1e-12)


def test_karcher_iterative_affine_stationarity():
    rng = np.random.default_rng(10)
    points = [rand_spd(rng, 3) for _ in range(8)]
    mean = karcher_mean_iterative("affine-invariant", points, tol=1e-10)
    assert affine_invariant_grad_norm(mean, points) < 1e-7


def test_karcher_iterative_errors():
    rng = np.random.default_rng(11)
    points = [rand_spd(rng, 3) for _ in range(3)]
    with pytest.raises(UnsupportedMetricError):
        karcher_mean_iterative("root-stein", points)
    with pytest.raises(EmptySetError):
        karcher_mean_iterative("log-euclidean", [])
    with pytest.raises(NoConvergenceError):
        karcher_mean_iterative("affine-invariant", points, max_iter=1, tol=0.0)


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------

def test_dispersion_zero_when_all_at_mean():
    s = np.diag([2.0, 3.0])
    assert dispersion_stat("log-euclidean", [s, s, s], 2.0, s) == pytest.approx(0.0, abs=1e-12)


def test_dispersion_p1_diagonal_case():
    points = [np.eye(2), np.diag([np.e**2, np.e**2])]
    mean = np.diag([np.e, np.e])
    # both points sit at log-distance sqrt(2) from the mean
    out = dispersion_stat("log-euclidean", points, 1.0, mean)
    assert out == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_dispersion_p2_matches_direct_summation():
    rng = np.random.default_rng(12)
    points = [rand_spd(rng, 3) for _ in range(10)]
    mean = karcher_mean_log_euclidean(points)
    out = dispersion_stat("log-euclidean", points, 2.0, mean)
    direct = np.mean([spd_distance("log-euclidean", p, mean) ** 2 for p in points])
    assert out == pytest.approx(direct, rel=1e-12)


def test_dispersion_param_errors():
    with pytest.raises(BadParamError):
        dispersion_stat("log-euclidean", [np.eye(2)], 0.0, np.eye(2))
    with pytest.raises(EmptySetError):
        dispersion_stat("log-euclidean", [], 1.0, np.eye(2))
    with pytest.raises(DimMismatchError):
        dispersion_stat("log-euclidean", [np.eye(2)], 1.0, np.eye(3))
