import sys

import numpy as np
import pytest

from manikernels import kernels, matrixops, spd
from manikernels.errors import (
    BadParamError,
    BadShapeError,
    DimMismatchError,
    NoConvergenceError,
    NonSymmetricError,
    NotSpdError,
    NumericalError,
    UnsupportedMetricError,
)
from manikernels.kernels import (
    METRICS,
    KernelSpec,
    _trial_rng,
    cross_gram,
    cross_squared_distances,
    definiteness_search,
    gram_matrix,
    gram_to_csv,
    gram_to_json,
    squared_distance_matrix,
)

from oracles import (
    PD_FOR_ALL_GAMMA,
    cnd_check,
    definiteness_search_per_gamma,
    gram_from_csv,
    gram_from_json,
    grassmann_distance,
    median_heuristic_gamma,
    projection_linear_gram,
    psd_check,
    sample_grassmann,
    sample_spd,
    spd_distance,
)

GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


def spd_spec(metric, gamma=1.0, alpha=0.5):
    return KernelSpec(manifold="spd", metric=metric, gamma=gamma, alpha=alpha)


def scalar_sq_distance(manifold, metric, x, y, alpha=0.5):
    """Oracle: d^2(x, y) of one pair from the scalar distance functions."""
    if manifold == "spd":
        return spd_distance(metric, x, y, alpha=alpha) ** 2
    if manifold == "grassmann":
        return grassmann_distance(metric, x, y) ** 2
    diff = (np.asarray(x, dtype=float) - np.asarray(y, dtype=float)).ravel()
    return float(diff @ diff)


def gaussian_kernel_value(spec, x, y):
    """Oracle: exp(-gamma * d^2(x, y)) of one pair."""
    d2 = scalar_sq_distance(spec.manifold, spec.metric, x, y, alpha=spec.alpha)
    return float(np.exp(-spec.gamma * d2))


def sample_points(rng, manifold, m):
    if manifold == "spd":
        return [sample_spd(rng, 3) for _ in range(m)]
    if manifold == "grassmann":
        return [sample_grassmann(rng, 6, 2) for _ in range(m)]
    return [rng.standard_normal(4) for _ in range(m)]


# ---------------------------------------------------------------------------
# spec validation and kernel values
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(BadParamError):
        KernelSpec(manifold="spd", metric="log-euclidean", gamma=0.0)
    with pytest.raises(BadParamError):
        KernelSpec(manifold="flat", metric="euclidean", gamma=1.0)
    with pytest.raises(UnsupportedMetricError):
        KernelSpec(manifold="spd", metric="projection", gamma=1.0)


def test_spec_rejects_non_finite_parameters():
    for gamma in (np.inf, np.nan):
        with pytest.raises(BadParamError):
            KernelSpec(manifold="spd", metric="log-euclidean", gamma=gamma)
    for alpha in (np.inf, -np.inf, np.nan):
        with pytest.raises(BadParamError):
            KernelSpec(manifold="spd", metric="power-euclidean", gamma=1.0, alpha=alpha)


def test_kernel_value_is_one_at_zero_distance():
    rng = np.random.default_rng(0)
    s = sample_spd(rng, 3)
    assert gaussian_kernel_value(spd_spec("log-euclidean"), s, s) == 1.0


def test_kernel_value_log_euclidean_diagonal():
    val = gaussian_kernel_value(spd_spec("log-euclidean"), np.eye(2), np.diag([np.e**2] * 2))
    assert val == pytest.approx(np.exp(-8.0), rel=1e-12)


def test_kernel_value_projection():
    spec = KernelSpec(manifold="grassmann", metric="projection", gamma=0.5)
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert gaussian_kernel_value(spec, e1, e2) == pytest.approx(np.exp(-0.5), rel=1e-12)


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def test_gram_single_point():
    gram = gram_matrix(spd_spec("log-euclidean"), [np.eye(3)])
    np.testing.assert_allclose(gram.entries, [[1.0]])


def test_gram_duplicated_points_rank_one():
    rng = np.random.default_rng(1)
    s = sample_spd(rng, 3)
    gram = gram_matrix(spd_spec("log-euclidean"), [s] * 6)
    gram.audit()
    np.testing.assert_allclose(gram.entries, np.ones((6, 6)), atol=1e-12)
    assert abs(gram.min_eigen) <= 1e-10


def test_gram_structure_invariants():
    rng = np.random.default_rng(2)
    points = [sample_spd(rng, 4) for _ in range(12)]
    gram = gram_matrix(spd_spec("log-euclidean", gamma=0.7), points)
    k = gram.entries
    assert np.linalg.norm(k - k.T) <= 1e-12
    np.testing.assert_array_equal(np.diag(k), np.ones(12))
    assert np.all(k > 0) and np.all(k <= 1.0)


def test_gram_audit_log_euclidean_psd_across_gammas():
    rng = np.random.default_rng(3)
    points = [sample_spd(rng, 5) for _ in range(30)]
    for gamma in GRID:
        gram = gram_matrix(spd_spec("log-euclidean", gamma=gamma), points)
        gram.audit()
        assert gram.min_eigen >= -1e-8 * gram.size


def test_squared_distance_matrix_matches_pairwise():
    # every registry entry: an exactly symmetric triangle with a zero
    # diagonal, agreeing with the rectangle and the scalar distance
    rng = np.random.default_rng(4)
    assert len(METRICS) == 11
    for manifold, metric in METRICS:
        points = sample_points(rng, manifold, 8)
        d2 = squared_distance_matrix(manifold, metric, points)
        rect = cross_squared_distances(manifold, metric, points, points)
        np.testing.assert_array_equal(d2, d2.T)
        np.testing.assert_array_equal(np.diag(d2), np.zeros(8))
        for i in range(8):
            for j in range(8):
                if i == j:
                    continue
                expect = scalar_sq_distance(manifold, metric, points[i], points[j])
                assert expect > 0
                assert abs(d2[i, j] - expect) <= 1e-12 * expect, (metric, i, j)
                assert abs(rect[i, j] - expect) <= 1e-12 * expect, (metric, i, j)


@pytest.mark.parametrize("manifold, metric", [key for key, (kind, *_) in METRICS.items() if kind == "row"])
def test_row_triangle_equals_the_rectangle_bit_for_bit(manifold, metric):
    # a row function's triangle evaluates the same pairs as the rectangle
    # of the stack with itself; an embedding's two shapes differ by roundoff
    points = sample_points(np.random.default_rng(17), manifold, 30)
    d2 = squared_distance_matrix(manifold, metric, points)
    rect = cross_squared_distances(manifold, metric, points, points)
    upper = np.triu_indices(30, 1)
    assert np.array_equal(d2[upper], rect[upper])


def test_the_embeddings_are_the_metrics_pd_for_every_gamma():
    # an embedding gives a CND d^2, so exp(-gamma d^2) is PD for every gamma;
    # every such metric of the oracle's table is computed as one
    embeddings = {key for key, (kind, *_) in METRICS.items() if kind == "embed"}
    assert embeddings == PD_FOR_ALL_GAMMA


def assert_both_drivers_raise(error, manifold, metric, good, bad):
    # bad as the point of a row, and among the stacked points
    for points in ([bad] + good, good + [bad]):
        with pytest.raises(error):
            squared_distance_matrix(manifold, metric, points)
    for xs, ys in (([bad], good), (good, [bad])):
        with pytest.raises(error):
            cross_squared_distances(manifold, metric, xs, ys)


def test_registry_checks_fire_through_both_drivers(monkeypatch):
    rng = np.random.default_rng(12)
    good = [sample_spd(rng, 3) for _ in range(3)]
    nonsym = good[0] + np.triu(np.ones((3, 3)), 1)
    indefinite = np.diag([1.0, -1.0, 1.0])
    for metric in ("log-euclidean", "affine-invariant", "root-stein"):
        assert_both_drivers_raise(NonSymmetricError, "spd", metric, good, nonsym)
        # a Cholesky failure, or an eigenvalue at or below the floor
        assert_both_drivers_raise(NotSpdError, "spd", metric, good, indefinite)
    # a positive eigenvalue under the floor passes Cholesky; the floor on
    # the whitened eigenvalues catches it
    near_singular = np.diag([1.0, 1.0, 1e-14])
    assert_both_drivers_raise(NotSpdError, "spd", "affine-invariant", good, near_singular)

    bases = [sample_grassmann(rng, 6, 2) for _ in range(3)]
    for metric in ("arc-length", "fubini-study", "chordal-2norm", "chordal-fnorm"):
        assert_both_drivers_raise(NumericalError, "grassmann", metric, bases, 2.0 * bases[0])

    for manifold, metric in METRICS:
        points = sample_points(rng, manifold, 3)
        longer = np.concatenate([points[0], points[0][:1]])
        with pytest.raises(DimMismatchError):
            squared_distance_matrix(manifold, metric, points + [longer])
        with pytest.raises(DimMismatchError):
            cross_squared_distances(manifold, metric, points, [longer])
        if manifold != "euclidean":
            # a stack of matrices is not one point, nor is a vector
            for bad in (np.stack([points[0]] * 2), points[0][0]):
                with pytest.raises(BadShapeError):
                    squared_distance_matrix(manifold, metric, [bad] * 3)
                with pytest.raises(BadShapeError):
                    cross_squared_distances(manifold, metric, [bad], [bad] * 2)

    # log det plus a strictly convex term is no longer midpoint concave, so
    # the radicand goes negative
    real_log_det = spd.log_det_spd
    monkeypatch.setattr(
        spd, "log_det_spd", lambda s: real_log_det(s) + np.sum(np.asarray(s) ** 2, axis=(-2, -1))
    )
    assert_both_drivers_raise(NumericalError, "spd", "root-stein", good[:2], good[2])


@pytest.mark.parametrize("metric", ["affine-invariant", "root-stein"])
def test_spd_row_metrics_check_each_stack_once(monkeypatch, metric):
    # the drivers check symmetry once per stack: O(m) matrices in all,
    # where a check inside the row formula sees about m^2 / 2
    m = 20
    points = sample_spd(np.random.default_rng(3), 3, m)
    seen = []
    real = matrixops.require_symmetric

    def counting(s):
        seen.append(int(np.prod(np.shape(s)[:-2])))
        return real(s)

    for name, module in list(sys.modules.items()):
        if name.startswith("manikernels") and getattr(module, "require_symmetric", None) is real:
            monkeypatch.setattr(module, "require_symmetric", counting)
    squared_distance_matrix("spd", metric, points)
    assert 0 < sum(seen) <= 4 * m
    seen.clear()
    cross_squared_distances("spd", metric, points, points)
    assert 0 < sum(seen) <= 4 * m


def test_root_stein_factors_each_point_once_per_driver_call(monkeypatch):
    # every point's log det once, plus one per pair midpoint; the row
    # formula alone would factor the stacked points again on every row
    rng = np.random.default_rng(9)
    xs, ys = sample_spd(rng, 3, 12), sample_spd(rng, 3, 5)
    seen = []
    real = np.linalg.cholesky

    def counting(a, *args, **kwargs):
        seen.append(int(np.prod(np.shape(a)[:-2])))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    squared_distance_matrix("spd", "root-stein", xs)
    assert sum(seen) == 12 + 12 * 11 // 2
    seen.clear()
    cross_squared_distances("spd", "root-stein", ys, xs)
    assert sum(seen) == 5 + 12 + 5 * 12


def test_affine_invariant_solver_failure_is_no_convergence():
    # a NaN point defeats the eigensolver of the whitened stack; the
    # failure comes out as the library's error, not numpy's
    rng = np.random.default_rng(8)
    good = [sample_spd(rng, 3) for _ in range(3)]
    bad = good[0].copy()
    bad[0, 0] = np.nan
    assert_both_drivers_raise(NoConvergenceError, "spd", "affine-invariant", good, bad)


SPD_METRICS = ["log-euclidean", "cholesky", "power-euclidean", "affine-invariant", "root-stein"]


@pytest.mark.parametrize("metric", SPD_METRICS)
def test_spd_drivers_apply_the_floor_under_every_metric(metric):
    # a positive eigenvalue under the floor passes Cholesky and the
    # root-Stein log-dets; the embedding or the row driver checks it
    good = list(sample_spd(np.random.default_rng(13), 3, 3))
    assert_both_drivers_raise(NotSpdError, "spd", metric, good, np.diag([1.0, 1e-14, 1.0]))


@pytest.mark.parametrize("metric", SPD_METRICS)
def test_nan_spd_point_raises_under_every_metric(metric):
    # one NaN entry among four points; the Cholesky factor and the
    # root-Stein log-dets would carry it into the distances unnoticed
    good = list(sample_spd(np.random.default_rng(14), 3, 3))
    bad = sample_spd(np.random.default_rng(15), 3)
    bad[0, 1] = np.nan
    assert_both_drivers_raise(NoConvergenceError, "spd", metric, good, bad)


@pytest.mark.parametrize("alpha", [1000.0, 1e200, 1e-200])
def test_embedding_drivers_reject_non_finite_squared_distances(alpha):
    # 10^alpha overflows, and at 1e-200 so does the scale 1 / alpha^2; the
    # drivers returned NaN entries, or raised OverflowError or ZeroDivisionError
    points = [np.eye(3), np.diag([10.0, 1.0, 2.0]), sample_spd(np.random.default_rng(16), 3)]
    with pytest.raises(NumericalError):
        squared_distance_matrix("spd", "power-euclidean", points, alpha=alpha)
    with pytest.raises(NumericalError):
        cross_squared_distances("spd", "power-euclidean", points[:1], points[1:], alpha=alpha)


@pytest.mark.parametrize("scale", [0.5, 2.0])
@pytest.mark.parametrize("metric", ["projection", "arc-length", "fubini-study", "chordal-2norm", "chordal-fnorm"])
def test_grassmann_drivers_reject_bases_that_are_not_orthonormal(metric, scale):
    rng = np.random.default_rng(4)
    bases = [sample_grassmann(rng, 6, 2) for _ in range(4)]
    squared_distance_matrix("grassmann", metric, bases)
    assert_both_drivers_raise(NumericalError, "grassmann", metric, bases[1:], scale * bases[0])
    # a NaN entry fails the check as well
    nan_basis = bases[0].copy()
    nan_basis[0, 0] = np.nan
    assert_both_drivers_raise(NumericalError, "grassmann", metric, bases[1:], nan_basis)


def test_cross_gram_matches_scalar_kernel():
    rng = np.random.default_rng(5)
    spec = spd_spec("log-euclidean", gamma=0.3)
    xs = [sample_spd(rng, 3) for _ in range(4)]
    ys = [sample_spd(rng, 3) for _ in range(3)]
    cols = cross_gram(spec, xs, ys)
    for i in range(4):
        for j in range(3):
            assert cols[i, j] == pytest.approx(gaussian_kernel_value(spec, xs[i], ys[j]), abs=1e-12)


def test_projection_linear_gram():
    rng = np.random.default_rng(6)
    pts = [sample_grassmann(rng, 5, 2) for _ in range(5)]
    k = projection_linear_gram(pts)
    for i in range(5):
        for j in range(5):
            expect = np.linalg.norm(pts[i].T @ pts[j]) ** 2
            assert k[i, j] == pytest.approx(expect, abs=1e-10)


# ---------------------------------------------------------------------------
# definiteness tests
# ---------------------------------------------------------------------------

def test_psd_check_basics():
    ok, mineig = psd_check(np.eye(2), 1e-12)
    assert ok and mineig == pytest.approx(1.0)
    ok, mineig = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-12)
    assert not ok and mineig == pytest.approx(-1.0)
    with pytest.raises(NonSymmetricError):
        psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-12)


def test_psd_check_random_euclidean_gram():
    rng = np.random.default_rng(20)
    pts = [rng.standard_normal(3) for _ in range(15)]
    spec = KernelSpec(manifold="euclidean", metric="euclidean", gamma=0.8)
    gram = gram_matrix(spec, pts)
    ok, _ = psd_check(gram.entries, 1e-8 * 15)
    assert ok


def test_definiteness_search_euclidean_baseline():
    report = definiteness_search("euclidean", "euclidean", GRID, m=15, trials=5, seed=1, dim=4)
    assert report.verdict == "psd_within_tol"


def test_cnd_check_zero_matrix():
    ok, maxeig = cnd_check(np.zeros((3, 3)), 1e-12)
    assert ok and maxeig == pytest.approx(0.0, abs=1e-12)


def test_cnd_check_two_collinear_points():
    # squared distances of two reals at distance 1: PMP has eigenvalues {0, -1}
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    ok, maxeig = cnd_check(m, 1e-12)
    assert ok
    p = np.array([[0.5, -0.5], [-0.5, 0.5]])
    w = np.linalg.eigvalsh(p @ m @ p)
    np.testing.assert_allclose(w, [-1.0, 0.0], atol=1e-12)
    assert maxeig == pytest.approx(0.0, abs=1e-12)


def test_cnd_check_rejects_arclength_witness():
    report = definiteness_search(
        "grassmann", "arc-length", GRID, m=20, trials=50, seed=3, dim=5, subspace_dim=2
    )
    assert report.verdict == "witness_found"
    d2 = squared_distance_matrix("grassmann", "arc-length", report.witness_points)
    ok, _ = cnd_check(d2, 1e-10 * len(report.witness_points))
    assert not ok


def test_definiteness_search_yes_and_no_metrics():
    report = definiteness_search("spd", "log-euclidean", GRID, m=40, trials=10, seed=7, dim=3)
    assert report.verdict == "psd_within_tol"
    assert report.min_eigen >= -1e-8 * 40

    report = definiteness_search(
        "grassmann", "projection", GRID, m=40, trials=10, seed=7, dim=5, subspace_dim=2
    )
    assert report.verdict == "psd_within_tol"

    report = definiteness_search("spd", "root-stein", GRID, m=40, trials=200, seed=7, dim=3)
    assert report.verdict == "witness_found"
    assert report.min_eigen < -1e-7 * 40


def test_definiteness_search_deterministic():
    kwargs = dict(m=10, trials=5, seed=11, dim=5, subspace_dim=2)
    a = definiteness_search("grassmann", "arc-length", GRID, **kwargs)
    b = definiteness_search("grassmann", "arc-length", GRID, **kwargs)
    assert a.verdict == b.verdict
    assert a.gamma == b.gamma
    assert a.min_eigen == b.min_eigen
    assert a.witness_trial == b.witness_trial
    for pa, pb in zip(a.witness_points, b.witness_points):
        np.testing.assert_array_equal(pa, pb)


@pytest.mark.parametrize("dim, count", [(3, 1), (3, 40), (8, 40)])
def test_sample_spd_stack_equals_single_draws(dim, count):
    stack = sample_spd(np.random.default_rng(5), dim, count)
    rng = np.random.default_rng(5)
    loop = np.stack([sample_spd(rng, dim) for _ in range(count)])
    assert stack.shape == (count, dim, dim)
    assert np.array_equal(stack, loop)


def test_definiteness_spd_witness_points_are_single_draws():
    report = definiteness_search("spd", "root-stein", GRID, m=40, trials=200, seed=7, dim=3)
    assert report.verdict == "witness_found"
    rng = _trial_rng(7, report.witness_trial)
    assert len(report.witness_points) == 40
    for point in report.witness_points:
        assert np.array_equal(point, sample_spd(rng, 3))


def test_definiteness_grassmann_witness_points_are_single_draws():
    report = definiteness_search(
        "grassmann", "arc-length", GRID, m=20, trials=50, seed=3, dim=5, subspace_dim=2
    )
    assert report.verdict == "witness_found"
    rng = _trial_rng(3, report.witness_trial)
    assert len(report.witness_points) == 20
    for point in report.witness_points:
        assert np.array_equal(point, sample_grassmann(rng, 5, 2))


def gram_eigh_calls(monkeypatch, m):
    """Counts ``np.linalg.eigh`` calls on one (m, m) matrix: the Gram
    decompositions of a definiteness search, not the stacked SPD maps."""
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        if np.shape(a) == (m, m):
            calls.append(m)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def assert_same_report(got, expect):
    assert got.verdict == expect.verdict
    assert got.min_eigen == expect.min_eigen
    assert got.gamma == expect.gamma
    assert got.trials_run == expect.trials_run
    assert got.witness_trial == expect.witness_trial
    assert got.witness_seed == expect.witness_seed
    assert np.array_equal(got.witness_points, expect.witness_points)


@pytest.mark.parametrize(
    "manifold, metric, grid, kwargs, verdict",
    [
        # positive definite: every trial runs
        ("spd", "log-euclidean", GRID, dict(m=20, trials=10, seed=7, dim=3), "psd_within_tol"),
        ("grassmann", "arc-length", GRID, dict(m=20, trials=50, seed=3, dim=5, subspace_dim=2),
         "witness_found"),
        ("spd", "root-stein", GRID, dict(m=40, trials=200, seed=7, dim=3), "witness_found"),
    ],
)
def test_definiteness_search_matches_per_gamma_oracle(monkeypatch, manifold, metric, grid, kwargs,
                                                      verdict):
    expect = definiteness_search_per_gamma(manifold, metric, grid, **kwargs)
    assert expect.verdict == verdict
    calls = gram_eigh_calls(monkeypatch, kwargs["m"])
    assert_same_report(definiteness_search(manifold, metric, grid, **kwargs), expect)
    if verdict == "psd_within_tol":
        # the screen spares most Grams their eigh
        assert len(calls) < expect.trials_run * len(grid) / 2


@pytest.mark.parametrize("m, dim, seed", [(20, 3, 7), (40, 3, 0), (10, 8, 2)])
def test_log_euclidean_search_matches_the_log_of_exp_route(monkeypatch, m, dim, seed):
    # the search takes the distances from the sampled logs S, where the
    # route it replaced took them from spd_log(sample_spd(...)), that is
    # log(exp S). The Grams differ by roundoff, so each smallest
    # eigenvalue may move by m * eps, the eigensolvers' backward error
    # on ||K||_2 <= m; measured moves were at most 2.2e-15 at m = 40.
    trials = 5
    lows = []
    for trial in range(trials):
        points = sample_spd(_trial_rng(seed, trial), dim, m)
        d2 = squared_distance_matrix("spd", "log-euclidean", points)
        lows.append(np.linalg.eigvalsh(np.exp(-np.array(GRID)[:, None, None] * d2))[:, 0])
    lows = np.array(lows)
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    got = definiteness_search("spd", "log-euclidean", GRID, m=m, trials=trials, seed=seed, dim=dim)
    assert got.verdict == "psd_within_tol" and got.trials_run == trials
    assert got.gamma == GRID[np.argmin(lows.min(axis=0))]
    assert abs(got.min_eigen - lows.min()) <= m * np.finfo(float).eps
    # no point is exponentiated or decomposed: each eigh is of a Gram
    assert calls and all(shape == (m, m) for shape in calls)


def test_log_euclidean_trial_points_are_the_sampled_spd_points():
    d2, points = kernels._trial_sample(_trial_rng(3, 1), "spd", "log-euclidean", 6, 4, 2, 0.5)
    expect = sample_spd(_trial_rng(3, 1), 4, 6)
    assert np.array_equal(points(), expect)
    np.testing.assert_allclose(d2, squared_distance_matrix("spd", "log-euclidean", expect),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("metric", sorted(metric for manifold, metric in METRICS if manifold == "spd"))
def test_spd_trial_points_are_the_oracle_sample_of_the_trial_stream(metric):
    # every SPD trial draws its logs S in one standard_normal call
    for seed, trial in [(3, 1), (0, 4)]:
        d2, points = kernels._trial_sample(_trial_rng(seed, trial), "spd", metric, 6, 4, 2, 0.5)
        expect = sample_spd(_trial_rng(seed, trial), 4, 6)
        assert np.array_equal(points(), expect)
        if metric != "log-euclidean":
            assert np.array_equal(d2, squared_distance_matrix("spd", metric, expect, alpha=0.5))


def test_definiteness_search_follows_a_minimum_that_moves_late():
    # a descending grid: the running minimum moves at later gammas, and
    # again at a later trial
    grid = GRID[::-1]
    kwargs = dict(m=12, seed=2, dim=3)
    first = definiteness_search_per_gamma("spd", "log-euclidean", grid, trials=1, **kwargs)
    expect = definiteness_search_per_gamma("spd", "log-euclidean", grid, trials=8, **kwargs)
    assert expect.min_eigen < first.min_eigen and expect.gamma != grid[0]
    assert_same_report(definiteness_search("spd", "log-euclidean", grid, trials=8, **kwargs), expect)


def test_definiteness_screen_sends_a_near_tie_to_eigh(monkeypatch):
    # two gammas 1e-12 apart: the second Gram's smallest eigenvalue is
    # below the first's by about 6e-14. A screen that reads it half the
    # slack too high must still send it to eigh, or the minimum is missed.
    m = 20
    grid = (0.1 * (1 + 1e-12), 0.1)
    kwargs = dict(m=m, trials=1, seed=5, dim=3)
    expect = definiteness_search_per_gamma("spd", "log-euclidean", grid, **kwargs)
    assert expect.gamma == grid[1]
    shift = 0.5 * kernels._SCREEN_SLACK * m * m
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: real(a) + shift)
    calls = gram_eigh_calls(monkeypatch, m)
    assert_same_report(definiteness_search("spd", "log-euclidean", grid, **kwargs), expect)
    assert len(calls) == 2


def test_definiteness_search_bad_grid(monkeypatch):
    def no_sampling(seed, trial):
        raise AssertionError("points drawn before the arguments were checked")

    monkeypatch.setattr(kernels, "_trial_rng", no_sampling)
    with pytest.raises(BadParamError):
        definiteness_search("spd", "log-euclidean", [], m=10, trials=1)
    with pytest.raises(BadParamError):
        definiteness_search("spd", "log-euclidean", [-1.0], m=10, trials=1)
    with pytest.raises(BadParamError):
        definiteness_search("spd", "log-euclidean", [1.0], m=2, trials=1)
    # the KernelSpec of each gamma: an infinite or NaN gamma, and a zero or
    # NaN alpha even where the metric ignores it
    for grid, alpha in [([1.0, np.inf], 0.5), ([np.nan], 0.5), ([1.0], np.nan), ([1.0], 0.0)]:
        with pytest.raises(BadParamError):
            definiteness_search("spd", "log-euclidean", grid, m=10, trials=1, alpha=alpha)
    with pytest.raises(BadParamError):
        definiteness_search("spd", "power-euclidean", [1.0], m=10, trials=1, alpha=np.nan)


def test_schoenberg_equivalence_on_yes_metrics():
    # CND of squared distances <=> PSD of the Gaussian Gram for every gamma
    rng = np.random.default_rng(8)
    for manifold, metric in sorted(PD_FOR_ALL_GAMMA):
        for _ in range(5):
            points = sample_points(rng, manifold, 12)
            m = len(points)
            d2 = squared_distance_matrix(manifold, metric, points)
            cnd_ok, _ = cnd_check(d2, 1e-8 * m)
            gram_ok = all(
                psd_check(np.exp(-g * d2), 1e-8 * m)[0] for g in GRID
            )
            assert cnd_ok and gram_ok


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_gram_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    points = [sample_spd(rng, 3) for _ in range(5)]
    gram = gram_matrix(spd_spec("cholesky", gamma=2.5), points)
    gram.audit()
    path = tmp_path / "gram.csv"
    gram_to_csv(gram, path)
    back = gram_from_csv(path)
    np.testing.assert_array_equal(back.entries, gram.entries)
    assert back.spec == gram.spec
    assert back.min_eigen == gram.min_eigen


def test_gram_json_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    points = [sample_grassmann(rng, 5, 2) for _ in range(4)]
    spec = KernelSpec(manifold="grassmann", metric="projection", gamma=0.5)
    gram = gram_matrix(spec, points)
    gram.audit()
    path = tmp_path / "gram.json"
    gram_to_json(gram, path)
    back = gram_from_json(path)
    np.testing.assert_array_equal(back.entries, gram.entries)
    assert back.spec == gram.spec


def test_median_heuristic():
    d2 = np.array([[0.0, 2.0, 4.0], [2.0, 0.0, 2.0], [4.0, 2.0, 0.0]])
    assert median_heuristic_gamma(d2) == pytest.approx(0.5)
    assert median_heuristic_gamma(np.zeros((3, 3))) == 1.0
