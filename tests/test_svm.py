import numpy as np
import pytest

import manikernels.cli as cli
from manikernels import learn
from manikernels.cli import run
from manikernels.data import save_dataset, synth_grassmann_clusters, synth_spd_blobs
from manikernels.errors import (
    BadParamError,
    DimMismatchError,
    NoConvergenceError,
    NotPsdError,
    OneClassError,
)
from manikernels.grassmann import make_grassmann
from manikernels.kernels import GramMatrix, KernelSpec, cross_gram, gram_matrix
from manikernels.learn import (
    PSD_TOL_FACTOR,
    MulticlassSvmModel,
    SvmModel,
    combine_kernels,
    kernel_fda,
    kernel_kmeans,
    mkl_train,
    multiclass_svm_predict,
    multiclass_svm_train,
    principal_gram,
    svm_decision,
    svm_dual_objective,
    svm_train,
    svm_train_batch,
)
from manikernels.matrixops import spd_exp

import oracles


def gauss_spec(gamma):
    return KernelSpec(manifold="euclidean", metric="euclidean", gamma=gamma)


def separable_problem(rng, m, margin=2.0):
    """Linearly separated 2-d blobs; labels +/-1, half each."""
    half = m // 2
    pos = rng.standard_normal((half, 2)) * 0.4 + [margin, 0.0]
    neg = rng.standard_normal((m - half, 2)) * 0.4 + [-margin, 0.0]
    pts = [p for p in np.vstack([pos, neg])]
    y = np.array([1.0] * half + [-1.0] * (m - half))
    return pts, y


# ---------------------------------------------------------------------------
# binary SVM
# ---------------------------------------------------------------------------

def test_two_point_analytic_dual():
    # dual: max a1 + a2 - (a1^2 + a2^2)/2 with a1 = a2 => a = 1, bias 0
    k = np.eye(2)
    y = np.array([1.0, -1.0])
    model = svm_train(k, y, C=10.0)
    np.testing.assert_array_equal(model.dual_coefs, [1.0, -1.0])
    assert model.bias == 0.0
    np.testing.assert_array_equal(model.support_indices, [0, 1])


def test_two_point_at_bound():
    model = svm_train(np.eye(2), np.array([1.0, -1.0]), C=1.0)
    np.testing.assert_array_equal(model.dual_coefs, [1.0, -1.0])
    assert model.bias == 0.0


def test_dual_coef_invariants():
    rng = np.random.default_rng(0)
    pts, y = separable_problem(rng, 24)
    gram = gram_matrix(gauss_spec(0.5), pts)
    c_val = 2.0
    model = svm_train(gram, y, C=c_val)
    alpha = model.dual_coefs * y
    assert np.all(alpha >= -1e-12) and np.all(alpha <= c_val + 1e-12)
    assert abs(model.dual_coefs.sum()) <= 1e-3  # sum alpha_i y_i
    off_support = np.setdiff1d(np.arange(24), model.support_indices)
    np.testing.assert_array_equal(model.dual_coefs[off_support], 0.0)


def test_duplicate_training_point_leaves_decisions_unchanged():
    rng = np.random.default_rng(1)
    pts, y = separable_problem(rng, 20)
    spec = gauss_spec(0.7)
    gram = gram_matrix(spec, pts)
    model = svm_train(gram, y, C=5.0, kkt_tol=1e-10)

    dup_pts = pts + [pts[0]]
    dup_y = np.append(y, y[0])
    dup_gram = gram_matrix(spec, dup_pts)
    dup_model = svm_train(dup_gram, dup_y, C=5.0, kkt_tol=1e-10)

    test_pts = [rng.standard_normal(2) * 2.0 for _ in range(30)]
    dec = svm_decision(model, cross_gram(spec, pts, test_pts))
    dup_dec = svm_decision(dup_model, cross_gram(spec, dup_pts, test_pts))
    assert np.max(np.abs(dec - dup_dec)) <= 1e-6


def test_separable_data_zero_training_error():
    rng = np.random.default_rng(2)
    pts, y = separable_problem(rng, 30)
    gram = gram_matrix(gauss_spec(0.5), pts)
    model = svm_train(gram, y, C=1e3)
    pred = oracles.svm_predict(model, gram.entries)
    np.testing.assert_array_equal(pred, y)


def test_decision_at_free_support_vector():
    rng = np.random.default_rng(3)
    pts, y = separable_problem(rng, 26)
    gram = gram_matrix(gauss_spec(0.5), pts)
    model = svm_train(gram, y, C=1.0, kkt_tol=1e-8)
    alpha = model.dual_coefs * y
    free = np.flatnonzero((alpha > 1e-9) & (alpha < 1.0 - 1e-9))
    assert free.size > 0
    dec = svm_decision(model, gram.entries[:, free])
    for t, i in enumerate(free):
        assert np.sign(dec[t]) == y[i]
        assert abs(dec[t]) >= 1.0 - 1e-3 - 1e-6


def test_all_zero_dual_coefs_constant_bias():
    model = SvmModel(
        dual_coefs=np.zeros(4),
        bias=0.25,
        support_indices=np.array([], dtype=int),
        C=1.0,
    )
    dec = svm_decision(model, np.random.default_rng(4).uniform(size=(4, 7)))
    np.testing.assert_allclose(dec, 0.25)


def test_held_out_sign_agreement():
    rng = np.random.default_rng(5)
    pts, y = separable_problem(rng, 40)
    spec = gauss_spec(0.5)
    gram = gram_matrix(spec, pts)
    model = svm_train(gram, y, C=10.0)
    test_pts, test_y = separable_problem(np.random.default_rng(6), 40)
    pred = oracles.svm_predict(model, cross_gram(spec, pts, test_pts))
    np.testing.assert_array_equal(pred, test_y)


def test_kkt_and_duality_gap_seeded_problems():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(20, 61))
        pts = [rng.standard_normal(2) for _ in range(m)]
        y = np.where(np.array([p[0] + 0.3 * p[1] for p in pts]) > 0, 1.0, -1.0)
        if len(np.unique(y)) < 2:
            y[0] = -y[0]
        gram = gram_matrix(gauss_spec(1.0), pts)
        c_val = [0.5, 1.0, 10.0][seed % 3]
        model = svm_train(gram, y, C=c_val, kkt_tol=1e-9)
        assert model.kkt_violation <= 1e-3
        dual, primal = oracles.svm_objectives(model, gram, y)
        assert svm_dual_objective(model, gram) == dual
        gap = primal - dual
        assert -1e-9 <= gap <= 1e-6 * m


def test_svm_iteration_cap(monkeypatch):
    rng = np.random.default_rng(20)
    pts, y = separable_problem(rng, 30)
    gram = gram_matrix(gauss_spec(0.5), pts)
    monkeypatch.setattr(learn, "SMO_MAX_ITER", 2)
    with pytest.raises(NoConvergenceError):
        svm_train(gram, y, C=10.0, kkt_tol=1e-12)


def test_svm_input_errors():
    k = np.eye(3)
    with pytest.raises(OneClassError):
        svm_train(k, np.array([1.0, 1.0, 1.0]), C=1.0)
    with pytest.raises(BadParamError):
        svm_train(k, np.array([0.0, 1.0, 1.0]), C=1.0)
    with pytest.raises(BadParamError):
        svm_train(k, np.array([1.0, -1.0, 1.0]), C=0.0)
    with pytest.raises(NotPsdError):
        svm_train(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, -1.0]), C=1.0)
    model = svm_train(np.eye(2), np.array([1.0, -1.0]), C=1.0)
    with pytest.raises(DimMismatchError):
        svm_decision(model, np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# batched SMO
# ---------------------------------------------------------------------------

def assert_bitwise(got, want):
    """Two SVM models with the same bits: signed zeros and float reprs included."""
    assert got.dual_coefs.tobytes() == want.dual_coefs.tobytes()
    assert got.support_indices.tobytes() == want.support_indices.tobytes()
    assert (repr(got.bias), repr(got.kkt_violation), got.C, got.n_iter) == (
        repr(want.bias), repr(want.kkt_violation), want.C, want.n_iter
    )


def fold_problems(labels, n_folds, rng):
    """Y and C of the binary, one-vs-all and one-vs-one problems of
    ``n_folds`` training masks over ``labels``, a random C per row."""
    m = len(labels)
    folds = np.arange(m) % n_folds
    rng.shuffle(folds)
    rows = []
    for f in range(n_folds):
        train = folds != f
        codes = [np.where(labels[train] == 1, -1.0, 1.0)[None]]
        codes += [learn._binary_problems(labels[train], mode)[0] for mode in ("one-vs-all", "one-vs-one")]
        block = np.zeros((sum(len(c) for c in codes), m))
        block[:, train] = np.concatenate(codes)
        rows.append(block)
    Y = np.concatenate(rows)
    return Y, rng.choice([0.1, 1.0, 10.0, 100.0], size=len(Y))


def duplicated_blobs():
    """Gram and labels of three overlapping SPD classes in which every
    third point appears twice, so SMO meets ties in f and in the scores."""
    points, labels = synth_spd_blobs(3, 12, 3, seed=3, center_scale=0.5, noise_scale=0.6)
    points, labels = np.concatenate([points, points[::3]]), np.concatenate([labels, labels[::3]])
    return gram_matrix(KernelSpec(manifold="spd", metric="log-euclidean", gamma=0.5), points), labels


@pytest.fixture
def force_solver(monkeypatch):
    """Sets the solver of every later svm_train_batch call, whatever its
    problem count: force_solver("lockstep") or force_solver("scalar")."""
    def force(solver):
        monkeypatch.setattr(learn, "LOCKSTEP_MIN_PROBLEMS", {"lockstep": 1, "scalar": 2**62}[solver])
    return force


def test_batch_matches_per_problem_svm_train_bit_for_bit():
    gram, labels = duplicated_blobs()
    Y, C = fold_problems(labels, 5, np.random.default_rng(15))
    assert len(Y) == 5 * (1 + 3 + 3)
    models = svm_train_batch(gram, Y, C)
    for y, c_val, got in zip(Y, C, models):
        on = y != 0
        assert_bitwise(got, svm_train(principal_gram(gram, on), y[on], c_val))
    # every row stopped on its own gap, and some alphas sit at C
    assert len({model.n_iter for model in models}) > 1
    assert any(np.any(np.abs(model.dual_coefs) == model.C) for model in models)


def test_problem_count_picks_the_solver(monkeypatch):
    gram, labels = duplicated_blobs()
    Y, C = fold_problems(labels, 5, np.random.default_rng(18))
    n = learn.LOCKSTEP_MIN_PROBLEMS
    calls = []
    real = learn.svm_train
    monkeypatch.setattr(learn, "svm_train", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    assert len(svm_train_batch(gram, Y[: n - 1], C[: n - 1])) == len(calls) == n - 1
    calls.clear()
    assert len(svm_train_batch(gram, Y[:n], C[:n])) == n and calls == []


def test_both_solvers_give_the_same_models(force_solver):
    # binary, one-vs-all and one-vs-one fold codes, and a 6-class one-vs-one fit
    gram, labels = duplicated_blobs()
    Y, C = fold_problems(labels, 4, np.random.default_rng(19))
    points, classes = spd_cluster_problem(np.random.default_rng(20), 6, 5, spread=1.5)
    six = gram_matrix(KernelSpec(manifold="spd", metric="log-euclidean", gamma=0.5), points)
    fits = []
    for solver in ("scalar", "lockstep"):
        force_solver(solver)
        ovo = multiclass_svm_train(six, classes, C=10.0, mode="one-vs-one")
        fits.append(svm_train_batch(gram, Y, C) + ovo.models)
    assert len(fits[0]) == len(Y) + 15
    for got, want in zip(*fits):
        assert_bitwise(got, want)


def test_batch_takes_the_lowest_point_of_its_problem_when_every_score_underflows(force_solver):
    # At this scale the gap after the first step is roundoff, and its
    # square over a curvature near 1e302 is 0 for every point: svm_train's
    # argmax then takes the lowest point of its problem, which in the
    # batch is point 1, not point 0 outside the problem.
    a = np.random.default_rng(6).standard_normal((3, 2))
    k = 1e302 * (a @ a.T)
    assert np.array_equal(k, k.T)  # marked symmetric: the check's norm would overflow
    gram = GramMatrix(k, symmetric=True)
    y = np.array([0.0, 1.0, -1.0])
    force_solver("lockstep")
    want = svm_train(principal_gram(gram, y != 0), y[1:], 1.0, kkt_tol=0.0)
    assert_bitwise(svm_train_batch(gram, [y], [1.0], kkt_tol=0.0)[0], want)


def test_batch_iteration_cap_is_that_of_svm_train(monkeypatch, force_solver):
    force_solver("lockstep")
    gram, labels = duplicated_blobs()
    Y, C = fold_problems(labels, 3, np.random.default_rng(16))
    models = svm_train_batch(gram, Y, C)
    need = max(model.n_iter for model in models)
    monkeypatch.setattr(learn, "SMO_MAX_ITER", need)
    for got, want in zip(svm_train_batch(gram, Y, C), models):
        assert_bitwise(got, want)
    monkeypatch.setattr(learn, "SMO_MAX_ITER", need - 1)
    with pytest.raises(NoConvergenceError):
        svm_train_batch(gram, Y, C)
    monkeypatch.setattr(learn, "SMO_MAX_ITER", 2)
    with pytest.raises(NoConvergenceError):
        svm_train_batch(gram, Y, C, kkt_tol=1e-12)


def test_batch_rejects_a_fold_whose_gram_is_not_psd(eigvalsh_calls, force_solver):
    force_solver("lockstep")
    gram = arc_length_gram()
    m = gram.size
    y = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    fold = np.arange(m) >= 6
    assert np.linalg.eigvalsh(gram.entries[np.ix_(fold, fold)])[0] < -PSD_TOL_FACTOR * fold.sum()
    pair = np.where(np.arange(m) < 2, y, 0.0)  # a 2x2 Gaussian Gram is PSD
    (model,) = svm_train_batch(gram, [pair], [1.0])
    assert_bitwise(model, svm_train(principal_gram(gram, pair != 0), y[:2], 1.0))
    with pytest.raises(NotPsdError):
        svm_train_batch(gram, [pair, np.where(fold, y, 0.0)], [1.0, 1.0])


def test_batch_audits_one_gram_once_for_every_problem(eigvalsh_calls):
    gram, labels = duplicated_blobs()
    Y, C = fold_problems(labels, 5, np.random.default_rng(17))
    svm_train_batch(gram, Y, C)
    svm_train_batch(gram, Y, C)
    assert eigvalsh_calls == [gram.size]


def test_batch_audits_each_set_of_points_once_on_both_solvers(eigvalsh_calls, force_solver):
    # the full Gram is indefinite, so no fold carries its audit: each
    # fold is audited alone, once for both of its C values
    points, labels = synth_grassmann_clusters(2, 6, 4, 2, seed=1, noise_scale=1.0)
    gram = gram_matrix(KernelSpec(manifold="grassmann", metric="arc-length", gamma=0.3), points)
    assert gram.audit() < -PSD_TOL_FACTOR * gram.size
    folds = np.arange(gram.size) % 3
    y = np.where(labels == 0, 1.0, -1.0)
    Y = np.repeat([np.where(folds != f, y, 0.0) for f in range(3)], 2, axis=0)
    for solver in ("scalar", "lockstep"):
        force_solver(solver)
        eigvalsh_calls.clear()
        assert len(svm_train_batch(gram, Y, np.tile([1.0, 10.0], 3))) == 6
        assert eigvalsh_calls == [8, 8, 8]


def test_batch_input_errors():
    k = np.eye(3)
    with pytest.raises(DimMismatchError):
        svm_train_batch(k, np.ones((2, 4)), [1.0, 1.0])
    with pytest.raises(DimMismatchError):
        svm_train_batch(k, [[1.0, -1.0, 0.0]], [1.0, 1.0])
    with pytest.raises(BadParamError):
        svm_train_batch(k, [[1.0, -1.0, 0.5]], [1.0])
    with pytest.raises(OneClassError):
        svm_train_batch(k, [[1.0, -1.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 1.0])
    for bad_c in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(BadParamError):
            svm_train_batch(k, [[1.0, -1.0, 0.0]], [bad_c])
    assert svm_train_batch(k, np.zeros((0, 3)), []) == []


def _cv_search(classes, mode, metric):
    """(synth_spd_blobs arguments, svm-train flags) of a 4-fold search."""
    blobs = dict(n_clusters=classes, per_cluster=15, dim=3, seed=4, center_scale=0.5,
                 noise_scale=0.6)
    flags = ["--metric", metric, "--cv", "4", "--gamma-grid", "0.05,0.5,5",
             "--c-grid", "0.1,1,100", "--mode", mode, "--seed", "2"]
    return blobs, flags


CV_SEARCHES = {
    "2-one-vs-all": _cv_search(2, "one-vs-all", "log-euclidean"),
    "3-one-vs-all": _cv_search(3, "one-vs-all", "log-euclidean"),
    "3-one-vs-one": _cv_search(3, "one-vs-one", "log-euclidean"),
    # affine-invariant Grams at gamma 0.05 are indefinite here: both skip it
    "2-one-vs-all-affine-invariant": _cv_search(2, "one-vs-all", "affine-invariant"),
    "3-one-vs-one-affine-invariant": _cv_search(3, "one-vs-one", "affine-invariant"),
    # 30 folds over 24 points: folds 24 to 29 test no point, and the
    # search leaves them out where the per-problem loop scores them as 0
    "30-folds-24-points": (
        dict(n_clusters=2, per_cluster=12, dim=3, seed=1, center_scale=0.7, noise_scale=0.5),
        ["--cv", "30", "--gamma-grid", "0.5", "--c-grid", "1,10"],
    ),
}


@pytest.mark.parametrize("case", list(CV_SEARCHES))
def test_svm_train_cv_files_match_the_per_problem_search(tmp_path, monkeypatch, case):
    blobs, flags = CV_SEARCHES[case]
    points, labels = synth_spd_blobs(**blobs)
    data = tmp_path / "data.json"
    save_dataset(data, "spd", points, labels=labels)
    model, pred = tmp_path / "model.json", tmp_path / "pred.csv"
    train = ["svm-train", "--input", str(data), *flags, "--out", str(model)]
    predict = ["svm-predict", "--model", str(model), "--train", str(data), "--test", str(data),
               "--out", str(pred)]
    batches = []

    def recording_batch(gram, Y, *args, **kwargs):
        batches.append(np.asarray(Y))
        return svm_train_batch(gram, Y, *args, **kwargs)

    monkeypatch.setattr(cli, "svm_train_batch", recording_batch)
    written = []
    for select in (cli._cv_select, oracles.cv_select_per_problem):
        monkeypatch.setattr(cli, "_cv_select", select)
        assert run(train) == 0 and run(predict) == 0
        written.append((model.read_bytes(), pred.read_bytes()))
    assert written[0] == written[1]
    # every row of a batch leaves out the test points of its fold
    assert batches and all(np.all((Y == 0).any(axis=1)) for Y in batches)
    if case == "30-folds-24-points":
        # one binary problem per C for each of the 24 folds that test a point
        assert {len(Y) for Y in batches} == {24 * 2}


def test_svm_c_must_be_positive_and_finite():
    for bad_c in (np.inf, np.nan):
        with pytest.raises(BadParamError):
            svm_train(np.eye(2), np.array([1.0, -1.0]), C=bad_c)


# ---------------------------------------------------------------------------
# multiclass
# ---------------------------------------------------------------------------

def spd_cluster_problem(rng, n_clusters, per_cluster, spread=4.0):
    points, labels = [], []
    for c in range(n_clusters):
        base = np.eye(3) * spread * (c + 1)
        for _ in range(per_cluster):
            a = rng.standard_normal((3, 3)) * 0.05
            points.append(spd_exp(base / spread + (a + a.T) / 2.0 + c * np.eye(3) * 2.0))
            labels.append(c)
    return points, np.array(labels)


def test_multiclass_two_classes_matches_binary():
    rng = np.random.default_rng(7)
    pts, y = separable_problem(rng, 20)
    gram = gram_matrix(gauss_spec(0.5), pts)
    labels = np.where(y > 0, 1, 0)
    multi = multiclass_svm_train(gram, labels, C=5.0)
    binary = svm_train(gram, y, C=5.0)
    pred_multi, _ = multiclass_svm_predict(multi, gram.entries)
    pred_binary = np.where(svm_decision(binary, gram.entries) >= 0, 1, 0)
    np.testing.assert_array_equal(pred_multi, pred_binary)


def test_binary_reduction_is_svm_train_on_the_plus_minus_one_coding():
    points, labels = spd_cluster_problem(np.random.default_rng(8), 2, 6, spread=1.5)
    labels = np.array([7, 3])[labels]
    gram = gram_matrix(KernelSpec(manifold="spd", metric="log-euclidean", gamma=0.5), points)
    model = multiclass_svm_train(gram, labels, C=10.0, mode="binary")
    assert model.classes.tolist() == [3, 7] and len(model.models) == 1
    assert_bitwise(model.models[0], svm_train(gram, np.where(labels == 7, 1.0, -1.0), C=10.0))
    # a decision of 0 or above is the larger class, and the decision row is returned
    dec = svm_decision(model.models[0], gram.entries)
    pred, rows = multiclass_svm_predict(model, gram.entries)
    np.testing.assert_array_equal(pred, np.where(dec >= 0, 7, 3))
    np.testing.assert_array_equal(rows, [dec])
    with pytest.raises(BadParamError, match="exactly two label values"):
        multiclass_svm_train(gram, np.arange(len(labels)) % 3, C=10.0, mode="binary")
    # a binary model is two distinct classes and one SVM
    for classes, n_models in [([3, 7, 9], 1), ([3, 3], 1), ([3, 7], 2)]:
        with pytest.raises(BadParamError):
            MulticlassSvmModel("binary", np.array(classes), model.models * n_models)


@pytest.mark.parametrize("mode", ["one-vs-all", "one-vs-one"])
def test_multiclass_three_spd_clusters(mode):
    rng = np.random.default_rng(8)
    points, labels = spd_cluster_problem(rng, 3, 12)
    spec = KernelSpec(manifold="spd", metric="log-euclidean", gamma=0.5)
    order = rng.permutation(len(points))
    train = order[:24]
    test = order[24:]
    train_pts = [points[i] for i in train]
    test_pts = [points[i] for i in test]
    gram = gram_matrix(spec, train_pts)
    model = multiclass_svm_train(gram, labels[train], C=10.0, mode=mode)
    pred, dec = multiclass_svm_predict(model, cross_gram(spec, train_pts, test_pts))
    np.testing.assert_array_equal(pred, labels[test])
    assert dec.shape == (len(model.models), len(test))


def test_multiclass_one_class_error():
    with pytest.raises(OneClassError):
        multiclass_svm_train(np.eye(3), np.array([2, 2, 2]), C=1.0)


# ---------------------------------------------------------------------------
# MKL
# ---------------------------------------------------------------------------

def test_mkl_single_kernel_reduces_to_svm():
    rng = np.random.default_rng(9)
    pts, y = separable_problem(rng, 24)
    gram = gram_matrix(gauss_spec(0.5), pts)
    mkl = mkl_train([gram], y, C=2.0)
    np.testing.assert_array_equal(mkl.weights, [1.0])
    plain = svm_train(gram, y, C=2.0)
    np.testing.assert_allclose(mkl.svm.dual_coefs, plain.dual_coefs)
    assert mkl.svm.bias == plain.bias
    dual_mkl, _ = oracles.svm_objectives(mkl.svm, gram, y)
    dual_plain, _ = oracles.svm_objectives(plain, gram, y)
    assert abs(dual_mkl - dual_plain) <= 1e-12


def test_mkl_identical_kernels_objective_matches_single():
    rng = np.random.default_rng(10)
    pts, y = separable_problem(rng, 24)
    gram = gram_matrix(gauss_spec(0.5), pts)
    mkl = mkl_train([gram, gram], y, C=2.0)
    plain = svm_train(gram, y, C=2.0)
    dual_plain, _ = oracles.svm_objectives(plain, gram, y)
    assert abs(mkl.objective_trace[-1] - dual_plain) <= 1e-6
    assert mkl.weights.sum() == pytest.approx(1.0, abs=1e-12)


def mkl_gamma_grid_problem():
    """Three log-Euclidean Grams (gamma 0.1, 1, 10) of two SPD blobs whose
    MKL takes 8 outer steps before the objective levels off."""
    points, labels = synth_spd_blobs(2, 20, 3, seed=2)
    grams = [gram_matrix(KernelSpec("spd", "log-euclidean", gamma), points) for gamma in (0.1, 1.0, 10.0)]
    return grams, np.where(labels == 1, 1.0, -1.0)


def test_mkl_objective_is_the_dual_of_its_svm_on_the_combined_gram():
    grams, y = mkl_gamma_grid_problem()
    for cap in (0, 3):
        mkl = mkl_train(grams, y, C=10.0, max_outer_iter=cap, tol=0.0)
        assert mkl.objective_trace[-1] == svm_dual_objective(mkl.svm, combine_kernels(grams, mkl.weights))


def test_mkl_stops_at_max_outer():
    grams, y = mkl_gamma_grid_problem()
    for cap in (0, 1, 3):
        mkl = mkl_train(grams, y, C=10.0, max_outer_iter=cap, tol=0.0)
        assert (mkl.n_outer, mkl.stop) == (cap, "max-outer")
        assert len(mkl.objective_trace) == cap + 1


def test_mkl_stops_on_tol():
    grams, y = mkl_gamma_grid_problem()
    mkl = mkl_train(grams, y, C=10.0, max_outer_iter=50, tol=1e-6)
    assert (mkl.n_outer, mkl.stop) == (8, "tol")
    drops = -np.diff(mkl.objective_trace)
    assert len(drops) == mkl.n_outer
    # the first drop below tol ends the loop
    assert drops[-1] < 1e-6 and np.all(drops[:-1] >= 1e-6)


def test_mkl_stops_when_the_line_search_fails():
    grams, y = mkl_gamma_grid_problem()
    mkl = mkl_train(grams, y, C=10.0, max_outer_iter=500, tol=0.0)
    assert (mkl.n_outer, mkl.stop) == (8, "line-search")
    assert len(mkl.objective_trace) == 9
    # a larger cap changes nothing: the loop ended before it
    again = mkl_train(grams, y, C=10.0, max_outer_iter=1000, tol=0.0)
    np.testing.assert_array_equal(again.weights, mkl.weights)


def test_mkl_stops_at_a_stationary_point():
    grams, y = mkl_gamma_grid_problem()
    # one kernel has no descent direction on the simplex
    single = mkl_train(grams[:1], y, C=10.0)
    assert (single.n_outer, single.stop) == (0, "stationary")
    assert single.objective_trace == [single.objective_trace[0]]
    # nor has a vertex whose reduced gradient points out of the simplex
    points, labels = synth_spd_blobs(2, 6, 3, seed=1)
    grams = [gram_matrix(KernelSpec("spd", "log-euclidean", gamma), points) for gamma in (0.1, 1.0, 10.0)]
    vertex = mkl_train(grams, np.where(labels == 1, 1.0, -1.0), C=10.0, max_outer_iter=50, tol=0.0)
    assert (vertex.n_outer, vertex.stop) == (2, "stationary")
    np.testing.assert_array_equal(vertex.weights, [0.0, 1.0, 0.0])


def test_mkl_downweights_noise_kernel():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pts, y = separable_problem(rng, 30)
        informative = gram_matrix(gauss_spec(0.5), pts)
        noise_pts = [rng.standard_normal(2) for _ in range(30)]
        noise = gram_matrix(gauss_spec(0.5), noise_pts)
        mkl = mkl_train([informative, noise], y, C=10.0)
        assert mkl.weights[1] <= 0.1, (seed, mkl.weights)


def test_mkl_objective_trace_monotone():
    rng = np.random.default_rng(11)
    pts, y = separable_problem(rng, 24)
    k1 = gram_matrix(gauss_spec(0.2), pts)
    k2 = gram_matrix(gauss_spec(2.0), pts)
    noise_pts = [rng.standard_normal(2) for _ in range(24)]
    k3 = gram_matrix(gauss_spec(1.0), noise_pts)
    mkl = mkl_train([k1, k2, k3], y, C=5.0)
    trace = np.array(mkl.objective_trace)
    assert np.all(np.diff(trace) <= 1e-8)
    assert np.all(mkl.weights >= 0)
    assert mkl.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_combine_kernels():
    a, b = np.eye(2), np.full((2, 2), 0.5)
    np.testing.assert_allclose(
        combine_kernels([a, b], [0.25, 0.75]), 0.25 * a + 0.75 * b
    )


# ---------------------------------------------------------------------------
# PSD audit
# ---------------------------------------------------------------------------

def arc_length_gram(m=30, gamma=0.1, audit=False):
    """Gaussian arc-length Gram of random 2-planes in R^5: at gamma 0.1
    its smallest eigenvalue is about -0.2, far below the audit slack."""
    rng = np.random.default_rng(12)
    pts = [make_grassmann(rng.standard_normal((5, 2))) for _ in range(m)]
    spec = KernelSpec(manifold="grassmann", metric="arc-length", gamma=gamma)
    gram = gram_matrix(spec, pts)
    if audit:
        gram.audit()
    return gram


@pytest.mark.parametrize("audit", [False, True])
def test_indefinite_gram_raises_through_every_learner(audit):
    gram = arc_length_gram(audit=audit)
    assert np.linalg.eigvalsh(gram.entries)[0] < -PSD_TOL_FACTOR * gram.size
    labels = np.arange(gram.size) % 3
    y = np.where(labels == 0, 1.0, -1.0)
    with pytest.raises(NotPsdError):
        svm_train(gram, y, C=1.0)
    for mode in ("one-vs-all", "one-vs-one"):
        with pytest.raises(NotPsdError):
            multiclass_svm_train(gram, labels, C=1.0, mode=mode)
    with pytest.raises(NotPsdError):
        mkl_train([np.eye(gram.size), gram], y, C=1.0)
    with pytest.raises(NotPsdError):
        kernel_fda(gram, labels)


def test_audited_min_eigen_below_slack_raises_without_eigvalsh(eigvalsh_calls):
    m = 4
    gram = GramMatrix(np.eye(m), min_eigen=-2.0 * PSD_TOL_FACTOR * m)
    labels = np.array([0, 1, 2, 0])
    y = np.array([1.0, -1.0, -1.0, 1.0])
    with pytest.raises(NotPsdError):
        svm_train(gram, y, C=1.0)
    with pytest.raises(NotPsdError):
        multiclass_svm_train(gram, labels, C=1.0, mode="one-vs-all")
    with pytest.raises(NotPsdError):
        mkl_train([gram, gram], y, C=1.0)
    assert eigvalsh_calls == []


@pytest.mark.parametrize("mode", ["one-vs-all", "one-vs-one"])
def test_multiclass_audits_once(mode, eigvalsh_calls):
    points, labels = spd_cluster_problem(np.random.default_rng(8), 3, 8)
    spec = KernelSpec(manifold="spd", metric="log-euclidean", gamma=0.5)
    # an audited Gram is not audited again, per class or per pair
    gram = gram_matrix(spec, points)
    gram.audit()
    model = multiclass_svm_train(gram, labels, C=10.0, mode=mode)
    assert len(model.models) == 3
    assert eigvalsh_calls == [24]
    eigvalsh_calls.clear()
    # an unaudited one is audited once, and its pairs carry that audit
    multiclass_svm_train(gram_matrix(spec, points), labels, C=10.0, mode=mode)
    assert eigvalsh_calls == [24]


def test_mkl_audits_each_kernel_once(eigvalsh_calls):
    rng = np.random.default_rng(11)
    pts, y = separable_problem(rng, 24)
    grams = [gram_matrix(gauss_spec(g), pts) for g in (0.2, 1.0, 5.0)]
    mkl = mkl_train(grams, y, C=5.0)
    assert len(mkl.objective_trace) >= 2  # the outer loop ran inner solves
    assert eigvalsh_calls == [24, 24, 24]


def test_one_gram_is_audited_once_across_learners(eigvalsh_calls):
    points, labels = spd_cluster_problem(np.random.default_rng(8), 3, 8)
    gram = gram_matrix(KernelSpec(manifold="spd", metric="log-euclidean", gamma=0.5), points)
    y = np.where(labels == 0, 1.0, -1.0)
    kernel_kmeans(gram, 3, restarts=2)
    svm_train(gram, y, C=10.0)
    for mode in ("one-vs-all", "one-vs-one"):
        multiclass_svm_train(gram, labels, C=10.0, mode=mode)
    mkl_train([gram], y, C=10.0)
    kernel_fda(gram, labels)
    assert eigvalsh_calls == [24]


def _psd_verdict(gram):
    try:
        learn._require_psd(gram)
    except NotPsdError:
        return False
    return True


@pytest.mark.parametrize("metric", ["log-euclidean", "arc-length"])
def test_principal_gram_verdicts_are_those_of_a_direct_audit(metric):
    rng = np.random.default_rng(21)
    if metric == "log-euclidean":
        # ten points, each three times: rank 10 of 30, so the smallest
        # eigenvalues are roundoff of either sign
        a = rng.standard_normal((10, 3, 3))
        points = np.repeat(spd_exp((a + np.swapaxes(a, 1, 2)) / 2.0), 3, axis=0)
        gram = gram_matrix(KernelSpec(manifold="spd", metric=metric, gamma=0.5), points)
    else:
        gram = arc_length_gram()
    m = gram.size
    # eigvalsh is backward stable: each computed eigenvalue is within a
    # small multiple of eps * ||K||_2 of the exact one, which interlaces
    roundoff = m * np.finfo(float).eps * np.linalg.norm(gram.entries, 2)
    verdicts = set()
    for trial in range(60):
        idx = np.sort(rng.choice(m, size=int(rng.integers(2, m + 1)), replace=False))
        if trial % 2:
            idx = np.isin(np.arange(m), idx)  # a boolean mask names the same points
        sub = principal_gram(gram, idx)
        direct = GramMatrix(gram.entries[np.ix_(idx, idx)], symmetric=True)
        assert np.array_equal(sub.entries, direct.entries) and sub.symmetric
        own = float(np.linalg.eigvalsh(direct.entries)[0])
        if sub.min_eigen is not None:
            assert sub.min_eigen <= own + roundoff
        verdict = _psd_verdict(sub)
        assert verdict == _psd_verdict(direct)
        verdicts.add(verdict)
    # the indefinite Gram has PSD and indefinite principal submatrices
    assert verdicts == ({True} if metric == "log-euclidean" else {True, False})


@pytest.mark.parametrize(
    "mode, breaks",
    [
        ("one-vs-all", lambda parts: parts.update(mode="bogus")),
        ("one-vs-all", lambda parts: parts.update(classes=np.array([0]))),
        ("one-vs-all", lambda parts: parts.update(classes=np.array([0, 0, 1]))),
        ("one-vs-all", lambda parts: parts["models"].pop()),
        ("one-vs-one", lambda parts: parts["models"].pop()),
        ("one-vs-one", lambda parts: parts["pairs"].pop()),
        ("one-vs-one", lambda parts: parts.update(pair_indices=None)),
        ("one-vs-one", lambda parts: parts["pairs"].__setitem__(0, (0, 0))),
        ("one-vs-one", lambda parts: parts["pairs"].__setitem__(1, (0, 9))),
        ("one-vs-one", lambda parts: parts["pair_indices"].__setitem__(2, np.arange(3))),
        ("one-vs-one", lambda parts: parts["pair_indices"][0].__setitem__(0, -1)),
    ],
    ids=["mode", "one-class", "repeated-class", "ova-model-missing", "ovo-model-missing",
         "pair-missing", "no-index-sets", "same-class-pair", "unknown-class-pair",
         "short-index-set", "negative-index"],
)
def test_multiclass_model_parts_must_agree(mode, breaks):
    points, labels = spd_cluster_problem(np.random.default_rng(8), 3, 4)
    gram = gram_matrix(KernelSpec(manifold="spd", metric="log-euclidean", gamma=0.5), points)
    parts = dict(vars(multiclass_svm_train(gram, labels, C=10.0, mode=mode)))
    MulticlassSvmModel(**parts)
    breaks(parts)
    with pytest.raises(BadParamError):
        MulticlassSvmModel(**parts)


def test_svm_model_support_indices_lie_in_range():
    for bad in ([3], [-1], [0, 7]):
        with pytest.raises(BadParamError):
            SvmModel(dual_coefs=[1.0, -1.0, 0.0], bias=0.0, support_indices=bad, C=1.0)


# ---------------------------------------------------------------------------
# symmetry check
# ---------------------------------------------------------------------------

@pytest.fixture
def symmetry_checks(monkeypatch):
    """Sizes of the matrices ``learn`` runs its symmetry check on."""
    calls = []
    real = learn.require_symmetric

    def counting(s, *args, **kwargs):
        calls.append(np.shape(s)[-1])
        return real(s, *args, **kwargs)

    monkeypatch.setattr(learn, "require_symmetric", counting)
    return calls


@pytest.mark.parametrize("mode", ["one-vs-all", "one-vs-one"])
def test_multiclass_checks_symmetry_once(mode, symmetry_checks):
    points, labels = spd_cluster_problem(np.random.default_rng(8), 3, 8)
    gram = gram_matrix(KernelSpec(manifold="spd", metric="log-euclidean", gamma=0.5), points)
    model = multiclass_svm_train(gram.entries, labels, C=10.0, mode=mode)
    assert symmetry_checks == [24]
    # a Gram built symmetric is taken as it is, with the same result
    symmetry_checks.clear()
    again = multiclass_svm_train(gram, labels, C=10.0, mode=mode)
    assert symmetry_checks == []
    for a, b in zip(model.models, again.models):
        assert np.array_equal(a.dual_coefs, b.dual_coefs) and a.bias == b.bias


def test_mkl_checks_each_kernel_once(symmetry_checks):
    rng = np.random.default_rng(11)
    pts, y = separable_problem(rng, 24)
    grams = [gram_matrix(gauss_spec(g), pts) for g in (0.2, 1.0, 5.0)]
    mkl = mkl_train([g.entries for g in grams], y, C=5.0)
    assert len(mkl.objective_trace) >= 2  # the outer loop ran inner solves
    assert symmetry_checks == [24, 24, 24]
    symmetry_checks.clear()
    again = mkl_train(grams, y, C=5.0)
    assert symmetry_checks == []
    assert np.array_equal(mkl.weights, again.weights)
    assert np.array_equal(mkl.svm.dual_coefs, again.svm.dual_coefs)


def test_gram_matrix_marked_symmetric_is_exactly_symmetric():
    rng = np.random.default_rng(13)
    pts = [spd_exp((a + a.T) / 2.0) for a in rng.standard_normal((20, 4, 4))]
    gram = gram_matrix(KernelSpec(manifold="spd", metric="affine-invariant", gamma=0.3), pts)
    assert gram.symmetric
    assert np.array_equal(gram.entries, gram.entries.T)
