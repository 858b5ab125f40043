import numpy as np
import pytest

from manikernels.errors import BadShapeError, DimMismatchError, RankDeficientError
from manikernels.grassmann import make_grassmann, principal_angles, subspace_from_vectors
from manikernels import kernels
from manikernels.kernels import cross_squared_distances, squared_distance_matrix

from oracles import GRASSMANN_METRICS, grassmann_distance


def rand_point(rng, n, r):
    return make_grassmann(rng.standard_normal((n, r)))


def rand_orthogonal(rng, r):
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    return q


E1 = np.array([[1.0], [0.0]])
E2 = np.array([[0.0], [1.0]])


# ---------------------------------------------------------------------------
# make_grassmann
# ---------------------------------------------------------------------------

def test_make_grassmann_keeps_orthonormal_input():
    rng = np.random.default_rng(0)
    y = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    out = make_grassmann(y)
    # same span; positive-diagonal convention may flip column signs
    np.testing.assert_allclose(out @ out.T, y @ y.T, atol=1e-12)
    np.testing.assert_allclose(np.abs(out), np.abs(y), atol=1e-12)


def test_make_grassmann_normalizes():
    out = make_grassmann(np.array([[2.0], [0.0], [0.0]]))
    np.testing.assert_allclose(out, np.array([[1.0], [0.0], [0.0]]))


def test_make_grassmann_projector_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        raw = rng.standard_normal((6, 2))
        y = make_grassmann(raw)
        proj = raw @ np.linalg.solve(raw.T @ raw, raw.T)
        assert np.linalg.norm(y @ y.T - proj) <= 1e-10


def test_make_grassmann_errors():
    with pytest.raises(RankDeficientError):
        make_grassmann(np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]))
    with pytest.raises(BadShapeError):
        make_grassmann(np.eye(2))  # n must exceed r
    with pytest.raises(BadShapeError):
        make_grassmann(np.zeros(3))


@pytest.mark.parametrize("shape", [(1, 3, 1), (40, 5, 2), (3, 4, 6, 3)])
def test_make_grassmann_stack_equals_item_loop(shape):
    raw = np.random.default_rng(20).standard_normal(shape)
    stack = make_grassmann(raw)
    loop = np.stack([make_grassmann(x) for x in raw.reshape(-1, *shape[-2:])])
    assert stack.shape == shape
    assert np.array_equal(stack.reshape(loop.shape), loop)


def test_make_grassmann_stack_fails_with_the_item_error():
    rng = np.random.default_rng(21)
    good = rng.standard_normal((4, 5, 2))
    deficient = np.array([[1.0, 2.0]] * 5)
    with pytest.raises(RankDeficientError):
        make_grassmann(deficient)
    for at in (0, 2, 4):
        with pytest.raises(RankDeficientError):
            make_grassmann(np.insert(good, at, deficient, axis=0))
    with pytest.raises(RankDeficientError):
        make_grassmann(np.insert(good, 1, np.zeros((5, 2)), axis=0))
    # n <= r is a shape error for one basis and for a stack of them
    for wide in (rng.standard_normal((2, 2)), rng.standard_normal((2, 3))):
        with pytest.raises(BadShapeError):
            make_grassmann(wide)
        with pytest.raises(BadShapeError):
            make_grassmann(np.stack([wide] * 3))


# ---------------------------------------------------------------------------
# principal angles
# ---------------------------------------------------------------------------

def test_principal_angles_identical():
    rng = np.random.default_rng(2)
    y = rand_point(rng, 6, 3)
    np.testing.assert_allclose(principal_angles(y, y), np.zeros(3), atol=1e-7)


def test_principal_angles_axes():
    assert principal_angles(E1, E2)[0] == pytest.approx(np.pi / 2)
    diag = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    assert principal_angles(E1, diag)[0] == pytest.approx(np.pi / 4)


def test_principal_angles_sorted_in_range():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rand_point(rng, 8, 3), rand_point(rng, 8, 3)
        theta = principal_angles(a, b)
        assert np.all(theta >= 0) and np.all(theta <= np.pi / 2 + 1e-12)
        assert np.all(np.diff(theta) >= -1e-12)


def test_principal_angles_basis_invariance():
    rng = np.random.default_rng(14)
    for _ in range(10):
        a, b = rand_point(rng, 7, 3), rand_point(rng, 7, 3)
        q = rand_orthogonal(rng, 3)
        np.testing.assert_allclose(
            principal_angles(a, b), principal_angles(a, b @ q), atol=1e-9
        )


def test_principal_angles_dim_mismatch():
    with pytest.raises(DimMismatchError):
        principal_angles(E1, np.eye(3)[:, :1])


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_distance_zero_on_same_point():
    rng = np.random.default_rng(4)
    y = rand_point(rng, 7, 2)
    for metric in GRASSMANN_METRICS:
        assert grassmann_distance(metric, y, y) == pytest.approx(0.0, abs=1e-7)


def test_projection_and_arclength_axes():
    assert grassmann_distance("projection", E1, E2) == pytest.approx(1.0)
    assert grassmann_distance("arc-length", E1, E2) == pytest.approx(np.pi / 2)


def test_projection_matches_projector_form():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = rand_point(rng, 6, 2), rand_point(rng, 6, 2)
        via_angles = grassmann_distance("projection", a, b)
        via_projectors = np.linalg.norm(a @ a.T - b @ b.T) / np.sqrt(2.0)
        assert abs(via_angles - via_projectors) <= 1e-9


def test_chordal_forms_match_procrustes_alignment():
    # the aligned difference Y1 U - Y2 V has singular values 2 sin(theta/2)
    rng = np.random.default_rng(6)
    for _ in range(10):
        a, b = rand_point(rng, 7, 3), rand_point(rng, 7, 3)
        u, _, vt = np.linalg.svd(a.T @ b)
        aligned = a @ u - b @ vt.T
        assert grassmann_distance("chordal-fnorm", a, b) == pytest.approx(
            np.linalg.norm(aligned), abs=1e-9
        )
        assert grassmann_distance("chordal-2norm", a, b) == pytest.approx(
            np.linalg.norm(aligned, ord=2), abs=1e-9
        )


def test_fubini_study_determinant_form():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b = rand_point(rng, 6, 3), rand_point(rng, 6, 3)
        expect = np.arccos(np.clip(abs(np.linalg.det(a.T @ b)), 0.0, 1.0))
        assert grassmann_distance("fubini-study", a, b) == pytest.approx(expect, abs=1e-9)


def test_basis_invariance_all_metrics():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b = rand_point(rng, 8, 3), rand_point(rng, 8, 3)
        q = rand_orthogonal(rng, 3)
        for metric in GRASSMANN_METRICS:
            d0 = grassmann_distance(metric, a, b)
            d1 = grassmann_distance(metric, a, b @ q)
            assert abs(d0 - d1) <= 1e-9


def test_metric_axioms():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, b, c = (rand_point(rng, 6, 2) for _ in range(3))
        for metric in GRASSMANN_METRICS:
            dab = grassmann_distance(metric, a, b)
            assert dab >= 0
            assert abs(dab - grassmann_distance(metric, b, a)) <= 1e-9
        for metric in ("projection", "arc-length"):
            dab = grassmann_distance(metric, a, b)
            dac = grassmann_distance(metric, a, c)
            dcb = grassmann_distance(metric, c, b)
            assert dab <= dac + dcb + 1e-9


# ---------------------------------------------------------------------------
# projection embedding, through the registry drivers
# ---------------------------------------------------------------------------

def projection_d2(a, b):
    return cross_squared_distances("grassmann", "projection", [a], [b])[0, 0]


def test_projection_embedding_trivial():
    rng = np.random.default_rng(10)
    y = rand_point(rng, 5, 2)
    assert projection_d2(y, y) == pytest.approx(0.0, abs=1e-12)
    assert projection_d2(E1, E2) == pytest.approx(1.0)
    assert squared_distance_matrix("grassmann", "projection", [E1, E2])[0, 1] == pytest.approx(1.0)


def test_projection_embedding_against_projector_oracle():
    rng = np.random.default_rng(11)
    points = [rand_point(rng, 20, 3) for _ in range(100)]
    triangle = squared_distance_matrix("grassmann", "projection", points)
    rect = cross_squared_distances("grassmann", "projection", points[::2], points[1::2])
    for i in range(50):
        a, b = points[2 * i], points[2 * i + 1]
        direct = 0.5 * np.linalg.norm(a @ a.T - b @ b.T) ** 2
        angles = np.sum(np.sin(principal_angles(a, b)) ** 2)
        for d2 in (triangle[2 * i, 2 * i + 1], rect[i, i]):
            assert abs(d2 - direct) <= 1e-9
            assert abs(d2 - angles) <= 1e-9


def test_projection_blocks_of_cross_grams_match_one_block(monkeypatch):
    # 1350 floats cut the 60-point triangle into blocks of 2 points and the
    # 25 x 35 rectangle into blocks of 4, the last one short; every entry
    # matches the one-block result and the projector form
    rng = np.random.default_rng(12)
    points = [rand_point(rng, 8, 3) for _ in range(60)]
    xs, ys = points[:25], points[25:]
    whole = squared_distance_matrix("grassmann", "projection", points)
    whole_rect = cross_squared_distances("grassmann", "projection", xs, ys)
    monkeypatch.setattr(kernels, "_CROSS_GRAM_BLOCK", 1350)
    blocks = squared_distance_matrix("grassmann", "projection", points)
    rect = cross_squared_distances("grassmann", "projection", xs, ys)
    assert np.abs(blocks - whole).max() <= 1e-14
    assert np.abs(rect - whole_rect).max() <= 1e-14
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            direct = 0.5 * np.linalg.norm(a @ a.T - b @ b.T) ** 2
            assert abs(rect[i, j] - direct) <= 1e-9
            assert abs(blocks[i, 25 + j] - direct) <= 1e-9


# ---------------------------------------------------------------------------
# subspace construction
# ---------------------------------------------------------------------------

def test_subspace_from_vectors_largest_column():
    f = np.array(
        [
            [3.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 2.0],
            [0.0, 0.0, 0.0],
        ]
    )
    basis = subspace_from_vectors(f, 1)
    np.testing.assert_allclose(np.abs(basis[:, 0]), [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_subspace_from_vectors_repeated_columns():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    basis = subspace_from_vectors(np.column_stack([e1, e1, e2]), 2)
    proj = basis @ basis.T
    expect = np.diag([1.0, 1.0, 0.0])
    np.testing.assert_allclose(proj, expect, atol=1e-12)


def test_subspace_from_vectors_beats_random_competitors():
    rng = np.random.default_rng(12)
    f = rng.standard_normal((10, 6))
    basis = subspace_from_vectors(f, 3)
    best = np.linalg.norm(f - basis @ (basis.T @ f))
    for _ in range(20):
        other = rand_point(rng, 10, 3)
        residual = np.linalg.norm(f - other @ (other.T @ f))
        assert best <= residual + 1e-12


def test_subspace_from_vectors_errors():
    rng = np.random.default_rng(13)
    with pytest.raises(BadShapeError):
        subspace_from_vectors(rng.standard_normal((4, 3)), 3)
    rank1 = np.outer(rng.standard_normal(5), np.ones(4))
    with pytest.raises(RankDeficientError):
        subspace_from_vectors(rank1, 2)


@pytest.mark.parametrize("shape", [(10, 6), (4, 9)])
def test_subspace_from_vectors_tall_and_wide(shape):
    # n >= p and n < p take the same thin SVD
    rng = np.random.default_rng(shape)
    f = rng.standard_normal(shape)
    basis = subspace_from_vectors(f, 2)
    u = np.linalg.svd(f)[0][:, :2]
    np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(basis @ basis.T, u @ u.T, atol=1e-12)
    for c in range(2):
        assert basis[np.argmax(np.abs(basis[:, c])), c] > 0


def test_subspace_from_vectors_rejects_1d_input():
    with pytest.raises(BadShapeError):
        subspace_from_vectors(np.ones(5), 1)
