import numpy as np
import pytest

from manikernels.errors import (
    BadShapeError,
    NonSymmetricError,
    NotSpdError,
    ZeroExponentError,
)
from manikernels.matrixops import (
    cholesky_lower,
    require_symmetric,
    spd_exp,
    spd_floor,
    spd_log,
    spd_power,
)
from manikernels.spd import make_spd

from oracles import ClampWarning, spd_inv_sqrt


def rand_sym(rng, d):
    a = rng.standard_normal((d, d))
    return (a + a.T) / 2.0


def rand_spd(rng, d, lo=0.5, hi=2.0):
    # explicit spectral construction, independent of the library's samplers
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = rng.uniform(lo, hi, size=d)
    return (q * w) @ q.T


# Each function of the SPD contract, on one matrix or an (..., d, d) stack.
STACKED = {
    "require_symmetric": require_symmetric,
    "spd_floor": spd_floor,
    "spd_log": spd_log,
    "spd_exp": spd_exp,
    "spd_power": lambda s: spd_power(s, 0.3),
    "spd_inv_sqrt": spd_inv_sqrt,
    "cholesky_lower": cholesky_lower,
    "make_spd": make_spd,
}


@pytest.mark.parametrize("name", sorted(STACKED))
@pytest.mark.parametrize("d", [1, 3, 5, 8])
def test_stacked_call_equals_item_loop(name, d):
    rng = np.random.default_rng(d)
    fn = STACKED[name]
    stack = np.stack([rand_spd(rng, d, lo=0.1, hi=9.0) for _ in range(12)])
    want = np.array([fn(s) for s in stack])
    assert np.array_equal(fn(stack), want)
    nested = fn(stack.reshape(3, 4, d, d))
    assert np.array_equal(nested, want.reshape(3, 4, *want.shape[1:]))


def _with_item(item):
    stack = np.stack([np.eye(3), 2.0 * np.eye(3), 3.0 * np.eye(3)])
    stack[1] = item
    return stack


@pytest.mark.parametrize("name", sorted(set(STACKED) - {"spd_floor"}))
def test_one_asymmetric_item_fails_the_stack(name):
    item = np.eye(3)
    item[0, 2] = 1e-3
    for arg in (item, _with_item(item)):
        with pytest.raises(NonSymmetricError):
            STACKED[name](arg)


# A zero or negative eigenvalue fails every check; a tiny positive one
# passes Cholesky, and only the eigenvalue floor catches it.
BELOW_FLOOR = [
    (name, item)
    for name in ("spd_log", "spd_power", "cholesky_lower", "make_spd")
    for item in (np.diag([1.0, 1.0, 0.0]), -np.eye(3))
] + [(name, np.diag([1.0, 1e-14, 1.0])) for name in ("spd_log", "spd_power", "make_spd")]


@pytest.mark.parametrize("name, item", BELOW_FLOOR)
def test_one_item_below_the_floor_fails_the_stack(name, item):
    for arg in (item, _with_item(item)):
        with pytest.raises(NotSpdError):
            STACKED[name](arg)


def test_inv_sqrt_stack_clamps_and_rejects_like_its_items():
    roundoff = np.diag([1.0, 1.0, 0.0])
    for arg in (roundoff, _with_item(roundoff)):
        with pytest.warns(ClampWarning):
            out = spd_inv_sqrt(arg)
        assert np.all(np.isfinite(out))
    negative = np.diag([1.0, 1.0, -1.0])
    for arg in (negative, _with_item(negative)):
        with pytest.raises(NotSpdError):
            spd_inv_sqrt(arg)


@pytest.mark.parametrize("name", sorted(set(STACKED) - {"spd_floor"}))
def test_non_square_input_rejected(name):
    for arg in (np.ones(3), np.ones((2, 3)), np.ones((4, 3, 2))):
        with pytest.raises(BadShapeError):
            STACKED[name](arg)


def test_spd_log_identity_and_diagonal():
    np.testing.assert_allclose(spd_log(np.eye(4)), np.zeros((4, 4)), atol=1e-14)
    out = spd_log(np.diag([np.e, np.e**2]))
    np.testing.assert_allclose(out, np.diag([1.0, 2.0]), atol=1e-12)


def test_spd_log_exp_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(5):
        s = rand_spd(rng, 4)
        back = spd_exp(spd_log(s))
        assert np.linalg.norm(back - s) <= 1e-9 * np.linalg.norm(s)


def test_spd_exp_zero_and_diag():
    np.testing.assert_allclose(spd_exp(np.zeros((3, 3))), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        spd_exp(np.diag([1.0, 2.0])), np.diag([np.e, np.e**2]), rtol=1e-12
    )


def test_spd_exp_output_is_spd():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rand_sym(rng, 4)
        w = np.linalg.eigvalsh(spd_exp(a))
        assert np.all(w > 0)


def test_log_exp_identity_on_symmetric():
    rng = np.random.default_rng(3)
    for d in (2, 5, 16):
        a = rand_sym(rng, d)
        back = spd_log(spd_exp(a))
        assert np.linalg.norm(back - a) <= 1e-8 * max(1.0, np.linalg.norm(a))


def test_spd_log_rejects_non_spd():
    with pytest.raises(NotSpdError):
        spd_log(np.diag([1.0, -1.0]))
    with pytest.raises(NotSpdError):
        spd_log(np.diag([1.0, 0.0]))


def test_spd_power_basics():
    np.testing.assert_allclose(spd_power(np.eye(3), 0.5), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        spd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-12
    )


def test_spd_power_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(5):
        s = rand_spd(rng, 4)
        back = spd_power(spd_power(s, 0.5), 2.0)
        assert np.linalg.norm(back - s) <= 1e-9 * np.linalg.norm(s)


def test_spd_power_zero_exponent():
    with pytest.raises(ZeroExponentError):
        spd_power(np.eye(2), 0.0)


def test_spd_inv_sqrt():
    rng = np.random.default_rng(5)
    s = rand_spd(rng, 4)
    r = spd_inv_sqrt(s)
    np.testing.assert_allclose(r @ s @ r, np.eye(4), atol=1e-10)


def test_cholesky_basics():
    np.testing.assert_allclose(cholesky_lower(np.eye(3)), np.eye(3))
    np.testing.assert_allclose(
        cholesky_lower(np.diag([4.0, 9.0])), np.diag([2.0, 3.0])
    )


def test_cholesky_reconstruction_and_positive_diag():
    rng = np.random.default_rng(6)
    for _ in range(5):
        s = rand_spd(rng, 6)
        length = cholesky_lower(s)
        assert np.all(np.diag(length) > 0)
        assert np.linalg.norm(length @ length.T - s) <= 1e-10 * np.linalg.norm(s)


def test_cholesky_pivot_failure():
    with pytest.raises(NotSpdError):
        cholesky_lower(np.diag([1.0, -2.0]))
