import numpy as np
import pytest

from manikernels.errors import (
    BadParamError,
    DimMismatchError,
    EmptySetError,
    FrameMismatchError,
    MalformedFileError,
    RectOutOfBoundsError,
    TooFewPixelsError,
    TooSmallError,
)
from manikernels.features import (
    candidate_grid,
    normalize_by_full_window,
    overlap_ratio,
    pedestrian_feature_maps,
    read_image,
    read_pgm,
    region_covariance,
    select_subwindows,
    texture_feature_maps,
)
from manikernels.matrixops import spd_log

from oracles import (
    dispersion_stat,
    karcher_mean_log_euclidean,
    region_covariance_all_products,
    structure_tensor_field,
    write_pgm,
)


def random_maps(rng, c=3, h=12, w=15):
    return rng.uniform(size=(c, h, w))


# ---------------------------------------------------------------------------
# feature maps
# ---------------------------------------------------------------------------

def test_pedestrian_constant_image():
    maps = pedestrian_feature_maps(np.full((5, 7), 3.0))
    assert maps.shape == (8, 5, 7)
    np.testing.assert_allclose(maps[2:7], 0.0, atol=1e-12)
    np.testing.assert_allclose(maps[0][2], np.arange(7.0))
    np.testing.assert_allclose(maps[1][:, 3], np.arange(5.0))


def test_pedestrian_ramp_image():
    h, w = 6, 8
    img = np.tile(np.arange(w, dtype=float), (h, 1))  # I(x, y) = x
    maps = pedestrian_feature_maps(img)
    np.testing.assert_allclose(maps[2][:, 1:-1], 1.0, atol=1e-12)  # |Ix|
    np.testing.assert_allclose(maps[3], 0.0, atol=1e-12)  # |Iy|


def test_pedestrian_magnitude_channel_pointwise():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(9, 11))
    maps = pedestrian_feature_maps(img)
    recomputed = np.sqrt(maps[2] ** 2 + maps[3] ** 2)
    np.testing.assert_allclose(maps[4], recomputed, atol=1e-12)


def test_pedestrian_angle_channel_bounded():
    rng = np.random.default_rng(1)
    maps = pedestrian_feature_maps(rng.uniform(size=(7, 7)))
    angle = maps[7]
    assert np.all(angle >= 0.0) and np.all(angle <= np.pi / 2 + 1e-12)


def test_texture_constant_image():
    maps = texture_feature_maps(np.full((4, 4), 2.5))
    assert maps.shape == (5, 4, 4)
    np.testing.assert_allclose(maps[0], 2.5)
    np.testing.assert_allclose(maps[1:], 0.0, atol=1e-12)


def test_texture_ramp_gradient():
    img = np.tile(np.arange(9, dtype=float), (5, 1))
    maps = texture_feature_maps(img)
    np.testing.assert_allclose(maps[1][:, 1:-1], 1.0, atol=1e-12)  # |Ix|


def test_texture_second_derivative_matches_stencil():
    rng = np.random.default_rng(2)
    img = rng.uniform(size=(8, 10))
    maps = texture_feature_maps(img)
    # interior |Ixx| via the 1, -2, 1 stencil
    expect = np.abs(img[:, 2:] - 2.0 * img[:, 1:-1] + img[:, :-2])
    np.testing.assert_allclose(maps[3][:, 1:-1], expect, atol=1e-12)


def loop_derivatives(img):
    """(Ix, Iy, Ixx, Iyy) pixel by pixel, a neighbour past a border being
    the border pixel itself."""
    h, w = img.shape
    ix, iy, ixx, iyy = (np.empty((h, w)) for _ in range(4))
    for r in range(h):
        for c in range(w):
            left, right = img[r, max(c - 1, 0)], img[r, min(c + 1, w - 1)]
            up, down = img[max(r - 1, 0), c], img[min(r + 1, h - 1), c]
            ix[r, c] = (right - left) / 2.0
            iy[r, c] = (down - up) / 2.0
            ixx[r, c] = right - 2.0 * img[r, c] + left
            iyy[r, c] = down - 2.0 * img[r, c] + up
    return ix, iy, ixx, iyy


@pytest.mark.parametrize("shape", [(7, 11), (12, 5), (3, 4)])
def test_feature_maps_equal_the_per_pixel_differences(shape):
    # bit for bit, borders included
    img = np.random.default_rng(list(shape)).uniform(0, 255, size=shape)
    ix, iy, ixx, iyy = loop_derivatives(img)
    ax, ay = np.abs(ix), np.abs(iy)
    rows, cols = shape
    xs = np.array([[float(c) for c in range(cols)] for _ in range(rows)])
    ys = np.array([[float(r)] * cols for r in range(rows)])
    angle = np.arctan(ax / np.maximum(ay, 1e-8))
    pedestrian = [xs, ys, ax, ay, np.sqrt(ix**2 + iy**2), np.abs(ixx), np.abs(iyy), angle]
    np.testing.assert_array_equal(pedestrian_feature_maps(img), pedestrian, strict=True)
    texture = [img, ax, ay, np.abs(ixx), np.abs(iyy)]
    np.testing.assert_array_equal(texture_feature_maps(img), texture, strict=True)


def test_feature_maps_too_small():
    with pytest.raises(TooSmallError):
        pedestrian_feature_maps(np.zeros((2, 5)))
    with pytest.raises(TooSmallError):
        texture_feature_maps(np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# region covariance
# ---------------------------------------------------------------------------

def test_region_covariance_constant_stack_is_epsilon_identity():
    cov = region_covariance(np.ones((3, 6, 6)), (0, 0, 6, 6), epsilon=1e-4)
    np.testing.assert_allclose(cov, 1e-4 * np.eye(3), atol=1e-12)


def test_region_covariance_correlated_channels():
    rng = np.random.default_rng(3)
    base = rng.uniform(size=(7, 9))
    cov = region_covariance(np.stack([base, 2.0 * base]), (0, 0, 9, 7), epsilon=1e-5)
    w = np.linalg.eigvalsh(cov)
    assert w[0] == pytest.approx(1e-5, rel=1e-6)


def test_region_covariance_matches_direct_summation():
    rng = np.random.default_rng(4)
    maps = random_maps(rng, c=4, h=14, w=17)
    for _ in range(50):
        w = int(rng.integers(3, 10))
        h = int(rng.integers(3, 9))
        x0 = int(rng.integers(0, maps.shape[2] - w + 1))
        y0 = int(rng.integers(0, maps.shape[1] - h + 1))
        cov = region_covariance(maps, (x0, y0, w, h), epsilon=1e-9)
        pixels = maps[:, y0 : y0 + h, x0 : x0 + w].reshape(maps.shape[0], -1)
        direct = np.cov(pixels, ddof=1) + 1e-9 * np.eye(maps.shape[0])
        assert np.linalg.norm(cov - direct) <= 1e-8 * max(1.0, np.linalg.norm(direct))


def test_region_covariance_errors():
    rng = np.random.default_rng(5)
    maps = random_maps(rng)
    with pytest.raises(RectOutOfBoundsError):
        region_covariance(maps, (10, 0, 10, 5))
    with pytest.raises(TooFewPixelsError):
        region_covariance(maps, (0, 0, 3, 1))


def _random_rects(rng, maps, count):
    rects = []
    for _ in range(count):
        w = int(rng.integers(3, maps.shape[2] + 1))
        h = int(rng.integers(3, maps.shape[1] + 1))
        x0 = int(rng.integers(0, maps.shape[2] - w + 1))
        y0 = int(rng.integers(0, maps.shape[1] - h + 1))
        rects.append((x0, y0, w, h))
    return np.array(rects)


def test_region_covariance_batch_equals_per_rect_calls():
    rng = np.random.default_rng(14)
    for c in (3, 8):
        maps = random_maps(rng, c=c, h=14, w=17)
        rects = _random_rects(rng, maps, 40)
        for epsilon in (None, 1e-3):
            batch = region_covariance(maps, rects, epsilon=epsilon)
            single = np.stack([region_covariance(maps, tuple(r), epsilon=epsilon) for r in rects])
            assert batch.shape == (40, c, c)
            assert np.array_equal(batch, single)


def test_region_covariance_batch_fails_on_any_bad_rect():
    rng = np.random.default_rng(15)
    maps = random_maps(rng)
    good = _random_rects(rng, maps, 5)
    for bad, error in [((10, 0, 10, 5), RectOutOfBoundsError), ((0, 0, 3, 1), TooFewPixelsError)]:
        for at in (0, 2, 5):
            rects = np.insert(good, at, bad, axis=0)
            with pytest.raises(error):
                region_covariance(maps, rects)


def _edge_rects(c, height, width):
    """Rectangles one pixel wide or high, each with at least c + 1
    pixels, at the corners and in the middle of the maps."""
    rects = []
    for x0 in (0, width // 2, width - 1):
        for y0 in (0, height - c - 1):
            rects.append((x0, y0, 1, c + 1))
    for y0 in (0, height // 2, height - 1):
        for x0 in (0, width - c - 1):
            rects.append((x0, y0, c + 1, 1))
    rects.append((0, 0, 1, height))
    rects.append((0, height - 1, width, 1))
    return np.array(rects)


@pytest.mark.parametrize("features", [pedestrian_feature_maps, texture_feature_maps])
@pytest.mark.parametrize("shape", [(128, 64), "random"])
def test_region_covariance_is_bitwise_the_all_products_formulation(features, shape):
    rng = np.random.default_rng(16 if shape == "random" else 17)
    shapes = [tuple(rng.integers(10, 90, size=2)) for _ in range(4)] if shape == "random" else [shape]
    for height, width in shapes:
        maps = features(rng.uniform(0, 255, (height, width)))
        c = len(maps)
        grid = candidate_grid(height, width)
        grid = grid[grid[:, 2] * grid[:, 3] > c]
        rect_sets = [grid, _random_rects(rng, maps, 30), _edge_rects(c, height, width),
                     grid[len(grid) // 2], (0, 0, width, height), (width - 1, 0, 1, height)]
        for rects in rect_sets:
            for epsilon in (None, 1e-3):
                got = region_covariance(maps, rects, epsilon=epsilon)
                expect = region_covariance_all_products(maps, rects, epsilon=epsilon)
                assert got.shape == expect.shape == np.shape(rects)[:-1] + (c, c)
                assert np.array_equal(got, expect)
                assert np.array_equal(got, np.swapaxes(got, -1, -2))


def test_normalize_by_full_window_preserves_spd():
    rng = np.random.default_rng(6)
    maps = random_maps(rng)
    full = region_covariance(maps, (0, 0, maps.shape[2], maps.shape[1]))
    sub = region_covariance(maps, (2, 3, 6, 5))
    normed = normalize_by_full_window(sub, full)
    assert np.all(np.linalg.eigvalsh(normed) > 0)
    scale = np.diag(1.0 / np.sqrt(np.diag(full)))
    np.testing.assert_allclose(normed, scale @ sub @ scale, atol=1e-12)


# ---------------------------------------------------------------------------
# subwindow selection
# ---------------------------------------------------------------------------

def test_candidate_grid_contains_full_window_and_respects_bounds():
    cands = candidate_grid(20, 30)
    assert cands.ndim == 2 and cands.shape[1] == 4 and cands.dtype.kind == "i"
    rects = {tuple(c) for c in cands.tolist()}
    assert (0, 0, 30, 20) in rects
    for x0, y0, w, h in rects:
        assert 0 <= x0 and 0 <= y0 and x0 + w <= 30 and y0 + h <= 20


def loop_candidate_grid(height, width):
    """Every (side, side) pair of 5 geometric steps from a fifth of each
    axis to all of it, sides at least 3, at strides of a quarter side
    plus the last offset that fits."""

    def sides(full):
        return sorted({max(3, int(round(v))) for v in np.geomspace(full / 5.0, full, 5)})

    def offsets(full, side):
        out, at = [], 0
        while at + side <= full:
            out.append(at)
            at += max(1, side // 4)
        if out[-1] != full - side:
            out.append(full - side)
        return out

    rects = []
    for sh in sides(height):
        for sw in sides(width):
            if sh <= height and sw <= width:
                for y0 in offsets(height, sh):
                    for x0 in offsets(width, sw):
                        rects.append([x0, y0, sw, sh])
    return rects


@pytest.mark.parametrize(
    # the benchmark's window, sides that round below 3, and axes too short for one
    "height, width", [(128, 64), (20, 30), (15, 14), (12, 7), (3, 3), (4, 9), (9, 4), (2, 8)]
)
def test_candidate_grid_equals_the_loop_reference(height, width):
    grid = candidate_grid(height, width)
    assert grid.dtype.kind == "i" and grid.shape == (grid.shape[0], 4)
    assert grid.tolist() == loop_candidate_grid(height, width)


def test_overlap_ratio():
    assert overlap_ratio((0, 0, 4, 4), (0, 0, 4, 4)) == 1.0
    assert overlap_ratio((0, 0, 4, 4), (4, 4, 4, 4)) == 0.0
    assert overlap_ratio((0, 0, 4, 4), (2, 0, 4, 4)) == pytest.approx(0.5)
    # measured against the smaller window
    assert overlap_ratio((0, 0, 8, 8), (0, 0, 2, 2)) == 1.0


def _descriptor(rng, scale=1.0):
    a = rng.standard_normal((3, 3)) * 0.2 * scale
    sym = (a + a.T) / 2.0
    w, u = np.linalg.eigh(sym)
    return (u * np.exp(w)) @ u.T  # SPD for any noise scale


def test_single_candidate_always_selected():
    rng = np.random.default_rng(7)
    cands = np.array([(0, 0, 4, 4)])
    descs = [[_descriptor(rng)] for _ in range(3)]
    idx, scores = select_subwindows(cands, descs, count=1, max_overlap=0.75)
    assert len(idx) == 1 and tuple(cands[idx[0]]) == (0, 0, 4, 4)
    assert scores.shape == (1,)


def test_fully_overlapping_candidates_pruned():
    rng = np.random.default_rng(8)
    cands = np.array([(0, 0, 4, 4), (0, 0, 4, 4)])
    descs = [[_descriptor(rng), _descriptor(rng, scale=3.0)] for _ in range(4)]
    idx, _ = select_subwindows(cands, descs, count=2, max_overlap=0.75)
    assert len(idx) == 1


def test_zero_dispersion_candidate_selected_first():
    rng = np.random.default_rng(9)
    constant = _descriptor(rng)
    cands = np.array([(0, 0, 4, 4), (10, 10, 4, 4)])
    descs = [[_descriptor(rng), constant] for _ in range(5)]
    idx, scores = select_subwindows(cands, descs, count=2, max_overlap=0.75)
    assert tuple(cands[idx[0]]) == (10, 10, 4, 4)
    assert scores[0] == pytest.approx(0.0, abs=1e-9)


def test_selection_scores_are_log_euclidean_dispersion():
    rng = np.random.default_rng(13)
    cands = np.array([(0, 0, 4, 4), (10, 10, 4, 4)])
    descs = [[_descriptor(rng), _descriptor(rng, scale=3.0)] for _ in range(6)]
    idx, scores = select_subwindows(cands, descs, count=2, max_overlap=0.75)
    assert len(idx) == 2
    for j, score in zip(idx, scores):
        column = [descs[i][j] for i in range(6)]
        want = dispersion_stat("log-euclidean", column, 1.0, karcher_mean_log_euclidean(column))
        assert score == pytest.approx(want, rel=1e-12)


def test_selection_scores_equal_the_per_candidate_formula():
    # one stacked log per sample gives bit for bit the scores of one
    # log per candidate over its column of samples; the 8 samples take
    # numpy's unrolled summation path for the mean of each column
    rng = np.random.default_rng(16)
    cands = np.array([(4 * k, 0, 4, 4) for k in range(40)])  # disjoint: all are taken
    descs = [np.stack([_descriptor(rng, scale=2.0) for _ in cands]) for _ in range(9)]
    idx, scores = select_subwindows(cands, descs[:8], count=len(cands), max_overlap=0.0)
    want = np.empty(len(cands))
    for j in range(len(cands)):
        logs = spd_log(np.stack([descs[i][j] for i in range(8)]))
        want[j] = np.mean(np.linalg.norm(logs - logs.mean(axis=0), axis=(1, 2)))
    assert np.array_equal(idx, np.argsort(want, kind="stable"))
    assert np.array_equal(scores, want[idx])


def test_selected_set_obeys_overlap_cap():
    rng = np.random.default_rng(10)
    cands = candidate_grid(16, 16)
    descs = [[_descriptor(rng) for _ in cands] for _ in range(3)]
    idx, _ = select_subwindows(cands, descs[:2], count=6, max_overlap=0.5)
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            assert overlap_ratio(cands[idx[i]], cands[idx[j]]) <= 0.5


def test_selection_deterministic():
    rng = np.random.default_rng(11)
    cands = candidate_grid(12, 12)
    descs = [[_descriptor(rng) for _ in cands] for _ in range(3)]
    a = select_subwindows(cands, descs, count=4, max_overlap=0.75)
    b = select_subwindows(cands, descs, count=4, max_overlap=0.75)
    assert cands[a[0]].tolist() == cands[b[0]].tolist()


def test_selection_errors():
    cands = np.array([(0, 0, 4, 4)])
    descs = [[np.eye(3)]]
    with pytest.raises(EmptySetError):
        select_subwindows(cands, [], count=1, max_overlap=0.5)
    with pytest.raises(BadParamError):
        select_subwindows(cands, descs, count=0, max_overlap=0.5)
    with pytest.raises(BadParamError):
        select_subwindows(cands, descs, count=1, max_overlap=1.0)
    with pytest.raises(DimMismatchError):
        select_subwindows(np.vstack([cands, cands]), descs, count=1, max_overlap=0.5)


# ---------------------------------------------------------------------------
# structure tensors (the oracle in tests/oracles.py; no command computes them)
# ---------------------------------------------------------------------------

def test_structure_tensor_constant_frames():
    frames = [np.full((6, 6), 2.0)] * 2
    field = structure_tensor_field(frames, smoothing_sigma=1.0, epsilon=1e-6)
    assert field.shape == (6, 6, 3, 3)
    np.testing.assert_allclose(field, np.broadcast_to(1e-6 * np.eye(3), (6, 6, 3, 3)), atol=1e-15)


def test_structure_tensor_brightness_step_rank_one():
    frames = [np.full((5, 5), 1.0), np.full((5, 5), 3.0)]
    field = structure_tensor_field(frames, smoothing_sigma=0.0, epsilon=0.0)
    for tensor in field.reshape(-1, 3, 3):
        w = np.linalg.eigvalsh(tensor)
        np.testing.assert_allclose(w[:2], 0.0, atol=1e-12)
        assert w[2] == pytest.approx(4.0)  # It = 2, tensor = diag(0, 0, 4)


def test_structure_tensor_psd_before_regularization():
    rng = np.random.default_rng(12)
    frames = [rng.uniform(size=(8, 9)) for _ in range(3)]
    field = structure_tensor_field(frames, smoothing_sigma=1.5, epsilon=0.0)
    for tensor in field.reshape(-1, 3, 3):
        assert np.linalg.eigvalsh(tensor)[0] >= -1e-10


def test_structure_tensor_frame_errors():
    with pytest.raises(FrameMismatchError):
        structure_tensor_field([np.zeros((4, 4))], 1.0)
    with pytest.raises(FrameMismatchError):
        structure_tensor_field([np.zeros((4, 4)), np.zeros((5, 4))], 1.0)
    with pytest.raises(FrameMismatchError):
        structure_tensor_field([np.zeros((4, 4))] * 4, 1.0)


# ---------------------------------------------------------------------------
# image IO
# ---------------------------------------------------------------------------

def test_pgm_ascii_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    img = rng.integers(0, 256, size=(5, 7)).astype(float)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    np.testing.assert_array_equal(back, img)


def test_pgm_binary_reader(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "img.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n# a comment\n4 3\n255\n")
        fh.write(img.tobytes())
    back = read_pgm(path)
    np.testing.assert_array_equal(back, img.astype(float))


def test_pgm_16bit_binary_reader(tmp_path):
    vals = np.array([[0, 300], [65535, 1024]], dtype=">u2")
    path = tmp_path / "deep.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n2 2\n65535\n")
        fh.write(vals.tobytes())
    back = read_pgm(path)
    np.testing.assert_array_equal(back, vals.astype(float))


def test_pgm_comments_between_tokens(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(
        b"P2 # ascii\n3\t# width\n2\n#maxval\r\n255\n"
        b"1 2 3 # first row\n# a line of its own\n4\n5 6"
    )
    np.testing.assert_array_equal(read_pgm(path), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    # one whitespace byte ends a P5 header, so the raster may start with
    # bytes that read as whitespace or as a comment
    raster = np.array([[32, 35, 10], [9, 0, 255]], dtype=np.uint8)
    path.write_bytes(b"P5\n# binary\n3 # width\n# height\n2\n255\n" + raster.tobytes())
    np.testing.assert_array_equal(read_pgm(path), raster.astype(float))


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"P2\n3#c 2\n255\n1 2 3 4 5 6\n", "invalid literal"),
        (b"P2\n3 2\n255\n1 2 3 4 5#c 6\n", "invalid literal"),
        (b"P5\n4 4\n255\n" + bytes(5), "PGM raster holds 5 values, expected 16"),
        (b"P5\n2 2\n65535\n" + bytes(5), "PGM raster holds 2 values, expected 4"),
        (b"P2\n3 2\n255\n1 2 3 4 5\n", "PGM raster holds 5 values, expected 6"),
        # -2 x -3 holds as many values as the raster
        (b"P2\n-2 -3\n255\n1 2 3 4 5 6\n", "PGM size -2 x -3 or maxval 255 invalid"),
        (b"P5\n0 4\n255\n", "PGM size 0 x 4 or maxval 255 invalid"),
        (b"P2\n2 2\n0\n0 0 0 0\n", "PGM size 2 x 2 or maxval 0 invalid"),
        (b"P5\n2 2\n65536\n" + bytes(8), "PGM size 2 x 2 or maxval 65536 invalid"),
        (b"P2\n3 3\n255\n1 2 3 4 999 6 7 8 9\n", "PGM raster value 999 outside"),
        (b"P2\n2 2\n255\n1 -5 3 4\n", "PGM raster value -5 outside"),
        (b"P2\n2 2\n255\n1 2 3 " + b"9" * 400 + b"\n", "too large to convert to float"),
        (b"P5\n2 2\n100\n" + bytes([0, 1, 200, 3]), "PGM raster value 200 outside"),
        (b"P5\n2 2\n1000\n" + bytes([0, 1, 0, 2, 255, 255, 3, 232]),
         "PGM raster value 65535 outside"),
    ],
    ids=["comment-glued-to-header-token", "comment-glued-to-raster-token", "short-8-bit-P5",
         "short-16-bit-P5", "short-P2", "negative-size-P2", "zero-width-P5", "maxval-0",
         "maxval-65536", "P2-value-above-maxval", "negative-P2-value", "P2-value-beyond-float",
         "8-bit-P5-value-above-maxval", "16-bit-P5-value-above-maxval"],
)
def test_malformed_pgm_rasters(tmp_path, raw, message):
    path = tmp_path / "img.pgm"
    path.write_bytes(raw)
    with pytest.raises(MalformedFileError, match=message):
        read_pgm(path)


def test_read_image_csv(tmp_path):
    path = tmp_path / "img.csv"
    with open(path, "w") as fh:
        fh.write("1.0,2.0\n3.0,4.0\n")
    np.testing.assert_array_equal(read_image(path), [[1.0, 2.0], [3.0, 4.0]])
