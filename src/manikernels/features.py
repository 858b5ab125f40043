"""Image-to-SPD descriptor extraction.

Pixel feature maps, integral-image region covariance, dispersion-ranked
subwindow selection, and image readers. Images are 2-d float arrays and
feature maps (c, h, w) arrays, one plane per channel; rectangles are
(x0, y0, w, h) with x along columns, one rectangle or an (R, 4) array
of them.
"""

from __future__ import annotations

import itertools

import numpy as np

from .data import load_matrix_csv, parse_errors
from .errors import (
    BadParamError,
    BadShapeError,
    DimMismatchError,
    EmptySetError,
    MalformedFileError,
    RectOutOfBoundsError,
    TooFewPixelsError,
    TooSmallError,
)
from .matrixops import frob, spd_log

DERIV_EPS = 1e-8

def _dx(img):
    p = np.pad(img, ((0, 0), (1, 1)), mode="edge")
    return (p[:, 2:] - p[:, :-2]) / 2.0


def _dy(img):
    p = np.pad(img, ((1, 1), (0, 0)), mode="edge")
    return (p[2:, :] - p[:-2, :]) / 2.0


def _dxx(img):
    p = np.pad(img, ((0, 0), (1, 1)), mode="edge")
    return p[:, 2:] - 2.0 * p[:, 1:-1] + p[:, :-2]


def _dyy(img):
    p = np.pad(img, ((1, 1), (0, 0)), mode="edge")
    return p[2:, :] - 2.0 * p[1:-1, :] + p[:-2, :]


def _as_image(image) -> np.ndarray:
    img = np.asarray(image, dtype=float)
    if img.ndim != 2 or img.shape[0] < 3 or img.shape[1] < 3:
        raise TooSmallError(f"need a grayscale image of at least 3 x 3, got shape {img.shape}")
    return img


def pedestrian_feature_maps(image) -> np.ndarray:
    """8-channel (c, h, w) maps [x, y, |Ix|, |Iy|, sqrt(Ix^2+Iy^2), |Ixx|, |Iyy|,
    arctan(|Ix|/|Iy|)], derivatives by central differences with replicated
    borders. The angle channel floors |Iy| at DERIV_EPS."""
    img = _as_image(image)
    h, w = img.shape
    ix, iy = _dx(img), _dy(img)
    ixx, iyy = _dxx(img), _dyy(img)
    xs = np.tile(np.arange(w, dtype=float), (h, 1))
    ys = np.tile(np.arange(h, dtype=float)[:, None], (1, w))
    return np.stack(
        [
            xs,
            ys,
            np.abs(ix),
            np.abs(iy),
            np.sqrt(ix**2 + iy**2),
            np.abs(ixx),
            np.abs(iyy),
            np.arctan(np.abs(ix) / np.maximum(np.abs(iy), DERIV_EPS)),
        ]
    )


def texture_feature_maps(image) -> np.ndarray:
    """5-channel (c, h, w) maps [I, |Ix|, |Iy|, |Ixx|, |Iyy|]."""
    img = _as_image(image)
    return np.stack(
        [img, np.abs(_dx(img)), np.abs(_dy(img)), np.abs(_dxx(img)), np.abs(_dyy(img))]
    )


# ---------------------------------------------------------------------------
# Region covariance via integral images
# ---------------------------------------------------------------------------

def integral_images(maps):
    """First- and second-order integral images of (c, h, w) feature maps.

    Zero-padded so a rectangle sum is a four-corner combination.
    """
    ch = np.asarray(maps, dtype=float)
    c, h, w = ch.shape
    s1 = np.zeros((c, h + 1, w + 1))
    s1[:, 1:, 1:] = ch.cumsum(axis=1).cumsum(axis=2)
    prods = ch[:, None, :, :] * ch[None, :, :, :]
    s2 = np.zeros((c, c, h + 1, w + 1))
    s2[:, :, 1:, 1:] = prods.cumsum(axis=2).cumsum(axis=3)
    return s1, s2


def region_covariance(maps, rects, epsilon: float | None = None) -> np.ndarray:
    """Sample covariance of the per-pixel feature vectors of the (c, h, w)
    feature maps ``maps`` in each rectangle, regularized by
    ``epsilon * I`` (default 1e-6 * (trace + 1), per rectangle).

    ``rects`` is one (x0, y0, w, h) rectangle, giving one (c, c) matrix,
    or an (R, 4) array, giving an (R, c, c) stack. All rectangles come
    from one pair of integral images by four-corner sums. The result is
    not checked against the SPD floor: the code that decomposes it is.
    """
    if epsilon is not None and not 0 < epsilon < np.inf:
        raise BadParamError(f"epsilon must be positive and finite, got {epsilon}")
    c, height, width = np.shape(maps)
    rects = np.asarray(rects)
    if rects.ndim not in (1, 2) or rects.shape[-1] != 4:
        raise BadShapeError(f"expected one rect or an (R, 4) array, got shape {rects.shape}")
    batch = np.atleast_2d(rects)
    x0, y0, w, h = batch.astype(int).T
    outside = (w < 1) | (h < 1) | (x0 < 0) | (y0 < 0)
    outside |= (x0 + w > width) | (y0 + h > height)
    if np.any(outside):
        bad = tuple(batch[np.argmax(outside)].tolist())
        raise RectOutOfBoundsError(f"rect {bad} outside {height} x {width} maps")
    n = w * h
    if np.any(n < c + 1):
        raise TooFewPixelsError(f"rect area {np.min(n)} below {c + 1} for {c} channels")
    s1, s2 = integral_images(maps)
    ya, yb, xa, xb = y0, y0 + h, x0, x0 + w
    sums = (s1[:, yb, xb] - s1[:, ya, xb] - s1[:, yb, xa] + s1[:, ya, xa]).T
    quads = s2[:, :, yb, xb] - s2[:, :, ya, xb] - s2[:, :, yb, xa] + s2[:, :, ya, xa]
    quads = np.moveaxis(quads, -1, 0)
    cov = (quads - sums[:, :, None] * sums[:, None, :] / n[:, None, None]) / (n - 1)[:, None, None]
    cov = (cov + np.swapaxes(cov, -1, -2)) / 2.0
    if epsilon is None:
        epsilon = 1e-6 * (np.trace(cov, axis1=-2, axis2=-1) + 1.0)
    covs = cov + np.multiply.outer(epsilon, np.eye(c))
    return covs[0] if rects.ndim == 1 else covs


def normalize_by_full_window(cov_sub, cov_full) -> np.ndarray:
    """Rescale a subwindow covariance by the full-window channel scales:
    diag(C_full)^{-1/2} C_sub diag(C_full)^{-1/2}. A diagonal congruence,
    so SPD-ness is preserved."""
    cov_sub = np.asarray(cov_sub, dtype=float)
    scale = 1.0 / np.sqrt(np.maximum(np.diag(np.asarray(cov_full, dtype=float)), 1e-300))
    return cov_sub * np.outer(scale, scale)


# ---------------------------------------------------------------------------
# Subwindow candidates and selection
# ---------------------------------------------------------------------------

def candidate_grid(height: int, width: int) -> np.ndarray:
    """Candidate subwindows as an (R, 4) int array of (x0, y0, w, h) rows,
    with sides of at least 3 in 5 geometric steps from (h/5, w/5) up to
    the full window, placed at strides of a quarter of the subwindow side."""
    heights = sorted({max(3, int(round(v))) for v in np.geomspace(height / 5.0, height, 5)})
    widths = sorted({max(3, int(round(v))) for v in np.geomspace(width / 5.0, width, 5)})
    rects = []
    for sh in heights:
        if sh > height:
            continue
        for sw in widths:
            if sw > width:
                continue
            step_y = max(1, sh // 4)
            step_x = max(1, sw // 4)
            ys = list(range(0, height - sh + 1, step_y))
            if ys[-1] != height - sh:
                ys.append(height - sh)
            xs = list(range(0, width - sw + 1, step_x))
            if xs[-1] != width - sw:
                xs.append(width - sw)
            rects += [(x0, y0, sw, sh) for y0 in ys for x0 in xs]
    return np.array(rects, dtype=int).reshape(-1, 4)


def overlap_ratio(rect_a, rect_b) -> float:
    """Intersection area over the smaller rectangle's area."""
    ax, ay, aw, ah = rect_a
    bx, by, bw, bh = rect_b
    ix = max(0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    return inter / min(aw * ah, bw * bh)


def select_subwindows(candidates, descriptors, count: int, max_overlap: float):
    """Greedy low-dispersion subwindow selection.

    ``candidates`` is an (R, 4) array of rectangles, and ``descriptors[i]``
    the (R, c, c) stack of SPD descriptors of the candidates in positive
    sample ``i``. Each candidate is scored by the mean distance (p = 1,
    log-Euclidean) of the samples' descriptors to their Karcher mean;
    candidates are taken in ascending score order, skipping any
    overlapping an already-selected one by more than ``max_overlap``.
    Returns the indices of the selected candidates and their scores.
    """
    if count < 1:
        raise BadParamError("count must be >= 1")
    if not 0.0 <= max_overlap < 1.0:
        raise BadParamError(f"max_overlap must be in [0, 1), got {max_overlap}")
    if not len(descriptors):
        raise EmptySetError("subwindow ranking needs at least one sample")
    rects = np.asarray(candidates).tolist()
    # the log of the log-Euclidean mean exp(mean L) is mean L, so one log
    # per descriptor gives the distances to the mean
    logs = [spd_log(covs) for covs in descriptors]
    if any(len(log) != len(rects) for log in logs):
        raise DimMismatchError(f"each sample needs one descriptor per candidate ({len(rects)})")
    mean = sum(logs[1:], logs[0]) / len(logs)
    # each candidate's S distances form one contiguous row of an (R, S)
    # array, so its mean adds them in the order a per-candidate mean does
    scores = np.stack([frob(log - mean) for log in logs], axis=1).mean(axis=1)
    chosen = []
    for j in np.argsort(scores, kind="stable"):
        if all(overlap_ratio(rects[j], rects[k]) <= max_overlap for k in chosen):
            chosen.append(j)
            if len(chosen) == count:
                break
    chosen = np.array(chosen, dtype=int)
    return chosen, scores[chosen]


# ---------------------------------------------------------------------------
# Image file readers
# ---------------------------------------------------------------------------

def read_pgm(path) -> np.ndarray:
    """P2 (ascii) or P5 (binary) PGM as a float array."""
    with open(path, "rb") as fh:
        data = fh.read()

    def tokens(buf):
        i = 0
        while i < len(buf):
            if buf[i : i + 1].isspace():
                i += 1
                continue
            if buf[i : i + 1] == b"#":
                j = buf.find(b"\n", i)
                i = len(buf) if j < 0 else j + 1
                continue
            j = i
            while j < len(buf) and not buf[j : j + 1].isspace():
                j += 1
            yield buf[i:j], j
            i = j

    gen = tokens(data)
    magic, _ = next(gen, (b"", 0))
    if magic not in (b"P2", b"P5"):
        raise MalformedFileError(f"{path}: not a P2/P5 PGM file: magic {magic!r}")
    header = list(itertools.islice(gen, 3))
    if len(header) < 3:
        raise MalformedFileError(f"{path}: truncated PGM header")
    (w_tok, _), (h_tok, _), (max_tok, end) = header
    with parse_errors(path):
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
        if magic == b"P2":
            arr = np.array([int(tok) for tok, _ in gen], dtype=float)
        else:
            dtype = np.dtype(">u2") if maxval > 255 else np.uint8
            raster = data[end + 1 :]
            arr = np.frombuffer(raster, dtype=dtype, count=width * height).astype(float)
    if arr.size != width * height:
        raise MalformedFileError(
            f"{path}: PGM raster holds {arr.size} values, expected {width * height}"
        )
    return arr.reshape(height, width)


def read_image(path) -> np.ndarray:
    """PGM by extension, otherwise a CSV matrix of pixel values."""
    text = str(path)
    if text.lower().endswith(".pgm"):
        return read_pgm(path)
    return load_matrix_csv(path)
