"""Image-to-SPD descriptor extraction.

Pixel feature maps, integral-image region covariance, dispersion-ranked
subwindow selection, and image readers. Images are 2-d float arrays and
feature maps (c, h, w) arrays, one plane per channel; rectangles are
(x0, y0, w, h) with x along columns, one rectangle or an (R, 4) array
of them.
"""

from __future__ import annotations

import itertools
import re

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


def _derivatives(img):
    """(Ix, Iy, Ixx, Iyy) of an image by central differences, from one
    edge-padded copy per axis, so borders are replicated."""
    px = np.pad(img, ((0, 0), (1, 1)), mode="edge")
    py = np.pad(img, ((1, 1), (0, 0)), mode="edge")
    ix = (px[:, 2:] - px[:, :-2]) / 2.0
    iy = (py[2:] - py[:-2]) / 2.0
    ixx = px[:, 2:] - 2.0 * img + px[:, :-2]
    iyy = py[2:] - 2.0 * img + py[:-2]
    return ix, iy, ixx, iyy


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
    ix, iy, ixx, iyy = _derivatives(img)
    ys, xs = np.indices(img.shape, dtype=float)
    ax, ay = np.abs(ix), np.abs(iy)
    angle = np.arctan(ax / np.maximum(ay, DERIV_EPS))
    return np.stack([xs, ys, ax, ay, np.sqrt(ix**2 + iy**2), np.abs(ixx), np.abs(iyy), angle])


def texture_feature_maps(image) -> np.ndarray:
    """5-channel (c, h, w) maps [I, |Ix|, |Iy|, |Ixx|, |Iyy|]."""
    img = _as_image(image)
    return np.stack([img, *map(np.abs, _derivatives(img))])


# ---------------------------------------------------------------------------
# Region covariance via integral images
# ---------------------------------------------------------------------------

def region_covariance(maps, rects, epsilon: float | None = None) -> np.ndarray:
    """Sample covariance of the per-pixel feature vectors of the (c, h, w)
    feature maps ``maps`` in each rectangle, regularized by
    ``epsilon * I`` (default 1e-6 * (trace + 1), per rectangle).

    ``rects`` is one (x0, y0, w, h) rectangle, giving one (c, c) matrix,
    or an (R, 4) array, giving an (R, c, c) stack. All rectangles come
    from one zero-padded integral image of the c channels and their
    c(c+1)/2 distinct products by four-corner sums, so every matrix is
    exactly symmetric. The result is not checked against the SPD floor:
    the code that decomposes it is.
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
    ch = np.asarray(maps, dtype=float)
    iu, ju = np.triu_indices(c)
    planes = np.zeros((c + len(iu), height + 1, width + 1))
    inner = planes[:, 1:, 1:]
    inner[:c] = ch
    np.multiply(ch[iu], ch[ju], out=inner[c:])
    np.cumsum(inner, axis=1, out=inner)
    np.cumsum(inner, axis=2, out=inner)
    ya, yb, xa, xb = y0, y0 + h, x0, x0 + w
    corner = (planes[:, yb, xb] - planes[:, ya, xb] - planes[:, yb, xa] + planes[:, ya, xa]).T
    sums = corner[:, :c]
    upper = (corner[:, c:] - sums[:, iu] * sums[:, ju] / n[:, None]) / (n - 1)[:, None]
    cov = np.empty((len(n), c, c))
    cov[:, iu, ju] = upper
    cov[:, ju, iu] = upper
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

def _window_offsets(full: int) -> dict:
    """Window sides along an axis of length ``full``, at least 3 and at
    most ``full``, in 5 geometric steps from full/5 up to full, each
    mapped to its offsets: strides of a quarter of the side, plus the
    last offset that fits."""
    sides = sorted({max(3, int(round(v))) for v in np.geomspace(full / 5.0, full, 5)})
    return {s: [*range(0, full - s, max(1, s // 4)), full - s] for s in sides if s <= full}


def candidate_grid(height: int, width: int) -> np.ndarray:
    """Candidate subwindows as an (R, 4) int array of (x0, y0, w, h) rows:
    every pair of a row side and a column side of :func:`_window_offsets`,
    at each of their offsets."""
    rows, cols = _window_offsets(height), _window_offsets(width)
    rects = [
        (x0, y0, sw, sh)
        for sh, ys in rows.items()
        for sw, xs in cols.items()
        for y0 in ys
        for x0 in xs
    ]
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

# a comment, with group 1 unset, or a header or P2 raster token
_PGM_TOKEN = re.compile(rb"#[^\n]*|(\S+)")


def read_pgm(path) -> np.ndarray:
    """P2 (ascii) or P5 (binary) PGM as a float array. A ``#`` that
    starts a token starts a comment, which runs to the end of its line.
    The width and height must be at least 1, the maxval in [1, 65535],
    and every raster value in [0, maxval]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = (m for m in _PGM_TOKEN.finditer(data) if m.group(1))
    header = list(itertools.islice(tokens, 4))
    magic = header[0].group() if header else b""
    if magic not in (b"P2", b"P5"):
        raise MalformedFileError(f"{path}: not a P2/P5 PGM file: magic {magic!r}")
    if len(header) < 4:
        raise MalformedFileError(f"{path}: truncated PGM header")
    with parse_errors(path):
        width, height, maxval = (int(m.group()) for m in header[1:])
        if width < 1 or height < 1 or not 0 < maxval < 65536:
            raise MalformedFileError(f"{path}: PGM size {width} x {height} or maxval {maxval} invalid")
        size = width * height
        if magic == b"P2":
            arr = np.array([int(m.group()) for m in tokens], dtype=float)
        else:
            # one whitespace byte ends the header
            raster = data[header[3].end() + 1 :]
            dtype = np.dtype(">u2" if maxval > 255 else "u1")
            count = min(size, len(raster) // dtype.itemsize)
            arr = np.frombuffer(raster, dtype=dtype, count=count).astype(float)
    if arr.size != size:
        raise MalformedFileError(f"{path}: PGM raster holds {arr.size} values, expected {size}")
    outside = (arr < 0) | (arr > maxval)
    if outside.any():
        raise MalformedFileError(f"{path}: PGM raster value {arr[outside][0]:g} outside [0, {maxval}]")
    return arr.reshape(height, width)


def read_image(path) -> np.ndarray:
    """PGM by extension, otherwise a CSV matrix of pixel values."""
    text = str(path)
    if text.lower().endswith(".pgm"):
        return read_pgm(path)
    return load_matrix_csv(path)
