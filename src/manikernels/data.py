"""Dataset files, the output writers, and seeded synthetic generators.

Matrix-list datasets are JSON with explicit shape metadata so SPD sets,
Grassmann bases and vector sets can't be silently transposed; flat
matrices use CSV with `#` comment headers. Every JSON and CSV file the
package writes goes through :func:`save_json` or :func:`save_matrix_csv`,
and a file that does not parse raises MalformedFileError.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import numpy as np

from .errors import (
    BadParamError,
    BadShapeError,
    DimMismatchError,
    EmptySetError,
    MalformedFileError,
    NonFiniteError,
)
from .grassmann import make_grassmann
from .matrixops import spd_exp

DATASET_KINDS = ("spd", "grassmann", "vectors")


@contextmanager
def parse_errors(path):
    """Raise what goes wrong while parsing the file ``path`` in the block
    (bad JSON or number, a missing key, a value of the wrong type) as a
    MalformedFileError that names the file."""
    try:
        yield
    except KeyError as exc:
        raise MalformedFileError(f"{path}: missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc


def save_json(path, payload) -> None:
    """Write ``payload`` as JSON with indent 1, sorted keys and a trailing
    newline to ``path``, or to stdout when ``path`` is ``-``."""
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def save_dataset(path, kind: str, items, labels=None, provenance: dict | None = None) -> None:
    """Write a list of same-shape arrays (plus optional integer labels)."""
    if kind not in DATASET_KINDS:
        raise BadParamError(f"unknown dataset kind {kind!r}")
    arrays = [np.asarray(x, dtype=float) for x in items]
    if not arrays:
        raise BadParamError("dataset needs at least one item")
    shape = arrays[0].shape
    for a in arrays:
        if a.shape != shape:
            raise DimMismatchError(f"inhomogeneous item shapes: {a.shape} vs {shape}")
    payload = {
        "kind": kind,
        "count": len(arrays),
        "shape": list(shape),
        "items": [a.tolist() for a in arrays],
    }
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (len(arrays),):
            raise DimMismatchError(f"labels shape {labels.shape} != ({len(arrays)},)")
        payload["labels"] = [int(v) for v in labels]
    if provenance is not None:
        payload["provenance"] = provenance
    save_json(path, payload)


def load_dataset(path) -> dict:
    """Read a dataset written by :func:`save_dataset`.

    Returns a dict with ``kind``, ``items`` (a non-empty list of float
    arrays of one shape) and ``labels`` (int array or None). Items holding
    NaN or infinite values are rejected, and so is a file that does not
    parse as a dataset (MalformedFileError).
    """
    with parse_errors(path):
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise MalformedFileError(f"{path}: not a JSON object")
        kind = payload.get("kind")
        if kind not in DATASET_KINDS:
            raise BadParamError(f"unknown dataset kind {kind!r} in {path}")
        shape = tuple(payload["shape"])
        items = [np.asarray(x, dtype=float) for x in payload["items"]]
        if not items:
            raise EmptySetError(f"{path} holds no items")
        for index, a in enumerate(items):
            if a.shape != shape:
                raise BadShapeError(f"item shape {a.shape} contradicts metadata {shape}")
            if not np.all(np.isfinite(a)):
                raise NonFiniteError(f"item {index} in {path} holds a NaN or infinite value")
        labels = payload.get("labels")
        if labels is not None:
            labels = np.asarray(labels, dtype=int)
            if labels.shape != (len(items),):
                raise DimMismatchError("labels length does not match item count")
    return {"kind": kind, "items": items, "labels": labels}


def save_matrix_csv(path, matrix, header_lines=()) -> None:
    """Matrix rows as comma-separated ``repr`` floats after ``# `` header lines."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [f"# {line}" for line in header_lines]
    for row in mat:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    """Numeric CSV with ``#`` comment lines as a 2-d float array."""
    with parse_errors(path):
        return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def _sym(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    return (a + a.T) / 2.0


def synth_spd_blobs(
    n_clusters: int,
    per_cluster: int,
    dim: int,
    seed: int = 0,
    center_scale: float = 1.0,
    noise_scale: float = 0.3,
):
    """Gaussian blobs in log-space: cluster c draws exp(M_c + noise).

    Returns (points, labels); labels follow generation order.
    """
    if n_clusters < 1 or per_cluster < 1 or dim < 1:
        raise BadParamError("n_clusters, per_cluster and dim must be positive")
    rng = np.random.default_rng(seed)
    centers = [center_scale * _sym(rng, dim) for _ in range(n_clusters)]
    points, labels = [], []
    for c, center in enumerate(centers):
        for _ in range(per_cluster):
            points.append(spd_exp(center + noise_scale * _sym(rng, dim)))
            labels.append(c)
    return points, np.array(labels, dtype=int)


def synth_grassmann_clusters(
    n_clusters: int,
    per_cluster: int,
    ambient_dim: int,
    subspace_dim: int,
    seed: int = 0,
    noise_scale: float = 0.1,
):
    """Clusters of nearby subspaces: orthonormalized jitters of random bases."""
    if n_clusters < 1 or per_cluster < 1:
        raise BadParamError("n_clusters and per_cluster must be positive")
    if not 1 <= subspace_dim < ambient_dim:
        raise BadParamError(f"need 1 <= r < n, got r={subspace_dim}, n={ambient_dim}")
    rng = np.random.default_rng(seed)
    centers = [rng.standard_normal((ambient_dim, subspace_dim)) for _ in range(n_clusters)]
    points, labels = [], []
    for c, center in enumerate(centers):
        for _ in range(per_cluster):
            raw = center + noise_scale * rng.standard_normal(center.shape)
            points.append(make_grassmann(raw))
            labels.append(c)
    return points, np.array(labels, dtype=int)
