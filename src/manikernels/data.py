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
from dataclasses import fields, is_dataclass
from itertools import chain

import numpy as np

from .errors import (
    BadParamError,
    BadShapeError,
    DimMismatchError,
    EmptySetError,
    MalformedFileError,
    NonFiniteError,
    UsageError,
)
from .grassmann import make_grassmann
from .matrixops import spd_exp

DATASET_KINDS = ("spd", "grassmann", "vectors")


@contextmanager
def parse_errors(path):
    """Raise what goes wrong while parsing the file ``path`` in the block
    (bad JSON or number, a number too large for a float, a missing key, a
    value of the wrong type, a value out of its range) as a
    MalformedFileError that names the file."""
    try:
        yield
    except KeyError as exc:
        raise MalformedFileError(f"{path}: missing key {exc}") from exc
    except (ValueError, TypeError, OverflowError, UsageError) as exc:
        raise MalformedFileError(f"{path}: {exc}") from exc


def _json_default(obj):
    """The JSON form of what :mod:`json` has no rule for: a dataclass is
    the dict of all its fields, a numpy array or scalar its ``tolist()``."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"object of type {type(obj).__name__} is not JSON serializable")


def save_json(path, payload) -> None:
    """Write ``payload`` as JSON with indent 1, sorted keys and a trailing
    newline to ``path``, or to stdout when ``path`` is ``-``. Dataclasses
    (result objects, specs, models) and numpy values may appear anywhere
    in it; see :func:`_json_default`."""
    text = json.dumps(payload, indent=1, sort_keys=True, default=_json_default) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def stack_items(items) -> np.ndarray:
    """One float array of a non-empty sequence of same-shape items, the
    items along its first axis; an array is its own stack."""
    try:
        stack = np.asarray(items, dtype=float)
    except ValueError as exc:
        raise DimMismatchError(f"items do not stack into one array: {exc}") from exc
    if stack.ndim == 0 or len(stack) == 0:
        raise EmptySetError("empty point set")
    return stack


def _require_finite_items(items: np.ndarray, path) -> None:
    """Raises NonFiniteError, naming the first item and the dataset file
    ``path``, unless every value of the stack ``items`` is finite."""
    finite = np.isfinite(items).reshape(len(items), -1).all(axis=1)
    if not finite.all():
        raise NonFiniteError(f"item {np.argmin(finite)} in {path} holds NaN or infinite values")


def save_dataset(path, kind: str, items, labels=None, provenance: dict | None = None) -> None:
    """Write a stack of same-shape items, plus optional integer labels; NaN
    or infinite values and non-integer labels raise before the file is opened."""
    if kind not in DATASET_KINDS:
        raise BadParamError(f"unknown dataset kind {kind!r}")
    stack = stack_items(items)
    _require_finite_items(stack, path)
    payload = {"kind": kind, "count": len(stack), "shape": stack.shape[1:], "items": stack}
    if labels is not None:
        labels = typed(labels, "labels", int, 1)
        if labels.shape != (len(stack),):
            raise DimMismatchError(f"labels shape {labels.shape} != ({len(stack)},)")
        payload["labels"] = labels
    if provenance is not None:
        payload["provenance"] = provenance
    save_json(path, payload)


def typed(value, name: str, kind: type, ndim: int):
    """The file field ``name`` as a ``kind`` (int or float) array of ``ndim``
    dimensions, or a Python number when ``ndim`` is 0. A numeric numpy value
    passes as it is. In a JSON number or nested lists of them, a bool, a
    string or any other non-number, and in an int field a fractional number
    or one out of the int64 range, raises ValueError naming the field and
    the first such value, where numpy would coerce it."""
    numeric = isinstance(value, (np.ndarray, np.generic)) and value.dtype.kind in ("iu" if kind is int else "iuf")
    arr = np.asarray(value, dtype=kind if numeric else object)
    if arr.ndim != ndim:
        raise ValueError(f"{name}: expected a {ndim}-d array, got shape {arr.shape}")
    if not numeric:
        leaves = arr.ravel().tolist()
        # the walk in Python runs only for an int field or a value of the wrong type
        if kind is int or not set(map(type, leaves)) <= {int, float}:
            for v in leaves:
                if type(v) not in (int, float):
                    noun = {str: "string", type(None): "null"}.get(type(v), type(v).__name__)
                    raise ValueError(f"{name}: expected a number, got the {noun} {v!r}")
                if kind is int and not (-(2**63) <= v < 2**63 and v % 1 == 0):
                    fault = "a fractional number" if abs(v) < 2**63 else "out of the int64 range"
                    raise ValueError(f"{name}: expected an integer, got {v!r}, {fault}")
        arr = arr.astype(kind)
    return arr if ndim else arr.item()


def load_dataset(path) -> dict:
    """Read a dataset written by :func:`save_dataset`.

    Returns a dict with ``kind``, ``items`` (one non-empty float array,
    the items along its first axis) and ``labels`` (int array or None).
    NaN or infinite values are rejected, naming the first such item, and
    so is a file that does not parse as a dataset, ragged items included.
    """
    with parse_errors(path):
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise MalformedFileError(f"{path}: not a JSON object")
        kind = payload.get("kind")
        if kind not in DATASET_KINDS:
            raise BadParamError(f"unknown dataset kind {kind!r}")
        shape = tuple(typed(payload["shape"], "shape", int, 1).tolist())
        if payload["items"] == []:
            raise EmptySetError(f"{path} holds no items")
        items = typed(payload["items"], "items", float, 1 + len(shape))
        if items.shape[1:] != shape:
            raise BadShapeError(f"{path}: item shape {items.shape[1:]}, metadata {shape}")
        _require_finite_items(items, path)
        if typed(payload.get("count", len(items)), "count", int, 0) != len(items):
            raise BadShapeError(f"{path}: count {payload['count']!r}, but {len(items)} items")
        labels = payload.get("labels")
        if labels is not None:
            labels = typed(labels, "labels", int, 1)
            if len(labels) != len(items):
                raise DimMismatchError("labels length does not match item count")
    return {"kind": kind, "items": items, "labels": labels}


def _csv_rows(mat):
    """The rows of a 2-d float array as comma-separated ``repr`` strings.

    A bitwise-symmetric matrix (every Gram matrix) formats each entry of
    its upper triangle once: row i takes its first i strings from the
    rows above it, and a column's strings are dropped once its row is
    made. Bits, not values, are compared, because 0.0 and -0.0 (equal
    values) print differently.
    """
    bits = mat.view(np.int64)
    if mat.shape[0] != mat.shape[1] or not np.array_equal(bits, bits.T):
        for row in mat:
            yield ",".join(map(repr, row.tolist()))
        return
    cols = [[] for _ in mat]
    for i, row in enumerate(mat):
        upper = list(map(repr, row[i:].tolist()))
        for col, text in zip(cols[i + 1 :], upper[1:]):
            col.append(text)
        left, cols[i] = cols[i], None
        yield ",".join(left + upper)


def save_matrix_csv(path, matrix, header_lines=()) -> None:
    """Matrix rows as comma-separated ``repr`` floats after ``# `` header
    lines, one line each, written as each row is formatted."""
    mat = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = chain((f"# {line}" for line in header_lines), _csv_rows(mat))
    with open(path, "w") as fh:
        fh.write(next(lines, ""))
        for line in lines:
            fh.write("\n" + line)
        fh.write("\n")


def load_matrix_csv(path) -> np.ndarray:
    """Numeric CSV with ``#`` comment lines as a 2-d float array; NaN and
    infinite values are rejected."""
    with parse_errors(path):
        mat = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if not np.all(np.isfinite(mat)):
        raise NonFiniteError(f"{path} holds a NaN or infinite value")
    return mat


def has_suffix(path, suffix: str) -> bool:
    """Whether ``path`` ends in the lower-case ``suffix``, in any case."""
    return str(path).lower().endswith(suffix)


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def _sample_symmetric(rng: np.random.Generator, shape) -> np.ndarray:
    """(A + A^T) / 2, over the last two axes, of one standard-normal draw A."""
    a = rng.standard_normal(shape)
    return (a + np.swapaxes(a, -1, -2)) / 2.0


def synth_spd_blobs(
    n_clusters: int,
    per_cluster: int,
    dim: int,
    seed: int = 0,
    center_scale: float = 1.0,
    noise_scale: float = 0.3,
):
    """Gaussian blobs in log-space: cluster c draws exp(M_c + noise).

    Returns (points, labels): one stack and its labels, in generation
    order; a scale that makes a draw NaN or infinite raises NonFiniteError.
    """
    if n_clusters < 1 or per_cluster < 1 or dim < 1:
        raise BadParamError("n_clusters, per_cluster and dim must be positive")
    rng = np.random.default_rng(seed)
    centers = center_scale * _sample_symmetric(rng, (n_clusters, 1, dim, dim))
    noise = noise_scale * _sample_symmetric(rng, (n_clusters, per_cluster, dim, dim))
    logs = (centers + noise).reshape(-1, dim, dim)
    _require_finite_items(logs, "the generated set")  # a NaN or infinite scale
    points = spd_exp(logs)
    return points, np.repeat(np.arange(n_clusters), per_cluster)


def synth_grassmann_clusters(
    n_clusters: int,
    per_cluster: int,
    ambient_dim: int,
    subspace_dim: int,
    seed: int = 0,
    noise_scale: float = 0.1,
):
    """Clusters of nearby subspaces: orthonormalized jitters of random bases,
    as (points, labels) like :func:`synth_spd_blobs`."""
    if n_clusters < 1 or per_cluster < 1:
        raise BadParamError("n_clusters and per_cluster must be positive")
    if not 1 <= subspace_dim < ambient_dim:
        raise BadParamError(f"need 1 <= r < n, got r={subspace_dim}, n={ambient_dim}")
    rng = np.random.default_rng(seed)
    shape = (ambient_dim, subspace_dim)
    centers = rng.standard_normal((n_clusters, 1, *shape))
    raw = centers + noise_scale * rng.standard_normal((n_clusters, per_cluster, *shape))
    raw = raw.reshape(-1, *shape)
    _require_finite_items(raw, "the generated set")  # a NaN or infinite scale
    points = make_grassmann(raw)
    return points, np.repeat(np.arange(n_clusters), per_cluster)
