import json
from dataclasses import dataclass

import numpy as np
import pytest

from manikernels import data
from manikernels.data import (
    load_dataset,
    load_matrix_csv,
    save_dataset,
    save_json,
    save_matrix_csv,
    stack_items,
    synth_grassmann_clusters,
    synth_spd_blobs,
    typed,
)
from manikernels.errors import (
    BadParamError,
    BadShapeError,
    DimMismatchError,
    EmptySetError,
    MalformedFileError,
    NonFiniteError,
)
from manikernels.grassmann import make_grassmann
from manikernels.matrixops import spd_exp

from oracles import save_dataset_unchecked, save_matrix_csv_per_entry, synth_two_rings


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    items = [rng.uniform(size=(3, 3)) for _ in range(4)]
    labels = [0, 0, 1, 1]
    path = tmp_path / "ds.json"
    save_dataset(path, "vectors", items, labels=labels, provenance={"note": "test"})
    back = load_dataset(path)
    assert back["kind"] == "vectors"
    np.testing.assert_array_equal(back["labels"], labels)
    for a, b in zip(back["items"], items):
        np.testing.assert_array_equal(a, b)


def test_dataset_validation(tmp_path):
    with pytest.raises(BadParamError):
        save_dataset(tmp_path / "x.json", "bogus", [np.eye(2)])
    with pytest.raises(DimMismatchError):
        save_dataset(tmp_path / "x.json", "spd", [np.eye(2), np.eye(3)])
    with pytest.raises(DimMismatchError):
        save_dataset(tmp_path / "x.json", "spd", [np.eye(2)], labels=[0, 1])


def test_load_dataset_rejects_non_finite_items(tmp_path):
    path = tmp_path / "ds.json"
    for bad in (np.inf, -np.inf, np.nan):
        save_dataset_unchecked(path, "vectors", [np.zeros(3), np.array([1.0, bad, 0.0])])
        with pytest.raises(NonFiniteError):
            load_dataset(path)


def test_load_dataset_names_the_first_non_finite_item(tmp_path):
    path = tmp_path / "ds.json"
    items = np.ones((6, 2, 2))
    items[4, 1, 0] = np.nan
    items[2, 0, 1] = np.inf
    save_dataset_unchecked(path, "spd", items)
    with pytest.raises(NonFiniteError, match=r"^item 2 in "):
        load_dataset(path)


def test_save_dataset_rejects_non_finite_items_before_opening_the_file(tmp_path):
    path = tmp_path / "ds.json"
    items = np.ones((6, 2, 2))
    items[4, 1, 0] = np.nan
    items[2, 0, 1] = np.inf
    with pytest.raises(NonFiniteError, match=r"^item 2 in .*ds\.json"):
        save_dataset(path, "spd", items)
    assert not path.exists()


@pytest.mark.parametrize(
    "labels, words",
    [([0.5, 1.7], "0.5, a fractional"), ([True, False], "bool True"), (["0", "1"], "string '0'")],
    ids=["fractional", "bool", "string"],
)
def test_save_dataset_rejects_labels_that_are_not_integers_before_opening_the_file(
    tmp_path, labels, words
):
    # numpy wrote [0.5, 1.7] as [0, 1] and [True, False] as [1, 0]
    path = tmp_path / "ds.json"
    with pytest.raises(ValueError, match=rf"^labels: .*{words}"):
        save_dataset(path, "vectors", np.ones((2, 3)), labels=labels)
    assert not path.exists()


def test_load_dataset_returns_one_stack(tmp_path):
    path = tmp_path / "ds.json"
    items = np.arange(24.0).reshape(4, 3, 2)
    save_dataset(path, "vectors", list(items))
    back = load_dataset(path)["items"]
    assert isinstance(back, np.ndarray) and back.dtype == float
    assert np.array_equal(back, items)


def test_load_dataset_rejects_ragged_and_mislabelled_items(tmp_path):
    path = tmp_path / "ds.json"
    payload = {"kind": "vectors", "count": 2, "shape": [2], "items": [[1.0, 2.0], [3.0]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(MalformedFileError, match="ds.json"):
        load_dataset(path)
    payload["items"] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    path.write_text(json.dumps(payload))
    with pytest.raises(BadShapeError):
        load_dataset(path)
    payload["items"] = []
    path.write_text(json.dumps(payload))
    with pytest.raises(EmptySetError):
        load_dataset(path)


def test_typed_reads_numbers_and_passes_numeric_numpy_values():
    ints = np.arange(4)
    assert typed(ints, "x", int, 1) is ints and typed(ints, "x", float, 1).dtype == float
    assert typed(np.float64(0.5), "g", float, 0) == 0.5 and type(typed(np.int64(3), "n", int, 0)) is int
    got = typed([[1, 2.0], [3.0, -(2**63)]], "x", int, 2)
    assert got.dtype == np.int64 and got.tolist() == [[1, 2], [3, -(2**63)]]
    assert typed([1, 2.5], "x", float, 1).tolist() == [1.0, 2.5]
    for value, kind, ndim, words in [
        ([1, True], float, 1, "x: expected a number, got the bool True"),
        (np.array([True]), float, 1, "x: expected a number, got the bool True"),
        ([[1.0], ["abc"]], float, 2, "x: expected a number, got the string 'abc'"),
        ([1.0, None], float, 1, "x: expected a number, got the null None"),
        ([0, 2**63], int, 1, "x: expected an integer, got 9223372036854775808, out of the int64 range"),
        (np.array([0.0, 0.5]), int, 1, "x: expected an integer, got 0.5, a fractional number"),
        ([[1.0], [2.0]], float, 1, "x: expected a 1-d array, got shape (2, 1)"),
        ([[1.0, 2.0], [3.0]], float, 2, "x: expected a 2-d array, got shape (2,)"),
        ([1], int, 0, "x: expected a 0-d array, got shape (1,)"),
    ]:
        with pytest.raises(ValueError) as caught:
            typed(value, "x", kind, ndim)
        assert str(caught.value) == words


def test_stack_items(tmp_path):
    items = [np.eye(2), 2.0 * np.eye(2)]
    assert np.array_equal(stack_items(items), np.stack(items))
    with pytest.raises(DimMismatchError):
        stack_items([np.eye(2), np.eye(3)])
    with pytest.raises(EmptySetError):
        stack_items([])
    with pytest.raises(EmptySetError):
        save_dataset(tmp_path / "x.json", "spd", [])


def test_load_matrix_csv_rejects_non_finite_values(tmp_path):
    path = tmp_path / "m.csv"
    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"# header\n1.0,2.0\n3.0,{bad}\n")
        with pytest.raises(NonFiniteError, match="m.csv"):
            load_matrix_csv(path)


@dataclass
class _Pair:
    left: object
    right: object = None


def test_save_json_writes_dataclass_fields_and_numpy_values(tmp_path):
    path = tmp_path / "out.json"
    pair = _Pair(np.arange(3), _Pair(np.int64(2)))
    save_json(path, {"pair": pair, "x": np.float32(0.5), "b": np.bool_(True)})
    assert json.loads(path.read_text()) == {
        "pair": {"left": [0, 1, 2], "right": {"left": 2, "right": None}},
        "x": 0.5,
        "b": True,
    }
    for unknown in ({1, 2}, _Pair, object()):
        with pytest.raises(TypeError, match=type(unknown).__name__):
            save_json(tmp_path / "bad.json", {"value": unknown})
    assert not (tmp_path / "bad.json").exists()


def test_matrix_csv_round_trip(tmp_path):
    mat = np.array([[1.5, 2.25], [-3.0, 4.125]])
    path = tmp_path / "m.csv"
    save_matrix_csv(path, mat, header_lines=["hello"])
    np.testing.assert_array_equal(load_matrix_csv(path), mat)


def symmetric_sample(m, seed=0):
    a = np.random.default_rng(seed).standard_normal((m, m))
    return a + a.T


@pytest.mark.parametrize(
    "matrix, header",
    [
        (symmetric_sample(7), ["m=7", "gamma=0.5"]),
        (np.arange(12.0).reshape(3, 4) / 7.0, ["non-square"]),
        (np.array([[1.0, 0.0], [-0.0, 1.0]]), []),  # equal values, bits differ
        (np.array([[1.0, np.nan], [np.nan, 2.0]]), ["nan"]),
        (np.array([[np.nan]]), []),
        (np.array([[0.1]]), ["one"]),
        (np.array([[2.0, 1e-300], [1e-300, -np.inf]]), []),
        (symmetric_sample(5).T, []),  # a transposed view
        (np.empty((0, 3)), ["only", "headers"]),
        (np.empty((0, 3)), []),
        ([1.0, 2.5], []),
    ],
)
def test_matrix_csv_matches_the_per_entry_writer(tmp_path, matrix, header):
    save_matrix_csv(tmp_path / "new.csv", matrix, header_lines=header)
    save_matrix_csv_per_entry(tmp_path / "old.csv", matrix, header_lines=header)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_symmetric_matrix_csv_formats_each_upper_entry_once(tmp_path, monkeypatch):
    m = 50
    mat = symmetric_sample(m, seed=3)
    calls = []

    def counting(v):
        calls.append(v)
        return repr(v)

    monkeypatch.setattr(data, "repr", counting, raising=False)
    save_matrix_csv(tmp_path / "sym.csv", mat, header_lines=["h"])
    assert len(calls) == m * (m + 1) // 2
    save_matrix_csv_per_entry(tmp_path / "old.csv", mat, header_lines=["h"])
    assert (tmp_path / "sym.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    calls.clear()
    save_matrix_csv(tmp_path / "asym.csv", mat + np.triu(np.ones((m, m)), 1))
    assert len(calls) == m * m


def test_synth_spd_blobs_deterministic_and_spd():
    pts1, labels1 = synth_spd_blobs(3, 5, 3, seed=42)
    pts2, labels2 = synth_spd_blobs(3, 5, 3, seed=42)
    assert len(pts1) == 15
    np.testing.assert_array_equal(labels1, labels2)
    for a, b in zip(pts1, pts2):
        np.testing.assert_array_equal(a, b)
        assert np.linalg.eigvalsh(a)[0] > 0


def test_synth_spd_blobs_equals_per_point_draws():
    # the generator draws each stack in one call from the same stream
    points, labels = synth_spd_blobs(3, 4, 3, seed=8, center_scale=0.7, noise_scale=0.4)
    rng = np.random.default_rng(8)

    def sym():
        a = rng.standard_normal((3, 3))
        return (a + a.T) / 2.0

    centers = [0.7 * sym() for _ in range(3)]
    loop = [spd_exp(c + 0.4 * sym()) for c in centers for _ in range(4)]
    assert np.array_equal(points, np.stack(loop))
    assert labels.tolist() == [0] * 4 + [1] * 4 + [2] * 4


def test_synth_grassmann_clusters_equals_per_point_draws():
    points, labels = synth_grassmann_clusters(2, 5, 6, 2, seed=9, noise_scale=0.2)
    rng = np.random.default_rng(9)
    centers = [rng.standard_normal((6, 2)) for _ in range(2)]
    loop = [
        make_grassmann(c + 0.2 * rng.standard_normal((6, 2))) for c in centers for _ in range(5)
    ]
    assert np.array_equal(points, np.stack(loop))
    assert labels.tolist() == [0] * 5 + [1] * 5


def test_synth_grassmann_clusters_orthonormal():
    pts, labels = synth_grassmann_clusters(2, 4, 6, 2, seed=1)
    assert len(pts) == 8 and labels.shape == (8,)
    for y in pts:
        np.testing.assert_allclose(y.T @ y, np.eye(2), atol=1e-10)


def test_synth_two_rings_radii():
    pts, labels = synth_two_rings(50, seed=2, radii=(1.0, 2.0), noise_scale=0.01)
    radii = np.array([np.linalg.norm(p) for p in pts])
    assert np.all(np.abs(radii[labels == 0] - 1.0) < 0.1)
    assert np.all(np.abs(radii[labels == 1] - 2.0) < 0.1)
