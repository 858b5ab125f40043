import numpy as np
import pytest

from manikernels.data import (
    load_dataset,
    load_matrix_csv,
    save_dataset,
    save_matrix_csv,
    synth_grassmann_clusters,
    synth_spd_blobs,
)
from manikernels.errors import BadParamError, DimMismatchError, NonFiniteError

from oracles import synth_two_rings


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
        save_dataset(path, "vectors", [np.zeros(3), np.array([1.0, bad, 0.0])])
        with pytest.raises(NonFiniteError):
            load_dataset(path)


def test_matrix_csv_round_trip(tmp_path):
    mat = np.array([[1.5, 2.25], [-3.0, 4.125]])
    path = tmp_path / "m.csv"
    save_matrix_csv(path, mat, header_lines=["hello"])
    np.testing.assert_array_equal(load_matrix_csv(path), mat)


def test_synth_spd_blobs_deterministic_and_spd():
    pts1, labels1 = synth_spd_blobs(3, 5, 3, seed=42)
    pts2, labels2 = synth_spd_blobs(3, 5, 3, seed=42)
    assert len(pts1) == 15
    np.testing.assert_array_equal(labels1, labels2)
    for a, b in zip(pts1, pts2):
        np.testing.assert_array_equal(a, b)
        assert np.linalg.eigvalsh(a)[0] > 0


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
