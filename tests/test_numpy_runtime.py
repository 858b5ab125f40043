"""The runtime needs numpy alone; scipy is only an oracle for the tests.

No package module names scipy, a fresh interpreter that cannot import
scipy runs every CLI command and writes standard JSON (no NaN or
Infinity), and the two numpy replacements of former scipy calls are
checked against scipy: the Gaussian smoothing of the structure-tensor
oracle in ``tests/oracles.py`` and the generalized eigenproblem of
``learn.kernel_fda``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.ndimage import correlate1d, gaussian_filter

from manikernels.kernels import KernelSpec, gram_matrix
from manikernels.learn import kernel_fda

from oracles import gaussian_smooth, sample_spd, structure_tensor_field, write_pgm

SRC = Path(__file__).resolve().parents[1] / "src"

NO_SCIPY_SCRIPT = r"""
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is not importable here: {name}")
        return None


sys.meta_path.insert(0, NoScipy())

import manikernels.cli

work = sys.argv[1]
loaded = [name for name in sys.modules if name.startswith("scipy")]
assert not loaded, f"import manikernels.cli loaded {loaded}"
data = f"{work}/blobs.json"
image = f"{work}/window.pgm"  # written by the test before the script runs
commands = [
    ["synth", "--kind", "spd-blobs", "--clusters", "3", "--per-cluster", "6", "--dim", "3",
     "--center-scale", "2.0", "--noise-scale", "0.1", "--seed", "1", "--out", data],
    ["gram", "--input", data, "--gamma", "0.5", "--audit", "--out", f"{work}/gram.csv"],
    ["cluster", "--input", data, "--gamma", "0.5", "--k", "3", "--restarts", "2",
     "--out", f"{work}/cluster.csv"],
    ["kpca", "--input", data, "--gamma", "0.5", "--l", "2", "--out", f"{work}/kpca.csv"],
    ["kfda", "--input", data, "--gamma", "0.5", "--out", f"{work}/kfda.csv"],
    ["svm-train", "--input", data, "--gamma", "0.5", "--C", "10", "--out", f"{work}/model.json"],
    ["svm-predict", "--model", f"{work}/model.json", "--train", data, "--test", data,
     "--out", f"{work}/predict.csv"],
    ["synth", "--kind", "spd-blobs", "--clusters", "2", "--per-cluster", "6", "--dim", "3",
     "--seed", "2", "--out", f"{work}/pair.json"],
    ["mkl-train", "--inputs", f"{work}/pair.json", "--gamma-grid", "0.1,1,10", "--C", "10",
     "--out", f"{work}/mkl.json"],
    ["definiteness", "--manifold", "grassmann", "--metric", "arc-length", "--dim", "5",
     "--subspace-dim", "2", "--m", "20", "--trials", "50", "--seed", "7", "--out", f"{work}/witness.json"],
    ["subspace", "--input", f"{work}/gram.csv", "--r", "2", "--out", f"{work}/subspace.json"],
    ["covdesc", "--inputs", image, "--features", "texture", "--out", f"{work}/covdesc.json"],
]
subcommands = [action.choices for action in manikernels.cli.build_parser()._actions if action.dest == "command"]
missing = set(subcommands[0]) - {argv[0] for argv in commands}
assert not missing, f"no run of {sorted(missing)}"
for argv in commands:
    code = manikernels.cli.run(argv)
    assert code == 0, f"exit {code} for {argv[0]}"
loaded = [name for name in sys.modules if name.startswith("scipy")]
assert not loaded, f"the commands loaded {loaded}"
print("numpy-only")
"""


def test_no_package_module_names_scipy():
    # so no command can reach scipy, on its success path or an error path
    modules = sorted((SRC / "manikernels").glob("*.py"))
    assert modules
    assert [path.name for path in modules if "scipy" in path.read_text()] == []


def test_cli_runs_without_scipy(tmp_path):
    write_pgm(tmp_path / "window.pgm", np.random.default_rng(0).uniform(0, 255, size=(24, 16)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy-only"
    for name in ("gram.csv", "cluster.csv", "kpca.csv", "kfda.csv", "predict.csv"):
        assert (tmp_path / name).stat().st_size > 0
    # every JSON file is standard JSON: no NaN or Infinity
    names = sorted(path.name for path in tmp_path.glob("*.json"))
    assert names == sorted(["blobs.json", "model.json", "pair.json", "mkl.json", "witness.json",
                            "subspace.json", "covdesc.json"])
    for name in names:
        json.loads((tmp_path / name).read_text(), parse_constant=reject_constant)


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


# ---------------------------------------------------------------------------
# Gaussian smoothing against scipy.ndimage.gaussian_filter
# ---------------------------------------------------------------------------

# below 0.125 the radius int(4 sigma + 0.5) is 0; 6.0 reaches past every image
@pytest.mark.parametrize("sigma", [0.05, 0.124, 0.125, 0.5, 1.0, 1.7, 3.7, 6.0])
@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 7), (5, 4), (40, 60)])
def test_gaussian_smooth_matches_scipy(sigma, shape):
    rng = np.random.default_rng([len(shape), *shape])
    plane = rng.standard_normal(shape) * 10.0
    want = gaussian_filter(plane, sigma, mode="nearest")
    got = gaussian_smooth(plane, sigma)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_structure_tensor_field_matches_scipy_smoothing():
    rng = np.random.default_rng(14)
    frames = [rng.uniform(size=(9, 11)) for _ in range(3)]
    # central differences with the border values repeated
    ix, iy = (correlate1d(frames[1], [-0.5, 0.0, 0.5], axis, mode="nearest") for axis in (1, 0))
    grads = np.stack([ix, iy, (frames[2] - frames[0]) / 2.0])
    want = np.empty((9, 11, 3, 3))
    for a in range(3):
        for b in range(3):
            want[:, :, a, b] = gaussian_filter(grads[a] * grads[b], 1.3, mode="nearest")
    want += 1e-6 * np.eye(3)
    got = structure_tensor_field(frames, smoothing_sigma=1.3, epsilon=1e-6)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# kernel FDA against scipy.linalg.eigh(B, N)
# ---------------------------------------------------------------------------

def scatter_pair(k, labels, ridge):
    """Oracle: between-class scatter B and regularized within-class
    scatter N = W + ridge I of a kernel matrix, from their definitions."""
    m = k.shape[0]
    mu = k.mean(axis=1)
    between = np.zeros((m, m))
    within = ridge * np.eye(m)
    for cls in np.unique(labels):
        kc = k[:, labels == cls]
        diff = kc.mean(axis=1) - mu
        between += kc.shape[1] * np.outer(diff, diff)
        centered = kc - kc.mean(axis=1, keepdims=True)
        within += centered @ centered.T
    return between, within


# N is conditioned about 4e3 (m 30) and 9e3 (m 80) at ridge 1e-3, and
# 4e6 at ridge 1e-6, where both solvers lose about three more digits
@pytest.mark.parametrize("m, ridge, tol", [(30, 1e-3, 1e-11), (80, 1e-3, 1e-11), (30, 1e-6, 1e-9)])
def test_kernel_fda_matches_scipy_generalized_eigh(m, ridge, tol):
    rng = np.random.default_rng(m)
    points = sample_spd(rng, 3, m)
    labels = np.arange(m) % 3
    points[labels == 1] *= 2.0
    points[labels == 2] *= 4.0
    k = gram_matrix(KernelSpec(manifold="spd", metric="log-euclidean", gamma=0.5), points).entries
    emb = kernel_fda(k, labels, ridge=ridge)

    between, within = scatter_pair(k, labels, ridge)
    w_ref, a_ref = scipy.linalg.eigh(between, within)
    w_ref, a_ref = w_ref[::-1][:2], a_ref[:, ::-1][:, :2]
    np.testing.assert_allclose(emb.eigenvalues, w_ref, rtol=tol, atol=0)
    np.testing.assert_allclose(emb.weights.T @ within @ emb.weights, np.eye(2), rtol=0, atol=tol)
    coords_ref = k @ a_ref
    for c in range(2):
        sign = np.sign(emb.coords[:, c] @ coords_ref[:, c])
        err = np.linalg.norm(emb.coords[:, c] - sign * coords_ref[:, c])
        assert err <= tol * np.linalg.norm(coords_ref[:, c])
