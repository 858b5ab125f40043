"""The three benchmark workloads: their inputs, passes and output checks.

A workload writes its inputs from a seed, may run set-up commands (the
model ``svm-predict`` needs), and defines a *pass*: a fixed list of CLI
commands, each with a check of every file it writes. One operation is
one command together with its check.

Checks compare outputs with :mod:`reference`, which computes each
quantity from its definition without the program's code, or test a
property the method must have. None compares with a stored copy of an
earlier output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Class centres and the clustering input come from fixed streams;
# everything else follows the workload seed.
CENTRE_SEED = 20141201
CLUSTER_SEED = 1000

# Tolerances of the checks. Entries of exp(-gamma d^2) agree to about
# 1e-12 between the program and the references; the looser bound leaves
# room for arccos-based principal angles near 0.
ENTRY_TOL = 1e-7
EIGEN_TOL = 1e-8
KKT_SLACK = 1e-6
WITNESS_TOL_FACTOR = 1e-7


class CheckError(Exception):
    """An output that is wrong: the operation fails and the run is not correct."""


class KnownFault(CheckError):
    """The k-means polish cap: ``learn._lloyd_run`` lets the single-move
    polish share ``max_iter`` with Lloyd and stops at the cap without
    saying so, leaving a partition that one single-point move improves."""


def _csv(values) -> str:
    return ",".join(map(repr, values))


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Op:
    """One CLI command of a pass, the file it writes, and the check of that file."""

    argv: list[str]
    output: Path
    check: Callable[[], None]

    @property
    def command(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# Input files
# ---------------------------------------------------------------------------

def _sym(rng, d):
    a = rng.standard_normal((d, d))
    return (a + a.T) / 2.0


def _expm_sym(a):
    w, u = np.linalg.eigh(a)
    return (u * np.exp(w)) @ u.T


def spd_points(rng, m, d, scale=0.5):
    """m SPD d x d points exp(scale * S) with S a Gaussian symmetric matrix."""
    return [_expm_sym(scale * _sym(rng, d)) for _ in range(m)]


def spd_classes(rng, n_classes, per_class, d, noise):
    """Classes exp(C_c + noise * S) around centres C_c fixed across seeds."""
    centres_rng = np.random.default_rng([CENTRE_SEED, n_classes, d])
    centres = [_sym(centres_rng, d) for _ in range(n_classes)]
    points, labels = [], []
    for c, centre in enumerate(centres):
        for _ in range(per_class):
            points.append(_expm_sym(centre + noise * _sym(rng, d)))
            labels.append(c)
    return points, np.array(labels)


def subspaces(rng, m, n, r):
    """m orthonormal n x r bases of Gaussian random subspaces."""
    return [np.linalg.qr(rng.standard_normal((n, r)))[0] for _ in range(m)]


def write_dataset(path: Path, kind: str, items, labels=None) -> None:
    payload = {
        "kind": kind,
        "count": len(items),
        "shape": list(items[0].shape),
        "items": [np.asarray(x).tolist() for x in items],
    }
    if labels is not None:
        payload["labels"] = [int(v) for v in labels]
    path.write_text(json.dumps(payload))


def write_pgm(path: Path, image: np.ndarray) -> None:
    h, w = image.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + image.astype(np.uint8).tobytes())


def tiled_windows(rng, count, height=128, width=64, tile=16):
    """Grey windows built from 16 x 16 textured tiles: a figure of fixed
    tiles down the middle, and a background holding the same other tiles
    shuffled anew in every window, plus slight pixel noise.

    The subwindows on the figure look alike in every window, so they are
    the low-dispersion ones the selection should find; the full window
    does not, because the background arrangement changes.
    """
    rows, cols = height // tile, width // tile
    figure = np.zeros((rows, cols), dtype=bool)
    figure[1 : rows - 1, 1 : cols - 1] = True
    yy, xx = np.mgrid[0:tile, 0:tile].astype(float)

    def texture():
        fx, fy = rng.uniform(0.2, 1.2, size=2)
        wave = np.sin(fx * xx + rng.uniform(0, 6)) * np.cos(fy * yy + rng.uniform(0, 6))
        return rng.uniform(60, 200) + rng.uniform(10, 50) * wave

    cells = [(r, c) for r in range(rows) for c in range(cols)]
    fixed = {cell: texture() for cell in cells if figure[cell]}
    free = [cell for cell in cells if not figure[cell]]
    pool = [texture() for _ in free]
    images = []
    for _ in range(count):
        img = np.empty((height, width))
        placed = list(fixed.items()) + [(cell, pool[k]) for cell, k in zip(free, rng.permutation(len(pool)))]
        for (r, c), patch in placed:
            img[r * tile : (r + 1) * tile, c * tile : (c + 1) * tile] = patch
        img += rng.normal(0.0, 1.0, size=img.shape)
        images.append(np.clip(np.round(img), 0, 255).astype(np.uint8))
    return images


# ---------------------------------------------------------------------------
# Output readers
# ---------------------------------------------------------------------------

def _header_fields(lines) -> dict[str, str]:
    fields = {}
    for line in lines:
        for token in line.lstrip("#").split():
            if "=" in token:
                key, value = token.split("=", 1)
                fields[key] = value
    return fields


def read_csv(path: Path):
    """(header fields, rows) of a CSV with ``#`` header lines."""
    header, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                header.append(line)
            elif line.strip():
                rows.append(np.array(line.split(","), dtype=float))
    return _header_fields(header), np.array(rows)


def read_gram(path: Path):
    """(entries, gamma, metric, min_eigen or None) of a written Gram matrix."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        spec = payload["spec"]
        return np.array(payload["entries"]), spec["gamma"], spec["metric"], payload["min_eigen"]
    fields, rows = read_csv(path)
    min_eigen = float(fields["min_eigen"]) if "min_eigen" in fields else None
    return rows, float(fields["gamma"]), fields["metric"], min_eigen


# ---------------------------------------------------------------------------
# Checks shared by several commands
# ---------------------------------------------------------------------------

def check_gram(path: Path, points, metric: str, gamma: float, audit: bool, rng) -> None:
    k, got_gamma, got_metric, min_eigen = read_gram(path)
    m = len(points)
    expect(k.shape == (m, m), f"{path.name}: shape {k.shape}, expected {(m, m)}")
    expect(got_gamma == gamma and got_metric == metric, f"{path.name}: header names {got_metric} {got_gamma}")
    expect(np.array_equal(k, k.T), f"{path.name}: not symmetric")
    expect(np.all(np.diag(k) == 1.0), f"{path.name}: diagonal is not 1")
    expect(np.all((k > 0.0) & (k <= 1.0)), f"{path.name}: entries outside (0, 1]")
    if audit:
        expect(min_eigen is not None, f"{path.name}: no audit")
        lam = float(np.linalg.eigvalsh(k)[0])
        expect(abs(min_eigen - lam) <= EIGEN_TOL * max(1.0, abs(lam)),
               f"{path.name}: audit min_eigen {min_eigen} but eigvalsh gives {lam}")
    else:
        expect(min_eigen is None, f"{path.name}: unexpected audit")
    for i, j in sample_pairs(rng, m, 24):
        want = float(np.exp(-gamma * ref.PAIR_D2[metric](points[i], points[j])))
        expect(abs(k[i, j] - want) <= ENTRY_TOL * want + 1e-12,
               f"{path.name}: K[{i},{j}] = {k[i, j]}, reference {want}")


def sample_pairs(rng, m, count):
    pairs = []
    while len(pairs) < count:
        i, j = rng.integers(m, size=2)
        if i != j:
            pairs.append((int(i), int(j)))
    return pairs


def check_svm_model(raw: dict, k: np.ndarray, y: np.ndarray, kkt_tol: float, name: str) -> None:
    """Box and equality constraints, support set, and the KKT gap on ``k``."""
    dc = np.array(raw["dual_coefs"], dtype=float)
    C = float(raw["C"])
    expect(dc.shape == y.shape, f"{name}: {dc.size} dual coefficients for {y.size} points")
    alpha = dc * y
    expect(np.all(alpha >= 0.0) and np.all(alpha <= C), f"{name}: dual variables outside [0, C]")
    expect(abs(dc.sum()) <= 1e-9 * C * y.size, f"{name}: sum alpha_i y_i = {dc.sum()}")
    expect(raw["support_indices"] == np.flatnonzero(alpha > 0).tolist(), f"{name}: wrong support set")
    expect(raw["kkt_violation"] <= kkt_tol, f"{name}: reported KKT violation {raw['kkt_violation']}")
    gap = ref.svm_kkt_gap(k, y, alpha, C)
    expect(gap <= kkt_tol + KKT_SLACK, f"{name}: KKT gap {gap} on the reference Gram")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs, set-up commands and the pass of one workload."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self._check_rng = np.random.default_rng([seed, 7])

    def path(self, name: str) -> Path:
        return self.work / name

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup_commands(self) -> list[list[str]]:
        return []

    def check_setup(self) -> None:
        pass

    def ops(self) -> list[Op]:
        raise NotImplementedError


class GramMetrics(Workload):
    """Gram matrices under four metrics, a cross Gram through svm-predict,
    and many tiny Gram matrices in two definiteness searches."""

    name = "gram-metrics"
    PD_GRID = (0.01, 0.1, 1.0, 10.0)
    ARC_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)

    def make_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.train, self.train_labels = spd_classes(rng, 2, 60, 8, noise=0.5)
        self.test, _ = spd_classes(rng, 2, 30, 8, noise=0.5)
        self.grass_small = subspaces(rng, 200, 20, 4)
        self.grass_large = subspaces(rng, 600, 20, 4)
        write_dataset(self.path("spd-train.json"), "spd", self.train, self.train_labels)
        write_dataset(self.path("spd-test.json"), "spd", self.test)
        write_dataset(self.path("grass-200.json"), "grassmann", self.grass_small)
        write_dataset(self.path("grass-600.json"), "grassmann", self.grass_large)
        self._cross = None

    def setup_commands(self):
        return [["svm-train", "--input", str(self.path("spd-train.json")), "--metric", "affine-invariant",
                 "--gamma", "0.05", "--C", "10", "--out", str(self.path("model.json"))]]

    def check_setup(self) -> None:
        model = json.loads(self.path("model.json").read_text())
        expect(model["type"] == "svm" and model["classes"] == [0, 1], "model.json: not a binary SVM")
        k = ref.gaussian_gram(ref.pairwise_d2("affine-invariant", self.train), 0.05)
        y = np.where(self.train_labels == 1, 1.0, -1.0)
        check_svm_model(model["model"], k, y, 1e-3, "model.json")

    def _gram_op(self, dataset: str, points, metric: str, gamma: float, audit: bool, out: str) -> Op:
        argv = ["gram", "--input", str(self.path(dataset)), "--metric", metric, "--gamma", repr(gamma)]
        if audit:
            argv.append("--audit")
        argv += ["--out", str(self.path(out))]
        return Op(argv, self.path(out),
                  lambda: check_gram(self.path(out), points, metric, gamma, audit, self._check_rng))

    def ops(self):
        seed = str(self.seed)
        return [
            self._gram_op("spd-train.json", self.train, "affine-invariant", 0.05, True, "gram-ai.json"),
            self._gram_op("spd-train.json", self.train, "root-stein", 0.5, True, "gram-stein.csv"),
            self._gram_op("grass-200.json", self.grass_small, "arc-length", 1.0, True, "gram-arc.csv"),
            self._gram_op("grass-600.json", self.grass_large, "projection", 1.0, False, "gram-proj.csv"),
            Op(["svm-predict", "--model", str(self.path("model.json")), "--train", str(self.path("spd-train.json")),
                "--test", str(self.path("spd-test.json")), "--out", str(self.path("predict.csv"))],
               self.path("predict.csv"), self.check_predict),
            Op(["definiteness", "--manifold", "spd", "--metric", "log-euclidean", "--dim", "8", "--m", "40",
                "--trials", "100", "--gamma-grid", _csv(self.PD_GRID), "--seed", seed,
                "--out", str(self.path("def-pd.json"))],
               self.path("def-pd.json"), self.check_pd_search),
            Op(["definiteness", "--manifold", "grassmann", "--metric", "arc-length", "--dim", "5",
                "--subspace-dim", "2", "--m", "40", "--trials", "200",
                "--gamma-grid", _csv(self.ARC_GRID), "--seed", seed,
                "--out", str(self.path("def-arc.json"))],
               self.path("def-arc.json"), self.check_arc_search),
        ]

    def check_predict(self) -> None:
        model = json.loads(self.path("model.json").read_text())
        raw = model["model"]
        fields, rows = read_csv(self.path("predict.csv"))
        expect(fields.get("columns") == "index,decision,label", "predict.csv: unexpected columns")
        expect(rows.shape == (len(self.test), 3), f"predict.csv: shape {rows.shape}")
        expect(np.array_equal(rows[:, 0], np.arange(len(self.test))), "predict.csv: bad index column")
        if self._cross is None:
            d2 = ref.cross_d2("affine-invariant", self.train, self.test)
            self._cross = np.exp(-model["spec"]["gamma"] * d2)
        dc = np.array(raw["dual_coefs"])
        want = dc @ self._cross + raw["bias"]
        err = np.max(np.abs(rows[:, 1] - want))
        expect(err <= 1e-8 * (1.0 + np.abs(dc).sum()), f"predict.csv: decisions differ by {err}")
        labels = np.where(rows[:, 1] >= 0, model["classes"][1], model["classes"][0])
        expect(np.array_equal(rows[:, 2], labels), "predict.csv: labels disagree with decisions")

    def check_pd_search(self) -> None:
        report = json.loads(self.path("def-pd.json").read_text())
        tol = WITNESS_TOL_FACTOR * report["m"]
        expect(report["verdict"] == "psd_within_tol", f"def-pd.json: verdict {report['verdict']}")
        expect(report["trials_run"] == 100 and report["m"] == 40, "def-pd.json: wrong trial count or size")
        expect(-tol <= report["min_eigen"] <= 1.0, f"def-pd.json: min_eigen {report['min_eigen']}")
        expect(report["gamma"] in self.PD_GRID, f"def-pd.json: gamma {report['gamma']} not in the grid")
        expect(report["witness_points"] == [], "def-pd.json: witness points for a PD kernel")

    def check_arc_search(self) -> None:
        report = json.loads(self.path("def-arc.json").read_text())
        expect(report["verdict"] == "witness_found", f"def-arc.json: verdict {report['verdict']}")
        expect(report["gamma"] in self.ARC_GRID, f"def-arc.json: gamma {report['gamma']} not in the grid")
        points = [np.array(p) for p in report["witness_points"]]
        expect(len(points) == report["m"] == 40, "def-arc.json: wrong number of witness points")
        for p in points:
            expect(p.shape == (5, 2) and np.allclose(p.T @ p, np.eye(2), atol=1e-10),
                   "def-arc.json: witness point is not an orthonormal 5 x 2 basis")
        k = ref.gaussian_gram(ref.pairwise_d2("arc-length", points), report["gamma"])
        lam = float(np.linalg.eigvalsh(k)[0])
        expect(lam < -WITNESS_TOL_FACTOR * len(points), f"def-arc.json: rebuilt Gram has min eigenvalue {lam}")
        expect(abs(lam - report["min_eigen"]) <= ENTRY_TOL,
               f"def-arc.json: min_eigen {report['min_eigen']}, rebuilt {lam}")


class FitLogEuclidean(Workload):
    """Kernel k-means, grid-searched SVM and MKL on log-Euclidean Grams,
    where the learners do nearly all the work."""

    name = "fit-logeuc"
    K = 3
    CLUSTER_GAMMA = 0.1
    SVM_GAMMAS = (0.1, 0.5, 2.0)
    SVM_CS = (1.0, 10.0, 100.0)
    MKL_GAMMAS = (0.1, 0.5, 2.0)
    MKL_C = 10.0

    def make_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        # The clustering input does not follow the seed: it is where the
        # k-means polish-cap fault shows, and it must show on every run.
        self.cluster_points = spd_points(np.random.default_rng(CLUSTER_SEED), 600, 8)
        self.svm_points, self.svm_labels = spd_classes(rng, 3, 100, 4, noise=0.6)
        self.mkl_points, self.mkl_labels = spd_classes(rng, 2, 100, 4, noise=0.6)
        write_dataset(self.path("cluster.json"), "spd", self.cluster_points)
        write_dataset(self.path("svm.json"), "spd", self.svm_points, self.svm_labels)
        write_dataset(self.path("mkl.json"), "spd", self.mkl_points, self.mkl_labels)
        self._d2 = {}

    def d2(self, key: str, points):
        if key not in self._d2:
            self._d2[key] = ref.log_euclidean_d2(points)
        return self._d2[key]

    def ops(self):
        return [
            Op(["cluster", "--input", str(self.path("cluster.json")), "--metric", "log-euclidean",
                "--gamma", repr(self.CLUSTER_GAMMA), "--k", str(self.K), "--restarts", "6", "--seed", "0",
                "--out", str(self.path("cluster.csv"))],
               self.path("cluster.csv"), self.check_cluster),
            Op(["svm-train", "--input", str(self.path("svm.json")), "--cv", "5",
                "--gamma-grid", _csv(self.SVM_GAMMAS), "--c-grid", _csv(self.SVM_CS), "--seed", str(self.seed),
                "--out", str(self.path("svm-model.json"))],
               self.path("svm-model.json"), self.check_svm_cv),
            # tol 0 runs every outer step up to the cap, so the work done
            # does not hinge on when the objective happens to level off
            Op(["mkl-train", "--inputs", str(self.path("mkl.json")), "--gamma-grid", _csv(self.MKL_GAMMAS),
                "--C", repr(self.MKL_C), "--max-outer", "8", "--tol", "0",
                "--out", str(self.path("mkl-model.json"))],
               self.path("mkl-model.json"), self.check_mkl),
        ]

    def check_cluster(self) -> None:
        fields, rows = read_csv(self.path("cluster.csv"))
        m = len(self.cluster_points)
        expect(rows.shape == (m, 2) and np.array_equal(rows[:, 0], np.arange(m)), "cluster.csv: bad rows")
        labels = rows[:, 1].astype(int)
        expect(np.array_equal(labels, rows[:, 1]) and labels.min() >= 0 and labels.max() < self.K,
               "cluster.csv: labels outside 0..k-1")
        expect(np.all(np.bincount(labels, minlength=self.K) > 0), "cluster.csv: empty cluster")
        k = ref.gaussian_gram(self.d2("cluster", self.cluster_points), self.CLUSTER_GAMMA)
        energy = float(fields["energy"])
        want = ref.kmeans_energy(k, labels)
        expect(abs(energy - want) <= 1e-9 * want, f"cluster.csv: energy {energy}, recomputed {want}")
        delta = ref.best_single_move_delta(k, labels, self.K)
        if delta < -1e-9 * want:
            raise KnownFault(f"cluster.csv: a single-point move lowers the energy by {-delta:.3e}")

    def check_svm_cv(self) -> None:
        model = json.loads(self.path("svm-model.json").read_text())
        expect(model["type"] == "multiclass-svm" and model["mode"] == "one-vs-all"
               and model["classes"] == [0, 1, 2], "svm-model.json: not a one-vs-all model over 3 classes")
        gamma = model["spec"]["gamma"]
        expect(gamma in self.SVM_GAMMAS, f"svm-model.json: gamma {gamma} not in the grid")
        cs = {raw["C"] for raw in model["models"]}
        expect(len(cs) == 1 and cs <= set(self.SVM_CS), f"svm-model.json: C values {cs} not one grid value")
        k = ref.gaussian_gram(self.d2("svm", self.svm_points), gamma)
        for cls, raw in zip(model["classes"], model["models"]):
            y = np.where(self.svm_labels == cls, 1.0, -1.0)
            check_svm_model(raw, k, y, 1e-3, f"svm-model.json class {cls}")

    def check_mkl(self) -> None:
        model = json.loads(self.path("mkl-model.json").read_text())
        weights = np.array(model["weights"])
        gammas = [spec["gamma"] for spec in model["kernel_specs"]]
        expect(gammas == list(self.MKL_GAMMAS), f"mkl-model.json: kernels for gammas {gammas}")
        expect(np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-12,
               f"mkl-model.json: weights {weights.tolist()} not on the simplex")
        trace = model["objective_trace"]
        expect(all(b <= a for a, b in zip(trace, trace[1:])), "mkl-model.json: objective trace increases")
        d2 = self.d2("mkl", self.mkl_points)
        k = sum(w * ref.gaussian_gram(d2, g) for w, g in zip(weights, gammas))
        y = np.where(self.mkl_labels == 1, 1.0, -1.0)
        check_svm_model(model["model"], k, y, 1e-3, "mkl-model.json")
        objective = ref.svm_dual_objective(k, model["model"]["dual_coefs"])
        expect(abs(objective - trace[-1]) <= 1e-8 * max(1.0, abs(objective)),
               f"mkl-model.json: final objective {trace[-1]}, recomputed {objective}")


class CovdescSelect(Workload):
    """Region covariance descriptors of every candidate subwindow and
    their dispersion-ranked selection: features, spd and matrixops."""

    name = "covdesc-select"
    WINDOWS = 8
    SELECT = 10
    MAX_OVERLAP = 0.75

    def make_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.images = tiled_windows(rng, self.WINDOWS)
        self.paths = [self.path(f"window-{i}.pgm") for i in range(self.WINDOWS)]
        for path, image in zip(self.paths, self.images):
            write_pgm(path, image)
        self._features = None

    def ops(self):
        return [
            Op(["covdesc", "--inputs", *map(str, self.paths), "--features", "pedestrian",
                "--select", str(self.SELECT), "--max-overlap", repr(self.MAX_OVERLAP),
                "--out", str(self.path("covdesc.json"))],
               self.path("covdesc.json"), self.check_covdesc),
        ]

    def check_covdesc(self) -> None:
        if self._features is None:
            self._features = [ref.pedestrian_features(img) for img in self.images]
        payload = json.loads(self.path("covdesc.json").read_text())
        height, width = self.images[0].shape
        expect(payload["image_shape"] == [height, width], f"covdesc.json: image shape {payload['image_shape']}")
        selected = payload["selected"]
        expect(1 <= len(selected) <= self.SELECT, f"covdesc.json: {len(selected)} windows selected")
        rects = [tuple(s["rect"]) for s in selected]
        for x0, y0, w, h in rects:
            expect(w >= 1 and h >= 1 and x0 >= 0 and y0 >= 0 and x0 + w <= width and y0 + h <= height,
                   f"covdesc.json: rect {(x0, y0, w, h)} outside the window")
        for i in range(len(rects)):
            for j in range(i):
                expect(ref.overlap_ratio(rects[i], rects[j]) <= self.MAX_OVERLAP,
                       f"covdesc.json: rects {rects[j]} and {rects[i]} overlap too much")
        scores = [s["score"] for s in selected]
        expect(all(b >= a for a, b in zip(scores, scores[1:])), "covdesc.json: scores decrease")
        for s, rect in zip(selected, rects):
            expect(len(s["descriptors"]) == self.WINDOWS, f"covdesc.json: rect {rect} lacks descriptors")
            direct = [ref.normalized_covariance(f, rect) for f in self._features]
            for got, want in zip(s["descriptors"], direct):
                got = np.array(got)
                expect(np.array_equal(got, got.T) and np.linalg.eigvalsh(got)[0] > 0,
                       f"covdesc.json: descriptor of {rect} is not SPD")
                err = np.linalg.norm(got - want) / np.linalg.norm(want)
                expect(err <= 1e-7, f"covdesc.json: descriptor of {rect} off the direct covariance by {err:.2e}")
            want = ref.log_euclidean_dispersion(direct)
            expect(abs(s["score"] - want) <= 1e-6 * want, f"covdesc.json: score {s['score']} of {rect}, reference {want}")


WORKLOADS = {cls.name: cls for cls in (GramMetrics, FitLogEuclidean, CovdescSelect)}
