"""Command-line front end.

Wires dataset files, kernels and the learning algorithms into
reproducible runs. Every output file carries a provenance header
(command, config, seed, library version) and is byte-identical across
invocations with the same arguments and inputs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .data import (
    load_dataset,
    load_matrix_csv,
    parse_errors,
    save_dataset,
    save_json,
    save_matrix_csv,
    synth_grassmann_clusters,
    synth_spd_blobs,
)
from .errors import (
    BadParamError,
    BadShapeError,
    DimMismatchError,
    FrameMismatchError,
    MalformedFileError,
    ManiKernelsError,
    NoConvergenceError,
    NotPsdError,
    NumericalError,
    SingularScatterError,
    TrainMismatchError,
    UnsupportedMetricError,
)
from .features import (
    candidate_grid,
    normalize_by_full_window,
    pedestrian_feature_maps,
    read_image,
    region_covariance,
    select_subwindows,
    texture_feature_maps,
)
from .grassmann import make_grassmann, subspace_from_vectors
from .kernels import (
    KernelSpec,
    _manifold_points,
    cross_gram,
    definiteness_search,
    gram_from_squared_distances,
    gram_matrix,
    gram_to_csv,
    gram_to_json,
    squared_distance_matrix,
)
from .learn import (
    MulticlassSvmModel,
    SvmModel,
    _binary_problems,
    kernel_fda,
    kernel_kmeans,
    kernel_pca,
    mkl_train,
    multiclass_svm_predict,
    multiclass_svm_train,
    svm_decision,
    svm_predict,
    svm_train,
    svm_train_batch,
)
from .spd import make_spd

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_USAGE_ERRORS = (BadParamError, UnsupportedMetricError)
_NUMERIC_ERRORS = (
    NoConvergenceError,
    NumericalError,
    NotPsdError,
    SingularScatterError,
)
# Every other library error is a data error, as are unreadable input
# files. Parse sites raise typed errors, so any other exception is a
# fault of the program and is not reported as bad data.
_DATA_ERRORS = (ManiKernelsError, OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _provenance(command: str, args: argparse.Namespace) -> dict:
    # "out" stays out of the record so retargeting the file keeps bytes equal
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command", "out")
    }
    return {
        "command": command,
        "config": config,
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }


def _provenance_lines(prov: dict) -> list[str]:
    return [
        f"command={prov['command']}",
        "config=" + json.dumps(prov["config"], sort_keys=True),
        f"seed={prov['seed']}",
        f"version={prov['version']}",
    ]


def _grid(text: str, name: str) -> list[float]:
    """The positive finite numbers of a comma-separated grid flag."""
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise BadParamError(f"{name} must be comma-separated numbers, got {text!r}") from exc
    if not vals or not all(0 < v < float("inf") for v in vals):
        raise BadParamError(f"{name} must be positive finite values, got {text!r}")
    return vals


def _spec_for(args, manifold: str) -> KernelSpec:
    """Kernel spec from the kernel flags; ``--manifold``, where the
    subcommand has it, overrides the manifold of the dataset kind."""
    if getattr(args, "manifold", None):
        manifold = args.manifold
    if manifold == "euclidean":
        metric = "euclidean"
    elif args.metric is None:
        metric = {"spd": "log-euclidean", "grassmann": "projection"}[manifold]
    else:
        metric = args.metric
    return KernelSpec(manifold=manifold, metric=metric, gamma=args.gamma, alpha=args.alpha)


_KIND_MANIFOLDS = {"spd": "spd", "grassmann": "grassmann", "vectors": "euclidean"}


def _on_manifold(items, manifold: str) -> np.ndarray:
    """Dataset items as one stack, checked (and normalized) as points of
    ``manifold``."""
    stack = _manifold_points(manifold, items)
    if manifold == "spd":
        return make_spd(stack)
    if manifold == "grassmann":
        return make_grassmann(stack)
    return stack


def _dataset_points(path, args):
    """Dataset items checked against the manifold of the kernel spec, the
    labels, and that spec (see :func:`_spec_for`)."""
    ds = load_dataset(path)
    spec = _spec_for(args, _KIND_MANIFOLDS[ds["kind"]])
    return _on_manifold(ds["items"], spec.manifold), ds["labels"], spec


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_definiteness(args) -> int:
    report = definiteness_search(
        args.manifold,
        args.metric,
        _grid(args.gamma_grid, "gamma grid"),
        m=args.m,
        trials=args.trials,
        seed=args.seed,
        dim=args.dim,
        subspace_dim=args.subspace_dim,
        alpha=args.alpha,
    )
    save_json(args.out, {**vars(report), "provenance": _provenance("definiteness", args)})
    return EXIT_OK


def _cmd_gram(args) -> int:
    points, _, spec = _dataset_points(args.input, args)
    gram = gram_matrix(spec, points)
    if args.audit:
        gram.audit()
    prov = _provenance("gram", args)
    if args.out.endswith(".json"):
        gram_to_json(gram, args.out, provenance=prov)
    else:
        gram_to_csv(gram, args.out, extra_header=_provenance_lines(prov))
    return EXIT_OK


def _cmd_cluster(args) -> int:
    points, _, spec = _dataset_points(args.input, args)
    gram = gram_matrix(spec, points)
    result = kernel_kmeans(gram, args.k, restarts=args.restarts, seed=args.seed)
    header = _provenance_lines(_provenance("cluster", args))
    header.append(f"energy={result.energy!r}")
    header.append(f"restarts_used={result.restarts_used}")
    header.append(f"n_moves={result.n_moves}")
    header.append("columns=index,label")
    rows = np.column_stack([np.arange(len(points)), result.labels]).astype(float)
    save_matrix_csv(args.out, rows, header_lines=header)
    return EXIT_OK


def _cmd_kpca(args) -> int:
    points, _, spec = _dataset_points(args.input, args)
    gram = gram_matrix(spec, points)
    emb = kernel_pca(gram, args.l)
    header = _provenance_lines(_provenance("kpca", args))
    header.append("eigenvalues=" + ",".join(repr(float(v)) for v in emb.eigenvalues))
    save_matrix_csv(args.out, emb.coords, header_lines=header)
    return EXIT_OK


def _cmd_kfda(args) -> int:
    points, labels, spec = _dataset_points(args.input, args)
    if labels is None:
        raise BadShapeError("kfda needs a dataset with labels")
    gram = gram_matrix(spec, points)
    emb = kernel_fda(gram, labels, ridge=args.ridge, dims=args.dims)
    header = _provenance_lines(_provenance("kfda", args))
    header.append("eigenvalues=" + ",".join(repr(float(v)) for v in emb.eigenvalues))
    save_matrix_csv(args.out, emb.coords, header_lines=header)
    return EXIT_OK


def _binary_labels(labels) -> np.ndarray:
    uniq = np.unique(labels)
    if set(uniq.tolist()) <= {-1, 1}:
        return np.asarray(labels, dtype=float)
    if len(uniq) == 2:
        return np.where(np.asarray(labels) == uniq[1], 1.0, -1.0)
    raise BadParamError("binary SVM needs exactly two label values")


def _items_digest(points) -> str:
    """SHA-256 of a point stack as one C-ordered float64 array, shape included."""
    stack = np.ascontiguousarray(points, dtype=np.float64)
    digest = hashlib.sha256(repr(stack.shape).encode())
    digest.update(stack.tobytes())
    return digest.hexdigest()


def _cv_folds(m: int, folds: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    assignment = np.arange(m) % folds
    rng.shuffle(assignment)
    return assignment


def _cv_select(d2, labels, spec, args):
    """Seeded grid search over gamma and C on one squared-distance matrix;
    returns (gram, C), the winning Gram over all points and C. Each gamma
    builds one Gram, audited once, and solves every fold x C x binary
    problem on it as one :func:`svm_train_batch`, each fold's training
    points marked in its rows; ties go to the earlier gamma, then the
    earlier C."""
    if args.cv < 2:
        raise BadParamError(f"--cv needs at least 2 folds, got {args.cv}")
    gammas = _grid(args.gamma_grid, "gamma grid") if args.gamma_grid else [spec.gamma]
    cs = _grid(args.c_grid, "C grid") if args.c_grid else [args.C]
    labels = np.asarray(labels)
    binary = len(np.unique(labels)) == 2
    # folds whose training part holds one class are skipped, so the
    # +-1 coding of every fold's training labels is this one
    y = _binary_labels(labels) if binary else labels
    folds = _cv_folds(len(labels), args.cv, args.seed)
    splits, rows, row_cs = [], [], []
    for f in range(args.cv):
        test = folds == f
        train = ~test
        if len(np.unique(labels[train])) < 2:
            continue
        if binary:
            classes, pairs, codes = None, None, y[train][None]
        else:
            classes, pairs, codes = _binary_problems(y[train], args.mode)
        block = np.zeros((len(codes), len(labels)))
        block[:, train] = codes
        rows += [block] * len(cs)
        row_cs += [c_val for c_val in cs for _ in codes]
        indices = [np.flatnonzero(code) for code in codes] if pairs else None
        splits.append((train, test, classes, pairs, indices, len(codes)))
    Y = np.concatenate(rows) if rows else np.zeros((0, len(labels)))
    best = None
    for gamma in gammas:
        gram = gram_from_squared_distances(replace(spec, gamma=gamma), d2)
        models = iter(svm_train_batch(gram, Y, row_cs, kkt_tol=args.kkt_tol))
        correct = [0] * len(cs)
        total = 0
        for train, test, classes, pairs, indices, n_problems in splits:
            cols = gram.entries[np.ix_(train, test)]
            for c_index in range(len(cs)):
                fits = [next(models) for _ in range(n_problems)]
                if binary:
                    pred = svm_predict(fits[0], cols)
                else:
                    model = MulticlassSvmModel(args.mode, classes, fits, pair_indices=indices, pairs=pairs)
                    pred = multiclass_svm_predict(model, cols)
                correct[c_index] += int(np.sum(pred == y[test]))
            total += int(test.sum())
        for c_index, c_val in enumerate(cs):
            score = correct[c_index] / total if total else 0.0
            if best is None or score > best[0]:
                best = (score, gram, c_val)
    return best[1], best[2]


def _cmd_svm_train(args) -> int:
    points, labels, spec = _dataset_points(args.input, args)
    if labels is None:
        raise BadShapeError("svm-train needs a dataset with labels")
    d2 = squared_distance_matrix(spec.manifold, spec.metric, points, alpha=spec.alpha)
    if args.cv:
        gram, c_val = _cv_select(d2, labels, spec, args)
    else:
        gram, c_val = gram_from_squared_distances(spec, d2), args.C
    classes = np.unique(labels)
    payload = {
        "spec": gram.spec,
        "provenance": _provenance("svm-train", args),
        "train_sha256": _items_digest(points),
    }
    if len(classes) == 2:
        model = svm_train(gram, _binary_labels(labels), c_val, kkt_tol=args.kkt_tol)
        payload.update(type="svm", classes=classes, model=model)
    else:
        model = multiclass_svm_train(gram, labels, c_val, mode=args.mode, kkt_tol=args.kkt_tol)
        payload["type"] = "multiclass-svm"
        payload.update((k, v) for k, v in vars(model).items() if v is not None)
    save_json(args.out, payload)
    return EXIT_OK


def _model_from_payload(payload):
    """(spec, model, classes) of an svm-train model; run it inside
    :func:`~manikernels.data.parse_errors` so its errors name the file."""
    if payload["type"] not in ("svm", "multiclass-svm"):
        raise ValueError(f"model type {payload['type']!r} is not an svm-train model")
    spec = KernelSpec(**payload["spec"])
    if payload["type"] == "svm":
        if len(payload["classes"]) != 2 or len(set(payload["classes"])) != 2:
            raise ValueError(f"a binary model needs 2 distinct classes, got {payload['classes']}")
        return spec, SvmModel(**payload["model"]), payload["classes"]
    multi = MulticlassSvmModel(
        mode=payload["mode"],
        classes=np.array(payload["classes"]),
        models=[SvmModel(**raw) for raw in payload["models"]],
        pair_indices=[np.array(v, dtype=int) for v in payload.get("pair_indices", [])] or None,
        pairs=[tuple(p) for p in payload.get("pairs", [])] or None,
    )
    return spec, multi, payload["classes"]


def _cmd_svm_predict(args) -> int:
    with parse_errors(args.model):
        with open(args.model) as fh:
            payload = json.load(fh)
        spec, model, classes = _model_from_payload(payload)
    train = load_dataset(args.train)
    train_points = _on_manifold(train["items"], spec.manifold)
    if payload.get("train_sha256") != _items_digest(train_points):
        raise TrainMismatchError(f"{args.train} is not the dataset the model was trained on")
    test = load_dataset(args.test)
    if train["kind"] != test["kind"]:
        raise DimMismatchError("train/test dataset kinds differ")
    test_points = _on_manifold(test["items"], spec.manifold)
    n_train = len(train_points)
    if isinstance(model, SvmModel) or model.mode == "one-vs-all":
        for part in model.models if isinstance(model, MulticlassSvmModel) else [model]:
            if len(part.dual_coefs) != n_train:
                raise MalformedFileError(
                    f"{args.model}: {len(part.dual_coefs)} dual_coefs for {n_train} training points"
                )
    elif any(len(idx) and max(idx) >= n_train for idx in model.pair_indices):
        raise MalformedFileError(f"{args.model}: a pair index is past the training set's end")
    cols = cross_gram(spec, train_points, test_points)
    header = _provenance_lines(_provenance("svm-predict", args))
    if isinstance(model, SvmModel):
        dec = svm_decision(model, cols)
        pred_sign = np.where(dec >= 0, 1, -1)
        if not set(classes) <= {-1, 1}:
            pred = np.where(pred_sign > 0, classes[1], classes[0])
        else:
            pred = pred_sign
        header.append("columns=index,decision,label")
        rows = np.column_stack([np.arange(len(test_points)), dec, pred.astype(float)])
    else:
        pred = multiclass_svm_predict(model, cols)
        header.append("columns=index,label")
        rows = np.column_stack([np.arange(len(test_points)), pred.astype(float)])
    save_matrix_csv(args.out, rows, header_lines=header)
    return EXIT_OK


def _cmd_mkl_train(args) -> int:
    gammas = _grid(args.gamma_grid, "gamma grid") if args.gamma_grid else None
    if gammas and len(args.inputs) > 1:
        raise BadParamError("--gamma-grid expands kernels from a single input")
    grams = []
    labels = None
    for path in args.inputs:
        points, lab, spec = _dataset_points(path, args)
        if labels is None:
            labels = lab
        d2 = squared_distance_matrix(spec.manifold, spec.metric, points, alpha=spec.alpha)
        for gamma in gammas or [spec.gamma]:
            grams.append(gram_from_squared_distances(replace(spec, gamma=gamma), d2))
    if labels is None:
        raise BadShapeError("mkl-train needs labels in the (first) dataset")
    y = _binary_labels(labels)
    model = mkl_train(grams, y, args.C, max_outer_iter=args.max_outer, tol=args.tol)
    payload = {
        "type": "mkl-svm",
        "weights": model.weights,
        "objective_trace": model.objective_trace,
        "kernel_specs": [gram.spec for gram in grams],
        "model": model.svm,
        "provenance": _provenance("mkl-train", args),
    }
    save_json(args.out, payload)
    return EXIT_OK


def _cmd_covdesc(args) -> int:
    images = [read_image(p) for p in args.inputs]
    shape = images[0].shape
    maker = pedestrian_feature_maps if args.features == "pedestrian" else texture_feature_maps
    maps = [maker(img) for img in images]
    prov = _provenance("covdesc", args)
    if not args.select:
        full = [(0, 0, img.shape[1], img.shape[0]) for img in images]
        descs = [region_covariance(m, r, epsilon=args.epsilon) for m, r in zip(maps, full)]
        save_dataset(args.out, "spd", descs, provenance=prov)
        return EXIT_OK
    for img in images:
        if img.shape != shape:
            raise FrameMismatchError("subwindow selection needs equally sized images")
    candidates = candidate_grid(shape[0], shape[1])
    # the full window goes last: the normalization scales by it
    rects = np.vstack([candidates, (0, 0, shape[1], shape[0])])
    descriptors = []
    for m in maps:
        covs = region_covariance(m, rects, epsilon=args.epsilon)
        if args.normalize:
            covs = normalize_by_full_window(covs, covs[-1])
        descriptors.append(covs[:-1])
    chosen, scores = select_subwindows(candidates, descriptors, args.select, args.max_overlap)
    payload = {
        "features": args.features,
        "image_shape": shape,
        "selected": [
            {"rect": candidates[j], "score": score,
             "descriptors": [covs[j] for covs in descriptors]}
            for j, score in zip(chosen, scores)
        ],
        "provenance": prov,
    }
    save_json(args.out, payload)
    return EXIT_OK


def _cmd_subspace(args) -> int:
    mat = load_matrix_csv(args.input)
    basis = subspace_from_vectors(mat, args.r)
    if args.out.endswith(".json"):
        save_dataset(args.out, "grassmann", [basis], provenance=_provenance("subspace", args))
    else:
        save_matrix_csv(
            args.out, basis, header_lines=_provenance_lines(_provenance("subspace", args))
        )
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.kind == "spd-blobs":
        points, labels = synth_spd_blobs(
            args.clusters,
            args.per_cluster,
            args.dim,
            seed=args.seed,
            center_scale=args.center_scale,
            noise_scale=args.noise_scale,
        )
        kind = "spd"
    else:
        points, labels = synth_grassmann_clusters(
            args.clusters,
            args.per_cluster,
            args.dim,
            args.subspace_dim,
            seed=args.seed,
            noise_scale=args.noise_scale,
        )
        kind = "grassmann"
    save_dataset(args.out, kind, points, labels=labels, provenance=_provenance("synth", args))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_kernel_flags(sub, manifolds=False):
    if manifolds:
        sub.add_argument("--manifold", choices=("spd", "grassmann", "euclidean"), default=None,
                         help="override the manifold implied by the dataset kind")
    sub.add_argument("--metric", default=None,
                     help="metric name (default: log-euclidean on spd, projection on grassmann)")
    sub.add_argument("--gamma", type=float, default=1.0, help="kernel bandwidth")
    sub.add_argument("--alpha", type=float, default=0.5, help="power-euclidean exponent")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="manikernels", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("definiteness", parents=[], help="randomized kernel definiteness search")
    p.add_argument("--manifold", choices=("spd", "grassmann", "euclidean"), required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--dim", type=int, default=3, help="matrix size d or ambient dimension n")
    p.add_argument("--subspace-dim", type=int, default=2, help="subspace dimension r")
    p.add_argument("--gamma-grid", default="0.01,0.1,1,10,100")
    p.add_argument("--m", type=int, default=40, help="points per trial")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_definiteness)

    p = subs.add_parser("gram", help="Gram matrix of a dataset, with optional audit")
    p.add_argument("--input", required=True)
    _add_kernel_flags(p, manifolds=True)
    p.add_argument("--audit", action="store_true", help="record the smallest eigenvalue")
    p.add_argument("--out", required=True, help=".csv or .json output path")
    p.set_defaults(func=_cmd_gram)

    p = subs.add_parser("cluster", help="kernel k-means on a dataset")
    p.add_argument("--input", required=True)
    _add_kernel_flags(p, manifolds=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cluster)

    p = subs.add_parser("kpca", help="kernel PCA embedding to CSV")
    p.add_argument("--input", required=True)
    _add_kernel_flags(p, manifolds=True)
    p.add_argument("--l", type=int, required=True, help="number of components")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_kpca)

    p = subs.add_parser("kfda", help="kernel FDA projections to CSV")
    p.add_argument("--input", required=True)
    _add_kernel_flags(p, manifolds=True)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--dims", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_kfda)

    p = subs.add_parser("svm-train", help="train a (multiclass) kernel SVM")
    p.add_argument("--input", required=True)
    _add_kernel_flags(p, manifolds=True)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--kkt-tol", type=float, default=1e-3)
    p.add_argument("--mode", choices=("one-vs-all", "one-vs-one"), default="one-vs-all")
    p.add_argument("--cv", type=int, default=0,
                   help="grid-search gamma/C with this many seeded folds")
    p.add_argument("--gamma-grid", default=None, help="gamma candidates for --cv")
    p.add_argument("--c-grid", default=None, help="C candidates for --cv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_svm_train)

    p = subs.add_parser("svm-predict", help="decision values for a test dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True, help="dataset the model was trained on")
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_svm_predict)

    p = subs.add_parser("mkl-train", help="multiple kernel learning over datasets or a gamma grid")
    p.add_argument("--inputs", nargs="+", required=True)
    _add_kernel_flags(p)
    p.add_argument("--gamma-grid", default=None,
                   help="with one input: one kernel per gamma in the grid")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--max-outer", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mkl_train)

    p = subs.add_parser("covdesc", help="region covariance descriptors from images")
    p.add_argument("--inputs", nargs="+", required=True, help="PGM or CSV images")
    p.add_argument("--features", choices=("pedestrian", "texture"), default="pedestrian")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--select", type=int, default=0,
                   help="pick this many low-dispersion subwindows")
    p.add_argument("--max-overlap", type=float, default=0.75)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True,
                   help="rescale subwindow descriptors by the full-window covariance")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_covdesc)

    p = subs.add_parser("subspace", help="dominant subspace of a vector-set CSV")
    p.add_argument("--input", required=True, help="n x p CSV, one descriptor per column")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_subspace)

    p = subs.add_parser("synth", help="seeded synthetic datasets")
    p.add_argument("--kind", choices=("spd-blobs", "grassmann-clusters"), required=True)
    p.add_argument("--clusters", type=int, default=3)
    p.add_argument("--per-cluster", type=int, default=40)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--subspace-dim", type=int, default=2)
    p.add_argument("--center-scale", type=float, default=1.0)
    p.add_argument("--noise-scale", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"manikernels: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"manikernels: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        print(f"manikernels: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
