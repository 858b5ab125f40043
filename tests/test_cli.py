import json
import sys
import warnings
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import manikernels.cli as cli
import manikernels.learn as learn
from manikernels.cli import _model_from_payload, run
from manikernels.data import load_dataset, load_matrix_csv, save_dataset, save_json, synth_spd_blobs
from manikernels.features import candidate_grid
from manikernels.grassmann import make_grassmann
from manikernels.kernels import METRICS, DefinitenessReport, KernelSpec
from manikernels.learn import MulticlassSvmModel, SvmModel
from manikernels.spd import make_spd

from oracles import (
    gram_from_csv,
    gram_from_json,
    grassmann_distance,
    save_dataset_unchecked,
    spd_distance,
    write_pgm,
)


def run_ok(argv):
    code = run(argv)
    assert code == 0, f"exit {code} for {argv}"


def make_blobs_file(path, seed=5):
    run_ok(
        [
            "synth",
            "--kind", "spd-blobs",
            "--clusters", "2",
            "--per-cluster", "8",
            "--dim", "3",
            "--center-scale", "2.0",
            "--noise-scale", "0.1",
            "--seed", str(seed),
            "--out", str(path),
        ]
    )


def test_synth_and_cluster_recover_ground_truth(tmp_path):
    data = tmp_path / "blobs.json"
    labels_csv = tmp_path / "labels.csv"
    make_blobs_file(data)
    truth = load_dataset(data)["labels"]
    run_ok(
        [
            "cluster",
            "--input", str(data),
            "--metric", "log-euclidean",
            "--gamma", "1.0",
            "--k", "2",
            "--seed", "3",
            "--out", str(labels_csv),
        ]
    )
    rows = load_matrix_csv(labels_csv)
    found = rows[:, 1].astype(int)
    agreement = max(np.mean(found == truth), np.mean(found == 1 - truth))
    assert agreement == 1.0
    moves = [line for line in labels_csv.read_text().splitlines() if line.startswith("# n_moves=")]
    assert len(moves) == 1 and int(moves[0].split("=")[1]) >= 0


def test_gram_single_point_csv(tmp_path):
    data = tmp_path / "one.json"
    out = tmp_path / "gram.csv"
    save_dataset(data, "spd", [np.eye(3)])
    run_ok(["gram", "--input", str(data), "--gamma", "1.0", "--out", str(out)])
    gram = gram_from_csv(out)
    np.testing.assert_array_equal(gram.entries, [[1.0]])


def test_gram_json_with_audit(tmp_path):
    data = tmp_path / "blobs.json"
    out = tmp_path / "gram.json"
    make_blobs_file(data)
    run_ok(
        ["gram", "--input", str(data), "--gamma", "0.5", "--audit", "--out", str(out)]
    )
    gram = gram_from_json(out)
    assert gram.size == 16
    assert gram.min_eigen is not None
    assert gram.min_eigen >= -1e-8 * gram.size


def test_definiteness_cli_psd_verdict(tmp_path):
    out = tmp_path / "report.json"
    run_ok(
        [
            "definiteness",
            "--manifold", "spd",
            "--metric", "log-euclidean",
            "--dim", "3",
            "--gamma-grid", "0.01,0.1,1,10,100",
            "--m", "40",
            "--trials", "5",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    report = json.loads(out.read_text())
    assert report["verdict"] == "psd_within_tol"
    assert report["provenance"]["seed"] == 7
    assert set(report) == {f.name for f in fields(DefinitenessReport)} | {"provenance"}


def test_definiteness_cli_witness_verdict(tmp_path):
    out = tmp_path / "report.json"
    run_ok(
        [
            "definiteness",
            "--manifold", "grassmann",
            "--metric", "arc-length",
            "--dim", "5",
            "--subspace-dim", "2",
            "--m", "20",
            "--trials", "50",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    report = json.loads(out.read_text())
    assert report["verdict"] == "witness_found"
    assert report["witness_points"]
    assert set(report) == {f.name for f in fields(DefinitenessReport)} | {"provenance"}


def test_definiteness_cli_points_below_the_spd_floor_exit_2(tmp_path, capsys):
    # the eigenvalues of exp(S) for a Gaussian 200 x 200 S span about
    # e^40, so the smallest falls below the relative SPD floor
    out = tmp_path / "report.json"
    argv = ["definiteness", "--manifold", "spd", "--metric", "log-euclidean", "--dim", "200",
            "--m", "5", "--trials", "2", "--out", str(out)]
    assert run(argv) == 2
    assert "at or below SPD floor" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--manifold", "spd", "--metric", "log-euclidean", "--trials", "0"],
        ["--manifold", "spd", "--metric", "log-euclidean", "--dim", "0"],
        ["--manifold", "grassmann", "--metric", "projection", "--dim", "2", "--subspace-dim", "2"],
        ["--manifold", "grassmann", "--metric", "projection", "--subspace-dim", "0"],
        ["--manifold", "spd", "--metric", "nope", "--trials", "0"],
        ["--manifold", "euclidean", "--metric", "projection"],
        ["--manifold", "bogus", "--metric", "euclidean"],
    ],
)
def test_definiteness_bad_sizes_and_metrics_exit_1_writing_nothing(tmp_path, flags):
    out = tmp_path / "report.json"
    assert run(["definiteness", *flags, "--out", str(out)]) == 1
    assert not out.exists()


def test_kpca_and_kfda_outputs(tmp_path):
    data = tmp_path / "blobs.json"
    make_blobs_file(data)
    kpca_out = tmp_path / "kpca.csv"
    run_ok(["kpca", "--input", str(data), "--gamma", "0.5", "--l", "3", "--out", str(kpca_out)])
    coords = load_matrix_csv(kpca_out)
    assert coords.shape == (16, 3)

    kfda_out = tmp_path / "kfda.csv"
    run_ok(["kfda", "--input", str(data), "--gamma", "0.5", "--out", str(kfda_out)])
    proj = load_matrix_csv(kfda_out)
    assert proj.shape == (16, 1)


def test_kfda_one_class_is_a_data_error(tmp_path, capsys):
    # the exit of svm-train and mkl-train on the same file
    data = tmp_path / "one.json"
    points, _ = synth_spd_blobs(1, 8, 3, seed=2)
    save_dataset(data, "spd", points, labels=[1] * 8)
    out = tmp_path / "kfda.csv"
    assert run(["kfda", "--input", str(data), "--out", str(out)]) == 2
    assert "data error: kernel FDA needs at least two classes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("classes", [(0, 1), (3, 7), (-1, 1)], ids=["0-1", "3-7", "-1-1"])
def test_svm_train_predict_round_trip(tmp_path, classes):
    train = tmp_path / "train.json"
    test = tmp_path / "test.json"
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    full = tmp_path / "full.json"
    make_blobs_file(full, seed=5)
    ds = load_dataset(full)
    labels = np.array(classes)[ds["labels"]]
    save_dataset(train, "spd", ds["items"][::2], labels=labels[::2])
    save_dataset(test, "spd", ds["items"][1::2], labels=labels[1::2])
    run_ok(
        [
            "svm-train",
            "--input", str(train),
            "--metric", "log-euclidean",
            "--gamma", "1.0",
            "--C", "10.0",
            "--out", str(model),
        ]
    )
    payload = json.loads(model.read_text())
    assert payload["type"] == "svm" and payload["classes"] == list(classes)
    n_iter = payload["model"]["n_iter"]
    assert isinstance(n_iter, int) and n_iter >= 1
    assert _model_from_payload(payload)[1].models[0].n_iter == n_iter
    del payload["model"]["n_iter"]  # files written before the counter was saved
    assert _model_from_payload(payload)[1].models[0].n_iter == 0
    predict = ["svm-predict", "--model", str(model), "--train", str(train), "--test", str(test),
               "--out", str(preds)]
    run_ok(predict)
    rows = load_matrix_csv(preds)
    truth = load_dataset(test)["labels"]
    pred = rows[:, 2].astype(int)
    np.testing.assert_array_equal(pred, truth)
    np.testing.assert_array_equal(np.sign(rows[:, 1]), np.where(truth == classes[1], 1.0, -1.0))
    # a decision of exactly 0 goes to the larger class
    payload = json.loads(model.read_text())
    payload["model"]["dual_coefs"] = [0.0] * len(payload["model"]["dual_coefs"])
    payload["model"]["bias"] = 0.0
    model.write_text(json.dumps(payload))  # train_sha256 kept
    run_ok(predict)
    rows = load_matrix_csv(preds)
    np.testing.assert_array_equal(rows[:, 1], 0.0)
    np.testing.assert_array_equal(rows[:, 2], max(classes))


def test_svm_train_honours_manifold_override(tmp_path):
    data = tmp_path / "blobs.json"
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    make_blobs_file(data)
    run_ok(["svm-train", "--input", str(data), "--manifold", "euclidean", "--out", str(model)])
    spec = json.loads(model.read_text())["spec"]
    assert (spec["manifold"], spec["metric"]) == ("euclidean", "euclidean")
    run_ok(["svm-predict", "--model", str(model), "--train", str(data), "--test", str(data),
            "--out", str(preds)])


def test_svm_train_multiclass_and_cv(tmp_path):
    data = tmp_path / "three.json"
    model = tmp_path / "model.json"
    run_ok(
        [
            "synth", "--kind", "spd-blobs", "--clusters", "3", "--per-cluster", "6",
            "--dim", "3", "--center-scale", "2.0", "--noise-scale", "0.1",
            "--seed", "9", "--out", str(data),
        ]
    )
    run_ok(
        [
            "svm-train", "--input", str(data), "--gamma", "1.0", "--C", "10.0",
            "--mode", "one-vs-one", "--out", str(model),
        ]
    )
    payload = json.loads(model.read_text())
    assert payload["type"] == "multiclass-svm"
    assert len(payload["models"]) == 3  # one per class pair

    cv_model = tmp_path / "cv_model.json"
    run_ok(
        [
            "svm-train", "--input", str(data), "--gamma", "1.0", "--C", "10.0",
            "--cv", "3", "--gamma-grid", "0.1,1", "--c-grid", "1,10",
            "--out", str(cv_model),
        ]
    )
    payload = json.loads(cv_model.read_text())
    assert payload["spec"]["gamma"] in (0.1, 1.0)


@pytest.mark.parametrize("classes", [(3, 7), (-1, 1)])
def test_svm_train_cv_binary_picks_the_strict_winner(tmp_path, classes):
    # On this set 4-fold CV scores gamma 0.3, C 1 at 0.9 and every other
    # grid point at 0.825 or less, so a fold scored against the wrong
    # label coding would change the choice.
    points, labels = synth_spd_blobs(2, 20, 3, seed=2, center_scale=0.4, noise_scale=0.5)
    data = tmp_path / "binary.json"
    model = tmp_path / "model.json"
    save_dataset(data, "spd", points, labels=np.array(classes)[labels])
    run_ok(
        [
            "svm-train", "--input", str(data), "--cv", "4", "--gamma-grid", "0.01,0.3,30",
            "--c-grid", "0.01,1,100", "--seed", "3", "--out", str(model),
        ]
    )
    payload = json.loads(model.read_text())
    assert payload["type"] == "svm" and payload["classes"] == list(classes)
    assert payload["spec"]["gamma"] == 0.3
    assert payload["model"]["C"] == 1.0


@pytest.mark.parametrize("mode", ["one-vs-all", "one-vs-one"])
def test_svm_train_cv_audits_once_per_gamma_and_fold(tmp_path, eigvalsh_calls, mode):
    data = tmp_path / "three.json"
    run_ok(
        [
            "synth", "--kind", "spd-blobs", "--clusters", "3", "--per-cluster", "6",
            "--dim", "3", "--center-scale", "2.0", "--noise-scale", "0.1",
            "--seed", "9", "--out", str(data),
        ]
    )
    eigvalsh_calls.clear()
    run_ok(
        [
            "svm-train", "--input", str(data), "--cv", "5", "--gamma-grid", "0.1,1",
            "--c-grid", "1,10", "--mode", mode, "--out", str(tmp_path / "model.json"),
        ]
    )
    # one audit per gamma whatever the folds, C grid, classes and pairs:
    # each fold's Gram is a principal submatrix that carries it, and the
    # final fit reuses the winning gamma's Gram
    assert len(eigvalsh_calls) == 2


def test_svm_train_rejects_indefinite_gram(tmp_path, capsys):
    # Gaussian arc-length Grams of random 2-planes in R^5 at gamma 0.1 are
    # indefinite well past the audit slack, and so is every fold's
    data = tmp_path / "planes.json"
    rng = np.random.default_rng(12)
    planes = [make_grassmann(rng.standard_normal((5, 2))) for _ in range(30)]
    save_dataset(data, "grassmann", planes, labels=[i % 3 for i in range(30)])
    kfda = tmp_path / "kfda.csv"
    capsys.readouterr()
    assert run(["kfda", "--input", str(data), "--metric", "arc-length", "--gamma", "0.1",
                "--out", str(kfda)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: kernel matrix has eigenvalue" in err and "Traceback" not in err, err
    assert not kfda.exists()
    base = ["svm-train", "--input", str(data), "--metric", "arc-length", "--gamma", "0.1"]
    assert run(base + ["--out", str(tmp_path / "m.json")]) == 3
    assert run(base + ["--cv", "2", "--gamma-grid", "0.1", "--out", str(tmp_path / "cv.json")]) == 3
    binary = tmp_path / "planes2.json"
    save_dataset(binary, "grassmann", planes, labels=[i % 2 for i in range(30)])
    assert run(["mkl-train", "--inputs", str(binary), "--metric", "arc-length", "--gamma-grid", "0.1,1",
                "--out", str(tmp_path / "mkl.json")]) == 3


def test_svm_train_cv_skips_indefinite_gammas(tmp_path, capsys):
    # affine-invariant Grams of this set are indefinite at gamma 0.05, and
    # at 0.079 the full Gram is while every fold's Gram is not
    data = tmp_path / "blobs.json"
    run_ok(
        [
            "synth", "--kind", "spd-blobs", "--clusters", "2", "--per-cluster", "12",
            "--dim", "3", "--seed", "1", "--center-scale", "0.7", "--noise-scale", "0.5",
            "--out", str(data),
        ]
    )
    search = ["svm-train", "--input", str(data), "--metric", "affine-invariant", "--cv", "4",
              "--c-grid", "0.1,1,100", "--seed", "3"]
    models = []
    for grid in ("0.05,0.5,5", "0.079,0.5,5", "0.5,5"):
        out = tmp_path / f"model-{grid}.json"
        run_ok([*search, "--gamma-grid", grid, "--out", str(out)])
        payload = json.loads(out.read_text())
        del payload["provenance"]
        models.append(payload)
    assert models[0] == models[1] == models[2]
    out = tmp_path / "none.json"
    capsys.readouterr()
    assert run([*search, "--gamma-grid", "0.05,0.079", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err, err
    assert "gamma 0.05: kernel matrix has eigenvalue -1.113e-03 below -1.8e-07" in err, err
    assert "gamma 0.079: kernel matrix has eigenvalue -6.970e-05 below -2.4e-07" in err, err
    assert not out.exists()


def test_svm_train_cv_without_a_scorable_fold_exits_2(tmp_path, capsys):
    # the two folds are the two classes: every fold trains on one class
    data = tmp_path / "four.json"
    out = tmp_path / "model.json"
    run_ok(["synth", "--kind", "spd-blobs", "--clusters", "2", "--per-cluster", "2", "--dim", "3",
            "--seed", "0", "--out", str(data)])
    assert list(cli._cv_folds(4, 2, 0)) == list(load_dataset(data)["labels"]) == [0, 0, 1, 1]
    capsys.readouterr()
    assert run(["svm-train", "--input", str(data), "--cv", "2", "--gamma-grid", "0.1,1",
                "--c-grid", "1,10", "--seed", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error: no fold of --cv 2" in err and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["kfda", "svm-train", "mkl-train"])
def test_learners_on_a_dataset_without_labels_exit_2(tmp_path, capsys, command):
    data = tmp_path / "unlabeled.json"
    out = tmp_path / "out.json"
    save_dataset(data, "spd", synth_spd_blobs(2, 4, 3, seed=2)[0])
    flag = "--inputs" if command == "mkl-train" else "--input"
    capsys.readouterr()
    assert run([command, flag, str(data), "--out", str(out)]) == 2
    assert f"data error: {command} needs" in capsys.readouterr().err
    assert not out.exists()


def test_manifold_override_checks_items(tmp_path):
    # square 4x4 SPD items are not n x r bases with n > r
    data = tmp_path / "spd4.json"
    run_ok(
        [
            "synth", "--kind", "spd-blobs", "--clusters", "2", "--per-cluster", "6",
            "--dim", "4", "--seed", "3", "--out", str(data),
        ]
    )
    out = tmp_path / "out.csv"
    for command, extra in [
        ("gram", []),
        ("cluster", ["--k", "2"]),
        ("kpca", ["--l", "2"]),
        ("kfda", []),
        ("svm-train", []),
    ]:
        argv = [command, "--input", str(data), "--manifold", "grassmann", *extra, "--out", str(out)]
        assert run(argv) == 2, command
        assert not out.exists(), command


def test_gram_euclidean_override_on_spd_dataset(tmp_path):
    data = tmp_path / "blobs.json"
    out = tmp_path / "gram.json"
    make_blobs_file(data)
    run_ok(
        [
            "gram", "--input", str(data), "--manifold", "euclidean",
            "--gamma", "0.1", "--audit", "--out", str(out),
        ]
    )
    gram = gram_from_json(out)
    assert gram.spec.manifold == "euclidean"
    assert gram.spec.metric == "euclidean"
    assert gram.min_eigen >= -1e-8 * gram.size


#: A small synth set per manifold; the Euclidean metric runs on SPD items.
METRIC_SETS = {
    "spd": ["--kind", "spd-blobs", "--dim", "3"],
    "grassmann": ["--kind", "grassmann-clusters", "--dim", "5", "--subspace-dim", "2"],
    "euclidean": ["--kind", "spd-blobs", "--dim", "3"],
}


@pytest.mark.parametrize("manifold, metric", sorted(METRICS), ids=[f"{a}-{b}" for a, b in sorted(METRICS)])
def test_gram_runs_every_registered_metric(tmp_path, manifold, metric):
    data, out = tmp_path / "data.json", tmp_path / "gram.json"
    run_ok(["synth", *METRIC_SETS[manifold], "--clusters", "2", "--per-cluster", "4",
            "--seed", "1", "--out", str(data)])
    run_ok(["gram", "--input", str(data), "--manifold", manifold, "--metric", metric,
            "--gamma", "0.5", "--out", str(out)])
    gram = gram_from_json(out)
    assert (gram.spec.manifold, gram.spec.metric) == (manifold, metric)
    items = load_dataset(data)["items"]
    for i, x in enumerate(items):
        if manifold == "spd":
            d = spd_distance(metric, x, items)
        elif manifold == "grassmann":
            d = grassmann_distance(metric, x, items)
        else:
            d = np.linalg.norm((items - x).reshape(len(items), -1), axis=1)
        np.testing.assert_allclose(gram.entries[i], np.exp(-0.5 * d**2), rtol=1e-10, err_msg=str(i))


def test_multiclass_svm_predict_round_trip(tmp_path):
    full = tmp_path / "full.json"
    train = tmp_path / "train.json"
    test = tmp_path / "test.json"
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    run_ok(
        [
            "synth", "--kind", "spd-blobs", "--clusters", "3", "--per-cluster", "8",
            "--dim", "3", "--center-scale", "2.0", "--noise-scale", "0.1",
            "--seed", "21", "--out", str(full),
        ]
    )
    ds = load_dataset(full)
    save_dataset(train, "spd", ds["items"][::2], labels=ds["labels"][::2])
    save_dataset(test, "spd", ds["items"][1::2], labels=ds["labels"][1::2])
    run_ok(
        [
            "svm-train", "--input", str(train), "--gamma", "1.0", "--C", "10.0",
            "--mode", "one-vs-one", "--out", str(model),
        ]
    )
    run_ok(
        [
            "svm-predict", "--model", str(model), "--train", str(train),
            "--test", str(test), "--out", str(preds),
        ]
    )
    rows = load_matrix_csv(preds)
    truth = load_dataset(test)["labels"]
    np.testing.assert_array_equal(rows[:, 1].astype(int), truth)


@pytest.mark.parametrize("clusters, mode, n_models", [(2, "one-vs-all", 1), (4, "one-vs-all", 4), (4, "one-vs-one", 6)])
def test_svm_predict_computes_each_decision_once(tmp_path, monkeypatch, clusters, mode, n_models):
    # two classes train one binary model, whose file also holds the decisions
    data, model, preds = tmp_path / "data.json", tmp_path / "model.json", tmp_path / "preds.csv"
    run_ok(["synth", "--kind", "spd-blobs", "--clusters", str(clusters), "--per-cluster", "4",
            "--dim", "3", "--seed", "1", "--out", str(data)])
    run_ok(["svm-train", "--input", str(data), "--gamma", "0.5", "--C", "10", "--mode", mode,
            "--out", str(model)])
    real = learn.svm_decision
    calls = []

    def counting(mdl, cols):
        calls.append(mdl)
        return real(mdl, cols)

    for name, module in list(sys.modules.items()):
        if name.startswith("manikernels") and getattr(module, "svm_decision", None) is real:
            monkeypatch.setattr(module, "svm_decision", counting)
    run_ok(["svm-predict", "--model", str(model), "--train", str(data), "--test", str(data),
            "--out", str(preds)])
    assert len(calls) == n_models
    assert len({id(mdl) for mdl in calls}) == n_models


def test_mkl_train_multiple_inputs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    model = tmp_path / "mkl.json"
    make_blobs_file(a)
    make_blobs_file(b)  # identical second view: any simplex split is optimal
    run_ok(
        [
            "mkl-train", "--inputs", str(a), str(b), "--gamma", "1.0",
            "--C", "5.0", "--out", str(model),
        ]
    )
    payload = json.loads(model.read_text())
    assert len(payload["weights"]) == 2
    assert sum(payload["weights"]) == pytest.approx(1.0, abs=1e-9)
    # gamma-grid expansion only applies to a single input
    assert run(
        [
            "mkl-train", "--inputs", str(a), str(b), "--gamma-grid", "0.1,1",
            "--C", "5.0", "--out", str(model),
        ]
    ) == 1


def test_mkl_train_inputs_with_other_labels_are_a_data_error(tmp_path, capsys):
    a, b, bare = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "bare.json"
    make_blobs_file(a)
    ds = load_dataset(a)
    # the same points, with the labels of two points swapped
    swapped = ds["labels"].copy()
    first_other = int(np.argmax(swapped != swapped[0]))
    swapped[[0, first_other]] = swapped[[first_other, 0]]
    save_dataset(b, "spd", ds["items"], labels=swapped)
    save_dataset(bare, "spd", ds["items"])
    out = tmp_path / "mkl.json"
    assert run(["mkl-train", "--inputs", str(a), str(b), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(a) in err and str(b) in err and "labels" in err
    assert not out.exists()
    # an input without labels takes the labels of the others
    for inputs in ([a, bare], [bare, a]):
        run_ok(["mkl-train", "--inputs", *map(str, inputs), "--out", str(out)])


@pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
def test_mkl_train_inputs_of_other_sizes_name_both(tmp_path, capsys, labelled):
    # sizes are compared before labels, which differ in length too
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, per_cluster in ((a, 4), (b, 5)):
        items, labels = synth_spd_blobs(2, per_cluster, 3, seed=per_cluster)
        save_dataset(path, "spd", items, labels=labels if labelled or path == a else None)
    out = tmp_path / "mkl.json"
    capsys.readouterr()
    assert run(["mkl-train", "--inputs", str(a), str(b), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{a} holds 8 points, {b} holds 10" in err and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("label", [0, 1])
def test_mkl_train_one_class_is_a_data_error(tmp_path, capsys, label):
    data = tmp_path / "one.json"
    items, _ = synth_spd_blobs(1, 8, 3, seed=2)
    save_dataset(data, "spd", items, labels=[label] * 8)
    out = tmp_path / "mkl.json"
    assert run(["mkl-train", "--inputs", str(data), "--gamma-grid", "0.1,1", "--out", str(out)]) == 2
    assert "single class" in capsys.readouterr().err
    assert not out.exists()


def test_mkl_train_three_classes_is_a_data_error(tmp_path, capsys):
    # it was a usage error, "binary SVM needs exactly two label values"
    data = tmp_path / "three.json"
    items, labels = synth_spd_blobs(3, 4, 3, seed=2)
    save_dataset(data, "spd", items, labels=labels)
    out = tmp_path / "mkl.json"
    assert run(["mkl-train", "--inputs", str(data), "--gamma-grid", "0.1,1", "--out", str(out)]) == 2
    assert f"{data} holds 3 classes" in capsys.readouterr().err
    assert not out.exists()


def test_mkl_train_cli(tmp_path):
    data = tmp_path / "blobs.json"
    model = tmp_path / "mkl.json"
    make_blobs_file(data)
    run_ok(
        [
            "mkl-train", "--inputs", str(data), "--gamma-grid", "0.1,1,10",
            "--C", "5.0", "--out", str(model),
        ]
    )
    payload = json.loads(model.read_text())
    weights = payload["weights"]
    assert len(weights) == 3
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    trace = payload["objective_trace"]
    assert all(b <= a + 1e-8 for a, b in zip(trace, trace[1:]))
    assert payload["n_outer"] == len(trace) - 1
    # the file says how the outer loop ended: here on a one-step cap
    run_ok(["mkl-train", "--inputs", str(data), "--gamma-grid", "0.1,1,10", "--C", "10",
            "--max-outer", "1", "--tol", "0", "--out", str(model)])
    payload = json.loads(model.read_text())
    assert (payload["n_outer"], payload["stop"], len(payload["objective_trace"])) == (1, "max-outer", 2)


def test_covdesc_full_window(tmp_path):
    rng = np.random.default_rng(11)
    img = tmp_path / "img.pgm"
    write_pgm(img, rng.integers(0, 255, size=(12, 12)))
    out = tmp_path / "descs.json"
    run_ok(["covdesc", "--inputs", str(img), "--features", "texture", "--out", str(out)])
    ds = load_dataset(out)
    assert ds["kind"] == "spd"
    assert ds["items"][0].shape == (5, 5)
    assert np.linalg.eigvalsh(ds["items"][0])[0] > 0


def test_covdesc_selection(tmp_path):
    rng = np.random.default_rng(12)
    # identical images: every candidate has zero dispersion, so selection
    # walks the stable candidate order and the overlap cap does the pruning
    img = rng.integers(0, 255, size=(15, 15))
    paths = []
    for i in range(3):
        p = tmp_path / f"img{i}.pgm"
        write_pgm(p, img)
        paths.append(str(p))
    out = tmp_path / "sel.json"
    run_ok(
        [
            "covdesc", "--inputs", *paths, "--features", "texture",
            "--select", "3", "--max-overlap", "0.75", "--out", str(out),
        ]
    )
    payload = json.loads(out.read_text())
    assert len(payload["selected"]) == 3
    for entry in payload["selected"]:
        assert len(entry["descriptors"]) == 3


def test_covdesc_select_on_frames_of_unequal_size_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(15)
    paths = [tmp_path / "a.pgm", tmp_path / "b.pgm"]
    write_pgm(paths[0], rng.integers(0, 255, size=(15, 15)))
    write_pgm(paths[1], rng.integers(0, 255, size=(15, 14)))
    out = tmp_path / "sel.json"
    capsys.readouterr()
    assert run(["covdesc", "--inputs", *map(str, paths), "--select", "2", "--out", str(out)]) == 2
    assert "data error: subwindow selection needs equally sized images" in capsys.readouterr().err
    assert not out.exists()


def test_covdesc_no_normalize(tmp_path):
    rng = np.random.default_rng(14)
    img = rng.integers(0, 255, size=(15, 15))
    paths = []
    for i in range(2):
        p = tmp_path / f"img{i}.pgm"
        write_pgm(p, img)
        paths.append(str(p))
    out = tmp_path / "sel.json"
    run_ok(
        [
            "covdesc", "--inputs", *paths, "--features", "texture", "--select", "2",
            "--no-normalize", "--out", str(out),
        ]
    )
    payload = json.loads(out.read_text())
    assert payload["selected"]
    desc = np.array(payload["selected"][0]["descriptors"][0])
    assert np.linalg.eigvalsh(desc)[0] > 0


def count_eigen_matrices(monkeypatch):
    """Matrices passed to ``np.linalg.eigh`` and ``eigvalsh``, counted by
    (function name, matrix size); a stack counts each of its matrices."""
    counts = {}
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _real=real, **kwargs):
            key = (_name, np.shape(a)[-1])
            counts[key] = counts.get(key, 0) + int(np.prod(np.shape(a)[:-2]))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


@pytest.mark.parametrize(
    "command, extra",
    [("gram", []), ("cluster", ["--k", "2"]), ("svm-train", [])],
)
def test_log_euclidean_inputs_are_decomposed_once_per_item(tmp_path, monkeypatch, command, extra):
    # the embedding's eigh checks the floor: no eigvalsh at load before it
    data = tmp_path / "blobs.json"
    make_blobs_file(data)
    counts = count_eigen_matrices(monkeypatch)
    run_ok([command, "--input", str(data), *extra, "--out", str(tmp_path / "out")])
    items = {key: n for key, n in counts.items() if key[1] == 3}
    assert items == {("eigh", 3): 16}


def test_covdesc_select_decomposes_each_descriptor_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(15)
    paths = []
    for i in range(2):
        p = tmp_path / f"img{i}.pgm"
        write_pgm(p, rng.integers(0, 255, size=(12, 14)))
        paths.append(str(p))
    counts = count_eigen_matrices(monkeypatch)
    run_ok(
        [
            "covdesc", "--inputs", *paths, "--features", "texture", "--select", "2",
            "--out", str(tmp_path / "sel.json"),
        ]
    )
    # one eigh per scored descriptor, inside the log that scores it
    assert counts == {("eigh", 5): 2 * len(candidate_grid(12, 14))}


@pytest.mark.parametrize("features", ["pedestrian", "texture"])
def test_flat_image_descriptors_are_checked_where_they_are_used(tmp_path, capsys, features):
    # a flat image leaves zero-variance channels, which an epsilon of
    # 1e-300 does not lift over the floor; normalization rescales them
    img = tmp_path / "flat.pgm"
    write_pgm(img, np.full((12, 12), 7))
    out = tmp_path / "descs.json"
    base = ["covdesc", "--inputs", str(img), str(img), "--features", features, "--epsilon", "1e-300"]
    for extra in ([], ["--select", "2", "--no-normalize"]):
        capsys.readouterr()
        assert run(base + extra + ["--out", str(out)]) == 2, extra
        assert "at or below SPD floor" in capsys.readouterr().err
        assert not out.exists()
    run_ok(base + ["--select", "2", "--out", str(out)])
    selected = json.loads(out.read_text())["selected"]
    assert len(selected) == 2
    for entry in selected:
        make_spd(entry["descriptors"])


def test_subspace_cli(tmp_path):
    rng = np.random.default_rng(13)
    mat = rng.standard_normal((8, 5))
    src = tmp_path / "vectors.csv"
    with open(src, "w") as fh:
        for row in mat:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    out = tmp_path / "basis.csv"
    run_ok(["subspace", "--input", str(src), "--r", "2", "--out", str(out)])
    basis = load_matrix_csv(out)
    assert basis.shape == (8, 2)
    np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-10)
    # a .json output is a one-item Grassmann dataset of the same basis
    run_ok(["subspace", "--input", str(src), "--r", "2", "--out", str(tmp_path / "basis.json")])
    ds = load_dataset(tmp_path / "basis.json")
    assert ds["kind"] == "grassmann"
    np.testing.assert_array_equal(ds["items"], [basis])


def test_file_formats_follow_the_suffix_in_any_case(tmp_path):
    # gram and subspace write JSON, and covdesc reads PGM, whatever the case
    # of the suffix; the output path stays out of the file
    data, vectors = tmp_path / "blobs.json", tmp_path / "vectors.csv"
    make_blobs_file(data)
    np.savetxt(vectors, np.random.default_rng(13).standard_normal((8, 5)), delimiter=",")
    for argv in (["gram", "--input", str(data), "--gamma", "0.5"],
                 ["subspace", "--input", str(vectors), "--r", "2"]):
        for name in ("out.json", "out.JSON"):
            run_ok([*argv, "--out", str(tmp_path / name)])
        lower, upper = ((tmp_path / name).read_bytes() for name in ("out.json", "out.JSON"))
        assert upper == lower and json.loads(upper)
    raster = np.random.default_rng(14).uniform(0, 255, size=(24, 16))
    for name in ("w.pgm", "w.PGM"):
        write_pgm(tmp_path / name, raster)
        run_ok(["covdesc", "--inputs", str(tmp_path / name), "--features", "texture",
                "--out", str(tmp_path / f"{name}.json")])
    lower, upper = (load_dataset(tmp_path / f"{name}.json")["items"] for name in ("w.pgm", "w.PGM"))
    np.testing.assert_array_equal(upper, lower)


def test_reproducibility_byte_identical(tmp_path):
    data = tmp_path / "blobs.json"
    make_blobs_file(data)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["cluster", "--input", str(data), "--gamma", "1.0", "--k", "2", "--seed", "1"]
    run_ok(argv + ["--out", str(out1)])
    run_ok(argv + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()

    rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = [
        "definiteness", "--manifold", "spd", "--metric", "root-stein",
        "--dim", "3", "--m", "15", "--trials", "20", "--seed", "3",
    ]
    run_ok(argv + ["--out", str(rep1)])
    run_ok(argv + ["--out", str(rep2)])
    assert rep1.read_bytes() == rep2.read_bytes()


def test_gram_rejects_non_finite_vectors(tmp_path):
    data = tmp_path / "vectors.json"
    out = tmp_path / "g.csv"
    save_dataset_unchecked(data, "vectors", [np.zeros(2), np.array([np.inf, 1.0])])
    assert run(["gram", "--input", str(data), "--out", str(out)]) == 2
    assert not out.exists()


def test_gram_rejects_nan_spd_item_as_non_finite(tmp_path, capsys):
    data = tmp_path / "spd.json"
    save_dataset_unchecked(data, "spd", [np.eye(2), np.array([[1.0, 0.0], [0.0, np.nan]])])
    assert run(["gram", "--input", str(data), "--out", str(tmp_path / "g.csv")]) == 2
    err = capsys.readouterr().err
    assert "NaN or infinite" in err and "eigenvalue" not in err


def test_svm_predict_rejects_other_training_set(tmp_path, capsys):
    datasets = []
    for seed in (0, 1):
        path = tmp_path / f"blobs{seed}.json"
        run_ok(
            [
                "synth", "--kind", "spd-blobs", "--clusters", "2", "--per-cluster", "40",
                "--dim", "3", "--seed", str(seed), "--out", str(path),
            ]
        )
        datasets.append(str(path))
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    run_ok(["svm-train", "--input", datasets[0], "--out", str(model)])
    predict = ["svm-predict", "--model", str(model), "--test", datasets[0], "--out", str(preds)]
    run_ok(predict + ["--train", datasets[0]])
    assert run(predict + ["--train", datasets[1]]) == 2
    # a test set of other points, or of another kind, names both datasets
    other = tmp_path / "other.json"
    preds.unlink()
    for synth in (["--kind", "spd-blobs", "--dim", "4"],
                  ["--kind", "grassmann-clusters", "--dim", "5", "--subspace-dim", "2"]):
        run_ok(["synth", *synth, "--clusters", "2", "--per-cluster", "3", "--out", str(other)])
        capsys.readouterr()
        assert run(["svm-predict", "--model", str(model), "--train", datasets[0], "--test", str(other),
                    "--out", str(preds)]) == 2
        err = capsys.readouterr().err
        assert f"--train {datasets[0]}" in err and f"--test {other}" in err, err
        assert not preds.exists()
    payload = json.loads(model.read_text())
    del payload["train_sha256"]
    model.write_text(json.dumps(payload))
    assert run(predict + ["--train", datasets[0]]) == 2


def test_exit_codes(tmp_path):
    # usage errors
    assert run(["definiteness", "--manifold", "spd"]) == 1  # missing --metric
    assert run(["cluster", "--bogus-flag"]) == 1
    data = tmp_path / "blobs.json"
    make_blobs_file(data)
    assert run(
        ["gram", "--input", str(data), "--gamma", "-1", "--out", str(tmp_path / "g.csv")]
    ) == 1
    # data errors
    assert run(
        ["gram", "--input", str(tmp_path / "missing.json"), "--out", str(tmp_path / "g.csv")]
    ) == 2
    bad = tmp_path / "bad.json"
    save_dataset(bad, "spd", [np.zeros((2, 2)) - np.eye(2)])
    assert run(["gram", "--input", str(bad), "--out", str(tmp_path / "g.csv")]) == 2
    # numerical failure: duplicated points per class with zero ridge
    dup = tmp_path / "dup.json"
    save_dataset(
        dup,
        "spd",
        [np.eye(2), np.eye(2), 2 * np.eye(2), 2 * np.eye(2)],
        labels=[0, 0, 1, 1],
    )
    assert run(
        [
            "kfda", "--input", str(dup), "--gamma", "1.0", "--ridge", "0.0",
            "--out", str(tmp_path / "f.csv"),
        ]
    ) == 3


def test_spd_items_that_are_not_matrices_exit_2(tmp_path):
    # each stack would pass as SPD if it were read as one matrix, or as a
    # stack of matrices: three unit vectors stack to the identity
    data = tmp_path / "bad.json"
    out = tmp_path / "g.csv"
    for items in ([np.stack([np.eye(3)] * 3)] * 3, list(np.eye(3))):
        save_dataset(data, "spd", items)
        assert run(["gram", "--input", str(data), "--out", str(out)]) == 2
        assert not out.exists()


def test_svm_train_grid_without_cv_is_refused_before_the_input_is_read(tmp_path, capsys):
    # a grid without --cv was ignored: the model took --gamma and --C
    out = tmp_path / "model.json"
    assert run(["svm-train", "--input", str(tmp_path / "missing.json"), "--gamma-grid", "0.1,1",
                "--out", str(out)]) == 1
    assert "--cv" in capsys.readouterr().err
    assert not out.exists()


def test_grid_flags_that_are_not_numbers_exit_1(tmp_path):
    data = tmp_path / "blobs.json"
    out = tmp_path / "out.json"
    make_blobs_file(data)
    svm = ["svm-train", "--input", str(data), "--cv", "2", "--out", str(out)]
    for argv in [
        [*svm, "--gamma-grid", "0.1,abc"],
        [*svm, "--c-grid", "1,x"],
        ["definiteness", "--manifold", "spd", "--metric", "log-euclidean", "--gamma-grid", "1,x",
         "--out", str(out)],
        ["mkl-train", "--inputs", str(data), "--gamma-grid", "x", "--out", str(out)],
    ]:
        assert run(argv) == 1, argv
        assert not out.exists()


def test_non_finite_c_and_grid_values_exit_1(tmp_path):
    # they exited 0, writing NaN or Infinity into the model file
    data = tmp_path / "blobs.json"
    out = tmp_path / "out.json"
    make_blobs_file(data)
    svm = ["svm-train", "--input", str(data), "--out", str(out)]
    for argv in [
        [*svm, "--C", "nan"],
        [*svm, "--C", "inf"],
        [*svm, "--cv", "2", "--c-grid", "1,nan"],
        [*svm, "--cv", "2", "--c-grid", "inf"],
        [*svm, "--cv", "2", "--gamma-grid", "0.1,inf"],
        ["mkl-train", "--inputs", str(data), "--C", "nan", "--out", str(out)],
    ]:
        assert run(argv) == 1, argv
        assert not out.exists()


BAD_NUMERIC_VALUES = [
    (1, ["svm-train", "--kkt-tol", "nan"], ["kkt_tol", "nan"]),
    (1, ["svm-train", "--kkt-tol", "-1"], ["kkt_tol", "-1.0"]),
    (1, ["svm-train", "--cv", "2", "--kkt-tol", "nan"], ["kkt_tol", "nan"]),
    (1, ["kfda", "--ridge", "nan"], ["ridge", "nan"]),
    (1, ["kfda", "--ridge", "inf"], ["ridge", "inf"]),
    (1, ["mkl-train", "--tol", "nan"], ["tol", "nan"]),
    (1, ["mkl-train", "--max-outer", "-3"], ["max_outer_iter", "-3"]),
    (1, ["covdesc", "--epsilon", "nan"], ["epsilon", "nan"]),
    (1, ["covdesc", "--epsilon", "inf"], ["epsilon", "inf"]),
    (1, ["definiteness", "--metric", "power-euclidean", "--alpha", "nan"], ["alpha", "nan"]),
    (1, ["definiteness", "--metric", "log-euclidean", "--alpha", "0"], ["alpha", "0.0"]),
    (1, ["definiteness", "--metric", "log-euclidean", "--seed", "-1"], ["seed", "-1"]),
    (1, ["cluster", "--k", "2", "--seed", "-1"], ["seed", "-1"]),
    (1, ["svm-train", "--cv", "2", "--seed", "-1"], ["seed", "-1"]),
    (1, ["svm-train", "--cv", "1"], ["--cv needs at least 2 folds, got 1"]),
    (1, ["svm-train", "--gamma-grid", "0.1,1"], ["--gamma-grid", "--cv"]),
    (1, ["svm-train", "--c-grid", "5"], ["--c-grid", "--cv"]),
    (1, ["svm-train", "--cv", "0", "--gamma-grid", "0.1,1", "--c-grid", "5"], ["--cv"]),
    (1, ["synth", "--kind", "spd-blobs", "--seed", "-1"], ["seed", "-1"]),
    # the metric was dropped for the manifold's own, while provenance kept it
    (1, ["gram", "--manifold", "euclidean", "--metric", "affine-invariant"],
     ["'affine-invariant' is not defined on manifold 'euclidean'"]),
    # --r below 1 is refused before the input (here not a CSV file) is read
    (1, ["subspace", "--r", "0"], ["--r must be at least 1, got 0"]),
    (1, ["subspace", "--r", "-1"], ["--r must be at least 1, got -1"]),
    (3, ["gram", "--metric", "power-euclidean", "--alpha", "1000"], ["non-finite"]),
    (3, ["gram", "--metric", "power-euclidean", "--alpha", "1e200"], ["non-finite"]),
    (3, ["gram", "--metric", "power-euclidean", "--alpha", "1e-200"], ["scale inf"]),
    (3, ["cluster", "--k", "2", "--metric", "power-euclidean", "--alpha", "1000"], ["non-finite"]),
    (3, ["definiteness", "--metric", "power-euclidean", "--alpha", "1000"], ["non-finite"]),
    (2, ["synth", "--kind", "spd-blobs", "--center-scale", "1e300"], ["item 0", "NaN or infinite"]),
    (2, ["synth", "--kind", "grassmann-clusters", "--dim", "4", "--noise-scale", "inf"],
     ["item 0", "NaN or infinite"]),
    (2, ["synth", "--kind", "spd-blobs", "--center-scale", "nan"], ["item 0", "NaN or infinite"]),
    (2, ["synth", "--kind", "spd-blobs", "--center-scale", "inf"], ["item 0", "NaN or infinite"]),
    (2, ["synth", "--kind", "grassmann-clusters", "--noise-scale", "nan"], ["item 0", "NaN or infinite"]),
]


@pytest.mark.parametrize(
    "code, argv, words", BAD_NUMERIC_VALUES, ids=["_".join(argv) for _, argv, _ in BAD_NUMERIC_VALUES]
)
def test_bad_numeric_values_exit_without_traceback_or_output(tmp_path, capsys, code, argv, words):
    # the SMO ran to its cap, NaN reached an eigensolver or an SVD, numpy
    # rejected the seed, or the file was written with NaN or Infinity tokens;
    # numpy floating-point warnings printed lines above the message
    data = tmp_path / "blobs.json"
    make_blobs_file(data)
    write_pgm(tmp_path / "img.pgm", np.random.default_rng(1).uniform(0, 255, (16, 12)))
    inputs = {
        "definiteness": ["--manifold", "spd", "--m", "10", "--trials", "2"],
        "covdesc": ["--inputs", str(tmp_path / "img.pgm")],
        "mkl-train": ["--inputs", str(data)],
        "synth": [],
    }.get(argv[0], ["--input", str(data)])
    out = tmp_path / "out.csv"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([*argv, *inputs, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # one message line, below the usage block of an argparse error
    message = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
    assert len(message) == 1 and not caught, (err, [str(w.message) for w in caught])
    for word in words:
        assert word in err, err
    assert not out.exists()


def _assert_data_error(argv, path, words, capsys):
    capsys.readouterr()
    assert run(argv) == 2, argv
    err = capsys.readouterr().err
    assert "data error" in err and str(path) in err and "Traceback" not in err, err
    for word in words:
        assert word in err, err


def test_malformed_dataset_and_model_files_exit_2_naming_file_and_key(tmp_path, capsys):
    data = tmp_path / "blobs.json"
    make_blobs_file(data)
    payload = json.loads(data.read_text())
    bad = tmp_path / "bad.json"
    out = tmp_path / "out.csv"
    gram = ["gram", "--input", str(bad), "--out", str(out)]
    for key in ("shape", "items"):
        bad.write_text(json.dumps({k: v for k, v in payload.items() if k != key}))
        _assert_data_error(gram, bad, [repr(key)], capsys)
    non_numeric = json.loads(data.read_text())
    non_numeric["items"][2][1][0] = "abc"
    bad.write_text(json.dumps(non_numeric))
    _assert_data_error(gram, bad, ["abc"], capsys)
    for text in ("{not json", "[1, 2]"):
        bad.write_text(text)
        _assert_data_error(gram, bad, [], capsys)

    model = tmp_path / "model.json"
    run_ok(["svm-train", "--input", str(data), "--out", str(model)])
    good = json.loads(model.read_text())
    predict = ["svm-predict", "--model", str(bad), "--train", str(data), "--test", str(data),
               "--out", str(out)]
    for key, drop in [
        ("spec", lambda p: p.pop("spec")),
        ("gamma", lambda p: p["spec"].pop("gamma")),
        ("bias", lambda p: p["model"].pop("bias")),
    ]:
        broken = json.loads(json.dumps(good))
        drop(broken)
        bad.write_text(json.dumps(broken))
        _assert_data_error(predict, bad, [repr(key)], capsys)
    assert not out.exists()


def test_out_of_range_file_values_exit_2_naming_the_file(tmp_path, capsys):
    data = tmp_path / "blobs.json"
    make_blobs_file(data)
    model = tmp_path / "model.json"
    run_ok(["svm-train", "--input", str(data), "--out", str(model)])
    bad = tmp_path / "bad.json"
    out = tmp_path / "out.csv"
    predict = ["svm-predict", "--model", str(bad), "--train", str(data), "--test", str(data),
               "--out", str(out)]
    for key, value in (("gamma", -1), ("metric", "bogus")):
        broken = json.loads(model.read_text())
        broken["spec"][key] = value
        bad.write_text(json.dumps(broken))
        _assert_data_error(predict, bad, [str(value)], capsys)
    dataset = json.loads(data.read_text())
    dataset["kind"] = "nope"
    bad.write_text(json.dumps(dataset))
    _assert_data_error(["gram", "--input", str(bad), "--out", str(out)], bad, ["'nope'"], capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "clusters, breaks, words",
    [
        (3, lambda p: p["models"].pop(), ["3 models, pairs and index sets"]),
        (3, lambda p: p["pair_indices"][1].__setitem__(0, 999), ["pair index"]),
        (2, lambda p: p.update(classes=[5]), ["2 distinct classes"]),
        (2, lambda p: p["model"].update(support_indices=[99]), ["support indices"]),
        (3, lambda p: p.update(classes=[0, 0, 1]), ["got [0, 0, 1]"]),
    ],
    ids=["one-model-missing", "pair-index-999", "one-class", "support-index-99", "repeated-class"],
)
def test_svm_predict_rejects_inconsistent_models_naming_the_file(
    tmp_path, capsys, clusters, breaks, words
):
    data = tmp_path / "blobs.json"
    run_ok(["synth", "--kind", "spd-blobs", "--clusters", str(clusters), "--per-cluster", "4",
            "--dim", "3", "--seed", "4", "--out", str(data)])
    model = tmp_path / "model.json"
    run_ok(["svm-train", "--input", str(data), "--mode", "one-vs-one", "--out", str(model)])
    payload = json.loads(model.read_text())
    breaks(payload)
    model.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    predict = ["svm-predict", "--model", str(model), "--train", str(data), "--test", str(data),
               "--out", str(out)]
    _assert_data_error(predict, model, words, capsys)
    assert not out.exists()


def _drop_last_coef(raw):
    """Remove the last dual coefficient, keeping the support indices in range."""
    raw["dual_coefs"].pop()
    raw["support_indices"] = [i for i in raw["support_indices"] if i < len(raw["dual_coefs"])]


@pytest.mark.parametrize(
    "clusters, mode, breaks, words",
    [
        (2, "one-vs-all", lambda p: p["model"].update(bias=float("nan")), ["bias must be finite"]),
        (2, "one-vs-all", lambda p: p["model"]["dual_coefs"].__setitem__(0, float("inf")),
         ["dual_coefs must be finite"]),
        (2, "one-vs-all", lambda p: p["model"].update(kkt_violation=float("nan")),
         ["kkt_violation must be finite"]),
        (2, "one-vs-all", lambda p: p["model"].update(C=0), ["C must be positive and finite"]),
        (2, "one-vs-all", lambda p: p["model"].update(C=float("inf")), ["C must be positive and finite"]),
        (3, "one-vs-one", lambda p: p["models"][2].update(bias=float("-inf")), ["bias must be finite"]),
        (2, "one-vs-all", lambda p: _drop_last_coef(p["model"]), ["11 dual_coefs for 12 training points"]),
        (3, "one-vs-all", lambda p: _drop_last_coef(p["models"][1]),
         ["17 dual_coefs for 18 training points"]),
    ],
    ids=["nan-bias", "inf-dual-coef", "nan-kkt-violation", "zero-C", "inf-C", "ovo-inf-bias",
         "binary-short-dual-coefs", "ova-short-dual-coefs"],
)
def test_svm_predict_rejects_bad_model_values_naming_the_file(
    tmp_path, capsys, clusters, mode, breaks, words
):
    data = tmp_path / "blobs.json"
    run_ok(["synth", "--kind", "spd-blobs", "--clusters", str(clusters), "--per-cluster", "6",
            "--dim", "3", "--seed", "4", "--out", str(data)])
    model = tmp_path / "model.json"
    run_ok(["svm-train", "--input", str(data), "--C", "10", "--mode", mode, "--out", str(model)])
    payload = json.loads(model.read_text())
    breaks(payload)
    model.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    predict = ["svm-predict", "--model", str(model), "--train", str(data), "--test", str(data),
               "--out", str(out)]
    _assert_data_error(predict, model, words, capsys)
    assert not out.exists()


def test_unknown_model_and_spec_keys_exit_2_naming_the_file(tmp_path, capsys):
    data = tmp_path / "blobs.json"
    make_blobs_file(data)
    model = tmp_path / "model.json"
    run_ok(["svm-train", "--input", str(data), "--out", str(model)])
    bad = tmp_path / "bad.json"
    out = tmp_path / "out.csv"
    predict = ["svm-predict", "--model", str(bad), "--train", str(data), "--test", str(data),
               "--out", str(out)]
    for part in ("model", "spec"):
        broken = json.loads(model.read_text())
        broken[part]["extra"] = 1
        bad.write_text(json.dumps(broken))
        _assert_data_error(predict, bad, ["'extra'"], capsys)
    assert not out.exists()


# Fields of a valid file that numpy would coerce or misread: each exits 2,
# naming the file, without a traceback. The dataset has 16 items in two
# classes; an "ovo-model" row breaks a one-vs-one model of three classes.
COERCED_FIELDS = [
    ("model", lambda p: p["model"].update(dual_coefs=[[v] for v in p["model"]["dual_coefs"]]),
     ["dual_coefs", "(16, 1)"]),
    ("model", lambda p: p["model"].update(support_indices=[[0]]), ["support_indices", "(1, 1)"]),
    ("model", lambda p: p["spec"].update(gamma=True), ["gamma", "True"]),
    ("model", lambda p: p["spec"].update(alpha=True), ["alpha", "True"]),
    ("dataset", lambda p: p.update(labels=[0.5, 1.7] * 8), ["labels", "fractional"]),
    ("dataset", lambda p: p.update(labels=[True, False] * 8), ["labels", "bool"]),
    ("dataset", lambda p: p.update(labels=[True] + [1] * 15), ["labels", "bool"]),
    ("dataset", lambda p: p.update(labels=["0", "1"] * 8), ["labels", "string"]),
    ("dataset", lambda p: p.update(labels=[1e20] + [1] * 15), ["labels", "int64 range"]),
    ("dataset", lambda p: p.update(count=99), ["count 99", "16 items"]),
    ("dataset", lambda p: p.update(count=16.5), ["count", "fractional"]),
    ("dataset", lambda p: p.update(count=True), ["count", "bool"]),
    ("dataset", lambda p: p["items"][0][0].__setitem__(0, True), ["items", "bool True"]),
    ("dataset", lambda p: p["items"][0][0].__setitem__(0, "1.0"), ["items", "string '1.0'"]),
    ("model", lambda p: p["model"]["support_indices"].__setitem__(0, 0.5),
     ["support_indices", "0.5, a fractional"]),
    ("model", lambda p: p["model"].update(n_iter=1.5), ["n_iter", "1.5, a fractional"]),
    ("model", lambda p: p["model"].update(C=True), ["C: expected", "bool True"]),
    ("model", lambda p: p["model"].update(bias=True), ["bias", "bool True"]),
    ("model", lambda p: p["model"].update(kkt_violation="0.5"), ["kkt_violation", "string '0.5'"]),
    ("model", lambda p: p["model"].update(dual_coefs=[str(v) for v in p["model"]["dual_coefs"]]),
     ["dual_coefs", "string"]),
    ("model", lambda p: p.update(classes=[0.5, 1.5]), ["classes", "0.5, a fractional"]),
    ("model", lambda p: p.update(classes=[False, True]), ["classes", "bool False"]),
    ("model", lambda p: p["spec"].update(gamma="0.5"), ["gamma", "string '0.5'"]),
    ("ovo-model", lambda p: p["pair_indices"][0].__setitem__(0, 0.5), ["pair_indices", "0.5, a fractional"]),
    ("ovo-model", lambda p: p["pairs"][0].__setitem__(0, 0.5), ["pairs", "0.5, a fractional"]),
    ("ovo-model", lambda p: p.update(pairs=[pair + pair[:1] for pair in p["pairs"]]), ["pairs", "(3, 3)"]),
]


@pytest.mark.parametrize(
    "part, breaks, words", COERCED_FIELDS,
    ids=["2d-dual-coefs", "2d-support-indices", "bool-gamma", "bool-alpha", "fractional-labels",
         "bool-labels", "one-bool-label", "string-labels", "huge-label", "count-99",
         "fractional-count", "bool-count", "bool-item", "string-item", "fractional-support-index",
         "fractional-n-iter", "bool-C", "bool-bias", "string-kkt-violation", "string-dual-coefs",
         "fractional-classes", "bool-classes", "string-gamma", "fractional-pair-index",
         "fractional-pair-class", "three-column-pairs"],
)
def test_coerced_file_fields_exit_2_naming_the_file(tmp_path, capsys, part, breaks, words):
    data = tmp_path / "blobs.json"
    if part == "ovo-model":
        run_ok(["synth", "--kind", "spd-blobs", "--clusters", "3", "--per-cluster", "4", "--dim", "3",
                "--seed", "4", "--out", str(data)])
    else:
        make_blobs_file(data)
    model = tmp_path / "model.json"
    # two classes make a binary model whatever --mode says
    run_ok(["svm-train", "--input", str(data), "--mode", "one-vs-one", "--out", str(model)])
    bad = tmp_path / "bad.json"
    payload = json.loads((data if part == "dataset" else model).read_text())
    breaks(payload)
    bad.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    if part != "dataset":
        argvs = [["svm-predict", "--model", str(bad), "--train", str(data), "--test", str(data)]]
    else:
        argvs = [["gram", "--input", str(bad)], ["svm-train", "--input", str(bad)]]
    for argv in argvs:
        _assert_data_error([*argv, "--out", str(out)], bad, words, capsys)
        assert not out.exists()


def _assert_same(got, want):
    """Equal values; arrays of the same dtype; dataclasses field by field."""
    if is_dataclass(want):
        assert type(got) is type(want)
        for f in fields(want):
            _assert_same(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same(a, b)
    else:
        assert got == want


@pytest.mark.parametrize(
    "clusters, mode", [(2, "one-vs-all"), (3, "one-vs-all"), (3, "one-vs-one")]
)
def test_svm_model_files_decode_to_the_trained_models(tmp_path, monkeypatch, clusters, mode):
    data = tmp_path / "blobs.json"
    model_file = tmp_path / "model.json"
    run_ok(
        [
            "synth", "--kind", "spd-blobs", "--clusters", str(clusters), "--per-cluster", "6",
            "--dim", "3", "--center-scale", "2.0", "--noise-scale", "0.1",
            "--seed", "9", "--out", str(data),
        ]
    )
    trained = []

    def record(*args, train=cli.multiclass_svm_train, **kwargs):
        trained.append(train(*args, **kwargs))
        return trained[-1]

    monkeypatch.setattr(cli, "multiclass_svm_train", record)
    run_ok(
        ["svm-train", "--input", str(data), "--C", "10", "--mode", mode, "--out", str(model_file)]
    )
    text = model_file.read_text()
    payload = json.loads(text)
    spec, model = _model_from_payload(payload)
    assert len(trained) == 1
    _assert_same(model, trained[0])
    assert spec == KernelSpec("spd", "log-euclidean", 1.0)
    assert set(payload["spec"]) == {f.name for f in fields(KernelSpec)}
    if clusters == 2:
        # the label count picks the reduction, and --mode is not written
        assert model.mode == "binary" and "mode" not in payload
        raw_models = [payload["model"]]
        rewritten = {**payload, "spec": spec, "model": model.models[0]}
    else:
        raw_models = payload["models"]
        decoded = {k: v for k, v in vars(model).items() if v is not None}
        assert set(decoded) <= set(payload)
        if mode == "one-vs-one":
            assert set(decoded) == {f.name for f in fields(MulticlassSvmModel)}
        rewritten = {**payload, "spec": spec, **decoded}
    assert all(set(raw) == {f.name for f in fields(SvmModel)} for raw in raw_models)
    again = tmp_path / "again.json"
    save_json(again, rewritten)
    assert again.read_text() == text


def test_unparsable_images_exit_2(tmp_path, capsys):
    image = tmp_path / "img.pgm"
    out = tmp_path / "desc.json"
    for raw in [b"P2\n4 x\n255\n", b"P2\n4", b"P5\n4 4\n255\n\x00\x01",
                b"P3\n2 2\n255\n" + b"1 " * 12, b"P2\n3 3\n255\n1 2 3 4 5 6 7 8\n",
                b"P2\n3#c 2\n255\n" + b"1 " * 6, b"P5\n2 2\n65535\n\x00\x01\x02",
                # header values out of range, and raster values above maxval
                b"P2\n-2 -3\n255\n" + b"1 " * 6, b"P2\n3 3\n0\n" + b"0 " * 9,
                b"P2\n3 3\n255\n1 2 3 4 999 6 7 8 9\n",
                b"P5\n3 3\n1000\n" + b"\x00\x01" * 8 + b"\x03\xe9"]:
        image.write_bytes(raw)
        _assert_data_error(["covdesc", "--inputs", str(image), "--out", str(out)], image, [], capsys)
    table = tmp_path / "img.csv"
    table.write_text("1,2,3\n4,a,6\n7,8,9\n")
    _assert_data_error(["covdesc", "--inputs", str(table), "--out", str(out)], table, [], capsys)
    assert not out.exists()


def test_non_finite_csv_inputs_exit_2_naming_the_file(tmp_path, capsys):
    rng = np.random.default_rng(15)
    table = tmp_path / "in.csv"
    for bad in ("nan", "inf"):
        rows = [[repr(float(v)) for v in row] for row in rng.uniform(1.0, 9.0, size=(8, 6))]
        rows[5][2] = bad
        table.write_text("".join(",".join(row) + "\n" for row in rows))
        for command, out in [
            (["covdesc", "--inputs", str(table)], tmp_path / "desc.json"),
            (["covdesc", "--inputs", str(table), "--select", "2"], tmp_path / "sel.json"),
            (["subspace", "--input", str(table), "--r", "2"], tmp_path / "basis.csv"),
            (["subspace", "--input", str(table), "--r", "2"], tmp_path / "basis.json"),
        ]:
            _assert_data_error(command + ["--out", str(out)], table, ["NaN or infinite"], capsys)
            assert not out.exists()


def test_dataset_items_checked_as_one_stack_exit_2(tmp_path, capsys):
    data = tmp_path / "blobs.json"
    make_blobs_file(data)
    bad = tmp_path / "bad.json"
    out = tmp_path / "g.csv"
    gram = ["gram", "--input", str(bad), "--out", str(out)]
    ragged = json.loads(data.read_text())
    ragged["items"][3] = ragged["items"][3][:2]
    bad.write_text(json.dumps(ragged))
    _assert_data_error(gram, bad, [], capsys)
    non_finite = json.loads(data.read_text())
    non_finite["items"][9][1][2] = float("nan")
    non_finite["items"][12][0][0] = float("inf")
    bad.write_text(json.dumps(non_finite))
    _assert_data_error(gram, bad, ["item 9 ", "NaN or infinite"], capsys)
    assert not out.exists()


def test_svm_predict_rejects_models_of_other_types(tmp_path, capsys):
    data = tmp_path / "blobs.json"
    make_blobs_file(data)
    mkl = tmp_path / "mkl.json"
    run_ok(["mkl-train", "--inputs", str(data), "--gamma-grid", "0.1,1", "--out", str(mkl)])
    out = tmp_path / "pred.csv"
    predict = ["svm-predict", "--train", str(data), "--test", str(data), "--out", str(out)]
    _assert_data_error(predict + ["--model", str(mkl)], mkl, ["'mkl-svm'"], capsys)
    model = tmp_path / "model.json"
    run_ok(["svm-train", "--input", str(data), "--out", str(model)])
    payload = json.loads(model.read_text())
    payload["type"] = "bogus"
    model.write_text(json.dumps(payload))
    _assert_data_error(predict + ["--model", str(model)], model, ["'bogus'"], capsys)
    assert not out.exists()


def test_internal_errors_are_not_reported_as_data_errors(tmp_path, monkeypatch):
    import manikernels.cli as cli

    data = tmp_path / "blobs.json"
    make_blobs_file(data)
    for error in (KeyError, ValueError):
        def broken(args, error=error):
            raise error("a fault of the program")

        monkeypatch.setattr(cli, "_cmd_gram", broken)
        with pytest.raises(error):
            run(["gram", "--input", str(data), "--out", str(tmp_path / "g.csv")])
