import json
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import manikernels.cli as cli
from manikernels.cli import _model_from_payload, run
from manikernels.data import load_dataset, load_matrix_csv, save_dataset, save_json, synth_spd_blobs
from manikernels.grassmann import make_grassmann
from manikernels.kernels import DefinitenessReport, KernelSpec
from manikernels.learn import MulticlassSvmModel, SvmModel

from oracles import gram_from_csv, gram_from_json, write_pgm


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


def test_svm_train_predict_round_trip(tmp_path):
    train = tmp_path / "train.json"
    test = tmp_path / "test.json"
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    full = tmp_path / "full.json"
    make_blobs_file(full, seed=5)
    ds = load_dataset(full)
    save_dataset(train, "spd", ds["items"][::2], labels=ds["labels"][::2])
    save_dataset(test, "spd", ds["items"][1::2], labels=ds["labels"][1::2])
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
    assert payload["type"] == "svm"
    n_iter = payload["model"]["n_iter"]
    assert isinstance(n_iter, int) and n_iter >= 1
    assert _model_from_payload(payload)[1].n_iter == n_iter
    del payload["model"]["n_iter"]  # files written before the counter was saved
    assert _model_from_payload(payload)[1].n_iter == 0
    run_ok(
        [
            "svm-predict",
            "--model", str(model),
            "--train", str(train),
            "--test", str(test),
            "--out", str(preds),
        ]
    )
    rows = load_matrix_csv(preds)
    truth = load_dataset(test)["labels"]
    pred = rows[:, 2].astype(int)
    np.testing.assert_array_equal(pred, truth)


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


def test_svm_train_rejects_indefinite_gram(tmp_path):
    # Gaussian arc-length Grams of random 2-planes in R^5 at gamma 0.1 are
    # indefinite well past the audit slack, and so is every fold's
    data = tmp_path / "planes.json"
    rng = np.random.default_rng(12)
    planes = [make_grassmann(rng.standard_normal((5, 2))) for _ in range(30)]
    save_dataset(data, "grassmann", planes, labels=[i % 3 for i in range(30)])
    base = ["svm-train", "--input", str(data), "--metric", "arc-length", "--gamma", "0.1"]
    assert run(base + ["--out", str(tmp_path / "m.json")]) == 3
    assert run(base + ["--cv", "2", "--gamma-grid", "0.1", "--out", str(tmp_path / "cv.json")]) == 3
    binary = tmp_path / "planes2.json"
    save_dataset(binary, "grassmann", planes, labels=[i % 2 for i in range(30)])
    assert run(["mkl-train", "--inputs", str(binary), "--metric", "arc-length", "--gamma-grid", "0.1,1",
                "--out", str(tmp_path / "mkl.json")]) == 3


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
    save_dataset(data, "vectors", [np.zeros(2), np.array([np.inf, 1.0])])
    assert run(["gram", "--input", str(data), "--out", str(out)]) == 2
    assert not out.exists()


def test_gram_rejects_nan_spd_item_as_non_finite(tmp_path, capsys):
    data = tmp_path / "spd.json"
    save_dataset(data, "spd", [np.eye(2), np.array([[1.0, 0.0], [0.0, np.nan]])])
    assert run(["gram", "--input", str(data), "--out", str(tmp_path / "g.csv")]) == 2
    err = capsys.readouterr().err
    assert "NaN or infinite" in err and "eigenvalue" not in err


def test_svm_predict_rejects_other_training_set(tmp_path):
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


def _assert_data_error(argv, path, words, capsys):
    capsys.readouterr()
    assert run(argv) == 2, argv
    err = capsys.readouterr().err
    assert "data error" in err and str(path) in err, err
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
    ],
    ids=["one-model-missing", "pair-index-999", "one-class", "support-index-99"],
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
    for name in ("svm_train", "multiclass_svm_train"):
        def record(*args, train=getattr(cli, name), **kwargs):
            trained.append(train(*args, **kwargs))
            return trained[-1]

        monkeypatch.setattr(cli, name, record)
    run_ok(
        ["svm-train", "--input", str(data), "--C", "10", "--mode", mode, "--out", str(model_file)]
    )
    text = model_file.read_text()
    payload = json.loads(text)
    spec, model, _ = _model_from_payload(payload)
    _assert_same(model, trained[0])
    assert spec == KernelSpec("spd", "log-euclidean", 1.0)
    assert set(payload["spec"]) == {f.name for f in fields(KernelSpec)}
    if clusters == 2:
        raw_models = [payload["model"]]
        rewritten = {**payload, "spec": spec, "model": model}
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
                b"P3\n2 2\n255\n" + b"1 " * 12, b"P2\n3 3\n255\n1 2 3 4 5 6 7 8\n"]:
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
