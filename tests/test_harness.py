import csv
import inspect
import json
import logging
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dappr import gradcheck, harness, loss, nn
from dappr.cli import main
from dappr.datasets import (LabeledDataset, gaussian_blobs, long_tail_resample,
                            ood_generator)
from dappr.harness import (
    FINETUNE_LR,
    SPLIT_SEED,
    ExperimentConfig,
    VerifyReport,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    emit_alpha0_histogram,
    generate_ood,
    load_config,
    make_splits,
    run_eval,
    run_lambda_sweep,
    run_longtail,
    run_probe,
    run_scaling,
    run_standard,
    run_train,
    run_verify,
    train_config,
)
from dappr.loss import LossConfig
from dappr.nn import NetworkParams, forward, save_checkpoint, train
from fixtures import save_csv
from oracles import row_uncertainties, soft_label_finetune, total_cross_entropy


TINY_CONFIG = {
    "dataset": {"n_classes": 3, "n_per_class": 20, "n_features": 2,
                "spread": 1.0, "seed": 7},
    "model": {"hidden": [8], "epochs": 3, "batch_size": 16},
    "seeds": [1],
}


def tiny_config(tmp_path, **overrides):
    return config_from_dict({**TINY_CONFIG, "out": str(tmp_path / "out"), **overrides})


# ---------------------------------------------------------------------------
# config plumbing


def test_config_roundtrips_through_json():
    cfg = ExperimentConfig(seeds=(9,), ood=("shifted_blobs",))
    data = json.loads(json.dumps(config_to_dict(cfg)))
    assert data["ood"] == ["shifted_blobs"]
    assert config_from_dict(data) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="bogus"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ValueError, match="model"):
        config_from_dict({"model": {"hiden": [8]}})
    with pytest.raises(ValueError):
        config_from_dict({"ood": {"kind": "uniform_box"}})  # must be a list
    with pytest.raises(ValueError):
        config_from_dict({"dataset": {"kind": "imagenet"}})


def test_config_coerces_lists_to_tuples():
    cfg = config_from_dict({"seeds": [4, 5], "model": {"hidden": [16, 16]},
                            "scaling_sizes": [10, 20]})
    assert cfg.seeds == (4, 5)
    assert cfg.model.hidden == (16, 16)
    assert cfg.scaling_sizes == (10, 20)


def test_load_config_reports_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_config(path)


def test_apply_overrides():
    cfg = ExperimentConfig()
    out = apply_overrides(cfg, seed=42, out="elsewhere")
    assert out == replace(cfg, seeds=(42,), out="elsewhere")
    # the config file holds every loss setting; no flag overrides one
    assert list(inspect.signature(apply_overrides).parameters) == ["cfg", "seed", "out"]
    untouched = apply_overrides(cfg)
    assert untouched == cfg


def test_generate_ood_n_defaulting():
    # every set is drawn at seed 11; the default blobs have the generator's
    # default geometry and 2 features
    cfg = ExperimentConfig()
    for kind in cfg.ood:
        assert np.array_equal(generate_ood(cfg, kind, 60, 4), ood_generator(kind, 60, 4, 11))
        assert np.array_equal(generate_ood(cfg, kind, 17), ood_generator(kind, 17, 2, 11))


# ---------------------------------------------------------------------------
# runners (tiny configs: a few epochs, dozens of points)


def test_run_train_writes_artifacts(tmp_path):
    cfg = tiny_config(tmp_path)
    report = run_train(cfg)
    out = tmp_path / "out"
    assert (out / "checkpoint.json").exists()
    assert (out / "history.csv").exists()
    assert (out / "report.json").exists()
    assert report["experiment"] == "train"
    assert report["epochs_run"] == 3
    assert 0.0 <= report["final_val_accuracy"] <= 100.0
    header = (out / "history.csv").read_text().splitlines()[0]
    assert header == ("epoch,train_loss,val_accuracy,val_mean_alpha0,lam_t,"
                      "train_surrogate,train_regulariser,train_vacuous")
    # the default warmup schedule over the run's 3 epochs
    with open(out / "history.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["lam_t"]) for r in rows] == [0.0, 2e-4, 4e-4]
    # the weight is the one loss setting; its floor and warm-up are constants
    on_disk = json.loads((out / "report.json").read_text())
    assert set(on_disk["config"]["loss"]) == set(report["config"]["loss"]) == {"lam"}


def test_run_eval_reads_checkpoint_back(tmp_path):
    cfg = tiny_config(tmp_path)
    run_train(cfg)
    report = run_eval(cfg, tmp_path / "out" / "checkpoint.json")
    metrics = report["metrics"]
    assert set(metrics) == {"accuracy", "confidence_aupr", "ece", "mean_alpha0_id"}
    assert 0.0 <= metrics["accuracy"] <= 100.0
    assert 0.0 <= metrics["ece"] <= 100.0
    assert (tmp_path / "out" / "reliability.csv").exists()


def test_run_eval_reliability_csv_blanks_empty_bins(tmp_path):
    # a 2-2 network with zero weights gives alpha = (a, a), confidence 0.5 and
    # the prediction 0 on every row; the 0.8/0/0.2 split of five 0s and two 1s
    # puts exactly one row, a 0, into the test part
    save_csv(LabeledDataset(np.arange(14.0).reshape(7, 2), np.array([0] * 5 + [1] * 2), 2),
             tmp_path / "data.csv")
    save_checkpoint(NetworkParams((2, 2), [np.zeros((2, 2))], [np.zeros(2)], 0, "dappr"),
                    tmp_path / "zero.json")
    cfg = tiny_config(tmp_path, dataset={"kind": "csv", "path": str(tmp_path / "data.csv")},
                      split_fractions=[0.8, 0.0, 0.2])
    run_eval(cfg, tmp_path / "zero.json")
    lines = (tmp_path / "out" / "reliability.csv").read_text().strip().split("\n")
    assert lines[0] == "bin_low,bin_high,mean_conf,accuracy,count"
    assert len(lines) == 1 + 15
    empties = [ln for ln in lines[1:] if ln.endswith(",,,0")]
    assert len(empties) == 14
    full = [ln for ln in lines[1:] if not ln.endswith(",0")]
    assert len(full) == 1 and full[0].endswith("0.5,1.0,1")


def test_run_eval_rejects_mismatched_checkpoint(tmp_path):
    cfg = tiny_config(tmp_path)
    run_train(cfg)
    wide = tiny_config(tmp_path, dataset={"n_classes": 3, "n_per_class": 20,
                                          "n_features": 4, "seed": 7})
    with pytest.raises(ValueError, match="shape"):
        run_eval(wide, tmp_path / "out" / "checkpoint.json")


def test_run_standard_single_seed_report(tmp_path):
    cfg = tiny_config(tmp_path)
    report = run_standard(cfg)
    assert report["experiment"] == "standard"
    assert "std" not in report  # single seed: no spread to report
    assert [s["seed"] for s in report["per_seed"]] == [1]
    mean = report["mean"]
    assert 0.0 <= mean["accuracy"] <= 100.0
    assert 0.0 <= mean["ece"] <= 100.0
    assert mean["mean_alpha0_id"] > 3.0  # softplus+1 head: alpha0 > K
    assert set(mean["ood"]) == {"uniform_box", "shifted_blobs"}
    for entry in mean["ood"].values():
        assert 0.0 <= entry["aupr"] <= 100.0
        assert 0.0 <= entry["auroc"] <= 100.0
    out = tmp_path / "out"
    for name in ("report.json", "reliability.csv", "alpha0_histogram.csv",
                 "checkpoint_seed1.json"):
        assert (out / name).exists()
    on_disk = json.loads((out / "report.json").read_text())
    assert "run_info" in on_disk and "runtime_seconds" in on_disk["run_info"]


def test_write_report_records_numpy_and_blas_versions_under_run_info(tmp_path):
    report = {"experiment": "standard", "mean": {"accuracy": 90.0}}
    on_disk = json.loads(harness.write_report(report, tmp_path, 1.5).read_text())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    run_info = on_disk.pop("run_info")
    assert run_info["runtime_seconds"] == 1.5
    assert run_info["numpy"] == np.__version__
    assert run_info["blas"] == {"name": blas["name"], "version": blas["version"]}
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    assert run_info["simd"] == {"baseline": simd["baseline"], "found": simd["found"]}
    assert on_disk == report


def _assert_no_nan(node):
    if isinstance(node, dict):
        for v in node.values():
            _assert_no_nan(v)
    elif isinstance(node, list):
        for v in node:
            _assert_no_nan(v)
    elif isinstance(node, float):
        assert not math.isnan(node)


def test_run_standard_multi_seed_has_std(tmp_path):
    cfg = tiny_config(tmp_path, seeds=[1, 2])
    report = run_standard(cfg)
    assert len(report["per_seed"]) == 2
    assert "accuracy" in report["std"]
    assert set(report["std"]["ood"]) == {"uniform_box", "shifted_blobs"}
    _assert_no_nan(report)


def test_run_standard_deterministic(tmp_path):
    a = run_standard(tiny_config(tmp_path, out=str(tmp_path / "a")))
    b = run_standard(tiny_config(tmp_path, out=str(tmp_path / "b")))
    assert a["per_seed"] == b["per_seed"]
    assert a["mean"] == b["mean"]
    assert a["alpha0_histogram"] == b["alpha0_histogram"]


def test_run_scaling_curve_ordering(tmp_path):
    cfg = tiny_config(tmp_path, scaling_sizes=[12, 24, 48])
    report = run_scaling(cfg)
    assert [row["size"] for row in report["curve"]] == [12, 24, 48]
    assert len(report["per_run"]) == 3
    for row in report["curve"]:
        assert row["mean_epistemic"] > 0.0
        assert 0.0 <= row["mean_accuracy"] <= 100.0
    assert (tmp_path / "out" / "scaling.csv").exists()


def test_run_scaling_rejects_oversized_request(tmp_path, monkeypatch):
    def fit(*args):
        raise AssertionError("a model trained before every size was checked")

    monkeypatch.setattr(harness, "_fit", fit)
    for sizes in ([5000], [12, 5000]):
        with pytest.raises(ValueError, match="exceeds"):
            run_scaling(tiny_config(tmp_path, scaling_sizes=sizes))
    # a size below 1 is refused as soon as the config is built
    with pytest.raises(ValueError, match=r"scaling_sizes must be >= 1, got \[12, 0\]"):
        run_scaling(tiny_config(tmp_path, scaling_sizes=[12, 0]))


def test_run_longtail_counts_and_per_class(tmp_path):
    cfg = tiny_config(tmp_path, longtail_rho=0.25)
    report = run_longtail(cfg)
    counts = report["train_counts"]
    assert len(counts) == 3
    assert counts[0] == 16  # 80% train split of 20 per class
    assert counts[0] > counts[1] > counts[2] >= 1
    assert len(report["per_class"]) == 3
    for row in report["per_class"]:
        assert row["mean_alpha0"] > 0.0
    assert (tmp_path / "out" / "longtail.csv").exists()


# enough training for the tiny runs to separate classes and lambdas
TRAINED_MODEL = {"hidden": [8], "epochs": 20, "batch_size": 16, "learning_rate": 1e-2}


def test_run_longtail_matches_direct_computation(tmp_path):
    cfg = tiny_config(tmp_path, seeds=[1, 2], longtail_rho=0.25, model=TRAINED_MODEL)
    report = run_longtail(cfg)

    train_ds, val_ds, test_ds = make_splits(cfg)
    tail = long_tail_resample(train_ds, cfg.longtail_rho, SPLIT_SEED)
    accs, class_acc, class_alpha0 = [], np.zeros(3), np.zeros(3)
    for seed in cfg.seeds:
        params, _ = train(tail.features, tail.labels, val_ds.features, val_ds.labels,
                          train_config(cfg, seed, tail.dim, tail.n_classes))
        logits = forward(params, test_ds.features)
        predictions = np.argmax(logits, axis=1)
        alpha0 = np.sum(np.logaddexp(0.0, logits) + 1.0, axis=1)
        accs.append(100.0 * np.mean(predictions == test_ds.labels))
        for k in range(3):
            members = test_ds.labels == k
            class_acc[k] += 100.0 * np.mean(predictions[members] == k) / len(cfg.seeds)
            class_alpha0[k] += np.mean(alpha0[members]) / len(cfg.seeds)

    assert report["train_counts"] == tail.class_counts().tolist()
    assert [r["accuracy"] for r in report["per_seed"]] == pytest.approx(accs, rel=1e-12)
    assert report["mean"]["accuracy"] == pytest.approx(np.mean(accs), rel=1e-12)
    assert report["std"]["accuracy"] == pytest.approx(np.std(accs, ddof=1),
                                                      rel=1e-9, abs=1e-12)
    per_class = report["per_class"]
    assert [r["class"] for r in per_class] == [0, 1, 2]
    assert [r["test_accuracy"] for r in per_class] == pytest.approx(class_acc, rel=1e-12)
    assert [r["mean_alpha0"] for r in per_class] == pytest.approx(class_alpha0, rel=1e-9)
    lines = (tmp_path / "out" / "longtail.csv").read_text().splitlines()
    assert lines[0] == "class,train_count,test_accuracy,mean_alpha0"
    assert [[float(v) for v in line.split(",")] for line in lines[1:]] == [
        [r["class"], r["train_count"], r["test_accuracy"], r["mean_alpha0"]]
        for r in per_class]


def test_run_lambda_sweep_report_and_csv(tmp_path):
    cfg = tiny_config(tmp_path, seeds=[1, 2], model=TRAINED_MODEL,
                      sweep_lambdas=[0.0, 0.5])
    report = run_lambda_sweep(cfg)
    assert report["experiment"] == "sweep"
    assert report["ood_set"] == "uniform_box"  # the first configured set
    rows = report["per_run"]
    assert [(r["lambda"], r["seed"]) for r in rows] == [(0.0, 1), (0.0, 2),
                                                       (0.5, 1), (0.5, 2)]
    for point in report["curve"]:
        mine = [r for r in rows if r["lambda"] == point["lambda"]]
        assert point["mean_accuracy"] == np.mean([r["accuracy"] for r in mine])
        assert point["mean_ood_aupr"] == np.mean([r["ood_aupr"] for r in mine])
    assert [p["lambda"] for p in report["curve"]] == [0.0, 0.5]

    # one lambda of the sweep is the standard run at that lambda, bit for bit
    standard = run_standard(replace(cfg, loss=LossConfig(lam=0.5), out=str(tmp_path / "std")))
    assert [(r["accuracy"], r["ood_aupr"]) for r in rows[2:]] == [
        (s["accuracy"], s["ood"]["uniform_box"]["aupr"]) for s in standard["per_seed"]]

    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda,seed,accuracy,ood_aupr"
    assert [[float(v) for v in line.split(",")] for line in lines[1:]] == [
        [r["lambda"], r["seed"], r["accuracy"], r["ood_aupr"]] for r in rows]


def test_run_lambda_sweep_needs_an_ood_set(tmp_path, capsys):
    cfg = tiny_config(tmp_path, ood=[])
    with pytest.raises(ValueError, match="needs at least one ood entry"):
        run_lambda_sweep(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "needs at least one ood entry" in line


def test_run_probe_rows_and_determinism(tmp_path):
    probe = {"n_probed": 2, "n_perturbations": 1, "finetune_epochs": 1}
    cfg = tiny_config(tmp_path, dataset={"n_per_class": 10, "seed": 7},
                      probe=probe)
    report = run_probe(cfg)
    assert len(report["per_sample"]) == 2
    for row in report["per_sample"]:
        assert row["s_x"] >= 0.0
        assert row["loo_loss_true"] > 0.0
        assert row["ratio"] == row["s_x"] / row["loo_loss_true"]
    assert report["median_ratio"] == float(
        np.median([r["ratio"] for r in report["per_sample"]]))
    assert (tmp_path / "out" / "probe.csv").exists()

    again = run_probe(tiny_config(tmp_path, dataset={"n_per_class": 10, "seed": 7},
                                  probe=probe, out=str(tmp_path / "again")))
    assert again["per_sample"] == report["per_sample"]


def test_run_probe_equals_one_network_at_a_time_oracle(tmp_path):
    # The probe fine-tunes each sample's copies as one stack; every value must
    # equal fine-tuning deep copies one by one with per-array Adam, bit for bit.
    probe = {"n_probed": 3, "n_perturbations": 3, "finetune_epochs": 2}
    cfg = tiny_config(tmp_path, dataset={"n_per_class": 12, "seed": 7},
                      model={"hidden": [8, 8], "epochs": 3, "batch_size": 8},
                      probe=probe)
    report = run_probe(cfg)

    spec = cfg.dataset
    ds = gaussian_blobs(spec.n_classes, spec.n_per_class, spec.n_features,
                        spec.spread, spec.seed)
    tc = train_config(cfg, cfg.seeds[0], ds.dim, ds.n_classes)
    base, _ = train(ds.features, ds.labels, ds.features, ds.labels,
                    replace(tc, loss_kind="cross_entropy"))
    rng = np.random.default_rng(cfg.probe.seed)
    rows = []
    for x_idx in np.sort(rng.choice(ds.n, size=cfg.probe.n_probed, replace=False)):
        rest_x, rest_y = np.delete(ds.features, x_idx, axis=0), np.delete(ds.labels, x_idx)

        def loo_loss(target):
            tuned = soft_label_finetune(base.weights, base.biases, rest_x, rest_y,
                                        ds.features[x_idx], target,
                                        cfg.probe.finetune_epochs, FINETUNE_LR,
                                        cfg.probe.seed, cfg.model.batch_size)
            return total_cross_entropy(*tuned, rest_x, rest_y)

        l_true = loo_loss(np.eye(ds.n_classes)[ds.labels[x_idx]])
        s_x = max([0.0] + [abs(loo_loss(rng.dirichlet(np.ones(ds.n_classes))) - l_true)
                           for _ in range(cfg.probe.n_perturbations)])
        rows.append({"sample": int(x_idx), "loo_loss_true": l_true, "s_x": s_x,
                     "ratio": s_x / l_true})
    assert report["per_sample"] == rows
    assert all(r["s_x"] > 0.0 for r in rows)


def test_run_probe_rejects_oversized_probe(tmp_path):
    cfg = tiny_config(tmp_path, dataset={"n_per_class": 3},
                      probe={"n_probed": 100})
    with pytest.raises(ValueError, match="probe"):
        run_probe(cfg)


@pytest.mark.parametrize("loss_kind", ["dappr", "cross_entropy"])
def test_evaluate_seed_scores_each_row_set_once_through_the_layer_loop(
        monkeypatch, loss_kind):
    # evaluate_seed looks model_uncertainties up as a harness global and calls
    # it as (params, x) once per row set, with the caller's own arrays; that
    # call is the row set's only forward, and every forward goes through
    # nn._forward_cached, the one layer loop
    params = nn.init_network((2, 8, 3), seed=1, loss_kind=loss_kind)
    test = gaussian_blobs(3, 10, 2, 1.0, 5)
    box = np.random.default_rng(6).uniform(-8.0, 8.0, size=(25, 2))
    scored, forwards, layer_loops = [], [], []
    original_scores = harness.model_uncertainties
    original_forward = harness.forward
    original_loop = nn._forward_cached

    def capture(params, x):
        scored.append(x)
        return original_scores(params, x)

    def counted_forward(params, x):
        forwards.append(x)
        return original_forward(params, x)

    def counted_loop(params, x):
        layer_loops.append(x)
        return original_loop(params, x)

    monkeypatch.setattr(harness, "model_uncertainties", capture)
    monkeypatch.setattr(harness, "forward", counted_forward)
    monkeypatch.setattr(nn, "_forward_cached", counted_loop)
    result, _ = harness.evaluate_seed(params, test, {"uniform_box": box})
    assert [id(x) for x in scored] == [id(test.features), id(box)]
    assert [id(x) for x in forwards] == [id(test.features), id(box)]
    assert len(layer_loops) == len(forwards)
    assert set(result["ood"]) == {"uniform_box"}


@pytest.mark.parametrize("loss_kind", ["dappr", "cross_entropy"])
def test_evaluate_seed_scores_rows_larger_than_a_block_with_the_same_calls(
        monkeypatch, loss_kind):
    # row sets of more than one forward block keep evaluate_seed's calls:
    # model_uncertainties once per row set on the caller's own arrays, one
    # forward per row set, and each forward runs the layer loop once per block
    block = nn._BLOCK_ROWS
    params = nn.init_network((2, 8, 3), seed=1, loss_kind=loss_kind)
    test = gaussian_blobs(3, block // 3 + 1, 2, 1.0, 5)
    box = np.random.default_rng(6).uniform(-8.0, 8.0, size=(2 * block + 5, 2))
    scored, forwards, layer_loops = [], [], []
    original_scores = harness.model_uncertainties
    original_forward = harness.forward
    original_loop = nn._forward_cached

    def capture(params, x):
        scored.append(x)
        return original_scores(params, x)

    def counted_forward(params, x):
        before = len(layer_loops)
        logits = original_forward(params, x)
        forwards.append((x.shape[0], len(layer_loops) - before))
        return logits

    def counted_loop(params, x):
        layer_loops.append(x)
        return original_loop(params, x)

    monkeypatch.setattr(harness, "model_uncertainties", capture)
    monkeypatch.setattr(harness, "forward", counted_forward)
    monkeypatch.setattr(nn, "_forward_cached", counted_loop)
    result, _ = harness.evaluate_seed(params, test, {"uniform_box": box})
    assert test.n > block
    assert [id(x) for x in scored] == [id(test.features), id(box)]
    assert [n for n, _ in forwards] == [test.n, box.shape[0]]
    assert [loops for _, loops in forwards] == [math.ceil(n / block) for n, _ in forwards]
    assert set(result["ood"]) == {"uniform_box"}


@pytest.mark.parametrize("k", [3, 10])
@pytest.mark.parametrize("loss_kind", ["dappr", "cross_entropy"])
def test_model_uncertainties_equal_numpy_reductions_bit_for_bit(loss_kind, k):
    # more than one forward block of rows, some far enough out that softmax
    # underflows to exact zeros; every value is the plain numpy reduction's.
    # The zero row's logits are the output biases, and class 1's lies so
    # little above the rest that softmax and softplus(z) + 1 tie it with
    # class 0: only the logits' argmax predicts class 1 there
    block = nn._BLOCK_ROWS
    params = nn.init_network((2, 16, k), seed=3, loss_kind=loss_kind)
    params.biases[-1][1] = 1e-300
    rng = np.random.default_rng(11)
    x = rng.normal(size=(block + 37, 2)) * rng.choice([1.0, 40.0, 400.0], size=(block + 37, 1))
    x[0] = 0.0
    got = harness.model_uncertainties(params, x)
    want = row_uncertainties(forward(params, x), loss_kind)
    if loss_kind == "cross_entropy":
        assert np.any(want[1] == 0.0)  # the 0 log 0 = 0 rows are reached
    assert len(got) == len(want) + 1
    for g, w in zip(got, want):
        assert g.shape == w.shape == (x.shape[0],)
        assert np.array_equal(g, w)
    assert np.array_equal(got[4], np.argmax(forward(params, x), axis=1))
    assert got[4][0] == 1


# ---------------------------------------------------------------------------
# verification gate


def test_run_verify_all_green():
    report = run_verify()
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == []
    assert all(ok for _, ok, _ in report.checks)
    assert len(report.checks) >= 10


def test_verify_catches_tampered_metric(monkeypatch):
    monkeypatch.setattr(harness, "aupr", lambda labels, scores: 0.123)
    report = run_verify()
    assert not all(ok for _, ok, _ in report.checks)
    bad = {name for name, ok, _ in report.checks if not ok}
    assert "metric_examples" in bad


def test_verify_catches_tampered_gradient(monkeypatch):
    real = gradcheck.relative_error
    monkeypatch.setattr(gradcheck, "relative_error",
                        lambda a, b: real(a, b) + 1.0)
    report = run_verify()
    bad = {name for name, ok, _ in report.checks if not ok}
    assert {"gradient_loss_level", "gradient_end_to_end"} <= bad


def test_verify_catches_a_wrong_maximiser(monkeypatch):
    # training and verify share one closed-form maximiser: tilting p* toward
    # the label moves the loss and fails the grid check
    real = loss.closed_form_maximiser

    def tilted(alpha, y):
        p = real(alpha, y) + 0.1 * y
        return p / p.sum(axis=-1, keepdims=True)

    z, labels = np.array([[0.3, -1.2, 2.0], [1.0, 0.5, -0.4]]), np.array([2, 0])
    before = loss.dappr_loss(z, labels).value
    monkeypatch.setattr(loss, "closed_form_maximiser", tilted)
    monkeypatch.setattr(gradcheck, "closed_form_maximiser", tilted)
    assert loss.dappr_loss(z, labels).value != pytest.approx(before, rel=1e-3)
    bad = {name for name, ok, _ in run_verify().checks if not ok}
    assert "closed_form_vs_grid" in bad


def test_verify_catches_a_wrong_background_gradient(monkeypatch):
    # every dappr training step runs the vacuous-evidence penalty on its
    # background rows; a 1% error in that gradient must fail the step check
    real = nn.vacuous_evidence_penalty

    def scaled(logits):
        value, grad = real(logits)
        return value, 1.01 * grad

    monkeypatch.setattr(nn, "vacuous_evidence_penalty", scaled)
    bad = {name for name, ok, _ in run_verify().checks if not ok}
    assert "gradient_end_to_end" in bad


def test_every_runner_writes_csv_fields_that_read_as_numbers(tmp_path):
    cfg = tiny_config(tmp_path, scaling_sizes=[12, 24], sweep_lambdas=[0.0, 0.5],
                      probe={"n_probed": 2, "n_perturbations": 1, "finetune_epochs": 1})
    run_train(cfg)
    checkpoint = tmp_path / "out" / "checkpoint.json"
    runs = {"eval": lambda c: run_eval(c, checkpoint), "standard": run_standard,
            "scaling": run_scaling, "longtail": run_longtail, "sweep": run_lambda_sweep,
            "probe": run_probe}
    for name, run in runs.items():
        run(replace(cfg, out=str(tmp_path / name)))
    paths = sorted(tmp_path.glob("*/*.csv"))
    assert {p.name for p in paths} == {
        "history.csv", "reliability.csv", "alpha0_histogram.csv", "scaling.csv",
        "longtail.csv", "sweep.csv", "probe.csv"}
    for path in paths:
        header, *lines = path.read_text().splitlines()
        assert lines, path
        for line in lines:
            fields = line.split(",")
            assert len(fields) == len(header.split(",")), (path, line)
            for value in fields:
                if value:
                    float(value)  # raises on np.float64(...) and other reprs


# ---------------------------------------------------------------------------
# histogram emitter


def test_alpha0_histogram_disjoint_supports(tmp_path):
    path = tmp_path / "hist.csv"
    summary = emit_alpha0_histogram([1.0, 1.1, 1.2], [9.0, 9.1, 9.2], path)
    assert summary["min"] == 1.0 and summary["max"] == 9.2
    id_counts = np.array(summary["id_counts"])
    ood_counts = np.array(summary["ood_counts"])
    assert id_counts.sum() == 3 and ood_counts.sum() == 3
    # disjoint supports end up in disjoint bins
    assert not np.any((id_counts > 0) & (ood_counts > 0))
    assert id_counts[:3].sum() == 3 and ood_counts[-3:].sum() == 3
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_low,bin_high,count_id,count_ood"
    assert len(lines) == 1 + 30


def test_alpha0_histogram_degenerate_range_warns(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="dappr"):
        summary = emit_alpha0_histogram([2.0, 2.0], [2.0], tmp_path / "h.csv")
    assert any("degenerate" in rec.message for rec in caplog.records)
    assert summary["id_counts"][0] == 2 and summary["ood_counts"][0] == 1
    with pytest.raises(ValueError):
        emit_alpha0_histogram([], [1.0], tmp_path / "h2.csv")


# ---------------------------------------------------------------------------
# CLI


def test_cli_verify_exits_zero(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "checks passed" in out


@pytest.mark.parametrize("flags", [["--config", "/nonexistent.json"], ["--seed", "3"],
                                   ["--out", "x"], ["--lambda", "0.1"],
                                   ["--schedule", "warmup"], ["--eps", "0.1"]])
def test_cli_verify_rejects_runner_flags(flags, capsys):
    # verify reads no config, so a flag it would ignore is an argument error
    assert main(["verify", *flags]) == 1
    captured = capsys.readouterr()
    line = _single_error_line(captured.err)
    assert "unrecognized arguments" in line and flags[0] in line
    assert "[PASS]" not in captured.out


def test_cli_bad_arguments_exit_one(capsys):
    assert main(["no_such_command"]) == 1
    assert main(["train", "--config", "/nonexistent/cfg.json"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def _single_error_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "Traceback" not in err
    return lines[0]


def test_config_rejects_wrong_types():
    with pytest.raises(ValueError, match=r"model\.epochs must be int, got '60'"):
        config_from_dict({"model": {"epochs": "60"}})
    with pytest.raises(ValueError, match=r"loss\.lam must be float"):
        config_from_dict({"loss": {"lam": True}})
    with pytest.raises(ValueError, match=r"config\.seeds must be tuple\[int, \.\.\.\]"):
        config_from_dict({"seeds": [1, "2"]})
    with pytest.raises(ValueError, match=r"config\.ood must be tuple\[str, \.\.\.\]"):
        config_from_dict({"ood": ["uniform_box", 1.5]})
    with pytest.raises(ValueError, match=r"config\.split_fractions"):
        config_from_dict({"split_fractions": [0.5, 0.5]})
    # JSON ints are valid floats; None fills optional fields
    cfg = config_from_dict({"loss": {"lam": 0}, "dataset": {"path": None}})
    assert cfg.loss.lam == 0 and cfg.dataset.path is None


@pytest.mark.parametrize("data, key", [
    pytest.param({"model": {"learning_rate": math.nan}}, "model.learning_rate",
                 id="data0-model.learning_rate"),
    pytest.param({"loss": {"lam": math.inf}}, "loss.lam", id="data1-loss.lam"),
    pytest.param({"loss": {"lam": 10 ** 400}}, "loss.lam", id="data2-loss.lam"),
    pytest.param({"dataset": {"spread": math.nan}}, "dataset.spread", id="data3-dataset.spread"),
    pytest.param({"longtail_rho": math.nan}, "config.longtail_rho",
                 id="data4-config.longtail_rho"),
    pytest.param({"sweep_lambdas": [0.0, math.nan]}, "config.sweep_lambdas",
                 id="data5-config.sweep_lambdas"),
    pytest.param({"split_fractions": [0.8, math.inf, 0.1]}, "config.split_fractions",
                 id="data6-config.split_fractions"),
])
def test_config_rejects_non_finite_floats(data, key):
    # NaN <= 0 is false, so range checks alone let JSON NaN and Infinity in
    with pytest.raises(ValueError, match=key.replace(".", r"\.")):
        config_from_dict(data)


def test_config_rejects_duplicate_seeds():
    with pytest.raises(ValueError, match="distinct"):
        config_from_dict({"seeds": [1, 2, 1]})
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(seeds=(1, 1))


def test_cli_non_finite_config_float_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"loss": {"lam": NaN}}')
    assert main(["ood", "--config", str(cfg_path)]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "loss.lam" in line


def test_cli_wrong_config_type_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"epochs": "60"}}))
    assert main(["train", "--config", str(cfg_path)]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "model.epochs" in line


@pytest.mark.parametrize("key, value", [("n_probed", 0), ("n_perturbations", 0),
                                        ("finetune_epochs", -3)])
def test_cli_rejects_probe_settings_that_cannot_run(tmp_path, capsys, key, value):
    # unchecked, n_probed 0 wrote a NaN median into report.json and negative
    # epochs gave every sample s_x = 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_CONFIG, "probe": {key: value},
                                    "out": str(tmp_path / "out")}))
    assert main(["probe", "--config", str(cfg_path)]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert f"probe.{key} must be" in line
    assert not (tmp_path / "out").exists()


def _case(n, command, extra, flags, message):
    # An explicit id, so that adding or deleting a row renames no other case;
    # n is the row's own case number, the one its positional id carried.
    return pytest.param(command, extra, flags, message,
                        id=f"{command}-extra{n}-flags{n}-{message}")


@pytest.mark.parametrize("command, extra, flags, message", [
    _case(0, "ood", {"seeds": [1, -1]}, [], "seeds must be >= 0, got -1"),
    _case(1, "ood", {}, ["--seed", "-1"], "seeds must be >= 0, got -1"),
    # the split seed is a constant
    _case(2, "probe", {"split_seed": 3}, [], "unknown config keys: ['split_seed']"),
    _case(3, "ood", {"dataset": {**TINY_CONFIG["dataset"], "seed": -1}}, [],
          "dataset.seed must be >= 0, got -1"),
    # an OOD set is named by its kind alone
    _case(4, "probe", {"ood": [{"kind": "uniform_box"}]}, [],
          "config.ood must be tuple[str, ...], got [{'kind': 'uniform_box'}]"),
    _case(5, "probe", {"probe": {"seed": -1}}, [], "probe.seed must be >= 0, got -1"),
    # the ood runner never reads probe settings, and still refuses them
    _case(6, "ood", {"probe": {"seed": -1}}, [], "probe.seed must be >= 0, got -1"),
    # the probe always trains cross-entropy, and still refuses an unknown kind
    _case(7, "probe", {"model": {"loss_kind": "mse"}}, [],
          "model.loss_kind must be one of ('dappr', 'cross_entropy'), got 'mse'"),
    # the runner is the subcommand; a config naming another one is refused
    _case(8, "ood", {"experiment": "probe"}, [], "unknown config keys: ['experiment']"),
    # the horizon is the run's model.epochs; a value here used to be ignored
    _case(9, "ood", {"loss": {"total_epochs": 60}}, [], "unknown loss keys: ['total_epochs']"),
    # training has one optimizer, Adam, with no weight decay or early stopping
    _case(10, "ood", {"model": {"optimizer": "adam"}}, [], "unknown model keys: ['optimizer']"),
    _case(11, "ood", {"model": {"early_stopping": False}}, [],
          "unknown model keys: ['early_stopping']"),
    _case(12, "ood", {"model": {"weight_decay": 0.0}}, [], "unknown model keys: ['weight_decay']"),
    # TrainConfig's checks, which used to run after the dataset was built
    _case(13, "ood", {"model": {"learning_rate": 0}}, [],
          "model.learning_rate must be > 0, got 0"),
    _case(14, "ood", {"model": {"batch_size": 0}}, [], "model.batch_size must be >= 1, got 0"),
    _case(15, "ood", {"model": {"epochs": -1}}, [], "model.epochs must be >= 0, got -1"),
    _case(16, "ood", {"model": {"hidden": [0]}}, [],
          "model.hidden sizes must be positive, got (0,)"),
    # keys only another runner reads, which used to fail there, after out existed
    _case(17, "ood", {"split_fractions": [0.5, 0.6, 0.1]}, [],
          "split_fractions must sum to 1, got 1.2000000000000002"),
    _case(18, "ood", {"longtail_rho": 0}, [], "longtail_rho must be in (0, 1], got 0"),
    _case(19, "ood", {"sweep_lambdas": [-1]}, [],
          "sweep_lambdas: lam must be finite and >= 0, got -1"),
    _case(20, "ood", {"scaling_sizes": [0]}, [], "scaling_sizes must be >= 1, got [0]"),
    # the eps floor and the warm-up are constants, and no flag sets a loss value
    _case(21, "ood", {"loss": {"eps": 1e-8}}, [], "unknown loss keys: ['eps']"),
    _case(22, "ood", {"loss": {"schedule": "warmup"}}, [], "unknown loss keys: ['schedule']"),
    _case(23, "ood", {}, ["--lambda", "0.1"], "unrecognized arguments: --lambda 0.1"),
    _case(24, "ood", {}, ["--schedule", "warmup"], "unrecognized arguments: --schedule warmup"),
    _case(25, "ood", {}, ["--eps", "1e-8"], "unrecognized arguments: --eps 1e-8"),
    # empty lists, which used to run and write an empty curve
    _case(26, "sweep", {"sweep_lambdas": []}, [], "sweep_lambdas must not be empty"),
    _case(27, "scaling", {"scaling_sizes": []}, [], "scaling_sizes must not be empty"),
    # the generators' checks, which used to run late (or, under train, never)
    _case(28, "train", {"ood": ["bogus"]}, [],
          "ood.kind must be one of ('uniform_box', 'shifted_blobs'), got 'bogus'"),
    # one recipe per kind, so a repeated kind would score the same set twice
    _case(29, "ood", {"ood": ["uniform_box", "shifted_blobs", "uniform_box"]}, [],
          "ood kinds must be distinct, got ['uniform_box', 'shifted_blobs', 'uniform_box']"),
    _case(30, "ood", {"dataset": {"n_classes": 1}}, [], "dataset.n_classes must be >= 2, got 1"),
    _case(31, "ood", {"dataset": {"n_per_class": 0}}, [],
          "dataset.n_per_class must be >= 1, got 0"),
    _case(32, "ood", {"dataset": {"n_features": 1}}, [], "dataset.n_features must be >= 2, got 1"),
    _case(33, "ood", {"dataset": {"spread": -1.0}}, [], "dataset.spread must be >= 0, got -1.0"),
    _case(34, "ood", {"dataset": {"kind": "two_moons", "n": 3}}, [],
          "dataset.n must be even and >= 2, got 3"),
    _case(35, "ood", {"dataset": {"kind": "two_moons", "noise": -0.1}}, [],
          "dataset.noise must be >= 0, got -0.1"),
    # the probe's fine-tune rate is a constant; 1e3 blew the fine-tune up and
    # still exited 0
    _case(36, "probe", {"probe": {"finetune_lr": 1e3}}, [], "unknown probe keys: ['finetune_lr']"),
])
def test_cli_rejects_bad_settings_at_load_naming_the_key(tmp_path, capsys, command,
                                                          extra, flags, message):
    # numpy refused a negative seed only where it was used, as "expected
    # non-negative integer", and some only after training or not at all
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_CONFIG, **extra, "out": str(tmp_path / "out")}))
    assert main([command, "--config", str(cfg_path), *flags]) == 1
    assert _single_error_line(capsys.readouterr().err) == f"error: {message}"
    assert not (tmp_path / "out").exists()


def test_cli_eval_rejects_truncated_checkpoint(tmp_path, capsys):
    cfg = tiny_config(tmp_path, model={"hidden": [8, 8], "epochs": 1})
    run_train(cfg)
    ckpt = tmp_path / "out" / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    doc["weights"] = doc["weights"][:1]
    ckpt.write_text(json.dumps(doc))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "malformed checkpoint" in line


def test_cli_ood_on_a_three_feature_csv_draws_ood_sets_as_wide_as_the_data(tmp_path,
                                                                           capsys):
    # the OOD sets of a CSV dataset were drawn 2 features wide, so no config
    # could run ood on a CSV of any other width
    rng = np.random.default_rng(3)
    save_csv(LabeledDataset(rng.normal(size=(60, 3)), np.arange(60) % 3, 3),
             tmp_path / "data.csv")
    cfg = tiny_config(tmp_path, dataset={"kind": "csv", "path": str(tmp_path / "data.csv")})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    assert main(["ood", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().err == ""
    test_ds = make_splits(cfg)[2]
    sets = harness._ood_sets(cfg, test_ds)
    assert list(sets) == ["uniform_box", "shifted_blobs"]
    assert all(x.shape == (test_ds.n, 3) for x in sets.values())
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(report["mean"]["ood"]) == set(sets)


@pytest.mark.parametrize("learning_rate", [1e6, 1e3])
def test_cli_diverged_training_exits_one_without_a_report(tmp_path, capsys,
                                                          learning_rate):
    # every validation logit ends below softplus's underflow point, so alpha0
    # == K on every row; the run exited 0 with accuracy at chance, ECE near
    # 0 and a uniform_box AUPR of 100
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"n_per_class": 20},
        "model": {"epochs": 10, "learning_rate": learning_rate},
        "seeds": [1],
        "out": str(tmp_path / "out"),
    }))
    assert main(["ood", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    line = _single_error_line(captured.err)
    assert line.startswith("error: training diverged for seed 1: alpha0 is exactly K = 3")
    assert captured.out == ""
    assert not (tmp_path / "out" / "report.json").exists()


def test_cli_overflowing_logits_exit_one_naming_the_seed(tmp_path, capsys):
    # the first step at lr 1e300 sends the weights to ~1e300, so the next
    # forward overflows; the run printed numpy's overflow warning and the
    # nn.py source line before an error that named no seed
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_CONFIG, "seeds": [4, 2],
                                    "model": {**TINY_CONFIG["model"], "learning_rate": 1e300},
                                    "out": str(tmp_path / "out")}))
    assert main(["train", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert _single_error_line(captured.err) == (
        "error: training diverged for seed 4: non-finite logits on a training batch")
    assert captured.out == ""
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("command", ["eval", "ood", "scaling", "longtail", "sweep"])
def test_cli_scoring_runners_refuse_an_empty_test_split(tmp_path, capsys, command):
    # a zero test share passed the load checks; ood and sweep then failed on
    # the OOD set size, naming no key, and longtail exited 0 with NaN accuracies
    fractions = [0.9, 0.1, 0.0]
    cfg = tiny_config(tmp_path, split_fractions=fractions, scaling_sizes=[10])
    flags = []
    if command == "eval":
        run_train(replace(cfg, out=str(tmp_path / "train")))
        flags = ["--checkpoint", str(tmp_path / "train" / "checkpoint.json")]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    assert main([command, "--config", str(cfg_path), *flags]) == 1
    assert _single_error_line(capsys.readouterr().err) == (
        f"error: split_fractions {fractions} leave the test split empty")
    assert not (tmp_path / "out" / "report.json").exists()


def test_cli_failed_run_leaves_no_earlier_report(tmp_path, capsys):
    # a diverged run into a directory that holds a finished run's report
    # exited 1 but left that report, which still read lr 0.001, accuracy 100
    standard = json.loads((Path(__file__).resolve().parents[1] / "configs" /
                           "standard.json").read_text())
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**standard, "seeds": [1], "out": str(out),
                                    "model": {**standard["model"], "epochs": 5}}))
    assert main(["ood", "--config", str(cfg_path)]) == 0
    assert json.loads((out / "report.json").read_text())["experiment"] == "standard"
    capsys.readouterr()
    cfg_path.write_text(json.dumps({
        "dataset": {"n_per_class": 20},
        "model": {"epochs": 10, "learning_rate": 1e6},
        "seeds": [1],
        "out": str(out),
    }))
    assert main(["ood", "--config", str(cfg_path)]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert line.startswith("error: training diverged for seed 1")
    assert not (out / "report.json").exists()


def test_cli_ood_runner_reads_lambda_from_the_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"n_classes": 3, "n_per_class": 20, "seed": 7},
        "model": {"hidden": [8], "epochs": 2, "batch_size": 16},
        "loss": {"lam": 0.5},
        "seeds": [1],
        "out": str(tmp_path / "run"),
    }))
    code = main(["ood", "--config", str(cfg_path)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["experiment"] == "standard"
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["config"]["loss"]["lam"] == 0.5


def test_cli_verification_failure_exits_two(monkeypatch, capsys):
    report = VerifyReport([("ok", True, ""), ("x", False, "synthetic")])
    monkeypatch.setattr("dappr.cli.run_verify", lambda: report)
    assert main(["verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("[PASS] ok\n[FAIL] x  (synthetic)\n"
                            "error: verification failed: ['x']\n")
