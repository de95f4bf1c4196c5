import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from dappr import harness, nn
from dappr.cli import main
from dappr.datasets import LabeledDataset, gaussian_blobs, long_tail_resample, save_csv
from dappr.harness import (
    HISTOGRAM_BINS,
    ExperimentConfig,
    OodSpec,
    VerifyReport,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    emit_alpha0_histogram,
    generate_ood,
    load_config,
    make_splits,
    ood_names,
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
from dappr.metrics import ECE_BINS
from dappr.nn import NetworkParams, forward, save_checkpoint, train
from oracles import row_uncertainties, soft_label_finetune, total_cross_entropy


def tiny_config(tmp_path, **overrides):
    base = {
        "dataset": {"n_classes": 3, "n_per_class": 20, "n_features": 2,
                    "spread": 1.0, "seed": 7},
        "model": {"hidden": [8], "epochs": 3, "batch_size": 16},
        "seeds": [1],
        "out": str(tmp_path / "out"),
    }
    base.update(overrides)
    return config_from_dict(base)


# ---------------------------------------------------------------------------
# config plumbing


def test_config_roundtrips_through_json():
    cfg = ExperimentConfig(seeds=(9,), ood=(OodSpec(kind="uniform_box", n=44),))
    rebuilt = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert rebuilt == cfg


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
    out = apply_overrides(cfg, seed=42, out="elsewhere", lam=0.5,
                          schedule="linear", eps=1e-6)
    assert out.seeds == (42,)
    assert out.out == "elsewhere"
    assert out.loss.lam == 0.5
    assert out.loss.schedule == "linear"
    assert out.loss.eps == 1e-6
    untouched = apply_overrides(cfg)
    assert untouched == cfg


def test_generate_ood_n_defaulting():
    cfg = ExperimentConfig()
    sized = generate_ood(cfg, OodSpec(kind="uniform_box", n=17), 60)
    assert sized.shape == (17, cfg.dataset.n_features)
    defaulted = generate_ood(cfg, OodSpec(kind="uniform_box", n=None), 60)
    assert defaulted.shape == (60, cfg.dataset.n_features)


def test_ood_names_disambiguates_duplicates():
    cfg = ExperimentConfig(ood=(OodSpec("uniform_box"), OodSpec("uniform_box"),
                                OodSpec("shifted_blobs")))
    assert ood_names(cfg) == ["uniform_box", "uniform_box_2", "shifted_blobs"]


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
    assert header == "epoch,train_loss,val_accuracy,val_mean_alpha0"


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
    assert len(lines) == 1 + ECE_BINS
    empties = [ln for ln in lines[1:] if ln.endswith(",,,0")]
    assert len(empties) == ECE_BINS - 1
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
    for sizes in ([5000], [12, 5000], [12, 0]):
        with pytest.raises(ValueError, match="exceeds"):
            run_scaling(tiny_config(tmp_path, scaling_sizes=sizes))


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
    tail = long_tail_resample(train_ds, cfg.longtail_rho, cfg.split_seed)
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
                      loss={"schedule": "constant"}, sweep_lambdas=[0.0, 0.5])
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
    standard = run_standard(apply_overrides(cfg, lam=0.5, out=str(tmp_path / "std")))
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
    probe = {"n_probed": 3, "n_perturbations": 3, "finetune_epochs": 2,
             "finetune_lr": 1e-2}
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
                                        cfg.probe.finetune_epochs, cfg.probe.finetune_lr,
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
    # it as (params, x) once per row set, with the caller's own arrays; every
    # forward goes through nn._forward_cached, the one layer loop
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
    assert len(forwards) == 3 and len(layer_loops) == len(forwards)
    assert set(result["ood"]) == {"uniform_box"}


@pytest.mark.parametrize("loss_kind", ["dappr", "cross_entropy"])
def test_evaluate_seed_scores_rows_larger_than_a_block_with_the_same_calls(
        monkeypatch, loss_kind):
    # row sets of more than one forward block keep evaluate_seed's calls:
    # model_uncertainties once per row set on the caller's own arrays, three
    # forwards, and each forward runs the layer loop once per block
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
    assert [n for n, _ in forwards] == [test.n, test.n, box.shape[0]]
    assert [loops for _, loops in forwards] == [math.ceil(n / block) for n, _ in forwards]
    assert set(result["ood"]) == {"uniform_box"}


@pytest.mark.parametrize("k", [3, 10])
@pytest.mark.parametrize("loss_kind", ["dappr", "cross_entropy"])
def test_model_uncertainties_equal_numpy_reductions_bit_for_bit(loss_kind, k):
    # more than one forward block of rows, some far enough out that softmax
    # underflows to exact zeros; every value is the plain numpy reduction's
    block = nn._BLOCK_ROWS
    params = nn.init_network((2, 16, k), seed=3, loss_kind=loss_kind)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(block + 37, 2)) * rng.choice([1.0, 40.0, 400.0], size=(block + 37, 1))
    got = harness.model_uncertainties(params, x)
    want = row_uncertainties(forward(params, x), loss_kind)
    if loss_kind == "cross_entropy":
        assert np.any(want[1] == 0.0)  # the 0 log 0 = 0 rows are reached
    for g, w in zip(got, want):
        assert g.shape == w.shape == (x.shape[0],)
        assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# verification gate


def test_run_verify_all_green():
    report = run_verify()
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == []
    assert report.all_passed
    assert len(report.checks) >= 10


def test_verify_catches_tampered_metric(monkeypatch):
    monkeypatch.setattr(harness, "aupr", lambda labels, scores: 0.123)
    report = run_verify()
    assert not report.all_passed
    bad = {name for name, ok, _ in report.checks if not ok}
    assert "metric_examples" in bad


def test_verify_catches_tampered_gradient(monkeypatch):
    from dappr import gradcheck

    real = gradcheck.relative_error
    monkeypatch.setattr(gradcheck, "relative_error",
                        lambda a, b: real(a, b) + 1.0)
    report = run_verify()
    bad = {name for name, ok, _ in report.checks if not ok}
    assert {"gradient_loss_level", "gradient_end_to_end"} <= bad


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
    assert len(lines) == 1 + HISTOGRAM_BINS


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
    with pytest.raises(ValueError, match=r"ood\.n must be int \| None"):
        config_from_dict({"ood": [{"n": 1.5}]})
    with pytest.raises(ValueError, match=r"config\.split_fractions"):
        config_from_dict({"split_fractions": [0.5, 0.5]})
    # JSON ints are valid floats; None fills optional fields
    cfg = config_from_dict({"loss": {"lam": 0}, "ood": [{"n": None}]})
    assert cfg.loss.lam == 0 and cfg.ood[0].n is None


@pytest.mark.parametrize("data, key", [
    ({"model": {"learning_rate": math.nan}}, "model.learning_rate"),
    ({"loss": {"lam": math.inf}}, "loss.lam"),
    ({"loss": {"lam": 10 ** 400}}, "loss.lam"),
    ({"dataset": {"spread": math.nan}}, "dataset.spread"),
    ({"ood": [{"offset": -math.inf}]}, "ood.offset"),
    ({"sweep_lambdas": [0.0, math.nan]}, "config.sweep_lambdas"),
    ({"split_fractions": [0.8, math.inf, 0.1]}, "config.split_fractions"),
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
    # the same value through the --lambda flag
    cfg_path.write_text("{}")
    assert main(["ood", "--config", str(cfg_path), "--lambda", "nan"]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "lam must be finite" in line


def test_cli_wrong_config_type_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"epochs": "60"}}))
    assert main(["train", "--config", str(cfg_path)]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "model.epochs" in line


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


def test_cli_ood_set_narrower_than_data_exits_one_before_training(tmp_path, capsys):
    # the OOD generators draw 2-feature rows for a CSV dataset
    rng = np.random.default_rng(3)
    save_csv(LabeledDataset(rng.normal(size=(60, 3)), np.arange(60) % 3, 3),
             tmp_path / "data.csv")
    cfg = tiny_config(tmp_path, dataset={"kind": "csv", "path": str(tmp_path / "data.csv")})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    assert main(["ood", "--config", str(cfg_path)]) == 1
    line = _single_error_line(capsys.readouterr().err)
    assert "'uniform_box' has 2 features, the data has 3" in line
    assert not list((tmp_path / "out").glob("checkpoint*"))


def test_cli_ood_runner_and_lambda_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": {"n_classes": 3, "n_per_class": 20, "seed": 7},
        "model": {"hidden": [8], "epochs": 2, "batch_size": 16},
        "seeds": [1],
        "out": str(tmp_path / "run"),
    }))
    code = main(["ood", "--config", str(cfg_path), "--lambda", "0.5"])
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
