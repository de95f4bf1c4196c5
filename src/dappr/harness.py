"""Experiment harness: configuration, runners, reports, CSV tables.

Runs are deterministic for a given config: datasets, splits, shuffles and
weight init all derive from explicit seeds, and reports are serialized with
sorted keys.  The only non-reproducible content (timestamp, wall-clock
runtime) is isolated under the single top-level key ``run_info`` so reports
from identical configs are byte-identical outside that key.

Metric values in reports are on the 0-100 scale; the metric functions
themselves return raw [0, 1] values.
"""

from __future__ import annotations

import json
import logging
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import gradcheck
from .datasets import (LabeledDataset, SplitSpec, check_blobs, check_moons,
                       check_ood, check_rho, gaussian_blobs, load_csv,
                       long_tail_resample, ood_generator, split,
                       stratified_subsample, two_moons)
from .loss import (LossConfig, dappr_loss, log_softmax, one_hot, softmax,
                   softplus_plus_one)
from .metrics import (aleatoric_uncertainty, aupr, auroc, ece,
                      epistemic_uncertainty, reliability_bins,
                      softmax_entropy)
from .nn import (NetworkParams, TrainConfig, _Adam, _forward_cached,
                 backward, forward, init_network, load_checkpoint, pack_network,
                 save_checkpoint, train)
from .possibility import (DirichletParams, SimplexPoint, _over_classes,
                          dirichlet_possibility, log_dirichlet_possibility,
                          simplex_grid)

log = logging.getLogger("dappr")

HISTOGRAM_BINS = 30
# Fixed by the protocol: the seed of the split and of the scaling and long-tail
# draws from it, the OOD sets' seed, and the probe's fine-tune rate, small so
# each copy stays near the base network as the one-term approximation needs
SPLIT_SEED = 3
OOD_SEED = 11
FINETUNE_LR = 1e-4


# ---------------------------------------------------------------------------
# Configuration


def _require_seed(key: str, seed: int) -> None:
    # numpy rejects a negative seed only when it is used, as "expected
    # non-negative integer", which names no key and may come after training
    if seed < 0:
        raise ValueError(f"{key} must be >= 0, got {seed}")


def _check_as(prefix: str, check, *args) -> None:
    """Run another object's check at load, its message prefixed to name the key."""
    try:
        check(*args)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None


@dataclass(frozen=True)
class DatasetSpec:
    kind: str = "gaussian_blobs"
    n_classes: int = 3
    n_per_class: int = 400
    n_features: int = 2
    spread: float = 1.0
    n: int = 600
    noise: float = 0.1
    seed: int = 7
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian_blobs", "two_moons", "csv"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "csv" and not self.path:
            raise ValueError("csv dataset needs a path")
        # the generator's own checks, at load; a CSV is known once it is read
        if self.kind == "gaussian_blobs":
            _check_as("dataset.", check_blobs, self.n_classes, self.n_per_class,
                      self.n_features, self.spread)
        elif self.kind == "two_moons":
            _check_as("dataset.", check_moons, self.n, self.noise)
        _require_seed("dataset.seed", self.seed)


@dataclass(frozen=True)
class ModelSpec:
    hidden: tuple[int, ...] = (32, 32)
    learning_rate: float = 1e-3
    epochs: int = 60
    batch_size: int = 32
    loss_kind: str = "dappr"

    def __post_init__(self):
        # TrainConfig's own checks, at load; 1 stands for the data's widths
        _check_as("model.", TrainConfig, (1, *self.hidden, 1), self.epochs,
                  self.batch_size, 0, self.learning_rate, self.loss_kind)


@dataclass(frozen=True)
class ProbeSpec:
    n_probed: int = 20
    n_perturbations: int = 3
    finetune_epochs: int = 3
    seed: int = 17

    def __post_init__(self):
        for key in ("n_probed", "n_perturbations", "finetune_epochs"):
            if getattr(self, key) < 1:
                raise ValueError(f"probe.{key} must be >= 1, got {getattr(self, key)}")
        _require_seed("probe.seed", self.seed)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    model: ModelSpec = field(default_factory=ModelSpec)
    loss: LossConfig = field(default_factory=LossConfig)
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    ood: tuple[str, ...] = ("uniform_box", "shifted_blobs")
    out: str = "runs/out"
    scaling_sizes: tuple[int, ...] = (50, 100, 200, 400, 800)
    longtail_rho: float = 0.1
    sweep_lambdas: tuple[float, ...] = (0.0, 2e-4, 2e-3, 5e-3)
    probe: ProbeSpec = field(default_factory=ProbeSpec)

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        for seed in self.seeds:
            _require_seed("seeds", seed)
        _check_as("split_", SplitSpec, self.split_fractions)
        if len(set(self.ood)) != len(self.ood):  # one recipe per kind: the same set twice
            raise ValueError(f"ood kinds must be distinct, got {list(self.ood)}")
        for kind in self.ood:  # a set's size is the test split's, checked once it is built
            _check_as("ood.", check_ood, kind, 1)
        _check_as("longtail_", check_rho, self.longtail_rho)
        for key in ("sweep_lambdas", "scaling_sizes"):
            if not getattr(self, key):
                raise ValueError(f"{key} must not be empty")
        for lam in self.sweep_lambdas:
            _check_as("sweep_lambdas: ", LossConfig, lam)
        # a size above the train split is known only once the data is built
        if min(self.scaling_sizes) < 1:
            raise ValueError(f"scaling_sizes must be >= 1, got {list(self.scaling_sizes)}")


_SECTION_TYPES = {
    "dataset": DatasetSpec,
    "model": ModelSpec,
    "loss": LossConfig,
    "probe": ProbeSpec,
}


def _fits(value, hint) -> bool:
    """Whether a parsed config value matches a field's declared type.

    JSON has one number type, so an int passes where a finite float is
    declared; a bool passes only where a bool is.  Tuples arrive as tuples
    (lists are converted first), element types checked.
    """
    args = typing.get_args(hint)
    origin = typing.get_origin(hint)
    if origin is types.UnionType:
        return any(_fits(value, a) for a in args)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if hint is type(None):
        return value is None
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        # NaN, the infinities and ints beyond the float range all fail
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _build_section(cls, data, context: str):
    if not isinstance(data, dict):
        raise ValueError(f"{context} must be an object, got {type(data).__name__}")
    fields = cls.__dataclass_fields__
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown {context} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    coerced = {}
    for key, value in data.items():
        coerced[key] = tuple(value) if isinstance(value, list) else value
        if not _fits(coerced[key], hints[key]):
            raise ValueError(f"{context}.{key} must be {fields[key].type}, got {value!r}")
    return cls(**coerced)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config from a parsed JSON object.

    Unknown keys and values of the wrong type raise ValueError naming the key.
    """
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    sections = {key: _build_section(_SECTION_TYPES[key], value, key)
                for key, value in data.items() if key in _SECTION_TYPES}
    return _build_section(ExperimentConfig, {**data, **sections}, "config")


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(data)


def apply_overrides(cfg: ExperimentConfig, *, seed: int | None = None,
                    out: str | None = None) -> ExperimentConfig:
    """CLI flags override the corresponding config fields."""
    if seed is not None:
        cfg = replace(cfg, seeds=(seed,))
    if out is not None:
        cfg = replace(cfg, out=out)
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


# ---------------------------------------------------------------------------
# Data and training plumbing


def build_dataset(spec: DatasetSpec) -> LabeledDataset:
    if spec.kind == "gaussian_blobs":
        return gaussian_blobs(spec.n_classes, spec.n_per_class, spec.n_features,
                              spec.spread, spec.seed)
    if spec.kind == "two_moons":
        return two_moons(spec.n, spec.noise, spec.seed)
    return load_csv(spec.path)


def make_splits(cfg: ExperimentConfig):
    ds = build_dataset(cfg.dataset)
    return split(ds, SplitSpec(cfg.split_fractions, SPLIT_SEED))


def _scored_splits(cfg: ExperimentConfig):
    """make_splits for a runner that scores the test split; an empty test split fails."""
    train_ds, val_ds, test_ds = make_splits(cfg)
    if test_ds.n == 0:
        raise ValueError(f"split_fractions {list(cfg.split_fractions)} leave the test split empty")
    return train_ds, val_ds, test_ds


def train_config(cfg: ExperimentConfig, seed: int, n_features: int,
                 n_classes: int) -> TrainConfig:
    return TrainConfig(
        layer_sizes=(n_features, *cfg.model.hidden, n_classes),
        epochs=cfg.model.epochs,
        batch_size=cfg.model.batch_size,
        seed=seed,
        learning_rate=cfg.model.learning_rate,
        loss_kind=cfg.model.loss_kind,
        loss=cfg.loss,
    )


def generate_ood(cfg: ExperimentConfig, kind: str, n: int,
                 n_features: int | None = None) -> np.ndarray:
    """n OOD rows of kind, in a blob dataset's geometry or, for the other
    kinds, 2 unit-spread classes 2 features wide; n_features sets the width."""
    geometry = cfg.dataset if cfg.dataset.kind == "gaussian_blobs" else DatasetSpec(n_classes=2)
    return ood_generator(kind, n, n_features or geometry.n_features, OOD_SEED,
                         n_classes=geometry.n_classes, spread=geometry.spread)


def ood_names(cfg: ExperimentConfig) -> list[str]:
    return list(cfg.ood)


def _fit(cfg: ExperimentConfig, seeds, train_ds: LabeledDataset,
         val_ds: LabeledDataset) -> list:
    """Train one model of cfg's spec per seed on train_ds, all as one stack.

    Returns one (params, history) per seed, in order.
    """
    configs = [train_config(cfg, seed, train_ds.dim, train_ds.n_classes) for seed in seeds]
    return train(train_ds.features, train_ds.labels, val_ds.features, val_ds.labels,
                 configs)


def _ood_sets(cfg: ExperimentConfig, test_ds: LabeledDataset) -> dict[str, np.ndarray]:
    """Each configured OOD set by kind, in config order, as large and wide as test_ds."""
    return {kind: generate_ood(cfg, kind, test_ds.n, test_ds.dim) for kind in cfg.ood}


def model_uncertainties(params: NetworkParams, x: np.ndarray):
    """Per-row (aleatoric, epistemic, confidence, alpha0, prediction), one forward.

    Concentration-head models decompose via the Dirichlet parameters;
    cross-entropy models fall back to 1 - max softmax (aleatoric, with max
    softmax as confidence) and softmax entropy (epistemic).  Both report
    alpha0, so concentration histograms stay comparable, and the logits'
    argmax as the prediction.
    """
    logits = forward(params, x)
    prediction = np.argmax(logits, axis=1)
    d = softplus_plus_one(logits)
    if params.loss_kind == "dappr":
        alea = aleatoric_uncertainty(d)
        return alea, epistemic_uncertainty(d), 1.0 - alea, d.alpha0, prediction
    probs = SimplexPoint(softmax(logits))
    conf = _over_classes(np.maximum, probs.probs)
    return 1.0 - conf, softmax_entropy(probs), conf, d.alpha0, prediction


def evaluate_seed(params: NetworkParams, test: LabeledDataset,
                  ood_sets: dict[str, np.ndarray]) -> tuple[dict, dict]:
    """``(result, raw)``: one model's ID metrics and OOD detection numbers, and
    the per-row arrays (confidences, correct, epistemic, alpha0) behind them.
    Each row set gets one model_uncertainties call, its only forward pass."""
    alea, epi, conf, alpha0, predictions = model_uncertainties(params, test.features)
    correct = (predictions == test.labels).astype(np.int64)

    result = {
        "accuracy": 100.0 * float(np.mean(correct)),
        "ece": 100.0 * ece(conf, correct),
        "mean_alpha0_id": float(np.mean(alpha0)),
        "ood": {},
    }
    # Confidence ranking: correct predictions should outrank mistakes.
    if 0 < int(correct.sum()) < correct.size:
        result["confidence_aupr"] = 100.0 * aupr(correct, -alea)
    else:
        result["confidence_aupr"] = None  # all right or all wrong: undefined
    raw = {"confidences": conf, "correct": correct, "epistemic": epi,
           "alpha0_id": alpha0, "alpha0_ood": {}}

    for name, features in ood_sets.items():
        _, epi_ood, _, alpha0_ood, _ = model_uncertainties(params, features)
        labels = np.concatenate([np.ones(test.n, dtype=np.int64),
                                 np.zeros(features.shape[0], dtype=np.int64)])
        scores = np.concatenate([-epi, -epi_ood])
        result["ood"][name] = {
            "aupr": 100.0 * aupr(labels, scores),
            "auroc": 100.0 * auroc(labels, scores),
            "mean_alpha0": float(np.mean(alpha0_ood)),
        }
        raw["alpha0_ood"][name] = alpha0_ood
    return result, raw


def _fit_and_score(cfg: ExperimentConfig, train_ds: LabeledDataset,
                   val_ds: LabeledDataset, test_ds: LabeledDataset,
                   ood_sets: dict[str, np.ndarray] | None = None) -> list:
    """Train every seed of cfg as one stack, then evaluate_seed each model.

    Returns one (seed, params, result, raw) per seed, in order; the OOD
    numbers cover ood_sets, none when it is None.
    """
    return [(seed, params, *evaluate_seed(params, test_ds, ood_sets or {}))
            for seed, (params, _) in zip(cfg.seeds, _fit(cfg, cfg.seeds, train_ds, val_ds))]


# ---------------------------------------------------------------------------
# Report helpers


def _aggregate(rows: list[dict], keys) -> tuple[dict, dict]:
    """Mean and sample std of each key over rows; dict values recurse.

    A key whose value is None in some rows (confidence_aupr when a seed got
    everything right) aggregates the defined values only, and std needs two
    of them.  A dict value, such as the per-set ``ood`` numbers, aggregates
    key by key into a dict of the same shape.
    """
    mean: dict = {}
    std: dict = {}
    for key in keys:
        values = [r[key] for r in rows if r.get(key) is not None]
        if values and isinstance(values[0], dict):
            mean[key], std[key] = _aggregate(values, values[0])
        elif values:
            mean[key] = float(np.mean(values))
            if len(values) > 1:
                std[key] = float(np.std(values, ddof=1))
    return mean, std


def write_report(report: dict, outdir: Path, runtime: float) -> Path:
    """Write report.json into outdir with run_info added; return its path."""
    config = np.show_config(mode="dicts")
    blas, simd = config["Build Dependencies"]["blas"], config["SIMD Extensions"]
    report = dict(report)
    report["run_info"] = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "runtime_seconds": runtime,
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "simd": {key: simd.get(key) for key in ("baseline", "found")},
    }
    path = outdir / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def emit_alpha0_histogram(id_values, ood_values, path) -> dict:
    """Joint min-max normalised histogram of total concentration.

    Both samples are normalised with the same (min, max) taken over their
    union, so the two count columns share the [0, 1] axis of HISTOGRAM_BINS
    bins.
    """
    id_values = np.asarray(id_values, dtype=np.float64)
    ood_values = np.asarray(ood_values, dtype=np.float64)
    if id_values.size == 0 or ood_values.size == 0:
        raise ValueError("need non-empty ID and OOD samples")
    joint = np.concatenate([id_values, ood_values])
    lo, hi = float(joint.min()), float(joint.max())
    if hi == lo:
        log.warning("alpha0 histogram: degenerate range, all values equal %r", lo)
        hi = lo + 1.0
    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    id_counts, _ = np.histogram((id_values - lo) / (hi - lo), bins=edges)
    ood_counts, _ = np.histogram((ood_values - lo) / (hi - lo), bins=edges)
    _write_table(path, ("bin_low", "bin_high", "count_id", "count_ood"),
                 zip(edges[:-1], edges[1:], id_counts, ood_counts))
    return {
        "min": lo, "max": hi,
        "id_counts": id_counts.tolist(),
        "ood_counts": ood_counts.tolist(),
    }


def _write_table(path: Path, columns, rows) -> list[dict]:
    """Write rows as CSV under a header of columns; return them as dicts.

    A float field, numpy's too, is written as ``repr(float(v))``, so it reads
    back to the same value; NaN is an empty field; anything else is
    ``str(v)``.
    """
    def field(v) -> str:
        if isinstance(v, (float, np.floating)):
            return "" if np.isnan(v) else repr(float(v))
        return str(v)

    records = [dict(zip(columns, row)) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for record in records:
            fh.write(",".join(map(field, record.values())) + "\n")
    return records


def _write_reliability(path: Path, confidences, correct) -> None:
    _write_table(path, ("bin_low", "bin_high", "mean_conf", "accuracy", "count"),
                 reliability_bins(confidences, correct).rows())


# ---------------------------------------------------------------------------
# Experiment runners


def _runner(experiment: str):
    """Make a runner from a body ``body(cfg, outdir, *args) -> dict``.

    The runner, called as ``run(cfg, *args)``, does what every experiment
    shares: it times the run, creates ``cfg.out``, puts the experiment name
    and the config in front of the body's report entries, and writes
    report.json.  A report.json already in ``cfg.out`` is removed before the
    body runs, so one is there only after a run finished.  It returns the
    report without ``run_info``.
    """
    def decorate(body):
        def run(cfg: ExperimentConfig, *args) -> dict:
            started = time.perf_counter()
            outdir = Path(cfg.out)
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "report.json").unlink(missing_ok=True)
            report = {"experiment": experiment, "config": config_to_dict(cfg),
                      **body(cfg, outdir, *args)}
            write_report(report, outdir, time.perf_counter() - started)
            return report

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        return run
    return decorate


@_runner("train")
def run_train(cfg: ExperimentConfig, outdir: Path) -> dict:
    """Train one model (first configured seed); write checkpoint and history."""
    train_ds, val_ds, _ = make_splits(cfg)
    seed = cfg.seeds[0]
    [(params, history)] = _fit(cfg, [seed], train_ds, val_ds)
    save_checkpoint(params, outdir / "checkpoint.json")
    per_epoch = asdict(history)
    _write_table(outdir / "history.csv", ("epoch", *per_epoch),
                 zip(range(len(history.train_loss)), *per_epoch.values()))
    return {
        "seed": seed,
        "epochs_run": len(history.train_loss),
        "final_train_loss": history.train_loss[-1] if history.train_loss else None,
        "final_val_accuracy": (100.0 * history.val_accuracy[-1]
                               if history.val_accuracy else None),
        "checkpoint": "checkpoint.json",
    }


@_runner("eval")
def run_eval(cfg: ExperimentConfig, outdir: Path, checkpoint_path) -> dict:
    """Evaluate a saved checkpoint on the config's test split (ID only)."""
    params = load_checkpoint(checkpoint_path)
    _, _, test_ds = _scored_splits(cfg)
    if params.layer_sizes[0] != test_ds.dim or params.layer_sizes[-1] < test_ds.n_classes:
        raise ValueError("checkpoint shape does not match the configured dataset")
    result, raw = evaluate_seed(params, test_ds, {})
    _write_reliability(outdir / "reliability.csv", raw["confidences"], raw["correct"])
    return {
        "checkpoint": str(checkpoint_path),
        "metrics": {k: result[k] for k in
                    ("accuracy", "confidence_aupr", "ece", "mean_alpha0_id")},
    }


@_runner("standard")
def run_standard(cfg: ExperimentConfig, outdir: Path) -> dict:
    """Train every seed as one stack, evaluate ID metrics and OOD detection."""
    train_ds, val_ds, test_ds = _scored_splits(cfg)
    ood_sets = _ood_sets(cfg, test_ds)

    scored = _fit_and_score(cfg, train_ds, val_ds, test_ds, ood_sets)
    for seed, params, _, _ in scored:
        save_checkpoint(params, outdir / f"checkpoint_seed{seed}.json")
    per_seed = [{**result, "seed": seed} for seed, _, result, _ in scored]
    raws = [raw for *_, raw in scored]

    def pooled(key):
        return np.concatenate([raw[key] for raw in raws])

    _write_reliability(outdir / "reliability.csv", pooled("confidences"), pooled("correct"))

    histogram = None
    if ood_sets:
        first = next(iter(ood_sets))
        histogram = emit_alpha0_histogram(
            pooled("alpha0_id"), np.concatenate([raw["alpha0_ood"][first] for raw in raws]),
            outdir / "alpha0_histogram.csv")

    mean, std = _aggregate(per_seed, ["accuracy", "confidence_aupr", "ece",
                                      "mean_alpha0_id", "ood"])
    report = {"per_seed": per_seed, "mean": mean, "alpha0_histogram": histogram}
    if len(cfg.seeds) > 1:
        report["std"] = std
    return report


@_runner("scaling")
def run_scaling(cfg: ExperimentConfig, outdir: Path) -> dict:
    """Training-set size sweep; epistemic uncertainty on a fixed test split."""
    train_ds, val_ds, test_ds = _scored_splits(cfg)
    for size in cfg.scaling_sizes:
        if size > train_ds.n:
            raise ValueError(f"scaling size {size} exceeds the train split ({train_ds.n})")

    rows = []
    curve = []
    for size in cfg.scaling_sizes:
        subset = stratified_subsample(train_ds, size, SPLIT_SEED)
        runs = [(size, seed, float(np.mean(raw["epistemic"])), result["accuracy"])
                for seed, _, result, raw in _fit_and_score(cfg, subset, val_ds, test_ds)]
        rows += runs
        curve.append({"size": size,
                      "mean_epistemic": float(np.mean([r[2] for r in runs])),
                      "mean_accuracy": float(np.mean([r[3] for r in runs]))})

    per_run = _write_table(outdir / "scaling.csv",
                           ("size", "seed", "mean_epistemic", "accuracy"), rows)
    return {"per_run": per_run, "curve": curve}


@_runner("longtail")
def run_longtail(cfg: ExperimentConfig, outdir: Path) -> dict:
    """Long-tail resampled training, balanced-test evaluation."""
    train_ds, val_ds, test_ds = _scored_splits(cfg)
    tail_train = long_tail_resample(train_ds, cfg.longtail_rho, SPLIT_SEED)
    counts = tail_train.class_counts()

    per_seed = []
    per_class_alpha0 = np.zeros(test_ds.n_classes)
    per_class_acc = np.zeros(test_ds.n_classes)
    for seed, _, result, raw in _fit_and_score(cfg, tail_train, val_ds, test_ds):
        per_seed.append({"seed": seed, "accuracy": result["accuracy"]})
        for k in range(test_ds.n_classes):
            members = test_ds.labels == k
            per_class_alpha0[k] += float(np.mean(raw["alpha0_id"][members]))
            per_class_acc[k] += 100.0 * float(np.mean(raw["correct"][members]))
    per_class_alpha0 /= len(cfg.seeds)
    per_class_acc /= len(cfg.seeds)

    per_class = _write_table(
        outdir / "longtail.csv", ("class", "train_count", "test_accuracy", "mean_alpha0"),
        [(k, int(counts[k]), float(per_class_acc[k]), float(per_class_alpha0[k]))
         for k in range(test_ds.n_classes)])
    mean, std = _aggregate(per_seed, ["accuracy"])
    report = {
        "train_counts": counts.tolist(),
        "per_seed": per_seed,
        "mean": mean,
        "per_class": per_class,
    }
    if len(cfg.seeds) > 1:
        report["std"] = std
    return report


@_runner("sweep")
def run_lambda_sweep(cfg: ExperimentConfig, outdir: Path) -> dict:
    """Regulariser-weight sweep: accuracy and OOD detection per lambda."""
    train_ds, val_ds, test_ds = _scored_splits(cfg)
    ood_sets = _ood_sets(cfg, test_ds)
    if not ood_sets:
        raise ValueError("lambda sweep needs at least one ood entry")
    first = next(iter(ood_sets))

    rows = []
    curve = []
    for lam in cfg.sweep_lambdas:
        sweep_cfg = replace(cfg, loss=replace(cfg.loss, lam=lam))
        runs = [(float(lam), seed, result["accuracy"], result["ood"][first]["aupr"])
                for seed, _, result, _ in _fit_and_score(sweep_cfg, train_ds, val_ds,
                                                         test_ds, ood_sets)]
        rows += runs
        curve.append({"lambda": float(lam),
                      "mean_accuracy": float(np.mean([r[2] for r in runs])),
                      "mean_ood_aupr": float(np.mean([r[3] for r in runs]))})

    per_run = _write_table(outdir / "sweep.csv",
                           ("lambda", "seed", "accuracy", "ood_aupr"), rows)
    return {"ood_set": first, "per_run": per_run, "curve": curve}


# ---------------------------------------------------------------------------
# Leave-one-out probe


def _soft_label_finetune(params: NetworkParams, rest_x, rest_y, forced_x,
                         forced_targets, probe: ProbeSpec, batch_size: int):
    """Fine-tune one copy of params per forced target, as one stacked network.

    Every batch is the same rest rows plus the forced sample; copy s sees
    ``forced_targets[s]`` as that sample's target.  Returns the stack from
    ``pack_network(params, copies=len(forced_targets))``.
    """
    copies = forced_targets.shape[0]
    flat, tuned = pack_network(params, copies=copies)
    grad, grads = pack_network(params, copies=copies)
    opt = _Adam(flat, FINETUNE_LR)
    n = rest_x.shape[0]
    k = tuned.layer_sizes[-1]
    rest_targets = one_hot(rest_y, k)
    for epoch in range(probe.finetune_epochs):
        perm = np.random.default_rng([probe.seed, 2, epoch]).permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start:start + batch_size]
            xb = np.vstack([rest_x[idx], forced_x[None, :]])
            targets = np.empty((copies, idx.size + 1, k))
            targets[:, :-1] = rest_targets[idx]
            targets[:, -1] = forced_targets
            acts = _forward_cached(tuned, xb)
            delta = (softmax(acts[-1]) - targets) / xb.shape[0]
            backward(tuned, acts, delta, grads)
            opt.step(flat, grad)
    return tuned


@_runner("probe")
def run_probe(cfg: ExperimentConfig, outdir: Path) -> dict:
    """Leave-one-out sensitivity probe.

    Trains a cross-entropy base model on the full dataset, then for each
    probed sample fine-tunes one copy with the true label forced into every
    batch and several copies with random soft labels instead, all copies of
    one sample as one stacked network.  S_x is the
    largest shift of the leave-one-out loss (sum of cross-entropies over the
    other samples) caused by the label swap; small S_x / L_true justifies the
    one-term approximation of the posterior around the observed labels.
    """
    ds = build_dataset(cfg.dataset)
    if cfg.probe.n_probed > ds.n:
        raise ValueError("cannot probe more samples than the dataset has")

    [(base, _)] = _fit(replace(cfg, model=replace(cfg.model, loss_kind="cross_entropy")),
                       cfg.seeds[:1], ds, ds)

    rng = np.random.default_rng(cfg.probe.seed)
    probed = np.sort(rng.choice(ds.n, size=cfg.probe.n_probed, replace=False))
    rows = []
    for x_idx in probed:
        mask = np.ones(ds.n, dtype=bool)
        mask[x_idx] = False
        rest_x, rest_y = ds.features[mask], ds.labels[mask]
        forced_x = ds.features[x_idx]
        targets = np.vstack(
            [one_hot(np.array([ds.labels[x_idx]]), ds.n_classes)]
            + [rng.dirichlet(np.ones(ds.n_classes)) for _ in range(cfg.probe.n_perturbations)])

        tuned = _soft_label_finetune(base, rest_x, rest_y, forced_x, targets,
                                     cfg.probe, cfg.model.batch_size)
        l_true, *l_soft = [float(-np.sum(log_probs[np.arange(rest_y.size), rest_y]))
                           for log_probs in log_softmax(forward(tuned, rest_x))]
        worst = max([0.0] + [abs(l_p - l_true) for l_p in l_soft])
        rows.append((int(x_idx), l_true, worst, worst / l_true))

    per_sample = _write_table(outdir / "probe.csv",
                              ("sample", "loo_loss_true", "s_x", "ratio"), rows)
    return {
        "per_sample": per_sample,
        "median_ratio": float(np.median([r["ratio"] for r in per_sample])),
    }


# ---------------------------------------------------------------------------
# Verification gate


@dataclass(frozen=True)
class VerifyReport:
    checks: list


def run_verify() -> VerifyReport:
    """Oracle battery over the possibility layer, the loss and a training step.

    Covers: closed form vs grid argmax, mode optimality, grid supremum
    normalisation, divergence non-negativity and domination, posterior
    normalisation, pushforward identity and empty pre-image, frozen scalar
    values, finite-difference gradients of the surrogate and of the
    vacuous-evidence penalty, and one full dappr training step with
    background rows checked against its FD oracle.  The cases come from the
    gradcheck battery, a few per check.
    """
    checks = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    rng = np.random.default_rng(20240817)

    grids = [simplex_grid(k, 200) for k in (2, 3)]
    worst = max(gradcheck.closed_form_gap(rng, grid) for grid in grids for _ in range(10))
    check("closed_form_vs_grid", worst <= 2.0 / 200, f"max gap {worst:.3e}")

    worst = max(gradcheck.mode_log_possibility(rng) for _ in range(20))
    check("mode_optimality_exact", worst == 0.0, f"max |log g(mode)| {worst:.3e}")

    # Grid supremum close to 1.
    grid3 = grids[1].probs
    interior = SimplexPoint(grid3[(grid3 > 0).all(axis=1)])
    lo = 1.0
    for _ in range(10):
        d = DirichletParams(rng.uniform(0.5, 5.0, size=3))
        lo = min(lo, float(dirichlet_possibility(d, interior).max()))
    check("grid_sup_normalised", 1 - 5.0 / 200 <= lo <= 1 + 1e-6, f"min sup {lo:.6f}")

    pairs = [gradcheck.dominated_divergences(rng) for _ in range(20)]
    d_fg = max(abs(fg) for fg, _ in pairs)
    d_gf = min(gf for _, gf in pairs)
    check("divergence_domination_zero", d_fg == 0.0 and d_gf >= -1e-12,
          f"max |D(f||g)| {d_fg!r}, min D(g||f) {d_gf!r}")

    worst = max(gradcheck.posterior_peak_gap(rng) for _ in range(3))
    check("posterior_max_one", worst == 0.0, f"max gap {worst!r}")

    worst = max(gradcheck.pushforward_gap(rng) for _ in range(3))
    check("pushforward_identity", worst == 0.0, f"max gap {worst!r}")

    # Frozen scalar values.
    val = log_dirichlet_possibility(DirichletParams([2.0, 1.0, 1.0]),
                                    SimplexPoint([0.25, 0.5, 0.25]))
    check("frozen_log_possibility", abs(val - (-0.6931471805599453)) < 1e-12,
          f"got {val!r}")
    out = dappr_loss(np.zeros((1, 2)), np.array([0]))
    check("frozen_unit_logits_loss", abs(out.value - (-0.326968552235965)) < 1e-12,
          f"got {out.value!r}")

    worst = max([gradcheck.loss_gradient_error(rng, lam) for lam in (0.0, 2e-3)]
                + [gradcheck.penalty_gradient_error(rng) for _ in range(2)])
    check("gradient_loss_level", worst < 1e-5, f"max rel err {worst:.3e}")

    err = gradcheck.step_gradient_error(rng, background=True)
    check("gradient_end_to_end", err < 1e-4, f"rel err {err:.3e}")

    # Ranking metric frozen examples.
    check("metric_examples",
          abs(aupr([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]) - 5.0 / 6.0) < 1e-12
          and auroc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]) == 0.75)

    return VerifyReport(checks)
