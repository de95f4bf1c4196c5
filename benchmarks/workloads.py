"""The benchmark's workloads: set-up, one job, and the check of its output.

Each workload receives the freshly imported ``dappr`` modules and the
benchmark seed.  The seed only changes generated inputs (dataset seeds); it
never reaches dappr as anything else.  At ``DEFAULT_SEED`` the configs are
exactly those in ``configs/``, so the training workloads can also be checked
against ``tests/data/expected_results.json`` (read-only).

Every call into dappr goes through a module attribute (``d.harness.x``), so the
traced run's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

DEFAULT_SEED = 7  # dataset seed of configs/standard.json and configs/probe.json
EXPECTED_REL = 1e-6  # the acceptance suite's tolerance for frozen numbers
EXPECTED_ABS = 1e-9
REFERENCE_TOL = 1e-12  # float64 reference recomputed by the benchmark itself

SCORE_ROWS_PER_CLASS = 16_667  # 3 classes: 50,001 in-distribution rows
SCORE_OOD_ROWS = 50_000


def expected_mismatches(got, want, path="") -> list[str]:
    """Where ``got`` differs from frozen ``want`` beyond rel 1e-6 / abs 1e-9.

    The tolerance is pytest.approx(want, rel=1e-6, abs=1e-9), as in the
    acceptance suite.  Keys present in ``want`` must be present in ``got``.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object, got {got!r}"]
        out = []
        for key, value in want.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(expected_mismatches(got[key], value, f"{path}.{key}"))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected {len(want)} items, got {got!r}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out.extend(expected_mismatches(g, w, f"{path}[{i}]"))
        return out
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return [f"{path}: expected a number, got {got!r}"]
    if abs(got - want) <= max(EXPECTED_REL * abs(want), EXPECTED_ABS):
        return []
    return [f"{path}: {got!r} != frozen {want!r}"]


def load_expected(path: Path, section: str) -> dict:
    """One section of the frozen results, without its informational runtime."""
    with open(path, encoding="utf-8") as fh:
        frozen = json.load(fh)[section]
    return {k: v for k, v in frozen.items() if k != "runtime_seconds"}


def frozen_section(root: Path, seed: int, section: str, path: Path | None):
    """The frozen numbers a job must match: from ``path``, else at DEFAULT_SEED only."""
    if path is None and seed == DEFAULT_SEED:
        path = root / "tests" / "data" / "expected_results.json"
    return load_expected(path, section) if path is not None else None


def output_digest(outdir: Path) -> dict:
    """sha256 of every file a runner wrote, with report.json's run_info removed."""
    digest = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("run_info", None)
            data = json.dumps(report, indent=2, sort_keys=True).encode()
        digest[path.name] = hashlib.sha256(data).hexdigest()
    return digest


def numpy_logits(weights, biases, x: np.ndarray) -> np.ndarray:
    """Plain-numpy MLP forward pass: relu hidden layers, identity output."""
    h = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        h = z if i == last else np.maximum(z, 0.0)
    return h


def numpy_uncertainties(logits: np.ndarray, loss_kind: str):
    """Reference (aleatoric, epistemic, confidence, alpha0) per row.

    Epistemic is K / alpha0 for the concentration head and the softmax
    entropy for the cross-entropy head, as dappr's report defines them.
    """
    alpha = np.logaddexp(0.0, logits) + 1.0
    alpha0 = alpha.sum(axis=1)
    if loss_kind == "dappr":
        aleatoric = 1.0 - alpha.max(axis=1) / alpha0
        return aleatoric, logits.shape[1] / alpha0, 1.0 - aleatoric, alpha0
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = -np.sum(np.where(probs > 0.0, probs * np.log(probs), 0.0), axis=1)
    return 1.0 - probs.max(axis=1), entropy, probs.max(axis=1), alpha0


def _with_seed(cfg, seed: int, out: Path):
    return replace(cfg, dataset=replace(cfg.dataset, seed=seed), out=str(out))


class Workload:
    """A workload: ``setup`` builds the state, ``run`` is one job, ``check`` its test.

    ``layers`` lists the layers every traced job must reach; a traced job
    that records nothing for one of them means a wrapper missed its target.
    """

    name: str
    layers: tuple = ()

    def start(self, s):
        """Hook run once after the last set-up; returns the function undoing it."""
        return lambda: None


class _DeterministicOutputs:
    """Every job of a run must write the same bytes (run_info aside)."""

    def __init__(self):
        self.first = None

    def problems(self, outdir: Path) -> list[str]:
        digest = output_digest(outdir)
        if self.first is None:
            self.first = digest
            return []
        if digest != self.first:
            changed = sorted(k for k in set(digest) | set(self.first)
                             if digest.get(k) != self.first.get(k))
            return [f"outputs differ from the run's first job: {changed}"]
        return []


# ---------------------------------------------------------------------------
# train_standard: harness.run_standard on configs/standard.json


class TrainStandard(Workload):
    name = "train_standard"
    layers = ("nn.forward", "nn.backward", "nn.optim_step", "loss.dappr_loss",
              "nn.train", "nn.save_checkpoint", "harness.evaluate_seed",
              "harness.write_report")

    def setup(self, d, seed: int, root: Path, out: Path,
              expected_path: Path | None = None):
        cfg = _with_seed(d.harness.load_config(root / "configs" / "standard.json"),
                         seed, out)
        train_ds, _, test_ds = d.harness.make_splits(cfg)
        names = d.harness.ood_names(cfg)
        ood = {name: d.harness.generate_ood(cfg, spec, test_ds.n)
               for name, spec in zip(names, cfg.ood)}
        return SimpleNamespace(
            d=d, cfg=cfg, out=out, test=test_ds, ood=ood,
            rows=train_ds.n * cfg.model.epochs * len(cfg.seeds),
            expected=frozen_section(root, seed, "standard", expected_path),
            same=_DeterministicOutputs())

    def run(self, s):
        return s.d.harness.run_standard(s.cfg)

    def check(self, s, report) -> list[str]:
        problems = s.same.problems(s.out)
        per_seed = report["per_seed"]
        if [r["seed"] for r in per_seed] != list(s.cfg.seeds):
            problems.append(f"per_seed covers {[r['seed'] for r in per_seed]}")
            return problems
        for row in per_seed:
            with open(s.out / f"checkpoint_seed{row['seed']}.json", encoding="utf-8") as fh:
                layers = json.load(fh)["weights"]
            weights = [np.asarray(w) for w, _ in layers]
            biases = [np.asarray(b) for _, b in layers]
            logits = numpy_logits(weights, biases, s.test.features)
            accuracy = 100.0 * float(np.mean(np.argmax(logits, axis=1) == s.test.labels))
            want = {"accuracy": accuracy,
                    "mean_alpha0_id": float(numpy_uncertainties(logits, "dappr")[3].mean())}
            for name, features in s.ood.items():
                z = numpy_logits(weights, biases, features)
                want[name] = float(numpy_uncertainties(z, "dappr")[3].mean())
            got = {"accuracy": row["accuracy"], "mean_alpha0_id": row["mean_alpha0_id"],
                   **{name: row["ood"][name]["mean_alpha0"] for name in s.ood}}
            for key, value in want.items():
                if not math.isclose(got[key], value, rel_tol=1e-9, abs_tol=1e-9):
                    problems.append(f"seed {row['seed']} {key}: report {got[key]!r}, "
                                    f"numpy reference {value!r}")
        mean_acc = float(np.mean([r["accuracy"] for r in per_seed]))
        if not math.isclose(report["mean"]["accuracy"], mean_acc, rel_tol=1e-12):
            problems.append("mean accuracy is not the mean of the per-seed values")
        if s.expected is not None:
            got = {"mean_accuracy": report["mean"]["accuracy"],
                   "mean_ece": report["mean"]["ece"],
                   "mean_alpha0_id": report["mean"]["mean_alpha0_id"],
                   "ood": report["mean"]["ood"]}
            problems.extend(expected_mismatches(got, s.expected, "standard"))
        return problems


# ---------------------------------------------------------------------------
# probe_finetune: harness.run_probe on configs/probe.json


class ProbeFinetune(Workload):
    name = "probe_finetune"
    layers = ("nn.train", "nn.optim_init", "nn.optim_step", "nn.backward",
              "loss.cross_entropy_loss", "loss.softmax", "harness._soft_label_finetune")

    def setup(self, d, seed: int, root: Path, out: Path,
              expected_path: Path | None = None):
        cfg = _with_seed(d.harness.load_config(root / "configs" / "probe.json"), seed, out)
        ds = d.harness.build_dataset(cfg.dataset)
        probe, batch = cfg.probe, cfg.model.batch_size
        rest = ds.n - 1
        finetune_rows = probe.finetune_epochs * (rest + math.ceil(rest / batch))
        probed = np.sort(np.random.default_rng(probe.seed).choice(
            ds.n, size=probe.n_probed, replace=False))
        return SimpleNamespace(
            d=d, cfg=cfg, out=out, probed=probed.tolist(),
            rows=(ds.n * cfg.model.epochs
                  + probe.n_probed * (1 + probe.n_perturbations) * finetune_rows),
            expected=frozen_section(root, seed, "probe", expected_path),
            same=_DeterministicOutputs())

    def run(self, s):
        return s.d.harness.run_probe(s.cfg)

    def check(self, s, report) -> list[str]:
        problems = s.same.problems(s.out)
        rows = report["per_sample"]
        if [r["sample"] for r in rows] != s.probed:
            problems.append(f"probed samples {[r['sample'] for r in rows]}, "
                            f"expected {s.probed}")
        for r in rows:
            if not (math.isfinite(r["loo_loss_true"]) and r["loo_loss_true"] > 0.0
                    and r["ratio"] == r["s_x"] / r["loo_loss_true"]):
                problems.append(f"sample {r['sample']}: inconsistent row {r}")
        if report["median_ratio"] != float(np.median(sorted(r["ratio"] for r in rows))):
            problems.append("median_ratio is not the median of the per-sample ratios")
        if s.expected is not None:
            got = {"median_ratio": report["median_ratio"], "per_sample": rows}
            problems.extend(expected_mismatches(got, s.expected, "probe"))
        return problems


# ---------------------------------------------------------------------------
# infer_dappr / infer_ce: harness.evaluate_seed on ~100k rows with one head


class Infer(Workload):
    """Score 50,001 ID blob rows plus 50,000 uniform-box rows with one head.

    The checkpoint is trained, saved and reloaded during set-up.  The check
    compares every row's aleatoric, epistemic (or entropy), confidence and
    alpha0 with a plain-numpy reference computed from the same weights.
    """

    layers = ("harness.evaluate_seed", "harness.model_uncertainties", "nn.forward",
              "metrics.aupr", "metrics.auroc", "metrics.ece")

    def __init__(self, name: str, loss_kind: str):
        self.name = name
        self.loss_kind = loss_kind
        per_row = (("loss.softplus_plus_one", "possibility.DirichletParams",
                    "metrics.aleatoric_uncertainty", "metrics.epistemic_uncertainty")
                   if loss_kind == "dappr" else
                   ("loss.softmax", "possibility.SimplexPoint", "metrics.softmax_entropy",
                    "loss.softplus_plus_one"))
        self.layers = Infer.layers + per_row

    def setup(self, d, seed: int, root: Path, out: Path, expected_path=None):
        cfg = _with_seed(d.harness.load_config(root / "configs" / "standard.json"),
                         seed, out)
        train_ds, val_ds, _ = d.harness.make_splits(cfg)
        tc = replace(d.harness.train_config(cfg, cfg.seeds[0], train_ds.dim,
                                            train_ds.n_classes),
                     loss_kind=self.loss_kind)
        params, _ = d.nn.train(train_ds.features, train_ds.labels,
                               val_ds.features, val_ds.labels, tc)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"checkpoint_{self.loss_kind}.json"
        d.nn.save_checkpoint(params, path)
        params = d.nn.load_checkpoint(path)

        spec = cfg.dataset
        test = d.datasets.gaussian_blobs(spec.n_classes, SCORE_ROWS_PER_CLASS,
                                         spec.n_features, spec.spread, seed + 1)
        box = d.datasets.ood_generator("uniform_box", SCORE_OOD_ROWS, spec.n_features,
                                       seed + 2)
        references = {}
        for x in (test.features, box):
            logits = numpy_logits(params.weights, params.biases, x)
            references[id(x)] = (numpy_uncertainties(logits, self.loss_kind), logits)
        return SimpleNamespace(d=d, params=params, test=test, ood={"uniform_box": box},
                               references=references, rows=test.n + box.shape[0],
                               captured=[], first=None)

    def start(self, s):
        """Record model_uncertainties' outputs for the check, at harness's lookup."""
        original = s.d.harness.model_uncertainties

        def capture(params, x):
            result = original(params, x)
            s.captured.append((x, result))
            return result

        s.d.harness.model_uncertainties = capture
        return lambda: setattr(s.d.harness, "model_uncertainties", original)

    def run(self, s):
        s.captured.clear()
        return s.d.harness.evaluate_seed(s.params, s.test, s.ood)

    def check(self, s, output) -> list[str]:
        result, _ = output
        problems = []
        if len(s.captured) != len(s.references):
            return [f"model_uncertainties ran {len(s.captured)} times, "
                    f"expected {len(s.references)}"]
        names = ("aleatoric", "epistemic", "confidence", "alpha0")
        for x, got in s.captured:
            (want, logits) = s.references[id(x)]
            for name, g, w in zip(names, got, want):
                if not np.allclose(g, w, rtol=REFERENCE_TOL, atol=REFERENCE_TOL):
                    worst = float(np.max(np.abs(np.asarray(g) - w)))
                    problems.append(f"{name} differs from the numpy reference "
                                    f"on {x.shape[0]} rows (max abs {worst:.3e})")
        ref_logits = s.references[id(s.test.features)][1]
        accuracy = 100.0 * float(np.mean(np.argmax(ref_logits, axis=1) == s.test.labels))
        if not math.isclose(result["accuracy"], accuracy, rel_tol=1e-12):
            problems.append(f"accuracy {result['accuracy']!r} != reference {accuracy!r}")
        encoded = json.dumps(result, sort_keys=True)
        if s.first is None:
            s.first = encoded
        elif encoded != s.first:
            problems.append("evaluate_seed result differs from the run's first job")
        return problems


# ---------------------------------------------------------------------------
# verify_battery: harness.run_verify, as `dappr verify` runs it


class VerifyBattery(Workload):
    name = "verify_battery"
    layers = ("harness.run_verify", "possibility.SimplexPoint",
              "possibility.log_dirichlet_possibility", "possibility.simplex_grid",
              "possibility.grid_argmax_surrogate", "gradcheck.fd_gradient")
    # The grid_sup_normalised check scores 10 concentration vectors on every
    # interior point of the resolution-200 grid on the 3-simplex.
    ROWS = 10 * math.comb(199, 2)

    def setup(self, d, seed: int, root: Path, out: Path, expected_path=None):
        # run_verify draws from its own fixed generator: the seed changes nothing.
        return SimpleNamespace(d=d, rows=self.ROWS, names=None)

    def run(self, s):
        return s.d.harness.run_verify()

    def check(self, s, report) -> list[str]:
        problems = [f"check {name} failed: {detail}"
                    for name, ok, detail in report.checks if not ok]
        names = [name for name, _, _ in report.checks]
        if s.names is None:
            s.names = names
        elif names != s.names:
            problems.append(f"checks {names} differ from the run's first job")
        if not names:
            problems.append("run_verify returned no checks")
        return problems


WORKLOADS = {w.name: w for w in (TrainStandard(), Infer("infer_dappr", "dappr"),
                                 Infer("infer_ce", "cross_entropy"), VerifyBattery(),
                                 ProbeFinetune())}
