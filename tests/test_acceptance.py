"""Acceptance suite: the ten headline criteria, one test per criterion.

Each test prints a single "CRITERION n: PASS/FAIL - ..." line before its
assertion so the verdict is visible in captured output either way.

Criteria 5 to 9 replay the desk-scale experiments defined in
acceptance_configs.py.  They first compare against the committed numbers in
tests/data/expected_results.json (value drift fails loudly, separate from
the headline thresholds), then assert the thresholds themselves.  Regenerate
the frozen file with `python3 tests/freeze_expected.py` after an intentional
behaviour change.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import acceptance_configs as ac
from oracles import (blob_mixture_density, pairwise_auroc,
                     rank_walk_average_precision)

from dappr import gradcheck
from dappr.harness import (generate_ood, make_splits, ood_names,
                           run_lambda_sweep, run_probe, run_scaling,
                           run_standard)
from dappr.metrics import aupr, auroc
from dappr.possibility import (DirichletParams, SimplexPoint,
                               log_dirichlet_possibility, simplex_grid)


# Criterion 6 compares the model's box AUPR with the Bayes-optimal detector's
# on the same points.  The box density is constant, so ranking by the true
# blob-mixture density is optimal; its AUPR (87.6 on these 240 points,
# 89.3-89.5 in population) is the ceiling, and the model must come within
# this many points of it.
OOD_ORACLE_MARGIN = 5.0


def _criterion(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _approx(value, frozen, rel=1e-6):
    return value == pytest.approx(frozen, rel=rel, abs=1e-9)


def _frozen_drift(got, frozen, where: str) -> list[str]:
    """Every number of a frozen section the run does not reproduce.

    Walks the frozen dicts and lists (runtime_seconds is informational and
    skipped) and compares each leaf with _approx; a list must keep its length.
    """
    if isinstance(frozen, dict):
        drift = []
        for key, want in frozen.items():
            if key == "runtime_seconds":
                continue
            if key not in got:
                drift.append(f"{where}.{key} missing")
            else:
                drift += _frozen_drift(got[key], want, f"{where}.{key}")
        return drift
    if isinstance(frozen, list):
        if len(got) != len(frozen):
            return [f"{where}: {len(got)} entries vs frozen {len(frozen)}"]
        return [d for i, (g, w) in enumerate(zip(got, frozen))
                for d in _frozen_drift(g, w, f"{where}[{i}]")]
    return [] if _approx(got, frozen) else [f"{where}: {got!r} vs frozen {frozen!r}"]


def _assert_frozen(got, frozen, where: str) -> None:
    drift = _frozen_drift(got, frozen, where)
    assert not drift, "expected-results drift: " + "; ".join(drift)


@pytest.fixture(scope="module")
def expected():
    path = Path(__file__).resolve().parent / "data" / "expected_results.json"
    if not path.exists():
        pytest.fail("tests/data/expected_results.json missing; "
                    "run `python3 tests/freeze_expected.py` and commit it")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def scaling_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("scaling")
    start = time.perf_counter()
    report = run_scaling(ac.scaling_config(str(out)))
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def standard_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("standard")
    start = time.perf_counter()
    report = run_standard(ac.standard_config(str(out)))
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    report = run_lambda_sweep(ac.sweep_config(str(out)))
    return report


@pytest.fixture(scope="module")
def probe_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("probe")
    report = run_probe(ac.probe_config(str(out)))
    return report


@pytest.fixture(scope="module")
def parity_run(tmp_path_factory):
    results = {}
    for task, loss_kind in ac.PARITY_RUNS:
        out = tmp_path_factory.mktemp(f"parity_{task}_{loss_kind}")
        report = run_standard(ac.parity_config(task, loss_kind, str(out)))
        results[f"{task}_{loss_kind}"] = report["mean"]["accuracy"]
    return results


# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_maximiser_matches_grid():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    grids = {k: simplex_grid(k, 200) for k in (2, 3)}
    worst = max(gradcheck.closed_form_gap(rng, grids[2 if i % 2 == 0 else 3])
                for i in range(200))
    secs = time.perf_counter() - start
    ok = worst <= 2.0 / 200 and secs < 30.0
    _criterion(1, ok, f"max L-inf gap {worst:.2e} over 200 cases "
                      f"(limit 1.00e-02), {secs:.1f}s (limit 30s)")


def test_criterion_02_gradient_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    # the surrogate alone, then through the network in one training step
    loss_errs = [gradcheck.loss_gradient_error(rng, 0.0 if i % 2 else 2e-3)
                 for i in range(100)]
    net_errs = [gradcheck.step_gradient_error(rng, background=False) for _ in range(100)]

    # the vacuous-evidence penalty on background rows: alone at the loss
    # level, then through the network in one training step next to data rows
    rng = np.random.default_rng(2020)
    loss_errs += [gradcheck.penalty_gradient_error(rng) for _ in range(100)]
    net_errs += [gradcheck.step_gradient_error(rng, background=True) for _ in range(100)]
    worst_loss, worst_net = max(loss_errs), max(net_errs)

    secs = time.perf_counter() - start
    ok = worst_loss < 1e-5 and worst_net < 1e-4 and secs < 60.0
    _criterion(2, ok, f"loss-level rel err {worst_loss:.2e} (limit 1e-05), "
                      f"end-to-end {worst_net:.2e} (limit 1e-04), "
                      f"surrogate and vacuous-evidence penalty, "
                      f"{secs:.1f}s (limit 60s)")


def test_criterion_03_possibility_algebra():
    rng = np.random.default_rng(303)
    problems = []

    # grid supremum of the max-normalised possibility, scored in one batch
    # and checked row by row against the definition in plain Python
    grid = simplex_grid(3, 200)
    interior = grid.probs[np.all(grid.probs > 0, axis=1)]
    rows = interior.tolist()
    for _ in range(10):
        d = DirichletParams(rng.uniform(0.5, 5.0, size=3))
        logs = log_dirichlet_possibility(d, SimplexPoint(interior))
        alpha = d.alpha.tolist()
        a0 = sum(alpha)
        worst = max(abs(got - sum(a_k * math.log(p_k / (a_k / a0))
                                  for a_k, p_k in zip(alpha, row)))
                    for got, row in zip(logs.tolist(), rows))
        if worst > 1e-12:
            problems.append(f"log possibility off the definition by {worst!r}")
        sup = np.exp(logs).max()
        if not (1 - 5.0 / 200 <= sup <= 1 + 1e-6):
            problems.append(f"grid sup {sup!r}")

    # exact zero at the mode
    for _ in range(20):
        v = gradcheck.mode_log_possibility(rng)
        if v != 0.0:
            problems.append(f"log at mode {v!r}")

    # divergence: non-negative, exactly zero under pointwise domination
    for _ in range(20):
        d_fg, d_gf = gradcheck.dominated_divergences(rng)
        if d_fg != 0.0:
            problems.append(f"dominated divergence {d_fg!r}")
        if d_gf < -1e-12:
            problems.append(f"divergence {d_gf!r} below -1e-12")

    gap = gradcheck.posterior_peak_gap(rng)
    if gap != 0.0:
        problems.append(f"posterior peak off 1 by {gap!r}")
    gap = gradcheck.pushforward_gap(rng)
    if gap != 0.0:
        problems.append(f"pushforward identity or empty pre-image off by {gap!r}")

    ok = not problems
    _criterion(3, ok, "sup normalisation, mode zero, divergence, posterior, "
                      "pushforward all exact" if ok else "; ".join(problems))


def test_criterion_04_ranking_metrics_match_brute_force():
    rng = np.random.default_rng(404)
    checked = 0
    mismatches = 0
    while checked < 500:
        n = int(rng.integers(2, 9))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        scores = rng.integers(-10, 11, size=n).astype(np.float64)
        ok_case = (auroc(labels, scores) == pairwise_auroc(labels, scores)
                   and aupr(labels, scores) == rank_walk_average_precision(labels, scores)
                   # strictly monotone maps preserve both metrics exactly
                   and auroc(labels, scores) == auroc(labels, 3.0 * scores - 7.0)
                   and aupr(labels, scores) == aupr(labels, scores ** 3)
                   and auroc(labels, scores) == auroc(labels, scores ** 3))
        mismatches += 0 if ok_case else 1
        checked += 1
    ok = mismatches == 0
    _criterion(4, ok, f"{checked} random cases with N <= 8: "
                      f"{mismatches} brute-force or invariance mismatches")


def test_criterion_05_epistemic_shrinks_with_data(scaling_run, expected):
    report, secs = scaling_run
    _assert_frozen(report, expected["scaling"], "scaling")

    by_seed: dict[int, dict[int, float]] = {}
    for row in report["per_run"]:
        by_seed.setdefault(row["seed"], {})[row["size"]] = row["mean_epistemic"]
    sizes = sorted({row["size"] for row in report["per_run"]})
    first, last = sizes[0], sizes[-1]
    n_shrinking = sum(1 for per in by_seed.values() if per[last] < per[first])

    ok = n_shrinking >= 4 and secs < 300.0
    _criterion(5, ok, f"epistemic at n={last} below n={first} for "
                      f"{n_shrinking}/{len(by_seed)} seeds (need >= 4), "
                      f"{secs:.0f}s (limit 300s)")


def test_criterion_06_ood_separation(standard_run, expected):
    report, secs = standard_run
    mean = report["mean"]
    box = mean["ood"]["uniform_box"]
    _assert_frozen({"mean_accuracy": mean["accuracy"], "mean_ece": mean["ece"],
                    "mean_alpha0_id": mean["mean_alpha0_id"], "ood": mean["ood"]},
                   expected["standard"], "standard")

    # the Bayes-oracle AUPR on the very points the model was scored on:
    # the ID test split (positive) against the uniform-box set
    cfg = ac.standard_config(report["config"]["out"])
    _, _, test = make_splits(cfg)
    box_spec = cfg.ood[ood_names(cfg).index("uniform_box")]
    box_x = generate_ood(cfg, box_spec, test.n)
    points = [list(row) for row in np.vstack([test.features, box_x])]
    labels = [1] * test.n + [0] * box_x.shape[0]
    density = [blob_mixture_density(p, cfg.dataset.n_classes, cfg.dataset.spread)
               for p in points]
    oracle = 100.0 * rank_walk_average_precision(labels, density)

    separated = mean["mean_alpha0_id"] > box["mean_alpha0"]
    ok = (separated and box["aupr"] >= oracle - OOD_ORACLE_MARGIN
          and secs < 120.0)
    _criterion(6, ok, f"mean alpha0 ID {mean['mean_alpha0_id']:.1f} vs "
                      f"uniform-box {box['mean_alpha0']:.1f} (need ID higher); "
                      f"OOD AUPR {box['aupr']:.1f} vs Bayes-oracle "
                      f"{oracle:.1f} on the same points (need within "
                      f"{OOD_ORACLE_MARGIN:g}); {secs:.0f}s (limit 120s). "
                      f"Training fits the vacuous Dirichlet on background "
                      f"inputs; without it the relu head's evidence grows "
                      f"along every ray leaving the data; see README")


def test_criterion_07_regulariser_helps_ood(sweep_run, expected):
    report = sweep_run
    # the lambdas are config values, not measurements: exact
    assert [row["lambda"] for row in report["curve"]] == \
        [row["lambda"] for row in expected["sweep"]["curve"]], "expected-results drift: lambdas"
    _assert_frozen(report, expected["sweep"], "sweep")

    by_lam = {row["lambda"]: row for row in report["curve"]}
    zero = by_lam[0.0]["mean_ood_aupr"]
    best = max(row["mean_ood_aupr"] for lam, row in by_lam.items() if lam > 0.0)
    accs = [row["mean_accuracy"] for row in report["curve"]]
    acc_range = max(accs) - min(accs)

    ok = zero < best and acc_range < 3.0
    _criterion(7, ok, f"OOD AUPR {zero:.4f} at lambda=0 vs best {best:.4f} "
                      f"(need strictly worse); accuracy range "
                      f"{acc_range:.2f} points (need < 3)")


def test_criterion_08_leave_one_out_probe(probe_run, expected):
    report = probe_run
    _assert_frozen(report, expected["probe"], "probe")

    ok = report["median_ratio"] < 0.05
    _criterion(8, ok, f"median label-sensitivity ratio "
                      f"{report['median_ratio']:.5f} over "
                      f"{len(report['per_sample'])} probed samples (need < 0.05)")


def test_criterion_09_accuracy_parity(parity_run, expected):
    frozen = expected["parity"]["accuracy"]
    for key, value in parity_run.items():
        assert _approx(value, frozen[key]), \
            f"expected-results drift: {key} accuracy {value!r} vs {frozen[key]!r}"

    gaps = {task: abs(parity_run[f"{task}_dappr"]
                      - parity_run[f"{task}_cross_entropy"])
            for task in ("blobs", "moons")}
    ok = all(gap <= 2.0 for gap in gaps.values())
    _criterion(9, ok, "; ".join(
        f"{task}: {parity_run[f'{task}_dappr']:.2f} vs CE "
        f"{parity_run[f'{task}_cross_entropy']:.2f} (gap {gap:.2f}, limit 2)"
        for task, gap in gaps.items()))


def test_criterion_10_reports_are_deterministic(tmp_path):
    def one_run():
        cfg = ac.determinism_config(str(tmp_path / "run"))
        run_standard(cfg)
        data = json.loads((tmp_path / "run" / "report.json").read_text())
        data.pop("run_info")  # timestamp and wall time, excluded by contract
        return json.dumps(data, sort_keys=True)

    first = one_run()
    second = one_run()
    ok = first == second
    _criterion(10, ok, "two identical-config runs produced byte-identical "
                       "reports (run_info excluded)" if ok else
                       "reports differ between identical runs")
