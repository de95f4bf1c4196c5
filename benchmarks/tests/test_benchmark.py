"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root:

    python3 -m pytest -q benchmarks/tests

They take about a minute: two short benchmark processes per test that needs
real output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import PER_LAYER_METRICS, metric_unit  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, load_expected  # noqa: E402


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload: str, trace: int, seed: int = 3, seconds: float = 0.1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_registries_match_benchmark_json():
    doc = spec()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == PER_LAYER_METRICS
    assert all(m["unit"] == metric_unit(m["name"]) for m in doc["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_match_benchmark_json(trace):
    doc = spec()
    wanted = doc["per_layer"] if trace else doc["end_to_end"]
    result = bench("probe_finetune", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_across_traced_runs():
    first, second = bench("train_standard", 1), bench("train_standard", 1)
    counts = [name for name in PER_LAYER_METRICS
              if metric_unit(name) == "count" or name == "nn.save_checkpoint.bytes"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["nn.optim_step.calls"]["value"] == 9000
    assert first["metrics"]["loss.dappr_loss.calls"]["value"] == 9000
    assert first["metrics"]["nn.save_checkpoint.calls"]["value"] == 5


@pytest.mark.parametrize("name, section, corrupt", [
    ("train_standard", "standard",
     lambda s: s["ood"]["uniform_box"].__setitem__("aupr", s["ood"]["uniform_box"]["aupr"]
                                                   * (1 + 1e-5))),
    ("probe_finetune", "probe",
     lambda s: s["per_sample"][3].__setitem__("s_x", s["per_sample"][3]["s_x"] * (1 + 1e-5))),
])
def test_checker_flags_corrupted_expected_value(tmp_path, name, section, corrupt):
    copy = tmp_path / "expected_results.json"
    shutil.copyfile(ROOT / "tests" / "data" / "expected_results.json", copy)
    workload = WORKLOADS[name]
    state = workload.setup(run.import_dappr(), DEFAULT_SEED, ROOT, tmp_path / "out",
                           expected_path=copy)
    report = workload.run(state)
    assert workload.check(state, report) == []

    with open(copy, encoding="utf-8") as fh:
        frozen = json.load(fh)
    corrupt(frozen[section])
    with open(copy, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh)
    state.expected = load_expected(copy, section)
    problems = workload.check(state, report)
    assert len(problems) == 1 and problems[0].startswith(section), problems


def test_checker_flags_a_row_that_disagrees_with_the_numpy_reference(tmp_path):
    workload = WORKLOADS["infer_dappr"]
    state = workload.setup(run.import_dappr(), 3, ROOT, tmp_path / "out")
    stop = workload.start(state)
    try:
        output = workload.run(state)
    finally:
        stop()
    assert workload.check(state, output) == []
    (aleatoric, *rest), logits = state.references[id(state.test.features)]
    aleatoric = aleatoric.copy()
    aleatoric[123] += 1e-9
    state.references[id(state.test.features)] = ((aleatoric, *rest), logits)
    problems = workload.check(state, output)
    assert len(problems) == 1 and problems[0].startswith("aleatoric"), problems
