"""Shared experiment configs for the acceptance suite.

The freeze script runs these once and commits the resulting numbers to
tests/data/expected_results.json; the acceptance tests re-run the same
configs and compare against the frozen file before checking the headline
thresholds.  Keeping both sides on one definition prevents silent drift.
"""

from dappr.harness import ExperimentConfig, config_from_dict

EXPECTED_PATH = "tests/data/expected_results.json"


def scaling_config(out: str) -> ExperimentConfig:
    # default blobs task; the 0.8 train split of 1200 points covers size 800
    return config_from_dict({"out": out})


def standard_config(out: str) -> ExperimentConfig:
    return config_from_dict({"out": out})


def sweep_config(out: str) -> ExperimentConfig:
    return config_from_dict({"out": out})


def probe_config(out: str) -> ExperimentConfig:
    # Overlapping classes keep the base risk non-negligible, so the
    # leave-one-out loss the ratio divides by is not numerically zero.
    # 3 x 167 = 501 training points; 20 probed samples.
    return config_from_dict({
        "dataset": {"n_classes": 3, "n_per_class": 167, "spread": 2.5, "seed": 7},
        "out": out,
    })


def parity_config(task: str, loss_kind: str, out: str) -> ExperimentConfig:
    if task == "blobs":
        dataset = {"kind": "gaussian_blobs", "n_classes": 3, "n_per_class": 200,
                   "spread": 1.0, "seed": 7}
    elif task == "moons":
        dataset = {"kind": "two_moons", "n": 600, "noise": 0.1, "seed": 7}
    else:
        raise ValueError(f"unknown parity task {task!r}")
    return config_from_dict({
        "dataset": dataset,
        "model": {"loss_kind": loss_kind},
        "ood": [],  # accuracy comparison only
        "out": out,
    })


PARITY_RUNS = [("blobs", "dappr"), ("blobs", "cross_entropy"),
               ("moons", "dappr"), ("moons", "cross_entropy")]


def determinism_config(out: str) -> ExperimentConfig:
    return config_from_dict({
        "dataset": {"n_classes": 3, "n_per_class": 50, "seed": 7},
        "model": {"hidden": [16], "epochs": 10},
        "seeds": [1],
        "out": out,
    })
