import argparse
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import dappr
from dappr import cli
from dappr.datasets import OOD_KINDS
from dappr.harness import ExperimentConfig, ModelSpec, ProbeSpec
from dappr.loss import LossConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_text() -> str:
    return " ".join(README.read_text(encoding="utf-8").split())


def test_library_in_brief_runs():
    # a public name removed or renamed under the quick start fails here
    section = README.read_text(encoding="utf-8").split("## Library in brief", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["epi"].shape == (namespace["te"].n,)


def test_readme_lists_every_runner_flag():
    # a flag added to or removed from a runner without the README fails here
    sentence = re.search(r"[^.]*override the config file[^.]*\.", _readme_text()).group(0)
    documented = re.findall(r"`(--[a-z-]+)`", sentence)
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {option for name in cli._RUNNERS
               for action in subparsers.choices[name]._actions
               for option in action.option_strings if option not in ("-h", "--help")}
    assert len(documented) == len(set(documented))
    assert set(documented) == options


def _listed(lead: str) -> list[str]:
    """The backquoted names after ``lead`` in the README, up to a '.' or ';'."""
    listed = re.search(rf"{lead} ([^.;]*)", _readme_text())
    return re.findall(r"`(\w+)`", listed.group(1))


@pytest.mark.parametrize("section, cls", [("loss", LossConfig), ("model", ModelSpec),
                                          ("probe", ProbeSpec)])
def test_readme_lists_every_config_section_key(section, cls):
    assert _listed(rf"The `{section}` section has exactly") == [f.name for f in fields(cls)]


def test_readme_lists_every_top_level_config_key():
    # a config key added or removed without the README fails here
    assert _listed("The top-level keys are exactly") == [
        f.name for f in fields(ExperimentConfig)]


def test_readme_lists_every_ood_kind():
    assert _listed("The OOD kinds are exactly") == list(OOD_KINDS)


# each operation the README lists as defined for one vector, on a 2-row batch
_BATCHED_CALLS = {
    "possibilistic_posterior": lambda: dappr.possibilistic_posterior(np.zeros((2, 3))),
    "PossibilityTable": lambda: dappr.PossibilityTable(np.ones((2, 3))),
}


def test_readme_lists_every_single_vector_operation():
    names = re.search(r"Operations defined for one vector \(([^)]*)\)", _readme_text())
    listed = re.findall(r"`(\w+)`", names.group(1))
    assert listed == list(_BATCHED_CALLS)
    for name in listed:
        with pytest.raises(ValueError, match="single vector"):
            _BATCHED_CALLS[name]()
