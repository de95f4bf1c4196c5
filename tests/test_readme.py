import argparse
import re
from dataclasses import fields
from pathlib import Path

import pytest

from dappr import cli
from dappr.harness import ModelSpec
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


@pytest.mark.parametrize("section, cls", [("loss", LossConfig), ("model", ModelSpec)])
def test_readme_lists_every_config_section_key(section, cls):
    listed = re.search(rf"The `{section}` section has exactly ([^.;]*)", _readme_text())
    assert re.findall(r"`(\w+)`", listed.group(1)) == [f.name for f in fields(cls)]
