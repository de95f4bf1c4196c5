"""The benchmark's traced run wraps dappr functions and methods by name.

benchmarks/tracer.py lists its targets as (module, attribute) strings, so a
rename or deletion in src/dappr (say of ``backward``,
``_soft_label_finetune`` or ``_Adam.step``) breaks nothing here and makes
every ``--trace 1`` run crash while the hooks are installed.  These tests
read the tracer's tables, without writing anything under benchmarks/, and
check each target still exists.
"""

import importlib
import types
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _tracer() -> types.ModuleType:
    # compiled from its source text, so no bytecode cache is written
    module = types.ModuleType("benchmark_tracer")
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"),
         module.__dict__)
    return module


def test_every_traced_function_exists_in_dappr():
    layers = _tracer().FUNCTION_LAYERS
    missing = [f"{module}.{attr}" for _, module, attr, *_ in layers
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert layers and missing == []


def test_every_traced_method_is_defined_on_its_class():
    # the tracer replaces cls.__dict__[method], so an inherited one is missing
    layers = _tracer().METHOD_LAYERS
    missing = [f"{module}.{cls_name}.{method}"
               for _, module, cls_name, method, _ in layers
               if method not in vars(getattr(importlib.import_module(module), cls_name, object))]
    assert layers and missing == []
