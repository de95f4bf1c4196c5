"""In-memory span tracer for the benchmark's traced run.

The tracer wraps dappr's public and runner-facing functions from the outside:
nothing under ``src/`` knows it exists.  Each wrapper is installed at every
place a caller looks the name up (module globals of every ``dappr`` module,
module-level dicts such as ``dappr.nn._LOSS_FNS``, and methods on the class
for ``_Adam`` and the possibility dataclasses), because rebinding only the
defining module would miss every ``from .x import y`` caller.

A span has a name, start, end, its own id, its parent's id and the unit (set-up
or job) it belongs to.  Calls made once per row (tens of thousands per job) are
aggregated instead: they count calls and self time but record no span, which
keeps the tracing overhead bounded.  Self time is a span's duration minus the
time its child spans and aggregated calls cover.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import numpy as np

JOB_ROOT = "harness.job"
SETUP_ROOT = "bench.setup"


def _saved_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _report_bytes(args, kwargs, result) -> int:
    return os.path.getsize(result)


def _fd_evals(args, kwargs, result) -> int:
    # Central differences: two evaluations of f per coordinate of x0.
    return 2 * int(np.size(args[1] if len(args) > 1 else kwargs["x0"]))


# (layer, defining module, attribute, aggregated, counter name, counter fn)
FUNCTION_LAYERS = [
    ("nn.forward", "dappr.nn", "_forward_cached", False, None, None),
    ("nn.backward", "dappr.nn", "backward", False, None, None),
    ("nn.train", "dappr.nn", "train", False, None, None),
    ("nn.save_checkpoint", "dappr.nn", "save_checkpoint", False,
     "nn.save_checkpoint.bytes", _saved_bytes),
    ("nn.load_checkpoint", "dappr.nn", "load_checkpoint", False, None, None),
    ("loss.dappr_loss", "dappr.loss", "dappr_loss", False, None, None),
    ("loss.one_hot", "dappr.loss", "one_hot", False, None, None),
    ("loss.cross_entropy_loss", "dappr.loss", "cross_entropy_loss", False, None, None),
    ("loss.softmax", "dappr.loss", "softmax", False, None, None),
    ("loss.softplus_plus_one", "dappr.loss", "softplus_plus_one", True, None, None),
    ("possibility.log_dirichlet_possibility", "dappr.possibility",
     "log_dirichlet_possibility", True, None, None),
    ("possibility.simplex_grid", "dappr.possibility", "simplex_grid", False, None, None),
    ("possibility.grid_argmax_surrogate", "dappr.possibility", "grid_argmax_surrogate",
     False, None, None),
    ("metrics.aleatoric_uncertainty", "dappr.metrics", "aleatoric_uncertainty", True,
     None, None),
    ("metrics.epistemic_uncertainty", "dappr.metrics", "epistemic_uncertainty", True,
     None, None),
    ("metrics.softmax_entropy", "dappr.metrics", "softmax_entropy", True, None, None),
    ("metrics.aupr", "dappr.metrics", "aupr", False, None, None),
    ("metrics.auroc", "dappr.metrics", "auroc", False, None, None),
    ("metrics.ece", "dappr.metrics", "ece", False, None, None),
    ("metrics.reliability_bins", "dappr.metrics", "reliability_bins", False, None, None),
    ("harness.model_uncertainties", "dappr.harness", "model_uncertainties", False,
     None, None),
    ("harness.evaluate_seed", "dappr.harness", "evaluate_seed", False, None, None),
    ("harness._soft_label_finetune", "dappr.harness", "_soft_label_finetune", False,
     None, None),
    ("harness.write_report", "dappr.harness", "write_report", False,
     "harness.write_report.bytes", _report_bytes),
    ("harness.run_verify", "dappr.harness", "run_verify", False, None, None),
    ("datasets.gaussian_blobs", "dappr.datasets", "gaussian_blobs", False, None, None),
    ("datasets.split", "dappr.datasets", "split", False, None, None),
    ("datasets.ood_generator", "dappr.datasets", "ood_generator", False, None, None),
    ("gradcheck.fd_gradient", "dappr.gradcheck", "fd_gradient", False,
     "gradcheck.fd_evals", _fd_evals),
]

# (layer, defining module, class, method, aggregated)
METHOD_LAYERS = [
    ("nn.optim_step", "dappr.nn", "_Adam", "step", False),
    ("nn.optim_init", "dappr.nn", "_Adam", "__init__", False),
    ("possibility.DirichletParams", "dappr.possibility", "DirichletParams",
     "__post_init__", True),
    ("possibility.SimplexPoint", "dappr.possibility", "SimplexPoint",
     "__post_init__", True),
]

# Every per-layer metric the traced run emits, in output order.  A metric is
# the layer name plus one statistic: .calls / .constructions (exact count),
# .self_s, .p50_us / .p99_us (per-call latency), or a named counter.
PER_LAYER_METRICS = [
    "nn.forward.calls", "nn.forward.self_s",
    "nn.backward.calls", "nn.backward.self_s",
    "nn.optim_step.calls", "nn.optim_step.self_s",
    "nn.optim_step.p50_us", "nn.optim_step.p99_us",
    "nn.optim_init.calls", "nn.optim_init.self_s",
    "nn.train.calls", "nn.train.self_s",
    "nn.save_checkpoint.calls", "nn.save_checkpoint.self_s", "nn.save_checkpoint.bytes",
    "nn.load_checkpoint.self_s",
    "loss.dappr_loss.calls", "loss.dappr_loss.self_s",
    "loss.dappr_loss.p50_us", "loss.dappr_loss.p99_us",
    "loss.one_hot.calls", "loss.one_hot.self_s",
    "loss.cross_entropy_loss.calls", "loss.cross_entropy_loss.self_s",
    "loss.softmax.calls", "loss.softmax.self_s",
    "loss.softplus_plus_one.calls", "loss.softplus_plus_one.self_s",
    "possibility.DirichletParams.constructions", "possibility.DirichletParams.self_s",
    "possibility.SimplexPoint.constructions", "possibility.SimplexPoint.self_s",
    "possibility.log_dirichlet_possibility.calls",
    "possibility.log_dirichlet_possibility.self_s",
    "possibility.simplex_grid.self_s",
    "possibility.grid_argmax_surrogate.calls", "possibility.grid_argmax_surrogate.self_s",
    "metrics.aleatoric_uncertainty.calls", "metrics.aleatoric_uncertainty.self_s",
    "metrics.epistemic_uncertainty.calls", "metrics.epistemic_uncertainty.self_s",
    "metrics.softmax_entropy.calls", "metrics.softmax_entropy.self_s",
    "metrics.aupr.self_s", "metrics.auroc.self_s", "metrics.ece.self_s",
    "metrics.reliability_bins.self_s",
    "harness.model_uncertainties.calls", "harness.model_uncertainties.self_s",
    "harness.evaluate_seed.self_s",
    "harness._soft_label_finetune.calls", "harness._soft_label_finetune.self_s",
    "harness.write_report.self_s", "harness.write_report.bytes",
    "harness.run_verify.self_s",
    "harness.job.unattributed_s",
    "datasets.gaussian_blobs.self_s", "datasets.split.self_s",
    "datasets.ood_generator.self_s",
    "gradcheck.fd_gradient.calls", "gradcheck.fd_gradient.self_s", "gradcheck.fd_evals",
    "trace.overhead_frac",
]

COUNTERS = ("nn.save_checkpoint.bytes", "harness.write_report.bytes", "gradcheck.fd_evals")


def metric_unit(name: str) -> str:
    if name.endswith((".calls", ".constructions")) or name == "gradcheck.fd_evals":
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "ratio"


class TraceError(RuntimeError):
    """The trace is not wired up: a traced unit recorded nothing it should."""


class Tracer:
    """Spans and per-unit aggregates, all held in memory until ``dump``."""

    def __init__(self):
        self.spans = []      # (name, start, end, span id, parent id, unit)
        self.units = {}      # unit -> {"kind", "stats", "counters", "root_self"}
        self._stack = []     # frames: [child time, span id]
        self._stats = {}
        self._counters = {}
        self._unit = None
        self._kind = None
        self._last_id = 0
        self._root_start = 0.0
        self.origin = time.perf_counter()

    # -- units ---------------------------------------------------------------

    def begin(self, unit: str, kind: str) -> None:
        self._last_id += 1
        self._unit = unit
        self._kind = kind
        self._stats = {}
        self._counters = {}
        self._stack = [[0.0, self._last_id]]
        self._root_start = time.perf_counter()

    def end(self) -> None:
        end = time.perf_counter()
        child, span_id = self._stack.pop()
        root = JOB_ROOT if self._kind == "job" else SETUP_ROOT
        self.spans.append((root, self._root_start, end, span_id, None, self._unit))
        self.units[self._unit] = {"kind": self._kind, "stats": self._stats,
                                  "counters": self._counters,
                                  "root_self": end - self._root_start - child}
        self._unit = None

    def require(self, unit: str, layers) -> None:
        """Fail loudly when a unit recorded nothing, or missed a layer it must use."""
        stats = self.units[unit]["stats"]
        if not stats:
            raise TraceError(f"traced unit {unit} recorded no spans")
        missing = [layer for layer in layers if stats.get(layer, (0, 0.0))[0] == 0]
        if missing:
            raise TraceError(f"traced unit {unit} recorded nothing for {missing}")

    # -- wrappers ------------------------------------------------------------

    def wrap(self, layer: str, fn, aggregate: bool, counter=None, count_fn=None):
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            if aggregate:
                frame = [0.0, parent[1]]
            else:
                tracer._last_id += 1
                frame = [0.0, tracer._last_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                stat = tracer._stats.get(layer)
                if stat is None:
                    stat = tracer._stats[layer] = [0, 0.0]
                stat[0] += 1
                stat[1] += duration - frame[0]
                if not aggregate:
                    tracer.spans.append((layer, start, end, frame[1], parent[1],
                                         tracer._unit))
            if counter is not None:
                tracer._counters[counter] = (tracer._counters.get(counter, 0)
                                             + count_fn(args, kwargs, result))
            return result

        return traced

    # -- results -------------------------------------------------------------

    def _per_unit(self, kind: str, value) -> list:
        return [value(u) for u in self.units.values() if u["kind"] == kind]

    def _setup_plus_job(self, value) -> float:
        # One set-up plus one job: the median over the run's set-ups plus the
        # median over its traced jobs.
        total = 0.0
        for kind in ("setup", "job"):
            values = self._per_unit(kind, value)
            if values:
                total += statistics.median(values)
        return total

    def _latencies_us(self, layer: str) -> list:
        return [(end - start) * 1e6 for name, start, end, _, _, _ in self.spans
                if name == layer]

    def metrics(self, overhead_frac: float) -> dict:
        out = {}
        for name in PER_LAYER_METRICS:
            if name == "trace.overhead_frac":
                value = overhead_frac
            elif name == "harness.job.unattributed_s":
                value = statistics.median(self._per_unit("job", lambda u: u["root_self"]))
            elif name in COUNTERS:
                value = self._setup_plus_job(lambda u, n=name: u["counters"].get(n, 0))
            else:
                layer, stat = name.rsplit(".", 1)
                if stat in ("calls", "constructions"):
                    value = self._setup_plus_job(
                        lambda u, l=layer: u["stats"].get(l, (0, 0.0))[0])
                elif stat == "self_s":
                    value = self._setup_plus_job(
                        lambda u, l=layer: u["stats"].get(l, (0, 0.0))[1])
                else:
                    latencies = self._latencies_us(layer)
                    q = 50 if stat == "p50_us" else 99
                    value = float(np.percentile(latencies, q)) if latencies else 0.0
            if metric_unit(name) in ("count", "bytes"):
                value = int(value) if float(value).is_integer() else value
            out[name] = {"value": value, "unit": metric_unit(name)}
        return out

    def dump(self, path) -> None:
        """Write every span and unit aggregate as JSON lines, times relative to start."""
        with open(path, "w", encoding="utf-8") as fh:
            for unit, data in self.units.items():
                fh.write(json.dumps({"unit": unit, **data}, sort_keys=True) + "\n")
            for name, start, end, span_id, parent, unit in self.spans:
                fh.write(json.dumps([name, start - self.origin, end - self.origin,
                                     span_id, parent, unit]) + "\n")


class Patcher:
    """Installs a tracer's wrappers at every lookup site and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._restore = []

    @staticmethod
    def _dappr_namespaces():
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "dappr" or name.startswith("dappr.")):
                continue
            namespace = vars(module)
            yield namespace
            for value in list(namespace.values()):
                if type(value) is dict:
                    yield value

    def _replace_everywhere(self, original, wrapper) -> None:
        for namespace in self._dappr_namespaces():
            for key, value in list(namespace.items()):
                if value is original:
                    self._restore.append((namespace, key, original))
                    namespace[key] = wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("patches already installed")
        for layer, module, attr, aggregate, counter, count_fn in FUNCTION_LAYERS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.tracer.wrap(layer, original, aggregate, counter, count_fn)
            self._replace_everywhere(original, wrapper)
        for layer, module, cls_name, method, aggregate in METHOD_LAYERS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.tracer.wrap(layer, original, aggregate))
            self._restore.append((cls, method, original))

    def uninstall(self) -> None:
        while self._restore:
            target, key, original = self._restore.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
