"""Per-layer timers around hlab's public functions.

The benchmark measures each layer from outside: Tracer replaces a
function by a timing wrapper in every hlab module that holds it, so the
wrapper sits where callers look the name up (for example
hlab.solutions.schrodinger_batch, hlab.experiments.analyze and
hlab.backend.kernel_tau_sum).  Nothing inside hlab changes.

Each wrapped call is a span.  A span's inclusive time counts once per
outermost call of its name; its self time is its duration minus the
traced calls nested inside it.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _size(args, kwargs, index, name) -> int:
    return int(np.size(_arg(args, kwargs, index, name)))


def _pairs(args, kwargs) -> int:
    """Query points times grid nodes of one evolve_by_convolution call."""
    spec = _arg(args, kwargs, 3, "spec")
    if spec is None:
        spec = sys.modules["hlab.solutions"].convolution_grid(args[0])
    points = _arg(args, kwargs, 2, "points")
    return len(points) * math.prod(n for _, _, n in spec.axes)


# (span name, module, attribute, counter).  A counter maps the call's
# arguments to (count name, amount) pairs.
TRACED = (
    ("backend.kernel_tau_sum", "hlab.backend", "kernel_tau_sum",
     lambda a, k: [("evals", _size(a, k, 0, "rho") * _size(a, k, 3, "tau"))]),
    ("backend.hermite_table", "hlab.backend", "hermite_table", None),
    ("special.hermite_fn_scaled", "hlab.special", "hermite_fn_scaled", None),
    ("special.laguerre_table", "hlab.special", "laguerre_table", None),
    ("special.sinh_ratio_log", "hlab.special", "sinh_ratio_log", None),
    ("quadrature.integrate_adaptive", "hlab.quadrature",
     "integrate_adaptive", None),
    ("quadrature.integrate_exponential_tail", "hlab.quadrature",
     "integrate_exponential_tail", None),
    ("fourier.analyze", "hlab.fourier", "analyze", None),
    ("fourier.synthesize", "hlab.fourier", "synthesize", None),
    ("fourier.evolve_schrodinger", "hlab.fourier", "evolve_schrodinger",
     None),
    ("kernels.schrodinger_batch", "hlab.kernels", "schrodinger_batch",
     lambda a, k: [("points", _size(a, k, 2, "rho"))]),
    ("kernels.schrodinger_kernel", "hlab.kernels", "schrodinger_kernel",
     None),
    ("kernels.kernel_complex_time", "hlab.kernels", "kernel_complex_time",
     None),
    ("kernels.heat_kernel_series", "hlab.kernels", "heat_kernel_series",
     None),
    ("kernels.series_term_closed", "hlab.kernels", "series_term_closed",
     lambda a, k: [("terms", _size(a, k, 4, "ell"))]),
    ("kernels.heat_kernel_gaveau", "hlab.kernels", "heat_kernel_gaveau",
     None),
    ("kernels.restricted_kernel", "hlab.kernels", "restricted_kernel", None),
    ("kernels.dispersion_constant", "hlab.kernels", "dispersion_constant",
     None),
    ("solutions.evolve_by_convolution", "hlab.solutions",
     "evolve_by_convolution",
     lambda a, k: [("pairs", _pairs(a, k))]),
    ("solutions.hyperplane_decay_exponent", "hlab.solutions",
     "hyperplane_decay_exponent", None),
)

# Methods are wrapped on their class.
TRACED_METHODS = (
    ("solutions.LineData.value_with_floor", "hlab.solutions", "LineData",
     "value_with_floor"),
)


class Tracer:
    """Installs span wrappers into the loaded hlab modules for the rest of
    the process; collects per-name inclusive time, self time, calls and
    counts."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []
        self._depth = defaultdict(int)

    # -- spans ------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        frame = [0.0]                   # time of traced calls nested inside
        self._stack.append(frame)
        self._depth[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - start
            self._stack.pop()
            self._depth[name] -= 1
            if not self._depth[name]:
                self.inclusive[name] += took
            self.self_time[name] += took - frame[0]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][0] += took

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, amount in counter(args, kwargs):
                    self.counts[name + "." + key] += amount
            return self.call(name, fn, args, kwargs)

        return traced

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hlab" and not mod_name.startswith("hlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def install(self):
        """Wrap every traced function, method and experiment runner."""
        for name, mod_name, attr, counter in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self.wrap(name, original,
                                                         counter))
        for name, mod_name, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            setattr(cls, attr, self.wrap(name, vars(cls)[attr]))
        catalog = sys.modules["hlab.experiments"].CATALOG
        for report, runner in list(catalog.items()):
            wrapper = self.wrap("experiments.run_" + report, runner)
            self._replace_everywhere(runner, wrapper)
            catalog[report] = wrapper

    # -- results ----------------------------------------------------------

    def raw(self) -> dict:
        """Plain per-name tables, for the pass record."""
        return {"inclusive": dict(self.inclusive),
                "self": dict(self.self_time),
                "calls": dict(self.calls),
                "counts": dict(self.counts)}


def layer_metric(name: str, raw: dict) -> float:
    """One per-layer metric of a traced pass, from Tracer.raw().

    "<span>.s" is inclusive time, "<span>.self_s" self time and
    "<span>.calls" the call count; any other "<span>.<count>" is a work
    count.  trace.overhead_s needs the untraced passes, so the caller
    computes it."""
    own = raw["self"]
    if name == "experiments.self_s":
        return sum(v for k, v in own.items()
                   if k.startswith("experiments.run_"))
    if name == "cli.self_s":
        return own.get("cli.main", 0.0)
    if name == "backend.kernel_tau_sum.evals_per_s":
        busy = raw["inclusive"].get("backend.kernel_tau_sum", 0.0)
        evals = raw["counts"].get("backend.kernel_tau_sum.evals", 0)
        return evals / busy if busy > 0 else 0.0
    span, _, kind = name.rpartition(".")
    table = {"s": raw["inclusive"], "self_s": own, "calls": raw["calls"]}
    if kind in table:
        return table[kind].get(span, 0)
    return raw["counts"].get(name, 0)
