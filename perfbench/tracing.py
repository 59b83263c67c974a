"""Per-layer spans recorded from outside the package.

Each layer is one module of ``treeshift`` and a set of its public
functions. ``Tracer.install`` replaces every reference to those functions,
in every ``treeshift`` namespace that holds one, with a wrapper that
records a span. A layer's self time is its span minus the spans of the
calls it makes into other wrapped functions. Spans are folded into
per-invocation totals as they close, so memory stays flat however many
calls an invocation makes.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

# layer -> (module, functions); "Class.method" wraps a method in place.
LAYERS = {
    "tree": ("treeshift.tree", ("build_tree", "parse_tree_spec", "enumerate_paths")),
    "gallery": ("treeshift.gallery", ("make", "random_balanced", "load_shift")),
    "ops.construct": ("treeshift.ops", ("TruncatedShift.__init__",)),
    "ops.apply": ("treeshift.ops", ("apply_shift", "apply_adjoint")),
    "ops.query": ("treeshift.ops", ("power_norm", "operator_norm_power", "is_injective")),
    "multiplier.gamma": ("treeshift.multiplier", ("gamma_apply",)),
    "multiplier.quad": ("treeshift.multiplier", ("circle_pair_integral",)),
    "wold.basis": ("treeshift.wold", ("kernel_basis",)),
    "wold.gram": ("treeshift.wold", ("wold_gram",)),
    "wold.peel": ("treeshift.wold", ("peel",)),
    "wold.reconstruct": ("treeshift.wold", ("reconstruct",)),
    "wold.balance": ("treeshift.wold", ("is_balanced", "is_locally_power_balanced")),
    "cli": ("treeshift.cli", ("main",)),
}
MEMORY_LAYERS = ("ops.construct", "wold.gram")


def time_metric(layer: str) -> str:
    return f"{layer}_s" if "." in layer else f"{layer}.self_s"


def calls_metric(layer: str) -> str:
    return f"{layer}_calls" if "." in layer else f"{layer}.calls"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _quad_points(args, kwargs, result) -> int:
    n_points = _arg(args, kwargs, 5, "n_points")
    if n_points is None:
        # The documented default rule N = 2 * (deg q + K + D) + 1.
        s, q, phi = args[0], args[1], args[2]
        n_points = 2 * (q.degree + phi.degree + s.max_depth) + 1
    return n_points


# layer -> (metric, value computed from a call's arguments and result).
COUNTERS = {
    "multiplier.quad": ("multiplier.quad_points", _quad_points),
    "wold.basis": ("wold.kernel_dim", lambda a, k, r: r.total_dim),
    "wold.peel": ("wold.peel_steps", lambda a, k, r: _arg(a, k, 2, "horizon")),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[time_metric(layer)] = "s"
        units[calls_metric(layer)] = "count"
    units.update({f"{layer}_peak_mb": "MB" for layer in MEMORY_LAYERS})
    units.update({metric: "count" for metric, _ in COUNTERS.values()})
    units["trace.overhead_frac"] = "ratio"
    units.update({f"{time_metric(layer)}.exponent": "1" for layer in LAYERS})
    return units


class Tracer:
    """Span stack plus per-invocation totals; ``take`` returns and resets them."""

    def __init__(self) -> None:
        self._stack: list[float] = []  # child time accumulated per open span
        self.memory = False  # tracemalloc peaks for MEMORY_LAYERS
        self._totals: dict[str, float] = defaultdict(float)
        self._installed: list[tuple[object, str, object]] = []

    def take(self) -> dict[str, float]:
        out = dict(self._totals)
        self._totals.clear()
        return out

    def _wrap(self, layer: str, fn):
        totals = self._totals
        stack = self._stack
        counter = COUNTERS.get(layer)
        self_key, calls_key = time_metric(layer), calls_metric(layer)
        peak_key = f"{layer}_peak_mb" if layer in MEMORY_LAYERS else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tracing_memory = peak_key is not None and self.memory and not tracemalloc.is_tracing()
            if tracing_memory:
                tracemalloc.start()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals[self_key] += elapsed - child
                totals[calls_key] += 1
                if tracing_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    totals[peak_key] = max(totals[peak_key], peak)
            if counter is not None:
                totals[counter[0]] += counter[1](args, kwargs, result)
            return result

        return span

    def install(self) -> None:
        """Wrap every layer function wherever a treeshift module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "treeshift" or name.startswith("treeshift."))]
        for layer, (module_name, names) in LAYERS.items():
            home = sys.modules[module_name]
            for name in names:
                if "." in name:
                    cls_name, method = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    self._installed.append((cls, method, original))
                    setattr(cls, method, self._wrap(layer, original))
                    continue
                original = getattr(home, name)
                wrapped = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._installed.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
