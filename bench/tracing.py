"""Per-layer timers for exactseries, installed from outside the package.

``install`` wraps the public functions listed in ``LAYERS``.  The modules
bind each other's functions with ``from .x import y``, so a wrapper replaces
the name in every loaded ``exactseries`` module that holds the original, not
only in the module that defines it.

Each wrapped function counts calls, exceptions that leave it, and self time:
its own duration minus the time spent in wrapped calls nested inside it.
Self times of all layers therefore add up to the time spent inside the
outermost wrapped calls.
"""

from __future__ import annotations

import sys
from importlib import import_module
from time import perf_counter

LAYERS = {
    "binomial": ("binom", "harmonic"),
    "series": ("ps_mul", "ps_pow", "ps_inverse", "ps_div", "coefficient",
               "binomial_series"),
    "lang": ("parse_text", "evaluate"),
    "identities": ("verify", "vandermonde_sum", "vandermonde_closed",
                   "vandermonde_series_route", "log_lhs", "log_rhs",
                   "log_closed"),
    "cli": ("run",),
    "rationals": ("format_rational", "parse_rational"),
}

# Work counters kept at a layer boundary, with how each is read off a call.
COUNTERS = {
    "series.ps_mul.terms": ("series.ps_mul",
                            lambda args, result: len(result.coeffs)),
    "lang.evaluate.order": ("lang.evaluate", lambda args, result: args[1]),
}

STAT_FIELDS = (("calls", "count"), ("self_s", "s"), ("errors", "count"))


def function_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Call counts, self times, error counts and work counters per layer."""

    def __init__(self):
        self.stats = {name: {"calls": 0, "self_s": 0.0, "errors": 0}
                      for name in function_names()}
        self.counters = dict.fromkeys(COUNTERS, 0)
        # Time spent in wrapped children, one slot per active wrapped call;
        # the bottom slot collects the time of outermost calls.
        self._children = [0.0]

    @property
    def outer_s(self) -> float:
        """Total time spent inside outermost wrapped calls."""
        return self._children[0]

    def wrap(self, name: str, fn):
        stat = self.stats[name]
        counters = [(key, read) for key, (owner, read) in COUNTERS.items()
                    if owner == name]
        children = self._children
        totals = self.counters

        def traced(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat["errors"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stat["calls"] += 1
                stat["self_s"] += elapsed - children.pop()
                children[-1] += elapsed
            for key, read in counters:
                totals[key] += read(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever exactseries binds it."""
        modules = {layer: import_module(f"exactseries.{layer}")
                   for layer in LAYERS}
        loaded = [mod for key, mod in list(sys.modules.items())
                  if key == "exactseries" or key.startswith("exactseries.")]
        for layer, fns in LAYERS.items():
            for fn in fns:
                original = getattr(modules[layer], fn)
                wrapper = self.wrap(f"{layer}.{fn}", original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def snapshot(self) -> dict:
        """Plain-data copy of the numbers, for sending across processes."""
        return {"stats": self.stats, "counters": self.counters,
                "outer_s": self.outer_s}

    def merge(self, snap: dict) -> None:
        """Add another tracer's snapshot into this one."""
        for name, stat in snap["stats"].items():
            for key in stat:
                self.stats[name][key] += stat[key]
        for key, value in snap["counters"].items():
            self.counters[key] += value
        self._children[0] += snap["outer_s"]

    def metrics(self) -> dict:
        out = {}
        for name, stat in self.stats.items():
            for key, unit in STAT_FIELDS:
                out[f"{name}.{key}"] = {"value": stat[key], "unit": unit}
        for key, value in self.counters.items():
            out[key] = {"value": value, "unit": "count"}
        return out
