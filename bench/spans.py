"""Spans around the calls into each torusdom module, recorded from outside.

The tracer wraps every public module-level function of the package (and
the few certificate and cache methods that are the certificate layer's
boundary) and rebinds each wrapper in every package module that imported
the function by name, so ``maximum_matching`` is timed whether it is
reached through ``validate``, ``construct`` or ``solve``.  Per-vertex
methods of ``VertexSet``, ``TorusDims`` and ``TorusGraph`` are left
alone: they run hundreds of thousands of times per command.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index
of the enclosing span (-1 for none) and ``info`` holds what the layer
metrics need from the call (the matcher's vertex count, the engine a
solve reports, whether a cache lookup hit, the exception a builder
raised).
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

MODULES = ("torus", "validate", "matching", "construct", "solve", "formulas", "certificates", "cli")

# the projection cascade is private but is one of best_upper_witness's builders
PRIVATE_FUNCTIONS = {"construct": ("_projection_cascade",)}

WRAPPED_METHODS = {
    "certificates": {
        "Certificate": ("from_json", "to_json", "check"),
        "ResultCache": ("get", "put"),
    },
}


def _info(name: str, args: tuple, result):
    if name == "matching.maximum_matching":
        return len(args[0])
    if name == "certificates.ResultCache.get":
        return result is not None
    method = getattr(result, "method", None)
    if name.startswith("solve.") and method is not None:
        return method.value
    return None


class Tracer:
    """Keeps the spans of one process in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = perf_counter()
                span[4] = "raise:" + type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            span[4] = _info(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the package's boundary functions in every module that binds them."""
        package = [importlib.import_module(f"torusdom.{m}") for m in MODULES]
        replace: dict[int, object] = {}
        for mod in package:
            short = mod.__name__.rsplit(".", 1)[1]
            private = PRIVATE_FUNCTIONS.get(short, ())
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in private:
                    continue
                replace[id(obj)] = self.wrap(f"{short}.{attr}", obj)
            for cls_name, methods in WRAPPED_METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{short}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw))
        for modname, mod in list(sys.modules.items()):
            if modname != "torusdom" and not modname.startswith("torusdom."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapped = replace.get(id(obj))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


SOLVERS = {
    "solve.solve_profile_dp": "profile_dp",
    "solve.solve_paired_dp": "paired_dp",
    "solve.solve_paired": "paired",
    "solve.solve_oracle": "oracle",
}
ENGINES = set(SOLVERS) | {"solve.solve"}
BUILDERS = {
    "construct.construct_m3",
    "construct.construct_m4",
    "construct.construct_mod4",
    "construct.construct_bound_pattern",
    "construct._projection_cascade",
}
METHOD_NAMES = ("oracle", "profile-dp", "paired-search", "sandwich")
COMMANDS = ("solve", "construct", "verify", "table", "audit")


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    ``records`` are the pass's commands, each with its ``spans``, the
    ``make_torus_misses`` of its process and the checker's ``facts``.
    """
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    methods = dict.fromkeys(METHOD_NAMES, 0)
    vertices = builder_calls = rejects = hits = saved = misses = 0
    for rec in records:
        spans = rec.get("spans", [])  # a command that crashed left none
        solved = any(span[0] in ENGINES for span in spans)
        for (name, _, _, parent, info), alone in zip(spans, self_times(spans)):
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + alone
            if name == "matching.maximum_matching":
                vertices += info
            elif name in BUILDERS:
                builder_calls += 1
                rejects += info == "raise:ConstructionInvalidError"
            elif name == "certificates.ResultCache.get" and info is True:
                hits += 1
                saved += not solved
            elif name.startswith("solve.") and info in methods:
                if parent < 0 or not spans[parent][0].startswith("solve."):
                    methods[info] += 1
        misses += rec.get("make_torus_misses", 0)
    emitted = sum(1 for rec in records if "certificate" in rec["facts"])

    out: dict[str, float] = {}
    for span, layer in SOLVERS.items():
        out[f"solve.{layer}.self_s"] = own.get(span, 0.0)
        out[f"solve.{layer}.calls"] = calls.get(span, 0)
    for method, count in methods.items():
        out[f"solve.method.{method}.count"] = count
    out["matching.calls"] = calls.get("matching.maximum_matching", 0)
    out["matching.vertices"] = vertices
    out["matching.self_s"] = own.get("matching.maximum_matching", 0.0)
    out["validate.plain.self_s"] = own.get("validate.is_dominating", 0.0)
    out["validate.total.self_s"] = own.get("validate.is_total_dominating", 0.0)
    out["validate.paired.self_s"] = own.get("validate.is_paired_dominating", 0.0) + own.get(
        "validate.has_perfect_matching", 0.0
    )
    out["validate.satisfies.calls"] = calls.get("validate.satisfies", 0)
    out["validate.checks_per_output"] = out["validate.satisfies.calls"] / max(emitted, 1)
    out["torus.make_torus.calls"] = calls.get("torus.make_torus", 0)
    out["torus.make_torus.misses"] = misses
    out["torus.make_torus.self_s"] = own.get("torus.make_torus", 0.0)
    out["construct.best_upper_witness.self_s"] = own.get("construct.best_upper_witness", 0.0)
    out["construct.project_column.calls"] = calls.get("construct.project_column", 0)
    out["construct.project_column.self_s"] = own.get("construct.project_column", 0.0)
    out["construct.pattern.reject_share"] = rejects / max(builder_calls, 1)
    out["certificates.parse.self_s"] = own.get("certificates.Certificate.from_json", 0.0)
    out["certificates.check.self_s"] = own.get("certificates.Certificate.check", 0.0)
    out["certificates.serialize.self_s"] = own.get("certificates.Certificate.to_json", 0.0)
    out["certificates.cache.get.calls"] = calls.get("certificates.ResultCache.get", 0)
    out["certificates.cache.put.self_s"] = own.get("certificates.ResultCache.put", 0.0)
    out["certificates.cache.saved_share"] = saved / max(hits, 1)
    out["formulas.upper_bounds.calls"] = calls.get("formulas.upper_bounds", 0)
    out["formulas.upper_bounds.self_s"] = own.get("formulas.upper_bounds", 0.0)
    for command in COMMANDS:
        out[f"cli.{command}.self_s"] = own.get(f"cli.cmd_{command}", 0.0)
    return out


def unit(metric: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "ratio"
    if metric.endswith("checks_per_output"):
        return "calls/cert"
    return "count"
