"""Span tracing of the multicolor layers, from outside the package.

``Tracer.install`` rebinds every traced function at every module binding
that refers to it: ``from .mis import enumerate_mis`` copies the function
into the importing module, so wrapping only ``mis.enumerate_mis`` would
miss the calls made through ``wmax.enumerate_mis`` or
``chromatic.enumerate_mis``.  ``uninstall`` restores the originals.

A span records its name, layer, start, end, parent span and request id,
plus counts taken from the call's arguments and result.  A generator
function gets one span per resumption, so the time its consumer spends
between items is not charged to it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


def _mis(args, kw, r):
    graph = _arg(args, kw, 0, "graph")
    return {"sets": len(r), "whole": len(graph.members) == graph.n}


def _chromatic(args, kw, r):
    w = _arg(args, kw, 1, "w")
    start = max(r.lower_bound, max(w, default=0))
    return {"chi": r.chi, "gap": r.chi - r.lower_bound, "levels": r.chi - start + 1 if r.chi else 0}


# layer -> {function: counts from (args, kwargs, result)}; None records none
TRACED = {
    "instance": {"load_instance": None, "parse_instance": None, "parse_dimacs": None},
    "mis": {
        "enumerate_mis": _mis,
        "maximal_restrictions": lambda a, k, r: {"sets": len(r)},
    },
    "wmax": {
        "color_mis_families": lambda a, k, r: {
            "colours": len(r), "family_sets": sum(len(f) for f in r.values())
        },
        "vecsum_families": lambda a, k, r: {"vectors": len(r)},
        "prune_dominated": lambda a, k, r: {"in": _size(_arg(a, k, 0, "vecs")), "out": len(r)},
        "is_permissible": None,
        "wmax": lambda a, k, r: {"vectors": len(r.vectors)},
        "wmax_uniform": lambda a, k, r: {"vectors": len(r.vectors)},
    },
    "vectors": {
        "in_hyperrectangle": lambda a, k, r: {"scanned": _size(_arg(a, k, 1, "vecs"))},
    },
    "coloring": {"find_coloring": None, "iter_colorings": None},
    "chromatic": {"weighted_chromatic": _chromatic},
    "oncall": {"oncall_solutions": lambda a, k, r: {"solutions": len(r)}},
    "extension": {
        "extend_coloring": None,
        "wmax_constrained": lambda a, k, r: {"vectors": len(r.vectors)},
    },
    "cli": {"main": None},
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, layer, start, parent, request):
        self.name, self.layer, self.start = name, layer, start
        self.parent, self.request = parent, request
        self.end = start
        self.attrs = None

    def as_dict(self, sid: int) -> dict:
        return {
            "id": sid, "name": self.name, "layer": self.layer, "start": self.start,
            "end": self.end, "parent": self.parent, "request": self.request,
            **(self.attrs or {}),
        }


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.streams: list[dict] = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str, layer: str) -> Span:
        span = Span(name, layer, perf_counter(), self._stack[-1] if self._stack else None, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def _call(self, name, layer, fn, annotate, args, kwargs):
        span = self._open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if annotate is not None:
            span.attrs = annotate(args, kwargs, result)
        return result

    def _stream(self, name, layer, gen, called):
        record = {"request": self.request, "emitted": 0, "first_s": None}
        try:
            while True:
                span = self._open(name, layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                if record["first_s"] is None:
                    record["first_s"] = perf_counter() - called
                record["emitted"] += 1
                yield item
        finally:
            gen.close()
            self.streams.append(record)

    def _wrapper(self, name, layer, fn, annotate):
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                return self._stream(name, layer, fn(*args, **kwargs), perf_counter())
        else:
            def wrapper(*args, **kwargs):
                return self._call(name, layer, fn, annotate, args, kwargs)
        return functools.update_wrapper(wrapper, fn)

    # -- installation ----------------------------------------------------
    def install(self, package: str = "multicolor") -> None:
        """Wrap every traced function at every binding in the package."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == package]
        for layer, functions in TRACED.items():
            home = sys.modules.get(f"{package}.{layer}")
            for fname, annotate in functions.items():
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapper = self._wrapper(fname, layer, fn, annotate)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patched.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def unwrapped(self, package: str = "multicolor") -> list[str]:
        """Bindings in the package that still hold an original traced function."""
        originals = {id(fn) for _, _, fn in self._patched}
        return [
            f"{name}.{attr}"
            for name, module in sys.modules.items()
            if name.split(".")[0] == package
            for attr, value in vars(module).items()
            if id(value) in originals
        ]

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- summaries -------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own



def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, passes: int, n_requests: int, speed: float) -> dict:
    """Per-layer metrics of a traced phase of whole passes.

    Self times are per request, multiplied by ``speed`` (reference seconds
    per measured second over the phase); counts are per pass, so they
    repeat exactly for one corpus.  A metric whose layer did no work reads 0.
    """
    spans, own = tracer.spans, tracer.self_times()
    per_req = speed / (passes * n_requests)
    layer_s, fn_s, fn_calls, total = Counter(), Counter(), Counter(), Counter()
    layer_calls = Counter(s.layer for s in spans)
    whole_under, whole_sets, in_extension, builds = Counter(), 0, 0, []
    for s, t in zip(spans, own):
        layer_s[s.layer] += t
        fn_s[s.name] += t
        fn_calls[s.name] += 1
        for key, value in (s.attrs or {}).items():
            total[f"{s.name}.{key}"] += value
        if s.name == "enumerate_mis" and s.attrs and s.attrs["whole"]:
            whole_sets += s.attrs["sets"]
            if s.parent is not None:
                whole_under[s.parent] += s.attrs["sets"]
        elif s.name in ("wmax", "wmax_uniform", "wmax_constrained") and s.attrs:
            builds.append(s.attrs["vectors"])
        elif s.name == "weighted_chromatic":
            p = s.parent
            while p is not None and spans[p].name != "extend_coloring":
                p = spans[p].parent
            in_extension += p is not None
    restricted = sum(
        whole_under[i] * s.attrs["colours"]
        for i, s in enumerate(spans)
        if s.name == "color_mis_families" and s.attrs
    )
    firsts = [r["first_s"] for r in tracer.streams if r["first_s"] is not None]
    return {
        "mis.self_s": (layer_s["mis"] * per_req, "s/req"),
        "mis.calls": (layer_calls["mis"] / passes, "count"),
        "mis.parent_sets": (whole_sets / passes, "count"),
        "mis.family_sets": (total["color_mis_families.family_sets"] / passes, "count"),
        "mis.restrict_yield": (_ratio(total["color_mis_families.family_sets"], restricted), "ratio"),
        "wmax.fold_self_s": (fn_s["vecsum_families"] * per_req, "s/req"),
        "wmax.vectors": (_ratio(sum(builds), len(builds)), "count"),
        "wmax.prune_self_s": (fn_s["prune_dominated"] * per_req, "s/req"),
        "wmax.antichain_ratio": (_ratio(total["prune_dominated.out"], total["prune_dominated.in"]), "ratio"),
        "vectors.dominance_self_s": (fn_s["in_hyperrectangle"] * per_req, "s/req"),
        "vectors.dominance_calls": (fn_calls["in_hyperrectangle"] / passes, "count"),
        "vectors.scanned": (total["in_hyperrectangle.scanned"] / passes, "count"),
        "oncall.self_s": (layer_s["oncall"] * per_req, "s/req"),
        "oncall.solutions": (total["oncall_solutions.solutions"] / passes, "count"),
        "coloring.find_self_s": (fn_s["find_coloring"] * per_req, "s/req"),
        "coloring.enum_self_s": (fn_s["iter_colorings"] * per_req, "s/req"),
        "coloring.emitted": (sum(r["emitted"] for r in tracer.streams) / passes, "count"),
        "coloring.first_ms": (_ratio(sum(firsts), len(firsts)) * 1e3 * speed, "ms"),
        "chromatic.self_s": (layer_s["chromatic"] * per_req, "s/req"),
        "chromatic.calls": (fn_calls["weighted_chromatic"] / passes, "count"),
        "chromatic.levels": (total["weighted_chromatic.levels"] / passes, "count"),
        "chromatic.gap": (_ratio(total["weighted_chromatic.gap"], fn_calls["weighted_chromatic"]), "count"),
        "extension.self_s": (layer_s["extension"] * per_req, "s/req"),
        "extension.chromatic_calls": (in_extension / passes, "count"),
        "instance.self_s": (layer_s["instance"] * per_req, "s/req"),
        "cli.self_s": (layer_s["cli"] * per_req, "s/req"),
    }
