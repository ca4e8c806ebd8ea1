"""Spans and call tallies recorded from outside the fockpr modules.

A :class:`Tracer` keeps, in memory, one span per call of a wrapped public
function (name, start, end, parent span) and, for per-entry methods that
run thousands of times per command, one tally per (parent span, name)
with a call count and total seconds.  :func:`install` wraps the layer
functions listed in :data:`LAYERS` where they are defined and wherever
another fockpr module bound them by name, so calls from ``cli``,
``suites`` and ``sampler`` are seen too.  Nothing under ``src/`` changes.

:func:`self_times` turns a recorded tree into self seconds per name: a
span's duration minus the part of it that its child spans cover and the
time of the tallied calls made directly inside it.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

Count = Callable[[tuple, dict, Any], float]


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """In-memory spans, tallies and counters of one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.tallies: dict[tuple[int | None, str], list] = {}
        self.counts: dict[str, float] = {}
        self.active = True
        self._next_id = 0
        self._stack: list[tuple[int, str, float]] = []
        self._deferred: list[tuple[dict[str, Count], tuple, dict, Any]] = []

    def parent(self) -> int | None:
        return self._stack[-1][0] if self._stack else None

    def is_open(self, name: str) -> bool:
        return any(n == name for _, n, _ in self._stack)

    def open(self, name: str) -> None:
        self._stack.append((self._next_id, name, self.clock()))
        self._next_id += 1

    def close(self) -> None:
        end = self.clock()
        sid, name, start = self._stack.pop()
        self.spans.append(Span(sid, name, start, end, self.parent()))

    def tally(self, name: str, seconds: float) -> None:
        entry = self.tallies.setdefault((self.parent(), name), [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def defer(self, counts: dict[str, Count], args: tuple, kwargs: dict, result: Any) -> None:
        """Queue counts to be evaluated by :meth:`finish`, outside every span."""
        self._deferred.append((counts, args, kwargs, result))

    def finish(self) -> None:
        """Evaluate the queued counts with the wrappers switched off."""
        self.active = False
        for counts, args, kwargs, result in self._deferred:
            for key, fn in counts.items():
                self.counts[key] = self.counts.get(key, 0) + float(fn(args, kwargs, result))
        self._deferred.clear()

    def to_json(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "tallies": [[p, n, c, s] for (p, n), (c, s) in self.tallies.items()],
            "counts": self.counts,
        }


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span], tallies: list[list]) -> dict[str, float]:
    """Self seconds per name from spans and ``[parent, name, calls, seconds]`` tallies."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    tallied: dict[int, float] = {}
    out: dict[str, float] = {}
    for parent, name, _calls, seconds in tallies:
        out[name] = out.get(name, 0.0) + seconds
        if parent is not None:
            tallied[parent] = tallied.get(parent, 0.0) + seconds
    for s in spans:
        covered = _covered(children.get(s.id, []), s.start, s.end)
        own = (s.end - s.start) - covered - tallied.get(s.id, 0.0)
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def call_counts(spans: list[Span], tallies: list[list]) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0) + 1
    for _parent, name, calls, _seconds in tallies:
        out[name] = out.get(name, 0) + calls
    return out


# -- the layers -----------------------------------------------------------------


def _distinct_positions(_args, _kwargs, result) -> int:
    import numpy as np

    pts = result.points() if hasattr(result, "points") else result
    return int(np.unique(np.asarray(pts, dtype=complex)).size)


def _checks_failed(_args, _kwargs, result) -> int:
    return sum(1 for r in result if not r.passed)


_CONSTRUCT = {
    "sampler.entries": lambda a, k, r: len(r),
    "sampler.distinct": _distinct_positions,
}
_SUITE = {"suites.checks": lambda a, k, r: len(r), "suites.checks_failed": _checks_failed}


@dataclass(frozen=True)
class Layer:
    """One wrapped callable: ``attr`` may be ``Class.method``."""

    module: str
    attr: str
    name: str
    tally: bool = False
    counts: dict[str, Count] = field(default_factory=dict)
    # count only calls not nested inside another span of the same name
    outermost: bool = False


LAYERS: tuple[Layer, ...] = (
    Layer("fockpr.lattice", "window_arrays", "lattice.window_arrays",
          counts={"lattice.window_points": lambda a, k, r: len(r[1])}),
    Layer("fockpr.rng", "keyed_disk", "rng.keyed_disk",
          counts={"rng.draws": lambda a, k, r: r.size}),
    *(
        Layer("fockpr.sampler", fn, "sampler.construct", counts=_CONSTRUCT, outermost=True)
        for fn in ("deterministic_triple", "random_triple", "real_pair", "even_single",
                   "density_opt_real", "density_opt_even", "three_lines")
    ),
    *(
        Layer("fockpr.sampler", fn, "sampler.mc",
              counts={"sampler.mc.trials": lambda a, k, r: r.trials})
        for fn in ("mc_angle_bound", "mc_mirror_angle_bound")
    ),
    Layer("fockpr.pointset", "IndexedPointSet.add", "pointset.add", tally=True),
    Layer("fockpr.pointset", "IndexedPointSet.get", "pointset.get", tally=True),
    Layer("fockpr.pointset", "IndexedPointSet.points", "pointset.points"),
    Layer("fockpr.pointset", "IndexedPointSet.to_json", "pointset.to_json"),
    Layer("fockpr.pointset", "IndexedPointSet.to_csv", "pointset.to_csv"),
    Layer("fockpr.pointset", "IndexedPointSet.from_json", "pointset.from_json"),
    Layer("fockpr.pointset", "certify_f_closeness", "pointset.closeness"),
    Layer("fockpr.pointset", "angle_condition", "pointset.angle"),
    Layer("fockpr.pointset", "median_angle", "pointset.median_angle", tally=True),
    Layer("fockpr.pointset", "separation", "pointset.separation"),
    Layer("fockpr.pointset", "density_estimate", "pointset.density"),
    Layer("fockpr.jsonio", "dumps", "jsonio.dumps",
          counts={"jsonio.bytes_out": lambda a, k, r: len(r)}),
    Layer("fockpr.jsonio", "load_path", "jsonio.loads",
          counts={"jsonio.bytes_in": lambda a, k, r: os.path.getsize(a[0])}),
    Layer("fockpr.render", "render_svg", "render",
          counts={"render.bytes_out": lambda a, k, r: len(r)}),
    Layer("fockpr.fock", "dist", "fock.dist",
          counts={"fock.dist.pairs": lambda a, k, r: getattr(r, "size", 1)}),
    Layer("fockpr.fock", "quad_norm", "fock.quad_norm"),
    Layer("fockpr.fock", "extension_norm_bound_check", "fock.extension_norm_bound_check"),
    Layer("fockpr.special", "SigmaEvaluator.__init__", "special.sigma_init"),
    Layer("fockpr.special", "SigmaEvaluator.__call__", "special.sigma_eval",
          counts={"special.sigma_eval.points": lambda a, k, r: getattr(r, "size", 1)}),
    Layer("fockpr.special", "GGammaEvaluator.__init__", "special.ggamma_init"),
    Layer("fockpr.special", "lagrange_interpolate", "special.lagrange"),
    Layer("fockpr.gabor", "bargmann", "gabor.bargmann", tally=True),
    Layer("fockpr.gabor", "bargmann_grid", "gabor.bargmann_grid",
          counts={"gabor.bargmann_grid.points": lambda a, k, r: r.size}),
    Layer("fockpr.gabor", "fock_inner_quad", "gabor.fock_inner_quad"),
    Layer("fockpr.phaseless", "lifted_injectivity", "phaseless.lifted_injectivity",
          counts={"phaseless.witness_found": lambda a, k, r: r.witness is not None,
                  "phaseless.kernel_nonzero": lambda a, k, r: r.kernel_dim > 0}),
    Layer("fockpr.phaseless", "lifted_rows", "phaseless.lifted_rows"),
    Layer("fockpr.phaseless", "hermitian_basis", "phaseless.hermitian_basis", tally=True),
    *(
        Layer("fockpr.suites", f"verify_{suite}", f"suites.{suite}", counts=_SUITE)
        for suite in ("fock", "special", "gabor", "phaseless")
    ),
)


def _wrap(tracer: Tracer, layer: Layer, fn: Callable) -> Callable:
    name, counts = layer.name, layer.counts
    clock = tracer.clock

    if layer.tally:
        def tallied(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.tally(name, clock() - t0)

        return tallied

    def spanned(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        nested = layer.outermost and tracer.is_open(name)
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if counts and not nested:
            tracer.defer(counts, args, kwargs, result)
        return result

    return spanned


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer of :data:`LAYERS`; returns a function that undoes it.

    A module-level function is replaced in every loaded ``fockpr`` module
    that holds it, including inside module-level dicts such as the CLI's
    construction table and the suite registry.
    """
    importlib.import_module("fockpr.cli")
    modules = [m for n, m in sorted(sys.modules.items()) if n == "fockpr" or n.startswith("fockpr.")]
    undo: list[Callable[[], None]] = []

    def setter(target, key, value):
        old = target[key] if isinstance(target, dict) else vars(target)[key]
        if isinstance(target, dict):
            target[key] = value
            undo.append(lambda: target.__setitem__(key, old))
        else:
            setattr(target, key, value)
            undo.append(lambda: setattr(target, key, old))

    for layer in LAYERS:
        home = importlib.import_module(layer.module)
        if "." in layer.attr:
            cls_name, meth = layer.attr.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setter(cls, meth, classmethod(_wrap(tracer, layer, raw.__func__)))
            else:
                setter(cls, meth, _wrap(tracer, layer, raw))
            continue
        original = getattr(home, layer.attr)
        wrapped = _wrap(tracer, layer, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setter(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            setter(value, k, wrapped)

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall
