"""Outside-in tracing of the d21link layers, kept in memory.

The tracer patches the public entry points of each layer from outside (no
edit to ``src/``) and restores them on ``uninstall``.  Every wrapped call
updates an aggregate keyed by (probe name, phase): calls, outermost
inclusive time (a recursive call inside a call of the same probe is not
counted twice) and self time (duration minus the time of wrapped callees).
Probes of kind ``span`` also append one span record -- name, start, end,
parent span, phase and operation id -- so the call tree of coarse layer
boundaries can be written out when the run ends.  Hot ring and skein
operations (millions of calls per run) are probes of kind ``count``: they
are aggregated only, which keeps memory bounded.

A probe name is ``<layer>.<entry point>``; the layer is the d21link module.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (probe name, kind, module, owner, attribute); owner None = module function.
PROBES = (
    ("ring.laurent_mul", "count", "ring", "QuarterLaurent", "__mul__"),
    ("ring.laurent_add", "count", "ring", "QuarterLaurent", "__add__"),
    ("ring.ratfunc_mul", "count", "ring", "RatFunc", "__mul__"),
    ("ring.ratfunc_add", "count", "ring", "RatFunc", "__add__"),
    ("ring.poly_gcd", "count", "ring", None, "poly_gcd"),
    ("ring.to_integer_laurent", "count", "ring", None, "to_integer_laurent"),
    ("superlinalg.compose", "count", "superlinalg", None, "compose"),
    ("superlinalg.invert", "span", "superlinalg", None, "invert"),
    ("representation.root_vector", "span", "representation", None, "root_vector"),
    ("representation.duality_maps", "span", "representation", None, "duality_maps"),
    ("representation.check_relations", "span", "representation", None,
     "check_defining_relations"),
    ("rmatrix.braiding", "span", "rmatrix", None, "braiding"),
    ("rmatrix.exp_factor", "span", "rmatrix", None, "exp_factor"),
    ("rmatrix.r_matrix", "span", "rmatrix", None, "r_matrix"),
    ("rmatrix.compare_reference", "span", "rmatrix", None, "compare_reference"),
    ("tangle.closure_slices", "span", "tangle", None, "braid_closure_slices"),
    ("tangle.fold", "span", "tangle", None, "evaluate_sliced"),
    ("dubrovnik.graph_build", "span", "dubrovnik", None, "braid_closure_graph"),
    ("dubrovnik.poly", "span", "dubrovnik", None, "dubrovnik_poly"),
    ("dubrovnik.specialize", "span", "dubrovnik", None, "specialize"),
    ("dubrovnik.twovar_mul", "count", "dubrovnik", "TwoVarPoly", "__mul__"),
    ("dubrovnik.switched", "count", "dubrovnik", "LinkGraph", "switched"),
    ("dubrovnik.smoothed", "count", "dubrovnik", "LinkGraph", "smoothed"),
    ("verify.relations", "span", "verify", None, "relations_suite"),
    ("verify.rmatrix", "span", "verify", None, "rmatrix_suite"),
    ("verify.category", "span", "verify", None, "category_suite"),
    ("verify.skein", "span", "verify", None, "skein_suite"),
)


class Tracer:
    def __init__(self):
        self.op_id = None
        self.spans = []           # [name, start, end, parent, phase, op_id]
        self.tallies = defaultdict(float)    # (name, phase) -> sum
        self._stats = {}          # phase -> name -> [calls, outer, self]
        self._frames = [[0.0]]    # child time of each open call
        self._open_spans = [-1]
        self._depth = defaultdict(int)
        self._patches = []
        self.phase = "idle"

    @property
    def phase(self):
        return self._phase

    @phase.setter
    def phase(self, value):
        self._phase = value
        self._current = self._stats.setdefault(value, {})

    # -- recording ---------------------------------------------------------

    def _record(self, name, duration, child, outermost=True):
        stat = self._current.get(name)
        if stat is None:
            stat = self._current[name] = [0, 0.0, 0.0]
        stat[0] += 1
        if outermost:
            stat[1] += duration
        stat[2] += duration - child

    def _enter_span(self, name):
        frame = [0.0]
        self._frames.append(frame)
        self._depth[name] += 1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open_spans[-1],
                           self._phase, self.op_id])
        self._open_spans.append(index)
        return frame, index, perf_counter()

    def _exit_span(self, name, token):
        end = perf_counter()
        frame, index, start = token
        duration = end - start
        self._frames.pop()
        self._frames[-1][0] += duration
        self._open_spans.pop()
        self._depth[name] -= 1
        self._record(name, duration, frame[0], not self._depth[name])
        span = self.spans[index]
        span[1], span[2] = start, end

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark around its own block (an operation)."""
        token = self._enter_span(name)
        try:
            yield
        finally:
            self._exit_span(name, token)

    def tally(self, name, value):
        self.tallies[(name, self._phase)] += value

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every probe in every loaded d21link module that refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "d21link" or n.startswith("d21link.")]
        for name, kind, module, owner, attr in PROBES:
            home = sys.modules["d21link." + module]
            if owner is not None:
                cls = getattr(home, owner)
                original = cls.__dict__[attr]
                wrapped = self._wrap(name, kind, original)
                for key, value in list(cls.__dict__.items()):
                    if value is original:   # also __radd__ = __add__ aliases
                        self._patch(cls, key, value, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, kind, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, value, wrapped)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def _patch(self, target, key, original, wrapped):
        self._patches.append((target, key, original))
        setattr(target, key, wrapped)

    def _wrap(self, name, kind, fn):
        tracer = self
        frames = self._frames

        if kind == "count":
            # Hot path: no span record and no reentrancy bookkeeping (no
            # count probe calls itself), so outer time is plain inclusive.
            def wrapper(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    frames.pop()
                    frames[-1][0] += duration
                    tracer._record(name, duration, frame[0])
        else:
            def wrapper(*args, **kwargs):
                token = tracer._enter_span(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit_span(name, token)
                if name == "tangle.fold":   # the result carries the fold's size
                    tracer.tally("tangle.slices", result.slices)
                    tracer.tally("tangle.peak_strands", result.peak_strands)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- output ------------------------------------------------------------

    def export(self):
        """Aggregates as plain JSON data (merged across processes by ``merge``)."""
        return {
            "stats": [[name, phase, *values]
                      for phase, by_name in sorted(self._stats.items())
                      for name, values in sorted(by_name.items())],
            "tallies": [[name, phase, value]
                        for (name, phase), value in sorted(self.tallies.items())],
        }


def merge(into, exported):
    """Add one process's exported aggregates into ``into``; returns ``into``."""
    stats = into.setdefault("stats", {})
    for name, phase, calls, outer, self_time in exported["stats"]:
        acc = stats.setdefault((name, phase), [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += outer
        acc[2] += self_time
    tallies = into.setdefault("tallies", {})
    for name, phase, value in exported["tallies"]:
        tallies[(name, phase)] = tallies.get((name, phase), 0.0) + value
    return into


def layer_self_times(aggregate, phases):
    """Self seconds per layer (the probe-name prefix) over the given phases."""
    out = defaultdict(float)
    for (name, phase), (_calls, _outer, self_time) in aggregate["stats"].items():
        if phase in phases:
            out[name.split(".", 1)[0]] += self_time
    return dict(sorted(out.items()))
