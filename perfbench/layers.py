"""Per-layer attribution for the traced run.

Two instruments, used in separate passes over the same queries so that
neither distorts the other:

- `Tracer` wraps public entry points of the library's modules (spans: name,
  start, end, parent, query id) and counts the hot arithmetic of
  `Coefficient` and `MPoly` (counters, no spans).  It patches every
  `commend.*` module that holds a reference to a wrapped function, and
  `restore()` puts the originals back.
- `module_self_times` runs the stdlib profiler and buckets self time by the
  module a function lives in; time in builtins goes to the module of the
  caller that spent it.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import time

# span name -> (module, attribute); "Class.method" patches the class
SPANS = {
    "endo2.compose": ("endo2", "compose"),
    "endo2.commutes": ("endo2", "commutes"),
    "endo2.iterate": ("endo2", "iterate"),
    "endo2.extends_to_p2": ("endo2", "extends_to_p2"),
    "endo2.restrict_infinity": ("endo2", "restrict_infinity"),
    "endo2.critical_divisor": ("endo2", "critical_divisor"),
    "endo2.check_critical_chain": ("endo2", "check_critical_chain"),
    "endo2.is_invariant_curve": ("endo2", "is_invariant_curve"),
    "endo2.is_totally_invariant": ("endo2", "is_totally_invariant"),
    "endo2.ramified_square_invariance": ("endo2", "ramified_square_invariance"),
    "endo2.image_curve": ("endo2", "image_curve"),
    "endo2.critical_orbit_finite": ("endo2", "critical_orbit_finite"),
    "endo2.invariant_lines": ("endo2", "invariant_lines"),
    "rat1.ratmap_init": ("rat1", "RatMap1.__init__"),
    "rat1.compose1": ("rat1", "compose1"),
    "rat1.pullback_divisor": ("rat1", "pullback_divisor"),
    "rat1.is_orbifold_selfcover": ("rat1", "is_orbifold_selfcover"),
    "rat1.portrait": ("rat1", "portrait"),
    "rat1.classify_infinity": ("rat1", "classify_infinity"),
    "local.intersection_mult": ("local", "intersection_mult"),
    "local.verify_lemma3": ("local", "verify_lemma3"),
    "local.verify_lemma4": ("local", "verify_lemma4"),
    "local.prop2_reduce": ("local", "prop2_reduce"),
    "families.chebyshev": ("families", "chebyshev"),
    "families.ex4_descend": ("families", "ex4_descend"),
    "families.elliptic_lattes": ("families", "elliptic_lattes"),
    "classify.affine_conjugate": ("classify", "affine_conjugate"),
    "classify.disjoint_iterates": ("classify", "disjoint_iterates"),
    "classify.recognize": ("classify", "recognize"),
    "classify.search": ("classify", "search"),
    "mpoly.gcd_poly": ("mpoly", "gcd_poly"),
    "mpoly.squarefree": ("mpoly", "squarefree_decompose"),
    "mpoly.resultant": ("mpoly", "resultant"),
    "mpoly.binary_form_resultant": ("mpoly", "binary_form_resultant"),
    "mpoly.rational_roots": ("mpoly", "rational_roots"),
    "mpoly.poly_sqrt": ("mpoly", "poly_sqrt"),
}

# counter name -> (module, "Class.method"); aliases of one function share it
COUNTERS = {
    "field.mul": ("field", "Coefficient.__mul__"),
    "field.add": ("field", "Coefficient.__add__"),
    "field.inverse": ("field", "Coefficient.inverse"),
    "field.new": ("field", "Coefficient.__init__"),
    "mpoly.mul": ("mpoly", "MPoly.__mul__"),
    "mpoly.add": ("mpoly", "MPoly.__add__"),
    "mpoly.substitute": ("mpoly", "MPoly.substitute"),
    "mpoly.exact_divide": ("mpoly", "MPoly.exact_divide"),
    "mpoly.make": ("mpoly", "MPoly.make"),
}

CYCLO_COUNTED = ("field.mul", "field.add", "field.inverse")

# spans kept for the trace file; later ones are only counted and timed
MAX_SPANS = 200_000

LAYERS = ("field", "fractions", "mpoly", "endo2", "rat1", "local", "families",
          "classify", "parse", "render", "cli", "errors")


class Tracer:
    """Spans and counters around the library's entry points."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, qid)
        self.dropped = 0
        self.calls = {}
        self.outer_s = {}        # time of outermost activations per name
        self.counts = {name: 0 for name in COUNTERS}
        self.cyclo_ops = 0
        self.search = {"pairs": 0, "probe_pass": 0, "commuting": 0}
        self.recognized = 0
        self.qid = None
        self._stack = []
        self._depth = {}
        self._patches = []

    # -- installation ------------------------------------------------
    def install(self):
        mods = {name[len("commend."):]: mod for name, mod in sys.modules.items()
                if name.startswith("commend.")}
        for name, (modname, attr) in SPANS.items():
            self._patch(mods, modname, attr, self._span(name))
        for name, (modname, attr) in COUNTERS.items():
            self._patch(mods, modname, attr, self._counter(name))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, mods, modname, attr, make_wrapper):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[modname], cls_name)
            raw = cls.__dict__[meth]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = make_wrapper(fn)
            for key, value in list(cls.__dict__.items()):
                if value is raw:
                    self._patches.append((cls, key, raw))
                    setattr(cls, key, staticmethod(wrapped) if static
                            else wrapped)
            return
        fn = getattr(mods[modname], attr)
        wrapped = make_wrapper(fn)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, fn))
                    setattr(mod, key, wrapped)

    # -- wrappers ----------------------------------------------------
    def _span(self, name):
        calls, outer, depth = self.calls, self.outer_s, self._depth
        calls.setdefault(name, 0)
        outer.setdefault(name, 0.0)
        depth.setdefault(name, 0)
        stack, spans = self._stack, self.spans
        after = _SPAN_HOOKS.get(name)

        def make(fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                depth[name] += 1
                parent = stack[-1] if stack else None
                # the slot is taken on entry, so children point at it
                index = len(spans)
                keep = index < MAX_SPANS
                if keep:
                    spans.append(None)
                else:
                    self.dropped += 1
                stack.append(index if keep else parent)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    depth[name] -= 1
                    if depth[name] == 0:
                        outer[name] += end - start
                    if keep:
                        spans[index] = (name, start, end, parent, self.qid)
                if after is not None:
                    after(self, result)
                return result
            return wrapped
        return make

    def _counter(self, name):
        tracer, counts = self, self.counts

        def make(fn):
            if name in CYCLO_COUNTED:
                def wrapped(coef, *args):
                    counts[name] += 1
                    if coef.order > 1 or any(
                            getattr(a, "order", 1) > 1 for a in args):
                        tracer.cyclo_ops += 1
                    return fn(coef, *args)
            else:
                def wrapped(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)
            return wrapped
        return make

    # -- report --------------------------------------------------------
    def trace_json(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "qid": q}
                      for n, s, e, p, q in self.spans],
            "dropped_spans": self.dropped,
            "calls": self.calls,
            "outer_s": self.outer_s,
            "counters": self.counts,
            "cyclo_ops": self.cyclo_ops,
            "search": self.search,
            "recognized": self.recognized,
        }


def _after_search(tracer, summary):
    tracer.search["pairs"] += summary.total_pairs
    tracer.search["probe_pass"] += summary.probe_pass
    tracer.search["commuting"] += summary.commuting


def _after_recognize(tracer, verdict):
    if verdict.tag != "Unknown":
        tracer.recognized += 1


_SPAN_HOOKS = {"classify.search": _after_search,
               "classify.recognize": _after_recognize}


def _layer_of(filename: str) -> str:
    parent, base = os.path.split(filename)
    mod = base[:-3] if base.endswith(".py") else base
    if os.path.basename(parent) == "commend" and mod in LAYERS:
        return mod
    if mod == "fractions" and "commend" not in parent:
        return "fractions"
    return "other"


def module_self_times(run) -> tuple[dict, float]:
    """Run `run()` under the profiler; (self seconds per layer, wall)."""
    prof = cProfile.Profile()
    start = time.perf_counter()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    wall = time.perf_counter() - start
    stats = pstats.Stats(prof).stats
    buckets = {layer: 0.0 for layer in LAYERS + ("other",)}
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in \
            stats.items():
        if filename == "~":
            for caller, edge in callers.items():
                buckets[_layer_of(caller[0])] += edge[2]
            unattributed = tt - sum(edge[2] for edge in callers.values())
            if unattributed > 0:
                buckets["other"] += unattributed
        else:
            buckets[_layer_of(filename)] += tt
    return buckets, wall
