"""Spans and counters at prefmax's layer boundaries, from outside the program.

`Tracer.install()` rebinds each listed public function, in every prefmax
module that holds it, to a wrapper that records a span (name, start, end,
parent span, op id) or, for hot scalar entry points, only bumps a counter.
`uninstall()` restores the originals. Spans stay in memory until the run
writes them out. A listed name that the program no longer defines is
reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

MODULES = ("prefmax", "prefmax.points", "prefmax.relations", "prefmax.cones", "prefmax.vip",
           "prefmax.plastria", "prefmax.descent", "prefmax.fixtures", "prefmax.harness",
           "prefmax.cli")

# layer -> public functions recorded as spans named "<layer>.<function>"
SPANNED = {
    "relations": ("maximal_elements", "maxima", "check_property", "contour"),
    "cones": ("box_sample", "sample_contour", "body_from_sample", "cone_unit_hull",
              "normal_membership", "normal_membership_many", "strict_normal_membership"),
    "vip": ("svip_membership", "bodies_for_ground", "mvip_membership", "uniqueness_check",
            "svip_inclusion_check", "mvip_solutions", "svip_solutions"),
    "plastria": ("zero_maximality_check", "audit_gap_flags", "plastria_membership"),
    "descent": ("run_descent", "quasi_fejer_check", "gap_convergence_stat"),
    "fixtures": ("registry", "self_test_fixture"),
    "harness": ("run_experiment", "descend_fixture", "emit_report", "emit_trace",
                "load_trace_json"),
}
# counter -> (module, class or None, attribute); counted, not spanned
COUNTED = {
    "relations.holds": ("relations", None, "holds"),
    "relations.strictly_prefers": ("relations", None, "strictly_prefers"),
    "cones.nnls.cone": ("cones", "Cone", "contains"),
    "cones.nnls.body": ("cones", "ConvexBody", "contains"),
    "plastria.gap": ("plastria", "GapFunction", "__call__"),
    "fixtures.contour_sampler": ("fixtures", "Fixture", "contour_sampler"),
}
# counters snapshotted around every span, so a span knows the work inside it
SNAPSHOT = ("relations.holds", "relations.strictly_prefers", "vip.cone_oracle")


def _ground_size(pos):
    return lambda args, kwargs, result: len(args[pos])


META = {
    "points.grid": lambda args, kwargs, result: len(result),
    "relations.maximal_elements": _ground_size(1),
    "relations.maxima": _ground_size(1),
    "relations.check_property": _ground_size(1),
    "relations.contour": _ground_size(2),
    "cones.box_sample": lambda args, kwargs, result: len(result.points),
    "cones.sample_contour": lambda args, kwargs, result: len(result.points),
    "vip.svip_membership": lambda args, kwargs, result: result is not None,
    "vip.mvip_solutions": _ground_size(1),
    "vip.svip_solutions": _ground_size(1),
    "descent.run_descent": lambda args, kwargs, result: (len(result.rows) - 1,
                                                         result.termination),
    "harness.emit_trace": lambda args, kwargs, result: os.path.getsize(result),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, meta, deltas]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._snap = [0] * len(SNAPSHOT)
        self._patches: list[tuple] = []

    # --------------------------------------------------------- wrappers

    def span(self, name: str, fn):
        spans, stack, snap = self.spans, self._stack, self._snap
        meta = META.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None, snap[:]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                rec[6] = [b - a for a, b in zip(rec[6], snap)]
            if meta is not None:
                rec[5] = meta(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        slot = SNAPSHOT.index(name) if name in SNAPSHOT else None
        snap = self._snap

        if slot is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                snap[slot] += 1
                return fn(*args, **kwargs)
        return counted

    # ---------------------------------------------------------- binding

    def _set(self, owner, attr, original, value, setter=setattr):
        self._patches.append((owner, attr, original, setter))
        setter(owner, attr, value)

    def _rebind_everywhere(self, module: str, attr: str, make):
        mod = importlib.import_module(f"prefmax.{module}")
        original = mod.__dict__.get(attr)
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        for name in MODULES:
            m = importlib.import_module(name)
            if m.__dict__.get(attr) is original:
                self._set(m, attr, original, wrapper)

    def install(self, fixtures=(), extra_oracles=None):
        """Wrap the listed functions; also count calls of each fixture's cone
        oracle and of the benchmark's own oracles in `extra_oracles`."""
        for layer, names in SPANNED.items():
            for attr in names:
                self._rebind_everywhere(layer, attr,
                                        lambda fn, n=f"{layer}.{attr}": self.span(n, fn))
        for counter, (module, cls, attr) in COUNTED.items():
            if cls is None:
                self._rebind_everywhere(module, attr,
                                        lambda fn, c=counter: self.counter(c, fn))
                continue
            owner = getattr(importlib.import_module(f"prefmax.{module}"), cls, None)
            if owner is None or attr not in owner.__dict__:
                self.absent.append(f"{module}.{cls}.{attr}")
                continue
            original = owner.__dict__[attr]
            self._set(owner, attr, original, self.counter(counter, original))
        points = importlib.import_module("prefmax.points")
        grid = getattr(points, "GroundSet", None)
        if grid is None or not isinstance(grid.__dict__.get("grid"), classmethod):
            self.absent.append("points.GroundSet.grid")
        else:
            original = grid.__dict__["grid"]
            self._set(grid, "grid", original,
                      classmethod(self.span("points.grid", original.__func__)))
        for fx in fixtures:
            if fx.cone_oracle is not None:
                self._set(fx, "cone_oracle", fx.cone_oracle,
                          self.counter("vip.cone_oracle", fx.cone_oracle),
                          setter=object.__setattr__)
        for key, fn in (extra_oracles or {}).items():
            self._set(extra_oracles, key, fn, self.counter("vip.cone_oracle", fn),
                      setter=dict.__setitem__)

    def uninstall(self):
        while self._patches:
            owner, attr, original, setter = self._patches.pop()
            setter(owner, attr, original)
        for name, value in zip(SNAPSHOT, self._snap):
            self.counts[name] = value

    # ------------------------------------------------------------ export

    def dump(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "op", "meta"],
                "spans": [r[:6] for r in self.spans], "counts": dict(self.counts),
                "absent": self.absent}
