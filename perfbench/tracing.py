"""Spans around the public functions of each layer, recorded from outside.

:class:`Tracer` rebinds each traced function in every ``ghost_slopes``
module that binds it, the defining module included, so calls between
layers and calls inside a layer both pass through the wrapper.  No file
of the library changes.  A span is [name, start, end, parent, item,
counts]; spans stay in memory until the run writes them out.  Functions
not listed here (``dimensions``, ``point_distance`` and the private
helpers) count toward the self time of the traced function that calls
them.
"""

from __future__ import annotations

import functools
import gzip
import json
import time


def _cache_size(ctx, name: str) -> int:
    return len(ctx._caches.get(name, ()))


def _table_counts(args, result, before):
    # a miss is a call that grew ctx._caches["tables"]
    miss = _cache_size(args[0], "tables") > before
    return {"cached": 1, "hit": int(not miss), "cells": args[-1] + 1 if miss else 0}


def _uncached_table_counts(args, result, before):
    return {"cached": 0, "hit": 0, "cells": args[-1] + 1}


def _derivative_counts(args, result, before):
    return {"hit": int(_cache_size(args[0], "derivative") == before)}


# (module, function, span name, counts(args, result, before) or None,
#  name of the ctx cache whose size is read before the call or None)
TRACED = (
    ("cli", "main", "cli", None, None),
    ("ghost", "degree_table", "ghost.tables", _table_counts, "tables"),
    ("ghost", "hatted_valuation_table", "ghost.tables", _table_counts, "tables"),
    ("ghost", "level_tables", "ghost.tables",
     lambda args, result, before: {**_table_counts(args, result, before), "level": 1}, "tables"),
    ("ghost", "valuation_table_at", "ghost.tables", _uncached_table_counts, None),
    ("polygon", "lower_hull", "polygon.lower_hull",
     lambda args, result, before: {"points": len(result.points)}, None),
    ("polygon", "newton_polygon_at", "polygon.newton_polygon_at", None, None),
    ("slopes", "derivative_polygon", "slopes.derivative_polygon", _derivative_counts, "derivative"),
    ("slopes", "breakpoints_by_criterion", "slopes.breakpoints_by_criterion", None, None),
    ("slopes", "is_near_steinberg", "slopes.is_near_steinberg", None, None),
    ("slopes", "certified_newton_polygon", "slopes.certify", None, None),
    ("slopes", "sweep_threshold", "slopes.sweep", None, None),
    ("slopes", "k_newslopes", "slopes.k_newslopes", None, None),
    ("slopes", "k_thresholds", "slopes.k_thresholds", None, None),
    ("prediction", "build_model", "prediction.build_model",
     lambda args, result, before: {"cells": result.d * result.d}, None),
    ("prediction", "predict_slopes", "prediction.predict_slopes", None, None),
    ("distribution", "sample", "distribution.sample",
     lambda args, result, before: {"values": len(result.values)}, None),
    ("distribution", "weyl_moments", "distribution.report", None, None),
    ("distribution", "discrepancy", "distribution.report", None, None),
    ("distribution", "weyl_csv", "distribution.report", None, None),
)

NAME, START, END, PARENT, ITEM, COUNTS = range(6)


class Tracer:
    """Records spans while installed; ``item`` tags the spans of one item."""

    def __init__(self, mods):
        self.mods = mods
        self.spans: list = []
        self.item = None
        self._stack: list = []
        self._installed: list = []

    def _wrap(self, fn, name, counts, cache):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            before = _cache_size(args[0], cache) if cache else None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counts is not None:
                span[COUNTS] = counts(args, result, before)
            return result

        return traced

    def install(self) -> None:
        modules = list(vars(self.mods).values())
        for mod_name, fn_name, name, counts, cache in TRACED:
            fn = getattr(getattr(self.mods, mod_name), fn_name)
            traced = self._wrap(fn, name, counts, cache)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
                        self._installed.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def write(self, path, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, wall: float) -> dict:
    """Per-layer self times, calls and counts derived from the spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s, calls, total = {}, {}, {}
    for i, s in enumerate(spans):
        name = s[NAME]
        self_s[name] = self_s.get(name, 0.0) + (s[END] - s[START]) - child[i]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (s[COUNTS] or {}).items():
            total[(name, key)] = total.get((name, key), 0) + value

    def sec(name):
        return self_s.get(name, 0.0)

    def n(name, key=None):
        return calls.get(name, 0) if key is None else total.get((name, key), 0)

    windows = sum(1 for s in spans if s[NAME] == "polygon.newton_polygon_at"
                  and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "slopes.certify")
    level_builds = sum(1 for s in spans if s[NAME] == "ghost.tables" and s[COUNTS].get("level")
                       and s[COUNTS]["cells"] and s[PARENT] >= 0
                       and spans[s[PARENT]][NAME] == "slopes.sweep")
    return {
        "ghost.tables.self_s": sec("ghost.tables"),
        "ghost.tables.calls": n("ghost.tables"),
        "ghost.tables.cells": n("ghost.tables", "cells"),
        "ghost.tables.cache_hit_ratio": _ratio(n("ghost.tables", "hit"), n("ghost.tables", "cached")),
        "polygon.lower_hull.self_s": sec("polygon.lower_hull"),
        "polygon.lower_hull.calls": n("polygon.lower_hull"),
        "polygon.lower_hull.points": n("polygon.lower_hull", "points"),
        "polygon.newton_polygon_at.self_s": sec("polygon.newton_polygon_at"),
        "slopes.witness_scan.self_s": sec("slopes.breakpoints_by_criterion") + sec("slopes.is_near_steinberg"),
        "slopes.is_near_steinberg.calls": n("slopes.is_near_steinberg"),
        "slopes.derivative_polygon.self_s": sec("slopes.derivative_polygon"),
        "slopes.derivative_polygon.calls": n("slopes.derivative_polygon"),
        "slopes.derivative_polygon.cache_hit_ratio": _ratio(
            n("slopes.derivative_polygon", "hit"), n("slopes.derivative_polygon")),
        "slopes.certify.self_s": sec("slopes.certify"),
        "slopes.certify.windows_per_call": _ratio(windows, n("slopes.certify")),
        "slopes.sweep.self_s": sec("slopes.sweep"),
        "slopes.sweep.calls": n("slopes.sweep"),
        "slopes.sweep.level_table_builds": level_builds,
        "slopes.k_newslopes.self_s": sec("slopes.k_newslopes"),
        "slopes.k_thresholds.self_s": sec("slopes.k_thresholds"),
        "prediction.build_model.self_s": sec("prediction.build_model"),
        "prediction.pattern_cells": n("prediction.build_model", "cells"),
        "prediction.predict_slopes.self_s": sec("prediction.predict_slopes"),
        "distribution.sample.self_s": sec("distribution.sample"),
        "distribution.sample.values": n("distribution.sample", "values"),
        "distribution.report.self_s": sec("distribution.report"),
        "cli.self_s": sec("cli"),
        "trace.coverage_ratio": _ratio(sum(self_s.values()), wall),
    }
