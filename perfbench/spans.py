"""Spans around the calls into each layer of `persrec`, kept in memory.

The benchmark reaches the program through an `api` namespace. Traced, every
function in it is wrapped in a span, and so are the module globals one layer
looks up when it calls another (`INNER_CALLS`), rebound for the duration of
the run. A span is named after the module that defines the function, so a
`directional_diagram` call counts towards `persistence` whichever layer made
it.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from collections import Counter

import persrec.landscape
import persrec.reconstruct_smooth

API = (
    persrec.persistence.directional_diagram,
    persrec.persistence.critical_heights,
    persrec.reconstruct_pl.rolling_ball_reconstruct,
    persrec.reconstruct_smooth.five_line_reconstruct,
    persrec.reconstruct_smooth.pl_proxy,
    persrec.landscape.landscapes,
    persrec.landscape.reconstruct_from_landscapes,
)

INNER_CALLS = {
    persrec.reconstruct_smooth: (
        "pl_proxy",
        "directional_diagram",
        "critical_heights",
        "tangent_heights",
        "detect_triangles",
        "filter_and_locate",
    ),
    persrec.landscape: ("get_y_values",),
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def span_names() -> list[str]:
    """Every span name a traced run can record, public calls first."""
    inner = [getattr(mod, attr) for mod, attrs in INNER_CALLS.items() for attr in attrs]
    return list(dict.fromkeys(span_name(fn) for fn in (*API, *inner)))


def _count_diagram(counts, args, out):
    counts["persistence.vertices_in"] += len(args[0])
    counts["persistence.diagram_points"] += len(out.points)


def _count_landscapes(counts, args, out):
    counts["landscape.levels_nonzero"] += sum(not lev.is_zero for lev in out)
    counts["landscape.vertices"] += sum(len(lev.vertices) for lev in out)


# work counted where it is done, from each call's arguments and result
COUNTERS = {
    "persistence.directional_diagram": _count_diagram,
    "reconstruct_smooth.detect_triangles": lambda c, a, out: c.update({"reconstruct_smooth.triangles": len(out)}),
    "reconstruct_smooth.filter_and_locate": lambda c, a, out: c.update({"reconstruct_smooth.points": len(out)}),
    "reconstruct_pl.rolling_ball_reconstruct": lambda c, a, out: c.update(
        {"reconstruct_pl.critical_lines": sum(len(h) for h in a[:3])}
    ),
    "landscape.landscapes": _count_landscapes,
}


def plain_api() -> types.SimpleNamespace:
    return types.SimpleNamespace(**{fn.__name__: fn for fn in API})


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent index, operation id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._wrapped: dict = {}

    def wrap(self, fn):
        if fn in self._wrapped:
            return self._wrapped[fn]
        name = span_name(fn)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, out)
            return out

        self._wrapped[fn] = traced
        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Yield a traced `api` while the inner calls are rebound to traced
        wrappers; the module globals are restored on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attrs in INNER_CALLS.items() for attr in attrs]
        try:
            for mod, attr, fn in saved:
                setattr(mod, attr, self.wrap(fn))
            yield types.SimpleNamespace(**{fn.__name__: self.wrap(fn) for fn in API})
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_ns(self) -> tuple[Counter, Counter]:
        """Total self time and call count per span name. Calls are nested and
        sequential, so a span's children never overlap one another."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns, calls = Counter(), Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            self_ns[name] += end - start - covered
            calls[name] += 1
        return self_ns, calls

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
