"""Zero-dimensional sublevel-set persistence of piecewise-linear function graphs.

The graph of a PL function f: [a, b] -> R, filtered by the projection
h(x, y) = x*cos(theta) + y*sin(theta) in a direction e^{i*theta}, changes its
number of connected components only at the projections of finitely many
vertices. After `extremal_indices` the path is an alternating run of minima
and maxima, and its diagram is the elder-rule pairing of that run. One
left-to-right stack pass computes it in linear time: each interior maximum
kills the younger of the two components it joins (Glisse, "Fast persistent
homology computation for functions on R", 2023).

Critical lines are read off the diagram: every birth and every finite death
is the height of one critical line orthogonal to the direction.

One extremum rule and one kind rule serve the whole package, and landscape
decoding shares both. `extremal_indices` reduces the sweep's path to its
extrema and picks out the critical vertices for `is_admissible`.
`extremal_points` tags the points at those indices as endpoint, minimum or
maximum; it gives `critical_points` and the sample extrema that landscape
decoding matches critical values against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geometry import Angle, slope_of


class CriticalKind(enum.Enum):
    LOCAL_MIN = "min"
    LOCAL_MAX = "max"
    ENDPOINT = "endpoint"


@dataclass(frozen=True)
class CriticalPoint:
    x: float
    y: float
    kind: CriticalKind


class PLFunction:
    """Continuous piecewise-linear function given by its ordered vertex list.

    Invariants enforced at construction: at least two vertices, strictly
    increasing x-coordinates, and no horizontal segment (consecutive y values
    differ). Vertices are held as numpy arrays xs, ys.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, xs: Iterable[float], ys: Iterable[float]):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        if len(xs) < 2:
            raise ValueError("a PL function needs at least 2 vertices")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("vertex coordinates must be finite")
        if not (np.diff(xs) > 0).all():
            raise ValueError("vertex x-coordinates must be strictly increasing")
        if (np.diff(ys) == 0).any():
            raise ValueError("horizontal segments are not allowed")
        self.xs = xs
        self.ys = ys

    def __len__(self) -> int:
        return len(self.xs)

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)

    def slopes(self) -> np.ndarray:
        return np.diff(self.ys) / np.diff(self.xs)


@dataclass(frozen=True)
class PersistencePoint:
    """A (birth, death) pair; death is None for the essential class."""

    birth: float
    death: float | None = None

    def __post_init__(self) -> None:
        if self.death is not None and not (self.birth < self.death):
            raise ValueError(f"birth must precede death, got ({self.birth}, {self.death})")

    @property
    def is_essential(self) -> bool:
        return self.death is None


@dataclass(frozen=True)
class Diagram:
    """Multiset of persistence points for one direction.

    Exactly one point is essential (infinite death); its birth is the minimum
    projection over the graph.
    """

    direction: Angle
    points: tuple[PersistencePoint, ...]

    def __post_init__(self) -> None:
        essentials = [p for p in self.points if p.is_essential]
        if len(essentials) != 1:
            raise ValueError(f"a diagram must contain exactly one essential point, got {len(essentials)}")

    @property
    def essential(self) -> PersistencePoint:
        return next(p for p in self.points if p.is_essential)

    @property
    def finite_points(self) -> list[PersistencePoint]:
        return [p for p in self.points if not p.is_essential]


def critical_points(f: PLFunction) -> list[CriticalPoint]:
    """Endpoints plus interior vertices where the segment slope changes sign, by x."""
    return extremal_points(f.xs, f.ys)


def is_admissible(f: PLFunction, v: Angle) -> bool:
    """True when lines orthogonal to v never cross the graph transversally at
    an interior critical point.

    Checked via the sufficient pointwise condition: at every interior critical
    vertex, |-1/tan(theta)| is strictly smaller than the absolute slope of both
    incident segments. The vertical direction (orthogonal slope 0) is always
    admissible because horizontal segments are excluded.
    """
    s = abs(slope_of(v))
    if s == 0.0:
        return True
    slopes = np.abs(f.slopes())
    interior = extremal_indices(f.ys)[1:-1]
    return bool(np.all((s < slopes[interior - 1]) & (s < slopes[interior])))


def projections(f: PLFunction, v: Angle) -> np.ndarray:
    """Heights x*cos(theta) + y*sin(theta) of the vertices, in x order."""
    return f.xs * math.cos(v.theta) + f.ys * math.sin(v.theta)


def extremal_indices(h: np.ndarray) -> np.ndarray:
    """Indices of the endpoints and strict local extrema of a sequence.

    A run of equal consecutive values counts as one point, represented by its
    first index (the smallest x); a constant sequence reduces to [0]. Along a
    path, monotone interior runs never change the sublevel-set component
    count, so the path through these indices has the same diagram.

    One pass over the runs of step codes (up, down or flat): past flat runs,
    each change between up and down is an extremum at the index just past
    the earlier run, and the index past the last run is the right end.
    """
    if len(h) < 2:
        return np.arange(len(h))
    # each step coded 1 up, -1 down or 0 flat
    step = (h[1:] > h[:-1]).view(np.int8) - (h[1:] < h[:-1]).view(np.int8)
    # one past the last step of each run of one code
    end = np.append(np.flatnonzero(step[1:] != step[:-1]) + 1, len(step))
    code = step[end - 1]
    end, code = end[code != 0], code[code != 0]
    turns = end[:-1][code[:-1] != code[1:]]
    return np.concatenate(([0], turns, end[-1:]))


def extremal_points(xs, ys) -> list[CriticalPoint]:
    """The points at `extremal_indices(ys)`, each with its kind: the two ends
    are ENDPOINT, an interior point is LOCAL_MAX when it rises from its left
    neighbour and LOCAL_MIN otherwise. Interior indices are run
    representatives (first of a run), so the left neighbour always differs.
    A flat final run is the right ENDPOINT at the last sample, as a flat
    initial run is the left one at the first."""
    ys = np.asarray(ys, dtype=float)
    last = len(ys) - 1
    idx = extremal_indices(ys)
    if len(idx) > 1:
        idx[-1] = last
    out = []
    for i in idx:
        if i == 0 or i == last:
            kind = CriticalKind.ENDPOINT
        else:
            kind = CriticalKind.LOCAL_MAX if ys[i] > ys[i - 1] else CriticalKind.LOCAL_MIN
        out.append(CriticalPoint(float(xs[i]), float(ys[i]), kind))
    return out


def directional_diagram(f: PLFunction, v: Angle) -> Diagram:
    """H0 persistence diagram of the graph's sublevel filtration in direction v.

    One left-to-right pass over the extremal heights. `pending` holds the
    interior maxima not yet paired, each with the lowest height to its left
    back to the previous higher one; `low` is the lowest height since the
    last of them. A maximum pops every pending one no higher than itself:
    the two sides of a popped maximum merge at its height, and the side with
    the higher minimum dies there. Any order of equal heights gives the same
    multiset of pairs. An endpoint maximum enters with its only edge and
    makes no pair. At the end the rest is popped the same way, and `low` is
    the essential birth.
    """
    h = projections(f, v)
    h = h[extremal_indices(h)].tolist()
    last = len(h) - 1
    pts: list[PersistencePoint] = []
    pending: list[tuple[float, float]] = []  # (max height, lowest height to its left)
    low = math.inf

    def pop_up_to(height: float) -> None:
        nonlocal low
        while pending and pending[-1][0] <= height:
            top, left = pending.pop()
            pts.append(PersistencePoint(max(left, low), top))
            low = min(left, low)

    for i, y in enumerate(h):
        if 0 < i < last and y > h[i - 1]:
            pop_up_to(y)
            pending.append((y, low))
            low = math.inf
        else:
            low = min(low, y)
    pop_up_to(math.inf)

    pts.append(PersistencePoint(low, None))
    pts.sort(key=lambda p: (p.birth, math.inf if p.death is None else p.death))
    return Diagram(v, tuple(pts))


def critical_heights(d: Diagram) -> list[float]:
    """Heights of the critical lines orthogonal to d.direction: all births plus
    all finite deaths, deduplicated and sorted ascending."""
    hs = {p.birth for p in d.points}
    hs.update(p.death for p in d.points if not p.is_essential)
    return sorted(hs)
