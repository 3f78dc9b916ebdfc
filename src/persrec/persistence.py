"""Zero-dimensional sublevel-set persistence of piecewise-linear function graphs.

The graph of a PL function f: [a, b] -> R, filtered by the projection
h(x, y) = x*cos(theta) + y*sin(theta) in a direction e^{i*theta}, changes its
number of connected components only at the projections of finitely many
vertices. The diagram of that filtration is computed by a sorted sweep with
union-find over the path graph: a vertex enters at its own projection, an edge
at the larger projection of its endpoints, and on every merge the component
with the larger birth dies (elder rule).

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

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

    def __len__(self) -> int:
        return len(self.xs)

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)

    def slopes(self) -> np.ndarray:
        return np.diff(self.ys) / np.diff(self.xs)

    def to_dict(self) -> dict:
        return {"vertices": [[float(x), float(y)] for x, y in zip(self.xs, self.ys)]}

    @classmethod
    def from_dict(cls, data: dict) -> "PLFunction":
        verts = data["vertices"]
        return cls([v[0] for v in verts], [v[1] for v in verts])


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

    def to_dict(self) -> dict:
        return {
            "direction_deg": self.direction.degrees,
            "points": [
                {"birth": p.birth, "death": "inf" if p.is_essential else p.death}
                for p in self.points
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Diagram":
        points = tuple(
            PersistencePoint(float(p["birth"]), None if p["death"] == "inf" else float(p["death"]))
            for p in data["points"]
        )
        return cls(Angle.from_degrees(float(data["direction_deg"])), points)


def critical_points(f: PLFunction) -> list[CriticalPoint]:
    """Endpoints plus interior vertices where the segment slope changes sign, by x."""
    return extremal_points(f.xs, f.ys)


def interior_critical_points(f: PLFunction) -> list[CriticalPoint]:
    return [c for c in critical_points(f) if c.kind is not CriticalKind.ENDPOINT]


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
    """
    idx = np.flatnonzero(np.diff(h, prepend=np.nan) != 0.0)
    if len(idx) <= 1:
        return idx
    d = np.diff(h[idx])
    sign_change = (d[:-1] > 0) != (d[1:] > 0)
    return np.concatenate([idx[:1], idx[1:-1][sign_change], idx[-1:]])


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

    Sweep: vertices enter at their projection, edges at the max of their
    endpoint projections (lower-star convention); ties are broken by
    increasing x, vertices before edges. Union-find tracks the birth of each
    component; merges kill the younger component. Zero-length pairs
    (birth == death) are discarded.
    """
    h_full = projections(f, v)
    sub = extremal_indices(h_full)
    h = h_full[sub]
    m = len(h)

    if m == 1:
        return Diagram(v, (PersistencePoint(float(h[0]), None),))

    # events: (value, dim, position); dim 0 = vertex i, dim 1 = edge (i, i+1)
    events = [(h[i], 0, i) for i in range(m)]
    events += [(max(h[i], h[i + 1]), 1, i) for i in range(m - 1)]
    events.sort()

    parent = list(range(m))
    birth = [0.0] * m

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    pts: list[PersistencePoint] = []
    for value, dim, i in events:
        if dim == 0:
            birth[i] = value
        else:
            ra, rb = find(i), find(i + 1)
            ba, bb = birth[ra], birth[rb]
            # elder rule: keep the smaller birth (smaller index on exact tie)
            if (ba, ra) <= (bb, rb):
                elder, younger = ra, rb
            else:
                elder, younger = rb, ra
            if birth[younger] < value:
                pts.append(PersistencePoint(float(birth[younger]), float(value)))
            parent[younger] = elder

    pts.append(PersistencePoint(float(min(birth)), None))
    pts.sort(key=lambda p: (p.birth, math.inf if p.death is None else p.death))
    return Diagram(v, tuple(pts))


def critical_heights(d: Diagram) -> list[float]:
    """Heights of the critical lines orthogonal to d.direction: all births plus
    all finite deaths, deduplicated and sorted ascending."""
    hs = {p.birth for p in d.points}
    hs.update(p.death for p in d.points if not p.is_essential)
    return sorted(hs)


def critical_points_to_dicts(points: Iterable[CriticalPoint]) -> list[dict]:
    return [{"x": p.x, "y": p.y, "kind": p.kind.value} for p in points]
