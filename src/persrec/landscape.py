"""Persistence landscapes and their decoding back to critical values.

The level-k landscape of a diagram is the k-th largest value, pointwise, of
the tent functions max{0, min{t - birth, death - t}} over the diagram points.
Landscapes are computed exactly as piecewise-linear functions: every vertex
of every level occurs either at a birth, at a death, or at a half-sum
(birth_i + death_j)/2 where two tents cross, so evaluating the k-th order
statistic on that candidate set and joining the dots is exact. The tent
values fill one array, a row per diagram point and a column per candidate,
built and sorted down the columns in place. A level keeps the candidates of
its row where one slope mask finds the slope changing, with its zero tails
trimmed to one boundary zero a side.

Decoding reads each sloped piece of a nonzero level on its own. The level is
the k-th largest tent, so a piece lies on exactly one tent: a rising piece
starting at (t, u) has that tent's birth t - u, a falling one its death t + u.
A run of pieces of one slope sign is one tent and gives one value, and flat
zero stretches give none. Every emitted value is a critical value (a birth
or a finite death) of the source diagram.

Decoded values are matched back to the sample extrema of
`persistence.extremal_points`, all extrema against all values in one
broadcast comparison, so decoding shares the diagram sweep's one extremum
rule and `critical_points`' one kind rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .persistence import CriticalPoint, Diagram, extremal_points

# Threshold on the squared difference (samples - y)**2 when matching decoded
# critical values back to sample indices.
MATCH_THRESHOLD = 1e-4

_SLOPE_TOL = 1e-9


@dataclass(frozen=True)
class Landscape:
    """One landscape level as an ordered list of (t, u) vertices.

    An empty vertex tuple denotes the zero function. Nonzero landscapes have
    u >= 0 everywhere, u = 0 at both ends, and segment slopes in {-1, 0, +1}.
    """

    level: int
    vertices: tuple[tuple[float, float], ...]

    @property
    def is_zero(self) -> bool:
        return len(self.vertices) == 0

    def __call__(self, t):
        if self.is_zero:
            return np.zeros_like(np.asarray(t, dtype=float))
        ts = np.array([v[0] for v in self.vertices])
        us = np.array([v[1] for v in self.vertices])
        return np.interp(t, ts, us, left=0.0, right=0.0)

    def to_dict(self) -> dict:
        return {"level": self.level, "vertices": [[t, u] for t, u in self.vertices]}

    @classmethod
    def from_dict(cls, data: dict) -> "Landscape":
        return cls(int(data["level"]), tuple((float(t), float(u)) for t, u in data["vertices"]))


def capped_points(d: Diagram, essential_cap: float | None = None) -> list[tuple[float, float]]:
    """Finite (birth, death) pairs with the essential death capped.

    The cap defaults to the largest height in the diagram (max over births and
    finite deaths), which equals max(f) for the vertical diagram of a function
    whose global maximum is interior. An essential point whose cap does not
    exceed its birth contributes nothing.
    """
    pts = [(p.birth, p.death) for p in d.finite_points]
    ess = d.essential
    if essential_cap is None:
        heights = [p.birth for p in d.points] + [p.death for p in d.finite_points]
        essential_cap = max(heights)
    if essential_cap > ess.birth:
        pts.append((ess.birth, float(essential_cap)))
    return pts


def _polyline_simplify(ts: np.ndarray, us: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Keep the ends and every point where the slope changes, then trim flat
    zero tails down to a single boundary zero on each side."""
    slopes = np.diff(us) / np.diff(ts)
    keep = np.ones(len(ts), dtype=bool)
    keep[1:-1] = np.abs(slopes[:-1] - slopes[1:]) > _SLOPE_TOL
    keep = np.flatnonzero(keep)
    nonzero = np.flatnonzero(us[keep] != 0.0)
    if len(nonzero) == 0:
        return ()
    keep = keep[max(nonzero[0] - 1, 0) : nonzero[-1] + 2]
    # a list first, so the tuple is allocated at its exact size
    return tuple(list(zip(ts[keep].tolist(), us[keep].tolist())))


def landscapes(d: Diagram, max_k: int, essential_cap: float | None = None) -> list[Landscape]:
    """Exact piecewise-linear landscapes lambda_1 .. lambda_max_k of a diagram.

    Levels beyond the last nonzero one come back as zero landscapes, matching
    the fact that only finitely many levels are nonzero.
    """
    return landscapes_from_pairs(capped_points(d, essential_cap), max_k)


def landscapes_from_pairs(pairs: list[tuple[float, float]], max_k: int) -> list[Landscape]:
    """Exact landscapes of a plain finite (birth, death) multiset."""
    if max_k < 1:
        raise ValueError("max_k must be positive")
    pts = [(b, dd) for b, dd in pairs]
    if any(not (b < dd) for b, dd in pts):
        raise ValueError("every pair needs birth < death")
    if not pts:
        return [Landscape(k, ()) for k in range(1, max_k + 1)]

    betas = np.array([b for b, _ in pts])
    deltas = np.array([dd for _, dd in pts])
    ends = np.concatenate([betas, deltas])
    cands = np.unique(np.concatenate([ends, ((betas[:, None] + deltas[None, :]) / 2.0).ravel()]))
    # half-sums can land a few ulps apart, or a few ulps off a birth or death;
    # such micro-gaps are rounding artifacts, never genuine landscape vertices.
    # Each cluster keeps its smallest birth or death, else its smallest half-sum.
    tol = 1e-12 * max(1.0, float(np.max(np.abs(cands))))
    cluster = np.cumsum(np.concatenate([[False], np.diff(cands) > tol]))
    order = np.lexsort((~np.isin(cands, ends), cluster))
    cands = cands[order][np.concatenate([[True], np.diff(cluster[order]) != 0])]

    # tent values, one row per diagram point and one column per candidate,
    # sorted descending down each column, all in place
    vals = np.subtract(cands[None, :], betas[:, None])
    np.minimum(vals, np.subtract(deltas[:, None], cands[None, :]), out=vals)
    np.maximum(0.0, vals, out=vals)
    np.negative(vals, out=vals)
    vals.sort(axis=0)
    np.negative(vals, out=vals)

    out = []
    for k in range(1, max_k + 1):
        if k <= len(pts):
            out.append(Landscape(k, _polyline_simplify(cands, vals[k - 1])))
        else:
            out.append(Landscape(k, ()))
    return out


def get_y_values(l: Landscape) -> list[float]:
    """Critical values of the source function encoded by one landscape level:
    the birth t - u of each rising run of pieces and the death t + u of each
    falling run, read at the run's first vertex (t, u)."""
    if l.is_zero:
        raise ValueError("the zero landscape encodes no critical values")
    ys: list[float] = []
    run = 0
    for (t, u), (_, u_next) in zip(l.vertices, l.vertices[1:]):
        sign = (u_next > u) - (u_next < u)
        if sign and sign != run:
            ys.append(t - u if sign > 0 else t + u)
        run = sign
    return ys


def reconstruct_from_landscapes(selected: list[Landscape], samples, xs) -> list[CriticalPoint]:
    """Critical points of a sampled function recovered from a subset of its
    vertical-direction landscapes; all nonzero levels recover them all.

    A sample extremum is kept when its value lies within the squared-difference
    threshold of a decoded critical value, so several critical points sharing
    (almost) one y-value are all retrieved.
    """
    y_values = np.array([y for l in selected if not l.is_zero for y in get_y_values(l)])
    points = extremal_points(xs, samples)
    ys = np.array([p.y for p in points])
    hit = ((y_values[None, :] - ys[:, None]) ** 2 < MATCH_THRESHOLD).any(axis=1)
    return [p for p, h in zip(points, hit) if h]
