"""Persistence landscapes and their decoding back to critical values.

The level-k landscape of a diagram is the k-th largest value, pointwise, of
the tent functions max{0, min{t - birth, death - t}} over the diagram points.
Landscapes are computed exactly as piecewise-linear functions by the sweep of
Bubenik & Dlotko ("A persistence landscapes toolbox for topological
statistics", J. Symb. Comput. 2017). With the pairs sorted by birth, deaths
descending on equal births, a level follows the tent with the largest death
so far and emits only the vertices it has: a birth (b, 0), a peak
((b + d)/2, (d - b)/2), the crossing ((b' + d)/2, (d - b')/2) where a later
tent (b', d') with d' > d rises out of the current one, and the zeros at d
and b' where the next tent starts at or after d. The part of the crossed
tent under the new one, the pair (b', d), and every tent inside the current
one go down to the next level. Every vertex comes from the pairs' own
values, never from comparing candidates, so no tolerance is involved and
the cost grows with the output.

Decoding reads each sloped piece of a nonzero level on its own. The level is
the k-th largest tent, so a piece lies on exactly one tent: a rising piece
starting at (t, u) has that tent's birth t - u, a falling one its death t + u.
A run of pieces of one slope sign is one tent and gives one value, and flat
zero stretches give none. Every emitted value is a critical value (a birth
or a finite death) of the source diagram.

Decoded values are matched back to the sample extrema of
`persistence.extremal_points`, so decoding shares the diagram sweep's one
extremum rule and `critical_points`' one kind rule. Each extremum is tested
against its two neighbours among the sorted decoded values, the only ones
that can be nearest, so memory stays linear in the input. A decoded value is
a vertical projection x*cos(pi/2) + y of its extremum, so it differs from
the sample value by rounding only; the match allows 4 eps times the largest
magnitude of the extremal values and the domain ends, and no more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .persistence import CriticalPoint, Diagram, extremal_points

@dataclass(frozen=True)
class Landscape:
    """One landscape level as an ordered list of (t, u) vertices.

    An empty vertex tuple denotes the zero function. Nonzero landscapes have
    u >= 0 everywhere, u = 0 at both ends, and segment slopes in {-1, 0, +1}.
    Every vertex is a birth, a peak, a crossing of two tents or a zero between
    two of them, so no two consecutive pieces share a slope.
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


def capped_points(d: Diagram) -> list[tuple[float, float]]:
    """Finite (birth, death) pairs with the essential death capped at the
    largest height in the diagram (max over births and finite deaths), which
    equals max(f) for the vertical diagram of a function whose global maximum
    is interior. An essential point whose cap does not exceed its birth
    contributes nothing.
    """
    pts = [(p.birth, p.death) for p in d.finite_points]
    cap = max([p.birth for p in d.points] + [p.death for p in d.finite_points])
    if cap > d.essential.birth:
        pts.append((d.essential.birth, cap))
    return pts


def landscapes(d: Diagram, max_k: int) -> list[Landscape]:
    """Exact piecewise-linear landscapes lambda_1 .. lambda_max_k of a diagram.

    Levels beyond the last nonzero one come back as zero landscapes, matching
    the fact that only finitely many levels are nonzero.
    """
    return landscapes_from_pairs(capped_points(d), max_k)


def landscapes_from_pairs(pairs: list[tuple[float, float]], max_k: int) -> list[Landscape]:
    """Exact landscapes of a plain finite (birth, death) multiset."""
    if max_k < 1:
        raise ValueError("max_k must be positive")
    pts = [(float(b), float(dd)) for b, dd in pairs]
    if any(not (b < dd) for b, dd in pts):
        raise ValueError("every pair needs birth < death")

    out, below = [], pts
    for k in range(1, max_k + 1):
        # births ascending, deaths descending on equal births
        rest = sorted(below, key=lambda p: (p[0], -p[1]))
        if not rest:
            out.append(Landscape(k, ()))
            continue
        (b, d), below = rest[0], []
        verts = [(b, 0.0), ((b + d) / 2, (d - b) / 2)]
        for nb, nd in rest[1:]:
            if nd <= d:
                below.append((nb, nd))
                continue
            if nb < d:
                verts.append(((nb + d) / 2, (d - nb) / 2))
                below.append((nb, d))
            else:
                verts.append((d, 0.0))
                if nb > d:
                    verts.append((nb, 0.0))
            b, d = nb, nd
            verts.append(((b + d) / 2, (d - b) / 2))
        verts.append((d, 0.0))
        # a list first, so the tuple is allocated at its exact size
        out.append(Landscape(k, tuple(verts)))
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

    A sample extremum is kept when its value lies within rounding of a
    decoded critical value, so several critical points sharing one y-value
    are all retrieved.
    """
    y_values = np.sort([y for l in selected if not l.is_zero for y in get_y_values(l)])
    points = extremal_points(xs, samples)
    ys = np.array([p.y for p in points])
    tol = 4 * np.finfo(float).eps * (np.abs(ys).max() + max(abs(xs[0]), abs(xs[-1])))
    if not y_values.size:
        return []
    # the decoded values nearest an extremum are its two neighbours in order
    at = np.searchsorted(y_values, ys)
    below, above = y_values[np.maximum(at - 1, 0)], y_values[np.minimum(at, y_values.size - 1)]
    hit = (np.abs(below - ys) <= tol) | (np.abs(above - ys) <= tol)
    return [p for p, h in zip(points, hit) if h]
