"""Triple-intersection reconstruction of a PL function from three diagrams.

Critical lines from three admissible directions meet, three at a time, exactly
at the critical points of the function (boundary points excepted, which is why
the caller supplies start and end). The naive search tries every (t, s, r)
triple in O(n^3). The rolling ball variant exploits the ordering: with the
T-heights sorted decreasing and the R-heights increasing, both crossing
sequences along a fixed S-line run left to right, so a two-pointer sweep
discards one line per comparison and needs at most 2n log n + 2n^2 operations.

`naive_reconstruct` is the oracle: per T-line it meets all S- and R-lines at
once through the broadcast `geometry.intersect`. `rolling_ball_reconstruct`
keeps a scalar sweep, whose comparison count the tests pin against the paper's
bound. It keeps its own inline copy of the closed form with precomputed trig,
because a call per crossing made it markedly slower on small functions; its
copy stays independent of the oracle, and the tests compare the two outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Callable, Sequence

import numpy as np

from .geometry import Angle, Point2, intersect


@dataclass
class OpCounter:
    """Counts comparison steps (sort comparisons plus sweep comparisons)."""

    count: int = 0

    def tick(self, k: int = 1) -> None:
        self.count += k


@dataclass(frozen=True)
class TripleConfig:
    """Three strictly ordered directions plus the boundary points of the
    function being reconstructed; candidates closer than match_tol merge."""

    theta0: Angle
    theta1: Angle
    theta2: Angle
    start: Point2
    end: Point2
    match_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.theta2.theta < self.theta1.theta < self.theta0.theta <= math.pi / 2):
            raise ValueError("need 0 < theta2 < theta1 < theta0 <= pi/2")
        if self.match_tol <= 0:
            raise ValueError("match_tol must be positive")

    # the default of match_tol below is the field default above (class scope)
    @classmethod
    def default(cls, start: Point2, end: Point2, match_tol: float = match_tol) -> "TripleConfig":
        return cls(
            Angle.from_degrees(90.0),
            Angle.from_degrees(85.0),
            Angle.from_degrees(80.0),
            start,
            end,
            match_tol,
        )

    @property
    def x_window(self) -> tuple[float, float]:
        """Abscissa range that can contain critical points. Accidental
        near-coincidences of unrelated critical lines far outside the
        function's domain are never triple points and are discarded."""
        lo, hi = sorted((self.start.x, self.end.x))
        return lo - self.match_tol, hi + self.match_tol


def _push(points: list[tuple[float, float]], x: float, y: float, tol2: float) -> None:
    for px, py in points:
        dx, dy = px - x, py - y
        if dx * dx + dy * dy < tol2:
            return
    points.append((x, y))


def _sorted_counting(values: Sequence[float], reverse: bool, counter: OpCounter | None) -> list[float]:
    if counter is None:
        return sorted(values, reverse=reverse)

    def cmp(a: float, b: float) -> int:
        counter.tick()
        return (a > b) - (a < b)

    return sorted(values, key=cmp_to_key(cmp), reverse=reverse)


def naive_reconstruct(
    t_heights: Sequence[float],
    s_heights: Sequence[float],
    r_heights: Sequence[float],
    cfg: TripleConfig,
    counter: OpCounter | None = None,
) -> list[Point2]:
    """Exhaustive triple search: every (t, s, r) whose pairwise intersections
    coincide within match_tol yields one point. Start and end are always
    included; output is sorted by x."""
    ss = np.asarray(s_heights, dtype=float)[:, None]
    rs = np.asarray(r_heights, dtype=float)
    tol2 = cfg.match_tol * cfg.match_tol

    x_lo, x_hi = cfg.x_window
    found: list[tuple[float, float]] = [(cfg.start.x, cfg.start.y), (cfg.end.x, cfg.end.y)]
    for t in t_heights:
        if counter is not None:
            counter.tick(ss.size * rs.size)
        # rows follow S, columns R: the T-line's crossings with every S-line
        # against its crossings with every R-line
        x_ts, y_ts = intersect(cfg.theta0, t, cfg.theta1, ss)
        x_tr, y_tr = intersect(cfg.theta0, t, cfg.theta2, rs)
        dx, dy = x_ts - x_tr, y_ts - y_tr
        hit = (dx * dx + dy * dy < tol2) & (x_lo <= x_tr) & (x_tr <= x_hi)
        for j in np.nonzero(hit)[1]:
            _push(found, float(x_tr[j]), float(y_tr[j]), tol2)
    found.sort()
    return [Point2(x, y) for x, y in found]


def rolling_ball_reconstruct(
    t_heights: Sequence[float],
    s_heights: Sequence[float],
    r_heights: Sequence[float],
    cfg: TripleConfig,
    counter: OpCounter | None = None,
) -> list[Point2]:
    """Two-pointer triple search, equivalent to the naive one on generic input.

    For each S-line the T-crossings (T sorted decreasing) and R-crossings
    (R sorted increasing) both advance rightward; whichever current crossing
    is further left can never be part of a triple with the remaining lines and
    is discarded. The sweep stops at the first triple per S-line, which is
    exact when no critical line carries two triple points.
    """
    sin0, cos0 = math.sin(cfg.theta0.theta), math.cos(cfg.theta0.theta)
    sin1, cos1 = math.sin(cfg.theta1.theta), math.cos(cfg.theta1.theta)
    sin2, cos2 = math.sin(cfg.theta2.theta), math.cos(cfg.theta2.theta)
    den10 = math.sin(cfg.theta1.theta - cfg.theta0.theta)
    den12 = math.sin(cfg.theta1.theta - cfg.theta2.theta)
    tol2 = cfg.match_tol * cfg.match_tol

    ts = _sorted_counting(t_heights, reverse=True, counter=counter)
    ss = _sorted_counting(s_heights, reverse=False, counter=counter)
    rs = _sorted_counting(r_heights, reverse=False, counter=counter)

    x_lo, x_hi = cfg.x_window
    found: list[tuple[float, float]] = [(cfg.start.x, cfg.start.y), (cfg.end.x, cfg.end.y)]
    tick = counter.tick if counter is not None else None
    n_r, n_t = len(rs), len(ts)
    for s in ss:
        i = j = 0
        while i < n_r and j < n_t:
            if tick is not None:
                tick()
            r = rs[i]
            t = ts[j]
            x_r = (r * sin1 - s * sin2) / den12
            y_r = (s * cos2 - r * cos1) / den12
            x_t = (t * sin1 - s * sin0) / den10
            y_t = (s * cos0 - t * cos1) / den10
            dx, dy = x_r - x_t, y_r - y_t
            if dx * dx + dy * dy < tol2:
                if x_lo <= x_r <= x_hi:
                    _push(found, x_r, y_r, tol2)
                    break
                # an out-of-window coincidence is not a triple point; R_i can
                # meet this S-line only here, so discard it and keep scanning
                i += 1
            elif x_r < x_t:
                i += 1
            else:
                j += 1
    found.sort()
    return [Point2(x, y) for x, y in found]


def count_comparisons(
    algorithm: Callable[..., list[Point2]],
    t_heights: Sequence[float],
    s_heights: Sequence[float],
    r_heights: Sequence[float],
    cfg: TripleConfig,
) -> int:
    """Run one reconstruction with instrumentation and return its comparison count."""
    counter = OpCounter()
    algorithm(t_heights, s_heights, r_heights, cfg, counter=counter)
    return counter.count
