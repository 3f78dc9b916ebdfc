"""Triple-intersection reconstruction of a PL function from three diagrams.

Critical lines from three admissible directions meet, three at a time, exactly
at the critical points of the function (boundary points excepted, which is why
the caller supplies start and end).

`rolling_ball_reconstruct` is the paper's rolling-ball search, and the one
triple search here. With the T-heights sorted decreasing and the R-heights
increasing, the T- and the R-crossings along one S-line both run left to
right. A two-pointer merge of the two rows discards the crossing further left
at each comparison (a tie discards the T-crossing) and stops at the first
coincidence within match_tol inside the x window. Here the merge is read off
the stable sort of each line's T- and R-crossings, T first on a tie, which
`geometry.intersect` (the one crossing formula) gives for a block of S-lines
at once: step m discards the crossing at position m and compares R_i with
T_j, i and j the R- and T-crossings before position m. The crossing at m is
one of the two, so its index gives the other. A coincidence at step m is
closer than match_tol in x, so the crossing at position m + 1 is too; only
those steps get the exact test, on the same floats as a pair-by-pair merge,
and the first coincidence on a line stops it after m + 1 comparisons. A pair
outside the x window is no coincidence: the merge discards its crossing
further left, as at any other pair, so the window decides only where a line
stops, never which pairs it meets.

`count_comparisons` alone makes the paper's count, at most 2n log n + 2n^2
comparisons: the sorts' through a counting key, one by one, and the merge's
line by line. A line that stops at step m makes m + 1; one that meets no
coincidence makes n_t + n_r less the length of its final run of one family,
which is left when the other family runs out.

The sweep and the count work on blocks of about `BLOCK` crossings, so their
working set stays flat in n. One pass over every S-line at once holds a few
n x n arrays: at n = 400 the search traced 13.2 MB against 0.41 MB in blocks
and raised the pl-triple benchmark's peak RSS from about 80 to 94 MB, and the
count's no-coincidence steps alone traced 4.0 MB (61.7 MB at n = 1600).

The search reports a point within match_tol of a boundary point, or of
another point found, once: a sort by x, and among x-neighbours closer than
match_tol, the boundary points first and then the one found first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Callable, Sequence

import numpy as np

from .geometry import Angle, Point2, intersect

# crossings per block of S-lines in the rolling-ball sweep
BLOCK = 8192


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
        # NaN, or a value whose square underflows to 0, matches nothing, and
        # inf merges every point into start and end
        tol = self.match_tol
        if not (math.isfinite(tol) and tol > 0 and tol * tol > 0):
            raise ValueError(f"match_tol must be positive and finite, with a nonzero square, got {tol!r}")

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
        function's domain are never triple points, so none stops the sweep."""
        lo, hi = sorted((self.start.x, self.end.x))
        return lo - self.match_tol, hi + self.match_tol


def _merge_points(found: np.ndarray, cfg: TripleConfig) -> list[Point2]:
    """Sorts start, end and the (x, y) rows of `found`, the points the sweep
    found in S order, by (x, y), and drops each point within match_tol of one
    kept before it in the order start, end, `found`. Only neighbours in x
    closer than match_tol can be that close, so a run of them is the only
    place where that order is consulted."""
    pts = np.concatenate([[(cfg.start.x, cfg.start.y), (cfg.end.x, cfg.end.y)], found])
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    close = np.flatnonzero(np.diff(pts[order, 0]) < cfg.match_tol)
    if close.size:
        xy = pts.tolist()
        tol2 = cfg.match_tol * cfg.match_tol
        dropped = set()
        for run in np.split(close, np.flatnonzero(np.diff(close) > 1) + 1):
            kept: list[int] = []
            for a in sorted(order[run[0]:run[-1] + 2].tolist()):
                x, y = xy[a]
                for b in kept:
                    dx, dy = xy[b][0] - x, xy[b][1] - y
                    if dx * dx + dy * dy < tol2:
                        dropped.add(a)
                        break
                else:
                    kept.append(a)
        order = [a for a in order.tolist() if a not in dropped]
    return [Point2(x, y) for x, y in pts[order].tolist()]


def _sorted(heights, key=None) -> list[np.ndarray]:
    """The T-, S- and R-heights: T decreasing, S and R increasing. Timsort
    makes the same comparisons with or without a key."""
    return [np.array(sorted(v, key=key, reverse=rev), dtype=float) for v, rev in zip(heights, (True, False, False))]


def _block(ss: np.ndarray, ts: np.ndarray, rs: np.ndarray, cfg: TripleConfig):
    """The merge along a block of S-lines: the points found, at most one per
    S-line, in S order, each one's line in the block and the comparisons the
    merge makes on that line."""
    n_t, n_r, tol = len(ts), len(rs), cfg.match_tol
    x_t, y_t = intersect(cfg.theta1, ss[:, None], cfg.theta0, ts)
    x_r, y_r = intersect(cfg.theta1, ss[:, None], cfg.theta2, rs)
    # the merged order, T first on a tie, and the steps m, on line q, whose
    # crossing at m + 1 is closer than tol in x; the one pair that spans two
    # lines has m = n_t + n_r - 1, where one family has run out
    x = np.concatenate((x_t, x_r), axis=1)
    order = np.argsort(x, axis=1, kind="stable")
    near = np.diff(np.sort(x, axis=1, kind="stable").ravel()) < tol
    q, m = np.divmod(np.flatnonzero(near), n_t + n_r)
    # step m compares R_i with T_j, and the crossing at position m is one of
    # them; past the merge's end i = n_r or j = n_t
    e = order[q, m]
    i = np.where(e < n_t, m - e, e - n_t)
    j = m - i
    live = (i < n_r) & (j < n_t)
    q, m, i, j = q[live], m[live], i[live], j[live]
    # the exact test of the pair-by-pair merge, on the same floats
    xr, yr = x_r[q, i], y_r[q, i]
    dx, dy = xr - x_t[q, j], yr - y_t[q, j]
    x_lo, x_hi = cfg.x_window
    met = np.flatnonzero((dx * dx + dy * dy < tol * tol) & (x_lo <= xr) & (xr <= x_hi))
    # in (line, step) order the first coincidence on a line stops it
    stop = met[np.flatnonzero(np.diff(q[met], prepend=-1))]
    return np.column_stack((xr[stop], yr[stop])), q[stop], m[stop] + 1


def _sweep(ss: np.ndarray, ts: np.ndarray, rs: np.ndarray, cfg: TripleConfig):
    """The merge along every S-line, in blocks of about `BLOCK` crossings:
    each block with what `_block` finds on it; none if T or R is empty."""
    if not (len(ts) and len(rs)):
        return
    rows = max(1, BLOCK // (len(ts) + len(rs)))
    for lo in range(0, len(ss), rows):
        block = ss[lo:lo + rows]
        yield block, _block(block, ts, rs, cfg)


def rolling_ball_reconstruct(
    t_heights: Sequence[float],
    s_heights: Sequence[float],
    r_heights: Sequence[float],
    cfg: TripleConfig,
) -> list[Point2]:
    """Rolling-ball triple search.

    Per S-line it stops at the first triple inside `cfg.x_window` that the
    merge meets, which is exact when no critical line carries two triple
    points. Start and end are always included; output is sorted by x.
    """
    ts, ss, rs = _sorted((t_heights, s_heights, r_heights))
    found = np.concatenate([np.empty((0, 2)), *(points for _, (points, _, _) in _sweep(ss, ts, rs, cfg))])
    return _merge_points(found, cfg)


def count_comparisons(
    algorithm: Callable[..., list[Point2]],
    t_heights: Sequence[float],
    s_heights: Sequence[float],
    r_heights: Sequence[float],
    cfg: TripleConfig,
) -> int:
    """The paper's comparison count of `algorithm`, which must be
    `rolling_ball_reconstruct`, on these heights."""
    if algorithm is not rolling_ball_reconstruct:
        raise ValueError(f"count_comparisons counts rolling_ball_reconstruct only, got {algorithm!r}")
    count = 0

    def cmp(a: float, b: float) -> int:
        nonlocal count
        count += 1
        # ints, so numpy heights compare too (numpy bools do not subtract)
        return int(a > b) - int(a < b)

    ts, ss, rs = _sorted((t_heights, s_heights, r_heights), cmp_to_key(cmp))
    n_t, n_r = len(ts), len(rs)
    for block, (_, q, stops) in _sweep(ss, ts, rs, cfg):
        x_t = intersect(cfg.theta1, block[:, None], cfg.theta0, ts)[0]
        x_r = intersect(cfg.theta1, block[:, None], cfg.theta2, rs)[0]
        # with no coincidence met, a line ends when one family runs out: after
        # the last T-crossing and every R-crossing left of it, or after the last
        # R-crossing and every T-crossing at or left of it
        steps = np.minimum(n_t + np.count_nonzero(x_r < x_t[:, -1:], axis=1),
                           n_r + np.count_nonzero(x_t <= x_r[:, -1:], axis=1))
        steps[q] = stops
        count += int(steps.sum())
    return count
