"""Triple-intersection reconstruction of a PL function from three diagrams.

Critical lines from three admissible directions meet, three at a time, exactly
at the critical points of the function (boundary points excepted, which is why
the caller supplies start and end).

`rolling_ball_reconstruct` is the paper's rolling-ball search, and the one
triple search here. With the T-heights sorted decreasing and the R-heights
increasing, the T- and the R-crossings along one S-line both run left to
right. A two-pointer merge of the two rows discards the crossing further left
at each comparison (a tie discards the T-crossing) and stops at the first
coincidence within match_tol inside the x window. A pair outside the window
is no coincidence: the merge discards its crossing further left, as at any
other pair.

Only crossings within match_tol of the window can be part of a coincidence.
Along a line each family's crossings are monotone in their heights, in
floating point too, so those near the window are one range of columns,
found by a `searchsorted` from the crossing formula inverted at the window's
ends (`_columns`). With w the widest range of a family over all S-lines, a
line's columns of that family are the w from min(lo, n - w), lo its range's
first column, so the gathered heights are one dense array per block. The
extra columns are real crossings, and every crossing left of a line's
columns (right of them) lies more than match_tol left (right) of the
window. Once both have discarded every crossing that far left, the merge of
a line's columns is at the pair the merge of its full rows is at, and meets
the same pairs from there until no coincidence is left; no pair met before
can be one. Its step m is step m + start_t + start_r of the full merge. So
the x window decides which columns are merged and where a line stops, but
never which pairs it meets.

The merge is read off the stable sort of each line's T- and R-columns, T
first on a tie, which `geometry.intersect` (the one crossing formula) gives
for a block of S-lines at once: step m discards the crossing at position m
and compares R_i with T_j, i and j the R- and T-crossings before position m.
The crossing at m is one of the two, so its index gives the other. A
coincidence at step m is closer than match_tol in x, so the crossing at
position m + 1 is too; only those steps get the exact test, on the same
floats as a pair-by-pair merge, and the first coincidence on a line stops
it.

`count_comparisons` alone makes the paper's count, at most 2n log n + 2n^2
comparisons: the sorts' through a counting key, one by one, and the merge's
line by line. A line that stops makes the full merge's stop step, which the
sweep gives; one that meets no coincidence makes n_t + n_r less the length
of its final run of one family, which is left when the other family runs
out, read off whole rows in blocks of their own.

The sweep and the count work on blocks of about `BLOCK` crossings, so their
working set stays flat in n. On `gen_pl(n, seed=115)` the search traces
0.49 MB at n = 400 and 0.71 MB at n = 1 600, and the count 0.49 and 0.57 MB.

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


def _columns(ss: np.ndarray, heights: np.ndarray, a: Angle, cfg: TripleConfig):
    """(start, w): on each S-line, the crossings with the lines (a, h), h in
    `heights`, that may lie within match_tol of the x window are among the w
    adjacent columns from the line's start, w the widest such range.

    Along a line, x = (h sin(theta1) - s sin(a)) / sin(theta1 - a) is
    monotone in h, in floating point too, so a line's crossings in the window
    are one range of columns. Its ends come from the formula inverted at the
    window's ends, each widened by match_tol and by 4 eps times the operands'
    size, more than the rounding of the crossings, of their inverse and of
    the bounds. No crossing that can meet the window then lies on an end, so
    one `searchsorted` side serves both. A start clipped to n - w keeps every
    line's columns inside the row; the extra ones are real crossings."""
    d, c1 = math.sin(cfg.theta1.theta - a.theta), math.sin(cfg.theta1.theta)
    # the crossings run left to right in h * sign(d)
    row = heights if d > 0 else -heights
    x_lo, x_hi, tol = *cfg.x_window, cfg.match_tol
    top = (max(abs(row[0]), abs(row[-1])) + max(abs(ss[0]), abs(ss[-1]))) / abs(d)
    slack = 4 * math.ulp(1.0) * (top + max(abs(x_lo), abs(x_hi)) + tol)
    ends = ((x_lo - tol - slack) * abs(d / c1), (x_hi + tol + slack) * abs(d / c1))
    lo, hi = np.searchsorted(row, np.add.outer(ss * math.copysign(math.sin(a.theta) / c1, d), ends)).T
    w = int(np.maximum.reduce(hi - lo))
    return np.minimum(lo, len(row) - w), w


def _block(ss: np.ndarray, ts: np.ndarray, rs: np.ndarray, offset: np.ndarray, cfg: TripleConfig):
    """The merge along a block of S-lines, on each line's T- and R-columns
    (rows of `ts` and `rs`), which start `offset` crossings into the line's
    full merge: the points found, at most one per S-line, in S order, each
    one's line in the block and the comparisons the full merge makes on that
    line."""
    n_t, n_r, tol = ts.shape[1], rs.shape[1], cfg.match_tol
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
    q = q[stop]
    return np.column_stack((xr[stop], yr[stop])), q, m[stop] + 1 + offset[q]


def _sweep(ss: np.ndarray, ts: np.ndarray, rs: np.ndarray, cfg: TripleConfig):
    """The merge along every S-line, on its columns near the x window
    (`_columns`), in blocks of about `BLOCK` of them: each block's points,
    their lines and the full merge's stop steps on those lines; none if no
    line has both a T- and an R-crossing near the window."""
    if not (len(ss) and len(ts) and len(rs)):
        return
    (start_t, w_t), (start_r, w_r) = _columns(ss, ts, cfg.theta0, cfg), _columns(ss, rs, cfg.theta2, cfg)
    if not (w_t and w_r):
        return
    cols_t, cols_r, offset = np.arange(w_t), np.arange(w_r), start_t + start_r
    rows = max(1, BLOCK // (w_t + w_r))
    for lo in range(0, len(ss), rows):
        b = slice(lo, lo + rows)
        yield lo, _block(ss[b], ts[np.add.outer(start_t[b], cols_t)], rs[np.add.outer(start_r[b], cols_r)],
                         offset[b], cfg)


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
    if not (n_t and n_r):
        return count
    # with no coincidence met, a line ends when one family runs out: after the
    # last T-crossing and every R-crossing left of it, or after the last
    # R-crossing and every T-crossing at or left of it; whole rows, in blocks
    steps = np.empty(len(ss), dtype=np.int64)
    rows = max(1, BLOCK // (n_t + n_r))
    for lo in range(0, len(ss), rows):
        block = ss[lo:lo + rows, None]
        x_t = intersect(cfg.theta1, block, cfg.theta0, ts)[0]
        x_r = intersect(cfg.theta1, block, cfg.theta2, rs)[0]
        steps[lo:lo + rows] = np.minimum(n_t + np.count_nonzero(x_r < x_t[:, -1:], axis=1),
                                         n_r + np.count_nonzero(x_t <= x_r[:, -1:], axis=1))
    for lo, (_, q, stops) in _sweep(ss, ts, rs, cfg):
        steps[lo + q] = stops
    return count + int(steps.sum())
