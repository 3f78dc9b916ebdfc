"""Triple-intersection reconstruction of a PL function from three diagrams.

Critical lines from three admissible directions meet, three at a time, exactly
at the critical points of the function (boundary points excepted, which is why
the caller supplies start and end). `naive_reconstruct` tries every (t, s, r)
triple in O(n^3), per T-line meeting all S- and R-lines at once.

`rolling_ball_reconstruct` is the paper's rolling-ball search. With the
T-heights sorted decreasing and the R-heights increasing, the T- and the
R-crossings along one S-line both run left to right. A two-pointer merge of
the two rows discards the crossing further left at each comparison (a tie
discards the T-crossing) and stops at the first coincidence within match_tol
inside the x window, so it needs at most 2n log n + 2n^2 comparisons. Here the
merge runs on arrays: for a block of S-lines, `geometry.intersect` (the one
crossing formula) gives both rows, a stable merge gives c[i], the number of
T-crossings at or left of R-crossing i, and R_i meets T_j exactly for j in
[c[i-1], c[i]]. Only pairs closer than match_tol in x are tested, with the
same floats as a pair-by-pair merge. The comparison count is read off the
stop: i + j + 1 at a coincidence (i, j), n_r + c[n_r-1] when the R-lines run
out, and n_t + i when the T-lines run out while R_i is current. An
out-of-window coincidence discards its R-line early, and only a line with one
of those walks its coincidences one by one.

The sweep works on blocks of about `BLOCK` crossings, so its working set
stays flat in n. One pass over every S-line at once holds a few n x n arrays:
at n = 400 that traced 13.2 MB against 0.41 MB in blocks, and it raised the
pl-triple benchmark's peak RSS from about 80 to 94 MB.

Both searches report a point found twice, or within match_tol of a boundary
point, once: a sort by x, and among x-neighbours closer than match_tol, the
boundary points first and then the one found first.
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
        # NaN matches nothing, and inf merges every point into start and end
        if not (math.isfinite(self.match_tol) and self.match_tol > 0):
            raise ValueError(f"match_tol must be positive and finite, got {self.match_tol!r}")

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


def _merge_points(found: list[np.ndarray], cfg: TripleConfig) -> list[Point2]:
    """Sorts the (x, y) rows of `found`, given in the order found with start
    and end first, and drops each point within match_tol of one kept before
    it. Only neighbours in x closer than match_tol can be that close, so a
    run of them is the only place where the order found is consulted."""
    pts = np.concatenate([[(cfg.start.x, cfg.start.y), (cfg.end.x, cfg.end.y)], *found])
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


def _sorted(values: Sequence[float], reverse: bool, counter: OpCounter | None) -> np.ndarray:
    if counter is not None:

        def cmp(a: float, b: float) -> int:
            counter.tick()
            return (a > b) - (a < b)

        return np.array(sorted(values, key=cmp_to_key(cmp), reverse=reverse), dtype=float)
    a = np.asarray(values, dtype=float)
    # negated rather than reversed, so equal values keep their order as in `sorted`
    return -np.sort(-a, kind="stable") if reverse else np.sort(a, kind="stable")


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
    found = []
    for t in t_heights:
        if counter is not None:
            counter.tick(ss.size * rs.size)
        # rows follow S, columns R: the T-line's crossings with every S-line
        # against its crossings with every R-line
        x_ts, y_ts = intersect(cfg.theta0, t, cfg.theta1, ss)
        x_tr, y_tr = intersect(cfg.theta0, t, cfg.theta2, rs)
        dx, dy = x_ts - x_tr, y_ts - y_tr
        hit = (dx * dx + dy * dy < tol2) & (x_lo <= x_tr) & (x_tr <= x_hi)
        j = np.nonzero(hit)[1]
        found.append(np.column_stack((x_tr[j], y_tr[j])))
    return _merge_points(found, cfg)


def _block(ss: np.ndarray, lo: int, ts: np.ndarray, rs: np.ndarray, cfg: TripleConfig):
    """A block of S-lines, the first of them S-line `lo`. Per line: the first
    i with c[i] = n_t (n_r if none) and c[n_r-1]. Per R-crossing within
    match_tol in x of T_{c[i]} (side 0) or T_{c[i]-1} (side 1): its S-line q,
    i, j, c[i-1] and the side."""
    k, n_t, n_r, tol = len(ss), len(ts), len(rs), cfg.match_tol
    x_t, _ = intersect(cfg.theta1, ss[:, None], cfg.theta0, ts)
    x_r, _ = intersect(cfg.theta1, ss[:, None], cfg.theta2, rs)
    # a stable sort with T first puts a T-crossing equal to an R-crossing
    # before it, so the tie counts towards c
    order = np.argsort(np.concatenate((x_t, x_r), axis=1), axis=1, kind="stable")
    c = np.flatnonzero(order >= n_t).reshape(k, n_r) % (n_t + n_r) - np.arange(n_r)
    # flat[at] is T_{c[i]} on its line while c[i] < n_t; past a line's end it
    # is the next line's first crossing or the appended inf, and masked
    flat = np.append(x_t.ravel(), np.inf)
    at = c + np.arange(0, k * n_t, n_t)[:, None]
    side, q, i = np.nonzero([(c < n_t) & (flat[at] - x_r < tol), (c > 0) & (x_r - flat[at - 1] < tol)])
    c_prev = np.where(i > 0, c[q, i - 1], 0)
    return np.count_nonzero(c < n_t, axis=1), c[:, -1].copy(), q + lo, i, c[q, i] - side, c_prev, side


def _walk(hits: list[tuple], out: int, last: int, n_t: int, n_r: int):
    """The merge of one S-line through its coincidences `hits`, (i, j, c[i-1],
    inside, x, y) sorted by (i, j), on a line that meets one outside the
    window. That one discards R_i at T_j, so R_{i+1} starts at T_j, not at
    T_{c[i]}. `out` and `last` are as `_block` gives them. Returns the
    comparison count and the point the merge stops at, if any."""
    left: dict[int, int] = {}  # R-line -> the T-line it was discarded at
    for i, j, c_prev, inside, x, y in hits:
        if i in left or j < left.get(i - 1, c_prev):
            continue
        if inside:
            return i + j + 1, (x, y)
        left[i] = j
    # an R-line discarded early leaves the T-lines to the next one
    while out in left:
        out += 1
    return (n_t + out if out < n_r else n_r + left.get(n_r - 1, last)), None


def _sweep(ss: np.ndarray, ts: np.ndarray, rs: np.ndarray, cfg: TripleConfig):
    """The rolling-ball merge along every S-line: the total comparison count
    and the points found, at most one per S-line, in S order."""
    n_t, n_r, tol = len(ts), len(rs), cfg.match_tol
    rows = max(1, BLOCK // (n_t + n_r))
    blocks = [_block(ss[lo:lo + rows], lo, ts, rs, cfg) for lo in range(0, len(ss), rows)]
    out, last, q, i, j, c_prev, side = (np.concatenate(a) for a in zip(*blocks))
    # with no coincidence met, the merge ends when T or R runs out
    steps = np.where(out < n_r, n_t + out, n_r + last)

    # R_i may be within tol in x of T_{c[i]-2}, T_{c[i]-3}, ... too
    pairs = [(q, i, j, c_prev)]
    w = (side == 1) & (j > 0)
    wq, wi, wj, wc = q[w], i[w], j[w] - 1, c_prev[w]
    x_r = intersect(cfg.theta1, ss[wq], cfg.theta2, rs[wi])[0]
    while wq.size:
        near = x_r - intersect(cfg.theta1, ss[wq], cfg.theta0, ts[wj])[0] < tol
        pairs.append((wq[near], wi[near], wj[near], wc[near]))
        w = near & (wj > 0)
        wq, wi, wj, wc, x_r = wq[w], wi[w], wj[w] - 1, wc[w], x_r[w]
    q, i, j, c_prev = (np.concatenate(a) for a in zip(*pairs))

    # the exact test of the pair-by-pair merge, on the same floats
    xr, yr = intersect(cfg.theta1, ss[q], cfg.theta2, rs[i])
    xt, yt = intersect(cfg.theta1, ss[q], cfg.theta0, ts[j])
    dx, dy = xr - xt, yr - yt
    met = np.flatnonzero(dx * dx + dy * dy < tol * tol)
    met = met[np.lexsort((j[met], i[met], q[met]))]
    q, i, j, c_prev, xr, yr = q[met], i[met], j[met], c_prev[met], xr[met], yr[met]
    x_lo, x_hi = cfg.x_window
    inside = (x_lo <= xr) & (xr <= x_hi)

    # R_i meets T_j for j >= c[i-1]: the first coincidence met on each line
    # stops the merge there when it lies inside the window
    on_path = np.flatnonzero(j >= c_prev)
    first = on_path[np.flatnonzero(np.diff(q[on_path], prepend=-1))]
    stop = first[inside[first]]
    steps[q[stop]] = i[stop] + j[stop] + 1
    points = np.full((len(ss), 2), np.nan)
    points[q[stop], 0], points[q[stop], 1] = xr[stop], yr[stop]
    for row in q[first[~inside[first]]].tolist():
        mine = q == row
        hits = zip(*(a[mine].tolist() for a in (i, j, c_prev, inside, xr, yr)))
        steps[row], point = _walk(list(hits), int(out[row]), int(last[row]), n_t, n_r)
        if point is not None:
            points[row] = point
    return int(steps.sum()), points[~np.isnan(points[:, 0])]


def rolling_ball_reconstruct(
    t_heights: Sequence[float],
    s_heights: Sequence[float],
    r_heights: Sequence[float],
    cfg: TripleConfig,
    counter: OpCounter | None = None,
) -> list[Point2]:
    """Rolling-ball triple search, equivalent to the naive one on generic input.

    Per S-line it stops at the first triple the merge meets, which is exact
    when no critical line carries two triple points. Start and end are always
    included; output is sorted by x. With a counter, it counts the sorts'
    comparisons one by one and adds the merge's derived count.
    """
    ts = _sorted(t_heights, True, counter)
    ss = _sorted(s_heights, False, counter)
    rs = _sorted(r_heights, False, counter)
    found = []
    if len(ts) and len(ss) and len(rs):
        steps, points = _sweep(ss, ts, rs, cfg)
        if counter is not None:
            counter.tick(steps)
        found.append(points)
    return _merge_points(found, cfg)


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
