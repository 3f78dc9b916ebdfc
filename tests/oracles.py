"""Independent brute-force oracles used to cross-check the fast implementations.

These deliberately share no logic with the library: the diagram oracle tracks
sublevel-set intervals geometrically (recomputed from scratch at every level),
the landscape oracles evaluate tent order statistics pointwise, and the
rolling-ball oracle walks the two-pointer merge one comparison at a time.
The smooth-path scans walk one candidate at a time, on height families they
are given; they share only the scalar estimator (`compute_x`), which is
tested on its own.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from persrec.persistence import CriticalKind, CriticalPoint, PLFunction
from persrec.reconstruct_smooth import compute_x


def sublevel_intervals(xs, hs, t):
    """Maximal x-intervals where the piecewise-linear projection h(x) <= t."""
    raw = []
    for i in range(len(xs) - 1):
        x0, x1 = xs[i], xs[i + 1]
        h0, h1 = hs[i], hs[i + 1]
        if h0 <= t and h1 <= t:
            raw.append((x0, x1))
        elif h0 <= t < h1 or h1 <= t < h0:
            # at t == h1 the formula can land an ulp past x1, splitting one
            # component in two
            xc = x1 if t == h1 else x0 + (t - h0) * (x1 - x0) / (h1 - h0)
            raw.append((x0, xc) if h0 <= t else (xc, x1))
    raw.sort()
    merged = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def extrema_by_scan(h):
    """Endpoints and strict local extrema of a sequence by a plain scan, each
    run of equal values counted once at its first index."""
    runs = [i for i in range(len(h)) if i == 0 or h[i] != h[i - 1]]
    if len(runs) <= 1:
        return runs
    inner = [b for a, b, c in zip(runs, runs[1:], runs[2:]) if (h[b] > h[a]) != (h[c] > h[b])]
    return [runs[0], *inner, runs[-1]]


def kinds_by_scan(h):
    """(index, kind) of each extremum of `extrema_by_scan`. The first and last
    runs are endpoints, the last one at the last sample; any other extremum is
    a max when the nearest different value to its right is lower."""
    found = extrema_by_scan(h)
    out = []
    for n, i in enumerate(found):
        if n == 0:
            out.append((i, "endpoint"))
        elif n == len(found) - 1:
            out.append((len(h) - 1, "endpoint"))
        else:
            right = next(v for v in h[i + 1:] if v != h[i])
            out.append((i, "max" if right < h[i] else "min"))
    return out


def brute_force_diagram(f: PLFunction, theta: float):
    """H0 persistence of the sublevel filtration by explicit interval tracking.

    Components are matched between consecutive levels by containment; on a
    merge every component except the oldest dies (ties by leftmost position).
    Returns (birth, death-or-None) pairs, zero-length pairs dropped.
    """
    xs = [float(v) for v in f.xs]
    hs = [float(x) * math.cos(theta) + float(y) * math.sin(theta) for x, y in zip(f.xs, f.ys)]
    levels = sorted(set(hs))

    live = []  # (lo, hi, birth)
    pairs = []
    for t in levels:
        new = sublevel_intervals(xs, hs, t)
        updated = []
        for lo, hi in new:
            inside = [iv for iv in live if lo <= 0.5 * (iv[0] + iv[1]) <= hi]
            if not inside:
                updated.append((lo, hi, t))
            else:
                births = sorted((b, l) for l, _, b in inside)
                surviving = births[0][0]
                for b, _ in births[1:]:
                    if b < t:
                        pairs.append((b, t))
                updated.append((lo, hi, surviving))
        live = updated
    assert len(live) == 1, "the graph is connected, one component must remain"
    pairs.append((live[0][2], None))
    pairs.sort(key=lambda p: (p[0], math.inf if p[1] is None else p[1]))
    return pairs


def grid_kmax(pairs, k, ts):
    """k-th largest tent value at each t, evaluated directly."""
    ts = np.asarray(ts, dtype=float)
    if not pairs:
        return np.zeros_like(ts)
    vals = np.array([np.maximum(0.0, np.minimum(ts - b, d - ts)) for b, d in pairs])
    if k > len(pairs):
        return np.zeros_like(ts)
    return np.sort(vals, axis=0)[::-1][k - 1]


def level_decode_oracle(landscape):
    """Per-segment decoded critical values of one landscape level.

    On an ascending segment the level equals t - birth of the attaining tent,
    on a descending one death - t; reading the segment midpoint recovers that
    birth or death. `get_y_values` reads each run of one slope sign at its
    first vertex instead, once per run; on a level whose runs are single
    segments the two give the same values.
    """
    out = []
    verts = landscape.vertices
    for (t1, u1), (t2, u2) in zip(verts, verts[1:]):
        slope = (u2 - u1) / (t2 - t1)
        if abs(slope) < 0.5:
            continue  # flat zero stretch between supports
        tm, um = 0.5 * (t1 + t2), 0.5 * (u1 + u2)
        out.append(tm - um if slope > 0 else tm + um)
    return out


def rolling_ball_by_scan(t_heights, s_heights, r_heights, cfg):
    """The paper's rolling-ball two-pointer sweep, one comparison at a time.

    Returns the reconstructed points as sorted (x, y) tuples, start and end
    included, and the comparison count: the sorts' comparisons plus one per
    sweep step. Per S-line the T-crossings (T sorted decreasing) and the
    R-crossings (R increasing) both run left to right; the one further left is
    discarded (a tie discards the T-crossing), and the sweep stops at the
    first coincidence within match_tol inside the x window; a pair outside it
    goes through the same discard rule. A point within match_tol of one kept
    before it is dropped; start and end are kept first.
    """
    th0, th1, th2 = cfg.theta0.theta, cfg.theta1.theta, cfg.theta2.theta
    sin0, cos0 = math.sin(th0), math.cos(th0)
    sin1, cos1 = math.sin(th1), math.cos(th1)
    sin2, cos2 = math.sin(th2), math.cos(th2)
    den10, den12 = math.sin(th1 - th0), math.sin(th1 - th2)
    tol2 = cfg.match_tol * cfg.match_tol
    count = 0

    def cmp(a, b):
        nonlocal count
        count += 1
        return (a > b) - (a < b)

    ts = sorted(t_heights, key=functools.cmp_to_key(cmp), reverse=True)
    ss = sorted(s_heights, key=functools.cmp_to_key(cmp))
    rs = sorted(r_heights, key=functools.cmp_to_key(cmp))

    x_lo, x_hi = cfg.x_window
    found = [(cfg.start.x, cfg.start.y), (cfg.end.x, cfg.end.y)]

    def push(x, y):
        if all((px - x) * (px - x) + (py - y) * (py - y) >= tol2 for px, py in found):
            found.append((x, y))

    for s in ss:
        i = j = 0
        while i < len(rs) and j < len(ts):
            count += 1
            r, t = rs[i], ts[j]
            x_r = (r * sin1 - s * sin2) / den12
            y_r = (s * cos2 - r * cos1) / den12
            x_t = (t * sin1 - s * sin0) / den10
            y_t = (s * cos0 - t * cos1) / den10
            dx, dy = x_r - x_t, y_r - y_t
            if dx * dx + dy * dy < tol2 and x_lo <= x_r <= x_hi:
                push(x_r, y_r)
                break
            elif x_r < x_t:
                i += 1
            else:
                j += 1
    return sorted(found), count


def _cross_at(t, slope, height):
    """x-coordinate where the line y = slope*x + height meets y = t."""
    return (t - height) / slope


def triangles_by_scan(t_heights, s_heights, r_heights, m, tau):
    """Narrow (t, r, s) triples by sorted crossings and a window pointer.

    Per horizontal height the R- and S-crossings with y = t are sorted; for
    each R-crossing xr a pointer skips the S-crossings at or left of xr - tau
    and the scan keeps those left of xr + tau that differ from xr. Returns
    (t, r, s, x1, x2) tuples, x1 < x2, stably sorted by (t, x1, x2).
    """
    triangles = []
    for t in t_heights:
        rx = sorted((_cross_at(t, -m, r), r) for r in r_heights)
        sx = sorted((_cross_at(t, m, s), s) for s in s_heights)
        lo = 0
        for xr, r in rx:
            while lo < len(sx) and sx[lo][0] <= xr - tau:
                lo += 1
            j = lo
            while j < len(sx) and sx[j][0] < xr + tau:
                xs_, s = sx[j]
                if xs_ != xr:
                    triangles.append((t, r, s, min(xr, xs_), max(xr, xs_)))
                j += 1
    triangles.sort(key=lambda tri: (tri[0], tri[3], tri[4]))
    return triangles


def locate_by_scan(triangles, rr_heights, ss_heights, births, domain, step, cfg):
    """Shallow-pair validation one triangle, one ss and one rr at a time.

    A pair (rr, ss) whose crossings with y = t both lie strictly inside
    (x1, x2) is recorded in a `used` set on first sight, then its estimate is
    kept when it lies more than one step inside the domain. A point at a
    height among the births is a minimum, any other a maximum. Points come
    back stably sorted by x.
    """
    m1, m2 = cfg.m1, cfg.m2
    minima = set(births)
    used = set()
    a, b = domain

    points = []
    for t, _, _, x1, x2 in triangles:
        for ss in ss_heights:
            x4c = _cross_at(t, m2, ss)
            if not (x1 < x4c < x2):
                continue
            for rr in rr_heights:
                if (rr, ss) in used:
                    continue
                x3c = _cross_at(t, -m2, rr)
                if not (x1 < x3c < x2):
                    continue
                used.add((rr, ss))
                x_est = compute_x(x1, x2, min(x3c, x4c), max(x3c, x4c), m1, m2)
                if not (a + step < x_est < b - step):
                    continue
                kind = CriticalKind.LOCAL_MIN if t in minima else CriticalKind.LOCAL_MAX
                points.append(CriticalPoint(x_est, t, kind))
    points.sort(key=lambda p: p.x)
    return points
