"""Independent brute-force oracles used to cross-check the fast implementations.

These deliberately share no logic with the library: the diagram oracle tracks
sublevel-set intervals geometrically (recomputed from scratch at every level),
and the landscape oracles evaluate tent order statistics pointwise.
"""

from __future__ import annotations

import math

import numpy as np

from persrec.persistence import PLFunction


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
    if len(runs) == 1:
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

