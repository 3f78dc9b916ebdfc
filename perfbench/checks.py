"""Output checks for the benchmark, written apart from the program.

Reconstructed points are compared with the generators' analytic truth (the
constructed vertices of `gen_pl`, derivative roots of `gen_harmonic`,
per-segment quadratic roots of `gen_spline`). Landscapes are checked against
properties every exact landscape has. Nothing here calls the code under test.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

AREA_RTOL = 1e-9  # the area identity holds to ~1e-15 on exact landscapes
ABS_TOL = 1e-12


class CheckFailed(AssertionError):
    """An output breaks a property that no known program fault explains."""


@dataclass(frozen=True)
class Mismatch:
    """Outcome of a one-to-one match of reconstructed points against truth."""

    missed: int = 0
    spurious: int = 0
    mislabelled: int = 0

    @property
    def ok(self) -> bool:
        return self.missed == 0 and self.spurious == 0 and self.mislabelled == 0


def match_points(got, truth, tol: float, y_tol: float | None = None) -> Mismatch:
    """Match points one-to-one by abscissa within `tol`.

    Each truth point takes the nearest unused reconstructed point within
    `tol` in x (and within `y_tol` in y when given). A matched pair whose
    `kind` attributes differ is mislabelled; unmatched truth points are
    missed and unmatched reconstructed points spurious. Kinds are compared
    only when both sides carry one.
    """
    got = sorted(got, key=lambda p: p.x)
    xs = [p.x for p in got]
    used = [False] * len(got)
    missed = mislabelled = 0
    for q in truth:
        best = -1
        lo = bisect.bisect_left(xs, q.x - tol)
        hi = bisect.bisect_right(xs, q.x + tol)
        for j in range(lo, hi):
            if used[j] or (y_tol is not None and abs(got[j].y - q.y) > y_tol):
                continue
            if best < 0 or abs(xs[j] - q.x) < abs(xs[best] - q.x):
                best = j
        if best < 0:
            missed += 1
            continue
        used[best] = True
        kind = getattr(got[best], "kind", None)
        if kind is not None and getattr(q, "kind", None) is not None and kind != q.kind:
            mislabelled += 1
    return Mismatch(missed, used.count(False), mislabelled)


def min_projection(xs, ys, theta: float) -> float:
    """Smallest height x*cos(theta) + y*sin(theta) over a PL function's vertices."""
    return float(np.min(np.asarray(xs) * math.cos(theta) + np.asarray(ys) * math.sin(theta)))


def capped_pairs(points) -> list[tuple[float, float]]:
    """Finite (birth, death) pairs of a vertical diagram plus the essential
    class capped at the largest height in the diagram."""
    finite = [(p.birth, p.death) for p in points if p.death is not None]
    cap = max([p.birth for p in points] + [d for _, d in finite])
    births = [p.birth for p in points if p.death is None]
    return finite + [(b, cap) for b in births if cap > b]


def landscape_faults(levels, pairs) -> list[str]:
    """Properties every set of exact landscapes of `pairs` has, with all
    levels present. Returns a description of each violated property.

    - sum over levels of the integral of lambda_k equals sum (d - b)^2 / 4;
    - lambda_k >= lambda_{k+1} pointwise;
    - every segment has slope -1, 0 or +1.
    """
    faults = []
    area = 0.0
    for lev in levels:
        v = np.asarray(lev.vertices, dtype=float).reshape(-1, 2)
        if len(v) < 2:
            continue
        dt, du = np.diff(v[:, 0]), np.diff(v[:, 1])
        area += float(np.sum(0.5 * dt * (v[1:, 1] + v[:-1, 1])))
        off = np.min(np.abs(du[None, :] - np.array([-1.0, 0.0, 1.0])[:, None] * dt[None, :]), axis=0)
        if np.any(off > ABS_TOL):
            faults.append(f"level {lev.level}: segment slope outside {{-1, 0, 1}}")
    expected = sum((d - b) ** 2 / 4.0 for b, d in pairs)
    if abs(area - expected) > AREA_RTOL * max(1.0, expected):
        faults.append(f"landscape area {area!r} != sum (d-b)^2/4 = {expected!r}")

    ts = np.unique(np.concatenate([[v[0] for v in lev.vertices] for lev in levels if lev.vertices] or [[0.0]]))
    prev = None
    for lev in levels:
        cur = lev(ts)
        if prev is not None and np.any(cur > prev + ABS_TOL):
            faults.append(f"level {lev.level} exceeds level {lev.level - 1}")
        prev = cur
    return faults
