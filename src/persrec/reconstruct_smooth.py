"""Critical-point location for smooth functions from five tangent-line families.

A critical point (x0, y0) is bracketed by tangent lines: the horizontal
tangent y = y0, a pair of steep tangents with slopes +-m1 crossing y = y0 at
x1 < x2 close to x0, and a pair of shallow tangents with slopes +-m2 crossing
at x3, x4 even closer. The five height families come from directional
diagrams of the samples' piecewise-linear proxy; the steps after that take
plain heights. A point at a birth height of the vertical diagram is a minimum.

Detection keeps every (horizontal, steep-, steep+) triple whose crossings
with y = t are distinct and less than tau apart, as a row (t, r, s, x1, x2).
A row survives when a shallow pair crosses strictly inside its base; each
shallow pair goes to the first row that brackets it, and the crossing
abscissas feed a closed-form weighted estimate of x0. Maxima work by mirror
symmetry: sorting each crossing pair ascending makes one formula serve both
cases. Both steps test exactly only a window of sorted heights, found by
`searchsorted`: a crossing with y = t is monotone in its line's height.
Detection takes its (t, r) pairs in blocks of about `reconstruct_pl.BLOCK`,
so memory stays flat as the families grow.

A result whose minima and maxima do not alternate comes with a warning, but
a vanishing estimator denominator raises `DegenerateEstimator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import angle_for_slope
from .persistence import (
    CriticalKind,
    CriticalPoint,
    PLFunction,
    critical_heights,
    directional_diagram,
)
from .reconstruct_pl import BLOCK

DEGENERATE_TOL = 1e-12


class DegenerateEstimator(ValueError):
    """Raised when the crossing geometry makes the estimator denominator vanish."""


@dataclass(frozen=True)
class SmoothConfig:
    """Detection parameters: triangle width bound tau and the two tangent
    slope angles in degrees (steep for detection, shallow for location)."""

    tau: float = 0.08
    steep_deg: float = 30.0
    shallow_deg: float = 0.1

    def __post_init__(self) -> None:
        # NaN fails every window comparison, and inf makes every pair narrow
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive and finite, got {self.tau!r}")
        if not (0.0 < self.shallow_deg < self.steep_deg < 90.0):
            raise ValueError("need 0 < shallow < steep < 90 degrees")

    @property
    def m1(self) -> float:
        return math.tan(math.radians(self.steep_deg))

    @property
    def m2(self) -> float:
        return math.tan(math.radians(self.shallow_deg))


def uniform_grid(domain: tuple[float, float], samples_per_unit: float) -> np.ndarray:
    """Uniform grid over domain with about samples_per_unit steps per unit
    length, and at least its two ends."""
    if not (math.isfinite(samples_per_unit) and samples_per_unit > 0):
        raise ValueError(f"samples_per_unit must be positive and finite, got {samples_per_unit!r}")
    a, b = domain
    return np.linspace(a, b, max(2, int(round((b - a) * samples_per_unit)) + 1))


class SampledFunction:
    """A function known only through values on a uniform x-grid."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
            raise ValueError("need equal-length 1-d arrays with at least 2 samples")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("samples must be finite")
        steps = np.diff(xs)
        if not (steps > 0).all():
            raise ValueError("grid must be strictly increasing")
        if np.max(np.abs(steps - steps[0])) > 1e-9 * (xs[-1] - xs[0]):
            raise ValueError("grid must be uniform")
        self.xs = xs
        self.ys = ys

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

    @property
    def step(self) -> float:
        return float(self.xs[1] - self.xs[0])


def pl_proxy(f: SampledFunction) -> PLFunction:
    """Piecewise-linear stand-in through the samples; consecutive equal values
    (possible at flat spots of a coarse grid) are collapsed to the first."""
    keep = np.concatenate([[True], np.diff(f.ys) != 0.0])
    xs, ys = f.xs[keep], f.ys[keep]
    if len(xs) < 2:
        raise ValueError("samples are constant; no usable proxy")
    return PLFunction(xs, ys)


def tangent_heights(f: SampledFunction, slope: float) -> list[float]:
    """Heights of the critical lines of the given slope, i.e. approximate
    tangent lines of that slope, read from the proxy's directional diagram.

    Heights are reported as y-intercepts (the c of y = slope*x + c), which is
    the diagram height rescaled by sqrt(1 + slope^2); for slope 0 the two
    agree and equal the tangent's y-level.
    """
    v = angle_for_slope(slope)
    scale = math.hypot(1.0, slope)
    return [h * scale for h in critical_heights(directional_diagram(pl_proxy(f), v))]


def _window(heights: np.ndarray, t, m: float, lo, hi):
    """(owner, index) of each sorted height h whose crossing (t - h) / m with
    y = t may lie strictly between lo and hi, for each owner element of the
    broadcast t, lo, hi. An owner's heights are one range, as the crossing is
    monotone in h in floating point too; its ends are widened by 4 eps times
    the operands' size, more than the rounding of the crossing and of the
    bounds, and the caller tests the range exactly."""
    top = [np.abs(v).max(initial=0.0) for v in (t, heights, lo, hi)]
    slack = 4 * np.finfo(float).eps * (top[0] + top[1] + abs(m) * max(top[2], top[3]))
    a, b = np.ravel(t - m * lo), np.ravel(t - m * hi)
    start = np.searchsorted(heights, np.minimum(a, b) - slack)
    n = np.searchsorted(heights, np.maximum(a, b) + slack, side="right") - start
    owner = np.repeat(np.arange(n.size), n)
    return owner, np.arange(owner.size) + np.repeat(start - np.cumsum(n) + n, n)


def detect_triangles(
    t_heights: list[float], s_heights: list[float], r_heights: list[float], m: float, tau: float
) -> np.ndarray:
    """Rows (t, r, s, x1, x2), sorted by (t, x1, x2, r, s), of every triple
    whose crossings with y = t, xr of y = -m*x + r and xs of y = m*x + s, are
    distinct and under tau apart; x1 < x2 are the two crossings in order.

    Each (t, r) pair meets only the window of sorted s heights (`_window`)
    that can pass the exact test xr - tau < xs < xr + tau, xs != xr. The
    pairs go in blocks of about `BLOCK`; a stable sort keeps equal s heights,
    and so rows that tie on all five values, in their input order.

    Deliberately greedy: every narrow triple is kept as a candidate, false
    positives included; the shallow-pair filter removes them later.
    """
    t, r = (np.asarray(h, dtype=float) for h in (t_heights, r_heights))
    s = np.sort(np.asarray(s_heights, dtype=float), kind="stable")
    rows = [np.empty((0, 5))]
    step = max(1, BLOCK // max(1, len(r)))
    for lo in range(0, len(t), step):
        tb = t[lo:lo + step, None]
        xr = (tb - r) / -m
        p, j = _window(s, tb, m, xr - tau, xr + tau)
        q, i = np.divmod(p, len(r))
        a, b = xr.ravel()[p], (t[lo + q] - s[j]) / m
        keep = np.flatnonzero((a - tau < b) & (b < a + tau) & (b != a))
        a, b, q = a[keep], b[keep], lo + q[keep]
        rows.append(np.column_stack((t[q], r[i[keep]], s[j[keep]], np.minimum(a, b), np.maximum(a, b))))
    rows = np.concatenate(rows)
    return rows[np.lexsort(rows[:, [2, 1, 4, 3, 0]].T)]


def compute_x(x1, x2, x3, x4, m1: float, m2: float):
    """Closed-form estimate of the critical abscissa from the crossings of a
    steep pair (x1, x2, slope magnitude m1) and a shallow pair (x3, x4, m2).
    Broadcasts over arrays; the first vanishing denominator raises."""
    den = 2.0 * m2 * (x3 - x4) - 2.0 * m1 * (x1 - x2)
    small = np.flatnonzero(np.abs(den) < DEGENERATE_TOL)
    if small.size:
        raise DegenerateEstimator(f"denominator {float(np.ravel(den)[small[0]])!r} below {DEGENERATE_TOL}")
    num = m2 * (x1 + x2) * (x3 - x4) - m1 * (x1 - x2) * (x3 + x4)
    return num / den


def _distinct(heights) -> np.ndarray:
    """The sorted distinct heights, as `np.unique` gives them; on numpy 2.4 a
    plain `np.unique` call imports `numpy.ma` (about 9 ms) on first use."""
    s = np.sort(heights)
    return np.concatenate((s[:1], s[1:][s[1:] != s[:-1]]))


def filter_and_locate(
    triangles, rr_heights, ss_heights, births, domain: tuple[float, float], step: float, cfg: SmoothConfig
) -> list[CriticalPoint]:
    """Validate candidate rows (t, r, s, x1, x2) with pairs of shallow
    heights, rr of slope -m2 and ss of m2, and locate the enclosed points.

    A pair brackets a row when both its crossings with y = t lie strictly
    inside (x1, x2). A row meets only the ss heights in its window
    (`_window`), and each of those only the rr heights in theirs, in (row,
    ss, rr) order; the exact test keeps the pairs that bracket. Each pair
    goes to the first row that brackets it, and is used up there, even when
    its estimate then falls outside the domain: quasi-multiple tangents give
    adjacent duplicates of one critical point, and the shallow pair is what
    fixes it. A row can take several pairs, and each gives its own point.
    The estimates are computed in that order, so the first vanishing
    denominator in it is the one `DegenerateEstimator` reports. A point more
    than one grid step inside the domain is kept: a minimum when its height
    t is one of the vertical diagram's `births`, else a maximum.
    """
    m1, m2 = cfg.m1, cfg.m2
    # a pair is two height values: a height listed twice is one line
    rr, ss = _distinct(rr_heights), _distinct(ss_heights)
    rows = np.reshape(triangles, (-1, 5))
    t, x1, x2 = rows[:, 0], rows[:, 3], rows[:, 4]
    k, j = _window(ss, t, m2, x1, x2)
    p, i = _window(rr, t[k], -m2, x1[k], x2[k])
    k, j = k[p], j[p]
    x3, x4 = (t[k] - rr[i]) / -m2, (t[k] - ss[j]) / m2
    hit = np.flatnonzero((x1[k] < x3) & (x3 < x2[k]) & (x1[k] < x4) & (x4 < x2[k]))
    # the first row of each pair, back in (row, ss, rr) order
    first = np.unique(j[hit] * len(rr) + i[hit], return_index=True)[1]
    pick = hit[np.sort(first)]
    x3, x4 = x3[pick], x4[pick]
    t, _, _, x1, x2 = rows[k[pick]].T
    # min and max as Python's builtins take them, signed zeros included
    x_est = compute_x(x1, x2, np.where(x4 < x3, x4, x3), np.where(x4 > x3, x4, x3), m1, m2)
    (a, b), dx = domain, step
    # boundary points are the caller's data, never detected here
    keep = np.flatnonzero((a + dx < x_est) & (x_est < b - dx))
    keep = keep[np.argsort(x_est[keep], kind="stable")]
    # a set, not np.isin: on enough births, np.isin calls a plain np.unique
    births = set(births)
    return [
        CriticalPoint(x, y, CriticalKind.LOCAL_MIN if y in births else CriticalKind.LOCAL_MAX)
        for x, y in zip(x_est[keep].tolist(), t[keep].tolist())
    ]


def alternation_check(points: list[CriticalPoint]) -> bool:
    """True when interior minima and maxima strictly alternate along x."""
    kinds = [p.kind for p in points if p.kind is not CriticalKind.ENDPOINT]
    return all(k1 != k2 for k1, k2 in zip(kinds, kinds[1:]))


@dataclass(frozen=True)
class SmoothReconstruction:
    points: list[CriticalPoint]
    alternation_ok: bool
    warnings: list[str] = field(default_factory=list)


def five_line_reconstruct(f: SampledFunction, cfg: SmoothConfig | None = None) -> SmoothReconstruction:
    """Full pipeline: the five height families -> narrow triangles ->
    shallow-pair filtering and location -> alternation sanity check.

    The vertical diagram gives the horizontal heights and the births that
    mark minima; `tangent_heights` gives the other four families. Points that
    do not alternate are reported through a warning. A vanishing estimator
    denominator is not: `DegenerateEstimator` escapes, as on `gen_harmonic(40)`.
    """
    cfg = cfg or SmoothConfig()
    d = directional_diagram(pl_proxy(f), angle_for_slope(0.0))
    s_heights, r_heights = tangent_heights(f, cfg.m1), tangent_heights(f, -cfg.m1)
    rr_heights, ss_heights = tangent_heights(f, -cfg.m2), tangent_heights(f, cfg.m2)
    triangles = detect_triangles(critical_heights(d), s_heights, r_heights, cfg.m1, cfg.tau)
    points = filter_and_locate(triangles, rr_heights, ss_heights, [p.birth for p in d.points], f.domain, f.step, cfg)
    ok = alternation_check(points)
    warnings = [] if ok else ["local minima and maxima do not alternate; suspect false or missed detections"]
    return SmoothReconstruction(points, ok, warnings)
