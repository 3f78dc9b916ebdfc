"""Critical-point location for smooth functions from five tangent-line families.

A critical point (x0, y0) is bracketed by tangent lines: the horizontal
tangent y = y0, a pair of steep tangents with slopes +-m1 crossing y = y0 at
x1 < x2 close to x0, and a pair of shallow tangents with slopes +-m2 crossing
at x3, x4 even closer. Tangent-line heights come from directional persistence
diagrams of the sampled function (a dense piecewise-linear proxy).

Detection keeps every (horizontal, steep-, steep+) triple whose crossings are
less than tau apart; a candidate survives when some unused shallow pair
crosses strictly inside its base, and the crossing abscissas feed a
closed-form weighted estimate of x0. Maxima work by mirror symmetry: sorting
each crossing pair ascending makes one formula serve both cases.
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
        if self.tau <= 0:
            raise ValueError("tau must be positive")
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
        steps = np.diff(xs)
        if not (steps > 0).all():
            raise ValueError("grid must be strictly increasing")
        if np.max(np.abs(steps - steps[0])) > 1e-9 * (xs[-1] - xs[0]):
            raise ValueError("grid must be uniform")
        self.xs = xs
        self.ys = ys

    @classmethod
    def from_callable(cls, fn, domain: tuple[float, float], samples_per_unit: float = 10_000.0) -> "SampledFunction":
        xs = uniform_grid(domain, samples_per_unit)
        return cls(xs, fn(xs))

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

    @property
    def step(self) -> float:
        return float(self.xs[1] - self.xs[0])

    def to_dict(self) -> dict:
        return {"xs": self.xs.tolist(), "ys": self.ys.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "SampledFunction":
        return cls(data["xs"], data["ys"])


@dataclass(frozen=True)
class Triangle:
    """A detection candidate: a horizontal critical height t and a steep pair
    (r at slope -m, s at slope +m) whose crossings x1 < x2 with y = t span
    less than the detection width."""

    t: float
    r: float
    s: float
    x1: float
    x2: float

    def __post_init__(self) -> None:
        if not (self.x1 < self.x2):
            raise ValueError("need x1 < x2")


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


def _cross_at(t: float, slope: float, height: float) -> float:
    """x-coordinate where the line y = slope*x + height meets y = t."""
    return (t - height) / slope


def detect_triangles(
    t_heights: list[float],
    s_heights: list[float],
    r_heights: list[float],
    m: float,
    tau: float,
) -> list[Triangle]:
    """All (t, r, s) triples whose +-m crossings with y = t are under tau apart.

    Deliberately greedy: every narrow triple is kept as a candidate, false
    positives included; the shallow-pair filter removes them later.
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
                    triangles.append(Triangle(t, r, s, min(xr, xs_), max(xr, xs_)))
                j += 1
    triangles.sort(key=lambda tri: (tri.t, tri.x1, tri.x2))
    return triangles


def compute_x(x1: float, x2: float, x3: float, x4: float, m1: float, m2: float) -> float:
    """Closed-form estimate of the critical abscissa from the crossings of a
    steep pair (x1, x2, slope magnitude m1) and a shallow pair (x3, x4, m2)."""
    den = 2.0 * m2 * (x3 - x4) - 2.0 * m1 * (x1 - x2)
    if abs(den) < DEGENERATE_TOL:
        raise DegenerateEstimator(f"denominator {den!r} below {DEGENERATE_TOL}")
    num = m2 * (x1 + x2) * (x3 - x4) - m1 * (x1 - x2) * (x3 + x4)
    return num / den


def filter_and_locate(
    triangles: list[Triangle],
    f: SampledFunction,
    cfg: SmoothConfig,
) -> list[CriticalPoint]:
    """Validate candidate triangles with shallow tangent pairs and locate the
    enclosed critical points.

    A pair (rr, ss) of shallow heights validates a triangle when both its
    crossings with y = t lie strictly inside (x1, x2). Each pair validates at
    most one candidate (quasi-multiple tangents produce adjacent duplicates of
    one critical point, and the shallow pair is what actually fixes it), so a
    pair once used is never reused.
    """
    m1, m2 = cfg.m1, cfg.m2
    rr_heights = tangent_heights(f, -m2)
    ss_heights = tangent_heights(f, m2)
    used: set[tuple[float, float]] = set()
    a, b = f.domain
    dx = f.step

    points = []
    for tri in triangles:
        for ss in ss_heights:
            x4c = _cross_at(tri.t, m2, ss)
            if not (tri.x1 < x4c < tri.x2):
                continue
            for rr in rr_heights:
                if (rr, ss) in used:
                    continue
                x3c = _cross_at(tri.t, -m2, rr)
                if not (tri.x1 < x3c < tri.x2):
                    continue
                used.add((rr, ss))
                x_est = compute_x(tri.x1, tri.x2, min(x3c, x4c), max(x3c, x4c), m1, m2)
                if not (a + dx < x_est < b - dx):
                    # boundary points are the caller's data, never detected here
                    continue
                r_cross = _cross_at(tri.t, -m1, tri.r)
                s_cross = _cross_at(tri.t, m1, tri.s)
                kind = CriticalKind.LOCAL_MIN if r_cross < s_cross else CriticalKind.LOCAL_MAX
                points.append(CriticalPoint(x_est, tri.t, kind))
    points.sort(key=lambda p: p.x)
    return points


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
    """Full pipeline: tangent heights -> narrow triangles -> shallow-pair
    filtering and location -> alternation sanity check.

    Degraded results are reported through warnings rather than raised.
    """
    cfg = cfg or SmoothConfig()
    t_heights = tangent_heights(f, 0.0)
    s_heights = tangent_heights(f, cfg.m1)
    r_heights = tangent_heights(f, -cfg.m1)
    triangles = detect_triangles(t_heights, s_heights, r_heights, cfg.m1, cfg.tau)
    points = filter_and_locate(triangles, f, cfg)
    ok = alternation_check(points)
    warnings = [] if ok else ["local minima and maxima do not alternate; suspect false or missed detections"]
    return SmoothReconstruction(points, ok, warnings)
