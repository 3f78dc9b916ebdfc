"""Deterministic seeded test-function generators with exact ground truth.

Three families: random piecewise-linear functions with a requested number of
interior critical points, random sums of sines (dominant-frequency, so the
critical count is controllable), and natural cubic splines through random
knots. Each generator returns the function together with its critical points
computed by an independent analytic oracle (alternation construction,
bisection of the analytic derivative, per-segment quadratic roots), so
reconstruction code can be checked against exact answers. The package needs
numpy alone.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .persistence import CriticalKind, CriticalPoint, PLFunction, checked_domain, checked_points, critical_points
from .reconstruct_smooth import SampledFunction, uniform_grid


class GenerationExhausted(RuntimeError):
    """Rejection sampling failed to produce an acceptable draw."""


class GeneratedSignal(SampledFunction):
    """An exact function sampled on a grid; the function stays as `exact`
    for oracle queries (its derivatives, its values off the grid)."""

    __slots__ = ("exact",)

    def __init__(self, xs, exact):
        super().__init__(xs, exact(xs))
        self.exact = exact


# ---------------------------------------------------------------------------
# piecewise-linear family

_X_STEPS = 4096
_BAND_LEVELS = 2049
_LOW_BAND = np.linspace(0.0, 0.4, _BAND_LEVELS)
_HIGH_BAND = np.linspace(0.6, 1.0, _BAND_LEVELS)


def gen_pl(n: int, seed: int, domain: tuple[float, float] = (0.0, 1.0)) -> tuple[PLFunction, list[CriticalPoint]]:
    """Random PL function with exactly n interior critical points.

    Interior vertex abscissas are distinct points of a fine uniform grid;
    minima draw their values from a low band and maxima from a high band, each
    snapped to its own level grid, so critical values are pairwise distinct,
    consecutive critical values differ by at least 0.2, and every segment has
    |slope| >= 0.2 / (b - a). On a unit domain that keeps the default
    reconstruction directions admissible.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = checked_domain(domain)
    if n > _X_STEPS - 1 or n > _BAND_LEVELS - 2:
        raise ValueError(f"n={n} too large for the generator grids")

    rng = np.random.default_rng(seed)
    ks = np.sort(rng.choice(np.arange(1, _X_STEPS), size=n, replace=False))
    xs_interior = a + (b - a) * ks / _X_STEPS

    first_is_max = bool(rng.integers(0, 2))
    is_max = (np.arange(n) % 2 == 0) == first_is_max
    kinds = [CriticalKind.LOCAL_MAX if m else CriticalKind.LOCAL_MIN for m in is_max]
    # endpoints take the band opposite to the adjacent critical point
    low = np.concatenate(([is_max[0]], ~is_max, [is_max[-1]]))
    # each band's draws fill its places from the right
    ys = np.empty(n + 2)
    ys[low] = rng.choice(_LOW_BAND, size=low.sum(), replace=False)[::-1]
    ys[~low] = rng.choice(_HIGH_BAND, size=(~low).sum(), replace=False)[::-1]

    f = PLFunction(np.concatenate([[a], xs_interior, [b]]), ys)
    truth = [CriticalPoint(float(x), float(y), k) for x, y, k in zip(xs_interior, ys[1:-1], kinds)]
    assert len(critical_points(f)[1:-1]) == n
    return f, truth


# ---------------------------------------------------------------------------
# harmonic family

class SineSum:
    """Sum of terms a*sin(w*(x - offset) + p) with its analytic derivatives;
    amps, omegas and phases are arrays of one length."""

    def __init__(self, amps, omegas, phases, offset):
        self.amps = amps
        self.omegas = omegas
        self.phases = phases
        self.offset = offset

    def _series(self, x, coefs, wave):
        y = x - self.offset
        return sum(c * wave(w * y + p) for c, w, p in zip(coefs, self.omegas, self.phases))

    def __call__(self, x):
        return self._series(x, self.amps, np.sin)

    def derivative(self, x):
        return self._series(x, self.amps * self.omegas, np.cos)

    def second_derivative(self, x):
        return self._series(x, -self.amps * self.omegas * self.omegas, np.sin)


def _bisect(fn, lo, hi):
    """Roots of fn in the brackets [lo, hi], all halved together, where fn(lo)
    and fn(hi) differ in sign. Each bracket shrinks to two adjacent floats,
    and the end with the smaller |fn| is its root."""
    side = np.sign(fn(lo))
    while True:
        mid = 0.5 * (lo + hi)
        if ((mid == lo) | (mid == hi)).all():
            return np.where(np.abs(fn(lo)) <= np.abs(fn(hi)), lo, hi)
        right = np.sign(fn(mid)) == side
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)


_MIN_CURVATURE = 10.0
_MIN_GAP_FRAC = 5e-3
_EDGE_MARGIN_FRAC = 0.01


def gen_harmonic(
    seed: int,
    domain: tuple[float, float] = (0.0, 1.0),
    target_range: tuple[int, int] = (20, 30),
    samples_per_unit: float = 10_000.0,
    max_attempts: int = 1000,
) -> tuple[GeneratedSignal, list[CriticalPoint]]:
    """Random sine combination with an interior critical count in target_range.

    Draws a dominant frequency plus two weaker lower-frequency terms
    and rejects draws whose critical points sit too close to the boundary or
    to each other, or curve too weakly (the reconstruction theory assumes a
    nonvanishing second derivative). The draw's critical count is the number
    of sign changes of the analytic derivative on a grid; only a draw with an
    accepted count has its ground truth solved, by one bisection of all those
    brackets at once, each down to adjacent floats.
    """
    a, b = checked_domain(domain)
    xs = uniform_grid((a, b), samples_per_unit)
    width = b - a
    lo, hi = target_range
    rng = np.random.default_rng(seed)

    for _ in range(max_attempts):
        # continuous (generically incommensurate) frequencies: an integer grid
        # would make f periodic and repeat critical heights exactly, putting
        # several critical points on one critical line
        k_dom = rng.uniform(10.0, 15.0)
        k2 = rng.uniform(2.0, 0.8 * k_dom)
        k3 = rng.uniform(2.0, 0.8 * k_dom)
        amps = np.array([1.0, rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.4)])
        phases = rng.uniform(0.0, 2.0 * np.pi, 3)
        omegas = 2.0 * np.pi * np.array([k_dom, k2, k3]) / width

        sines = SineSum(amps, omegas, phases, a)
        grid = np.linspace(a, b, int(200 * k_dom) + 1)
        vals = sines.derivative(grid)
        brackets = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if not (lo <= len(brackets) <= hi):
            continue
        roots = _bisect(sines.derivative, grid[brackets], grid[brackets + 1])
        margin = _EDGE_MARGIN_FRAC * width
        if roots[0] < a + margin or roots[-1] > b - margin:
            continue
        if len(roots) > 1 and np.min(np.diff(roots)) < _MIN_GAP_FRAC * width:
            continue
        curvatures = sines.second_derivative(roots)
        if np.min(np.abs(curvatures)) < _MIN_CURVATURE:
            continue

        func = GeneratedSignal(xs, sines)
        truth = [
            CriticalPoint(float(x), float(sines(x)), CriticalKind.LOCAL_MAX if c < 0 else CriticalKind.LOCAL_MIN)
            for x, c in zip(roots, curvatures)
        ]
        return func, truth

    raise GenerationExhausted(f"no acceptable harmonic draw within {max_attempts} attempts (seed={seed})")


# ---------------------------------------------------------------------------
# natural cubic spline family

class NaturalCubicSpline:
    """Interpolating cubic spline with natural boundary (zero second derivative
    at both ends), solved with the Thomas tridiagonal algorithm."""

    def __init__(self, xs, ys):
        xs, ys = checked_points(xs, ys, 3)
        self.xs = xs
        self.ys = ys
        n = len(xs)
        h = np.diff(xs)

        # tridiagonal system for the interior second derivatives
        m = n - 2
        sub = h[:-1].copy()
        diag = 2.0 * (h[:-1] + h[1:])
        sup = h[1:].copy()
        rhs = 6.0 * ((ys[2:] - ys[1:-1]) / h[1:] - (ys[1:-1] - ys[:-2]) / h[:-1])

        # Thomas forward sweep / back substitution
        for i in range(1, m):
            w = sub[i] / diag[i - 1]
            diag[i] -= w * sup[i - 1]
            rhs[i] -= w * rhs[i - 1]
        sol = np.zeros(m)
        if m > 0:
            sol[-1] = rhs[-1] / diag[-1]
            for i in range(m - 2, -1, -1):
                sol[i] = (rhs[i] - sup[i] * sol[i + 1]) / diag[i]

        self.m2 = np.concatenate([[0.0], sol, [0.0]])  # second derivatives at knots
        self.h = h

    def _local(self, x):
        """For each x: its segment i (the end ones extended), the segment's
        width h, and the distances u, v from x to the segment's two knots."""
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        return i, self.h[i], x - self.xs[i], self.xs[i + 1] - x

    def __call__(self, x):
        i, h, u, v = self._local(x)
        return (
            self.m2[i] * v**3 / (6.0 * h)
            + self.m2[i + 1] * u**3 / (6.0 * h)
            + (self.ys[i] / h - self.m2[i] * h / 6.0) * v
            + (self.ys[i + 1] / h - self.m2[i + 1] * h / 6.0) * u
        )

    def derivative(self, x):
        i, h, u, v = self._local(x)
        return (
            -self.m2[i] * v**2 / (2.0 * h)
            + self.m2[i + 1] * u**2 / (2.0 * h)
            + (self.ys[i + 1] - self.ys[i]) / h
            - (self.m2[i + 1] - self.m2[i]) * h / 6.0
        )

    def second_derivative(self, x):
        i, h, u, v = self._local(x)
        return (self.m2[i] * v + self.m2[i + 1] * u) / h

    def critical_points(self) -> list[CriticalPoint]:
        """Interior local extrema from the exact quadratic derivative roots of
        each segment; derivative roots without a sign change are ignored."""
        eps = 1e-9 * (self.xs[-1] - self.xs[0])
        roots: list[float] = []
        for i in range(len(self.xs) - 1):
            h = self.h[i]
            d = (self.ys[i + 1] - self.ys[i]) / h - (self.m2[i + 1] - self.m2[i]) * h / 6.0
            alpha = (self.m2[i + 1] - self.m2[i]) / (2.0 * h)
            beta = self.m2[i]
            gamma = -self.m2[i] * h / 2.0 + d
            for u in _quadratic_roots(alpha, beta, gamma):
                if 0.0 <= u < h:
                    roots.append(float(self.xs[i] + u))
        roots.sort()

        out: list[CriticalPoint] = []
        a, b = self.xs[0], self.xs[-1]
        for x in roots:
            if out and abs(x - out[-1].x) < 1e-12:
                continue
            if not (a + eps < x < b - eps):
                continue
            left = float(self.derivative(x - eps))
            right = float(self.derivative(x + eps))
            if left < 0 < right:
                out.append(CriticalPoint(x, float(self(x)), CriticalKind.LOCAL_MIN))
            elif left > 0 > right:
                out.append(CriticalPoint(x, float(self(x)), CriticalKind.LOCAL_MAX))
        return out


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*u^2 + b*u + c, numerically stable, [] when degenerate."""
    if abs(a) < 1e-300:
        if abs(b) < 1e-300:
            return []
        return [-c / b]
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return []
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    roots = [q / a]
    if q != 0.0:
        roots.append(c / q)
    else:
        roots.append(-roots[0])
    return roots


def gen_spline(
    seed: int,
    domain: tuple[float, float] = (0.0, 1.0),
    knots: int = 30,
    samples_per_unit: float = 10_000.0,
) -> tuple[GeneratedSignal, list[CriticalPoint]]:
    """Natural cubic spline through uniformly spaced random-height knots.

    Warns when two critical points of the truth lie closer than one sample
    step: no method that reads the samples can tell such a pair apart. The
    warning names the samples_per_unit that puts a step between them.
    """
    if knots < 4:
        raise ValueError("need at least 4 knots")
    a, b = checked_domain(domain)
    xs = uniform_grid((a, b), samples_per_unit)
    rng = np.random.default_rng(seed)
    spline = NaturalCubicSpline(np.linspace(a, b, knots), rng.uniform(0.0, 1.0, knots))
    func = GeneratedSignal(xs, spline)
    truth = spline.critical_points()
    gap = min(np.diff([c.x for c in truth]), default=math.inf)
    if gap < func.step:
        warnings.warn(
            f"gen_spline(seed={seed}, knots={knots}): two critical points lie "
            f"{gap / func.step:.2f} sample steps apart; samples_per_unit="
            f"{math.ceil((b - a) / gap) / (b - a):g} separates them",
            stacklevel=2,
        )
    return func, truth

