"""Deterministic seeded test-function generators with exact ground truth.

Three families: random piecewise-linear functions with a requested number of
interior critical points, random sums of sines (dominant-frequency, so the
critical count is controllable), and natural cubic splines through random
knots. Each generator returns the function together with its critical points
computed by an independent oracle, so reconstruction code can be checked
against exact answers. The PL truth is the alternation construction. Both
smooth truths are the sign changes of the exact derivative between bracket
ends, each bisected to adjacent floats; the sign at a bracket's left end gives
the kind. The package needs numpy alone.
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


def _sign_changes(fn, ends):
    """(lo, hi, rising) for each sign change of fn between consecutive ends;
    rising where fn is negative at lo, which marks a minimum. An end where fn
    is exactly 0 is dropped first, so a root on an end is bracketed once, by
    its neighbours."""
    vals = fn(ends)
    ends, signs = ends[vals != 0], np.sign(vals[vals != 0])
    i = np.nonzero(signs[:-1] != signs[1:])[0]
    return ends[i], ends[i + 1], signs[i] < 0


def _extrema(xs, ys, rising) -> list[CriticalPoint]:
    """The points (x, y), each a minimum where rising, else a maximum."""
    return [
        CriticalPoint(float(x), float(y), CriticalKind.LOCAL_MIN if r else CriticalKind.LOCAL_MAX)
        for x, y, r in zip(xs, ys, rising)
    ]


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
    fewest, most = target_range
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
        lo, hi, rising = _sign_changes(sines.derivative, grid)
        if not (fewest <= len(lo) <= most):
            continue
        roots = _bisect(sines.derivative, lo, hi)
        margin = _EDGE_MARGIN_FRAC * width
        if roots[0] < a + margin or roots[-1] > b - margin:
            continue
        if len(roots) > 1 and np.min(np.diff(roots)) < _MIN_GAP_FRAC * width:
            continue
        if np.min(np.abs(sines.second_derivative(roots))) < _MIN_CURVATURE:
            continue
        return GeneratedSignal(xs, sines), _extrema(roots, [sines(x) for x in roots], rising)

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
        sub = h[:-1]
        diag = 2.0 * (h[:-1] + h[1:])
        sup = h[1:]
        rhs = 6.0 * ((ys[2:] - ys[1:-1]) / h[1:] - (ys[1:-1] - ys[:-2]) / h[:-1])

        # Thomas forward sweep / back substitution
        for i in range(1, m):
            w = sub[i] / diag[i - 1]
            diag[i] -= w * sup[i - 1]
            rhs[i] -= w * rhs[i - 1]
        sol = np.zeros(m)
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
        """Interior local extrema, strictly increasing in x: the sign changes
        of the derivative. s'' is linear on each segment, so s' is monotone
        between consecutive knots and inflection points, and each such
        interval holds at most one root."""
        xs, m2 = self.xs, self.m2
        flips = np.nonzero(np.sign(m2[:-1]) * np.sign(m2[1:]) < 0)[0]
        inflections = xs[flips] + self.h[flips] * m2[flips] / (m2[flips] - m2[flips + 1])
        lo, hi, rising = _sign_changes(self.derivative, np.sort(np.concatenate((xs, inflections))))
        roots = _bisect(self.derivative, lo, hi)
        # two brackets that share an end can both give it; s' then has one
        # sign on both sides of that float, and neither root is an extremum
        gaps = np.diff(roots, prepend=-np.inf, append=np.inf)
        eps = 1e-9 * (xs[-1] - xs[0])
        keep = (gaps[:-1] > 0) & (gaps[1:] > 0) & (xs[0] + eps < roots) & (roots < xs[-1] - eps)
        return _extrema(roots[keep], self(roots[keep]), rising[keep])


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

