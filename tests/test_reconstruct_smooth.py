import math

import numpy as np
import pytest
from scipy.optimize import brentq

from persrec.persistence import CriticalKind, CriticalPoint
from persrec.reconstruct_smooth import (
    DegenerateEstimator,
    SampledFunction,
    SmoothConfig,
    Triangle,
    alternation_check,
    compute_x,
    detect_triangles,
    filter_and_locate,
    five_line_reconstruct,
    pl_proxy,
    tangent_heights,
)


def sampled(fn, domain, spu=10_000.0):
    return SampledFunction.from_callable(fn, domain, samples_per_unit=spu)


def nonagon(x):
    return x**9 - x**4 + x**3 - x + 1.0


# ---------------------------------------------------------------------------
# types

def test_config_defaults_and_validation():
    cfg = SmoothConfig()
    assert cfg.tau == 0.08 and cfg.steep_deg == 30.0 and cfg.shallow_deg == 0.1
    assert cfg.m1 == pytest.approx(math.tan(math.radians(30.0)))
    with pytest.raises(ValueError):
        SmoothConfig(tau=-1.0)
    with pytest.raises(ValueError):
        SmoothConfig(steep_deg=0.05, shallow_deg=0.1)


def test_sampled_function_requires_uniform_grid():
    with pytest.raises(ValueError):
        SampledFunction([0.0, 0.1, 0.3], [0.0, 1.0, 2.0])


def test_triangle_requires_ordered_base():
    with pytest.raises(ValueError):
        Triangle(0.0, 0.0, 0.0, 1.0, 1.0)


def test_pl_proxy_collapses_equal_samples():
    f = SampledFunction([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 2.0])
    proxy = pl_proxy(f)
    assert list(proxy.ys) == [0.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# tangent heights

def test_tangent_heights_of_parabola():
    f = sampled(lambda x: x * x, (-1.0, 1.0), spu=1000.0)
    (h0,) = tangent_heights(f, 0.0)
    assert h0 == pytest.approx(0.0, abs=1e-3)
    (h1,) = tangent_heights(f, 1.0)
    assert h1 == pytest.approx(-0.25, abs=1e-3)
    (h2,) = tangent_heights(f, -1.0)
    assert h2 == pytest.approx(-0.25, abs=1e-3)


# ---------------------------------------------------------------------------
# closed-form estimator

def test_compute_x_figure_values():
    x = compute_x(0.570083, 0.806887, 0.722979, 0.787817, 1.0, 0.5)
    assert x == pytest.approx(0.766012, abs=1e-5)


def test_compute_x_symmetric_configuration():
    for m1, m2 in ((1.0, 0.5), (2.0, 0.1), (0.7, 0.3)):
        assert compute_x(-1.0, 1.0, -0.5, 0.5, m1, m2) == pytest.approx(0.0, abs=1e-15)


def test_compute_x_direct_evaluation():
    assert compute_x(0.0, 1.0, 0.4, 0.7, 1.0, 0.2) == pytest.approx(1.04 / 1.88)


def test_compute_x_degenerate_denominator():
    with pytest.raises(DegenerateEstimator):
        compute_x(0.0, 1.0, 0.0, 0.5, 1.0, 2.0)


def test_estimator_contained_in_shallow_bracket():
    # tangent crossings of convex perturbed parabolas, built analytically
    rng = np.random.default_rng(4)
    cfg = SmoothConfig()
    for _ in range(50):
        c = rng.uniform(0.5, 5.0)
        e = rng.uniform(-0.2, 0.2) * c
        x0 = rng.uniform(-0.5, 0.5)
        fp = lambda x: 2 * c * (x - x0) + 3 * e * (x - x0) ** 2
        f = lambda x: c * (x - x0) ** 2 + e * (x - x0) ** 3
        def crossing(slope):
            lo, hi = (x0, x0 + 1.0) if slope > 0 else (x0 - 1.0, x0)
            xi = brentq(lambda x: fp(x) - slope, lo, hi)
            return xi - f(xi) / slope
        x1, x2 = crossing(-cfg.m1), crossing(cfg.m1)
        x3, x4 = crossing(-cfg.m2), crossing(cfg.m2)
        est = compute_x(min(x1, x2), max(x1, x2), min(x3, x4), max(x3, x4), cfg.m1, cfg.m2)
        assert min(x3, x4) <= est <= max(x3, x4)


# ---------------------------------------------------------------------------
# detection

def test_detect_triangles_empty_heights():
    assert detect_triangles([], [0.1], [0.2], 0.5, 0.08) == []


def test_parabola_base_too_wide_at_default_tau():
    # tangency of slope +-tan(30) on y=x^2 crosses y=0 at +-m/4: base m/2 > 0.08
    f = sampled(lambda x: x * x, (-1.0, 1.0), spu=2000.0)
    m = math.tan(math.radians(30.0))
    t = tangent_heights(f, 0.0)
    s = tangent_heights(f, m)
    r = tangent_heights(f, -m)
    assert detect_triangles(t, s, r, m, 0.08) == []
    wide = detect_triangles(t, s, r, m, 0.5)
    assert len(wide) == 1
    assert wide[0].x1 == pytest.approx(-m / 4, abs=1e-3)
    assert wide[0].x2 == pytest.approx(m / 4, abs=1e-3)


def test_nonagon_triangle_matches_figure_crossings():
    # the figure's slope -1 line is tangent at x=0 where f''=0: a grazing
    # tangency that never changes sublevel components, so its height is fed
    # directly; the crossings with the horizontal tangent must reproduce the
    # figure's triangle
    t0 = 0.429917
    r_height = 0.570083 + t0  # y-intercept of y = -x + x1 + t0
    s_height = t0 - 0.806887  # y-intercept of y = x - x2 + t0
    (tri,) = detect_triangles([t0], [s_height], [r_height], 1.0, 0.25)
    assert tri.x1 == pytest.approx(0.570083, abs=1e-12)
    assert tri.x2 == pytest.approx(0.806887, abs=1e-12)


def test_triangle_without_interior_shallow_pair_is_dropped():
    f = sampled(lambda x: x * x, (-1.0, 1.0), spu=2000.0)
    ghost = Triangle(t=0.0, r=5.0, s=5.0, x1=0.5, x2=0.52)
    assert filter_and_locate([ghost], f, SmoothConfig()) == []


def test_shared_shallow_pair_used_once():
    f = sampled(lambda x: x * x, (-1.0, 1.0), spu=2000.0)
    cfg = SmoothConfig(tau=0.5)
    t = tangent_heights(f, 0.0)
    s = tangent_heights(f, cfg.m1)
    r = tangent_heights(f, -cfg.m1)
    (tri,) = detect_triangles(t, s, r, cfg.m1, 0.5)
    shifted = Triangle(tri.t, tri.r, tri.s, tri.x1 - 1e-4, tri.x2 + 1e-4)
    points = filter_and_locate([tri, shifted], f, cfg)
    assert len(points) == 1
    assert points[0].x == pytest.approx(0.0, abs=1e-3)
    assert points[0].kind is CriticalKind.LOCAL_MIN


# ---------------------------------------------------------------------------
# full pipeline

def test_five_line_locates_figure_critical_point():
    res = five_line_reconstruct(sampled(nonagon, (0.54, 0.88)))
    assert len(res.points) == 1
    assert res.points[0].x == pytest.approx(0.762580, abs=1e-3)
    assert res.points[0].kind is CriticalKind.LOCAL_MIN
    assert res.alternation_ok and not res.warnings


def test_five_line_on_monotone_function_is_empty():
    res = five_line_reconstruct(sampled(lambda x: x**3 + 2.0 * x, (0.0, 1.0)))
    assert res.points == []
    assert res.alternation_ok and not res.warnings


def test_five_line_recovers_max_and_min_of_cubic():
    # critical points of 4x^3 - 3x: max at -0.5, min at +0.5; |f''| = 12 there
    # keeps the steep triangle base m1/|f''| ~ 0.05 below the default tau
    res = five_line_reconstruct(sampled(lambda x: 4.0 * x**3 - 3.0 * x, (-1.2, 1.2)))
    assert [p.kind for p in res.points] == [CriticalKind.LOCAL_MAX, CriticalKind.LOCAL_MIN]
    assert res.points[0].x == pytest.approx(-0.5, abs=1e-4)
    assert res.points[1].x == pytest.approx(0.5, abs=1e-4)
    assert res.alternation_ok


# ---------------------------------------------------------------------------
# alternation

def crit(x, kind):
    return CriticalPoint(x, 0.0, kind)


def test_alternation_examples():
    mn, mx = CriticalKind.LOCAL_MIN, CriticalKind.LOCAL_MAX
    assert alternation_check([crit(0, mn), crit(1, mx), crit(2, mn)])
    assert not alternation_check([crit(0, mn), crit(1, mn)])
    assert alternation_check([])
    assert alternation_check(
        [CriticalPoint(0, 0, CriticalKind.ENDPOINT), crit(1, mx), crit(2, mn)]
    )


# ---------------------------------------------------------------------------
# detection guarantee

@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 5.0])
def test_detection_guarantee_on_parabolas(c):
    # |f''| = 2c within any radius delta; a direction steep enough that its
    # tangent-line slope 1/tan(theta) stays below delta*eps, paired with
    # tau > 2*delta, must produce a triangle bracketing the minimum
    delta, eps = 0.1, 2.0 * c
    slope = 0.9 * delta * eps
    tau = 2.2 * delta
    f = sampled(lambda x: c * x * x, (-1.0, 1.0), spu=2000.0)
    t = tangent_heights(f, 0.0)
    s = tangent_heights(f, slope)
    r = tangent_heights(f, -slope)
    tris = detect_triangles(t, s, r, slope, tau)
    assert any(tri.x1 < 0.0 < tri.x2 for tri in tris)
