import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from persrec.generators import gen_harmonic
from persrec.geometry import angle_for_slope
from persrec.persistence import CriticalKind, CriticalPoint, critical_heights, directional_diagram
from persrec.reconstruct_smooth import (
    DegenerateEstimator,
    SampledFunction,
    SmoothConfig,
    alternation_check,
    compute_x,
    detect_triangles,
    filter_and_locate,
    five_line_reconstruct,
    pl_proxy,
    tangent_heights,
    uniform_grid,
)

from oracles import locate_by_scan, triangles_by_scan


def sampled(fn, domain, spu=10_000.0):
    xs = uniform_grid(domain, spu)
    return SampledFunction(xs, fn(xs))


def nonagon(x):
    return x**9 - x**4 + x**3 - x + 1.0


def vertical_births(f):
    d = directional_diagram(pl_proxy(f), angle_for_slope(0.0))
    return [p.birth for p in d.points]


def located_by(locate, rows, f, cfg):
    """`locate` run on rows with f's shallow families, vertical births,
    domain and step."""
    rr, ss = tangent_heights(f, -cfg.m2), tangent_heights(f, cfg.m2)
    return locate(rows, rr, ss, vertical_births(f), f.domain, f.step, cfg)


# hand-built cases: a domain and a grid step, and no births (every point a max)
HAND_BUILT = ([], (-1.0, 1.0), 1e-3)


# ---------------------------------------------------------------------------
# types

def test_config_defaults_and_validation():
    cfg = SmoothConfig()
    assert cfg.tau == 0.08 and cfg.steep_deg == 30.0 and cfg.shallow_deg == 0.1
    assert cfg.m1 == pytest.approx(math.tan(math.radians(30.0)))
    with pytest.raises(ValueError):
        SmoothConfig(steep_deg=0.05, shallow_deg=0.1)


@pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -1.0])
def test_config_rejects_a_tau_that_is_not_positive_and_finite(tau):
    with pytest.raises(ValueError, match="tau"):
        SmoothConfig(tau=tau)


@pytest.mark.parametrize("spu", [0.0, -5.0, math.nan, math.inf])
def test_uniform_grid_rejects_samples_per_unit_that_is_not_positive_and_finite(spu):
    with pytest.raises(ValueError, match="samples_per_unit"):
        uniform_grid((0.0, 1.0), spu)


def test_sampled_function_requires_uniform_grid():
    with pytest.raises(ValueError):
        SampledFunction([0.0, 0.1, 0.3], [0.0, 1.0, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["xs", "ys"])
def test_sampled_function_rejects_samples_that_are_not_finite(axis, bad):
    data = {"xs": [0.0, 1.0, 2.0, 3.0], "ys": [0.0, 1.0, 0.5, 2.0]}
    data[axis][-1] = bad
    with pytest.raises(ValueError, match="finite"):
        SampledFunction(data["xs"], data["ys"])


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


def test_compute_x_broadcast_equals_scalar_calls():
    rng = np.random.default_rng(13)
    x1, x2, x3, x4 = np.sort(rng.uniform(-1.0, 1.0, (4, 200)), axis=0)
    for m1, m2 in ((1.0, 0.5), (math.tan(math.radians(30.0)), math.tan(math.radians(0.1)))):
        scalar = [compute_x(*args, m1, m2) for args in zip(x1.tolist(), x2.tolist(), x3.tolist(), x4.tolist())]
        assert compute_x(x1, x2, x3, x4, m1, m2).tolist() == scalar


def test_compute_x_raises_at_the_first_vanishing_denominator():
    # den = 4*(x3 - x4) + 2: 1.6, then 0, then about -4e-13
    x3 = np.array([0.1, 0.0, 0.2])
    x4 = np.array([0.2, 0.5, 0.7 + 1e-13])
    with pytest.raises(DegenerateEstimator) as exc:
        compute_x(0.0, 1.0, x3, x4, 1.0, 2.0)
    with pytest.raises(DegenerateEstimator) as scalar:
        compute_x(0.0, 1.0, 0.0, 0.5, 1.0, 2.0)
    assert str(exc.value) == str(scalar.value)


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
    assert detect_triangles([], [0.1], [0.2], 0.5, 0.08).shape == (0, 5)
    assert detect_triangles([0.1], [], [0.2], 0.5, 0.08).shape == (0, 5)


def test_parabola_base_too_wide_at_default_tau():
    # tangency of slope +-tan(30) on y=x^2 crosses y=0 at +-m/4: base m/2 > 0.08
    f = sampled(lambda x: x * x, (-1.0, 1.0), spu=2000.0)
    m = math.tan(math.radians(30.0))
    t = tangent_heights(f, 0.0)
    s = tangent_heights(f, m)
    r = tangent_heights(f, -m)
    assert len(detect_triangles(t, s, r, m, 0.08)) == 0
    ((_, _, _, x1, x2),) = detect_triangles(t, s, r, m, 0.5)
    assert x1 == pytest.approx(-m / 4, abs=1e-3)
    assert x2 == pytest.approx(m / 4, abs=1e-3)


def test_nonagon_triangle_matches_figure_crossings():
    # the figure's slope -1 line is tangent at x=0 where f''=0: a grazing
    # tangency that never changes sublevel components, so its height is fed
    # directly; the crossings with the horizontal tangent must reproduce the
    # figure's triangle
    t0 = 0.429917
    r_height = 0.570083 + t0  # y-intercept of y = -x + x1 + t0
    s_height = t0 - 0.806887  # y-intercept of y = x - x2 + t0
    ((_, _, _, x1, x2),) = detect_triangles([t0], [s_height], [r_height], 1.0, 0.25)
    assert x1 == pytest.approx(0.570083, abs=1e-12)
    assert x2 == pytest.approx(0.806887, abs=1e-12)


def test_swapped_steep_crossings_sort_by_r_then_s():
    # at t = 0 with m = 1, xr = r and xs = -s: r = 0.1 with s = -0.3 and
    # r = 0.3 with s = -0.1 give the same base (0.1, 0.3); the matched pairs
    # (xr == xs) are not triangles
    rows = detect_triangles([0.0], [-0.3, -0.1], [0.3, 0.1], 1.0, 0.5)
    assert rows.tolist() == [[0.0, 0.1, -0.3, 0.1, 0.3], [0.0, 0.3, -0.1, 0.1, 0.3]]
    assert rows.tolist() == [list(row) for row in triangles_by_scan([0.0], [-0.3, -0.1], [0.3, 0.1], 1.0, 0.5)]


def test_triangle_without_interior_shallow_pair_is_dropped():
    f = sampled(lambda x: x * x, (-1.0, 1.0), spu=2000.0)
    ghost = [(0.0, 5.0, 5.0, 0.5, 0.52)]
    assert located_by(filter_and_locate, ghost, f, SmoothConfig()) == []


def test_shared_shallow_pair_used_once():
    f = sampled(lambda x: x * x, (-1.0, 1.0), spu=2000.0)
    cfg = SmoothConfig(tau=0.5)
    t = tangent_heights(f, 0.0)
    s = tangent_heights(f, cfg.m1)
    r = tangent_heights(f, -cfg.m1)
    (row,) = detect_triangles(t, s, r, cfg.m1, 0.5)
    shifted = row + [0.0, 0.0, 0.0, -1e-4, 1e-4]
    points = located_by(filter_and_locate, [row, shifted], f, cfg)
    assert len(points) == 1
    assert points[0].x == pytest.approx(0.0, abs=1e-3)
    assert points[0].kind is CriticalKind.LOCAL_MIN


def scan_or_raise(fn, rows, *args):
    """(x, y, kind) of the points, or the raised estimator message."""
    try:
        return [(p.x, p.y, p.kind) for p in fn(rows, *args)]
    except DegenerateEstimator as exc:
        return str(exc)


def assert_equals_scans(f, cfg):
    heights = [tangent_heights(f, slope) for slope in (0.0, cfg.m1, -cfg.m1)]
    rows = detect_triangles(*heights, cfg.m1, cfg.tau)
    expected = triangles_by_scan(*heights, cfg.m1, cfg.tau)
    assert rows.tolist() == [list(row) for row in expected]
    rr, ss = tangent_heights(f, -cfg.m2), tangent_heights(f, cfg.m2)
    args = (rr, ss, vertical_births(f), f.domain, f.step, cfg)
    assert scan_or_raise(filter_and_locate, rows, *args) == scan_or_raise(locate_by_scan, expected, *args)


def test_candidate_search_equals_the_scans_on_the_panel_and_seeded_draws():
    # the smooth-five-line panel, then coarser draws at a wider tau; seed 40
    # raises the estimator
    for seed in range(100):
        assert_equals_scans(gen_harmonic(seed)[0], SmoothConfig())
    for seed in range(100, 130):
        assert_equals_scans(gen_harmonic(seed, samples_per_unit=2000.0)[0], SmoothConfig(tau=0.12))


def test_rounding_ties_sort_by_r_then_s():
    # 1.0 - h rounds to 1.0 for all four heights: every triple has the base
    # (-1, 1), and the rows come in r order, then s order
    rows = detect_triangles([1.0], [4e-17, 3e-17], [2e-17, 1e-17], 1.0, 3.0)
    assert rows[:, 1:3].tolist() == [[1e-17, 3e-17], [1e-17, 4e-17], [2e-17, 3e-17], [2e-17, 4e-17]]
    assert rows.tolist() == [list(row) for row in triangles_by_scan([1.0], [4e-17, 3e-17], [2e-17, 1e-17], 1.0, 3.0)]


def assert_rows_equal_the_scan(t, s, r, m, tau):
    rows = detect_triangles(t, s, r, m, tau)
    assert rows.tolist() == [list(row) for row in triangles_by_scan(t, s, r, m, tau)]
    return rows


def test_crossings_exactly_tau_from_xr_or_on_it_are_not_triangles():
    # at t = 0 with m = 1, xr = r = 0.5 and xs = -s; the window is (0.25, 0.75)
    # exactly, and xs one ulp inside either end still counts
    inside = [-np.nextafter(0.25, 1.0), -np.nextafter(0.75, 0.0)]
    rows = assert_rows_equal_the_scan([0.0], [-0.25, -0.75, -0.5, -0.375, *inside], [0.5], 1.0, 0.25)
    assert rows[:, 2].tolist() == [inside[0], -0.375, inside[1]]


def test_unsorted_and_repeated_s_heights():
    s = [0.3, -0.1, 0.3, -0.2, -0.1, 0.05, -0.2, 0.3]
    rows = assert_rows_equal_the_scan([0.0, 0.1, -0.1, 0.1], s, [0.2, -0.05, 0.2, 0.0], 1.0, 0.3)
    assert len(rows) > len(set(map(tuple, rows.tolist())))


def test_a_negative_slope_swaps_the_families():
    t, s, r = [0.0, 0.25, -0.5], [-0.3, 0.1, 0.6, -0.05], [0.2, -0.4, 0.5]
    rows = assert_rows_equal_the_scan(t, s, r, -1.0, 0.5)
    assert len(rows) and (rows[:, 3] < rows[:, 4]).all()
    assert_rows_equal_the_scan(t, s, r, -0.577, 0.25)


def test_the_first_vanishing_denominator_in_row_ss_rr_order_raises():
    # crossings are about rr - t and t - ss. The wide row at t = -1 takes
    # (rr=2e-14, ss=-8e-14) alone; the narrow row at t = 0 brackets the other
    # three pairs, all degenerate, and (ss=-8e-14, rr=7e-14) comes first
    cfg = SmoothConfig(tau=0.5, steep_deg=60.0, shallow_deg=45.0)
    rr, ss = [2e-14, 7e-14], [-8e-14, -4e-14]
    rows = [(-1.0, 0.0, 0.0, -1.0 + 6e-14, 1.0 + 4e-14), (0.0, 0.0, 0.0, 0.0, 1e-13)]
    with pytest.raises(DegenerateEstimator) as exc:
        filter_and_locate(rows, rr, ss, *HAND_BUILT, cfg)
    with pytest.raises(DegenerateEstimator) as first:
        compute_x(0.0, 1e-13, 7e-14 / cfg.m2, 8e-14 / cfg.m2, cfg.m1, cfg.m2)
    assert str(exc.value) == str(first.value) == scan_or_raise(locate_by_scan, rows, rr, ss, *HAND_BUILT, cfg)
    assert len(filter_and_locate(rows, [2e-14], [-8e-14], *HAND_BUILT, cfg)) == 1


def test_an_earlier_row_raises_before_a_lower_pair_of_a_later_row():
    # both rows have the base (1, 1 + 1e-13) and bracket one degenerate pair
    # each: the first row the higher (ss, rr), the second the lower one
    cfg = SmoothConfig(tau=0.5, steep_deg=60.0, shallow_deg=45.0)
    args = ([5e-14, 1.0 + 3e-14], [-2.0 - 2e-14, -1.0 - 7e-14], *HAND_BUILT, cfg)
    rows = [(0.0, 0.0, 0.0, 1.0, 1.0 + 1e-13), (-1.0, 0.0, 0.0, 1.0, 1.0 + 1e-13)]
    messages = []
    for t, rr, ss in ((0.0, 1.0 + 3e-14, -1.0 - 7e-14), (-1.0, 5e-14, -2.0 - 2e-14)):
        x3, x4 = (t - rr) / -cfg.m2, (t - ss) / cfg.m2
        with pytest.raises(DegenerateEstimator) as exc:
            compute_x(1.0, 1.0 + 1e-13, min(x3, x4), max(x3, x4), cfg.m1, cfg.m2)
        messages.append(str(exc.value))
    assert messages[0] != messages[1]
    assert scan_or_raise(filter_and_locate, rows, *args) == messages[0] == scan_or_raise(locate_by_scan, rows, *args)


def test_a_shallow_height_listed_twice_is_one_line():
    cfg = SmoothConfig(tau=0.5, steep_deg=60.0, shallow_deg=45.0)
    args = ([-0.25, -0.25], [-0.25], *HAND_BUILT, cfg)
    rows = [(0.0, 0.0, 0.0, -0.3, 0.3)]
    assert len(filter_and_locate(rows, *args)) == 1
    assert filter_and_locate(rows, *args) == locate_by_scan(rows, *args)


def test_a_shallow_crossing_exactly_on_the_base_is_not_inside():
    # at t = 0 the shallow crossings are about -0.25 (rr) and 0.25 (ss); a
    # base end on either crossing leaves the pair out, one ulp outside it
    # takes the pair in
    cfg = SmoothConfig(tau=0.5, steep_deg=60.0, shallow_deg=45.0)
    args = ([-0.25], [-0.25], *HAND_BUILT, cfg)
    x3, x4 = 0.25 / -cfg.m2, 0.25 / cfg.m2
    for x1, x2, found in (
        (x3, 0.3, 0),
        (-0.3, x4, 0),
        (np.nextafter(x3, -1.0), 0.3, 1),
        (-0.3, np.nextafter(x4, 1.0), 1),
    ):
        rows = [(0.0, 0.0, 0.0, x1, x2)]
        points = filter_and_locate(rows, *args)
        assert len(points) == found
        assert points == locate_by_scan(rows, *args)


def test_a_crossing_one_ulp_inside_a_bound_is_in_the_window():
    # solving the bound for the height rounds past these heights, so the
    # window finds them only through its slack
    t, s, r, m, tau = -0.24348000509965395, 0.3243464488513091, -0.5713064590506169, 3.0, 0.08
    assert (t - s) / m == np.nextafter((t - r) / -m - tau, 1.0)
    assert len(assert_rows_equal_the_scan([t], [s], [r], m, tau)) == 1
    cfg = SmoothConfig(tau=0.5, steep_deg=60.0, shallow_deg=30.0)
    t, rr = 0.40048811556914976, -0.09978503053152081
    args = ([rr], [t + 0.7 * cfg.m2], *HAND_BUILT, cfg)
    rows = [(t, 0.0, 0.0, -0.8664985067086894, -0.5664985067086894)]
    assert (t - rr) / -cfg.m2 == np.nextafter(rows[0][3], 0.0)
    (point,) = filter_and_locate(rows, *args)
    assert [point] == locate_by_scan(rows, *args)


def test_one_candidate_takes_two_shallow_pairs():
    # at t = 0 the rr crossings are rr/m2 and the ss crossings -ss/m2: the
    # base (0, 0.7) brackets one rr (0.339) and two ss (-0.006, -0.672)
    f = sampled(lambda x: np.cos(3.0 * np.pi * x), (-1.0, 1.0), spu=1000.0)
    cfg = SmoothConfig(tau=0.5, steep_deg=60.0, shallow_deg=45.0)
    rows = [(0.0, 0.0, 0.0, 0.0, 0.7)]
    points = located_by(filter_and_locate, rows, f, cfg)
    assert len(points) == 2 and points[0].x < points[1].x
    assert points == located_by(locate_by_scan, rows, f, cfg)


def test_a_pair_used_outside_the_domain_is_denied_to_later_candidates():
    # x^2 has one shallow pair; at t = 2 its crossings are -2.25 and 2.25,
    # and the lopsided base (-2.3, 10) puts the estimate near -1.03, outside
    # the domain; at t = 0 the pair would give the minimum at 0
    f = sampled(lambda x: x * x, (-1.0, 1.0), spu=1000.0)
    cfg = SmoothConfig(tau=0.5, steep_deg=60.0, shallow_deg=45.0)
    outside, inside = (2.0, 0.0, 0.0, -2.3, 10.0), (0.0, 0.0, 0.0, -0.3, 0.3)
    assert located_by(filter_and_locate, [outside], f, cfg) == []
    (point,) = located_by(filter_and_locate, [inside], f, cfg)
    assert point.x == pytest.approx(0.0, abs=1e-3)
    assert located_by(filter_and_locate, [outside, inside], f, cfg) == []
    assert located_by(locate_by_scan, [outside, inside], f, cfg) == []
    assert located_by(filter_and_locate, [inside, outside], f, cfg) == [point]


def test_a_dense_signal_stays_small_in_traced_memory():
    # 201 heights per family and about 8 400 candidate rows: both steps
    # without blocks traced 32.7 MB. 401 heights per family and about 33 600
    # rows trace 3.0 MB: the windows add no memory to the blocks
    for freq, spu, tau in ((100, 20_000.0, 0.004), (200, 40_000.0, 0.002)):
        f = sampled(lambda x: np.sin(2 * np.pi * freq * x + 0.3) + 0.2 * np.sin(2 * np.pi * 3.1 * x), (0.0, 1.0), spu=spu)
        tracemalloc.start()
        try:
            five_line_reconstruct(f, SmoothConfig(tau=tau))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, (freq, peak)


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


def test_points_near_the_truth_have_its_kind():
    # a point's kind is read from the vertical diagram; a kind read from the
    # candidate row's steep crossings mislabelled points on each of these seeds
    for seed in (0, 1, 2, 4):
        f, truth = gen_harmonic(seed)
        points = five_line_reconstruct(f).points
        near = [(p.kind, q.kind) for p in points for q in truth if abs(p.x - q.x) <= f.step]
        assert near and all(got is want for got, want in near), seed


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
    rows = detect_triangles(t, s, r, slope, tau)
    assert any(x1 < 0.0 < x2 for _, _, _, x1, x2 in rows)
