import math
import tracemalloc

import numpy as np
import pytest

from persrec.generators import gen_pl
from persrec.geometry import Angle, Point2
from persrec.persistence import critical_heights, directional_diagram, is_admissible
from persrec.reconstruct_pl import (
    TripleConfig,
    count_comparisons,
    rolling_ball_reconstruct,
)

from oracles import rolling_ball_by_scan


def heights_for(f, cfg):
    return (
        critical_heights(directional_diagram(f, cfg.theta0)),
        critical_heights(directional_diagram(f, cfg.theta1)),
        critical_heights(directional_diagram(f, cfg.theta2)),
    )


def default_cfg(f, match_tol=1e-6):
    return TripleConfig.default(
        Point2(float(f.xs[0]), float(f.ys[0])),
        Point2(float(f.xs[-1]), float(f.ys[-1])),
        match_tol,
    )


def assert_points_match(points, expected, tol=1e-9):
    assert len(points) == len(expected)
    for p, (x, y) in zip(points, expected):
        assert p.x == pytest.approx(x, abs=tol)
        assert p.y == pytest.approx(y, abs=tol)


def expected_for(f, truth):
    return (
        [(float(f.xs[0]), float(f.ys[0]))]
        + [(c.x, c.y) for c in truth]
        + [(float(f.xs[-1]), float(f.ys[-1]))]
    )


# 1e-300 squares to 0, so it would match no pair
@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6, 1e-300])
def test_config_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    p = Point2(0.0, 0.0)
    with pytest.raises(ValueError, match="match_tol"):
        TripleConfig.default(p, p, match_tol=tol)


def test_config_rejects_unordered_angles():
    p = Point2(0.0, 0.0)
    with pytest.raises(ValueError):
        TripleConfig(Angle.from_degrees(80.0), Angle.from_degrees(85.0), Angle.from_degrees(90.0), p, p)
    with pytest.raises(ValueError):
        TripleConfig(Angle.from_degrees(95.0), Angle.from_degrees(85.0), Angle.from_degrees(80.0), p, p)


def test_worked_example_round_trip():
    from persrec.persistence import PLFunction

    f = PLFunction([0.0, 0.5, 2.0, 4.0], [2.5, 4.0, 0.5, 2.5])
    cfg = default_cfg(f)
    t, s, r = heights_for(f, cfg)
    expected = [(0.0, 2.5), (0.5, 4.0), (2.0, 0.5), (4.0, 2.5)]
    assert_points_match(rolling_ball_reconstruct(t, s, r, cfg), expected)


def test_single_segment_yields_boundary_points_only():
    from persrec.persistence import PLFunction

    f = PLFunction([0.0, 1.0], [0.0, 1.0])
    cfg = default_cfg(f)
    t, s, r = heights_for(f, cfg)
    assert_points_match(rolling_ball_reconstruct(t, s, r, cfg), [(0.0, 0.0), (1.0, 1.0)])


def test_empty_s_family_returns_boundaries():
    cfg = TripleConfig.default(Point2(0.0, 0.5), Point2(1.0, 0.25))
    assert_points_match(rolling_ball_reconstruct([0.1, 0.2], [], [0.3], cfg), [(0.0, 0.5), (1.0, 0.25)])


def test_out_of_window_coincidence_is_discarded():
    # three lines concurrent at x=5.0, far beyond the declared domain [0, 1]
    cfg = TripleConfig.default(Point2(0.0, 0.0), Point2(1.0, 1.0))
    px, py = 5.0, 0.3
    t = [px * math.cos(cfg.theta0.theta) + py * math.sin(cfg.theta0.theta)]
    s = [px * math.cos(cfg.theta1.theta) + py * math.sin(cfg.theta1.theta)]
    r = [px * math.cos(cfg.theta2.theta) + py * math.sin(cfg.theta2.theta)]
    assert_points_match(rolling_ball_reconstruct(t, s, r, cfg), [(0.0, 0.0), (1.0, 1.0)])


def test_seeded_round_trip_n25():
    f, truth = gen_pl(25, seed=42)
    cfg = default_cfg(f)
    for v in (cfg.theta0, cfg.theta1, cfg.theta2):
        assert is_admissible(f, v)
    t, s, r = heights_for(f, cfg)
    pts = rolling_ball_reconstruct(t, s, r, cfg)
    assert_points_match(pts, expected_for(f, truth), tol=1e-6)


@pytest.mark.parametrize("n,seed", [(2, 0), (7, 3), (20, 11), (50, 5)])
def test_rolling_ball_finds_the_generator_truth(n, seed):
    f, truth = gen_pl(n, seed=seed)
    cfg = default_cfg(f)
    pts = rolling_ball_reconstruct(*heights_for(f, cfg), cfg)
    assert_points_match(pts, expected_for(f, truth), tol=1e-6)


def test_outputs_strictly_increasing_in_x():
    f, _ = gen_pl(30, seed=9)
    cfg = default_cfg(f)
    pts = rolling_ball_reconstruct(*heights_for(f, cfg), cfg)
    xs = [p.x for p in pts]
    assert xs == sorted(xs)
    assert all(b - a > 0 for a, b in zip(xs, xs[1:]))
    assert (pts[0].x, pts[0].y) == (cfg.start.x, cfg.start.y)
    assert (pts[-1].x, pts[-1].y) == (cfg.end.x, cfg.end.y)


def test_comparison_count_within_bound_small():
    f, _ = gen_pl(5, seed=1)
    cfg = default_cfg(f)
    t, s, r = heights_for(f, cfg)
    n = 5
    count = count_comparisons(rolling_ball_reconstruct, t, s, r, cfg)
    assert count <= 2 * n * math.log2(n) + 2 * n * n + 10 * n


def test_comparison_count_monotone_case_is_sort_only():
    from persrec.persistence import PLFunction

    f = PLFunction([0.0, 1.0], [0.0, 1.0])
    cfg = default_cfg(f)
    t, s, r = heights_for(f, cfg)
    count = count_comparisons(rolling_ball_reconstruct, t, s, r, cfg)
    assert count <= 3  # singleton families: no sort comparisons, one sweep step


def test_rolling_count_grows_quadratically():
    counts = {}
    for n in (50, 100):
        f, _ = gen_pl(n, seed=21)
        cfg = default_cfg(f)
        counts[n] = count_comparisons(rolling_ball_reconstruct, *heights_for(f, cfg), cfg)
    assert 3.0 <= counts[100] / counts[50] <= 5.0


def test_count_comparisons_counts_the_rolling_ball_search_only():
    cfg = TripleConfig.default(Point2(0.0, 0.5), Point2(1.0, 0.25))
    with pytest.raises(ValueError, match="rolling_ball_reconstruct"):
        count_comparisons(lambda t, s, r, cfg: [], [0.1], [0.2], [0.3], cfg)


def lines_through(cfg, points):
    """Heights of the T-, S- and R-lines through each (x, y) of `points`."""
    return tuple(
        [x * math.cos(a.theta) + y * math.sin(a.theta) for x, y in points]
        for a in (cfg.theta0, cfg.theta1, cfg.theta2)
    )


def assert_equals_scan(t, s, r, cfg):
    """Points and comparison count of the array sweep equal the scalar sweep's
    exactly; returns the scan's count."""
    expected, count = rolling_ball_by_scan(t, s, r, cfg)
    assert [(p.x, p.y) for p in rolling_ball_reconstruct(t, s, r, cfg)] == expected
    assert count_comparisons(rolling_ball_reconstruct, t, s, r, cfg) == count
    return count


# the pl-triple benchmark panel, (interior points, seed), and seeded draws
PANEL = [(8 + 56 * i // 47, i) for i in range(48)] + [(200 + 200 * i // 15, 100 + i) for i in range(16)]
_draws = np.random.default_rng(20261019)
DRAWS = [(int(n), int(seed)) for n, seed in zip(_draws.integers(1, 49, 1000), _draws.integers(0, 10**6, 1000))]


def test_rolling_ball_equals_the_scalar_sweep_on_the_panel_and_seeded_draws():
    for n, seed in PANEL + DRAWS:
        f, _ = gen_pl(n, seed=seed)
        heights = heights_for(f, default_cfg(f))
        for tol in (1e-6, 1e-9):
            assert_equals_scan(*heights, default_cfg(f, tol))


@pytest.mark.parametrize(
    "t,s,r",
    [([], [0.2], [0.3]), ([0.1], [], [0.3]), ([0.1], [0.2], []), ([], [], []), ([0.1], [0.2], [0.3])],
    ids=["no-T", "no-S", "no-R", "none", "singletons"],
)
def test_empty_and_singleton_families_equal_the_scalar_sweep(t, s, r):
    assert_equals_scan(t, s, r, TripleConfig.default(Point2(0.0, 0.5), Point2(1.0, 0.25)))


def test_an_exact_tie_discards_the_t_crossing():
    # along the S-line s = 0: T-crossings at -11.4 and -0.0, R-crossings at
    # 0.0 and 11.4; the tie lies left of the window [0.5, 1], so it is no
    # match, and discarding T_1 at the tie ends the merge after two steps,
    # one fewer than discarding R_0 would take
    cfg = TripleConfig.default(Point2(0.5, 0.5), Point2(1.0, 0.25))
    sorts = 2  # one comparison to sort each pair
    assert assert_equals_scan([0.0, 1.0], [0.0], [0.0, 1.0], cfg) == sorts + 2


def test_an_out_of_window_coincidence_goes_through_the_tie_rule():
    # T_0, S and R_0 meet at the origin, left of the window [1, 2]; the tie
    # there discards T_0, so the T-lines run out after one step and R_1
    # meets nothing
    cfg = TripleConfig.default(Point2(1.0, 0.0), Point2(2.0, 0.0))
    sorts = 1
    assert assert_equals_scan([0.0], [0.0], [0.0, 1.0], cfg) == sorts + 1
    # the same tie at the last R-crossing: discarding T_0 there, then R_0
    # against T_1 far right, runs the R-lines out after two steps
    assert assert_equals_scan([0.0, -1.0], [0.0], [0.0], cfg) == sorts + 2


def on_s_line(cfg, s, x):
    return x, (s - x * math.cos(cfg.theta1.theta)) / math.sin(cfg.theta1.theta)


def test_an_out_of_window_coincidence_before_an_in_window_one_on_one_s_line():
    cfg = TripleConfig.default(Point2(0.0, 0.0), Point2(1.0, 1.0))
    inside, outside = on_s_line(cfg, 0.3, 0.5), on_s_line(cfg, 0.3, -5.0)
    t, (s_line, _), r = lines_through(cfg, [outside, inside])
    # one sort comparison each for T and R; R_0 meets T_0 outside the window,
    # then R_1 passes T_0 and stops at T_1
    assert assert_equals_scan(t, [s_line], r, cfg) == 2 + 3
    points = rolling_ball_reconstruct(t, [s_line], r, cfg)
    assert_points_match(points, [(0.0, 0.0), inside, (1.0, 1.0)])


def test_the_first_of_several_close_t_crossings_is_the_one_met():
    # three T-lines cross the S-line 6e-7, 4e-7 and 2e-7 left of where the
    # R-line does, all within match_tol: the merge meets the leftmost first
    cfg = TripleConfig.default(Point2(0.0, 0.0), Point2(1.0, 1.0))
    t, _, _ = lines_through(cfg, [on_s_line(cfg, 0.3, 0.5 - d) for d in (6e-7, 4e-7, 2e-7)])
    _, s, r = lines_through(cfg, [on_s_line(cfg, 0.3, 0.5)])
    sorts = 2  # T arrives sorted: one comparison per neighbour pair
    assert assert_equals_scan(t, s, r, cfg) == sorts + 1


# crowded coincidences: heights on a quarter grid put several crossings within
# match_tol of each other on one S-line, and lines through quarter-grid points
# put several exact triple points on one line
_crowd = np.random.default_rng(20261020)
CROWDED = [tuple((_crowd.integers(-8, 9, _crowd.integers(0, 12)) / 4).tolist() for _ in range(3)) for _ in range(2000)]
_grid = np.random.default_rng(20261021)
GRID = [list(zip((_grid.integers(-8, 9, k) / 4).tolist(), (_grid.integers(-4, 5, k) / 4).tolist()))
        for k in _grid.integers(0, 12, 500)]


@pytest.mark.parametrize("tol", [1e-6, 1e-2, 0.3])
def test_rolling_ball_equals_the_scalar_sweep_on_crowded_coincidences(tol):
    cfg = TripleConfig.default(Point2(-2.0, 0.0), Point2(2.0, 0.5), tol)
    for t, s, r in CROWDED:
        assert_equals_scan(t, s, r, cfg)
    for points in GRID:
        assert_equals_scan(*lines_through(cfg, points), cfg)


def test_numpy_heights_count_as_lists_do():
    cfg = TripleConfig.default(Point2(0.0, 0.5), Point2(1.0, 0.25))
    t, s, r = [0.1, 0.2], [0.3], [0.2, 0.4]
    as_lists = count_comparisons(rolling_ball_reconstruct, t, s, r, cfg)
    assert count_comparisons(rolling_ball_reconstruct, np.array(t), np.array(s), np.array(r), cfg) == as_lists == 5


def test_rolling_ball_on_four_hundred_points_stays_small_in_traced_memory():
    # the sweep and the count work on blocks of S-lines; one pass over every
    # S-line at once would hold a few 400 x 400 arrays, about 13 MB for the
    # search and 4 MB for the count
    f, _ = gen_pl(400, seed=115)
    cfg = default_cfg(f)
    heights = heights_for(f, cfg)
    for run in (rolling_ball_reconstruct, lambda *args: count_comparisons(rolling_ball_reconstruct, *args)):
        tracemalloc.start()
        try:
            run(*heights, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
