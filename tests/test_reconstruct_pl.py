import math

import numpy as np
import pytest

from persrec.generators import gen_pl
from persrec.geometry import Angle, Point2
from persrec.persistence import critical_heights, directional_diagram, is_admissible
from persrec.reconstruct_pl import (
    OpCounter,
    TripleConfig,
    count_comparisons,
    naive_reconstruct,
    rolling_ball_reconstruct,
)


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
    assert_points_match(naive_reconstruct(t, s, r, cfg), expected)
    assert_points_match(rolling_ball_reconstruct(t, s, r, cfg), expected)


def test_single_segment_yields_boundary_points_only():
    from persrec.persistence import PLFunction

    f = PLFunction([0.0, 1.0], [0.0, 1.0])
    cfg = default_cfg(f)
    t, s, r = heights_for(f, cfg)
    assert_points_match(naive_reconstruct(t, s, r, cfg), [(0.0, 0.0), (1.0, 1.0)])
    assert_points_match(rolling_ball_reconstruct(t, s, r, cfg), [(0.0, 0.0), (1.0, 1.0)])


def test_empty_s_family_returns_boundaries():
    cfg = TripleConfig.default(Point2(0.0, 0.5), Point2(1.0, 0.25))
    for algorithm in (naive_reconstruct, rolling_ball_reconstruct):
        assert_points_match(algorithm([0.1, 0.2], [], [0.3], cfg), [(0.0, 0.5), (1.0, 0.25)])


def test_out_of_window_coincidence_is_discarded():
    # three lines concurrent at x=5.0, far beyond the declared domain [0, 1]
    cfg = TripleConfig.default(Point2(0.0, 0.0), Point2(1.0, 1.0))
    px, py = 5.0, 0.3
    t = [px * math.cos(cfg.theta0.theta) + py * math.sin(cfg.theta0.theta)]
    s = [px * math.cos(cfg.theta1.theta) + py * math.sin(cfg.theta1.theta)]
    r = [px * math.cos(cfg.theta2.theta) + py * math.sin(cfg.theta2.theta)]
    assert_points_match(naive_reconstruct(t, s, r, cfg), [(0.0, 0.0), (1.0, 1.0)])
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
def test_naive_equals_rolling_ball(n, seed):
    f, _ = gen_pl(n, seed=seed)
    cfg = default_cfg(f)
    t, s, r = heights_for(f, cfg)
    a = naive_reconstruct(t, s, r, cfg)
    b = rolling_ball_reconstruct(t, s, r, cfg)
    assert_points_match(a, [(p.x, p.y) for p in b], tol=1e-6)


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


def test_naive_count_is_product_of_family_sizes():
    f, _ = gen_pl(8, seed=2)
    cfg = default_cfg(f)
    t, s, r = heights_for(f, cfg)
    assert count_comparisons(naive_reconstruct, t, s, r, cfg) == len(t) * len(s) * len(r)


def test_counter_ticks():
    c = OpCounter()
    c.tick()
    c.tick(3)
    assert c.count == 4
