import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from persrec.geometry import Angle, ParallelLines, Point2, angle_for_slope, intersect, slope_of

angles = st.floats(min_value=0.01, max_value=math.pi - 0.01)
heights = st.floats(min_value=-100.0, max_value=100.0)


def test_intersect_horizontal_meets_diagonal():
    x, y = intersect(Angle(math.pi / 2), 1.0, Angle(math.pi / 4), 0.0)
    assert x == pytest.approx(-1.0, abs=1e-12)
    assert y == pytest.approx(1.0, abs=1e-12)


def test_intersect_through_origin():
    x, y = intersect(Angle(2 * math.pi / 3), 0.0, Angle(math.pi / 3), 0.0)
    assert x == pytest.approx(0.0, abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)


def test_intersect_parallel_raises():
    with pytest.raises(ParallelLines):
        intersect(Angle(math.pi / 2), 1.0, Angle(math.pi / 2), 2.0)
    with pytest.raises(ParallelLines):
        intersect(Angle(math.pi / 2), np.array([1.0, 3.0]), Angle(math.pi / 2), np.array([2.0]))


@given(angles, angles, st.lists(heights, min_size=1, max_size=8), st.lists(heights, max_size=8))
def test_intersect_broadcast_equals_scalar_calls(t0_angle, t1_angle, rows, cols):
    if abs(math.sin(t0_angle - t1_angle)) < 1e-6:
        return
    a0, a1 = Angle(t0_angle), Angle(t1_angle)
    xs, ys = intersect(a0, np.array(cols), a1, np.array(rows)[:, None])
    assert xs.shape == ys.shape == (len(rows), len(cols))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            assert (xs[i, j], ys[i, j]) == intersect(a0, c, a1, r)


def test_slope_of_vertical_direction_is_exact_zero():
    assert slope_of(Angle(math.pi / 2)) == 0.0


def test_slope_of_known_angles():
    assert slope_of(Angle(math.pi / 4)) == pytest.approx(-1.0)
    assert slope_of(Angle(math.pi / 3)) == pytest.approx(-1.0 / math.tan(math.pi / 3))


@pytest.mark.parametrize("theta", [0.0, math.pi, -0.3, 3.5])
def test_angle_rejects_out_of_range(theta):
    with pytest.raises(ValueError):
        Angle(theta)


def test_angle_degree_round_trip():
    assert Angle.from_degrees(85.0).degrees == pytest.approx(85.0)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point2(float("nan"), 0.0)


@given(angles, heights, angles, heights)
def test_intersection_lies_on_both_lines(t0_angle, t0, t1_angle, t1):
    a0, a1 = Angle(t0_angle), Angle(t1_angle)
    if abs(math.sin(t0_angle - t1_angle)) < 1e-6:
        return
    x, y = intersect(a0, t0, a1, t1)
    assert abs(x * math.cos(t0_angle) + y * math.sin(t0_angle) - t0) < 1e-9 * max(1.0, abs(x), abs(y))
    assert abs(x * math.cos(t1_angle) + y * math.sin(t1_angle) - t1) < 1e-9 * max(1.0, abs(x), abs(y))


@given(angles, heights, angles, heights)
def test_intersection_is_symmetric(t0_angle, t0, t1_angle, t1):
    if abs(math.sin(t0_angle - t1_angle)) < 1e-6:
        return
    px, py = intersect(Angle(t0_angle), t0, Angle(t1_angle), t1)
    qx, qy = intersect(Angle(t1_angle), t1, Angle(t0_angle), t0)
    assert abs(px - qx) < 1e-12 * max(1.0, abs(px))
    assert abs(py - qy) < 1e-12 * max(1.0, abs(py))


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_angle_for_slope_round_trip(s):
    assert slope_of(angle_for_slope(s)) == pytest.approx(s, abs=1e-9, rel=1e-9)
