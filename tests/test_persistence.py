import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from persrec.geometry import Angle
from persrec.persistence import (
    CriticalKind,
    Diagram,
    PersistencePoint,
    PLFunction,
    critical_heights,
    critical_points,
    directional_diagram,
    extremal_indices,
    extremal_points,
    is_admissible,
)

from oracles import brute_force_diagram, extrema_by_scan, kinds_by_scan

VERTICAL = Angle(math.pi / 2)
FIG_VERTICES = ([0.0, 0.5, 2.0, 4.0], [2.5, 4.0, 0.5, 2.5])


def fig_function():
    return PLFunction(*FIG_VERTICES)


def as_pairs(d: Diagram):
    return sorted(
        ((p.birth, p.death) for p in d.points),
        key=lambda p: (p[0], math.inf if p[1] is None else p[1]),
    )


# ---------------------------------------------------------------------------
# invariants of the function type

def test_plfunction_rejects_unsorted_x():
    with pytest.raises(ValueError):
        PLFunction([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])


def test_plfunction_rejects_horizontal_segment():
    with pytest.raises(ValueError):
        PLFunction([0.0, 1.0, 2.0], [1.0, 1.0, 2.0])


def test_plfunction_rejects_single_vertex():
    with pytest.raises(ValueError):
        PLFunction([0.0], [1.0])


def test_plfunction_json_round_trip():
    f = fig_function()
    g = PLFunction.from_dict(f.to_dict())
    assert np.array_equal(f.xs, g.xs) and np.array_equal(f.ys, g.ys)


# ---------------------------------------------------------------------------
# critical points

def test_critical_points_monotone_segment():
    pts = critical_points(PLFunction([0.0, 1.0], [0.0, 1.0]))
    assert [(p.x, p.y, p.kind) for p in pts] == [
        (0.0, 0.0, CriticalKind.ENDPOINT),
        (1.0, 1.0, CriticalKind.ENDPOINT),
    ]


def test_critical_points_worked_example():
    pts = critical_points(fig_function())
    assert [(p.x, p.y, p.kind) for p in pts] == [
        (0.0, 2.5, CriticalKind.ENDPOINT),
        (0.5, 4.0, CriticalKind.LOCAL_MAX),
        (2.0, 0.5, CriticalKind.LOCAL_MIN),
        (4.0, 2.5, CriticalKind.ENDPOINT),
    ]


def test_critical_points_collinear_interior_vertex_excluded():
    pts = critical_points(PLFunction([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]))
    assert [p.kind for p in pts] == [CriticalKind.ENDPOINT, CriticalKind.ENDPOINT]


# ---------------------------------------------------------------------------
# diagrams

def test_vertical_diagram_worked_example():
    d = directional_diagram(fig_function(), VERTICAL)
    pairs = as_pairs(d)
    assert len(pairs) == 2
    assert pairs[0][0] == pytest.approx(0.5) and pairs[0][1] is None
    assert pairs[1][0] == pytest.approx(2.5) and pairs[1][1] == pytest.approx(4.0)
    assert critical_heights(d) == pytest.approx([0.5, 2.5, 4.0])


def test_vertical_diagram_single_segment():
    d = directional_diagram(PLFunction([0.0, 1.0], [0.0, 1.0]), VERTICAL)
    pairs = as_pairs(d)
    assert len(pairs) == 1 and pairs[0][1] is None
    assert pairs[0][0] == pytest.approx(0.0, abs=1e-15)
    assert critical_heights(d) == pytest.approx([0.0], abs=1e-15)


def test_vertical_diagram_w_shape():
    f = PLFunction([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 0.0, 0.8, 0.2, 1.0])
    d = directional_diagram(f, VERTICAL)
    pairs = as_pairs(d)
    assert len(pairs) == 2
    assert pairs[0][0] == pytest.approx(0.0, abs=1e-15) and pairs[0][1] is None
    assert pairs[1][0] == pytest.approx(0.2) and pairs[1][1] == pytest.approx(0.8)
    assert critical_heights(d) == pytest.approx([0.0, 0.2, 0.8], abs=1e-15)


def test_diagram_with_equally_deep_valleys_and_peaks():
    # three equal valleys through two equal peaks: two finite classes with
    # (near-)identical coordinates, resolved deterministically
    f = PLFunction([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 3.0, 0.0, 3.0, 0.0])
    d = directional_diagram(f, VERTICAL)
    pairs = as_pairs(d)
    assert len(pairs) == 3
    assert pairs[0][1] is None
    for b, dd in pairs:
        assert b == pytest.approx(0.0, abs=1e-12)
        if dd is not None:
            assert dd == pytest.approx(3.0, abs=1e-12)


def test_diagram_requires_exactly_one_essential():
    with pytest.raises(ValueError):
        Diagram(VERTICAL, (PersistencePoint(0.0, 1.0),))
    with pytest.raises(ValueError):
        Diagram(VERTICAL, (PersistencePoint(0.0, None), PersistencePoint(1.0, None)))


def test_diagram_json_round_trip_keeps_infinite_death():
    d = directional_diagram(fig_function(), Angle.from_degrees(85.0))
    data = d.to_dict()
    assert data["direction_deg"] == pytest.approx(85.0)
    assert sum(p["death"] == "inf" for p in data["points"]) == 1
    d2 = Diagram.from_dict(data)
    assert as_pairs(d2) == as_pairs(d)


# ---------------------------------------------------------------------------
# slopes and admissibility

def test_admissibility_of_worked_example():
    f = fig_function()
    assert is_admissible(f, Angle.from_degrees(60.0))
    assert not is_admissible(f, Angle(math.atan(0.1)))
    assert is_admissible(f, VERTICAL)


@pytest.mark.parametrize(
    "h,expected",
    [
        ([0.0, 1.0, 1.0, 1.0, 0.0], [0, 1, 4]),  # a plateau counts once, by its first index
        ([2.0, 2.0, 2.0], [0]),
        ([2.0, 2.0], [0]),
        ([2.0], [0]),
        ([], []),
        ([0.0, 1.0, 3.0, 3.5], [0, 3]),
    ],
    ids=["plateau", "constant", "two-equal", "single", "empty", "monotone"],
)
def test_extremal_indices(h, expected):
    assert extremal_indices(np.array(h)).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=30))
def test_extremal_indices_match_scan_oracle(values):
    h = np.array(values, dtype=float)
    assert extremal_indices(h).tolist() == extrema_by_scan(values)
    got = extremal_points(np.arange(len(values)), h)
    assert [(p.x, p.y, p.kind.value) for p in got] == [(i, values[i], k) for i, k in kinds_by_scan(values)]


# ---------------------------------------------------------------------------
# property tests against the brute-force oracle

@st.composite
def pl_functions(draw, max_vertices=12):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    x0 = draw(st.floats(min_value=-3.0, max_value=3.0))
    gaps = draw(st.lists(st.floats(min_value=0.05, max_value=1.5), min_size=n - 1, max_size=n - 1))
    y0 = draw(st.floats(min_value=-3.0, max_value=3.0))
    dys = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=3.0).flatmap(
                lambda v: st.sampled_from([v, -v])
            ),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    xs = np.concatenate([[x0], x0 + np.cumsum(gaps)])
    ys = np.concatenate([[y0], y0 + np.cumsum(dys)])
    return PLFunction(xs, ys)


directions = st.floats(min_value=0.05, max_value=math.pi - 0.05)


@settings(max_examples=150, deadline=None)
@given(pl_functions(), directions)
def test_diagram_matches_brute_force_oracle(f, theta):
    got = as_pairs(directional_diagram(f, Angle(theta)))
    expected = brute_force_diagram(f, theta)
    assert len(got) == len(expected)
    for (b1, d1), (b2, d2) in zip(got, expected):
        assert b1 == pytest.approx(b2, abs=1e-12)
        if d2 is None:
            assert d1 is None
        else:
            assert d1 == pytest.approx(d2, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(pl_functions(), st.floats(min_value=-5.0, max_value=5.0))
def test_vertical_shift_moves_all_heights(f, c):
    shifted = PLFunction(f.xs, f.ys + c)
    h0 = critical_heights(directional_diagram(f, VERTICAL))
    h1 = critical_heights(directional_diagram(shifted, VERTICAL))
    assert len(h0) == len(h1)
    for a, b in zip(h0, h1):
        assert b == pytest.approx(a + c, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(pl_functions(), st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05))
def test_steep_enough_directions_are_admissible(f, theta):
    if math.tan(theta) > 1.0 / np.min(np.abs(f.slopes())):
        assert is_admissible(f, Angle(theta))


@settings(max_examples=60, deadline=None)
@given(pl_functions())
def test_vertical_births_are_minima_and_deaths_are_maxima(f):
    d = directional_diagram(f, VERTICAL)
    births = sorted(p.birth for p in d.points)
    minima = [c.y for c in critical_points(f) if c.kind is CriticalKind.LOCAL_MIN]
    for x, y, left_dy in ((f.xs[0], f.ys[0], f.ys[1] - f.ys[0]), (f.xs[-1], f.ys[-1], f.ys[-2] - f.ys[-1])):
        if left_dy > 0:
            minima.append(float(y))
    assert births == pytest.approx(sorted(minima))
    maxima = {round(c.y, 9) for c in critical_points(f) if c.kind is CriticalKind.LOCAL_MAX}
    for p in d.points:
        if p.death is not None:
            assert round(p.death, 9) in maxima
    assert sum(p.death is not None for p in d.points) + 1 == len(births)
