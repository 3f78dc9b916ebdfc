import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from persrec.geometry import Angle
from persrec.landscape import (
    DegenerateVertex,
    _polyline_simplify,
    Landscape,
    VertexClass,
    capped_points,
    classify_vertex,
    get_y_values,
    landscapes,
    landscapes_from_pairs,
    reconstruct_from_landscapes,
)
from persrec.persistence import CriticalKind, PLFunction, directional_diagram

from oracles import grid_kmax, level_decode_oracle, simplify_by_scan

VERTICAL = Angle(math.pi / 2)


def fig_samples(n=401):
    f = PLFunction([0.0, 0.5, 2.0, 4.0], [2.5, 4.0, 0.5, 2.5])
    xs = np.linspace(0.0, 4.0, n)
    return xs, f(xs)


# ---------------------------------------------------------------------------
# exact landscapes

def test_landscapes_of_nested_pair():
    l1, l2, l3 = landscapes_from_pairs([(1.0, 5.0), (2.0, 4.0)], 3)
    assert l1.vertices == ((1.0, 0.0), (3.0, 2.0), (5.0, 0.0))
    assert l2.vertices == ((2.0, 0.0), (3.0, 1.0), (4.0, 0.0))
    assert l3.is_zero


def test_landscapes_of_crossing_pair():
    (l1,) = landscapes_from_pairs([(0.0, 6.0), (3.0, 10.0)], 1)
    assert l1.vertices == ((0.0, 0.0), (3.0, 3.0), (4.5, 1.5), (6.5, 3.5), (10.0, 0.0))


def test_landscape_of_single_tent():
    l1, l2 = landscapes_from_pairs([(0.0, 2.0)], 2)
    assert l1.vertices == ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))
    assert l2.is_zero


# rows as the tent matrix gives them: dyadic t steps, some only a few ulps
# wide (a negative step is that many ulps), and slopes in {-1, 0, +1} held
# over runs, clipped at zero so that zero tails and interior zeros occur
row_steps = st.one_of(st.integers(1, 8).map(lambda k: k / 4.0), st.integers(-3, -1))


@st.composite
def landscape_rows(draw):
    t = draw(st.integers(min_value=-40, max_value=40)) / 4.0
    u = draw(st.sampled_from([0.0, 0.0, 0.25, 1.5]))
    ts, us = [t], [u]
    runs = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.lists(row_steps, min_size=1, max_size=4))
    for slope, steps in draw(st.lists(runs, min_size=1, max_size=12)):
        for step in steps:
            if step > 0:
                t += step
            else:
                for _ in range(-step):
                    t = math.nextafter(t, math.inf)
            u = max(0.0, u + slope * (t - ts[-1]))
            ts.append(t)
            us.append(u)
    return np.array(ts), np.array(us)


@settings(max_examples=200, deadline=None)
@given(landscape_rows())
def test_slope_mask_equals_sequential_scan(row):
    ts, us = row
    assert _polyline_simplify(ts, us) == simplify_by_scan(ts, us)


@pytest.mark.parametrize(
    "ts,us,expected",
    [
        ([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0], ()),
        ([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0], [0.0, 0.0, 0.5, 1.0, 0.0, 0.0], ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))),
        (
            [0.0, 1.0, 2.0, 3.0, 4.0],
            [0.0, 1.0, 0.0, 1.0, 0.0],
            ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0), (4.0, 0.0)),
        ),
    ],
    ids=["all-zero", "single-tent", "touching-tents"],
)
def test_slope_mask_fixed_rows(ts, us, expected):
    ts, us = np.array(ts), np.array(us)
    assert _polyline_simplify(ts, us) == expected
    assert simplify_by_scan(ts, us) == expected


def test_repeated_landscapes_leave_traced_memory_flat():
    # a tuple built from an iterator starts at a guessed size and is resized,
    # so once freed it joins another size's free list than the one it came
    # from, and the free lists fill up: about 0.5 kB a call on this diagram
    pairs = [(0.0, 4.0), (1.0, 3.5), (1.5, 6.0), (2.0, 2.5), (3.0, 7.0), (4.5, 5.5), (5.0, 9.0), (6.0, 8.0)]
    for _ in range(50):
        landscapes_from_pairs(pairs, len(pairs))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            landscapes_from_pairs(pairs, len(pairs))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 20_000


def test_landscape_json_round_trip():
    (l1,) = landscapes_from_pairs([(0.0, 6.0), (3.0, 10.0)], 1)
    assert Landscape.from_dict(l1.to_dict()) == l1


def test_capped_essential_defaults_to_max_height():
    d = directional_diagram(PLFunction([0.0, 0.5, 2.0, 4.0], [2.5, 4.0, 0.5, 2.5]), VERTICAL)
    pairs = capped_points(d)
    assert sorted(pairs) == [
        pytest.approx((0.5, 4.0)),
        pytest.approx((2.5, 4.0)),
    ]


def test_monotone_function_has_zero_landscapes():
    d = directional_diagram(PLFunction([0.0, 1.0], [0.0, 1.0]), VERTICAL)
    assert all(l.is_zero for l in landscapes(d, 3))


# ---------------------------------------------------------------------------
# vertex classification and decoding

def test_classify_single_tent_vertices():
    (l1,) = landscapes_from_pairs([(1.0, 5.0)], 1)
    assert classify_vertex(l1, 0) is VertexClass.TAKE_OFF
    assert classify_vertex(l1, 1) is VertexClass.LOCAL_MAX
    assert classify_vertex(l1, 2) is VertexClass.LANDING


def test_classify_crossing_interior_minimum():
    (l1,) = landscapes_from_pairs([(0.0, 6.0), (3.0, 10.0)], 1)
    assert classify_vertex(l1, 2) is VertexClass.LOCAL_MIN


def test_classify_touching_zero_is_minimum():
    (l1,) = landscapes_from_pairs([(0.0, 2.0), (2.0, 4.0)], 1)
    assert l1.vertices == ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0), (4.0, 0.0))
    assert classify_vertex(l1, 2) is VertexClass.LOCAL_MIN


def test_classify_isolated_zero_raises():
    with pytest.raises(DegenerateVertex):
        classify_vertex(Landscape(1, ((0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 0.0))), 0)


def test_get_y_values_single_tent():
    (l1,) = landscapes_from_pairs([(1.0, 5.0)], 1)
    assert get_y_values(l1) == pytest.approx([1.0, 5.0])


def test_get_y_values_crossing():
    (l1,) = landscapes_from_pairs([(0.0, 6.0), (3.0, 10.0)], 1)
    assert get_y_values(l1) == pytest.approx([0.0, 6.0, 3.0, 10.0])


def test_get_y_values_level_two_tent():
    l = Landscape(2, ((2.0, 0.0), (3.0, 1.0), (4.0, 0.0)))
    assert get_y_values(l) == pytest.approx([2.0, 4.0])


def test_get_y_values_rejects_zero_landscape():
    with pytest.raises(ValueError):
        get_y_values(Landscape(1, ()))


def test_death_wins_over_a_half_sum_rounded_onto_it():
    # (0.47 + 4.93) / 2 rounds to 2.6999999999999997, within the vertex
    # dedupe tolerance of the death 2.7; the death must stay the vertex
    l2 = landscapes_from_pairs([(0.0, 4.93), (0.47, 2.7)], 2)[1]
    assert l2.vertices[-1] == (2.7, 0.0)
    assert classify_vertex(l2, len(l2.vertices) - 1) is VertexClass.LANDING
    assert get_y_values(l2) == [0.47, 2.7]


def test_crossing_diagram_decodes_to_value_set_with_duplicates():
    # crossing bars make the overlap tent appear at level 2, so 3 and 6 decode
    # twice across levels while appearing once among births and deaths
    ls = landscapes_from_pairs([(0.0, 6.0), (3.0, 10.0)], 2)
    decoded = sorted(get_y_values(ls[0]) + get_y_values(ls[1]))
    assert decoded == pytest.approx([0.0, 3.0, 3.0, 6.0, 6.0, 10.0])
    assert sorted(set(round(v, 9) for v in decoded)) == [0.0, 3.0, 6.0, 10.0]


# ---------------------------------------------------------------------------
# matching y-values back to sample positions

def test_reconstruct_matches_decoded_values_worked_example():
    # one tent decodes to its birth and death; deaths of 99 match no sample
    xs, ys = fig_samples()

    def decode(birth, death):
        pts = reconstruct_from_landscapes(landscapes_from_pairs([(birth, death)], 1), ys, xs)
        return [(p.x, p.y, p.kind) for p in pts]

    assert decode(4.0, 99.0) == [(pytest.approx(0.5), pytest.approx(4.0), CriticalKind.LOCAL_MAX)]
    assert decode(0.5, 99.0) == [(pytest.approx(2.0), pytest.approx(0.5), CriticalKind.LOCAL_MIN)]
    assert decode(98.0, 99.0) == []


def test_reconstruct_from_all_landscapes_recovers_interior_points():
    f = PLFunction([0.0, 0.5, 2.0, 4.0], [2.5, 4.0, 0.5, 2.5])
    xs, ys = fig_samples()
    d = directional_diagram(f, VERTICAL)
    pts = reconstruct_from_landscapes(landscapes(d, 5), ys, xs)
    got = {(round(p.x, 6), round(p.y, 6)) for p in pts if p.kind is not CriticalKind.ENDPOINT}
    assert {(0.5, 4.0), (2.0, 0.5)} <= got
    extras = got - {(0.5, 4.0), (2.0, 0.5)}
    assert not extras


def test_reconstruct_reports_first_sample_of_a_flat_extremum():
    xs = np.linspace(0.0, 6.0, 7)
    ys = np.array([0.5, 1.0, 3.0, 3.0, 3.0, 1.0, 0.0])
    pts = reconstruct_from_landscapes(landscapes_from_pairs([(0.0, 3.0)], 1), ys, xs)
    assert [(p.x, p.y, p.kind) for p in pts] == [
        (2.0, 3.0, CriticalKind.LOCAL_MAX),
        (6.0, 0.0, CriticalKind.ENDPOINT),
    ]


def test_reconstruct_reports_a_flat_final_run_as_the_right_endpoint():
    xs = np.arange(7.0)
    ys = np.array([0.5, 1.0, 3.0, 3.0, 1.0, 0.0, 0.0])
    pts = reconstruct_from_landscapes(landscapes_from_pairs([(0.0, 3.0)], 1), ys, xs)
    assert [(p.x, p.y, p.kind) for p in pts] == [
        (2.0, 3.0, CriticalKind.LOCAL_MAX),
        (6.0, 0.0, CriticalKind.ENDPOINT),
    ]


def test_reconstruct_from_no_landscapes_is_empty():
    xs, ys = fig_samples()
    assert reconstruct_from_landscapes([], ys, xs) == []


def test_reconstruct_from_first_landscape_only():
    f = PLFunction([0.0, 0.5, 2.0, 4.0], [2.5, 4.0, 0.5, 2.5])
    xs, ys = fig_samples()
    d = directional_diagram(f, VERTICAL)
    pts = reconstruct_from_landscapes(landscapes(d, 1), ys, xs)
    assert any(p.x == pytest.approx(2.0) and p.y == pytest.approx(0.5) for p in pts)


# ---------------------------------------------------------------------------
# properties against brute force

# lattice-valued pairs: duplicates (multiplicity) and exact ties are fair game,
# but no adversarial sub-epsilon separations that would defeat any decoder
finite_pairs = st.lists(
    st.tuples(
        st.integers(min_value=-500, max_value=500),
        st.integers(min_value=5, max_value=600),
    ).map(lambda bd: (bd[0] / 100.0, (bd[0] + bd[1]) / 100.0)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=120, deadline=None)
@given(finite_pairs, st.integers(min_value=1, max_value=7))
def test_exact_landscape_matches_grid_kmax(pairs, k):
    (lk,) = landscapes_from_pairs(pairs, k)[k - 1 :]
    lo = min(b for b, _ in pairs) - 0.5
    hi = max(d for _, d in pairs) + 0.5
    ts = np.linspace(lo, hi, 700)
    assert np.max(np.abs(lk(ts) - grid_kmax(pairs, k, ts))) < 1e-9


@settings(max_examples=80, deadline=None)
@given(finite_pairs)
def test_landscape_levels_are_pointwise_decreasing(pairs):
    ls = landscapes_from_pairs(pairs, len(pairs) + 1)
    lo = min(b for b, _ in pairs)
    hi = max(d for _, d in pairs)
    ts = np.linspace(lo, hi, 300)
    for upper, lower in zip(ls, ls[1:]):
        assert np.all(upper(ts) >= lower(ts) - 1e-12)


@settings(max_examples=100, deadline=None)
@given(finite_pairs)
def test_decoded_values_match_attaining_tent_oracle(pairs):
    ls = landscapes_from_pairs(pairs, len(pairs))
    heights = sorted({v for b, d in pairs for v in (b, d)})
    for lk in ls:
        if lk.is_zero:
            continue
        got = sorted(get_y_values(lk))
        expected = sorted(level_decode_oracle(lk))
        assert got == pytest.approx(expected, abs=1e-9)
        for v in got:
            assert min(abs(v - h) for h in heights) < 1e-9
