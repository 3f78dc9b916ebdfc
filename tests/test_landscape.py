import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from persrec.generators import gen_spline
from persrec.geometry import Angle
from persrec.landscape import (
    Landscape,
    capped_points,
    get_y_values,
    landscapes,
    landscapes_from_pairs,
    reconstruct_from_landscapes,
)
from persrec.persistence import CriticalKind, PLFunction, directional_diagram, extremal_points
from persrec.reconstruct_smooth import pl_proxy

from oracles import grid_kmax, level_decode_oracle

VERTICAL = Angle(math.pi / 2)


def fig_samples(n=401):
    f = PLFunction([0.0, 0.5, 2.0, 4.0], [2.5, 4.0, 0.5, 2.5])
    xs = np.linspace(0.0, 4.0, n)
    return xs, np.interp(xs, f.xs, f.ys)


# ---------------------------------------------------------------------------
# exact landscapes

@pytest.mark.parametrize(
    "pairs,expected",
    [
        ([(0.0, 2.0)], [((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))]),
        ([(1.0, 5.0), (2.0, 4.0)], [((1.0, 0.0), (3.0, 2.0), (5.0, 0.0)), ((2.0, 0.0), (3.0, 1.0), (4.0, 0.0))]),
        (
            [(0.0, 6.0), (3.0, 10.0)],
            [((0.0, 0.0), (3.0, 3.0), (4.5, 1.5), (6.5, 3.5), (10.0, 0.0)), ((3.0, 0.0), (4.5, 1.5), (6.0, 0.0))],
        ),
        ([(0.0, 2.0), (2.0, 4.0)], [((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0), (4.0, 0.0))]),
        ([(0.0, 2.0), (3.0, 5.0)], [((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.0), (4.0, 1.0), (5.0, 0.0))]),
        ([(0.0, 4.0), (0.0, 2.0)], [((0.0, 0.0), (2.0, 2.0), (4.0, 0.0)), ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))]),
        ([(0.0, 4.0), (2.0, 4.0)], [((0.0, 0.0), (2.0, 2.0), (4.0, 0.0)), ((2.0, 0.0), (3.0, 1.0), (4.0, 0.0))]),
        ([(0.0, 2.0), (0.0, 2.0)], [((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)), ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))]),
        (
            [(0.0, 4.0), (1.0, 5.0), (2.0, 6.0)],
            [
                ((0.0, 0.0), (2.0, 2.0), (2.5, 1.5), (3.0, 2.0), (3.5, 1.5), (4.0, 2.0), (6.0, 0.0)),
                ((1.0, 0.0), (2.5, 1.5), (3.0, 1.0), (3.5, 1.5), (5.0, 0.0)),
                ((2.0, 0.0), (3.0, 1.0), (4.0, 0.0)),
            ],
        ),
    ],
    ids=[
        "single-tent", "nested", "crossing", "touching", "disjoint",
        "equal-births", "equal-deaths", "repeated", "three-chain",
    ],
)
def test_landscape_vertices(pairs, expected):
    ls = landscapes_from_pairs(pairs, len(expected) + 1)
    assert [l.vertices for l in ls] == expected + [()]


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


def test_landscapes_of_a_hundred_pairs_stay_small_in_traced_memory():
    # the output here is about 2 800 vertices; a matrix of every tent
    # at every birth, death and half-sum would be 100 x 10 200 floats (8 MB)
    rng = np.random.default_rng(5)
    births = rng.uniform(0.0, 10.0, 100)
    pairs = list(zip(births.tolist(), (births + rng.uniform(0.1, 5.0, 100)).tolist()))
    tracemalloc.start()
    try:
        landscapes_from_pairs(pairs, len(pairs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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
# decoding

def test_classify_single_tent_vertices():
    # the take-off vertex starts the rising run and gives the birth t - u; the
    # peak starts the falling run and gives the death t + u; landing gives none
    (l1,) = landscapes_from_pairs([(1.0, 5.0)], 1)
    (t0, u0), (t1, u1), _ = l1.vertices
    assert get_y_values(l1) == [t0 - u0, t1 + u1]


def test_classify_crossing_interior_minimum():
    # the interior minimum ends the first tent's falling run and starts the
    # second tent's rising one, whose birth t - u it gives
    (l1,) = landscapes_from_pairs([(0.0, 6.0), (3.0, 10.0)], 1)
    t, u = l1.vertices[2]
    assert l1.vertices[1][1] > u < l1.vertices[3][1]
    assert get_y_values(l1)[2] == t - u == 3.0


def test_get_y_values_single_tent():
    (l1,) = landscapes_from_pairs([(1.0, 5.0)], 1)
    assert get_y_values(l1) == [1.0, 5.0]


def test_get_y_values_crossing():
    (l1,) = landscapes_from_pairs([(0.0, 6.0), (3.0, 10.0)], 1)
    assert get_y_values(l1) == [0.0, 6.0, 3.0, 10.0]


def test_get_y_values_touching_zero_minimum():
    (l1,) = landscapes_from_pairs([(0.0, 2.0), (2.0, 4.0)], 1)
    assert l1.vertices == ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0), (4.0, 0.0))
    assert get_y_values(l1) == [0.0, 2.0, 2.0, 4.0]


def test_get_y_values_untrimmed_zero_tail_like_the_trimmed_level():
    untrimmed = Landscape(1, ((0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 0.0)))
    assert get_y_values(untrimmed) == get_y_values(Landscape(1, untrimmed.vertices[1:])) == [1.0, 3.0]


def test_get_y_values_level_two_tent():
    l = Landscape(2, ((2.0, 0.0), (3.0, 1.0), (4.0, 0.0)))
    assert get_y_values(l) == pytest.approx([2.0, 4.0])


def test_get_y_values_rejects_zero_landscape():
    with pytest.raises(ValueError):
        get_y_values(Landscape(1, ()))


def test_death_wins_over_a_half_sum_rounded_onto_it():
    # (0.47 + 4.93) / 2 rounds to 2.6999999999999997, an ulp below the death
    # 2.7; the death must stay the vertex
    l2 = landscapes_from_pairs([(0.0, 4.93), (0.47, 2.7)], 2)[1]
    assert l2.vertices[-1] == (2.7, 0.0)
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


def test_an_extremum_a_little_off_every_decoded_value_is_not_kept():
    # one tent decodes to 0.5 and 1.0; the maximum 1.004 lies within 0.01 of
    # 1.0, which is far more than rounding
    pts = reconstruct_from_landscapes(landscapes_from_pairs([(0.5, 1.0)], 1), [0.0, 1.0, 0.5, 1.004, 0.0], np.arange(5.0))
    assert [(p.x, p.y) for p in pts] == [(1.0, 1.0), (2.0, 0.5)]


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


def test_decoding_a_two_thousand_sample_walk_stays_small_in_traced_memory():
    # about 1 000 extrema and 14 000 decoded values on 28 nonzero levels:
    # every extremum against every value would hold about 113 MB
    ys = np.cumsum(np.random.default_rng(2000).normal(size=2000))
    xs = np.arange(2000.0)
    d = directional_diagram(PLFunction(xs, ys), VERTICAL)
    levels = [l for l in landscapes(d, len(d.points)) if not l.is_zero]
    tracemalloc.start()
    try:
        pts = reconstruct_from_landscapes(levels, ys, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000
    interior = [p for p in extremal_points(xs, ys) if p.kind is not CriticalKind.ENDPOINT]
    assert set(interior) <= set(pts)


def test_reconstruct_from_no_landscapes_is_empty():
    xs, ys = fig_samples()
    assert reconstruct_from_landscapes([], ys, xs) == []


@pytest.mark.parametrize("seed,knots", [(1991, 57), (62163, 64)])
def test_reconstruct_from_all_landscapes_finds_every_spline_point(seed, knots):
    # half-sums of unrelated pairs fall 1e-8 to 6e-8 from a vertex of these
    # draws, on a sloped piece: no level may keep such a point as a vertex,
    # and no vertex may start a new value of its level
    f, truth = gen_spline(seed, knots=knots, samples_per_unit=2000.0)
    d = directional_diagram(pl_proxy(f), VERTICAL)
    levels = landscapes(d, len(d.points))
    for l in levels:
        us = [u for _, u in l.vertices]
        signs = [(b > a) - (b < a) for a, b in zip(us, us[1:])]
        assert not any(s and s == s_next for s, s_next in zip(signs, signs[1:])), l.level
    pts = reconstruct_from_landscapes(levels, f.ys, f.xs)
    interior = [p for p in pts if p.kind is not CriticalKind.ENDPOINT]
    for c in truth:
        assert any(p.kind is c.kind and abs(p.x - c.x) <= f.step for p in interior), c


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


@settings(max_examples=100, deadline=None)
@given(finite_pairs)
@example([(0.0, 6.0), (3.0, 10.0)])
def test_splitting_a_sloped_piece_leaves_the_decoded_values_unchanged(pairs):
    # the inserted vertex is an ulp off the piece, so its slopes in and out
    # differ by rounding only; it must not read as a new tent
    for lk in landscapes_from_pairs(pairs, len(pairs)):
        if lk.is_zero:
            continue
        expected = get_y_values(lk)
        verts = lk.vertices
        for i, ((t1, u1), (t2, u2)) in enumerate(zip(verts, verts[1:])):
            if u1 == u2:
                continue
            for towards in (-math.inf, math.inf):
                mid = (0.5 * (t1 + t2), math.nextafter(0.5 * (u1 + u2), towards))
                split = Landscape(lk.level, verts[: i + 1] + (mid,) + verts[i + 1 :])
                assert get_y_values(split) == expected
