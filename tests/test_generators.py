import math

import numpy as np
import pytest

from persrec.generators import (
    GenerationExhausted,
    NaturalCubicSpline,
    gen_harmonic,
    gen_pl,
    gen_spline,
)
from persrec.geometry import Angle
from persrec.persistence import CriticalKind, interior_critical_points, is_admissible


# ---------------------------------------------------------------------------
# piecewise-linear family

@pytest.mark.parametrize("n", [1, 2, 5, 25, 120])
def test_gen_pl_produces_requested_count(n):
    f, truth = gen_pl(n, seed=42)
    assert len(truth) == n
    assert len(interior_critical_points(f)) == n


def test_gen_pl_truth_is_sorted_and_alternating():
    f, truth = gen_pl(11, seed=3)
    xs = [c.x for c in truth]
    assert xs == sorted(xs)
    for a, b in zip(truth, truth[1:]):
        assert a.kind != b.kind
    got = [(c.x, c.y, c.kind) for c in interior_critical_points(f)]
    assert got == [(c.x, c.y, c.kind) for c in truth]


def test_gen_pl_critical_values_are_distinct():
    _, truth = gen_pl(80, seed=17)
    ys = [c.y for c in truth]
    assert len(set(ys)) == len(ys)


def test_gen_pl_is_deterministic():
    f1, t1 = gen_pl(10, seed=7)
    f2, t2 = gen_pl(10, seed=7)
    assert np.array_equal(f1.xs, f2.xs) and np.array_equal(f1.ys, f2.ys)
    assert t1 == t2


def test_gen_pl_admissible_for_default_directions():
    for seed in range(5):
        f, _ = gen_pl(30, seed=seed)
        assert np.min(np.abs(f.slopes())) > 1.0 / math.tan(math.radians(80.0))
        for deg in (90.0, 85.0, 80.0):
            assert is_admissible(f, Angle.from_degrees(deg))


def test_gen_pl_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gen_pl(0, seed=1)
    with pytest.raises(ValueError):
        gen_pl(5, seed=1, domain=(1.0, 0.0))


# ---------------------------------------------------------------------------
# harmonic family

def test_gen_harmonic_count_in_target_range():
    f, truth = gen_harmonic(seed=1)
    assert 20 <= len(truth) <= 30


def test_gen_harmonic_ground_truth_is_stationary():
    f, truth = gen_harmonic(seed=2)
    for c in truth:
        assert abs(f.derivative(c.x)) < 1e-8
        curv = f.second_derivative(c.x)
        assert (curv < 0) == (c.kind is CriticalKind.LOCAL_MAX)
        assert abs(curv) >= 10.0


def test_gen_harmonic_samples_match_analytic_values():
    f, _ = gen_harmonic(seed=5)
    idx = np.linspace(0, len(f.xs) - 1, 17, dtype=int)
    assert f.ys[idx] == pytest.approx(f.value(f.xs[idx]), abs=1e-12)


def test_gen_harmonic_is_deterministic():
    f1, t1 = gen_harmonic(seed=9)
    f2, t2 = gen_harmonic(seed=9)
    assert np.array_equal(f1.ys, f2.ys)
    assert np.array_equal(f1.omegas, f2.omegas)
    assert t1 == t2


def test_gen_harmonic_exhaustion():
    with pytest.raises(GenerationExhausted):
        gen_harmonic(seed=0, target_range=(1, 1), max_attempts=20)


# ---------------------------------------------------------------------------
# spline family and the native spline

def test_natural_spline_interpolates_and_is_natural():
    rng = np.random.default_rng(0)
    xs = np.linspace(0.0, 1.0, 12)
    ys = rng.uniform(0.0, 1.0, 12)
    s = NaturalCubicSpline(xs, ys)
    assert s(xs) == pytest.approx(ys, abs=1e-12)
    assert s.second_derivative(xs[0]) == pytest.approx(0.0, abs=1e-9)
    assert s.second_derivative(xs[-1]) == pytest.approx(0.0, abs=1e-9)


def test_thomas_solve_matches_dense_solver():
    rng = np.random.default_rng(1)
    xs = np.sort(rng.uniform(0.0, 1.0, 15))
    xs[0], xs[-1] = 0.0, 1.0
    ys = rng.uniform(0.0, 1.0, 15)
    s = NaturalCubicSpline(xs, ys)

    n = len(xs)
    h = np.diff(xs)
    m = n - 2
    a = np.zeros((m, m))
    rhs = np.zeros(m)
    for k in range(m):
        i = k + 1
        if k > 0:
            a[k, k - 1] = h[i - 1]
        a[k, k] = 2.0 * (h[i - 1] + h[i])
        if k < m - 1:
            a[k, k + 1] = h[i]
        rhs[k] = 6.0 * ((ys[i + 1] - ys[i]) / h[i] - (ys[i] - ys[i - 1]) / h[i - 1])
    dense = np.linalg.solve(a, rhs)
    assert s.m2[1:-1] == pytest.approx(dense, abs=1e-9)


def test_spline_derivative_matches_finite_differences():
    f, _ = gen_spline(seed=3)
    s = f.spline
    xs = np.linspace(0.05, 0.95, 11)
    h = 1e-6
    fd = (s(xs + h) - s(xs - h)) / (2 * h)
    assert s.derivative(xs) == pytest.approx(fd, abs=1e-5)


def test_gen_spline_ground_truth_is_stationary():
    f, truth = gen_spline(seed=7)
    assert truth, "a random 30-knot spline should oscillate"
    for c in truth:
        assert abs(f.spline.derivative(c.x)) < 1e-8
        eps = 1e-7
        left = f.spline.derivative(c.x - eps)
        right = f.spline.derivative(c.x + eps)
        if c.kind is CriticalKind.LOCAL_MIN:
            assert left < 0 < right
        else:
            assert left > 0 > right


def test_gen_spline_minimal_knots():
    f, truth = gen_spline(seed=0, knots=4)
    assert len(f.xs) >= 2
    with pytest.raises(ValueError):
        gen_spline(seed=0, knots=3)


def test_gen_spline_is_deterministic():
    f1, t1 = gen_spline(seed=11)
    f2, t2 = gen_spline(seed=11)
    assert np.array_equal(f1.ys, f2.ys)
    assert t1 == t2

