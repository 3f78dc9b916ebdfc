import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.optimize import brentq

import persrec
from persrec.generators import (
    GenerationExhausted,
    NaturalCubicSpline,
    gen_harmonic,
    gen_pl,
    gen_spline,
)
from persrec.geometry import Angle
from persrec.persistence import CriticalKind, CriticalPoint, critical_points, is_admissible


# ---------------------------------------------------------------------------
# piecewise-linear family

@pytest.mark.parametrize("n", [1, 2, 5, 25, 120])
def test_gen_pl_produces_requested_count(n):
    f, truth = gen_pl(n, seed=42)
    assert len(truth) == n
    assert len(critical_points(f)[1:-1]) == n


def test_gen_pl_truth_is_sorted_and_alternating():
    f, truth = gen_pl(11, seed=3)
    xs = [c.x for c in truth]
    assert xs == sorted(xs)
    for a, b in zip(truth, truth[1:]):
        assert a.kind != b.kind
    got = [(c.x, c.y, c.kind) for c in critical_points(f)[1:-1]]
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


@pytest.mark.parametrize(
    "domain", [(0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)], ids=["infinite-end", "nan-start", "infinite-width"]
)
@pytest.mark.parametrize("gen", [gen_pl, gen_harmonic, gen_spline], ids=["pl", "harmonic", "spline"])
def test_generators_refuse_a_domain_of_no_finite_width_before_any_draw(gen, domain):
    # a domain that fails the domain rule is named as such, and no draw is
    # made: gen_harmonic once warned on every one of its rejected draws
    args = (5, 1) if gen is gen_pl else (1,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="domain"):
            gen(*args, domain=domain)


# ---------------------------------------------------------------------------
# harmonic family

def test_gen_harmonic_count_in_target_range():
    f, truth = gen_harmonic(seed=1)
    assert 20 <= len(truth) <= 30


def test_gen_harmonic_ground_truth_is_stationary():
    f, truth = gen_harmonic(seed=2)
    for c in truth:
        assert abs(f.exact.derivative(c.x)) < 1e-8
        curv = f.exact.second_derivative(c.x)
        assert (curv < 0) == (c.kind is CriticalKind.LOCAL_MAX)
        assert abs(curv) >= 10.0


def test_gen_harmonic_samples_match_analytic_values():
    f, _ = gen_harmonic(seed=5)
    idx = np.linspace(0, len(f.xs) - 1, 17, dtype=int)
    assert f.ys[idx] == pytest.approx(f.exact(f.xs[idx]), abs=1e-12)


def test_gen_harmonic_is_deterministic():
    f1, t1 = gen_harmonic(seed=9)
    f2, t2 = gen_harmonic(seed=9)
    assert np.array_equal(f1.ys, f2.ys)
    assert np.array_equal(f1.exact.omegas, f2.exact.omegas)
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


@pytest.mark.parametrize(
    "xs, ys", [([0.0, 1.0, 2.0, 3.0], [0.0, math.nan, 1.0, 0.0]), ([0.0, 1.0, 2.0, math.inf], [0.0, 1.0, 1.0, 0.0])],
    ids=["nan-value", "infinite-knot"],
)
def test_natural_spline_rejects_a_point_that_is_not_finite(xs, ys):
    with pytest.raises(ValueError, match="finite"):
        NaturalCubicSpline(xs, ys)


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
    s = f.exact
    xs = np.linspace(0.05, 0.95, 11)
    h = 1e-6
    fd = (s(xs + h) - s(xs - h)) / (2 * h)
    assert s.derivative(xs) == pytest.approx(fd, abs=1e-5)


def test_gen_spline_ground_truth_is_stationary():
    f, truth = gen_spline(seed=7)
    assert truth, "a random 30-knot spline should oscillate"
    for c in truth:
        assert abs(f.exact.derivative(c.x)) < 1e-8
        eps = 1e-7
        left = f.exact.derivative(c.x - eps)
        right = f.exact.derivative(c.x + eps)
        if c.kind is CriticalKind.LOCAL_MIN:
            assert left < 0 < right
        else:
            assert left > 0 > right


# perfbench's landscape-decode panel, then seeded draws with 4-63 knots
@pytest.mark.parametrize("seed, knots", [(s, 56 + s % 9) for s in range(30)] + [(s, 4 + s) for s in range(60)])
def test_gen_spline_truth_is_every_root_of_the_segment_quadratics_and_brentqs_root(seed, knots):
    f, truth = gen_spline(seed, knots=knots, samples_per_unit=2000.0)
    s = f.exact
    assert truth and np.all(np.diff([c.x for c in truth]) > 0)
    # each segment's cubic in u = x - x_i, built from its knot values and
    # second derivatives; the real roots of its derivative by np.roots, each
    # a minimum where the cubic's second derivative is positive
    u = Polynomial([0.0, 1.0])
    found = []
    for i, h in enumerate(s.h):
        v = h - u
        cubic = (s.m2[i] * v**3 + s.m2[i + 1] * u**3) / (6 * h) + (s.ys[i] / h - s.m2[i] * h / 6) * v \
            + (s.ys[i + 1] / h - s.m2[i + 1] * h / 6) * u
        slope = cubic.deriv()
        found += [(s.xs[i] + r.real, slope.deriv()(r.real) > 0) for r in np.roots(slope.coef[::-1])
                  if r.imag == 0 and 0 <= r.real < h]
    found = sorted(p for p in found if 0.0 < p[0] < 1.0)
    xs = np.array([c.x for c in truth])
    assert [c.kind is CriticalKind.LOCAL_MIN for c in truth] == [rising for _, rising in found]
    assert np.abs(xs - [x for x, _ in found]).max() <= 1e-15
    # brentq between the midpoints of consecutive truth points
    ends = np.concatenate(([0.0], (xs[:-1] + xs[1:]) / 2, [1.0]))
    roots = [brentq(s.derivative, lo, hi, xtol=1e-15, rtol=8.9e-16) for lo, hi in zip(ends[:-1], ends[1:])]
    assert np.abs(xs - roots).max() <= 1e-15


def test_a_derivative_root_on_a_knot_is_one_extremum():
    # s'(1) is exactly 0.0: the root is the shared end of two brackets
    s = NaturalCubicSpline([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])
    assert s.derivative(1.0) == 0.0
    assert s.critical_points() == [CriticalPoint(1.0, 0.0, CriticalKind.LOCAL_MIN)]


def test_a_sign_flip_on_one_float_is_no_extremum():
    # s' is negative at x = 1 alone: both brackets that share that end bisect
    # to it, and s' has one sign on both sides of it
    s = NaturalCubicSpline([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])
    s.derivative = lambda x: np.where(x == 1.0, -1e-300, 1.0)
    assert s.critical_points() == []


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


def test_gen_spline_warns_of_a_critical_pair_closer_than_one_sample_step():
    # this pair is 0.49 steps apart at 2 000 samples per unit
    with pytest.warns(UserWarning, match=r"0\.49 sample steps apart; samples_per_unit=\d+ ") as record:
        gen_spline(258811, knots=46, samples_per_unit=2000.0)
    named = float(re.search(r"samples_per_unit=(\d+)", str(record[0].message)).group(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, truth = gen_spline(258811, knots=46, samples_per_unit=named)
    assert np.diff([c.x for c in truth]).min() >= f.step


def test_gen_spline_is_quiet_on_the_landscape_benchmark_panel():
    # perfbench's landscape-decode inputs; the closest pair there, at
    # (61, 23), is 1.67 steps apart
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(30):
            gen_spline(seed, knots=56 + seed % 9, samples_per_unit=2000.0)


def test_the_package_runs_without_scipy():
    # scipy is a test-only oracle: with every scipy import made to fail, the
    # package imports, generates all three families and reconstructs, and
    # loads no scipy module
    env = dict(os.environ, PYTHONPATH=str(Path(persrec.__file__).parents[1]))
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import persrec\n"
        "from persrec.generators import gen_harmonic, gen_pl, gen_spline\n"
        "from persrec.reconstruct_smooth import five_line_reconstruct\n"
        "f, _ = gen_harmonic(1)\n"
        "five_line_reconstruct(f)\n"
        "gen_spline(1)\n"
        "gen_pl(5, 1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' and sys.modules[m] is not None))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_no_operation_path_loads_numpy_ma():
    # a plain np.unique imports numpy.ma on its first call (about 9 ms on
    # numpy 2.4), which would land in the first operation of a path; seed 31
    # has enough births for np.isin to take its np.unique branch
    env = dict(os.environ, PYTHONPATH=str(Path(persrec.__file__).parents[1]))
    code = (
        "import sys\n"
        "from persrec.generators import gen_harmonic, gen_pl, gen_spline\n"
        "from persrec.geometry import Angle, Point2\n"
        "from persrec.landscape import landscapes, reconstruct_from_landscapes\n"
        "from persrec.persistence import critical_heights, directional_diagram\n"
        "from persrec.reconstruct_pl import TripleConfig, rolling_ball_reconstruct\n"
        "from persrec.reconstruct_smooth import five_line_reconstruct\n"
        "f, _ = gen_pl(6, 1)\n"
        "ds = [directional_diagram(f, Angle.from_degrees(deg)) for deg in (90, 85, 80)]\n"
        "ends = Point2(f.xs[0], f.ys[0]), Point2(f.xs[-1], f.ys[-1])\n"
        "rolling_ball_reconstruct(*map(critical_heights, ds), TripleConfig(*(d.direction for d in ds), *ends))\n"
        "reconstruct_from_landscapes(landscapes(ds[0], 10), f.ys, f.xs)\n"
        "five_line_reconstruct(gen_harmonic(31)[0])\n"
        "gen_spline(1)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("seed", range(30))
def test_gen_harmonic_truth_is_a_sign_change_of_the_derivative_and_brentqs_root(seed):
    f, truth = gen_harmonic(seed)
    xs = np.array([c.x for c in truth])
    signs = [np.sign(f.exact.derivative(x)) for x in (np.nextafter(xs, -np.inf), xs, np.nextafter(xs, np.inf))]
    assert ((signs[0] != signs[1]) | (signs[1] != signs[2])).all()
    # the generator's brackets: sign changes of the derivative on its grid of
    # 200 points per cycle of the dominant term, on the unit domain
    grid = np.linspace(0.0, 1.0, int(200 * f.exact.omegas[0] / (2.0 * np.pi)) + 1)
    vals = f.exact.derivative(grid)
    brackets = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    assert len(brackets) == len(xs)
    roots = [brentq(f.exact.derivative, grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16) for i in brackets]
    assert np.abs(xs - roots).max() <= 1e-15
