import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
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
from persrec.persistence import CriticalKind, critical_points, is_admissible


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
        "from persrec.generators import gen_harmonic, gen_pl\n"
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
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("seed", range(30))
def test_gen_harmonic_truth_is_a_sign_change_of_the_derivative_and_brentqs_root(seed):
    f, truth = gen_harmonic(seed)
    xs = np.array([c.x for c in truth])
    signs = [np.sign(f.derivative(x)) for x in (np.nextafter(xs, -np.inf), xs, np.nextafter(xs, np.inf))]
    assert ((signs[0] != signs[1]) | (signs[1] != signs[2])).all()
    # the generator's brackets: sign changes of the derivative on its grid of
    # 200 points per cycle of the dominant term, on the unit domain
    grid = np.linspace(0.0, 1.0, int(200 * f.omegas[0] / (2.0 * np.pi)) + 1)
    vals = f.derivative(grid)
    brackets = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    assert len(brackets) == len(xs)
    roots = [brentq(f.derivative, grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16) for i in brackets]
    assert np.abs(xs - roots).max() <= 1e-15
