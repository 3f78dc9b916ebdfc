"""The benchmark's workloads: the panel of inputs one round holds, the
timed operation on one input, and the check of its output.

Every input is made by `persrec.generators` from a seed fixed in its panel;
a round holds the whole panel in an order drawn from the run seed, and a run
repeats whole rounds. Whether an input trips one of the program's faults
depends on its draw, at a rate that grows with its size (see README.md), so
drawing inputs from the run seed would make the failed share differ between
runs. With a fixed panel the failed share is that of the panel in every run.
"""

from __future__ import annotations

import math

import numpy as np

import persrec
from persrec.geometry import Angle, Point2
from persrec.reconstruct_pl import count_comparisons, rolling_ball_reconstruct

import checks

VERTICAL = Angle(math.pi / 2)


class Panel:
    """A workload over a fixed tuple of generator specs."""

    PANEL: tuple = ()
    errors: tuple[type[BaseException], ...] = ()

    def warmup_spec(self):
        return self.PANEL[0]

    def round(self, seed: int, rnd: int) -> list:
        order = np.random.default_rng([seed, rnd]).permutation(len(self.PANEL))
        return [self.PANEL[i] for i in order]

    def layer_counts(self, inp, out) -> dict[str, int]:
        return {}


class PLTriple(Panel):
    """`gen_pl` functions: three quarters small, one quarter large.

    Specs are (interior critical points, generator seed). Small functions
    (8-64 points) spend their time in per-call work of `persistence`, large
    ones (200-400) in the quadratic sweep of `reconstruct_pl`.
    """

    name = "pl-triple"
    SMALL = tuple((8 + 56 * i // 47, i) for i in range(48))  # 8..64 points, seeds 0..47
    LARGE = tuple((200 + 200 * i // 15, 100 + i) for i in range(16))  # 200..400 points, seeds 100..115
    PANEL = SMALL + LARGE
    TRUTH_TOL = 1e-9  # true triple points coincide to ~5e-15; match_tol is 1e-6

    def make(self, spec):
        n, s = spec
        f, truth = persrec.gen_pl(n, seed=s)
        start = Point2(float(f.xs[0]), float(f.ys[0]))
        end = Point2(float(f.xs[-1]), float(f.ys[-1]))
        return f, truth, persrec.TripleConfig.default(start, end)

    def operate(self, api, inp):
        f, _, cfg = inp
        diagrams = [api.directional_diagram(f, a) for a in (cfg.theta0, cfg.theta1, cfg.theta2)]
        heights = [api.critical_heights(d) for d in diagrams]
        return diagrams, heights, api.rolling_ball_reconstruct(*heights, cfg)

    def check(self, inp, out) -> dict[str, int]:
        f, truth, cfg = inp
        diagrams, _, points = out
        for d in diagrams:
            if d.essential.birth != checks.min_projection(f.xs, f.ys, d.direction.theta):
                raise checks.CheckFailed(f"essential birth of the {d.direction.degrees} degree diagram")
        if cfg.start not in points or cfg.end not in points:
            raise checks.CheckFailed("start or end point missing from the reconstruction")
        interior = [p for p in points if p not in (cfg.start, cfg.end)]
        m = checks.match_points(interior, truth, self.TRUTH_TOL, y_tol=self.TRUTH_TOL)
        return {"reconstruct_pl.missed_points": m.missed, "reconstruct_pl.spurious_points": m.spurious}

    def layer_counts(self, inp, out) -> dict[str, int]:
        _, heights, _ = out
        return {"reconstruct_pl.comparisons": count_comparisons(rolling_ball_reconstruct, *heights, inp[2])}


class SmoothFiveLine(Panel):
    """`gen_harmonic` signals (specs are generator seeds) at the default
    10 000 samples per unit, each with 20-30 critical points."""

    name = "smooth-five-line"
    errors = (persrec.DegenerateEstimator,)
    PANEL = tuple(range(100))

    def make(self, spec):
        return persrec.gen_harmonic(spec)

    def operate(self, api, inp):
        return api.five_line_reconstruct(inp[0])

    def check(self, inp, out) -> dict[str, int]:
        f, truth = inp
        if isinstance(out, persrec.DegenerateEstimator):
            return {"reconstruct_smooth.raised": 1}
        m = checks.match_points(out.points, truth, f.step)
        return {
            "reconstruct_smooth.missed_points": m.missed,
            "reconstruct_smooth.mislabelled_points": m.mislabelled,
            "reconstruct_smooth.spurious_points": m.spurious,
        }


class LandscapeDecode(Panel):
    """Natural splines, specs (knots, generator seed), sampled at 2 000 per
    unit. The vertical diagram of their PL proxy is turned into all its
    landscapes and decoded back to critical points."""

    name = "landscape-decode"
    PANEL = tuple((56 + i % 9, i) for i in range(30))
    SAMPLES_PER_UNIT = 2000.0

    def make(self, spec):
        knots, s = spec
        return persrec.gen_spline(s, knots=knots, samples_per_unit=self.SAMPLES_PER_UNIT)

    def operate(self, api, inp):
        f, _ = inp
        d = api.directional_diagram(api.pl_proxy(f), VERTICAL)
        levels = api.landscapes(d, len(d.points))
        return d, levels, api.reconstruct_from_landscapes(levels, f.ys, f.xs)

    def check(self, inp, out) -> dict[str, int]:
        f, truth = inp
        d, levels, points = out
        faults = checks.landscape_faults(levels, checks.capped_pairs(d.points))
        if faults:
            raise checks.CheckFailed("; ".join(faults))
        ends = (float(f.xs[0]), float(f.xs[-1]))
        interior = [p for p in points if p.kind is not persrec.CriticalKind.ENDPOINT]
        stray_ends = sum(p.x not in ends for p in points if p.kind is persrec.CriticalKind.ENDPOINT)
        m = checks.match_points(interior, truth, f.step)
        # a point of the wrong kind, or an endpoint off the boundary, is no true point
        return {
            "landscape.missed_points": m.missed,
            "landscape.spurious_points": m.spurious + m.mislabelled + stray_ends,
        }


WORKLOADS = {w.name: w for w in (PLTriple(), SmoothFiveLine(), LandscapeDecode())}
