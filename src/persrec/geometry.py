"""Planar primitives: direction angles, points, and pairwise line intersection.

A line is parametrized by a direction angle theta in (0, pi) and a height t:
it is the point set {(x, y) : x*cos(theta) + y*sin(theta) = t}, i.e. the line
orthogonal to the unit vector e^{i*theta} whose signed offset from the origin
is t. For theta != pi/2 its slope is -1/tan(theta); for theta = pi/2 it is the
horizontal line y = t.

`intersect` is the closed form for the crossing of two such lines, and the
only one in the package: the rolling-ball sweep in `reconstruct_pl` calls it.
Its heights broadcast as numpy arrays, so one call meets a block of lines
with a whole family of parallel ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Two lines are considered parallel when |sin(theta0 - theta1)| falls below
# this; strict enough that directions a few degrees apart never trigger it.
PARALLEL_TOL = 1e-12


class ParallelLines(ValueError):
    """Raised when intersecting two lines with (numerically) equal direction."""


@dataclass(frozen=True)
class Angle:
    """Direction angle in radians, restricted to the open upper hemisphere (0, pi)."""

    theta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.theta < math.pi):
            raise ValueError(f"angle must lie in (0, pi), got {self.theta!r}")

    @classmethod
    def from_degrees(cls, deg: float) -> "Angle":
        return cls(math.radians(deg))

    @property
    def degrees(self) -> float:
        return math.degrees(self.theta)


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x!r}, {self.y!r})")


def slope_of(angle: Angle) -> float:
    """Slope of lines orthogonal to the given direction: -1/tan(theta).

    Returns exact 0.0 for theta = pi/2 (horizontal lines), avoiding the
    rounding noise of -1/tan(pi/2).
    """
    if angle.theta == math.pi / 2:
        return 0.0
    return -1.0 / math.tan(angle.theta)


def angle_for_slope(slope: float) -> Angle:
    """Direction whose orthogonal lines have the given slope.

    slope 0 maps to the vertical direction pi/2; positive slopes to angles
    above pi/2, negative below, so the result always lies in (0, pi).
    """
    return Angle(math.pi / 2 + math.atan(slope))


def intersect(a0: Angle, t0, a1: Angle, t1):
    """Intersection (x, y) of the lines (a0, t0) and (a1, t1).

    Closed form: with s = sin(theta0 - theta1),
        x = (t1*sin(theta0) - t0*sin(theta1)) / s
        y = (t0*cos(theta1) - t1*cos(theta0)) / s

    The heights may be numpy arrays; they broadcast against each other, and
    every element is the same float that a scalar call returns.

    Raises ParallelLines when |s| < PARALLEL_TOL; same-direction critical
    lines never meet, so hitting this signals caller misuse.
    """
    s = math.sin(a0.theta - a1.theta)
    if abs(s) < PARALLEL_TOL:
        raise ParallelLines(
            f"directions {a0.theta!r} and {a1.theta!r} are parallel within {PARALLEL_TOL}"
        )
    x = (t1 * math.sin(a0.theta) - t0 * math.sin(a1.theta)) / s
    y = (t0 * math.cos(a1.theta) - t1 * math.cos(a0.theta)) / s
    return x, y
