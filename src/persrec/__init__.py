"""Reconstruction of single-variable functions from directional sublevel-set
persistence diagrams: diagram computation, persistence landscapes, triple-point
and five-line reconstruction, and seeded generators."""

from .geometry import Angle, ParallelLines, Point2, angle_for_slope, intersect, slope_of
from .persistence import (
    CriticalKind,
    CriticalPoint,
    Diagram,
    PersistencePoint,
    PLFunction,
    critical_heights,
    critical_points,
    directional_diagram,
    interior_critical_points,
    is_admissible,
)
from .landscape import (
    Landscape,
    get_y_values,
    landscapes,
    landscapes_from_pairs,
    reconstruct_from_landscapes,
)
from .reconstruct_pl import (
    TripleConfig,
    count_comparisons,
    naive_reconstruct,
    rolling_ball_reconstruct,
)
from .reconstruct_smooth import (
    DegenerateEstimator,
    SampledFunction,
    SmoothConfig,
    SmoothReconstruction,
    five_line_reconstruct,
)
from .generators import (
    GenerationExhausted,
    NaturalCubicSpline,
    gen_harmonic,
    gen_pl,
    gen_spline,
)

__version__ = "0.1.0"
