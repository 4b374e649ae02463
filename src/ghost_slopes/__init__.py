"""Exact ghost-series combinatorics: slopes, thresholds, and statistics.

The root holds the names that the README and the tests import, each in
``__all__``; every other public name is imported from its own module.
"""

from .errors import DomainError, VerificationError
from .ghost import GhostContext, WeightPoint, dimensions
from .polygon import dual_graph, lower_hull, newton_polygon_at
from .prediction import build_model, exceptional_bound, predict_slopes
from .slopes import (
    breakpoints_by_criterion,
    certified_newton_polygon,
    derivative_polygon,
    is_near_steinberg,
    k_newslopes,
    k_thresholds,
    sweep_threshold,
)
from .valuation import INF, Valuation

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "VerificationError",
    "GhostContext",
    "WeightPoint",
    "dimensions",
    "dual_graph",
    "lower_hull",
    "newton_polygon_at",
    "build_model",
    "exceptional_bound",
    "predict_slopes",
    "breakpoints_by_criterion",
    "certified_newton_polygon",
    "derivative_polygon",
    "is_near_steinberg",
    "k_newslopes",
    "k_thresholds",
    "sweep_threshold",
    "INF",
    "Valuation",
    "__version__",
]
