"""Compact routing on r-visibility graphs of histogram polygons."""

from .engine import (FirewallError, HeaderProtocolError, HopLimitExceeded,
                     RoutingError, Scheme, SchemeBuildError, VerifyReport,
                     run_route, verify_all_pairs)
from .polygon import (Histogram, PolygonError, build_histogram, generate,
                      normalize, parse_polygon, to_text)
from .scheme_double import DoubleScheme, preprocess_double, route_step_double
from .scheme_simple import SimpleScheme, preprocess_simple, route_step_simple
from .visibility import (VisibilityGraph, build_graph, co_visible_fast,
                         compute_landmarks)

__version__ = "0.1.0"

__all__ = [
    "FirewallError", "HeaderProtocolError", "HopLimitExceeded",
    "RoutingError", "Scheme", "SchemeBuildError", "VerifyReport",
    "run_route", "verify_all_pairs",
    "Histogram", "PolygonError", "build_histogram", "generate", "normalize",
    "parse_polygon", "to_text",
    "DoubleScheme", "preprocess_double", "route_step_double",
    "SimpleScheme", "preprocess_simple", "route_step_simple",
    "VisibilityGraph", "build_graph", "co_visible_fast",
    "compute_landmarks",
    "__version__",
]
