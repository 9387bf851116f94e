"""Weighted centers, invariants and principalization over Q.

The package computes, with exact rational arithmetic, the canonical
weighted center of an ideal in a polynomial ring at a marked point, the
lexicographic invariant attached to it, the charts of the associated
weighted blowup, and iterated blowup trees that principalize the ideal
or resolve a hypersurface at the studied rational points.
"""

from .arith import (
    INF,
    ParseError,
    Polynomial,
    VariableMismatchError,
    format_polynomial,
    parse_polynomial,
)
from .blowup import (
    Chart,
    InexactDivisionError,
    all_charts,
    canonical_blowup,
    strict_transform_hypersurface,
    weighted_transform,
)
from .canonical import (
    CanonicalResult,
    InadmissibleCenterError,
    canonical_center,
)
from .center import (
    FrameEntry,
    TriangularizationError,
    WeightedCenter,
    center_equal,
    format_rational,
    graph_normalize,
)
from .contact import find_maximal_contact, restrict_to_contact
from .driver import (
    BlowupTree,
    DescentError,
    Node,
    embedded_resolve,
    principalize,
)
from .ideals import (
    IdealOrderError,
    LocalIdeal,
    autoreduce,
    derivative_ideal,
    derivative_tower,
    divide_remainder,
)
from .kernel import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"

__all__ = [
    "INF",
    "ParseError",
    "Polynomial",
    "VariableMismatchError",
    "format_polynomial",
    "parse_polynomial",
    "Chart",
    "InexactDivisionError",
    "all_charts",
    "canonical_blowup",
    "strict_transform_hypersurface",
    "weighted_transform",
    "CanonicalResult",
    "InadmissibleCenterError",
    "canonical_center",
    "FrameEntry",
    "TriangularizationError",
    "WeightedCenter",
    "center_equal",
    "format_rational",
    "graph_normalize",
    "find_maximal_contact",
    "restrict_to_contact",
    "BlowupTree",
    "DescentError",
    "Node",
    "embedded_resolve",
    "principalize",
    "IdealOrderError",
    "LocalIdeal",
    "autoreduce",
    "derivative_ideal",
    "derivative_tower",
    "divide_remainder",
    "KERNEL_BACKEND",
    "__version__",
]
