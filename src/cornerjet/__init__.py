"""cornerjet: exact calculus for covariant tensors with axial poles.

Tensors on the half-line [0, inf) and the quadrant [0, inf)^2 are tested for
smoothness by pulling them back along germs of nonnegative curves, decomposed
into singular and regular parts, checked for Riemannian admissibility, and
bounded by the pole-order capacity of their degree.  All of it runs on exact
rational jet arithmetic; a small floating-point module independently probes
the analytic inequality that makes boundary contact tame simple poles.
"""

from .capacity import CapacityReport, capacity, capacity_table, verify_capacity
from .decompose import (
    ComponentParity,
    ParityReport,
    QuadrantDecomposition,
    check_gamma_parity,
    decompose_halfline,
    decompose_quadrant,
)
from .jets import (
    DEFAULT_ORDER,
    Jet1,
    LaurentJet,
    LaurentJet2,
    TruncationError,
    differentiate,
    laurent_divide,
    parity_masses,
    whitney_descend,
)
from .metric import MetricVerdict, MetricWitness, TestPlotFamily, check_metric
from .numeric import (
    GlaeserLandauReport,
    PullbackProbeReport,
    SampledFunction,
    glaeser_landau_check,
    numeric_pullback_probe,
)
from .parser import (
    ParseError,
    format_halfline_tensor,
    format_plot,
    format_quadrant_tensor,
    parse_plot,
    parse_polynomial,
    parse_rational,
    parse_tensor,
)
from .plots import (
    BoundaryGerm,
    FlatGerm,
    InteriorGerm,
    PairGerm,
    PlotGerm,
    SqMap2,
    make_boundary_plot,
    make_interior_plot,
)
from .pullback import (
    NotSmoothError,
    SmoothnessVerdict,
    SquarePullback,
    Status,
    pullback_halfline,
    pullback_quadrant_path,
    pullback_sq2,
)
from .tensors import (
    MIN_VALUATION,
    Decomposition,
    DecompositionTrace,
    HalfLineTensor,
    QuadrantTensor,
    make_halfline_tensor,
    make_quadrant_tensor,
    tau_sing,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # jets
    "DEFAULT_ORDER", "TruncationError", "Jet1", "LaurentJet", "LaurentJet2",
    "differentiate", "laurent_divide", "whitney_descend", "parity_masses",
    # plots
    "InteriorGerm", "BoundaryGerm", "FlatGerm", "PlotGerm", "PairGerm", "SqMap2",
    "make_boundary_plot", "make_interior_plot",
    # tensors
    "MIN_VALUATION", "HalfLineTensor", "QuadrantTensor", "Decomposition",
    "DecompositionTrace", "tau_sing", "make_halfline_tensor", "make_quadrant_tensor",
    # pullback
    "Status", "SmoothnessVerdict", "NotSmoothError", "SquarePullback",
    "pullback_halfline", "pullback_sq2", "pullback_quadrant_path",
    # decompose
    "ComponentParity", "ParityReport", "QuadrantDecomposition",
    "decompose_halfline", "decompose_quadrant", "check_gamma_parity",
    # metric
    "TestPlotFamily", "MetricWitness", "MetricVerdict", "check_metric",
    # capacity
    "CapacityReport", "capacity", "verify_capacity", "capacity_table",
    # numeric
    "SampledFunction", "GlaeserLandauReport", "PullbackProbeReport",
    "glaeser_landau_check", "numeric_pullback_probe",
    # parser
    "ParseError", "parse_tensor", "parse_plot", "parse_polynomial", "parse_rational",
    "format_halfline_tensor", "format_quadrant_tensor", "format_plot",
]
