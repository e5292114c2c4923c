"""cornerjet: exact calculus for covariant tensors with axial poles.

Tensors on the half-line [0, inf) and the quadrant [0, inf)^2 are tested for
smoothness by pulling them back along germs of nonnegative curves, decomposed
into singular and regular parts, checked for Riemannian admissibility, and
bounded by the pole-order capacity of their degree.  All of it runs on exact
rational jet arithmetic; a small floating-point module independently probes
the analytic inequality that makes boundary contact tame simple poles.

The package exports the names below; everything else is imported from its own
module (``cornerjet.jets``, ``cornerjet.parser``, ``cornerjet.pullback``, ...).
"""

from .capacity import capacity, verify_capacity
from .decompose import NotSmoothError, check_gamma_parity, decompose_halfline, decompose_quadrant
from .jets import LaurentJet
from .metric import check_metric
from .numeric import SampledFunction, glaeser_landau_check
from .parser import format_quadrant_tensor, parse_plot, parse_tensor
from .plots import BoundaryGerm, PairGerm
from .pullback import pullback_halfline, pullback_quadrant_path, pullback_sq2
from .tensors import HalfLineTensor, tau_sing

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "tau_sing", "HalfLineTensor", "BoundaryGerm", "LaurentJet",
    "pullback_halfline", "pullback_quadrant_path", "pullback_sq2", "PairGerm",
    "decompose_halfline", "decompose_quadrant", "check_gamma_parity",
    "check_metric", "capacity", "verify_capacity",
    "SampledFunction", "glaeser_landau_check",
    "parse_tensor", "parse_plot", "format_quadrant_tensor", "NotSmoothError",
]
