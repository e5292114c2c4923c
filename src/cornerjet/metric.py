"""Riemannian admissibility of symmetric 2-tensors over a family of test curves.

The checker evaluates the tensor along each germ of the family.  On a
boundary-touching germ every pointed 1-form evaluates to zero (the curve's
velocity vanishes at the contact point), so definiteness forces the tensor's
value there to be zero as well; positivity is read off the sign of the lowest
nonvanishing witness coefficient.  On interior germs with nonzero velocity the
value must be strictly positive.

The family is finite, so a rejection is a genuine counterexample while an
acceptance is heuristic (soundness is one-sided).  Witness selection is
deterministic: boundary germs by increasing contact order first, then interior
points in listed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .jets import DEFAULT_ORDER
from .plots import BoundaryGerm, InteriorGerm, PlotGerm, make_boundary_plot, make_interior_plot
from .pullback import NotSmoothError, pullback_halfline
from .tensors import HalfLineTensor

__all__ = ["DEFAULT_FAMILY", "MetricWitness", "MetricVerdict", "check_metric"]

POSITIVITY = "positivity"
DEFINITE_ZERO = "definiteness-zero-required"
DEFINITE_NONZERO = "definiteness-nonzero-required"

# The germs a metric is tested against, in witness order: t^(2m) for
# m = 1, 2, 3, then x0 + t for x0 = 1/2, 1, 2.
DEFAULT_FAMILY: tuple[PlotGerm, ...] = (
    *(make_boundary_plot(m, 1) for m in (1, 2, 3)),
    *(make_interior_plot(x0) for x0 in (Fraction(1, 2), Fraction(1), Fraction(2))),
)


@dataclass(frozen=True)
class MetricWitness:
    """A germ on which the metric fails, with the exact offending values."""

    plot: PlotGerm
    value: Fraction
    clause: str
    leading: Fraction | None = None


@dataclass(frozen=True)
class MetricVerdict:
    accepted: bool
    witness: MetricWitness | None = None


def check_metric(g: HalfLineTensor, order: int = DEFAULT_ORDER) -> MetricVerdict:
    """Decide admissibility of g over ``DEFAULT_FAMILY``; any witness is a genuine failure."""
    if g.degree != 2:
        raise ValueError("a metric candidate must be a symmetric 2-tensor")
    if g.pole_order >= 2:
        verdict = pullback_halfline(g, make_boundary_plot(1, 1), order)
        raise NotSmoothError(
            "not a smooth tensor on the half-line: capacity exceeded", verdict=verdict
        )
    for germ in DEFAULT_FAMILY:
        verdict = pullback_halfline(g, germ, order)
        witness = verdict.witness
        value = witness.coefficient(0)
        if isinstance(germ, BoundaryGerm):
            leading = witness.coeffs[0] if not witness.is_zero else Fraction(0)
            if leading < 0:
                return MetricVerdict(
                    False, MetricWitness(germ, value, POSITIVITY, leading=leading)
                )
            # No pointed 1-form survives at the contact point, so the
            # definiteness equivalence forces the value to vanish.
            if value != 0:
                return MetricVerdict(False, MetricWitness(germ, value, DEFINITE_ZERO))
        elif isinstance(germ, InteriorGerm):
            if value < 0:
                return MetricVerdict(False, MetricWitness(germ, value, POSITIVITY))
            if value == 0:
                return MetricVerdict(False, MetricWitness(germ, value, DEFINITE_NONZERO))
    return MetricVerdict(True, None)
