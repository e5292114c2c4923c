"""Riemannian admissibility of symmetric 2-tensors over a family of test curves.

The checker evaluates the tensor along each germ of the family.  On a
boundary-touching germ every pointed 1-form evaluates to zero (the curve's
velocity vanishes at the contact point), so definiteness forces the tensor's
value there to be zero as well; positivity is read off the sign of the lowest
nonvanishing witness coefficient.  On interior germs with nonzero velocity the
value must be strictly positive.

The verdict reads two values of each witness: its leading coefficient and its
t^0 coefficient.  A metric candidate has at most a simple pole, so every
witness along the family has valuation >= 0, and its leading term alone holds
both exactly: each germ is pulled back at order 0, whatever ``order`` is.
``order`` (``--order`` on ``check-metric``) sets only the window of the
witness printed when a deeper pole exceeds the capacity.

The family is finite, so a rejection is a genuine counterexample while an
acceptance is heuristic (soundness is one-sided).  Witness selection is
deterministic: boundary germs by increasing contact order first, then interior
points in listed order.
"""

from __future__ import annotations

from fractions import Fraction

from .jets import DEFAULT_ORDER, Jet1, Record
from .plots import BoundaryGerm, InteriorGerm, PlotGerm
from .decompose import _check_capacity
from .pullback import _read_order, pullback_halfline
from .tensors import HalfLineTensor

__all__ = ["DEFAULT_FAMILY", "MetricWitness", "MetricVerdict", "check_metric"]

POSITIVITY = "positivity"
DEFINITE_ZERO = "definiteness-zero-required"
DEFINITE_NONZERO = "definiteness-nonzero-required"

# The germs a metric is tested against, in witness order: t^(2m) for
# m = 1, 2, 3, then x0 + t for x0 = 1/2, 1, 2.
DEFAULT_FAMILY: tuple[PlotGerm, ...] = (
    *(BoundaryGerm(m) for m in (1, 2, 3)),
    *(InteriorGerm(Jet1((x0, 1))) for x0 in (Fraction(1, 2), Fraction(1), Fraction(2))),
)


class MetricWitness(Record):
    """A germ on which the metric fails, with the exact offending values."""

    plot: PlotGerm
    value: Fraction
    clause: str
    leading: Fraction | None = None


class MetricVerdict(Record):
    accepted: bool
    witness: MetricWitness | None = None


def check_metric(g: HalfLineTensor, order: int = DEFAULT_ORDER) -> MetricVerdict:
    """Decide admissibility of g over ``DEFAULT_FAMILY``; any witness is a genuine failure."""
    if g.degree != 2:
        raise ValueError("a metric candidate must be a symmetric 2-tensor")
    _check_capacity(g, _read_order(order))
    for germ in DEFAULT_FAMILY:
        witness = pullback_halfline(g, germ, 0).witness
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
