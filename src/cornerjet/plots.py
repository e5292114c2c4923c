"""Normal-form germs of smooth curves into the half-line and the quadrant.

A curve that stays in [0, inf) and touches 0 must do so to even order with a
positive unit factor, so boundary contact is encoded structurally as
t^(2m) * unit(t).  Germs are recentred at t = 0.  Curves that are flat at the
contact point carry no usable jet and are a separate variant.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .jets import Jet1, Rational, Record, as_fraction

__all__ = [
    "InteriorGerm",
    "BoundaryGerm",
    "FlatGerm",
    "PlotGerm",
    "PairGerm",
    "make_boundary_plot",
    "make_interior_plot",
]


class InteriorGerm(Record):
    """Germ based at x0 > 0; ``jet`` is the full curve jet (constant term x0)."""

    x0: Fraction
    jet: Jet1

    def __post_init__(self):
        if self.x0 <= 0:
            raise ValueError("interior base point must be positive")
        if self.jet.constant_term != self.x0:
            raise ValueError("interior jet constant term must equal the base point")


class BoundaryGerm(Record):
    """Germ touching 0 as t^(2m) * unit(t) with unit(0) > 0."""

    m: int
    unit: Jet1

    def __post_init__(self):
        if index(self.m) < 1:
            raise ValueError("plot not certified nonnegative: leading term t^%d" % (2 * self.m))
        if self.unit.constant_term <= 0:
            raise ValueError("plot not certified nonnegative: unit constant term must be positive")

    @property
    def contact_degree(self) -> int:
        return 2 * self.m


class FlatGerm(Record):
    """All derivatives vanish at the contact point; no finite jet exists."""


PlotGerm = InteriorGerm | BoundaryGerm | FlatGerm


class PairGerm(Record):
    """Component-pair germ (px(t), py(t)) into the quadrant."""

    px: PlotGerm
    py: PlotGerm


def make_boundary_plot(m: int, unit: Jet1 | Rational) -> BoundaryGerm:
    """Build the germ t^(2m) * unit(t); rejects data that cannot stay nonnegative."""
    if not isinstance(unit, Jet1):
        unit = Jet1((unit,))
    return BoundaryGerm(m, unit)


def make_interior_plot(x0: Rational, jet: Jet1 | None = None) -> InteriorGerm:
    """Interior germ at x0 > 0; default curve jet is x0 + t."""
    base = as_fraction(x0)
    if jet is None:
        jet = Jet1((base, Fraction(1)))
    return InteriorGerm(base, jet)
