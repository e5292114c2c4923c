"""Normal-form germs of smooth curves into the half-line and the quadrant.

A curve that stays in [0, inf) and touches 0 must do so to even order with a
positive unit factor, so boundary contact is encoded structurally as
t^(2m) * unit(t).  Germs are recentred at t = 0.  Curves that are flat at the
contact point carry no usable jet and are a separate variant.
"""

from __future__ import annotations

from fractions import Fraction

from .jets import Jet1, Record

__all__ = [
    "InteriorGerm",
    "BoundaryGerm",
    "FlatGerm",
    "PlotGerm",
    "PairGerm",
]


class InteriorGerm(Record):
    """Germ based at x0 > 0; ``jet`` is the full curve jet, whose constant term is x0."""

    jet: Jet1

    def __post_init__(self):
        if not isinstance(self.jet, Jet1):
            raise TypeError("interior jet must be a Jet1, not %r" % (self.jet,))
        if self.x0 <= 0:
            raise ValueError("interior base point must be positive")

    @property
    def x0(self) -> Fraction:
        return self.jet.constant_term


class BoundaryGerm(Record):
    """Germ touching 0 as t^(2m) * unit(t) with unit(0) > 0."""

    m: int
    unit: Jet1 = Jet1((1,))

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("plot not certified nonnegative: leading term t^%d" % (2 * self.m))
        if not isinstance(self.unit, Jet1):
            raise TypeError("boundary unit must be a Jet1, not %r" % (self.unit,))
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

    def __post_init__(self):
        for germ in (self.px, self.py):
            if not isinstance(germ, PlotGerm):
                raise TypeError("pair component must be a plot germ, not %r" % (germ,))
