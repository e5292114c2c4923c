"""Covariant tensor fields on the half-line and the quadrant, with axial poles.

A half-line tensor of degree k is coeff(x) * dx^k with a Laurent-jet
coefficient; a quadrant tensor maps each basis element (p, q) of
``QUADRANT_BASIS`` to its coefficient, and every per-component rule reads that key.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .jets import Jet1, LaurentJet, LaurentJet2, Record, format_terms

__all__ = [
    "MIN_VALUATION",
    "QUADRANT_BASIS",
    "basis_name",
    "capacity",
    "pole_bound",
    "HalfLineTensor",
    "QuadrantTensor",
    "Decomposition",
    "DecompositionTrace",
    "tau_sing",
]

# The deepest pole, in x and in y, that a parsed tensor coefficient may have;
# only the parser enforces it, and the value types take any valuation.
MIN_VALUATION = -4

# The quadrant's degree-2 basis dx^p dy^q as (p, q): the keys of a QuadrantTensor
# in this order, that of its a, b, c.  A coefficient is the entry of each of the
# comb(p + q, p) slot orders of its element, so the tensor is
# a dx (x) dx + b dy (x) dy + c (dx (x) dy + dy (x) dx): along a curve the
# cross term counts twice, 2 c px' py'.  The square-map pullback keeps the
# convention: its du dv coefficient 4 u v c(u^2, v^2) is again one entry.
QUADRANT_BASIS = ((2, 0), (0, 2), (1, 1))


def basis_name(basis: tuple[int, int], symbols: tuple[str, str]) -> str:
    """The basis element (p, q) written in two differentials: dx^2, or du*dv."""
    return format_terms([(1, zip(symbols, basis))])


def pole_bound(basis: tuple[int, ...]) -> tuple[int, ...]:
    """The deepest pole per variable of a smooth dx^p dy^q coefficient: floor(p/2), floor(q/2)."""
    return tuple(e // 2 for e in basis)


def capacity(k: int) -> int:
    """Singular capacity: the deepest pole a covariant k-tensor supports, floor(k/2)."""
    if index(k) < 0:
        raise ValueError("tensor degree must be nonnegative")
    return pole_bound((k,))[0]


class HalfLineTensor(Record):
    """coeff(x) * dx^degree on [0, inf)."""

    degree: int
    coeff: LaurentJet

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("tensor degree must be nonnegative")
        if not isinstance(self.coeff, LaurentJet):
            raise TypeError("half-line coefficient must be a LaurentJet, not %r" % (self.coeff,))

    @property
    def pole_order(self) -> int:
        return self.coeff.pole_order


def tau_sing() -> HalfLineTensor:
    """The canonical singular symmetric 2-tensor dx (x) dx / x."""
    return HalfLineTensor(2, LaurentJet(-1, (1,)))


class QuadrantTensor(Record):
    """The sum of components[(p, q)] dx^p dy^q, keyed by ``QUADRANT_BASIS`` in its order."""

    components: dict[tuple[int, int], LaurentJet2]

    def __post_init__(self):
        if tuple(self.components) != QUADRANT_BASIS:
            raise ValueError("quadrant tensor components must be keyed %s in that order, not %s"
                             % (QUADRANT_BASIS, tuple(self.components)))
        for basis, jet in self.components.items():
            if not isinstance(jet, LaurentJet2):
                raise TypeError("component %s must be a LaurentJet2, not %r" % (basis, jet))

    # The degree-2 names: a dx^2 + b dy^2 + c dx dy.
    a = property(lambda self: self.components[2, 0])
    b = property(lambda self: self.components[0, 2])
    c = property(lambda self: self.components[1, 1])


class DecompositionTrace(Record):
    """Intermediate jets of the constructive split: g(t) = 4 t^2 f(t^2), h with g = h(t^2)."""

    g: Jet1
    h: Jet1


class Decomposition(Record):
    """Result of splitting coeff(x) dx^2 into c/x * dx^2 plus a pole-free part."""

    c: Fraction
    regular: Jet1
    trace: DecompositionTrace

    def reconstruct(self) -> HalfLineTensor:
        return HalfLineTensor(2, LaurentJet(-1, (self.c, *self.regular.coeffs)))
