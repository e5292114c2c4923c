"""Constructive singular/regular decomposition on the half-line and the quadrant.

The half-line algorithm follows the constructive route end to end, and its
trace is part of the output: pull the tensor back through the square map to
g(t) = 4 t^2 f(t^2), descend the even jet to h with g = h(t^2), then split off
the constant term.  Shortcutting to a valuation split would give the same
answer; the test suite keeps that shortcut as an independent oracle precisely
so the two routes can be compared.

On the quadrant the square map (u, v) -> (u^2, v^2) and its parity report
decide: the sign-change symmetries of the corner make the dx^2 and dy^2
coefficients pull back even-even and the cross term odd-odd, a pole in the
cross term is structurally impossible for a smooth tensor, and an axial pole
deeper than one does not pull back smooth.  Once the report accepts, the split
is read off the components themselves: descending the pullback inverts the
square map exactly, so it would only give them back.  The test suite keeps
that descent as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .jets import Jet1, LaurentJet, LaurentJet2, Record, parity_masses, whitney_descend
from .pullback import NotSmoothError, _capacity_exceeded, pullback_sq2
from .tensors import (
    Decomposition,
    DecompositionTrace,
    HalfLineTensor,
    QuadrantTensor,
)

__all__ = [
    "ComponentParity",
    "ParityReport",
    "QuadrantDecomposition",
    "decompose_halfline",
    "decompose_quadrant",
    "check_gamma_parity",
]


def decompose_halfline(tensor: HalfLineTensor, order: int | None = None) -> Decomposition:
    """Split coeff(x) dx^2 into c * (dx^2 / x) plus a pole-free tensor, exactly.

    ``order`` fixes the order at which the regular part is reported (default:
    the highest degree present in the input).  Inputs whose pole is too deep
    to be smooth are rejected, with the pullback along t^2 through ``order``
    (default ``DEFAULT_ORDER``) attached as the witness.
    """
    if tensor.degree != 2:
        raise ValueError("decomposition requires a symmetric 2-tensor")
    coeff = tensor.coeff
    if coeff.pole_order >= 2:
        raise _capacity_exceeded(tensor, order)
    natural = max(coeff.degree or 0, 0)
    if order is None:
        order = natural
    elif order < natural:
        raise ValueError(
            "order %d cannot represent the input (degree %d)" % (order, natural)
        )
    # g(t) = 4 t^2 f(t^2): the term c x^d lands at t^(2d + 2) as 4c.
    g_coeffs = [Fraction(0)] * (2 * order + 3)
    for d, c in coeff.terms():
        g_coeffs[2 * d + 2] = 4 * c
    g = Jet1(g_coeffs)
    h = whitney_descend(g)
    c = h.constant_term / 4
    regular = Jet1(h.coeffs[1:]) * Fraction(1, 4)
    return Decomposition(c=c, regular=regular, trace=DecompositionTrace(g=g, h=h))


class ComponentParity(Record):
    """Parity-sector occupancy of one pulled-back component."""

    component: str
    expected: str
    masses: dict[str, int]
    min_degrees: tuple[int, int] | None
    sector_ok: bool
    smooth: bool

    @property
    def ok(self) -> bool:
        return self.sector_ok and self.smooth


class ParityReport(Record):
    du2: ComponentParity
    dv2: ComponentParity
    dudv: ComponentParity

    @property
    def rule_holds(self) -> bool:
        return self.du2.ok and self.dv2.ok and self.dudv.ok

    def components(self) -> tuple[ComponentParity, ComponentParity, ComponentParity]:
        return (self.du2, self.dv2, self.dudv)


def _component_parity(name: str, expected: str, jet: LaurentJet2) -> ComponentParity:
    masses = parity_masses(jet)
    occupied = [sector for sector, count in masses.items() if count]
    vx, vy = jet.valuations
    return ComponentParity(
        component=name,
        expected=expected,
        masses=masses,
        min_degrees=None if jet.is_zero else (vx, vy),
        sector_ok=all(sector == expected for sector in occupied),
        smooth=jet.is_zero or (vx >= 0 and vy >= 0),
    )


def check_gamma_parity(tensor: QuadrantTensor) -> ParityReport:
    """Which parity sectors each pulled-back component occupies, and whether
    the corner selection rule (axial even-even, cross odd-odd, no poles) holds."""
    pulled = pullback_sq2(tensor)
    return ParityReport(
        du2=_component_parity("du^2", "even-even", pulled.du2),
        dv2=_component_parity("dv^2", "even-even", pulled.dv2),
        dudv=_component_parity("du*dv", "odd-odd", pulled.dudv),
    )


class QuadrantDecomposition(Record):
    """A(y)/x dx^2 + B(x)/y dy^2 plus pole-free regular components."""

    A: Jet1
    B: Jet1
    regular_dx2: LaurentJet2
    regular_dy2: LaurentJet2
    regular_cross: LaurentJet2
    parity_report: ParityReport

    def reconstruct(self) -> QuadrantTensor:
        a = LaurentJet2(
            {(-1, j): c for j, c in enumerate(self.A.coeffs) if c != 0}
        ) + self.regular_dx2
        b = LaurentJet2(
            {(i, -1): c for i, c in enumerate(self.B.coeffs) if c != 0}
        ) + self.regular_dy2
        return QuadrantTensor(a, b, self.regular_cross)


def decompose_quadrant(
    tensor: QuadrantTensor, order: int | None = None
) -> QuadrantDecomposition:
    """Extract the axial singular profiles A(y), B(x) and the regular remainder.

    Rejections carry the parity report of the square-map pullback as witness:
    a pole in the cross coefficient lands in the odd-odd sector at negative
    degree, and axial poles deeper than one violate smoothness of the
    pulled-back even-even coefficients.  An accepted tensor has no pole
    deeper than x^-1 in a, y^-1 in b and none in c, so A(y) is the x^-1
    slice of a, B(x) the y^-1 slice of b, and the rest is regular.
    """
    report = check_gamma_parity(tensor)
    if not report.dudv.ok:
        raise NotSmoothError(
            "singular cross term: violates odd-odd parity", parity=report
        )
    for name, component in (("dx^2", report.du2), ("dy^2", report.dv2)):
        if not component.ok:
            raise NotSmoothError(
                "not a smooth tensor on the quadrant: %s coefficient pulls back"
                " with a pole" % name,
                parity=report,
            )
    a, b = tensor.a, tensor.b
    a_profile = a.slice_x(-1)
    b_profile = b.slice_y(-1)
    order_a = _axis_order(a_profile, order)
    order_b = _axis_order(b_profile, order)
    return QuadrantDecomposition(
        A=a_profile.to_jet1(order_a),
        B=b_profile.to_jet1(order_b),
        regular_dx2=a.restrict(lambda i, j: i >= 0),
        regular_dy2=b.restrict(lambda i, j: j >= 0),
        regular_cross=tensor.c,
        parity_report=report,
    )


def _axis_order(profile: LaurentJet, order: int | None) -> int:
    natural = max(profile.degree or 0, 0)
    if order is None:
        return natural
    if order < natural:
        raise ValueError(
            "order %d cannot represent the axial profile (degree %d)" % (order, natural)
        )
    return order
