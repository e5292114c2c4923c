"""Constructive singular/regular decomposition on the half-line and the quadrant.

The half-line algorithm follows the constructive route end to end, and its
trace is part of the output: pull the tensor back through the square map to
g(t) = 4 t^2 f(t^2), descend the even jet to h with g = h(t^2), then split off
the constant term.  Shortcutting to a valuation split would give the same
answer; the test suite keeps that shortcut as an independent oracle precisely
so the two routes can be compared.

On the quadrant the parity report decides, read off the input's exponents:
the square map (u, v) -> (u^2, v^2) sends x^i y^j in the component keyed
(p, q), its basis element in ``tensors.QUADRANT_BASIS``, to u^(2i+p) v^(2j+q),
so into sector (p mod 2, q mod 2), and without a pole exactly within
``tensors.pole_bound``: the cross term has none, an axial pole is at most
simple.  The tests check this against ``pullback_sq2`` and a term-by-term
count.  Once the report accepts, the split is read off the components
themselves: descending the pullback inverts the square map exactly, so it
would only give them back.  The test suite keeps that descent as an oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .jets import SECTOR_NAMES, Jet1, LaurentJet, LaurentJet2, Record, whitney_descend
from .pullback import NotSmoothError, _check_capacity, _read_order
from .tensors import Decomposition, DecompositionTrace, HalfLineTensor, QuadrantTensor
from .tensors import basis_name, pole_bound

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
    order = _read_order(order)
    if tensor.degree != 2:
        raise ValueError("decomposition requires a symmetric 2-tensor")
    _check_capacity(tensor, order)
    order = _report_order(tensor.coeff, order, "input")
    # g(t) = 4 t^2 f(t^2): the term c x^d lands at t^(2d + 2) as 4c.
    g_coeffs = [Fraction(0)] * (2 * order + 3)
    for d, c in tensor.coeff.terms():
        g_coeffs[2 * d + 2] = 4 * c
    g = Jet1(g_coeffs)
    h = whitney_descend(g)
    c = h.constant_term / 4
    regular = Jet1(h.coeffs[1:]) * Fraction(1, 4)
    return Decomposition(c=c, regular=regular, trace=DecompositionTrace(g=g, h=h))


class ComponentParity(Record):
    """Parity-sector occupancy of one pulled-back component; ``ok`` when it has
    no pole.  ``sector_ok``, that it fills only its expected sector, is always
    true for integer exponents and stays for the JSON schema."""

    expected: str
    masses: dict[str, int]
    min_degrees: tuple[int, int] | None
    sector_ok: bool
    smooth: bool
    ok: bool


class ParityReport(Record):
    """Each pulled-back component by name (du^2, dv^2, du*dv, in basis order),
    and whether all of them obey the selection rule."""

    components: dict[str, ComponentParity]
    rule_holds: bool


def _component_parity(basis: tuple[int, int], jet: LaurentJet2) -> ComponentParity:
    # x^i y^j dx^p dy^q pulls back to a multiple of u^(2i + p) v^(2j + q) du^p dv^q.
    (p, q), (vx, vy), (bx, by) = basis, jet.valuations, pole_bound(basis)
    expected, n = SECTOR_NAMES[p % 2, q % 2], sum(1 for _ in jet.terms())
    smooth = jet.is_zero or (vx >= -bx and vy >= -by)
    return ComponentParity(
        expected=expected,
        masses={sector: n if sector == expected else 0 for sector in SECTOR_NAMES.values()},
        min_degrees=None if jet.is_zero else (2 * vx + p, 2 * vy + q),
        sector_ok=True, smooth=smooth, ok=smooth)


def check_gamma_parity(tensor: QuadrantTensor) -> ParityReport:
    """Which parity sectors each component occupies once pulled back along
    (u, v) -> (u^2, v^2), and whether the corner selection rule holds: du^p dv^q
    fills only sector (p mod 2, q mod 2) and has no pole.  The report is read
    off the input's exponents; the tests check it against ``pullback_sq2``."""
    components = {basis_name(basis, ("du", "dv")): _component_parity(basis, jet)
                  for basis, jet in tensor.components.items()}
    return ParityReport(components, all(c.ok for c in components.values()))


class QuadrantDecomposition(Record):
    """A(y)/x dx^2 + B(x)/y dy^2 plus a pole-free regular tensor, with the
    parity report that accepted it."""

    A: Jet1
    B: Jet1
    regular: QuadrantTensor
    parity: ParityReport

    def reconstruct(self) -> QuadrantTensor:
        components = dict(self.regular.components)
        components[2, 0] += LaurentJet2({(-1, j): c for j, c in enumerate(self.A.coeffs)})
        components[0, 2] += LaurentJet2({(i, -1): c for i, c in enumerate(self.B.coeffs)})
        return QuadrantTensor(components)


def decompose_quadrant(
    tensor: QuadrantTensor, order: int | None = None
) -> QuadrantDecomposition:
    """Extract the axial singular profiles A(y), B(x) and the regular remainder.

    Rejections carry the parity report as witness: a cross-term pole, or an
    axial pole deeper than ``tensors.pole_bound`` allows.  An accepted tensor
    has no pole deeper than x^-1 in a, y^-1 in b and none in c, so A(y) is the
    x^-1 slice of a, B(x) the y^-1 slice of b, and the rest is regular.
    """
    order = _read_order(order)
    report = check_gamma_parity(tensor)
    failing = [b for b, c in zip(tensor.components, report.components.values()) if not c.ok]
    if (1, 1) in failing:
        raise NotSmoothError("singular cross term: violates odd-odd parity", parity=report)
    if failing:
        raise NotSmoothError(
            "not a smooth tensor on the quadrant: %s coefficient pulls back"
            " with a pole" % basis_name(failing[0], ("dx", "dy")),
            parity=report,
        )
    a_profile = tensor.a.slice_x(-pole_bound((2, 0))[0])
    b_profile = tensor.b.slice_y(-pole_bound((0, 2))[1])
    # No pole in an accepted profile: y^-1 in A would pull back to a pole in du^2.
    n_a = _report_order(a_profile, order, "axial profile")
    n_b = _report_order(b_profile, order, "axial profile")
    return QuadrantDecomposition(
        A=Jet1([a_profile.coefficient(d) for d in range(n_a + 1)]),
        B=Jet1([b_profile.coefficient(d) for d in range(n_b + 1)]),
        regular=QuadrantTensor({
            basis: jet.restrict(lambda i, j: i >= 0 and j >= 0)
            for basis, jet in tensor.components.items()
        }),
        parity=report,
    )


def _report_order(jet: LaurentJet, order: int | None, noun: str) -> int:
    """``order``, or by default the highest degree of ``jet`` (at least 0)."""
    natural = max(jet.degree or 0, 0)
    if order is None:
        return natural
    if order < natural:
        raise ValueError(
            "order %d cannot represent the %s (degree %d)" % (order, noun, natural)
        )
    return order
