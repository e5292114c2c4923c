"""Independent exact oracles for the tests.

Each oracle is written the plain way, with one ``Fraction`` operation per
step, and shares no code with the kernels it checks.  Series are
{degree: coefficient} dicts unless a function says otherwise.
"""

from fractions import Fraction

from cornerjet import LaurentJet
from cornerjet.plots import BoundaryGerm, FlatGerm, InteriorGerm


def schoolbook_product(a, b) -> dict[int, Fraction]:
    """Product of two Laurent polynomials given as {degree: coefficient}.

    Returns the nonzero coefficients of the full product, by degree.
    """
    out: dict[int, Fraction] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, Fraction(0)) + Fraction(x) * Fraction(y)
    return {d: c for d, c in out.items() if c != 0}


def long_divide(num, den, terms: int) -> dict[int, Fraction]:
    """The first ``terms`` coefficients of num / den, by schoolbook long division.

    The quotient starts at val(num) - val(den); each step divides the lowest
    remaining degree by the leading coefficient of ``den`` and subtracts the
    shifted divisor.  Returns the nonzero quotient coefficients, by degree.
    """
    den = {d: Fraction(c) for d, c in den.items() if c != 0}
    low = min(den)
    remainder = {d: Fraction(c) for d, c in num.items() if c != 0}
    start = min(remainder, default=0)
    quotient: dict[int, Fraction] = {}
    for n in range(terms):
        q = remainder.get(start + n, Fraction(0)) / den[low]
        if q:
            quotient[start + n - low] = q
            for d, c in den.items():
                key = start + n - low + d
                remainder[key] = remainder.get(key, Fraction(0)) - q * c
    return quotient


def realize_jet(p, order: int) -> LaurentJet:
    """The curve's jet truncated to ``order``; valuation 0 (interior) or 2m (boundary)."""
    if isinstance(p, FlatGerm):
        raise ValueError("flat germ has no finite jet representation")
    if order < 1:
        raise ValueError("order must be at least 1")
    if isinstance(p, InteriorGerm):
        shift, coeffs = 0, p.jet.coeffs
    elif isinstance(p, BoundaryGerm):
        if p.contact_degree > order:
            raise ValueError(
                "order %d is below the plot contact degree %d" % (order, p.contact_degree)
            )
        shift, coeffs = p.contact_degree, p.unit.coeffs
    else:
        raise TypeError("not a plot germ: %r" % (p,))
    return LaurentJet(shift, coeffs[: order - shift + 1])


def compose(outer, inner, order: int) -> dict[int, Fraction]:
    """Substitute the series ``inner`` into the polynomial ``outer`` by Horner's
    rule, through degree ``order``.

    ``inner`` must have vanishing constant term.  Returns the nonzero
    coefficients, by degree.
    """
    if inner.get(0, 0) != 0:
        raise ValueError("composition requires vanishing constant term")
    acc: dict[int, Fraction] = {}
    for d in range(max(outer, default=0), -1, -1):
        acc = {e: c for e, c in schoolbook_product(acc, inner).items() if e <= order}
        acc[0] = acc.get(0, Fraction(0)) + Fraction(outer.get(d, 0))
    return {e: c for e, c in acc.items() if c != 0}
