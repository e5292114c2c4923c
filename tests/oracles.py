"""Independent oracles for the tests.

Each exact oracle is written the plain way, with one ``Fraction`` operation
per step, and shares no code with the kernels it checks.  Series are
{degree: coefficient} dicts unless a function says otherwise.  The float
probe at the end samples a pullback on a grid, apart from the exact pullback
whose verdicts it corroborates.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from cornerjet import LaurentJet, SampledFunction
from cornerjet.numeric import _reduce, _sup_abs, check_tolerance
from cornerjet.plots import BoundaryGerm, FlatGerm, InteriorGerm
from cornerjet.tensors import HalfLineTensor


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


_SIMPLE_POLE = LaurentJet(-1, (1,))


def _power(x: float, e: int) -> float:
    """x**e as array power gives it: x*x and 1/x for e = 2 and -1, and a signed
    infinity instead of an overflow error."""
    if e == 2:
        return x * x
    if e == -1:
        return 1.0 / x
    try:
        return x ** e
    except OverflowError:
        return -math.inf if x < 0 and e % 2 else math.inf


@dataclass(frozen=True)
class PullbackProbeReport:
    """Grid boundedness probe of coeff(P(t)) P'(t)^k.

    ``bounded`` compares the supremum on the base grid with the supremum on a
    4x refined grid: a genuine pole at a zero of P multiplies the observed sup
    by at least 4 under that refinement, while a smooth pullback stabilizes.
    For the canonical simple-pole 2-tensor the report also checks the
    curvature bound sup <= 2 sup|P''| + tol.
    """

    sup: float
    refined_sup: float
    growth: float
    bounded: bool
    bound: float | None = None
    bound_ok: bool | None = None


def numeric_pullback_probe(
    tensor: HalfLineTensor, f: SampledFunction, tol: float = 1e-9
) -> PullbackProbeReport:
    check_tolerance(tol)
    if not f.sos_certified and _reduce(min, f.values(f.grid())) < -tol:
        raise ValueError("function not nonnegative on interval")

    def sup_on(n: int) -> float:
        grid = f.grid(n)
        pv = f.values(grid)
        kept = [i for i, p in enumerate(pv) if p != 0.0]
        if not kept:
            return 0.0
        dv = f.derivative_values(grid)
        terms = [(degree, float(c)) for degree, c in tensor.coeff.terms()]
        values = []
        for i in kept:
            coeff_at = 0.0
            for degree, c in terms:
                coeff_at += c * _power(pv[i], degree)
            values.append(coeff_at * _power(dv[i], tensor.degree))
        return _sup_abs(values)

    sup = sup_on(f.grid_n)
    refined = sup_on(4 * f.grid_n)
    growth = refined / sup if sup > 0.0 else 1.0
    bounded = math.isfinite(refined) and growth <= 2.0
    bound = bound_ok = None
    if tensor.degree == 2 and tensor.coeff == _SIMPLE_POLE:
        bound = 2.0 * _sup_abs(f.second_derivative_values(f.grid()))
        bound_ok = refined <= bound + tol
    return PullbackProbeReport(
        sup=sup,
        refined_sup=refined,
        growth=growth,
        bounded=bounded,
        bound=bound,
        bound_ok=bound_ok,
    )
