"""Independent oracles for the tests.

Each exact oracle is written the plain way, with one ``Fraction`` operation
per step, and shares no code with the kernels or the parser it checks.
Series are {degree: coefficient} dicts unless a function says otherwise.
Expression trees evaluate to {monomial: coefficient} dicts.  The float
probe at the end samples a pullback on a grid, apart from the exact pullback
whose verdicts it corroborates.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from cornerjet import LaurentJet, SampledFunction
from cornerjet.jets import Jet1, LaurentJet2
from cornerjet.numeric import _reduce, _sup_abs, check_tolerance
from cornerjet.plots import BoundaryGerm, FlatGerm, InteriorGerm
from cornerjet.tensors import QUADRANT_BASIS, HalfLineTensor, QuadrantTensor


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


def descend_square_pullback(pulled):
    """The quadrant split by the constructive route, from the square-map pullback.

    The component of basis element du^p dv^q is 2^(p+q) u^(p%2) v^(q%2)
    K(u^2, v^2): it sheds its odd factor, has its even exponents halved and is
    divided by 2^(p+q), all in one loop.  So 4 u^2 a(u^2, v^2) descends to
    K = x a(x, y), which splits at x = 0 into A(y) = K|x^0 and the regular dx^2
    part (K - A) / x; likewise in y for dv^2, and 4 u v c(u^2, v^2) descends
    to c.  Returns (A as {j: c}, B as {i: c}, regular dx^2, regular dy^2,
    regular cross).
    """
    descended = []
    for (p, q), jet in pulled.components.items():
        out = {}
        for i, j, c in jet.terms():
            i, j = i - p % 2, j - q % 2
            if i % 2 or j % 2:
                raise ValueError("not even-even: term u^%d v^%d" % (i, j))
            out[(i // 2, j // 2)] = Fraction(c) / 2 ** (p + q)
        descended.append(out)
    k_a, k_b, regular_cross = descended
    A = {j: c for (i, j), c in k_a.items() if i == 0}
    B = {i: c for (i, j), c in k_b.items() if j == 0}
    regular_dx2 = {(i - 1, j): c for (i, j), c in k_a.items() if i >= 1}
    regular_dy2 = {(i, j - 1): c for (i, j), c in k_b.items() if j >= 1}
    return A, B, regular_dx2, regular_dy2, regular_cross


# Expression trees for the tensor grammar: ("num", n), ("sym", name),
# ("paren", tree), ("pow", base, n), ("product", [factor, (op, factor), ...])
# with op "*" or "/", and ("sum", [(sign, term), ...]).  A tree's value is
# {(x exp, y exp, dx power, dy power): coefficient}.
_SYMBOL_KEYS = {"x": (1, 0, 0, 0), "y": (0, 1, 0, 0), "dx": (0, 0, 1, 0), "dy": (0, 0, 0, 1)}


def render_expression(tree) -> str:
    """The tree written in the grammar of ``parse_tensor``."""
    kind = tree[0]
    if kind in ("num", "sym"):
        return str(tree[1])
    if kind == "paren":
        return "(%s)" % render_expression(tree[1])
    if kind == "pow":
        return "%s^%d" % (render_expression(tree[1]), tree[2])
    if kind == "product":
        first, *rest = tree[1]
        return render_expression(first) + "".join(op + render_expression(f) for op, f in rest)
    text = ""
    for i, (sign, term) in enumerate(tree[1]):
        if i:
            text += " - " if sign < 0 else " + "
        elif sign < 0:
            text += "-"
        text += render_expression(term)
    return text


def _only_monomial(value: dict) -> tuple:
    (key, c), = value.items()
    return key, c


def evaluate_expression(tree) -> dict[tuple[int, int, int, int], Fraction]:
    """The nonzero coefficients of the tree's value, multiplied out the plain
    way: every sum and product on dicts, one ``Fraction`` operation per step.

    A power's base and a divisor must have exactly one nonzero monomial.
    """
    kind = tree[0]
    if kind == "num":
        value = {(0, 0, 0, 0): Fraction(tree[1])}
    elif kind == "sym":
        value = {_SYMBOL_KEYS[tree[1]]: Fraction(1)}
    elif kind == "paren":
        value = evaluate_expression(tree[1])
    elif kind == "pow":
        key, c = _only_monomial(evaluate_expression(tree[1]))
        value = {tuple(e * tree[2] for e in key): c ** tree[2]}
    elif kind == "product":
        first, *rest = tree[1]
        value = evaluate_expression(first)
        for op, factor in rest:
            other = evaluate_expression(factor)
            if op == "/":
                key, c = _only_monomial(other)
                other = {tuple(-e for e in key): 1 / c}
            product: dict = {}
            for k1, c1 in value.items():
                for k2, c2 in other.items():
                    k = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
                    product[k] = product.get(k, Fraction(0)) + c1 * c2
            value = product
    else:
        value = {}
        for sign, term in tree[1]:
            for key, c in evaluate_expression(term).items():
                value[key] = value.get(key, Fraction(0)) + sign * c
    return {key: c for key, c in value.items() if c != 0}


# Tensor and germ builders for the tests; the program builds its tensors and
# germs directly.


def make_halfline_tensor(k, coeff) -> HalfLineTensor:
    """coeff dx^k; ``coeff`` a LaurentJet, a Jet1 read from x^0, or a rational constant."""
    if isinstance(coeff, Jet1):
        coeff = LaurentJet(0, coeff.coeffs)
    elif not isinstance(coeff, LaurentJet):
        coeff = LaurentJet(0, (coeff,))
    return HalfLineTensor(k, coeff)


def singular_plus_regular(c, regular) -> HalfLineTensor:
    """c dx^2/x + regular(x) dx^2, for a rational c and a Jet1 ``regular``."""
    return HalfLineTensor(2, LaurentJet(-1, (c,)) + LaurentJet(0, regular.coeffs))


def make_quadrant_tensor(a, b, c) -> QuadrantTensor:
    """a dx^2 + b dy^2 + c dx dy; each a LaurentJet2, a {(i, j): c} map or a constant."""
    def jet(value):
        if isinstance(value, LaurentJet2):
            return value
        return LaurentJet2(value if isinstance(value, dict) else {(0, 0): value})
    return QuadrantTensor(dict(zip(QUADRANT_BASIS, map(jet, (a, b, c)))))


def make_boundary_plot(m, unit) -> BoundaryGerm:
    """The germ t^(2m) * unit(t); ``unit`` a Jet1 or a rational constant."""
    return BoundaryGerm(m, unit if isinstance(unit, Jet1) else Jet1((unit,)))


def make_interior_plot(x0, jet=None) -> InteriorGerm:
    """The interior germ at x0 with curve jet ``jet``, by default x0 + t."""
    germ = InteriorGerm(Jet1((x0, 1)) if jet is None else jet)
    if germ.x0 != x0:
        raise ValueError("interior jet constant term must equal the base point")
    return germ


# Maps of the corner and of curves, for the symmetry laws.  Each returns the
# pullback of its input, term by term.


def laurent_product(a: LaurentJet, b: LaurentJet) -> LaurentJet:
    """The full product a * b of two Laurent jets, by the schoolbook rule."""
    return LaurentJet.from_terms(schoolbook_product(dict(a.terms()), dict(b.terms())))


def swap_quadrant(tensor: QuadrantTensor) -> QuadrantTensor:
    """The pullback along sigma(x, y) = (y, x): the (p, q) component is the
    (q, p) component with its exponents transposed."""
    return QuadrantTensor({
        (p, q): LaurentJet2({(j, i): c for i, j, c in tensor.components[q, p].terms()})
        for p, q in QUADRANT_BASIS
    })


def dilate_quadrant(tensor: QuadrantTensor, lam, mu) -> QuadrantTensor:
    """The pullback along (x, y) -> (lam x, mu y): the term c x^i y^j dx^p dy^q
    gains the factor lam^(i + p) mu^(j + q)."""
    return QuadrantTensor({
        (p, q): LaurentJet2({
            (i, j): c * Fraction(lam) ** (i + p) * Fraction(mu) ** (j + q)
            for i, j, c in jet.terms()
        })
        for (p, q), jet in tensor.components.items()
    })


def dilate_halfline(tensor: HalfLineTensor, lam) -> HalfLineTensor:
    """The pullback along x -> lam x: the term c x^d dx^k gains lam^(d + k)."""
    k = tensor.degree
    return HalfLineTensor(k, LaurentJet.from_terms(
        {d: c * Fraction(lam) ** (d + k) for d, c in tensor.coeff.terms()}))


def dilate_jet(jet: Jet1, scale, lam) -> Jet1:
    """scale * jet(lam t), at the order of ``jet``."""
    return Jet1([scale * c * Fraction(lam) ** d for d, c in enumerate(jet.coeffs)])


# s(t) = t + t^2, the reparametrization of the laws: s(0) = 0 and s'(0) = 1.
_S = {1: 1, 2: 1}


def _polynomial(series: dict) -> Jet1:
    """The Jet1 of a nonzero polynomial given as {degree: coefficient}."""
    return Jet1([series.get(d, 0) for d in range(max(series) + 1)])


def reparametrize(germ):
    """The germ P(s(t)), exactly: an interior jet is composed with s, and
    t^(2m) u(t) becomes t^(2m) times the unit (1 + t)^(2m) u(s(t))."""
    if isinstance(germ, InteriorGerm):
        jet = dict(enumerate(germ.jet.coeffs))
        return InteriorGerm(_polynomial(compose(jet, _S, 2 * max(jet))))
    if isinstance(germ, BoundaryGerm):
        unit = dict(enumerate(germ.unit.coeffs))
        lift = {n: math.comb(2 * germ.m, n) for n in range(2 * germ.m + 1)}
        return BoundaryGerm(germ.m, _polynomial(
            schoolbook_product(lift, compose(unit, _S, 2 * max(unit)))))
    raise TypeError("not a germ with a finite jet: %r" % (germ,))


def _binomial(d: int, n: int) -> int:
    """The coefficient of t^n in (1 + t)^d, for any integer d."""
    return math.prod(range(d, d - n, -1)) // math.factorial(n)


def reparametrized_witness(witness: LaurentJet, k: int, order: int) -> LaurentJet:
    """(w o s) s'^k through ``order`` degrees above val(w), for s = t + t^2.

    s(t)^d = t^d (1 + t)^d and s' = 1 + 2t, so the degrees of w above its
    window reach only degrees above the window here: the result is exact
    wherever ``witness`` is.
    """
    if witness.is_zero:
        return witness
    top = witness.valuation + order
    composed: dict[int, Fraction] = {}
    for d, c in witness.terms():
        for n in range(top - d + 1):
            composed[d + n] = composed.get(d + n, Fraction(0)) + c * _binomial(d, n)
    velocity = {n: math.comb(k, n) * 2 ** n for n in range(k + 1)}
    product = schoolbook_product(composed, velocity)
    return LaurentJet.from_terms({e: c for e, c in product.items() if e <= top})


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
    fv, _, ddv = f.sample(f.grid())
    if f.squares is None and _reduce(min, fv) < -tol:
        raise ValueError("function not nonnegative on interval")

    def sup_on(n: int) -> float:
        grid = SampledFunction(f.coeffs, f.interval, n, f.squares).grid()
        pv, dv, _ = f.sample(grid)
        kept = [i for i, p in enumerate(pv) if p != 0.0]
        if not kept:
            return 0.0
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
        bound = 2.0 * _sup_abs(ddv)
        bound_ok = refined <= bound + tol
    return PullbackProbeReport(
        sup=sup,
        refined_sup=refined,
        growth=growth,
        bounded=bounded,
        bound=bound,
        bound_ok=bound_ok,
    )
