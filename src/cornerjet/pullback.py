"""Pullback of tensors along plot germs, with exact smoothness verdicts.

A tensor coeff(x) dx^k pulled back along a curve P(t) has coefficient
coeff(P(t)) * P'(t)^k; whether that is smooth at the contact point is decided
purely by the valuation of the resulting Laurent jet in t, never by magnitude
thresholds.  On the quadrant every rule is read from a component's key, its
basis element (p, q) (``tensors.QUADRANT_BASIS``): along a curve its
coefficient counts once per slot order, comb(p+q, p) times, and the square map
sends its term c x^i y^j to 2^(p+q) c u^(2i+p) v^(2j+q), the coefficient of the
same basis element du^p dv^q in the same convention.

Clearing denominators: every curve germ is a polynomial in t and every
coefficient a Laurent polynomial, so a sum of terms c x^i y^j dx^p dy^q pulls
back along (px, py) to W / D with D = px^vx py^vy, where vx and vy are the
deepest poles in x and y, and

    W = sum c px^(i+vx) py^(j+vy) px'^p py'^q,

a polynomial.  The valuation of each term of W is known exactly from the
curve valuations; W is computed through degree lo + order, lo the smallest
term valuation, from powers that keep ``top - lo`` coefficients above their
valuation, each built on its own by one recurrence (``_powers``).  Only when
cancellation hides val(W) does the bound grow, and never past deg W, so every
verdict is exact.  The witness is the one series division W / D, reported
through the requested order above its valuation.

The stage computes on integers from the curves to the witness: each curve is
scaled once by the lcm of its denominators, it and its derivative carry their
content as one fraction, and every term's scalar is an integer over one common
denominator.  The division is fraction-free (pseudo-division; Knuth, TAOCP
vol. 2, 4.6.1): Q_k = q_k d0^(k+1) stays an integer, and each witness
coefficient is one reduced fraction built from Q_k, the power of d0 and the
scalar that W / D carries.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, index, mul

from .jets import DEFAULT_ORDER, LaurentJet, LaurentJet2, Record
from .plots import BoundaryGerm, FlatGerm, InteriorGerm, PairGerm, PlotGerm
from .tensors import HalfLineTensor, QuadrantTensor, capacity

__all__ = [
    "Status",
    "SmoothnessVerdict",
    "NotSmoothError",
    "pullback_halfline",
    "pullback_sq2",
    "pullback_quadrant_path",
]


class Status(enum.Enum):
    SMOOTH = "smooth"
    POLE = "pole"
    FLAT_SMOOTH = "flat-smooth"
    FLAT_INDETERMINATE = "flat-indeterminate"


class SmoothnessVerdict(Record):
    """Outcome of a pullback: smooth (valuation >= 0), a pole, or a flat-germ rule.

    ``witness`` is the pulled-back coefficient jet in t, reported through the
    requested order above its valuation (absent for flat germs).
    ``vanishing_order`` is set for boundary germs with a smooth verdict: the
    t-order to which the witness vanishes at 0.
    """

    status: Status
    witness: LaurentJet | None = None
    pole_order: int = 0
    vanishing_order: int | None = None

    @property
    def is_smooth(self) -> bool:
        return self.status in (Status.SMOOTH, Status.FLAT_SMOOTH)


class NotSmoothError(ValueError):
    """An input tensor is not diffeologically smooth; carries the witness.

    ``verdict`` holds a pullback verdict when the rejection came from a single
    curve; ``parity`` the quadrant parity report, which the exponent formula of
    ``check_gamma_parity`` decides and ``pullback_sq2`` is the test oracle of.
    """

    def __init__(self, message: str, verdict: SmoothnessVerdict | None = None, parity=None):
        super().__init__(message)
        self.verdict = verdict
        self.parity = parity


def _check_capacity(tensor: HalfLineTensor, order: int | None) -> None:
    """Refuse a pole beyond ``capacity(degree)``, witnessed along t^2 at ``order`` (or default)."""
    if tensor.pole_order > capacity(tensor.degree):
        order = DEFAULT_ORDER if order is None else order
        verdict = pullback_halfline(tensor, BoundaryGerm(1), order)
        raise NotSmoothError("not a smooth tensor on the half-line: capacity exceeded", verdict)


def _read_order(order: int | None) -> int | None:
    """A given ``order`` as an integer, refused below 0 before any work is done."""
    if order is not None and index(order) < 0:
        raise ValueError("order %d is below the minimum 0" % order)
    return None if order is None else index(order)


# -- the one evaluation routine ------------------------------------------------

# A tensor term c x^i y^j dx^p dy^q as (i, j, p, q, c).
_Term = tuple[int, int, int, int, Fraction]

# The stage's number layout: a series as (valuation, integer coefficients); a
# curve or its derivative as (n, d, s), meaning (n / d) * s with s primitive, so
# no power table carries a common factor.  Only sums may start with a zero.
_Series = tuple[int, list[int]]
_Factor = tuple[int, int, _Series]


def _primitive(num: int, den: int, s: _Series) -> _Factor:
    """(num / den) * s with the content of s moved into the fraction, in lowest terms."""
    g = gcd(*s[1]) or 1
    r = gcd(num * g, den)
    return num * g // r, den // r, (s[0], [c // g for c in s[1]])


def _factors(curve: LaurentJet) -> tuple[_Factor, _Factor]:
    """The curve and its derivative as factors, scaled by the lcm of the curve's denominators."""
    e = lcm(*[c.denominator for c in curve.coeffs])
    scaled = [c.numerator * (e // c.denominator) for c in curve.coeffs]
    n, d, s = _primitive(1, e, (curve.valuation, scaled))
    return (n, d, s), _primitive(n, d, _derivative(s))


def _stripped(s: _Series) -> _Series:
    """s from its first nonzero coefficient on; the zero series is (0, [])."""
    lead = next((i for i, c in enumerate(s[1]) if c), None)
    return (0, []) if lead is None else (s[0] + lead, s[1][lead:])


def _derivative(curve: _Series) -> _Series:
    """The derivative, stripped: powers rely on a nonzero leading coefficient."""
    val, coeffs = curve
    return _stripped((val - 1, [(val + i) * c for i, c in enumerate(coeffs)]))


def _times(a: _Series, b: _Series, top: int) -> _Series:
    """The product a * b through degree ``top``; nothing above it is formed."""
    val, x, ry = a[0] + b[0], a[1], b[1][::-1]
    n = len(ry) - 1
    # Coefficient k pairs x[i] with b's coefficient k - i, which is ry[n - k + i].
    return val, [
        sum(map(mul, x[max(0, k - n) : k + 1], ry[max(n - k, 0) :]))
        for k in range(min(top - val + 1, len(x) + n))
    ]


def _combine(parts: list[tuple[int, _Series]]) -> _Series:
    """The sum of c * s over the (c, s) in ``parts``."""
    low = min(s[0] for _, s in parts)
    out: list[int] = []
    for c, (val, coeffs) in parts:
        start = val - low
        end = start + len(coeffs)
        out.extend([0] * (end - len(out)))
        out[start:end] = map(add, out[start:end], [c * x for x in coeffs] if c != 1 else coeffs)
    return low, out


def _powers(base: _Series, exponents: set[int], keep: int) -> dict[int, _Series]:
    """base^e for each e in ``exponents``, each through ``keep`` degrees above its valuation.

    ``base`` has a nonzero leading coefficient a_0, so val(base^e) = e val(base)
    exactly, and coefficients of base above val(base) + keep never reach the
    kept degrees.  Each power is J.C.P. Miller's recurrence (Knuth, TAOCP
    vol. 2, 4.7) on the coefficients a_j of base and g_k of base^e:

        k a_0 g_k = sum over j >= 1 of ((e + 1) j - k) a_j g_(k-j),

    an exact division, since e >= 0 and base^e has integer coefficients.
    Exponent 0 gives (0, [1]) without reading a_0, so the zero series has it.
    """
    val, a = base[0], base[1][: keep + 1]
    n, out = len(a) - 1, {}
    for e in exponents:
        g = [a[0] ** e if e else 1]
        for k in range(1, min(keep, e * n) + 1):
            acc = sum(((e + 1) * j - k) * a[j] * g[k - j] for j in range(1, min(k, n) + 1))
            g.append(acc // (k * a[0]))
        out[e] = (e * val, g)
    return out


def _divide(w: list[int], d: list[int], terms: int, scale: Fraction) -> list[Fraction]:
    """The first ``terms`` coefficients of scale * w / d, both read from their valuations.

    Q_k = q_k d0^(k+1) = w_k d0^k - sum over j >= 1 of d_j d0^(j-1) Q_(k-j)
    is an integer, and each output is built once, in lowest terms, as
    Q_k sn / (d0^(k+1) sd) with scale = sn / sd.
    """
    d0, powers, quotient = d[0], [1], []
    steps = [(j, c * d0 ** (j - 1)) for j, c in enumerate(d) if j and c]
    for k in range(terms):
        acc = w[k] * powers[k] if k < len(w) else 0
        quotient.append(acc - sum(e * quotient[k - j] for j, e in steps if j <= k))
        powers.append(powers[k] * d0)
    sn, sd = scale.numerator, scale.denominator
    return [Fraction(q * sn, powers[k + 1] * sd) for k, q in enumerate(quotient)]


def _curve(plot: PlotGerm) -> LaurentJet:
    """A plot germ as the polynomial in t that it is."""
    if isinstance(plot, BoundaryGerm):
        return LaurentJet(2 * plot.m, plot.unit.coeffs)
    if isinstance(plot, InteriorGerm):
        return LaurentJet(0, plot.jet.coeffs)
    raise TypeError("cannot compose along %r" % (plot,))


def _pull_back(terms: list[_Term], px: LaurentJet, py: LaurentJet, order: int) -> LaurentJet:
    """sum c px^i py^j px'^p py'^q through ``order`` degrees above its valuation.

    Exact: W (the sum with denominators cleared) is built on integers through
    a degree that exposes its valuation, then divided once by D = px^vx py^vy.
    """
    (fx, fdx), (fy, fdy) = _factors(px), _factors(py)
    factors = (fx, fy, fdx, fdy)
    curves = tuple(s for _, _, s in factors)
    # A differential of a constant curve component kills its terms.
    terms = [t for t in terms if not ((t[2] and not fdx[2][1]) or (t[3] and not fdy[2][1]))]
    if not terms:
        return LaurentJet()
    vx = max(0, -min(t[0] for t in terms))
    vy = max(0, -min(t[1] for t in terms))
    # Per term: the exponents of (px, py, px', py') and the scalar with their
    # contents, as num / d.
    scaled = []
    for i, j, p, q, c in terms:
        exps = (i + vx, j + vy, p, q)
        num, d = c.numerator, c.denominator
        for n, (fn, fd, _) in zip(exps, factors):
            num, d = num * fn ** n, d * fd ** n
        scaled.append((exps, num, d))
    # W times den, grouped as sum over (p, q) of px'^p py'^q sum over a of px^a
    # sum over b of c py^b, every c an integer.
    den = lcm(*[d for _, _, d in scaled])
    slots: dict[tuple[int, int], dict[int, list[tuple[int, int]]]] = {}
    for (a, b, p, q), num, d in scaled:
        slots.setdefault((p, q), {}).setdefault(a, []).append((b, num * (den // d)))
    lo = min(sum(n * v for n, (v, _) in zip(e, curves)) for e, _, _ in scaled)
    deg_w = max(sum(n * (v + len(f) - 1) for n, (v, f) in zip(e, curves)) for e, _, _ in scaled)
    top = min(lo + order, deg_w)
    while True:
        w_val, w = _stripped(_evaluate(slots, curves, top - lo, top))
        if top == deg_w or (w and w_val + order <= top):
            break
        # Cancellation: raise the bound to what val(W) needs, or double it
        # while W vanishes through it.
        top = min(deg_w, w_val + order if w else 2 * top - lo)
    if not w:
        return LaurentJet()
    (nx, dx, sx), (ny, dy, sy) = fx, fy
    d_val, d = _times(_powers(sx, {vx}, order)[vx], _powers(sy, {vy}, order)[vy],
                      vx * sx[0] + vy * sy[0] + order)
    scale = Fraction(dx ** vx * dy ** vy, den * nx ** vx * ny ** vy)
    return LaurentJet(w_val - d_val, _divide(w, d, order + 1, scale))


def _evaluate(slots, curves: tuple[_Series, ...], keep: int, top: int) -> _Series:
    """W through degree ``top``, every term of which has valuation >= top - keep.

    Each power keeps ``keep`` degrees above its valuation, which is all that a
    term can carry below ``top``, and every product stops at the degree that
    can still reach ``top``.
    """
    px, py, dpx, dpy = curves
    x_pows = _powers(px, {a for rows in slots.values() for a in rows}, keep)
    y_exps = {b for rows in slots.values() for row in rows.values() for b, _ in row}
    y_pows = _powers(py, y_exps, keep)
    dx_pows = _powers(dpx, {p for p, _ in slots}, keep)
    dy_pows = _powers(dpy, {q for _, q in slots}, keep)
    parts = []
    for (p, q), rows in slots.items():
        factor = _times(dx_pows[p], dy_pows[q], p * dpx[0] + q * dpy[0] + keep)
        slot = _combine([
            (1, _times(x_pows[a], _combine([(c, y_pows[b]) for b, c in row]), top - factor[0]))
            for a, row in rows.items()
        ])
        parts.append((1, _times(slot, factor, top)))
    return _combine(parts)


def _verdict(witness: LaurentJet, boundary: bool) -> SmoothnessVerdict:
    if witness.is_zero:
        return SmoothnessVerdict(Status.SMOOTH, witness=witness)
    val = witness.valuation
    if val >= 0:
        return SmoothnessVerdict(
            Status.SMOOTH, witness=witness, vanishing_order=val if boundary else None
        )
    return SmoothnessVerdict(Status.POLE, witness=witness, pole_order=-val)


def pullback_halfline(
    tensor: HalfLineTensor, plot: PlotGerm, order: int = DEFAULT_ORDER
) -> SmoothnessVerdict:
    """Pull coeff(x) dx^k back along a plot germ and judge smoothness at t = 0."""
    if index(order) < 2:
        raise ValueError("order must be at least 2")
    if isinstance(plot, FlatGerm):
        # Flat curves tame any pole up to the capacity; beyond it the jet calculus
        # cannot decide, so no verdict is fabricated.
        if tensor.pole_order > capacity(tensor.degree):
            return SmoothnessVerdict(Status.FLAT_INDETERMINATE)
        return SmoothnessVerdict(Status.FLAT_SMOOTH)
    terms = [(d, 0, tensor.degree, 0, c) for d, c in tensor.coeff.terms()]
    witness = _pull_back(terms, _curve(plot), LaurentJet(0, (1,)), order)
    return _verdict(witness, isinstance(plot, BoundaryGerm))


def pullback_sq2(tensor: QuadrantTensor) -> QuadrantTensor:
    """Pull a quadrant tensor back along (u, v) -> (u^2, v^2), exactly.

    With dx = 2u du and dy = 2v dv, the component keyed (p, q) is one exponent
    map with the scale 2^(p+q) read from its key: du^2 gets 4 u^2 a(u^2, v^2),
    dv^2 gets 4 v^2 b(u^2, v^2) and du dv gets 4 u v c(u^2, v^2), the entry of
    each slot order as in the input.
    The result is a tensor in u and v; its poles may pass ``MIN_VALUATION``.
    """
    return QuadrantTensor({
        (p, q): LaurentJet2({(2 * i + p, 2 * j + q): 2 ** (p + q) * c for i, j, c in jet.terms()})
        for (p, q), jet in tensor.components.items()
    })


def pullback_quadrant_path(
    tensor: QuadrantTensor, germ: PairGerm, order: int = DEFAULT_ORDER
) -> SmoothnessVerdict:
    """Pull a quadrant tensor back along a component-pair curve (px(t), py(t)).

    The dt^2 coefficient is a(px,py) px'^2 + b(px,py) py'^2 + 2 c(px,py) px'py',
    the cross term once per slot order.
    """
    if index(order) < 2:
        raise ValueError("order must be at least 2")
    if isinstance(germ.px, FlatGerm) or isinstance(germ.py, FlatGerm):
        raise ValueError("flat components are not supported in path pullback")
    terms = []
    for (p, q), jet in tensor.components.items():
        n = comb(p + q, p)
        terms += [(i, j, p, q, c if n == 1 else n * c) for i, j, c in jet.terms()]
    witness = _pull_back(terms, _curve(germ.px), _curve(germ.py), order)
    boundary = isinstance(germ.px, BoundaryGerm) or isinstance(germ.py, BoundaryGerm)
    return _verdict(witness, boundary)
