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
term valuation.  Each slot px'^p py'^q sum over a of px^a sum over b of c py^b
is summed by Horner's rule in px (Knuth, TAOCP vol. 2, 4.6.4), from the
highest exponent present down to 0, and the py^b are one chain by the same
rule, so nearly every product has a curve as one factor; only a gap of more
than 1 between exponents present (sparse exponents) asks ``_powers`` for a
higher power.  Only when cancellation hides val(W) does the bound grow, by at
least one degree each time and never past deg W, so every verdict is exact.
The witness is the one series division W / D, reported through the requested
order above its valuation.  Every order from 0 up is such a window, and the
window of order 0 is the leading term alone; only a negative order is refused.

The stage computes on integers from the curves to the witness: each curve is
scaled once by the lcm of its denominators, it and its derivative carry their
content as one fraction, and every term's scalar is an integer over one common
denominator.  The division is fraction-free (pseudo-division; Knuth, TAOCP
vol. 2, 4.6.1), and the scalar sn / sd that W / D carries enters it at the
start: sn multiplies W's coefficients once and sd starts the chain of powers
of d0, so Q_k = sn q_k d0^(k+1) stays an integer and each witness
coefficient is the one reduced fraction Q_k / (sd d0^(k+1)).  Those
fractions, a gcd each, are the floor of a long window: most of an order-256
half-line pullback.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, index

from .jets import DEFAULT_ORDER, LaurentJet, LaurentJet2, Record
from .plots import BoundaryGerm, FlatGerm, InteriorGerm, PairGerm, PlotGerm
from .tensors import HalfLineTensor, QuadrantTensor, capacity

__all__ = [
    "Status",
    "SmoothnessVerdict",
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
    """The product a * b through degree ``top``; nothing above it is formed.

    One pass per coefficient of the shorter factor adds that multiple of the
    longer one at its shift; the product keeps its trailing zeros.  A factor of
    one coefficient c makes no pass: the other is cut to the window, times c
    unless c is 1.
    """
    val, x, y = a[0] + b[0], a[1], b[1]
    if len(x) > len(y):
        x, y = y, x
    if len(x) == 1:
        c, y = x[0], y[: max(0, top - val + 1)]
        return val, y if c == 1 else [c * v for v in y]
    n = len(y)
    out = [0] * max(0, min(top - val + 1, len(x) + n - 1))
    for i, c in enumerate(x[: len(out)]):
        if c:
            # The slice stops at the end of out, and map at the shorter input.
            out[i : i + n] = map(add, out[i : i + n], map(c.__mul__, y))
    return val, out


def _combine(parts: list[tuple[int, _Series]]) -> _Series:
    """The sum of c * s over the (c, s) in ``parts``; a single part is passed through."""
    if len(parts) == 1:
        c, (val, coeffs) = parts[0]
        return val, coeffs if c == 1 else [c * v for v in coeffs]
    low = min(s[0] for _, s in parts)
    out: list[int] = []
    for c, (val, coeffs) in parts:
        start = val - low
        end = start + len(coeffs)
        out.extend([0] * (end - len(out)))
        out[start:end] = map(add, out[start:end], map(c.__mul__, coeffs) if c != 1 else coeffs)
    return low, out


def _powers(base: _Series, exponents: set[int], keep: int) -> dict[int, _Series]:
    """base^e for each e in ``exponents``, each through ``keep`` degrees above its valuation.

    The stage asks for the gaps between the exponents that it sums by Horner's
    rule, so a gap above 1 comes only from sparse exponents, and for the
    derivative factors.  ``base`` has a nonzero leading coefficient a_0, so
    val(base^e) = e val(base) exactly, and coefficients of base above
    val(base) + keep never reach the kept degrees.  Exponent 1 is base itself;
    a higher one is J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) on
    the coefficients a_j of base and g_k of base^e:

        k a_0 g_k = sum over j >= 1 of ((e + 1) j - k) a_j g_(k-j),

    an exact division, since e >= 0 and base^e has integer coefficients.
    Exponent 0 gives (0, [1]) without reading a_0, so the zero series has it.
    """
    val, a = base[0], base[1][: keep + 1]
    n, out = len(a) - 1, {}
    for e in exponents:
        if e == 1:
            out[e] = (val, a)
            continue
        g = [a[0] ** e if e else 1]
        for k in range(1, min(keep, e * n) + 1):
            acc = sum(((e + 1) * j - k) * a[j] * g[k - j] for j in range(1, min(k, n) + 1))
            g.append(acc // (k * a[0]))
        out[e] = (e * val, g)
    return out


def _divide(w: list[int], d: list[int], terms: int, scale: Fraction) -> list[Fraction]:
    """The first ``terms`` coefficients of scale * w / d, both read from their valuations.

    With scale = sn / sd, Q_k = sn q_k d0^(k+1) = sn w_k d0^k - sum over j >= 1
    of d_j d0^(j-1) Q_(k-j) is an integer: the scale's numerator enters once,
    in sn w, and its denominator starts the chain sd d0^(k+1), so each output
    is the one reduced fraction Q_k / (sd d0^(k+1)).  Those reductions, one
    gcd per coefficient, are the floor of an order-256 call.
    """
    d0, out, quotient = d[0], [], []
    steps = [(j, c * d0 ** (j - 1)) for j, c in enumerate(d) if j and c]
    w, power, den = [c * scale.numerator for c in w[:terms]], 1, scale.denominator
    for k in range(terms):
        acc = 0
        if k < len(w):
            acc, power = w[k] * power, power * d0
        for j, e in steps:
            if j > k:
                break
            acc -= e * quotient[k - j]
        den *= d0
        quotient.append(acc)
        out.append(Fraction(acc, den))
    return out


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
    ((nx, dx, sx), (ndx, ddx, sdx)), ((ny, dy, sy), (ndy, ddy, sdy)) = _factors(px), _factors(py)
    curves = (sx, sy, sdx, sdy)
    # A differential of a constant curve component kills its terms.
    terms = [t for t in terms if not ((t[2] and not sdx[1]) or (t[3] and not sdy[1]))]
    if not terms:
        return LaurentJet()
    vx = max(0, -min(t[0] for t in terms))
    vy = max(0, -min(t[1] for t in terms))
    # Per term: the exponents of (px, py, px', py'), the scalar with their
    # contents as num / d, and the valuation and degree of its product.
    (lx, hx), (ly, hy), (ldx, hdx), (ldy, hdy) = [(v, v + len(s) - 1) for v, s in curves]
    scaled, vals, degs = [], [], []
    for i, j, p, q, c in terms:
        a, b = i + vx, j + vy
        scaled.append((a, b, p, q, c.numerator * nx ** a * ny ** b * ndx ** p * ndy ** q,
                       c.denominator * dx ** a * dy ** b * ddx ** p * ddy ** q))
        vals.append(a * lx + b * ly + p * ldx + q * ldy)
        degs.append(a * hx + b * hy + p * hdx + q * hdy)
    # W times den, grouped as sum over (p, q) of px'^p py'^q sum over a of px^a
    # sum over b of c py^b, every c an integer.
    den = lcm(*[t[5] for t in scaled])
    slots: dict[tuple[int, int], dict[int, list[tuple[int, int]]]] = {}
    for a, b, p, q, num, d in scaled:
        slots.setdefault((p, q), {}).setdefault(a, []).append((b, num * (den // d)))
    lo, deg_w = min(vals), max(degs)
    top = min(lo + order, deg_w)
    while True:
        w_val, w = _stripped(_evaluate(slots, curves, top - lo, top))
        if top == deg_w or (w and w_val + order <= top):
            break
        # Cancellation: raise the bound to what val(W) needs, or double its
        # window while W vanishes through it; at order 0 that window starts
        # empty, so the bound grows by at least one degree.
        top = min(deg_w, w_val + order if w else max(top + 1, 2 * top - lo))
    if not w:
        return LaurentJet()
    d_val, d = _times(_powers(sx, {vx}, order)[vx], _powers(sy, {vy}, order)[vy],
                      vx * sx[0] + vy * sy[0] + order)
    scale = Fraction(dx ** vx * dy ** vy, den * nx ** vx * ny ** vy)
    return LaurentJet(w_val - d_val, _divide(w, d, order + 1, scale))


def _descent(exponents) -> list[tuple[int, int]]:
    """(e, f) for each exponent e from the highest down, f the next one below it or 0."""
    down = sorted(exponents, reverse=True)
    return list(zip(down, down[1:] + [0]))


def _evaluate(slots, curves: tuple[_Series, ...], keep: int, top: int) -> _Series:
    """W through degree ``top``, every term of which has valuation >= top - keep.

    Horner's rule in px, slot by slot: for the exponents a present, from the
    highest down to 0, acc = acc px^(a - f) + sum over b of c py^b, f the next
    exponent below a or 0; each py^b is the one below it times py to the gap.
    A gap of 1 is the curve itself, and only sparse exponents take a higher
    power from ``_powers``.  Every product stops at the degree that can still
    reach ``top``: the slot's bound less f val(px) for the f still to come.
    """
    px, py, dpx, dpy = curves
    steps = {key: _descent(rows) for key, rows in slots.items()}
    x_gaps = _powers(px, {a - f for down in steps.values() for a, f in down}, keep)
    y_down = _descent({b for rows in slots.values() for row in rows.values() for b, _ in row})
    y_gaps = _powers(py, {b - f for b, f in y_down}, keep)
    y_pows, power = {}, (0, [1])
    for b, f in reversed(y_down):
        power = y_pows[b] = _times(power, y_gaps[b - f], b * py[0] + keep)
    dx_pows = _powers(dpx, {p for p, _ in slots}, keep)
    dy_pows = _powers(dpy, {q for _, q in slots}, keep)
    parts = []
    for (p, q), rows in slots.items():
        factor = _times(dx_pows[p], dy_pows[q], p * dpx[0] + q * dpy[0] + keep)
        bound, acc = top - factor[0], None
        for a, f in steps[p, q]:
            row = [(c, y_pows[b]) for b, c in rows[a]]
            acc = _combine(row if acc is None else [(1, acc), *row])
            acc = _times(acc, x_gaps[a - f], bound - f * px[0])
        parts.append((1, _times(acc, factor, top)))
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


# The half-line's second curve: its tensors are the q = 0 face of the quadrant's,
# pulled back along (P, 1).
_CONSTANT = LaurentJet(0, (1,))


def pullback_halfline(
    tensor: HalfLineTensor, plot: PlotGerm, order: int = DEFAULT_ORDER
) -> SmoothnessVerdict:
    """Pull coeff(x) dx^k back along a plot germ and judge smoothness at t = 0."""
    order = _read_order(index(order))
    if isinstance(plot, FlatGerm):
        # Flat curves tame any pole up to the capacity; beyond it the jet calculus
        # cannot decide, so no verdict is fabricated.
        if tensor.pole_order > capacity(tensor.degree):
            return SmoothnessVerdict(Status.FLAT_INDETERMINATE)
        return SmoothnessVerdict(Status.FLAT_SMOOTH)
    terms = [(d, 0, tensor.degree, 0, c) for d, c in tensor.coeff.terms()]
    witness = _pull_back(terms, _curve(plot), _CONSTANT, order)
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
    order = _read_order(index(order))
    if isinstance(germ.px, FlatGerm) or isinstance(germ.py, FlatGerm):
        raise ValueError("flat components are not supported in path pullback")
    terms = []
    for (p, q), jet in tensor.components.items():
        n = comb(p + q, p)
        terms += [(i, j, p, q, c if n == 1 else n * c) for i, j, c in jet.terms()]
    witness = _pull_back(terms, _curve(germ.px), _curve(germ.py), order)
    boundary = isinstance(germ.px, BoundaryGerm) or isinstance(germ.py, BoundaryGerm)
    return _verdict(witness, boundary)
