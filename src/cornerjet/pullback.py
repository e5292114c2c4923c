"""Pullback of tensors along plot germs, with exact smoothness verdicts.

A tensor coeff(x) dx^k pulled back along a curve P(t) has coefficient
coeff(P(t)) * P'(t)^k; whether that is smooth at the contact point is decided
purely by the valuation of the resulting Laurent jet in t, never by magnitude
thresholds.

Clearing denominators: every curve germ is a polynomial in t and every
coefficient a Laurent polynomial, so a sum of terms c x^i y^j dx^p dy^q pulls
back along (px, py) to W / D with D = px^vx py^vy, where vx and vy are the
deepest poles in x and y, and

    W = sum c px^(i+vx) py^(j+vy) px'^p py'^q,

a polynomial.  The valuation of each term of W is known exactly from the
curve valuations; W is computed through degree lo + order, lo the smallest
term valuation, from powers that keep ``top - lo`` coefficients above their
valuation.  Only when cancellation hides val(W) does the bound grow, and never
past deg W, so every verdict is exact.  The witness is the one series division
W / D, reported through the requested order above its valuation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .jets import DEFAULT_ORDER, LaurentJet, LaurentJet2, _convolve, laurent_divide
from .plots import BoundaryGerm, FlatGerm, InteriorGerm, PairGerm, PlotGerm
from .tensors import HalfLineTensor, QuadrantTensor

__all__ = [
    "Status",
    "SmoothnessVerdict",
    "NotSmoothError",
    "SquarePullback",
    "pullback_halfline",
    "pullback_sq2",
    "pullback_quadrant_path",
]


class Status(enum.Enum):
    SMOOTH = "smooth"
    POLE = "pole"
    FLAT_SMOOTH = "flat-smooth"
    FLAT_INDETERMINATE = "flat-indeterminate"


@dataclass(frozen=True)
class SmoothnessVerdict:
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
    curve; ``parity`` holds the square-map parity report for quadrant
    rejections.
    """

    def __init__(self, message: str, verdict: SmoothnessVerdict | None = None, parity=None):
        super().__init__(message)
        self.verdict = verdict
        self.parity = parity


# -- the one evaluation routine ------------------------------------------------

_ONE = LaurentJet(0, (1,))

# A tensor term c x^i y^j dx^p dy^q as (i, j, p, q, c).
_Term = tuple[int, int, int, int, Fraction]


def _mul_through(a: LaurentJet, b: LaurentJet, top: int) -> LaurentJet:
    """The product a * b through degree ``top``; nothing above it is formed."""
    if a.is_zero or b.is_zero:
        return LaurentJet()
    val = a.valuation + b.valuation
    if top < val:
        return LaurentJet()
    return LaurentJet(val, _convolve(a.coeffs, b.coeffs, top - val + 1))


def _powers(base: LaurentJet, exponents: set[int], keep: int) -> dict[int, LaurentJet]:
    """base^e for each e in ``exponents``, each through ``keep`` degrees above its valuation.

    ``base`` has a nonzero leading coefficient, so val(base^e) = e val(base)
    exactly, and coefficients of base above val(base) + keep never reach the
    kept degrees.
    """
    def times(a: LaurentJet, b: LaurentJet) -> LaurentJet:
        return _mul_through(a, b, a.valuation + b.valuation + keep)

    base = base.truncated(base.valuation + keep)
    out = {}
    power, reached = _ONE, 0
    for e in sorted(exponents):
        # From base^reached to base^e: one product for a gap of 1, repeated
        # squaring of the base for a larger gap.
        gap, square = e - reached, base
        while gap:
            if gap & 1:
                power = times(power, square)
            gap >>= 1
            if gap:
                square = times(square, square)
        out[e] = power
        reached = e
    return out


def _derivative(curve: LaurentJet) -> LaurentJet:
    return LaurentJet(
        curve.valuation - 1, [(curve.valuation + i) * c for i, c in enumerate(curve.coeffs)]
    )


def _curve(plot: PlotGerm) -> LaurentJet:
    """A plot germ as the polynomial in t that it is."""
    if isinstance(plot, BoundaryGerm):
        return LaurentJet(2 * plot.m, plot.unit.coeffs)
    if isinstance(plot, InteriorGerm):
        return plot.jet.to_laurent()
    raise TypeError("cannot compose along %r" % (plot,))


def _pull_back(terms: list[_Term], px: LaurentJet, py: LaurentJet, order: int) -> LaurentJet:
    """sum c px^i py^j px'^p py'^q through ``order`` degrees above its valuation.

    Exact: W (the sum with denominators cleared) is built through a degree
    that exposes its valuation, then divided once by D = px^vx py^vy.
    """
    curves = (px, py, _derivative(px), _derivative(py))
    # A differential of a constant curve component kills its terms.
    terms = [
        t for t in terms
        if not ((t[2] and curves[2].is_zero) or (t[3] and curves[3].is_zero))
    ]
    if not terms:
        return LaurentJet()
    vx = max(0, -min(t[0] for t in terms))
    vy = max(0, -min(t[1] for t in terms))
    # W grouped as sum over (p, q) of px'^p py'^q sum over a of px^a sum over b of c py^b.
    slots: dict[tuple[int, int], dict[int, list[tuple[int, Fraction]]]] = {}
    spans = []
    for i, j, p, q, c in terms:
        slots.setdefault((p, q), {}).setdefault(i + vx, []).append((j + vy, c))
        pairs = [(n, f) for n, f in zip((i + vx, j + vy, p, q), curves) if n]
        spans.append(
            (sum(n * f.valuation for n, f in pairs), sum(n * f.degree for n, f in pairs))
        )
    lo = min(v for v, _ in spans)
    deg_w = max(d for _, d in spans)
    top = min(lo + order, deg_w)
    while True:
        w = _evaluate(slots, curves, top - lo, top)
        if top == deg_w or (not w.is_zero and w.valuation + order <= top):
            break
        # Cancellation: raise the bound to what val(W) needs, or double it
        # while W vanishes through it.
        top = min(deg_w, w.valuation + order if not w.is_zero else 2 * top - lo)
    if w.is_zero:
        return w
    d = _mul_through(
        _powers(px, {vx}, order)[vx], _powers(py, {vy}, order)[vy],
        vx * px.valuation + vy * py.valuation + order,
    )
    return laurent_divide(w, d, order + 1)


def _evaluate(slots, curves: tuple[LaurentJet, ...], keep: int, top: int) -> LaurentJet:
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
    w = LaurentJet()
    for (p, q), rows in slots.items():
        factor = _mul_through(
            dx_pows[p], dy_pows[q], p * dpx.valuation + q * dpy.valuation + keep
        )
        slot = LaurentJet()
        for a, row in rows.items():
            inner = LaurentJet()
            for b, c in row:
                inner = inner + y_pows[b] * c
            slot = slot + _mul_through(x_pows[a], inner, top - factor.valuation)
        w = w + _mul_through(slot, factor, top)
    return w


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
    if order < 2:
        raise ValueError("order must be at least 2")
    k = tensor.degree
    if isinstance(plot, FlatGerm):
        # Flat curves tame any pole up to floor(k/2); beyond that the jet
        # calculus cannot decide, so no verdict is fabricated.
        if tensor.pole_order <= k // 2:
            return SmoothnessVerdict(Status.FLAT_SMOOTH)
        return SmoothnessVerdict(Status.FLAT_INDETERMINATE)
    terms = [(d, 0, k, 0, c) for d, c in tensor.coeff.terms()]
    witness = _pull_back(terms, _curve(plot), _ONE, order)
    return _verdict(witness, isinstance(plot, BoundaryGerm))


class SquarePullback(NamedTuple):
    """Coefficients of du^2, dv^2 and du dv after substituting (x,y) = (u^2,v^2)."""

    du2: LaurentJet2
    dv2: LaurentJet2
    dudv: LaurentJet2


def pullback_sq2(tensor: QuadrantTensor) -> SquarePullback:
    """Pull a quadrant tensor back along (u, v) -> (u^2, v^2).

    The substitution doubles every exponent, so the result is exact:
    du^2 gets 4 u^2 a(u^2, v^2), dv^2 gets 4 v^2 b(u^2, v^2) and du dv gets
    8 u v c(u^2, v^2) (the displayed coefficient, counting both du (x) dv
    and dv (x) du).
    """
    return SquarePullback(
        tensor.a.double_degrees().shifted(2, 0) * 4,
        tensor.b.double_degrees().shifted(0, 2) * 4,
        tensor.c.double_degrees().shifted(1, 1) * 8,
    )


def pullback_quadrant_path(
    tensor: QuadrantTensor, germ: PairGerm, order: int = DEFAULT_ORDER
) -> SmoothnessVerdict:
    """Pull a quadrant tensor back along a component-pair curve (px(t), py(t)).

    The dt^2 coefficient is a(px,py) px'^2 + b(px,py) py'^2 + 2 c(px,py) px'py',
    the cross slot contributing once per tensor-factor order.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    for component in (germ.px, germ.py):
        if isinstance(component, FlatGerm):
            raise ValueError("flat components are not supported in path pullback")
    terms = [(i, j, 2, 0, c) for i, j, c in tensor.a.terms()]
    terms += [(i, j, 0, 2, c) for i, j, c in tensor.b.terms()]
    terms += [(i, j, 1, 1, 2 * c) for i, j, c in tensor.c.terms()]
    witness = _pull_back(terms, _curve(germ.px), _curve(germ.py), order)
    boundary = isinstance(germ.px, BoundaryGerm) or isinstance(germ.py, BoundaryGerm)
    return _verdict(witness, boundary)
