"""Pullback of tensors along plot germs, with exact smoothness verdicts.

A tensor coeff(x) dx^k pulled back along a curve P(t) has coefficient
coeff(P(t)) * P'(t)^k; whether that is smooth at the contact point is decided
purely by the valuation of the resulting Laurent jet in t, never by magnitude
thresholds.

Truncation bookkeeping: plot composition can only be carried out to a finite
t-degree, so intermediate results here are pairs (jet, top) where ``top`` is
the highest degree on which the jet is exact (None when the jet is an exact
polynomial).  The tiny windowed algebra below keeps those tops honest through
products and sums; a verdict is only ever derived from a valuation that the
window actually exposes.

The powers of a curve that composition needs are tabulated once per window
(``_Powers``) and shared by every coefficient composed along that curve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .jets import (
    DEFAULT_ORDER,
    Jet1,
    LaurentJet,
    LaurentJet2,
    TruncationError,
    _convolve,
    differentiate,
)
from .plots import BoundaryGerm, FlatGerm, InteriorGerm, PairGerm, PlotGerm, SqMap2
from .tensors import HalfLineTensor, QuadrantTensor

__all__ = [
    "Status",
    "SmoothnessVerdict",
    "NotSmoothError",
    "SquarePullback",
    "pullback_halfline",
    "pullback_form",
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


# -- windowed jets: (jet, top) with top = highest exact degree, None = exact --

_Windowed = tuple[LaurentJet, "int | None"]


def _val_lb(jet: LaurentJet, top: int | None) -> int:
    if not jet.is_zero:
        return jet.valuation
    return 0 if top is None else top + 1


def _wmul(a: _Windowed, b: _Windowed) -> _Windowed:
    ja, ta = a
    jb, tb = b
    if (ja.is_zero and ta is None) or (jb.is_zero and tb is None):
        return LaurentJet(), None
    tops = []
    if ta is not None:
        tops.append(ta + _val_lb(jb, tb))
    if tb is not None:
        tops.append(tb + _val_lb(ja, ta))
    top = min(tops) if tops else None
    if ja.is_zero or jb.is_zero:
        return LaurentJet(), top
    val = ja.valuation + jb.valuation
    n = len(ja.coeffs) + len(jb.coeffs) - 1
    if top is not None:
        n = min(n, top - val + 1)
    return LaurentJet(val, _convolve(ja.coeffs, jb.coeffs, n)), top


def _wadd(a: _Windowed, b: _Windowed) -> _Windowed:
    ja, ta = a
    jb, tb = b
    tops = [t for t in (ta, tb) if t is not None]
    top = min(tops) if tops else None
    s = ja + jb
    if top is not None:
        s = s.truncated(top)
    return s, top


def _series_inverse(coeffs: tuple[Fraction, ...], n_terms: int) -> list[Fraction]:
    if coeffs[0] == 0:
        raise ZeroDivisionError("cannot invert a series with zero constant term")
    inv = [Fraction(1) / coeffs[0]]
    for n in range(1, n_terms):
        acc = Fraction(0)
        for k in range(max(0, n - len(coeffs) + 1), n):
            c = coeffs[n - k] if n - k < len(coeffs) else Fraction(0)
            if c != 0:
                acc += inv[k] * c
        inv.append(-acc / coeffs[0])
    return inv


class _Powers:
    """Powers of a curve's unit part for one window, shared by every coefficient
    composed along that curve.

    The unit part is ``unit`` for a boundary germ t^(2m) unit(t) and the whole
    jet for an interior germ.  ``exact(d)`` is its polynomial d-th power;
    ``windowed(d)`` is its d-th power in the truncation ring of order
    ``window``, negative d through one series inverse.  Each chain grows on
    demand and is never rebuilt.
    """

    def __init__(self, plot: PlotGerm, window: int):
        if isinstance(plot, BoundaryGerm):
            base = plot.unit
        elif isinstance(plot, InteriorGerm):
            base = plot.jet
        else:
            raise TypeError("cannot compose along %r" % (plot,))
        self.plot = plot
        self.window = window
        self._poly = base.to_laurent()
        self._exact = [LaurentJet(0, (1,))]
        self._base = base.extended(window) if base.order < window else base.truncated(window)
        self._inverse: Jet1 | None = None
        one = Jet1.constant(1, window)
        self._up = [one]
        self._down = [one]

    def exact(self, d: int) -> LaurentJet:
        while len(self._exact) <= d:
            self._exact.append(self._exact[-1] * self._poly)
        return self._exact[d]

    def windowed(self, d: int) -> Jet1:
        if d >= 0:
            chain, step = self._up, self._base
        else:
            if self._inverse is None:
                self._inverse = Jet1(_series_inverse(self._poly.coeffs, self.window + 1))
            chain, step, d = self._down, self._inverse, -d
        while len(chain) <= d:
            chain.append(chain[-1] * step)
        return chain[d]


def _compose_plot(coeff: LaurentJet, powers: _Powers) -> _Windowed:
    """coeff evaluated along the curve whose unit powers ``powers`` holds.

    Polynomial coefficients (valuation >= 0) compose exactly (top None).
    With a pole, the unit part of the curve must be inverted, which
    truncates: for a boundary germ t^(2m) u(t) the result is then exact on
    [2m * val(coeff), 2m * val(coeff) + window], for an interior germ through
    degree ``window``.
    """
    if coeff.is_zero:
        return LaurentJet(), None
    plot, window = powers.plot, powers.window
    if isinstance(plot, BoundaryGerm):
        two_m = 2 * plot.m
        if coeff.valuation >= 0:
            total = LaurentJet()
            for d, c in coeff.terms():
                total = total + powers.exact(d).shifted(two_m * d) * c
            return total, None
        top = two_m * coeff.valuation + window
        acc: _Windowed = (LaurentJet(), top)
        for d, c in coeff.terms():
            piece = LaurentJet(two_m * d, powers.windowed(d).coeffs) * c
            acc = _wadd(acc, (piece.truncated(top), top))
        return acc
    if coeff.valuation >= 0:
        total = LaurentJet()
        for d, c in coeff.terms():
            total = total + powers.exact(d) * c
        return total, None
    acc_jet = Jet1.zero(window)
    for d, c in coeff.terms():
        acc_jet = acc_jet + powers.windowed(d) * c
    return acc_jet.to_laurent(), window


def _curve_derivative(plot: PlotGerm) -> LaurentJet:
    if isinstance(plot, BoundaryGerm):
        two_m = 2 * plot.m
        return LaurentJet(
            two_m - 1,
            tuple((two_m + i) * c for i, c in enumerate(plot.unit.coeffs)),
        )
    if isinstance(plot, InteriorGerm):
        if plot.jet.order == 0:
            return LaurentJet()
        return differentiate(plot.jet).to_laurent()
    raise TypeError("cannot differentiate %r" % (plot,))


def _verdict_from_witness(
    witness: LaurentJet,
    top: int | None,
    boundary: bool,
    zero_is_exact: bool,
) -> SmoothnessVerdict:
    if witness.is_zero:
        if not zero_is_exact:
            raise TruncationError(
                "insufficient truncation: pullback vanishes through degree %s,"
                " valuation undetermined" % (top,)
            )
        return SmoothnessVerdict(Status.SMOOTH, witness=witness)
    val = witness.valuation
    vanishing = val if (boundary and val >= 0) else None
    if val >= 0:
        return SmoothnessVerdict(Status.SMOOTH, witness=witness, vanishing_order=vanishing)
    return SmoothnessVerdict(
        Status.POLE, witness=witness, pole_order=-val, vanishing_order=None
    )


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
    composed = _compose_plot(tensor.coeff, _Powers(plot, order))
    dpk = _curve_derivative(plot) ** k
    witness, top = _wmul(composed, (dpk, None))
    zero_is_exact = top is None or tensor.coeff.is_zero or (k > 0 and dpk.is_zero)
    if not witness.is_zero:
        witness = witness.truncated(witness.valuation + order)
    return _verdict_from_witness(
        witness, top, isinstance(plot, BoundaryGerm), zero_is_exact
    )


def pullback_form(
    form: HalfLineTensor, plot: PlotGerm, order: int = DEFAULT_ORDER
) -> SmoothnessVerdict:
    """Pullback for 1-forms; reports the order of vanishing on boundary germs."""
    if form.degree != 1:
        raise ValueError("pullback_form requires a 1-form (degree 1)")
    return pullback_halfline(form, plot, order)


class SquarePullback(NamedTuple):
    """Coefficients of du^2, dv^2 and du dv after substituting (x,y) = (u^2,v^2)."""

    du2: LaurentJet2
    dv2: LaurentJet2
    dudv: LaurentJet2


def pullback_sq2(tensor: QuadrantTensor, order: int = DEFAULT_ORDER) -> SquarePullback:
    """Pull a quadrant tensor back along (u, v) -> (u^2, v^2).

    The substitution doubles every exponent, so the result is exact:
    du^2 gets 4 u^2 a(u^2, v^2), dv^2 gets 4 v^2 b(u^2, v^2) and du dv gets
    8 u v c(u^2, v^2) (the displayed coefficient, counting both du (x) dv
    and dv (x) du).
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    for name, component in (("dx^2", tensor.a), ("dy^2", tensor.b), ("dx*dy", tensor.c)):
        vx, vy = component.valuations
        dx, dy = component.max_degrees
        if max(abs(vx), abs(vy), dx, dy) > order:
            raise TruncationError(
                "insufficient truncation: %s coefficient has exponents beyond order %d"
                % (name, order)
            )
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
    if isinstance(germ, SqMap2):
        raise TypeError("use pullback_sq2 for the two-parameter square map")
    if order < 2:
        raise ValueError("order must be at least 2")
    for component in (germ.px, germ.py):
        if isinstance(component, FlatGerm):
            raise ValueError("flat components are not supported in path pullback")
    dx = _curve_derivative(germ.px)
    dy = _curve_derivative(germ.py)
    factors = (
        (tensor.a, dx * dx),
        (tensor.b, dy * dy),
        (tensor.c, dx * dy * 2),
    )
    window = order
    for _ in range(6):
        # Built once per window and shared by the three components.
        x_powers = _Powers(germ.px, window)
        y_powers = _Powers(germ.py, window)
        x_parts: dict[int, _Windowed] = {}
        acc: _Windowed = (LaurentJet(), None)
        for component, deriv in factors:
            part = _evaluate_two_var(component, x_powers, y_powers, x_parts)
            acc = _wadd(acc, _wmul(part, (deriv, None)))
        witness, top = acc
        if top is None or (not witness.is_zero and top - witness.valuation >= order):
            if not witness.is_zero:
                witness = witness.truncated(witness.valuation + order)
            zero_is_exact = (
                top is None
                or all(c.is_zero for c, _ in factors)
                or (dx.is_zero and dy.is_zero)
            )
            boundary = isinstance(germ.px, BoundaryGerm) or isinstance(
                germ.py, BoundaryGerm
            )
            return _verdict_from_witness(witness, top, boundary, zero_is_exact)
        window *= 2
    raise TruncationError("insufficient truncation: window did not stabilize")


def _evaluate_two_var(
    component: LaurentJet2,
    x_powers: _Powers,
    y_powers: _Powers,
    x_parts: dict[int, _Windowed],
) -> _Windowed:
    """component(px, py) as the sum over x-slices of px^i * slice_i(py).

    ``x_parts`` memoises the compositions px^i for the current window.
    """
    if component.is_zero:
        return LaurentJet(), None
    acc: _Windowed = (LaurentJet(), None)
    for i in sorted({i for i, _, _ in component.terms()}):
        if i not in x_parts:
            x_parts[i] = _compose_plot(LaurentJet(i, (1,)), x_powers)
        y_part = _compose_plot(component.slice_x(i), y_powers)
        acc = _wadd(acc, _wmul(x_parts[i], y_part))
    return acc
