"""Floating-point oracle complementing the exact engine.

Sample functions are polynomials with exact rational coefficients (optionally
certified nonnegative as sums of squares), so differentiation is exact and
double precision enters only at grid evaluation.  The module verifies the
discriminant inequality f'(t)^2 <= 2 sup|f''| f(t) for nonnegative f on a
grid.

Grids and values are lists of Python floats, computed in the order of the
usual array routines (linspace, polyval, max) so that reports keep the same
bits: Horner's rule from the highest degree, grid points ``i*step + a`` with
the last one set to ``b``, squares as ``v*v``, and a NaN anywhere makes a
minimum or maximum NaN.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .jets import Record, as_fraction

__all__ = [
    "SampledFunction",
    "GlaeserLandauReport",
    "glaeser_landau_check",
]


def _with_derivatives(q: tuple[Fraction, ...]) -> list[tuple[Fraction, ...]]:
    """The coefficients of q, q' and q''."""
    out = [q]
    for _ in range(2):
        out.append(tuple(i * c for i, c in enumerate(out[-1]) if i) or (Fraction(0),))
    return out


def _check_float_range(values, what: str) -> None:
    try:
        for v in values:
            float(v)
    except OverflowError:
        raise ValueError("%s beyond the float range" % what) from None


def _poly_values(coeffs: tuple[Fraction, ...], grid: list[float]) -> list[float]:
    values = [0.0] * len(grid)
    for c in map(float, reversed(coeffs)):
        values = [v * x + c for v, x in zip(values, grid)]
    return values


def _reduce(pick, values: list[float]) -> float:
    """``pick(values)`` for min or max, NaN when any value is NaN."""
    return math.nan if any(v != v for v in values) else pick(values)


def _sup_abs(values: list[float]) -> float:
    return _reduce(max, [abs(v) for v in values])


class SampledFunction(Record):
    """Polynomial sample function on a rational interval.

    ``squares`` holds the sum-of-squares representation when there is one;
    such functions are nonnegative everywhere by construction and are
    evaluated square by square (f = sum q^2, f' = sum 2 q q', f'' = sum
    2(q'^2 + q q'')), which avoids the catastrophic cancellation the expanded
    coefficients suffer near high-multiplicity roots.  Plain polynomials get
    their nonnegativity checked on the grid instead.  Every coefficient and
    endpoint is read with ``as_fraction``, which refuses a float.
    """

    coeffs: tuple[Fraction, ...]
    interval: tuple[Fraction, Fraction]
    grid_n: int = 1024
    squares: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        bind = object.__setattr__
        bind(self, "coeffs", tuple(map(as_fraction, self.coeffs)))
        a, b = (as_fraction(e, "interval endpoint") for e in self.interval)
        bind(self, "interval", (a, b))
        if self.squares is not None:
            bind(self, "squares", tuple(tuple(map(as_fraction, q)) for q in self.squares))
        if a >= b:
            raise ValueError("interval must satisfy a < b")
        if self.grid_n < 16:
            raise ValueError("grid_n must be at least 16")
        # Everything the oracle evaluates in floats must convert to a float.
        _check_float_range(self.interval, "interval endpoint")
        for q in (self.coeffs,) if self.squares is None else self.squares:
            _check_float_range(sum(_with_derivatives(q), ()), "coefficient")

    @classmethod
    def polynomial(cls, coeffs, interval, grid_n: int = 1024) -> "SampledFunction":
        return cls(coeffs, interval, grid_n)

    @classmethod
    def sum_of_squares(cls, squares, interval, grid_n: int = 1024) -> "SampledFunction":
        """f = q_1^2 + ... + q_r^2, kept factored and also expanded exactly."""
        kept = tuple(tuple(map(as_fraction, q)) for q in squares)  # exact, to expand
        total: dict[int, Fraction] = {}
        for qc in kept:
            for i, a in enumerate(qc):
                for j, b in enumerate(qc):
                    total[i + j] = total.get(i + j, Fraction(0)) + a * b
        degree = max(total, default=0)
        coeffs = tuple(total.get(d, Fraction(0)) for d in range(degree + 1))
        return cls(coeffs, interval, grid_n, kept)

    def grid(self, enlargement: float = 0.0) -> list[float]:
        a, b = float(self.interval[0]), float(self.interval[1])
        if enlargement:
            pad = enlargement * (b - a)
            a, b = a - pad, b + pad
        div = self.grid_n - 1
        step = (b - a) / div
        # A step that underflows to zero: linspace scales i/div by b - a instead.
        points = [i * step + a if step else i / div * (b - a) + a for i in range(div + 1)]
        points[-1] = b
        return points

    def sample(self, grid: list[float]) -> tuple[list[float], list[float], list[float]]:
        """f, f' and f'' on ``grid``."""
        if self.squares is None:
            return tuple(_poly_values(c, grid) for c in _with_derivatives(self.coeffs))
        f = df = ddf = [0.0] * len(grid)
        for q in self.squares:
            qv, dqv, ddqv = (_poly_values(c, grid) for c in _with_derivatives(q))
            f = [t + v * v for t, v in zip(f, qv)]
            df = [t + 2.0 * v * dv for t, v, dv in zip(df, qv, dqv)]
            ddf = [t + 2.0 * (dv * dv + v * ddv) for t, v, dv, ddv in zip(ddf, qv, dqv, ddqv)]
        return f, df, ddf


class GlaeserLandauReport(Record):
    """Grid verification of f'(t)^2 <= 2 C f(t) with C = sup |f''|.

    C is a grid supremum (of a polynomial), so it may undershoot the true sup
    by an interpolation error that the tolerance absorbs; an optional
    enlargement of the interval covers Taylor excursions past its ends.
    """

    C: float
    max_violation: float
    passed: bool
    tol: float


def check_tolerance(tol: float) -> None:
    """Refuse a tolerance that is NaN, infinite or negative."""
    if not math.isfinite(tol) or tol < 0:
        raise ValueError("tolerance must be finite and nonnegative, got %r" % (tol,))


def glaeser_landau_check(
    f: SampledFunction, tol: float = 1e-9, enlargement: float = 0.0
) -> GlaeserLandauReport:
    check_tolerance(tol)
    fv, dv, ddv = f.sample(f.grid())
    if f.squares is None and _reduce(min, fv) < -tol:
        raise ValueError("function not nonnegative on interval")
    if enlargement:
        ddv = f.sample(f.grid(enlargement=enlargement))[2]
    c_sup = _sup_abs(ddv)
    worst = _reduce(max, [d * d - 2.0 * c_sup * v for d, v in zip(dv, fv)])
    return GlaeserLandauReport(C=c_sup, max_violation=worst, passed=worst <= tol, tol=tol)
