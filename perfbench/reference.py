"""Independent exact references for every benchmark operation.

``expected`` derives each verdict from the generator's structured data with
plain ``Fraction`` arithmetic and closed formulas, never through cornerjet.
``observed`` reduces the program's result to the same shape, so a check is one
equality.  For a CLI operation the reference gives the exit code (0 accepts,
2 rejects); the runner also compares its stdout with ``cornerjet.cli.run``
in-process.
"""

from __future__ import annotations

from fractions import Fraction

# cornerjet.metric.DEFAULT_FAMILY, restated: boundary germs t^(2m) with unit 1
# for m = 1, 2, 3, then interior germs x0 + t.
METRIC_BOUNDARY_MS = (1, 2, 3)
METRIC_INTERIOR_POINTS = (Fraction(1, 2), Fraction(1), Fraction(2))


def _evaluate(coeff: dict[int, Fraction], x: Fraction) -> Fraction:
    return sum((c * x ** d for d, c in coeff.items()), Fraction(0))


def _boundary_pullback(k: int, coeff: dict, germ: dict) -> tuple:
    """Valuation 2m*val(coeff) + k(2m-1), leading c_v * u0^v * (2m*u0)^k."""
    m, u0 = germ["m"], germ["unit"][0]
    v = min(coeff)
    val = 2 * m * v + k * (2 * m - 1)
    lead = coeff[v] * u0 ** v * (2 * m * u0) ** k
    if val >= 0:
        return ("smooth", 0, val, val, lead)
    return ("pole", -val, None, val, lead)


def _interior_pullback(k: int, coeff: dict, germ: dict) -> tuple:
    """Constant term coeff(x0) * x'(0)^k."""
    return ("smooth", 0, None, _evaluate(coeff, germ["x0"]) * germ["jet"][1] ** k)


def _metric(coeff: dict) -> tuple:
    v = min(coeff)
    for m in METRIC_BOUNDARY_MS:
        val = 2 * m * v + 2 * (2 * m - 1)
        leading = coeff[v] * 4 * m * m
        value = leading if val == 0 else Fraction(0)
        if leading < 0:
            return (False, "positivity", ("boundary", m), value, leading)
        if value != 0:
            return (False, "definiteness-zero-required", ("boundary", m), value, None)
    for x0 in METRIC_INTERIOR_POINTS:
        value = _evaluate(coeff, x0)
        if value < 0:
            return (False, "positivity", ("interior", x0), value, None)
        if value == 0:
            return (False, "definiteness-nonzero-required", ("interior", x0), value, None)
    return (True,)


def _capacity(k: int, p: int, m_max: int) -> tuple:
    margins = tuple(k * (2 * m - 1) - 2 * m * p for m in range(1, m_max + 1))
    return (margins, min(margins) >= 0, 1 + margins.index(min(margins)))


def _quadrant_path_constant(parts: dict, px: dict, py: dict) -> Fraction:
    """Constant term of a(px,py) px'^2 + b(px,py) py'^2 + 2c(px,py) px'py'.

    Only the axial pole terms (along a boundary component with m = 1) and the
    terms that survive at the contact point of the boundary component
    contribute; the cross term always vanishes there.
    """
    swap = px["type"] != "boundary"   # then y is the boundary variable
    boundary, interior = (py, px) if swap else (px, py)
    pole, tangential = (parts["b"], parts["a"]) if swap else (parts["a"], parts["b"])
    z0, z1 = interior["x0"], interior["jet"][1]
    total = Fraction(0)
    for (i, j), c in tangential.items():
        if swap:
            i, j = j, i
        if i == 0:
            total += c * z0 ** j * z1 ** 2
    if boundary["m"] == 1:
        u0 = boundary["unit"][0]
        for (i, j), c in pole.items():
            if swap:
                i, j = j, i
            if i == -1:
                total += 4 * u0 * c * z0 ** j
    return total


def _cli_exit(d: dict) -> int:
    """Exit code of a generated CLI call: 0 for an accepting verdict, 2 for a rejecting one."""
    command = d["command"]
    if command == "pullback":
        smooth = d["germ"]["type"] == "interior" or \
            _boundary_pullback(d["k"], d["coeff"], d["germ"])[0] == "smooth"
    elif command == "decompose":   # a pole of order at most k // 2 splits off
        smooth = d["space"] == "quadrant" or -min(d["coeff"]) <= d["k"] // 2
    elif command == "verify-capacity":
        smooth = _capacity(d["k"], d["p"], d["m_max"])[1]
    elif command == "check-metric":
        smooth = _metric(d["coeff"])[0]
    elif command == "parity":
        smooth = d["kind"] == "valid"
    else:   # capacity always answers; gl-check gets nonnegative polynomials only
        smooth = True
    return 0 if smooth else 2


def expected(op):
    """The reference verdict of an op, from its generator data alone."""
    d = op.data
    if op.kind == "cli":
        return _cli_exit(d)
    if op.kind == "boundary":
        return _boundary_pullback(d["k"], d["coeff"], d["germ"])
    if op.kind == "interior":
        return _interior_pullback(d["k"], d["coeff"], d["germ"])
    if op.kind == "metric":
        return _metric(d["coeff"])
    if op.kind == "decompose":
        return (2, dict(d["coeff"]), op.order)
    if op.kind == "capacity":
        return _capacity(d["k"], d["p"], d["m_max"])
    if op.kind == "valid":
        return (d["parts"], True, "smooth", _quadrant_path_constant(d["parts"], d["px"], d["py"]))
    if op.kind in ("cross-pole", "wrong-axis"):
        return ("rejected", False)
    raise ValueError(op.kind)


def _terms2(jet) -> dict:
    return {(i, j): c for i, j, c in jet.terms()}


def _plot_id(plot) -> tuple:
    if hasattr(plot, "m"):
        return ("boundary", plot.m)
    return ("interior", plot.x0)


def observed(op, result):
    """The program's result reduced to the shape ``expected`` returns."""
    if op.kind == "cli":
        return result[0]
    if op.kind == "boundary":
        w = result.witness
        return (result.status.value, result.pole_order, result.vanishing_order,
                w.valuation, w.coeffs[0])
    if op.kind == "interior":
        return (result.status.value, result.pole_order, result.vanishing_order,
                result.witness.coefficient(0))
    if op.kind == "metric":
        if result.accepted:
            return (True,)
        w = result.witness
        return (False, w.clause, _plot_id(w.plot), w.value, w.leading)
    if op.kind == "decompose":
        back = result.reconstruct()
        return (back.degree, dict(back.coeff.terms()), result.regular.order)
    if op.kind == "capacity":
        return (result.margins, result.admissible, result.binding_m)
    decomposition, parity, verdict = result
    if op.kind == "valid":
        back = decomposition.reconstruct()
        parts = {"a": _terms2(back.a), "b": _terms2(back.b), "c": _terms2(back.c)}
        return (parts, parity.rule_holds, verdict.status.value, verdict.witness.coefficient(0))
    return ("rejected" if isinstance(decomposition, Exception) else "accepted",
            parity.rule_holds)
