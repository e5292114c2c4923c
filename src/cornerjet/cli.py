"""Command dispatch and the stable text/JSON output formats.

Exit codes: 0 when the computation accepts/passes (smooth pullback, accepted
metric, admissible capacity, inequality holds), 2 when it rejects/fails
(pole, rejected metric, capacity exceeded, parity violation, inequality
failure), 1 on usage or parse errors.

JSON mode serializes every exact rational as a "num/den" string; jets are
{"order", "coeffs"} (power series), {"valuation", "coeffs"} (Laurent), or
{"terms": [{"x", "y", "c"}, ...]} (two-variable Laurent).  The only floats,
the gl-check report's, are JSON numbers when finite and otherwise the strings
"inf", "-inf" or "nan" that text mode prints, so the output is strict JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .capacity import capacity, verify_capacity
from .decompose import (
    ParityReport,
    check_gamma_parity,
    decompose_halfline,
    decompose_quadrant,
)
from .jets import DEFAULT_ORDER, Jet1, LaurentJet, LaurentJet2
from .metric import check_metric
from .numeric import SampledFunction, check_tolerance, glaeser_landau_check
from .parser import (
    MAX_EXPONENT,
    ParseError,
    format_plot,
    format_quadrant_tensor,
    parse_plot,
    parse_polynomial,
    parse_rational,
    parse_tensor,
)
from .pullback import (
    NotSmoothError,
    SmoothnessVerdict,
    Status,
    pullback_halfline,
)

ORDER_ENV_VAR = "CORNERJET_ORDER"

# Caps on the sizes a command line may ask for; larger values exit 1 at once.
# With parser.MAX_EXPONENT they bound the work of a short input (each costliest
# case runs in a few seconds).
MAX_ORDER = 256
MAX_M_MAX = 1000
MAX_GRID = 8192

__all__ = [
    "run",
    "main",
    "fraction_str",
    "fraction_from_str",
    "jet1_to_json",
    "jet1_from_json",
    "laurent_to_json",
    "laurent_from_json",
    "laurent2_to_json",
    "laurent2_from_json",
    "verdict_to_json",
    "parity_to_json",
]


# -- JSON encoding of the exact types (and decoding, for round trips) --------


def fraction_str(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


def fraction_from_str(s: str) -> Fraction:
    return Fraction(s)


def jet1_to_json(j: Jet1) -> dict:
    return {"order": j.order, "coeffs": [fraction_str(c) for c in j.coeffs]}


def jet1_from_json(data: dict) -> Jet1:
    coeffs = [fraction_from_str(c) for c in data["coeffs"]]
    if len(coeffs) != data["order"] + 1:
        raise ValueError("jet payload length does not match its order")
    return Jet1(coeffs)


def laurent_to_json(j: LaurentJet) -> dict:
    return {"valuation": j.valuation, "coeffs": [fraction_str(c) for c in j.coeffs]}


def laurent_from_json(data: dict) -> LaurentJet:
    return LaurentJet(data["valuation"], [fraction_from_str(c) for c in data["coeffs"]])


def laurent2_to_json(j: LaurentJet2) -> dict:
    return {
        "terms": [
            {"x": i, "y": jj, "c": fraction_str(c)} for i, jj, c in j.terms()
        ]
    }


def laurent2_from_json(data: dict) -> LaurentJet2:
    return LaurentJet2(
        {(t["x"], t["y"]): fraction_from_str(t["c"]) for t in data["terms"]}
    )


_STATUS_TEXT = {
    Status.SMOOTH: "Smooth",
    Status.POLE: "Pole",
    Status.FLAT_SMOOTH: "FlatSmooth",
    Status.FLAT_INDETERMINATE: "FlatIndeterminate",
}


def verdict_to_json(v: SmoothnessVerdict) -> dict:
    return {
        "status": v.status.value,
        "pole_order": v.pole_order,
        "witness": None if v.witness is None else laurent_to_json(v.witness),
        "vanishing_order": v.vanishing_order,
    }


def parity_to_json(report: ParityReport) -> dict:
    return {
        "components": {
            comp.component: {
                "expected": comp.expected,
                "masses": comp.masses,
                "min_degrees": list(comp.min_degrees) if comp.min_degrees else None,
                "sector_ok": comp.sector_ok,
                "smooth": comp.smooth,
                "ok": comp.ok,
            }
            for comp in report.components()
        },
        "rule_holds": report.rule_holds,
    }


# -- output helpers -----------------------------------------------------------


def _emit(ns, lines: list[str], payload: dict) -> None:
    if ns.format == "json":
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    else:
        print("\n".join(lines))


def _float_to_json(x: float):
    """A finite float as a JSON number; inf, -inf and nan as the strings text mode prints."""
    return x if math.isfinite(x) else repr(x)


def _status_text(v: SmoothnessVerdict) -> str:
    name = _STATUS_TEXT[v.status]
    return "Pole(%d)" % v.pole_order if v.status is Status.POLE else name


def _verdict_lines(v: SmoothnessVerdict) -> list[str]:
    lines = ["status = %s" % _status_text(v)]
    if v.witness is not None:
        lines.append("witness = %s" % v.witness.to_str("t"))
    if v.vanishing_order is not None:
        lines.append("vanishing_order = %d" % v.vanishing_order)
    return lines


def _parity_line(report: ParityReport) -> str:
    bits = [
        "%s %s %s" % (c.component, c.expected, "ok" if c.ok else "VIOLATED")
        for c in report.components()
    ]
    return "parity: " + "; ".join(bits)


def _check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise ParseError("%s %d exceeds the maximum %d" % (name, value, cap))


def _resolve_order(ns) -> int:
    order = ns.order
    if order is None:
        env = os.environ.get(ORDER_ENV_VAR)
        if env is None:
            return DEFAULT_ORDER
        try:
            order = int(env)
        except ValueError:
            raise ParseError("%s must be an integer, got %r" % (ORDER_ENV_VAR, env))
    _check_cap("order", order, MAX_ORDER)
    return order


# -- command handlers ---------------------------------------------------------


def _cmd_decompose(ns) -> int:
    order = _resolve_order(ns)
    tensor = parse_tensor(ns.tensor, ns.space)
    if ns.space == "halfline":
        try:
            result = decompose_halfline(tensor, order=order)
        except NotSmoothError as err:
            lines = ["rejected: %s" % err] + _verdict_lines(err.verdict)
            _emit(ns, lines, {
                "command": "decompose", "space": "halfline", "accepted": False,
                "error": str(err), "witness": verdict_to_json(err.verdict),
            })
            return 2
        _emit(
            ns,
            ["c = %s" % result.c, "regular = %s" % result.regular.to_str("x")],
            {
                "command": "decompose",
                "space": "halfline",
                "accepted": True,
                "c": fraction_str(result.c),
                "regular": jet1_to_json(result.regular),
                "trace": {
                    "g": jet1_to_json(result.trace.g),
                    "h": jet1_to_json(result.trace.h),
                },
            },
        )
        return 0
    try:
        result = decompose_quadrant(tensor, order=order)
    except NotSmoothError as err:
        lines = ["rejected: %s" % err, _parity_line(err.parity)]
        _emit(ns, lines, {
            "command": "decompose", "space": "quadrant", "accepted": False,
            "error": str(err), "parity": parity_to_json(err.parity),
        })
        return 2
    regular = format_quadrant_tensor(
        type(tensor)(result.regular_dx2, result.regular_dy2, result.regular_cross)
    )
    _emit(
        ns,
        [
            "A = %s" % result.A.to_str("y"),
            "B = %s" % result.B.to_str("x"),
            "regular = %s" % regular,
            _parity_line(result.parity_report),
        ],
        {
            "command": "decompose",
            "space": "quadrant",
            "accepted": True,
            "A": jet1_to_json(result.A),
            "B": jet1_to_json(result.B),
            "regular": {
                "dx^2": laurent2_to_json(result.regular_dx2),
                "dy^2": laurent2_to_json(result.regular_dy2),
                "dx*dy": laurent2_to_json(result.regular_cross),
            },
            "parity": parity_to_json(result.parity_report),
        },
    )
    return 0


def _cmd_pullback(ns) -> int:
    order = _resolve_order(ns)
    tensor = parse_tensor(ns.tensor, "halfline")
    plot = parse_plot(ns.plot)
    verdict = pullback_halfline(tensor, plot, order)
    _emit(ns, _verdict_lines(verdict), {
        "command": "pullback",
        "plot": format_plot(plot),
        **verdict_to_json(verdict),
    })
    return 0 if verdict.is_smooth else 2


def _cmd_capacity(ns) -> int:
    value = capacity(ns.k)
    _emit(ns, ["%d" % value], {"command": "capacity", "k": ns.k, "capacity": value})
    return 0


def _cmd_verify_capacity(ns) -> int:
    order = _resolve_order(ns)
    # k and p are the exponents of x^-p dx^k, capped like written exponents.
    _check_cap("k", ns.k, MAX_EXPONENT)
    _check_cap("p", ns.p, MAX_EXPONENT)
    _check_cap("m_max", ns.m_max, MAX_M_MAX)
    report = verify_capacity(ns.k, ns.p, ns.m_max, order=order)
    _emit(
        ns,
        [
            "k = %d, p = %d, m_max = %d" % (report.k, report.p, ns.m_max),
            "margins = %s" % list(report.margins),
            "binding_m = %d" % report.binding_m,
            "admissible" if report.admissible else "inadmissible",
        ],
        {
            "command": "verify-capacity",
            "k": report.k,
            "p": report.p,
            "m_max": ns.m_max,
            "margins": list(report.margins),
            "binding_m": report.binding_m,
            "admissible": report.admissible,
        },
    )
    return 0 if report.admissible else 2


def _cmd_check_metric(ns) -> int:
    order = _resolve_order(ns)
    tensor = parse_tensor(ns.tensor, "halfline")
    try:
        verdict = check_metric(tensor, order=order)
    except NotSmoothError as err:
        lines = ["rejected: %s" % err] + _verdict_lines(err.verdict)
        _emit(ns, lines, {
            "command": "check-metric", "accepted": False, "error": str(err),
            "witness": verdict_to_json(err.verdict),
        })
        return 2
    if verdict.accepted:
        _emit(ns, ["accepted"], {
            "command": "check-metric", "accepted": True, "witness": None,
        })
        return 0
    w = verdict.witness
    _emit(
        ns,
        [
            "rejected",
            "plot = %s" % format_plot(w.plot),
            "value = %s" % w.value,
            "clause = %s" % w.clause,
        ],
        {
            "command": "check-metric",
            "accepted": False,
            "witness": {
                "plot": format_plot(w.plot),
                "value": fraction_str(w.value),
                "leading": None if w.leading is None else fraction_str(w.leading),
                "clause": w.clause,
            },
        },
    )
    return 2


def _cmd_gl_check(ns) -> int:
    check_tolerance(ns.tol)  # a bad tolerance is invalid input (exit 1), not a failed check
    _check_cap("grid", ns.grid, MAX_GRID)
    coeffs = parse_polynomial(ns.f).coeffs
    a = parse_rational(ns.interval[0])
    b = parse_rational(ns.interval[1])
    f = SampledFunction.polynomial(coeffs, (a, b), grid_n=ns.grid)
    try:
        report = glaeser_landau_check(f, tol=ns.tol)
    except ValueError as err:
        _emit(ns, ["error: %s" % err], {
            "command": "gl-check", "error": str(err), "passed": False,
        })
        return 2
    _emit(
        ns,
        [
            "C = %r" % report.C,
            "max_violation = %r" % report.max_violation,
            "pass" if report.passed else "fail",
        ],
        {
            "command": "gl-check",
            "C": _float_to_json(report.C),
            "max_violation": _float_to_json(report.max_violation),
            "tol": report.tol,
            "passed": report.passed,
        },
    )
    return 0 if report.passed else 2


def _cmd_parity(ns) -> int:
    tensor = parse_tensor(ns.tensor, "quadrant")
    report = check_gamma_parity(tensor)
    lines = []
    for comp in report.components():
        occupied = ["%s:%d" % (s, n) for s, n in comp.masses.items() if n]
        lines.append(
            "%s: %s; %s"
            % (comp.component, ", ".join(occupied) or "empty", "ok" if comp.ok else "VIOLATED")
        )
    lines.append("rule holds" if report.rule_holds else "rule violated")
    _emit(ns, lines, {"command": "parity", **parity_to_json(report)})
    return 0 if report.rule_holds else 2


# -- argument parsing ---------------------------------------------------------


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--order", type=int, default=None,
                        help="global truncation order (default 16, or $%s)" % ORDER_ENV_VAR)
    common.add_argument("--format", choices=("text", "json"), default="text")
    top = _ArgumentParser(
        prog="cornerjet",
        description="Exact calculus for tensors with axial poles on the half-line"
                    " and the quadrant.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[common],
                       help="split a tensor into singular and regular parts")
    p.add_argument("--space", choices=("halfline", "quadrant"), default="halfline")
    p.add_argument("tensor")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("pullback", parents=[common],
                       help="pull a half-line tensor back along a plot germ")
    p.add_argument("--plot", required=True)
    p.add_argument("tensor")
    p.set_defaults(handler=_cmd_pullback)

    p = sub.add_parser("capacity", parents=[common],
                       help="maximal admissible pole order for a k-tensor")
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_capacity)

    p = sub.add_parser("verify-capacity", parents=[common],
                       help="margins k(2m-1) - 2mp checked against pullbacks")
    p.add_argument("k", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--m-max", type=int, default=6)
    p.set_defaults(handler=_cmd_verify_capacity)

    p = sub.add_parser("check-metric", parents=[common],
                       help="Riemannian admissibility over the default germ family")
    p.add_argument("tensor")
    p.set_defaults(handler=_cmd_check_metric)

    p = sub.add_parser("gl-check", parents=[common],
                       help="grid check of f'(t)^2 <= 2 sup|f''| f(t) for nonnegative f")
    p.add_argument("--f", required=True, help="polynomial in t with rational coefficients")
    p.add_argument("--interval", nargs=2, default=("-1", "1"), metavar=("A", "B"))
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_gl_check)

    p = sub.add_parser("parity", parents=[common],
                       help="parity sectors of the square-map pullback of a quadrant tensor")
    p.add_argument("tensor")
    p.set_defaults(handler=_cmd_parity)

    return top


def run(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return ns.handler(ns)
    except ParseError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except NotSmoothError as err:
        print("rejected: %s" % err, file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
