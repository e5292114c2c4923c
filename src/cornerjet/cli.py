"""Command dispatch and the stable text/JSON output formats.

Exit codes: 0 when the computation accepts/passes (smooth pullback, accepted
metric, admissible capacity, inequality holds), 2 when it rejects/fails
(pole, rejected metric, capacity exceeded, parity violation, inequality
failure), 1 on usage or parse errors, on a failed internal cross-check, and
from ``main`` when the reader of stdout closes it before all is written.

The global options ``--order`` and ``--format`` go before or after the
subcommand (after wins).  ``--order`` (default 16) must be 0 to ``MAX_ORDER``,
checked for every command, also ``capacity``, ``verify-capacity``, ``gl-check``
and ``parity``, which do not read it.

A handler returns its exit code, text lines and JSON fields, and one function,
``_emit``, prints them and adds the payload's ``command`` key.
A JSON payload is ``command`` plus the fields of the command's result record
(``SmoothnessVerdict``, ``Decomposition``, ``QuadrantDecomposition``,
``ParityReport``, ``CapacityReport``, ``MetricVerdict``,
``GlaeserLandauReport``), all encoded by one function, ``_json``: every exact
rational is a "num/den" string; jets are {"order", "coeffs"} (power series),
{"valuation", "coeffs"} (Laurent), or {"terms": [{"x", "y", "c"}, ...]}
(two-variable Laurent); a quadrant tensor is {basis name: two-variable jet},
keyed dx^2, dy^2, dx*dy; a dict is the object of its encoded values; a plot
germ is its text form.  The only floats, the gl-check report's, are JSON
numbers when finite and otherwise the strings "inf", "-inf" or "nan" that text
mode prints, so the output is strict JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections.abc import Mapping
from fractions import Fraction

from .capacity import capacity, verify_capacity
from .decompose import NotSmoothError, ParityReport, check_gamma_parity, decompose_halfline
from .decompose import decompose_quadrant
from .jets import DEFAULT_ORDER, Jet1, LaurentJet2, Record
from .metric import check_metric
from .numeric import SampledFunction, check_tolerance, glaeser_landau_check
from .parser import (
    MAX_EXPONENT,
    ParseError,
    _literal,
    format_plot,
    format_quadrant_tensor,
    parse_plot,
    parse_polynomial,
    parse_rational,
    parse_tensor,
)
from .plots import PlotGerm
from .pullback import SmoothnessVerdict, Status, _read_order, pullback_halfline
from .tensors import QuadrantTensor, basis_name

# Caps on the sizes a command line may ask for; larger values exit 1 at once.
# With parser.MAX_EXPONENT they bound the work of a short input (each costliest
# case runs in a few seconds).
MAX_ORDER = 256
MAX_M_MAX = 1000
MAX_GRID = 8192

__all__ = ["run", "main", "fraction_str"]


# -- JSON encoding ------------------------------------------------------------


def fraction_str(f: Fraction) -> str:
    return "%d/%d" % (f.numerator, f.denominator)


def _json(value):
    """The documented JSON form of a value: a record is the object of its fields."""
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, Jet1):
        return {"order": value.order, "coeffs": [fraction_str(c) for c in value.coeffs]}
    if isinstance(value, LaurentJet2):
        return {"terms": [{"x": i, "y": j, "c": fraction_str(c)} for i, j, c in value.terms()]}
    if isinstance(value, PlotGerm):
        return format_plot(value)
    if isinstance(value, Status):
        return value.value
    if isinstance(value, QuadrantTensor):
        return {basis_name(b, ("dx", "dy")): _json(jet) for b, jet in value.components.items()}
    if isinstance(value, Record):
        return {name: _json(getattr(value, name)) for name in value._fields}
    if isinstance(value, Mapping):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    return value


# -- output helpers -----------------------------------------------------------


def _emit(ns, code: int, lines: list[str], fields: dict) -> int:
    """Print a result, as text lines or as ``command`` plus ``fields`` in JSON; return ``code``."""
    if ns.format == "json":
        print(json.dumps({"command": ns.command, **fields}, sort_keys=True, allow_nan=False))
    else:
        print("\n".join(lines))
    return code


def _status_text(v: SmoothnessVerdict) -> str:
    name = v.status.name.title().replace("_", "")  # FLAT_SMOOTH prints as FlatSmooth
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
        "%s %s %s" % (name, c.expected, "ok" if c.ok else "VIOLATED")
        for name, c in report.components.items()
    ]
    return "parity: " + "; ".join(bits)


def _integer(text: str) -> int:
    """An integer option, read as a literal of the grammar; any other form is a usage error."""
    try:
        return int(_literal(text, "integer"))
    except ParseError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise ParseError("%s %d exceeds the maximum %d" % (name, value, cap))


# -- command handlers ---------------------------------------------------------


def _cmd_decompose(ns) -> tuple[int, list[str], dict]:
    tensor = parse_tensor(ns.tensor, ns.space)
    if ns.space == "halfline":
        result = decompose_halfline(tensor, order=ns.order)
        lines = ["c = %s" % result.c, "regular = %s" % result.regular.to_str("x")]
    else:
        result = decompose_quadrant(tensor, order=ns.order)
        lines = ["A = %s" % result.A.to_str("y"), "B = %s" % result.B.to_str("x"),
                 "regular = %s" % format_quadrant_tensor(result.regular),
                 _parity_line(result.parity)]
    return 0, lines, {"space": ns.space, "accepted": True, **_json(result)}


def _cmd_pullback(ns) -> tuple[int, list[str], dict]:
    tensor = parse_tensor(ns.tensor, "halfline")
    plot = parse_plot(ns.plot)
    verdict = pullback_halfline(tensor, plot, ns.order)
    fields = {"plot": format_plot(plot), **_json(verdict)}
    return (0 if verdict.is_smooth else 2), _verdict_lines(verdict), fields


def _cmd_capacity(ns) -> tuple[int, list[str], dict]:
    value = capacity(ns.k)
    return 0, ["%d" % value], {"k": ns.k, "capacity": value}


def _cmd_verify_capacity(ns) -> tuple[int, list[str], dict]:
    # k and p are the exponents of x^-p dx^k, capped like written exponents.
    _check_cap("k", ns.k, MAX_EXPONENT)
    _check_cap("p", ns.p, MAX_EXPONENT)
    _check_cap("m_max", ns.m_max, MAX_M_MAX)
    report = verify_capacity(ns.k, ns.p, ns.m_max)
    lines = [
        "k = %d, p = %d, m_max = %d" % (report.k, report.p, ns.m_max),
        "margins = %s" % list(report.margins),
        "binding_m = %d" % report.binding_m,
        "admissible" if report.admissible else "inadmissible",
    ]
    return (0 if report.admissible else 2), lines, {"m_max": ns.m_max, **_json(report)}


def _cmd_check_metric(ns) -> tuple[int, list[str], dict]:
    verdict = check_metric(parse_tensor(ns.tensor, "halfline"), order=ns.order)
    w = verdict.witness
    lines = ["accepted"] if verdict.accepted else [
        "rejected",
        "plot = %s" % format_plot(w.plot),
        "value = %s" % w.value,
        "clause = %s" % w.clause,
    ]
    return (0 if verdict.accepted else 2), lines, _json(verdict)


def _cmd_gl_check(ns) -> tuple[int, list[str], dict]:
    check_tolerance(ns.tol)  # a bad tolerance is invalid input (exit 1), not a failed check
    _check_cap("grid", ns.grid, MAX_GRID)
    coeffs = parse_polynomial(ns.f).coeffs
    f = SampledFunction(coeffs, tuple(map(parse_rational, ns.interval)), ns.grid)
    try:
        report = glaeser_landau_check(f, tol=ns.tol)
    except ValueError as err:
        return 2, ["error: %s" % err], {"error": str(err), "passed": False}
    lines = [
        "C = %r" % report.C,
        "max_violation = %r" % report.max_violation,
        "pass" if report.passed else "fail",
    ]
    return (0 if report.passed else 2), lines, _json(report)


def _cmd_parity(ns) -> tuple[int, list[str], dict]:
    report = check_gamma_parity(parse_tensor(ns.tensor, "quadrant"))
    lines = []
    for name, comp in report.components.items():
        occupied = ", ".join("%s:%d" % (s, n) for s, n in comp.masses.items() if n)
        lines.append("%s: %s; %s" % (name, occupied or "empty", "ok" if comp.ok else "VIOLATED"))
    lines.append("rule holds" if report.rule_holds else "rule violated")
    return (0 if report.rule_holds else 2), lines, _json(report)


def _rejection(ns, err: NotSmoothError) -> tuple[int, list[str], dict]:
    """A rejected tensor, with its witness: a pullback verdict or a parity report."""
    fields = {"accepted": False, "error": str(err)}
    if hasattr(ns, "space"):
        fields["space"] = ns.space
    if err.verdict is not None:
        lines = _verdict_lines(err.verdict)
        fields["witness"] = _json(err.verdict)
    else:
        lines = [_parity_line(err.parity)]
        fields["parity"] = _json(err.parity)
    return 2, ["rejected: %s" % err] + lines, fields


# -- argument parsing ---------------------------------------------------------


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative fraction such as -3/4 is a value too, like argparse's -1 and -0.5
        number = self._negative_number_matcher.pattern
        self._negative_number_matcher = re.compile(r"^-\d+/\d+$|" + number)

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _ArgumentParser:
    # Global options, before or after the subcommand: their defaults are in the
    # namespace that ``run`` parses into, so only a value written replaces one.
    common = _ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--order", type=_integer,
                        help="global truncation order (default %d)" % DEFAULT_ORDER)
    common.add_argument("--format", choices=("text", "json"))
    top = _ArgumentParser(
        prog="cornerjet",
        description="Exact calculus for tensors with axial poles on the half-line"
                    " and the quadrant.",
        parents=[common],
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
    p.add_argument("k", type=_integer)
    p.set_defaults(handler=_cmd_capacity)

    p = sub.add_parser("verify-capacity", parents=[common],
                       help="margins k(2m-1) - 2mp checked against pullbacks")
    p.add_argument("k", type=_integer)
    p.add_argument("p", type=_integer)
    p.add_argument("--m-max", type=_integer, default=6)
    p.set_defaults(handler=_cmd_verify_capacity)

    p = sub.add_parser("check-metric", parents=[common],
                       help="Riemannian admissibility over the default germ family")
    p.add_argument("tensor")
    p.set_defaults(handler=_cmd_check_metric)

    p = sub.add_parser("gl-check", parents=[common],
                       help="grid check of f'(t)^2 <= 2 sup|f''| f(t) for nonnegative f")
    p.add_argument("--f", required=True, help="polynomial in t with rational coefficients")
    p.add_argument("--interval", nargs=2, default=("-1", "1"), metavar=("A", "B"))
    p.add_argument("--grid", type=_integer, default=1024)
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
        ns = parser.parse_args(argv, argparse.Namespace(order=DEFAULT_ORDER, format="text"))
    except _UsageError as err:
        print("usage error: %s" % err, file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        _check_cap("order", ns.order, MAX_ORDER)
        _read_order(ns.order)
        try:
            result = ns.handler(ns)
        except NotSmoothError as err:
            result = _rejection(ns, err)
        # printed inside the try: an output that cannot print is an error too
        return _emit(ns, *result)
    except (ValueError, ZeroDivisionError, RuntimeError, TypeError) as err:
        # RuntimeError, TypeError: a failed internal check, such as a capacity margin.
        print("error: %s" % err, file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe fails here, inside the try, not at exit
    except BrokenPipeError:
        # The reader went away: send what is still buffered nowhere, as the
        # note on SIGPIPE in the signal module's documentation does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    main()
