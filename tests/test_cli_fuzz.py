"""Grammar-based fuzzing of the command line.

Every argv is built from the expression grammar of ``cornerjet.parser`` for
one of the seven subcommands, with exponents and integer options drawn up to
10^20 in absolute value, rational literals, plot germs and both output
formats, the global options before or after the subcommand.  Whatever the input, ``run`` must answer with exit code 0, 1 or 2,
never a traceback, and print nothing to stderr when it exits 0; whatever it
prints in JSON mode must be strict JSON (no NaN or Infinity).
"""

import contextlib
import io
import json

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from cornerjet.cli import MAX_GRID, MAX_M_MAX, MAX_ORDER, run
from cornerjet.parser import MAX_EXPONENT

BIG = 10 ** 20


def _around(cap: int, small: st.SearchStrategy) -> st.SearchStrategy:
    """Small values three times in four; else the first value above ``cap``, or
    anything up to 10^20."""
    big = st.one_of(st.just(cap + 1), st.integers(-BIG, BIG))
    return st.integers(0, 3).flatmap(lambda r: big if r == 0 else small)


exponents = _around(MAX_EXPONENT, st.integers(-2, 6))
# Digits, and now and then a literal beyond the float range.
integers = st.one_of(st.integers(0, 9).map(str), st.just("1" + "0" * 400))
rationals = st.one_of(
    integers,
    st.tuples(integers, st.integers(0, 9)).map(lambda t: "%s/%d" % t),
    st.sampled_from(["5e-1", "1_000", "0.5"]),
)


def expressions(symbols: list[str]) -> st.SearchStrategy:
    atoms = st.one_of(integers, st.sampled_from(symbols))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map("".join),
            st.tuples(inner, exponents).map(lambda t: "(%s)^%d" % t),
            inner.map(lambda s: "(%s)" % s),
            inner.map(lambda s: "(-%s)" % s),
        )

    return st.recursive(atoms, extend, max_leaves=6)


two_tensors = expressions(["x"]).map(lambda s: "(%s)*dx^2" % s)
halfline_tensors = st.one_of(
    two_tensors,
    st.tuples(expressions(["x"]), exponents).map(lambda t: "(%s)*dx^%d" % t),
    expressions(["x", "dx"]),
)
quadrant_tensors = st.one_of(
    st.tuples(*[expressions(["x", "y"])] * 3).map(
        lambda t: "(%s)*dx^2 + (%s)*dy^2 + (%s)*dx*dy" % t),
    expressions(["x", "y", "dx", "dy"]),
)
polynomials = expressions(["t"])
plots = st.one_of(
    exponents.map(lambda e: "t^%d" % e),
    st.tuples(exponents, polynomials).map(lambda t: "t^%d*(%s)" % t),
    st.tuples(rationals, polynomials).map(lambda t: "interior(%s; %s)" % t),
    st.just("flat"),
)
orders = _around(MAX_ORDER, st.integers(0, 40))


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(
        ["decompose", "pullback", "capacity", "verify-capacity", "check-metric", "gl-check",
         "parity"]))
    options = ["--format", draw(st.sampled_from(["text", "json"]))]
    if draw(st.booleans()):
        options += ["--order", str(draw(orders))]
    # the global options go before or after the subcommand
    argv = options + [command] if draw(st.booleans()) else [command] + options
    if command == "decompose":
        space = draw(st.sampled_from(["halfline", "quadrant"]))
        tensor = draw(halfline_tensors if space == "halfline" else quadrant_tensors)
        return argv + ["--space", space, "--", tensor]
    if command == "pullback":
        return argv + ["--plot", draw(plots), "--", draw(halfline_tensors)]
    if command == "capacity":
        return argv + ["--", str(draw(exponents))]
    if command == "verify-capacity":
        m_max = draw(_around(MAX_M_MAX, st.integers(0, 8)))
        return argv + ["--m-max", str(m_max), "--", str(draw(exponents)), str(draw(exponents))]
    if command == "check-metric":
        return argv + ["--", draw(st.one_of(two_tensors, halfline_tensors))]
    if command == "gl-check":
        grid = draw(_around(MAX_GRID, st.integers(0, 2048)))
        interval = [" -" + draw(rationals), " " + draw(rationals)]
        return argv + ["--f", draw(polynomials), "--grid", str(grid), "--interval", *interval]
    return argv + ["--", draw(quadrant_tensors)]


def _refuse(name):
    raise ValueError("non-standard JSON constant %s" % name)


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_run_answers_every_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == "", argv
    if argv[argv.index("--format") + 1] == "json" and out.getvalue():
        json.loads(out.getvalue(), parse_constant=_refuse)
