import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import cornerjet
from cornerjet import (
    LaurentJet,
    decompose_halfline,
    format_quadrant_tensor,
    make_halfline_tensor,
    parse_plot,
    parse_tensor,
)
from cornerjet.cli import (
    MAX_GRID,
    MAX_M_MAX,
    MAX_ORDER,
    fraction_from_str,
    fraction_str,
    jet1_from_json,
    laurent2_from_json,
    laurent_from_json,
    run,
)
from cornerjet.jets import Jet1, LaurentJet2
from cornerjet.parser import (
    MAX_EXPONENT,
    MAX_POWER_BITS,
    ParseError,
    format_halfline_tensor,
    format_plot,
    parse_polynomial,
    parse_rational,
)
from cornerjet.plots import BoundaryGerm, FlatGerm, InteriorGerm
from cornerjet.tensors import make_quadrant_tensor

from conftest import nonzero_laurent_jets, polynomial_laurent2s


class TestParseTensor:
    def test_singular_tensor(self):
        t = parse_tensor("(1/x)*dx^2", "halfline")
        assert t.degree == 2 and t.coeff == LaurentJet(-1, [1])

    def test_pole_plus_polynomial(self):
        t = parse_tensor("(1/x + 3 + x)*dx^2", "halfline")
        assert t.coeff == LaurentJet(-1, [1, 3, 1])

    def test_quadrant_demo_tensor(self):
        t = parse_tensor("(y^2/x)*dx^2 + (1/y)*dy^2 + x*y*dx*dy", "quadrant")
        assert t.a == LaurentJet2({(-1, 2): 1})
        assert t.b == LaurentJet2({(0, -1): 1})
        assert t.c == LaurentJet2({(1, 1): 1})

    def test_unknown_symbol(self):
        with pytest.raises(ParseError, match="unknown symbol 'dz'"):
            parse_tensor("dz^2", "halfline")

    def test_mixed_degrees(self):
        with pytest.raises(ParseError, match="mixed tensor degree"):
            parse_tensor("dx^2 + dx", "halfline")

    def test_mixed_space_symbols(self):
        with pytest.raises(ParseError, match="unknown symbol 'y'"):
            parse_tensor("y*dx^2", "halfline")

    def test_exponent_below_minimum(self):
        with pytest.raises(ParseError, match="below minimum"):
            parse_tensor("(1/x^5)*dx^2", "halfline")

    def test_quadrant_exponent_below_minimum(self):
        with pytest.raises(ParseError, match="below minimum"):
            parse_tensor("(1/y^5)*dy^2", "quadrant")

    def test_quadrant_needs_degree_two_basis(self):
        with pytest.raises(ParseError, match="dx\\^2, dy\\^2 or dx\\*dy"):
            parse_tensor("x*dx", "quadrant")

    def test_negative_exponent_literal(self):
        assert parse_tensor("x^-1*dx^2", "halfline").coeff == LaurentJet(-1, [1])

    def test_rational_coefficients(self):
        t = parse_tensor("3/2*dx^2 - 7/3*x*dx^2", "halfline")
        assert t.coeff == LaurentJet(0, [F(3, 2), F(-7, 3)])

    def test_no_float_literals(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_tensor("0.5*dx^2", "halfline")

    def test_superscript_exponent_is_a_located_parse_error(self):
        # str.isdigit admits '²', which int() then refused without a column
        with pytest.raises(ParseError, match="at 1:3: unexpected character '²'"):
            parse_tensor("x^²*dx^2", "halfline")

    def test_non_ascii_digits_are_rejected(self):
        # '٣' (ARABIC-INDIC DIGIT THREE) passes str.isdigit and int() reads it as 3
        with pytest.raises(ParseError, match="at 1:3: unexpected character"):
            parse_tensor("x^٣*dx^2", "halfline")

    def test_syntax_error_carries_column(self):
        with pytest.raises(ParseError, match="at 1:8"):
            parse_tensor("x*dx^2 )", "halfline")

    @pytest.mark.parametrize("text", ["0*dx^2", "x*dx^2 - x*dx^2", "(x - x)^3*dx^2", "(1/x)*(x*dx^2 - x*dx^2)"])
    def test_cancelled_coefficients_keep_the_basis(self, text):
        t = parse_tensor(text, "halfline")
        assert t.degree == 2
        assert t.coeff.is_zero

    def test_cancelled_terms_do_not_mix_degrees(self):
        t = parse_tensor("x*dx - x*dx + x*dx^2", "halfline")
        assert (t.degree, t.coeff) == (2, LaurentJet(1, [1]))

    @pytest.mark.parametrize("text", ["1/0*dx", "x/(x-x)*dx"])
    def test_division_by_zero_names_the_slash(self, text):
        with pytest.raises(ParseError, match="at 1:2: division by zero"):
            parse_tensor(text, "halfline")

    def test_cancelled_terms_below_minimum_are_ignored(self):
        assert parse_tensor("x^-9*dx^2 - x^-9*dx^2 + dx^2", "halfline").coeff == LaurentJet(0, [1])


class TestParsePlot:
    def test_square_map(self):
        germ = parse_plot("t^2")
        assert isinstance(germ, BoundaryGerm) and germ.m == 1
        assert germ.unit == Jet1([1])

    def test_unit_factor(self):
        germ = parse_plot("t^4*(1+t)")
        assert germ.m == 2 and germ.unit == Jet1([1, 1])

    def test_odd_contact_rejected(self):
        with pytest.raises(ParseError, match="not certified nonnegative"):
            parse_plot("t^3")

    def test_interior(self):
        germ = parse_plot("interior(1; 1+t)")
        assert isinstance(germ, InteriorGerm)
        assert germ.x0 == 1 and germ.jet == Jet1([1, 1])

    def test_interior_error_column_counts_from_the_whole_text(self):
        with pytest.raises(ParseError, match="at 1:15: unknown symbol 'x'"):
            parse_plot("interior(1; 1+x)")

    def test_flat(self):
        assert isinstance(parse_plot("flat"), FlatGerm)

    def test_nonpositive_unit(self):
        with pytest.raises(ParseError, match="not certified nonnegative"):
            parse_plot("t^2*(0 + t)")

    def test_rational_literori(self):
        assert parse_rational("-7/3") == F(-7, 3)
        with pytest.raises(ParseError, match="decimal point"):
            parse_rational("0.5")

    @pytest.mark.parametrize("text, value", [("-1", -1), ("3/4", F(3, 4)), (" -7/3 ", F(-7, 3)), ("+2", 2)])
    def test_rational_literal_forms(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["5e-1", "1E3", "1_000", "- 1", "1/-2", "\u0663", "1/0", ""])
    def test_rational_refuses_exponents_and_separators(self, text):
        with pytest.raises(ParseError, match="invalid rational literal"):
            parse_rational(text)

    def test_interior_base_point_is_a_plain_rational(self):
        with pytest.raises(ParseError, match="invalid rational literal"):
            parse_plot("interior(1e1; 10+t)")



class TestParsePolynomial:
    def test_coefficients_by_degree(self):
        assert parse_polynomial("1 + t/2 - 3*t^4") == Jet1([1, F(1, 2), 0, 0, -3])

    def test_cancellation_and_constants(self):
        assert parse_polynomial("t - t + 7") == Jet1([7])

    @pytest.mark.parametrize(
        "text, message", [("x", "unknown symbol"), ("1/t", "negative powers")]
    )
    def test_rejects_non_polynomials(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_polynomial(text)


def _nested(depth: int, core: str = "x") -> str:
    return "(" * depth + core + ")" * depth


class TestNestingLimit:
    def test_deep_but_allowed(self):
        assert parse_tensor(_nested(100) + "*dx^2").coeff == LaurentJet(1, [1])

    @pytest.mark.parametrize("depth", [101, 3000])
    def test_too_deep_is_a_parse_error(self, depth):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_tensor(_nested(depth) + "*dx^2")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_tensor(_nested(depth, "x*dx^2 + y*dy^2"), "quadrant")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_plot("interior(1; %s)" % _nested(depth, "1 + t"))
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_plot("t^2*(%s)" % _nested(depth, "1 + t"))
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_polynomial(_nested(depth, "t"))

    def test_cli_exits_one_without_traceback(self, capsys):
        assert run(["pullback", "--plot", "t^2", _nested(3000) + "*dx^2"]) == 1
        assert run(["gl-check", "--f", _nested(3000, "t^2")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("nested too deeply") == 2
        assert "Traceback" not in captured.err


halfline_tensors = st.builds(
    make_halfline_tensor,
    st.integers(0, 4),
    nonzero_laurent_jets(min_valuation=-4, max_degree=5),
)

quadrant_tensors = st.builds(
    make_quadrant_tensor,
    polynomial_laurent2s(max_degree=3, max_terms=4),
    polynomial_laurent2s(max_degree=3, max_terms=4),
    polynomial_laurent2s(max_degree=3, max_terms=4),
)


class TestCaps:
    """Sizes above a cap are refused at once with exit code 1; nothing is clamped."""

    @pytest.mark.parametrize("text", [
        "x^2049*dx", "x^-2049*dx", "x*dx^2049", "(x^64)^33*dx", "(2*x)^99999999*dx",
        "x^99999999999999999999*dx", "0^2049*dx",
    ])
    def test_exponent_cap(self, text):
        with pytest.raises(ParseError, match="exponent -?[0-9]+ exceeds the maximum %d" % MAX_EXPONENT):
            parse_tensor(text, "halfline")

    def test_exponents_at_the_cap_are_accepted(self):
        assert parse_tensor("(x^32)^64*dx", "halfline").coeff == LaurentJet(MAX_EXPONENT, [1])
        assert parse_tensor("x*dx^2048", "halfline").degree == MAX_EXPONENT
        assert parse_plot("t^2048").m == MAX_EXPONENT // 2
        with pytest.raises(ParseError, match="at 1:2: exponent 2050 exceeds"):
            parse_plot("t^2050")

    def test_power_coefficient_cap(self):
        # 3^2048 counts 2 * 2048 bits; cubing it counts 3 * 3247
        assert parse_tensor("(3^2048)^2*dx", "halfline").coeff == LaurentJet(0, [3 ** 4096])
        with pytest.raises(ParseError, match="power too large: .* %d bits" % MAX_POWER_BITS):
            parse_tensor("(3^2048)^3*dx", "halfline")

    @pytest.mark.parametrize("argv, message", [
        (["pullback", "--order", str(MAX_ORDER + 1), "--plot", "t^2", "(1/x)*dx^2"],
         "order 257 exceeds the maximum 256"),
        (["verify-capacity", "--m-max", str(MAX_M_MAX + 1), "2", "1"],
         "m_max 1001 exceeds the maximum 1000"),
        (["verify-capacity", "2049", "1"], "k 2049 exceeds the maximum 2048"),
        (["verify-capacity", "2", "2049"], "p 2049 exceeds the maximum 2048"),
        (["gl-check", "--f", "t^2", "--grid", str(MAX_GRID + 1)],
         "grid 8193 exceeds the maximum 8192"),
        (["pullback", "--plot", "t^2*(1+t)", "x^100000*dx"], "exponent 100000 exceeds"),
        (["pullback", "--plot", "t^2*(3/2+t)", "x^20000*dx"], "exponent 20000 exceeds"),
    ])
    def test_cli_caps_exit_one(self, capsys, argv, message):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert message in captured.err

    def test_order_cap_covers_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("CORNERJET_ORDER", str(MAX_ORDER + 1))
        assert run(["decompose", "(1/x)*dx^2"]) == 1
        assert "order 257 exceeds the maximum 256" in capsys.readouterr().err

    def test_values_at_the_caps_are_accepted(self, capsys):
        assert run(["pullback", "--order", str(MAX_ORDER), "--plot", "t^2", "(1/x)*dx^2"]) == 0
        assert run(["verify-capacity", "--m-max", str(MAX_M_MAX), "2", "1"]) == 0
        assert run(["gl-check", "--f", "t^2", "--grid", str(MAX_GRID)]) == 0
        assert capsys.readouterr().err == ""


class TestPrintParseRoundTrip:
    @settings(max_examples=150)
    @given(halfline_tensors)
    def test_halfline(self, tensor):
        assert parse_tensor(format_halfline_tensor(tensor), "halfline") == tensor

    @settings(max_examples=150)
    @given(quadrant_tensors)
    def test_quadrant(self, tensor):
        assert parse_tensor(format_quadrant_tensor(tensor), "quadrant") == tensor

    @given(st.integers(1, 5), st.integers(0, 3))
    def test_plots(self, m, extra):
        unit = Jet1([1] + [F(1, 2)] * extra)
        germ = BoundaryGerm(m, unit)
        assert parse_plot(format_plot(germ)) == germ

    def test_interior_plot(self):
        germ = InteriorGerm(F(1, 2), Jet1([F(1, 2), 1]))
        assert parse_plot(format_plot(germ)) == germ

    def test_flat_plot(self):
        assert parse_plot(format_plot(FlatGerm())) == FlatGerm()


SCENARIOS = [
    (["decompose", "--space", "halfline", "(1/x)*dx^2"], 0, "c = 1\nregular = 0"),
    (["capacity", "4"], 0, "2"),
    (["capacity", "2"], 0, "1"),
    (
        ["pullback", "--plot", "t^2", "(1/x^2)*dx^2"],
        2,
        "status = Pole(2)\nwitness = 4*t^-2",
    ),
    (
        ["pullback", "--plot", "t^2", "(1/x)*dx^2"],
        0,
        "status = Smooth\nwitness = 4\nvanishing_order = 0",
    ),
    (
        ["pullback", "--plot", "t^2", "(1/x)*dx"],
        2,
        "status = Pole(1)\nwitness = 2*t^-1",
    ),
    (["check-metric", "dx^2"], 0, "accepted"),
    (
        ["check-metric", "(1/x)*dx^2"],
        2,
        "rejected\nplot = t^2\nvalue = 4\nclause = definiteness-zero-required",
    ),
    (["gl-check", "--f", "t^2", "--interval", "-1", "1"], 0, "C = 2.0\nmax_violation = 0.0\npass"),
    (
        ["decompose", "--space", "quadrant", "(y^2/x)*dx^2 + (1/y)*dy^2 + x*y*dx*dy"],
        0,
        "A = y^2\nB = 1\nregular = x*y*dx*dy\n"
        "parity: du^2 even-even ok; dv^2 even-even ok; du*dv odd-odd ok",
    ),
    (
        ["decompose", "--space", "quadrant", "(1/x)*dx*dy"],
        2,
        "rejected: singular cross term: violates odd-odd parity\n"
        "parity: du^2 even-even ok; dv^2 even-even ok; du*dv odd-odd VIOLATED",
    ),
    (
        ["parity", "x*y*dx*dy"],
        0,
        "du^2: empty; ok\ndv^2: empty; ok\ndu*dv: odd-odd:1; ok\nrule holds",
    ),
    (["verify-capacity", "2", "1"], 0,
     "k = 2, p = 1, m_max = 6\nmargins = [0, 2, 4, 6, 8, 10]\nbinding_m = 1\nadmissible"),
    (["verify-capacity", "2", "2"], 2,
     "k = 2, p = 2, m_max = 6\nmargins = [-2, -2, -2, -2, -2, -2]\nbinding_m = 1\ninadmissible"),
]


class TestCliScenarios:
    @pytest.mark.parametrize("argv, code, expected", SCENARIOS)
    def test_documented_output(self, capsys, argv, code, expected):
        assert run(argv) == code
        assert capsys.readouterr().out.rstrip("\n") == expected

    def test_parse_error_exits_one(self, capsys):
        assert run(["decompose", "dz^2"]) == 1
        assert "unknown symbol" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert run(["capacity", "--wat", "4"]) == 1

    def test_unknown_command_exits_one(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_command_exits_one(self, capsys):
        assert run([]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "decompose" in capsys.readouterr().out

    def test_odd_plot_exits_one(self, capsys):
        assert run(["pullback", "--plot", "t^3", "dx^2"]) == 1

    def test_superscript_plot_exponent_exits_one_with_column(self, capsys):
        assert run(["pullback", "--plot", "t^²", "dx^2"]) == 1
        assert "syntax error at 1:3: unexpected character '²'" in capsys.readouterr().err

    def test_no_subcommand_imports_numpy(self):
        argvs = list({argv[0]: argv for argv, _, _ in SCENARIOS}.values())
        assert len(argvs) == 7
        code = (
            "import sys\n"
            "from cornerjet.cli import run\n"
            "for argv in %r:\n"
            "    run(argv)\n"
            "assert 'numpy' not in sys.modules, sorted(sys.modules)\n" % (argvs,)
        )
        src = str(Path(cornerjet.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_gl_check_nonnegativity_failure_exits_two(self, capsys):
        assert run(["gl-check", "--f", "t", "--interval", "-1", "1"]) == 2
        assert "not nonnegative" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", [["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"], ["--tol=-inf"]])
    def test_gl_check_rejects_bad_tolerance(self, capsys, tol):
        assert run(["gl-check", "--f", "t^2", *tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be finite and nonnegative" in captured.err

    @pytest.mark.parametrize("text", ["0*dx^2", "x*dx^2 - x*dx^2"])
    def test_cancelled_tensor_is_a_two_tensor(self, capsys, text):
        assert run(["decompose", text]) == 0
        assert capsys.readouterr().out.rstrip("\n") == "c = 0\nregular = 0"
        assert run(["check-metric", text]) == 2
        captured = capsys.readouterr()
        assert "symmetric 2-tensor" not in captured.out + captured.err
        assert "clause = definiteness-nonzero-required" in captured.out

    def test_flat_plot_verdicts(self, capsys):
        assert run(["pullback", "--plot", "flat", "(1/x)*dx^2"]) == 0
        assert capsys.readouterr().out.rstrip() == "status = FlatSmooth"
        assert run(["pullback", "--plot", "flat", "(1/x^2)*dx^2"]) == 2
        assert capsys.readouterr().out.rstrip() == "status = FlatIndeterminate"

    @pytest.mark.parametrize("text", ["1/0*dx", "x/(x-x)*dx"])
    def test_division_by_zero_exits_one(self, capsys, text):
        assert run(["pullback", "--plot", "t^2", text]) == 1
        assert capsys.readouterr().err == "error: syntax error at 1:2: division by zero\n"

    @pytest.mark.parametrize("argv, message", [
        (["--interval", " -1", "1" + "0" * 400], "interval endpoint beyond the float range"),
        (["--f", "1" + "0" * 400 + "*t^2"], "coefficient beyond the float range"),
    ])
    def test_gl_check_refuses_values_beyond_the_float_range(self, capsys, argv, message):
        assert run(["gl-check", "--f", "t^2", *argv]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: %s\n" % message)

    def test_gl_check_json_is_strict_when_the_oracle_overflows(self, capsys):
        def refuse(name):
            raise ValueError("non-standard JSON constant %s" % name)

        argv = ["gl-check", "--f", "t^200", "--interval", " -1000", "1000", "--grid", "16"]
        assert run(argv) == 2
        assert capsys.readouterr().out == "C = inf\nmax_violation = nan\nfail\n"
        assert run(argv + ["--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert (payload["C"], payload["max_violation"], payload["passed"]) == ("inf", "nan", False)
        # finite values stay JSON numbers
        assert run(["gl-check", "--format", "json", "--f", "t^2"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert (payload["C"], payload["max_violation"]) == (2.0, 0.0)

    def test_order_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CORNERJET_ORDER", "8")
        assert run(["decompose", "--format", "json", "(1/x)*dx^2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regular"]["order"] == 8

    def test_order_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CORNERJET_ORDER", "8")
        assert run(["decompose", "--order", "4", "--format", "json", "(1/x)*dx^2"]) == 0
        assert json.loads(capsys.readouterr().out)["regular"]["order"] == 4


class TestJsonRoundTrip:
    def test_fraction_encoding(self):
        assert fraction_str(F(-7, 3)) == "-7/3"
        assert fraction_from_str(fraction_str(F(4))) == 4

    def test_decompose_payload_round_trips(self, capsys):
        argv = ["decompose", "--format", "json", "(1/x + 3 + x)*dx^2"]
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        tensor = parse_tensor("(1/x + 3 + x)*dx^2", "halfline")
        direct = decompose_halfline(tensor, order=16)
        assert fraction_from_str(payload["c"]) == direct.c
        assert jet1_from_json(payload["regular"]) == direct.regular
        assert jet1_from_json(payload["trace"]["g"]) == direct.trace.g
        assert jet1_from_json(payload["trace"]["h"]) == direct.trace.h

    def test_pullback_payload_round_trips(self, capsys):
        argv = ["pullback", "--format", "json", "--plot", "t^2", "(1/x^2)*dx^2"]
        assert run(argv) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pole"
        assert payload["pole_order"] == 2
        assert laurent_from_json(payload["witness"]) == LaurentJet(-2, [4])

    def test_quadrant_payload_round_trips(self, capsys):
        expr = "(y^2/x)*dx^2 + (1/y)*dy^2 + x*y*dx*dy"
        assert run(["decompose", "--space", "quadrant", "--format", "json", expr]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert laurent2_from_json(payload["regular"]["dx*dy"]) == LaurentJet2({(1, 1): 1})
        assert payload["parity"]["rule_holds"] is True

    def test_metric_payload(self, capsys):
        assert run(["check-metric", "--format", "json", "(1/x)*dx^2"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["accepted"] is False
        assert payload["witness"]["plot"] == "t^2"
        assert fraction_from_str(payload["witness"]["value"]) == 4

    def test_gl_payload(self, capsys):
        assert run(["gl-check", "--format", "json", "--f", "t^2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True and payload["C"] == 2.0

    @settings(max_examples=50)
    @given(halfline_tensors)
    def test_stable_double_encode(self, tensor):
        import contextlib
        import io

        # "--" ends option parsing: expressions may start with a minus sign
        argv = ["pullback", "--format", "json", "--plot", "t^2", "--",
                format_halfline_tensor(tensor)]
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                run(argv)
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])
