"""Polynomial parsing and the command-line surface."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import radica.cli as cli
from radica import RootRecord, TowerField, VerificationReport, selftest, solve_cubic
from radica.cli import ParseError, PolynomialInput, parse_polynomial, run
from radica.radicals import evaluate, lit
from radica.solvers import render_radical

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: ``solve --format json --verify [flags]`` reports stored byte for byte
BYTE_GOLDENS = {
    "cardano_x3_6x_9.json": ("x^3 - 6*x - 9",),
    "rational_cubic_x3_7x_6.json": ("x^3 - 7*x + 6",),
    "casus_cubic_x3_3x_1.json": ("x^3 - 3*x + 1",),
    "depth6_quartic_seed1.json": ("1/3*x^4 + 2/5*x^3 + 8/5*x^2 - 7*x + 13/17",),
    "biquadratic_x4_10x2_1.json": ("x^4 - 10*x^2 + 1",),
    "quadratic_x2_x_1.json": ("x^2 - x - 1",),
    "strict_cardano_x3_6x_9.json": ("x^3 - 6*x - 9", "--paper-strict"),
    # the depressed resolvent constant is 0: strict mode takes Cardano on the
    # resolvent cubic where the default mode takes its zero/sqrt split
    "strict_quartic_zero_resolvent_constant.json": ("x^4 + 3*x^2 + x + 3/8", "--paper-strict"),
    # decimal coefficients: the complex backend
    "float_cubic_1_5x3_2_25x_0_75.json": ("1.5*x^3 - 2.25*x + 0.75",),
    "float_quartic_0_5x4_1_25x3_0_1x_2.json": ("0.5*x^4 - 1.25*x^3 + 0.1*x - 2.0",),
    # four roots clustered at 1: the oracle does not converge, and the
    # verification carries a note
    "clustered_quartic_x4_4x3_6x2_4x_1_000001.json": ("x^4 - 4*x^3 + 6*x^2 - 4*x + 1.000001",),
}


# -- parser ---------------------------------------------------------------------


def test_parse_cardano_example():
    poly = parse_polynomial("x^3 - 6*x - 9")
    assert poly.coefficients == {3: 1, 1: -6, 0: -9}
    assert poly.variable == "x"
    assert poly.exact


def test_parse_negated_variable():
    assert parse_polynomial("-x").coefficients == {1: -1}


def test_parse_rejects_doubled_sign():
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("x^2 + x + + 1")
    assert excinfo.value.offset == 10


def test_parse_no_star_and_rational_coefficients():
    poly = parse_polynomial("3x^2-2x+1/2")
    assert poly.coefficients == {2: 3, 1: -2, 0: Fraction(1, 2)}


def test_parse_sums_like_degrees():
    assert parse_polynomial("x^2 + 2*x^2 - x^2").coefficients == {2: 2}


def test_parse_decimal_forces_inexact():
    poly = parse_polynomial("0.5*x^2 + 1")
    assert not poly.exact
    assert poly.coefficients == {2: 0.5, 0: 1.0}


def test_parse_constant_has_default_variable():
    poly = parse_polynomial("5")
    assert poly.coefficients == {0: 5}
    assert poly.variable == "x"


def test_parse_inconsistent_variables():
    with pytest.raises(ParseError, match="inconsistent variable"):
        parse_polynomial("x + y")


def test_parse_exponent_overflow():
    with pytest.raises(ParseError, match="exponent overflow"):
        parse_polynomial("x^99999999999")


def test_parse_error_offsets_are_reported():
    cases = {
        "x^2 + * 3": 6,
        "": 0,
        "x*2": 1,
    }
    for text, offset in cases.items():
        with pytest.raises(ParseError) as excinfo:
            parse_polynomial(text)
        assert excinfo.value.offset == offset, text


def test_parse_zero_denominator():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial("1/0*x")


def test_parse_decimal_denominator_and_exponent_offsets():
    cases = {
        "1/2.5*x + 1": "denominator must be an integer",
        "x^2.5 + 1": "exponent must be a nonnegative integer",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError) as excinfo:
            parse_polynomial(text)
        assert (excinfo.value.message, excinfo.value.offset) == (message, 2), text


def test_parse_rejects_superscript_exponent():
    # "x²" is not a variable name: the name stops at the superscript
    with pytest.raises(ParseError) as excinfo:
        parse_polynomial("x² + 1")
    assert excinfo.value.offset == 1


def test_parse_variable_names_with_digits_and_underscores():
    assert parse_polynomial("x1^2 - 4").variable == "x1"
    assert parse_polynomial("y_2^3 + y_2").coefficients == {3: 1, 1: 1}


# -- solve subcommand -------------------------------------------------------------


def test_solve_exit_zero_and_text_output(capsys):
    code = run(["solve", "x^3 - 6*x - 9", "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cardano-A: 3" in out
    assert "verification: residuals ok; factorization ok; oracle matched" in out


def test_solve_unsupported_degree(capsys):
    assert run(["solve", "x^5 + 1"]) == 3
    assert run(["solve", "7"]) == 3


def test_solve_parse_error_exit_code(capsys):
    assert run(["solve", "x^2 + x + + 1"]) == 2
    assert "offset 10" in capsys.readouterr().err


def test_solve_decimal_with_a_denominator_is_a_parse_error(capsys):
    assert run(["solve", "1.5/2*x"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "parse error at offset 3: decimal coefficients take no denominator\n"
    assert captured.out == ""


def test_solve_prints_purely_imaginary_roots(capsys):
    assert run(["solve", "x^2 + 1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  quadratic-minus: -1i  [residual 0]",
        "  quadratic-plus: 1i  [residual 0]",
    ]


def test_solve_superscript_exponent_is_a_parse_error(capsys):
    assert run(["solve", "x² + 1"]) == 2
    captured = capsys.readouterr()
    assert "offset 1" in captured.err
    assert captured.out == ""


def test_solve_paper_strict_rejects_documented_cases(capsys):
    # c = 0 cubic: 3ac - b^2 = 0
    assert run(["solve", "x^3 - 8", "--paper-strict"]) == 4
    assert "3ac - b^2" in capsys.readouterr().err
    # the same input solves in default mode
    assert run(["solve", "x^3 - 8", "--verify"]) == 0


@pytest.mark.parametrize(
    "text, needle",
    [
        # c' = 3 - 0.3^2/(3*0.1^2) is 0 in the decimals, not in doubles
        ("0.1*x^3 + 0.3*x^2 + 0.3*x + 1", "3ac - b^2"),
        # c' = 0.6 and e' = -0.03, so c'^2 + 12e' = 0
        ("0.1*x^4 + 0.06*x^2 + 0.1*x - 0.003", "12e'"),
    ],
)
def test_solve_paper_strict_rejects_float_inputs_the_formulas_reject(capsys, text, needle):
    assert run(["solve", "--paper-strict", "--", text]) == 4
    err = capsys.readouterr().err
    assert "paper-strict mode rejects this input" in err and needle in err


def test_solve_paper_strict_decides_decimal_inputs_exactly():
    # c' = 1e-13 is small but not zero
    assert run(["solve", "--paper-strict", "--verify", "--", "10*x^3 + 0.000000000001*x + 1"]) == 0


def test_solve_paper_strict_accepts_generic_input():
    assert run(["solve", "x^3 - 6*x - 9", "--paper-strict", "--verify"]) == 0


def test_solve_linear():
    assert run(["solve", "2*x - 5", "--verify"]) == 0


def test_solve_decimal_uses_complex_backend(capsys):
    code = run(["solve", "0.5*x^2 - 2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["field"] == "complex"
    assert payload["coefficients"][0] == {"deg": 2, "re": 0.5, "im": 0.0}
    roots = sorted(r["approx"]["re"] for r in payload["roots"])
    assert abs(roots[0] + 2) < 1e-9 and abs(roots[1] - 2) < 1e-9


def test_solve_complex_field_flag(capsys):
    code = run(["solve", "x^2 + 1", "--field", "complex", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["field"] == "complex"


def test_solve_radical_flag_prints_expressions(capsys):
    code = run(["solve", "x^3 - 6*x - 9", "--radical"])
    out = capsys.readouterr().out
    assert code == 0
    assert "radical: cbrt(9/2 + sqrt(49/4)) - (-6)/(3*cbrt(9/2 + sqrt(49/4)))" in out


def test_solve_quartic_all_degenerate_cases_default_mode():
    for text in ("x^4 - 5*x^2 + 4", "x^4 + 2*x^2 + x + 2"):
        assert run(["solve", text, "--verify"]) == 0


@pytest.mark.parametrize("name", sorted(BYTE_GOLDENS))
def test_json_golden_bytes(capsys, name):
    polynomial, *flags = BYTE_GOLDENS[name]
    code = run(["solve", "--format", "json", "--verify", *flags, "--", polynomial])
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8", newline="") as fh:
        assert capsys.readouterr().out == fh.read()


@pytest.mark.parametrize(
    "argv, text",
    [
        (["solve", "-5/4*x^3"], "-5/4*x^3"),
        (["solve", "-5/4*x^3", "--verify"], "-5/4*x^3"),
        (["solve", "--", "-5/4*x^3"], "-5/4*x^3"),
        (["solve", "-x^2 + 1"], "-x^2 + 1"),
    ],
)
def test_solve_leading_minus_polynomial(capsys, argv, text):
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith(f"{text}: degree ")


def test_solve_leading_minus_polynomial_roots(capsys):
    assert run(["solve", "-5/4*x^3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coefficients"] == [{"deg": 3, "num": -5, "den": 4}]
    assert [r["approx"] for r in payload["roots"]] == [{"re": 0.0, "im": 0.0}] * 3


@pytest.mark.parametrize("flags", [[], ["--verify"]])
def test_exact_horner_runs_only_when_factorization_fails(capsys, monkeypatch, flags):
    """With or without ``--verify``, the factorization identity proves every
    exact root, so Horner never runs on correct roots."""
    import radica.verifier as verifier

    seen = []
    real = verifier.horner_eval
    monkeypatch.setattr(verifier, "horner_eval", lambda *a: seen.append(a) or real(*a))
    assert run(["solve", "x^3 - 6*x - 9", *flags]) == 0
    assert "[residual 0]" in capsys.readouterr().out
    assert seen == []


def test_reducible_extension_is_a_backend_failure(capsys, monkeypatch):
    import radica.cli as cli
    from radica.tower import ReducibleExtensionError

    def reducible(field, *coeffs):
        raise ReducibleExtensionError([])

    def no_complex_field(*args, **kwargs):
        raise AssertionError("exact solve retried on the complex backend")

    monkeypatch.setattr(cli, "solve_cubic", reducible)
    monkeypatch.setattr(cli, "ComplexField", no_complex_field)
    code = run(["solve", "x^3 - 2*x - 5", "--format", "json", "--verify"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "solver failed: reducible extension\n"


def test_verify_out_of_float_range_coefficient_is_a_backend_failure(capsys):
    # the verifier embeds the coefficients in complex doubles, and 10**400
    # has no double
    assert run(["solve", "--verify", "--", "1" + "0" * 400 + "*x^2 + 1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "solver failed: integer division result too large for a float\n"


_BEYOND_DOUBLE = "1" + "0" * 400 + ".5"


@pytest.mark.parametrize(
    "text, message",
    [
        (f"x^2 + {_BEYOND_DOUBLE}", "integer division result too large for a float"),
        (f"{_BEYOND_DOUBLE}*x^2 + 1", "a nonzero radicand or divisor underflows a double"),
    ],
)
def test_decimal_beyond_double_range_is_a_backend_failure(capsys, text, message):
    # the parser reads the decimal exactly; the complex backend cannot hold
    # it, or the radicand it leads to, as a double
    assert run(["solve", "--verify", "--", text]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"solver failed: {message}\n"


_LONG_ONES = "1" * 5000
_SEVENS, _THREES = "7" * 3000, "3" * 2999 + "1"
#: (polynomial, its root): a coefficient beyond Python's 4,300-digit limit on
#: integer text, and one short enough to parse whose root has about 6,000
#: digits
_LONG_INPUTS = [
    (f"{_LONG_ONES}*x + 1", lambda: Fraction(-1, int(_LONG_ONES))),
    (f"{_SEVENS}/{_THREES}*x - {_THREES}/{_SEVENS}", lambda: Fraction(int(_THREES), int(_SEVENS)) ** 2),
]


def _exact_text(root):
    """The text of ``root()``, made with Python's integer-text limit lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(root())
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("text, root", _LONG_INPUTS, ids=["long-coefficient", "long-root"])
def test_long_integers_parse_and_print(capsys, text, root):
    limit = sys.get_int_max_str_digits()
    assert run(["solve", "--", text]) == 0
    assert sys.get_int_max_str_digits() == limit
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f" (exactly {_exact_text(root)})  [residual " in captured.out


@pytest.mark.parametrize("flags", [("--format", "json", "--verify"), ("--verify", "--radical")])
def test_a_long_exact_root_prints_verified(capsys, flags):
    text, root = _LONG_INPUTS[1]
    assert run(["solve", *flags, "--", text]) == 0
    assert _exact_text(root).partition("/")[0] in capsys.readouterr().out


def test_json_roots_of_x_squared_plus_one(capsys):
    assert run(["solve", "x^2 + 1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["field"] == "exact"
    images = sorted((r["approx"]["re"], r["approx"]["im"]) for r in payload["roots"])
    assert images == [(0.0, -1.0), (0.0, 1.0)]


def test_verification_failure_exit_code(capsys, monkeypatch):
    import radica.cli as cli

    class FailingReport:
        passed = False
        residuals = [0.0, 0.0]
        residuals_ok = False
        factorization_ok = False
        oracle_match = False
        notes = ()

    monkeypatch.setattr(cli, "verify_solution", lambda *a, **k: FailingReport())
    assert run(["solve", "x^2 - 2", "--verify"]) == 5


@pytest.mark.xfail(
    strict=True,
    reason="the float embedding of this quartic's exact roots is off by about 1e-6, "
    "so the oracle reports a mismatch although every exact residual is 0",
)
def test_verify_depth6_quartic_matches_oracle(capsys):
    assert run(["solve", "--verify", "--", "-7/15*x^4 + 1/6*x^3 + 14*x^2 - 5/2*x + 1/3"]) == 0


#: the real root of -20*x^3 - 7/3*x^2 - 1/11*x - 5, exact-cubic seed 30,
#: case 638 of the bench corpus, from mpmath.polyroots at 30 digits
CORPUS_CUBIC_REAL_ROOT = -0.6687952804288546


def _corpus_cubic_real_root():
    f = TowerField()
    coeffs = (f.from_rational(Fraction(c)) for c in ("-20", "-7/3", "-1/11", "-5"))
    record = solve_cubic(f, *coeffs)[0]
    assert record.label == "cardano-A"
    return record


def test_corpus_cubic_radical_evaluates_to_its_root():
    record = _corpus_cubic_real_root()
    assert abs(evaluate(record.radical) - CORPUS_CUBIC_REAL_ROOT) < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="TowerElement.to_complex loses the companion c/(3t), with c = 1/118800, "
    "so the printed root is about 6.7e-7 off, inside the oracle's 1e-6",
)
def test_corpus_cubic_embedding_matches_its_root():
    assert abs(_corpus_cubic_real_root().approx - CORPUS_CUBIC_REAL_ROOT) < 1e-12


def test_verify_notes_an_oracle_that_overflows(capsys):
    # Durand-Kerner's iterate overflows to NaN on the 80-digit coefficient
    big = "1" + "0" * 80
    assert run(["solve", "--verify", "--", f"- 91058/3122*x^4 + {big}*x^3 + 3*x^2"]) == 0
    out = capsys.readouterr().out
    assert "oracle skipped" in out and "oracle did not converge within 200 iterations" in out


def test_solve_decimal_input_far_beyond_the_old_zero_tolerance(capsys):
    # the leading coefficient is 1e-41 of the largest; c' is nonzero in Q
    text = "67422875422606543926987146033637980184155.2*x^3 - 3.9*x - 64.1"
    assert run(["solve", "--verify", "--", text]) == 0


@pytest.mark.parametrize("zeros", [155, 200])
def test_solve_fails_where_a_radicand_underflows_a_double(zeros, capsys):
    # Cardano's inner term is nonzero in Q, about 1e-311 or 1e-401, so no
    # double holds it; read as 0.0 it dropped its square root, and the
    # 200-zero cubic printed -1.70997594668e-67 for a root near -2.15e-67
    text = f"1{'0' * zeros}.5*x^3 + x^2 - 2.5*x + 1"
    assert run(["solve", "--verify", "--", text]) == 4
    assert "a nonzero radicand or divisor underflows a double" in capsys.readouterr().err


#: decimal cubics whose roots near 9e4 fail the residual check on doubles
CUBICS_NEAR_1E5 = [
    "0.91*x^3 - 82000.2*x^2 + 0.40*x + 400.0",
    "- 60.0*x^3 - 9700000.7*x^2 - 0.04*x - 5100.1",
]

#: decimal quartics whose first resolvent root is small against the roots' scale
SMALL_RESOLVENT_QUARTICS = [
    "- 620.2*x^4 + 7.9*x^3 + 95000.5*x^2 - 0.068*x + 0.86",
    "270000.7*x^4 - 0.0097*x^3 + 5400000.4*x^2 - 7000.7*x - 13.3",
    "490.9*x^4 - 500000.5*x^3 - 0.000000000034*x^2 + 0.0000000087*x + 0.00000000000006",
]


@pytest.mark.xfail(
    strict=True,
    reason="the roots are closer to mpmath than the float prefix's were, but the "
    "residual check fails at the root near 9e4 (ROADMAP item 14)",
)
@pytest.mark.parametrize("text", CUBICS_NEAR_1E5)
def test_verify_passes_on_cubics_with_a_root_near_1e5(text):
    assert run(["solve", "--verify", "--", text]) == 0


@pytest.mark.parametrize("text", CUBICS_NEAR_1E5)
def test_verify_passes_on_cubics_with_a_root_near_1e5_on_the_tower(capsys, text):
    # the residuals are exact; Durand-Kerner does not converge (ROADMAP item 3)
    assert run(["solve", "--field", "exact", "--verify", "--", text]) == 0
    assert "oracle skipped" in capsys.readouterr().out


@pytest.mark.xfail(
    strict=True,
    reason="the first resolvent root, above 2**-26 of the roots' scale, has lost "
    "digits, and the oracle finds a root over 1e-6 off (ROADMAP items 12 and 14)",
)
@pytest.mark.parametrize("text", SMALL_RESOLVENT_QUARTICS)
def test_verify_passes_on_quartics_with_a_small_resolvent_root(text):
    assert run(["solve", "--verify", "--", text]) == 0


_EMBEDDING_OFF = pytest.mark.xfail(
    strict=True,
    reason="the exact roots are proved (exact residuals and factorization), but the "
    "float embeddings of the roots below 0.01 are 2e-6 to 7e-6 off, and the oracle "
    "reports a mismatch (ROADMAP item 1)",
)


@pytest.mark.parametrize(
    "text",
    [pytest.param(text, marks=_EMBEDDING_OFF) for text in SMALL_RESOLVENT_QUARTICS[:2]]
    + SMALL_RESOLVENT_QUARTICS[2:],
)
def test_verify_passes_on_quartics_with_a_small_resolvent_root_on_the_tower(text):
    assert run(["solve", "--field", "exact", "--verify", "--", text]) == 0


@pytest.mark.parametrize(
    "text",
    [
        # on doubles the constant underflows (exit 4)
        "x^2 + 0." + "0" * 399 + "1",
        # on doubles the small root prints as 0 with residual 46.5 (exit 5)
        "- 2719.4*x^2 + 80363412418762863175210250048768103370781.9*x + 46.5",
    ],
    ids=["tiny-constant", "8e40-coefficient"],
)
def test_verify_passes_on_the_tower_where_doubles_fail(text):
    assert run(["solve", "--field", "exact", "--verify", "--", text]) == 0


def test_exact_field_writes_decimal_coefficients_as_fractions(capsys):
    # 1<400 zeros>.5 has no double: written as {re, im}, it would overflow
    big = 10**400
    text = f"{big}.5*x - {big}.5"
    assert run(["solve", "--field", "exact", "--format", "json", "--", text]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["field"] == "exact"
    assert payload["coefficients"] == [
        {"deg": 1, "num": 2 * big + 1, "den": 2},
        {"deg": 0, "num": -2 * big - 1, "den": 2},
    ]
    assert [root["approx"] for root in payload["roots"]] == [{"re": 1.0, "im": 0.0}]


def test_selftest_passes_every_criterion(capsys, monkeypatch):
    monkeypatch.delenv("RADICA_SEED", raising=False)
    assert run(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["PASS", c.name] for c in selftest.CRITERIA]


@pytest.mark.parametrize("seed", ["abc", "1.5", " "])
def test_selftest_rejects_a_seed_that_is_not_an_integer(capsys, monkeypatch, seed):
    monkeypatch.setenv("RADICA_SEED", seed)
    assert run(["selftest"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == f"radica selftest: error: RADICA_SEED is not an integer: {seed!r}\n"


def test_selftest_reports_a_failing_criterion(capsys, monkeypatch):
    monkeypatch.delenv("RADICA_SEED", raising=False)
    criteria = [
        c._replace(check=lambda rng, n: (False, "forced"))
        if c.name == "quartic-split-identity"
        else c
        for c in selftest.CRITERIA
    ]
    monkeypatch.setattr(selftest, "CRITERIA", criteria)
    assert run(["selftest"]) == 5
    assert "FAIL quartic-split-identity  (forced)" in capsys.readouterr().out.splitlines()


def test_json_schema_fields(capsys):
    run(["solve", "x^2 - 2", "--verify", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"degree", "field", "coefficients", "roots", "verification"}
    for coeff in payload["coefficients"]:
        assert set(coeff) == {"deg", "num", "den"}
    for root in payload["roots"]:
        assert set(root) == {"label", "radical", "approx", "residual"}
        assert set(root["approx"]) == {"re", "im"}
    assert set(payload["verification"]) == {"factorization_ok", "oracle_match", "notes"}


# -- the JSON writer against json.dumps -------------------------------------------


def _coefficients_json(poly, backend_name):
    out = []
    for deg in sorted(poly.coefficients, reverse=True):
        value = poly.coefficients[deg]
        if poly.exact or backend_name == "exact":
            frac = Fraction(value)
            out.append({"deg": deg, "num": int(frac.numerator), "den": int(frac.denominator)})
        else:
            z = complex(value)
            out.append({"deg": deg, "re": z.real, "im": z.imag})
    return out


def _report_json(poly, backend_name, records, values, report):
    roots = []
    for record, residual in zip(records, values):
        roots.append(
            {
                "label": record.label,
                "radical": render_radical(record),
                "approx": {"re": record.approx.real, "im": record.approx.imag},
                "residual": residual,
            }
        )
    verification = None
    if report is not None:
        verification = {
            "factorization_ok": report.factorization_ok,
            "oracle_match": report.oracle_match,
            "notes": report.notes,
        }
    return {
        "degree": poly.degree,
        "field": backend_name,
        "coefficients": _coefficients_json(poly, backend_name),
        "roots": roots,
        "verification": verification,
    }


def _reference_json(poly, backend_name, records, values, report):
    """The document as the CLI wrote it through the payload and ``json.dumps``:
    the reference for the fixed-schema writer."""
    return json.dumps(_report_json(poly, backend_name, records, values, report), indent=2)


@pytest.fixture
def json_documents(monkeypatch):
    """(written, reference) of every ``--format json`` document a run writes."""
    documents = []
    writer = cli._json_report

    def spy(*args):
        text = writer(*args)
        documents.append((text, _reference_json(*args)))
        return text

    monkeypatch.setattr(cli, "_json_report", spy)
    return documents


@pytest.mark.parametrize("name", sorted(BYTE_GOLDENS))
def test_json_writer_matches_json_dumps_on_goldens(capsys, json_documents, name):
    polynomial, *flags = BYTE_GOLDENS[name]
    for verify in ([], ["--verify"]):
        run(["solve", "--format", "json", *verify, *flags, "--", polynomial])
    assert len(json_documents) == 2
    for written, reference in json_documents:
        assert written == reference
    assert capsys.readouterr().out.startswith(json_documents[0][0] + "\n")


def test_json_writer_matches_json_dumps_on_random_polynomials(capsys, json_documents):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exact = st.fractions(max_denominator=50).filter(lambda q: abs(q.numerator) <= 50)
    decimal = st.integers(-5000, 5000).map(lambda n: f"{n / 1000:.3f}")

    @st.composite
    def polynomial(draw):
        degree = draw(st.integers(1, 4))
        coefficient = decimal if draw(st.booleans()) else exact.map(str)
        lead = draw(coefficient.filter(lambda text: Fraction(text) != 0))
        terms = [lead] + [draw(coefficient) for _ in range(degree)]
        text = " + ".join(f"{c}*x^{degree - i}" for i, c in enumerate(terms))
        return text.replace("+ -", "- ")

    flags = [[], ["--verify"], ["--field", "complex"], ["--field", "exact"]]

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(polynomial(), st.sampled_from(flags))
    def check(text, flags):
        json_documents.clear()
        code = run(["solve", "--format", "json", *flags, "--", text])
        capsys.readouterr()
        assert code != 2 and len(json_documents) == (code in (0, 5))
        for written, reference in json_documents:
            assert written == reference

    check()


def test_json_writer_matches_json_dumps_on_synthetic_reports():
    poly = PolynomialInput(
        variable="x", coefficients={4: 1e16, 2: -0.0, 0: 1e-05}, source="", exact=False
    )
    records = [
        RootRecord("quoted \"label\" \u00e9\\", None, complex(1e-05, -0.0), lit(Fraction(-1, 3))),
        RootRecord("b", None, complex(math.inf, math.nan), lit(7)),
        RootRecord("c", None, complex(-math.inf, 1e16), lit(0)),
        RootRecord("d", None, complex(1.5e-300, 2.5e300), lit(Fraction(22, 7))),
    ]
    values = [math.inf, math.nan, -0.0, 1e-05]

    def report(**kwargs):
        fields = dict(
            residuals=values,
            residuals_ok=True,
            factorization_exact=None,
            factorization_ok=True,
            oracle_match=True,
            notes=[],
        )
        return VerificationReport(**{**fields, **kwargs})

    reports = [
        None,
        report(),
        report(factorization_ok=False, oracle_match=False),
        report(oracle_match=None, notes=["oracle did not converge within 200 iterations"]),
        report(oracle_match=None, notes=["first", "second \u2014 \"quoted\""]),
    ]
    qs = {3: Fraction(-7, 3), 1: Fraction(10**30), 0: 5}
    exact_poly = PolynomialInput(variable="y", coefficients=qs, source="", exact=True)
    # decimal input under --field exact writes its coefficients as fractions
    decimal_poly = PolynomialInput(variable="y", coefficients=qs, source="", exact=False)
    for each_poly, field in (
        (poly, "complex"), (exact_poly, "exact"), (exact_poly, "complex"), (decimal_poly, "exact")
    ):
        for each_report in reports:
            args = (each_poly, field, records, values, each_report)
            assert cli._json_report(*args) == _reference_json(*args)


# -- argv grammar against the argparse reference ----------------------------------


def _polynomial_last(argv):
    """``solve`` argv with a polynomial that starts with '-' and has no space,
    such as "-5/4*x^3", moved behind ``--``: argparse would read it as an
    unknown option.  Tokens already behind ``--`` are left alone."""
    if argv[:1] != ["solve"]:
        return argv
    for i, token in enumerate(argv):
        if token == "--":
            break
        if token.startswith("-") and not token.startswith("--") and token != "-h":
            return argv[:i] + argv[i + 1 :] + ["--", token]
    return argv


def _argparse_run(argv=None):
    """``cli.run`` as it was with argparse: the reference the fixed-grammar
    parser reproduces."""
    parser = argparse.ArgumentParser(
        prog="radica",
        description="Solve quadratic, cubic, and quartic equations by radicals, "
        "exactly over a tower of radical extensions or approximately over "
        "complex doubles, with independent verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a polynomial given as an expression")
    sp.add_argument("polynomial", help='e.g. "x^3 - 6*x - 9" or "1/2*x^2 + x - 3"')
    sp.add_argument(
        "--field",
        choices=["exact", "complex"],
        default=None,
        help="backend; default exact, or complex for decimal input",
    )
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.add_argument("--verify", action="store_true", help="attach a verification report")
    sp.add_argument("--radical", action="store_true", help="print radical expressions")
    sp.add_argument(
        "--paper-strict",
        action="store_true",
        help="use the strict mode of the cubic and quartic solvers, which "
        "rejects inputs outside the formulas' hypotheses",
    )
    sp.set_defaults(func=cli._cmd_solve)

    st = sub.add_parser("selftest", help="run the randomized invariant corpus")
    st.set_defaults(func=cli._cmd_selftest)

    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_polynomial_last(argv))
    return args.func(args)


#: the fields of ``solve``'s parsed arguments
SOLVE_FIELDS = ("polynomial", "field", "format", "verify", "radical", "paper_strict")


@pytest.fixture
def calls(monkeypatch):
    """The commands run, recorded with their parsed fields instead of running."""
    calls = []

    def record_solve(args):
        calls.append([getattr(args, f) for f in SOLVE_FIELDS])
        return 0

    def record_selftest(args):
        calls.append("selftest")
        return 0

    monkeypatch.setattr(cli, "_cmd_solve", record_solve)
    monkeypatch.setattr(cli, "_cmd_selftest", record_selftest)
    return calls


def _outcome(run_argv, argv, calls):
    """(exit code, stdout, stderr, recorded commands) of one run."""
    calls.clear()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run_argv(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), list(calls)


#: the shortest unique prefix of each ``solve`` option
PREFIXES = {"--field": 4, "--format": 4, "--verify": 3, "--radical": 3, "--paper-strict": 3}
CHOICES = {"--field": ("exact", "complex"), "--format": ("text", "json")}
POLYNOMIALS = ("x^2 + 1", "-5/4*x^3", "-x", "x^2 - 1", "1/2*x^2 + x - 3", "-0.5*x^4 + 2")


def test_valid_argv_parses_as_argparse_did(calls):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def solve_argv(draw):
        options = []
        for option in draw(st.permutations(sorted(PREFIXES)))[: draw(st.integers(0, 5))]:
            name = option[: draw(st.integers(PREFIXES[option], len(option)))]
            if option not in CHOICES:
                options.append([name])
            elif draw(st.booleans()):
                options.append([f"{name}={draw(st.sampled_from(CHOICES[option]))}"])
            else:
                options.append([name, draw(st.sampled_from(CHOICES[option]))])
        polynomial = draw(st.sampled_from(POLYNOMIALS))
        if draw(st.booleans()):
            options.append(["--", polynomial])
        else:
            options.insert(draw(st.integers(0, len(options))), [polynomial])
        return ["solve"] + [token for group in options for token in group]

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(solve_argv())
    def check(argv):
        outcome = _outcome(run, argv, calls)
        assert outcome == _outcome(_argparse_run, argv, calls)
        assert outcome[0] == 0 and len(outcome[3]) == 1

    check()


#: help and usage-error argvs, each printed by the fixed-grammar parser as
#: argparse printed it
HELP_AND_ERROR_ARGVS = [
    ["--help"],
    ["-h"],
    ["--he"],
    ["solve", "--help"],
    ["solve", "-h"],
    ["solve", "x^2 + 1", "--verify", "-h"],
    ["selftest", "-h"],
    ["selftest", "--h"],
    ["solve"],
    ["solve", "--verify", "--format", "json"],
    ["solve", "--field", "foo", "x^2 + 1"],
    ["solve", "x^2 + 1", "--format=xml"],
    ["solve", "x^2 + 1", "--field"],
    ["solve", "--format", "--verify", "x^2 + 1"],
    ["solve", "--format", "--", "x^2 + 1"],
    ["solve", "--bogus", "x^2 + 1"],
    ["solve", "--f", "x^2 + 1"],
    ["solve", "--f=json", "x^2 + 1"],
    ["solve", "--verify=1", "x^2 + 1"],
    ["solve", "--help=1"],
    [],
    ["--bogus"],
    ["frobnicate"],
    ["--bogus", "solve", "x^2 + 1"],
    ["solve", "x^2 + 1", "x"],
    ["solve", "x^2 + 1", "--", "x"],
    ["solve", "--", "x^2 + 1", "--verify"],
    ["selftest", "extra"],
    ["selftest", "--", "extra"],
]


@pytest.mark.skipif(
    sys.version_info[:2] not in ((3, 10), (3, 11)),
    reason="the stored help and error texts are those of argparse in Python 3.10 and 3.11",
)
@pytest.mark.parametrize("argv", HELP_AND_ERROR_ARGVS, ids=" ".join)
def test_help_and_usage_errors_print_what_argparse_did(monkeypatch, calls, argv):
    monkeypatch.setenv("COLUMNS", "80")
    outcome = _outcome(run, argv, calls)
    assert outcome == _outcome(_argparse_run, argv, calls)
    assert outcome[0] in (0, 2) and outcome[3] == []


def test_text_solve_process_loads_neither_argparse_nor_json():
    code = (
        "import sys; before = set(sys.modules); from radica.cli import run; "
        "run(['solve', '-x^2 + 1', '--verify']); "
        "print(sorted({'argparse', 'json'} & (set(sys.modules) - before)))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def test_solve_process_never_loads_dataclasses():
    # an exact solve with the JSON writer and the verifier, then a decimal one
    # with the radical trees rendered; a solve reads no node field table
    code = (
        "import sys; from radica.cli import run; "
        "run(['solve', '--format', 'json', '--verify', '--', '2*x^4 - 3*x^3 + x - 5']); "
        "run(['solve', '--verify', '--radical', '--', '1.234*x^4 - 2.5*x^3 + 0.75*x - 3.1']); "
        "print('dataclasses' in sys.modules)"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "x^2 - 2"],
        # about 16 KB, more than the stdout buffer: print itself meets the
        # closed pipe
        ["solve", "--format", "json", "--verify", "--radical", "--", "1.234*x^4 - 2.5*x^3 + 0.75*x - 3.1"],
    ],
    ids=["small", "16KB"],
)
def test_a_closed_pipe_exits_141_without_a_traceback(argv):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)  # the small document waits for the last flush
    read, write = os.pipe()
    os.close(read)  # before the child starts, so its every write fails
    try:
        out = subprocess.run(
            [sys.executable, "-m", "radica", *argv], env=env, stdout=write, stderr=subprocess.PIPE
        )
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (cli.EXIT_PIPE, b"")
    assert cli.EXIT_PIPE == 141
