"""Command-line front end: parse a polynomial, solve, display, verify.

Exit codes: 0 success, 2 parse error, 3 unsupported degree (0 or above 4),
4 backend failure (including paper-strict rejections and fallback failure),
5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .complexfield import ComplexField
from .solvers import (
    SolverError,
    StrictHypothesisViolation,
    render_radical,
    solve_cubic,
    solve_linear,
    solve_quadratic,
    solve_quartic,
)
from .tower import ReducibleExtensionError, TowerField
from .verifier import residuals, verify_solution

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGREE = 3
EXIT_BACKEND = 4
EXIT_VERIFY = 5


class ParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


@dataclass
class PolynomialInput:
    """Parsed polynomial: variable name, degree -> coefficient map (exact
    rationals, or floats when decimal literals force the complex backend),
    and the source text."""

    variable: str
    coefficients: dict
    source: str
    exact: bool

    @property
    def degree(self):
        return max(self.coefficients) if self.coefficients else 0


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def scan_digits(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        return self.text[start : self.pos]

    def scan_number(self):
        """An unsigned integer or decimal; returns (text, is_decimal)."""
        self.skip_ws()
        start = self.pos
        digits = self.scan_digits()
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            frac = self.scan_digits()
            if not digits and not frac:
                raise ParseError("malformed number", start)
            return self.text[start : self.pos], True
        if not digits:
            raise ParseError("expected a number", start)
        return digits, False

    def scan_ident(self):
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or not (
            self.text[self.pos].isalpha() or self.text[self.pos] == "_"
        ):
            raise ParseError("expected a variable name", start)
        while self.pos < len(self.text) and (
            self.text[self.pos].isalpha()
            or self.text[self.pos].isdecimal()
            or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


_MAX_EXPONENT = 10**9


def parse_polynomial(text):
    """Parse signed terms of the form ``[coef][*][var[^exp]]``.

    Coefficients are integers, rationals ``a/b``, or decimals (decimals
    mark the input as inexact).  Whitespace is insignificant, each term
    takes at most one sign, the variable name must be consistent, and
    like-degree terms are summed.
    """
    sc = _Scanner(text)
    coefficients = {}
    variable = None
    exact = True
    if sc.peek() == "":
        raise ParseError("empty input", sc.pos)
    first = True
    while True:
        sc.skip_ws()
        if sc.pos >= len(text):
            break
        sign = 1
        ch = sc.peek()
        if ch in "+-":
            sign = -1 if ch == "-" else 1
            sc.pos += 1
            sc.skip_ws()
        elif not first:
            raise ParseError("expected '+' or '-' between terms", sc.pos)
        first = False
        ch = sc.peek()
        if ch in "+-" or ch == "":
            raise ParseError("expected a term", sc.pos)

        coef = None
        is_decimal = False
        if ch.isdecimal() or ch == ".":
            num_text, is_decimal = sc.scan_number()
            if is_decimal:
                coef = float(num_text)
                if not math.isfinite(coef):
                    raise ParseError("coefficient is not finite", sc.pos)
                exact = False
            else:
                coef = Fraction(int(num_text))
            if sc.peek() == "/":
                if is_decimal:
                    raise ParseError("decimal coefficients take no denominator", sc.pos)
                sc.pos += 1
                den_pos = sc.pos
                den_text, den_decimal = sc.scan_number()
                if den_decimal:
                    raise ParseError("denominator must be an integer", den_pos)
                if int(den_text) == 0:
                    raise ParseError("zero denominator", den_pos)
                coef = Fraction(int(num_text), int(den_text))
            if sc.peek() == "*":
                sc.pos += 1
                sc.skip_ws()
                if not (sc.peek().isalpha() or sc.peek() == "_"):
                    raise ParseError("expected a variable after '*'", sc.pos)

        degree = 0
        ch = sc.peek()
        if ch.isalpha() or ch == "_":
            name_pos = sc.pos
            name = sc.scan_ident()
            if variable is None:
                variable = name
            elif name != variable:
                raise ParseError(f"inconsistent variable name '{name}'", name_pos)
            degree = 1
            if sc.peek() == "^":
                sc.pos += 1
                exp_pos = sc.pos
                exp_text, exp_decimal = sc.scan_number()
                if exp_decimal:
                    raise ParseError("exponent must be a nonnegative integer", exp_pos)
                if len(exp_text) > 10 or int(exp_text) > _MAX_EXPONENT:
                    raise ParseError("exponent overflow", exp_pos)
                degree = int(exp_text)
        elif coef is None:
            raise ParseError("expected a coefficient or variable", sc.pos)

        if coef is None:
            coef = Fraction(1)
        value = coef if sign > 0 else -coef
        coefficients[degree] = coefficients.get(degree, 0) + value

    coefficients = {d: v for d, v in coefficients.items() if v != 0}
    if not exact:
        coefficients = {d: float(v) for d, v in coefficients.items()}
    return PolynomialInput(
        variable=variable or "x",
        coefficients=coefficients,
        source=text,
        exact=exact,
    )


def _dense_coeffs(poly):
    degree = poly.degree
    return [poly.coefficients.get(d, 0) for d in range(degree, -1, -1)]


def _solve(field, coeffs, strict):
    degree = len(coeffs) - 1
    if degree == 1:
        return solve_linear(field, *coeffs)
    if degree == 2:
        return solve_quadratic(field, *coeffs)
    if degree == 3:
        return solve_cubic(field, *coeffs, strict)
    return solve_quartic(field, *coeffs, strict)


def _fmt_complex(z):
    re, im = z.real, z.imag
    if im == 0:
        return f"{re:.12g}"
    if re == 0:
        return f"{im:.12g}i"
    sign = "+" if im >= 0 else "-"
    return f"{re:.12g} {sign} {abs(im):.12g}i"


def _coefficients_json(poly):
    out = []
    for deg in sorted(poly.coefficients, reverse=True):
        value = poly.coefficients[deg]
        if poly.exact:
            frac = Fraction(value)
            out.append({"deg": deg, "num": int(frac.numerator), "den": int(frac.denominator)})
        else:
            z = complex(value)
            out.append({"deg": deg, "re": z.real, "im": z.imag})
    return out


def _report_json(poly, backend_name, records, values, report, notes):
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
            "notes": list(report.notes) + list(notes),
        }
    return {
        "degree": poly.degree,
        "field": backend_name,
        "coefficients": _coefficients_json(poly),
        "roots": roots,
        "verification": verification,
    }


def _cmd_solve(args):
    try:
        poly = parse_polynomial(args.polynomial)
    except ParseError as exc:
        print(f"parse error at offset {exc.offset}: {exc.message}", file=sys.stderr)
        return EXIT_PARSE
    degree = poly.degree
    if degree == 0 or degree > 4:
        print(f"unsupported degree {degree}", file=sys.stderr)
        return EXIT_DEGREE

    use_complex = args.field == "complex" or not poly.exact
    notes = []
    dense = _dense_coeffs(poly)

    def magnitude(c):
        try:
            return abs(complex(float(c)))
        except OverflowError:
            return math.inf

    scale = max(1.0, max(magnitude(c) for c in dense))

    def attempt(on_complex):
        if on_complex:
            field = ComplexField(scale=scale)
            coeffs = [complex(float(c)) for c in dense]
        else:
            field = TowerField()
            coeffs = [field.from_rational(Fraction(c)) for c in dense]
        records = _solve(field, coeffs, args.paper_strict)
        return field, coeffs, records

    try:
        try:
            field, coeffs, records = attempt(use_complex)
            backend_name = "complex" if use_complex else "exact"
        except ReducibleExtensionError:
            notes.append("reducible extension, retried on floats")
            field, coeffs, records = attempt(True)
            backend_name = "complex"
    except StrictHypothesisViolation as exc:
        print(f"paper-strict mode rejects this input: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (SolverError, ZeroDivisionError, ReducibleExtensionError, OverflowError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_BACKEND

    if args.verify:
        report = verify_solution(field, coeffs, records)
        values = report.residuals
    else:
        report = None
        values, _ = residuals(field, coeffs, records)

    order = sorted(
        range(len(records)), key=lambda i: (records[i].approx.real, records[i].approx.imag)
    )
    records = [records[i] for i in order]
    values = [values[i] for i in order]

    if args.format == "json":
        payload = _report_json(poly, backend_name, records, values, report, notes)
        print(json.dumps(payload, indent=2))
    else:
        print(f"{poly.source.strip()}: degree {degree}, field {backend_name}")
        for record, residual in zip(records, values):
            line = f"  {record.label}: {_fmt_complex(record.approx)}"
            exact_q = None
            if record.exact is not None:
                exact_q = record.exact.as_rational()
            if exact_q is not None:
                line += f" (exactly {exact_q})"
            line += f"  [residual {residual:.3g}]"
            print(line)
            if args.radical:
                print(f"    radical: {render_radical(record)}")
        for note in notes:
            print(f"  note: {note}")
        if report is not None:
            oracle = (
                "matched" if report.oracle_match
                else "skipped" if report.oracle_match is None
                else "MISMATCH"
            )
            fact = "ok" if report.factorization_ok else "FAILED"
            res = "ok" if report.residuals_ok else "FAILED"
            print(f"  verification: residuals {res}; factorization {fact}; oracle {oracle}")
            for note in report.notes:
                print(f"  note: {note}")

    if report is not None and not report.passed:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_selftest(args):
    from . import selftest

    seed_env = os.environ.get("RADICA_SEED")
    seed = int(seed_env) if seed_env else 20260810
    ok = selftest.run_corpus(seed)
    return EXIT_OK if ok else EXIT_VERIFY


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


def run(argv=None):
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
        default="exact",
        help="backend; exact falls back to complex on a reducible extension",
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
    sp.set_defaults(func=_cmd_solve)

    st = sub.add_parser("selftest", help="run the randomized invariant corpus")
    st.set_defaults(func=_cmd_selftest)

    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_polynomial_last(argv))
    return args.func(args)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
