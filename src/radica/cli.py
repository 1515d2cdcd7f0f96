"""Command-line front end: parse a polynomial, solve, display, verify.

Exit codes: 0 success, 2 parse or usage error, 3 unsupported degree (0 or
above 4), 4 backend failure (including paper-strict rejections and values
beyond float range), 5 verification failure.

``--format json`` writes one document per solve, byte for byte what
``json.dumps(payload, indent=2)`` writes for the payload of degree, field,
coefficients, roots and verification, without building the payload.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

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


#: json's text of the floats that have no ``float.__repr__`` literal
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x):
    text = float.__repr__(x)
    return _JSON_NONFINITE.get(text, text)


def _json_flag(flag):
    return "null" if flag is None else "true" if flag else "false"


def _json_report(poly, backend_name, records, values, report):
    """The ``--format json`` document: byte for byte what
    ``json.dumps(payload, indent=2)`` writes for the payload of degree,
    field, coefficients, roots and verification, written as f-strings in
    that layout, each value as JSON text.  A document has at least one
    coefficient and one root."""
    from json.encoder import encode_basestring_ascii as quote

    coefficients = []
    for deg in sorted(poly.coefficients, reverse=True):
        if poly.exact:
            q = Fraction(poly.coefficients[deg])
            coefficients.append(f"""\
    {{
      "deg": {deg!r},
      "num": {q.numerator!r},
      "den": {q.denominator!r}
    }}""")
        else:
            z = complex(poly.coefficients[deg])
            coefficients.append(f"""\
    {{
      "deg": {deg!r},
      "re": {_json_float(z.real)},
      "im": {_json_float(z.imag)}
    }}""")
    roots = [
        f"""\
    {{
      "label": {quote(record.label)},
      "radical": {quote(render_radical(record))},
      "approx": {{
        "re": {_json_float(record.approx.real)},
        "im": {_json_float(record.approx.imag)}
      }},
      "residual": {_json_float(residual)}
    }}"""
        for record, residual in zip(records, values)
    ]
    verification = "null"
    if report is not None:
        notes = "[]"
        if report.notes:
            notes = "[\n" + ",\n".join(["      " + quote(note) for note in report.notes]) + "\n    ]"
        verification = f"""\
{{
    "factorization_ok": {_json_flag(report.factorization_ok)},
    "oracle_match": {_json_flag(report.oracle_match)},
    "notes": {notes}
  }}"""
    coefficients = ",\n".join(coefficients)
    roots = ",\n".join(roots)
    # f-strings, not str.format: each is built at its final size in one
    # allocation, where format's growing buffer raised the peak RSS of a
    # float-mixed-verify run by about 0.2 MB
    return f"""\
{{
  "degree": {poly.degree!r},
  "field": {quote(backend_name)},
  "coefficients": [
{coefficients}
  ],
  "roots": [
{roots}
  ],
  "verification": {verification}
}}"""


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
    backend_name = "complex" if use_complex else "exact"
    dense = _dense_coeffs(poly)
    try:
        if use_complex:
            coeffs = [complex(float(c)) for c in dense]
            field = ComplexField(scale=max(abs(z) for z in coeffs))
        else:
            field = TowerField()
            coeffs = [field.from_rational(Fraction(c)) for c in dense]
        records = _solve(field, coeffs, args.paper_strict)
        if args.verify:
            report = verify_solution(field, coeffs, records)
            values = report.residuals
        else:
            report = None
            values, _ = residuals(field, coeffs, records)
    except StrictHypothesisViolation as exc:
        print(f"paper-strict mode rejects this input: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (SolverError, ZeroDivisionError, ReducibleExtensionError, OverflowError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_BACKEND

    order = sorted(
        range(len(records)), key=lambda i: (records[i].approx.real, records[i].approx.imag)
    )
    records = [records[i] for i in order]
    values = [values[i] for i in order]

    if args.format == "json":
        print(_json_report(poly, backend_name, records, values, report))
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


#: ``--help`` of each level as argparse printed it at 80 columns; its first
#: paragraph is the usage line that a usage error prints
_HELP = {
    "radica": """\
usage: radica [-h] {solve,selftest} ...

Solve quadratic, cubic, and quartic equations by radicals, exactly over a
tower of radical extensions or approximately over complex doubles, with
independent verification.

positional arguments:
  {solve,selftest}
    solve           solve a polynomial given as an expression
    selftest        run the randomized invariant corpus

options:
  -h, --help        show this help message and exit
""",
    "radica solve": """\
usage: radica solve [-h] [--field {exact,complex}] [--format {text,json}]
                    [--verify] [--radical] [--paper-strict]
                    polynomial

positional arguments:
  polynomial            e.g. "x^3 - 6*x - 9" or "1/2*x^2 + x - 3"

options:
  -h, --help            show this help message and exit
  --field {exact,complex}
                        backend; decimal coefficients force complex
  --format {text,json}
  --verify              attach a verification report
  --radical             print radical expressions
  --paper-strict        use the strict mode of the cubic and quartic solvers,
                        which rejects inputs outside the formulas' hypotheses
""",
    "radica selftest": """\
usage: radica selftest [-h]

options:
  -h, --help  show this help message and exit
""",
}

#: ``solve``'s options, each with its choices or None for a flag; the other
#: levels have only --help
_SOLVE_OPTIONS = {
    "--help": None, "--field": ("exact", "complex"), "--format": ("text", "json"),
    "--verify": None, "--radical": None, "--paper-strict": None,
}


class _Exit(Exception):
    """``_Exit(prog)`` asks for ``prog``'s help; ``_Exit(prog, message)`` is a usage error."""


def _parse_args(argv):
    """``(command, args)`` of ``radica [-h] {solve,selftest} ...``, read as argparse
    reads it: ``--opt value``, ``--opt=value`` or a unique prefix of an option,
    before or after the polynomial.  A ``solve`` token that does not start with
    ``--``, other than ``-h``, is positional, so "-5/4*x^3" needs no ``--``."""
    prog, command, pending, rest, unknown = "radica", None, None, False, []
    args = SimpleNamespace(
        polynomial=None, field="exact", format="text", verify=False, radical=False,
        paper_strict=False,
    )
    for token in argv:
        name, eq, value = ("--help" if token == "-h" else token).partition("=")
        options = _SOLVE_OPTIONS if command == "solve" else ("--help",)
        matches = [o for o in options if name.startswith("--") and o.startswith(name)]
        if pending and name.startswith("--"):
            break  # the pending option gets no value
        if pending and not token.startswith("-"):  # its value, read as --opt=value
            name, eq, value, pending = pending, "=", token, None
        # positional, as argparse reads it: the first "--" (solve drops it) and
        # every token after it, a token without its level's option prefix, or
        # one with a space that names no option
        elif (
            rest
            or token == "--"
            or not name.startswith("--" if command else "-")
            or " " in token and not matches
        ):
            if token == "--" and not rest:
                rest = True
                if command == "solve":
                    continue
            if command is None and token not in ("solve", "selftest"):
                listed = "(choose from 'solve', 'selftest')"
                raise _Exit(prog, f"argument command: invalid choice: {token!r} {listed}")
            if command is None:
                command, prog = token, f"radica {token}"
            elif command == "solve" and args.polynomial is None:
                args.polynomial = token
            else:
                unknown.append(token)
            continue
        elif len(matches) > 1:
            raise _Exit(prog, f"ambiguous option: {token} could match {', '.join(matches)}")
        elif not matches:
            unknown.append(token)
            continue
        else:
            name = matches[0]
        choices = _SOLVE_OPTIONS.get(name)
        if choices and not eq:
            pending = name
        elif eq and not choices:
            label = "-h/--help" if name == "--help" else name
            raise _Exit(prog, f"argument {label}: ignored explicit argument {value!r}")
        elif choices and value not in choices:
            listed = ", ".join(map(repr, choices))
            raise _Exit(prog, f"argument {name}: invalid choice: {value!r} (choose from {listed})")
        elif name == "--help":
            raise _Exit(prog)
        else:
            setattr(args, name[2:].replace("-", "_"), value if choices else True)
    if pending:
        raise _Exit(prog, f"argument {pending}: expected one argument")
    if command is None or command == "solve" and args.polynomial is None:
        missing = "polynomial" if command else "command"
        raise _Exit(prog, f"the following arguments are required: {missing}")
    if unknown:
        raise _Exit("radica", f"unrecognized arguments: {' '.join(unknown)}")
    return command, args


def run(argv=None):
    """Run ``radica`` on ``argv`` (default ``sys.argv[1:]``) and return the exit code.

    Help prints to stdout and returns 0, a usage error prints to stderr and
    returns 2; neither raises ``SystemExit``, and ``main`` exits with the code.
    """
    try:
        command, args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _Exit as exc:
        prog, *error = exc.args
        if not error:
            print(_HELP[prog], end="")
            return EXIT_OK
        usage = _HELP[prog].partition("\n\n")[0]
        print(f"{usage}\n{prog}: error: {error[0]}", file=sys.stderr)
        return EXIT_PARSE
    return _cmd_solve(args) if command == "solve" else _cmd_selftest(args)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
