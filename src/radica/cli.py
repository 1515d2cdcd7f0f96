"""Command-line front end: parse a polynomial, solve, display, verify.

Exit codes: 0 success, 2 parse or usage error, 3 unsupported degree (0 or
above 4), 4 backend failure (including paper-strict rejections and values
beyond float range), 5 verification failure, 141 (128 + SIGPIPE) when the
reader of standard output has gone, as with ``| head -n 2``; the output
that did not fit is dropped without a traceback.

``--format json`` writes one document per solve, byte for byte what
``json.dumps(payload, indent=2)`` writes for the payload of degree, field,
coefficients, roots and verification, without building the payload.  The
radical text goes in unescaped: it is made of characters that JSON writes
as they are.
"""

from __future__ import annotations

import math
import os
import re
import sys
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
EXIT_PIPE = 141


class ParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class PolynomialInput:
    """Parsed polynomial: variable name, degree -> coefficient map (exact
    rationals, or floats when decimal literals force the complex backend),
    the source text, and whether the coefficients are exact."""

    def __init__(self, variable, coefficients, source, exact):
        self.variable = variable
        self.coefficients = coefficients
        self.source = source
        self.exact = exact

    @property
    def degree(self):
        return max(self.coefficients) if self.coefficients else 0


#: One term, each part optional so that the groups show where the term stops
#: fitting the grammar: 1 the sign and the spaces after it, 2 the
#: coefficient, 3 its '/', 4 the denominator, 5 the '*' and the spaces after
#: it, 6 the variable name, 7 its '^' and 8 the exponent.  A part takes the
#: spaces after it.  ``\s`` and ``\d`` match what ``str.isspace`` and
#: ``str.isdecimal`` accept; ``\w`` also takes numerals that are not decimal
#: digits, such as "²", which ``_name_length`` cuts from the name.
_TERM = re.compile(
    r"([+-]?\s*)"
    r"(?:(\d+(?:\.\d*)?|\.\d*)\s*(?:(/)\s*(\d*(?:\.\d*)?)\s*)?(\*\s*)?)?"
    r"(?:([^\W\d]\w*)\s*(?:(\^)\s*(\d*(?:\.\d*)?)\s*)?)?"
)

_MAX_EXPONENT = 10**9


def _name_length(name):
    """How much of ``name`` is the variable name: letters, decimal digits and
    '_', the first of them not a digit."""
    if name.isascii():
        return len(name)
    for i, ch in enumerate(name):
        if not (ch.isalpha() or ch.isdecimal() or ch == "_"):
            return i
    return len(name)


def _is_decimal(number, pos):
    """Whether the unsigned ``number`` read at ``pos`` has a decimal point;
    one without digits is a parse error there."""
    if "." in number:
        if number == ".":
            raise ParseError("malformed number", pos)
        return True
    if not number:
        raise ParseError("expected a number", pos)
    return False


def parse_polynomial(text):
    """Parse signed terms of the form ``[coef][*][var[^exp]]``.

    Coefficients are integers, rationals ``a/b``, or decimals (decimals
    mark the input as inexact).  Whitespace is insignificant, each term
    takes at most one sign, the variable name must be consistent, and
    like-degree terms are summed.  Each term is one match of ``_TERM``; a
    parse error gives the offset where the text stops fitting the grammar.
    """
    end = len(text)
    start = pos = end - len(text.lstrip())  # lstrip strips what str.isspace accepts
    if pos == end:
        raise ParseError("empty input", pos)
    # degree -> the sum so far: an exact pair (n, d), or a float once a
    # decimal term meets it, added as Fraction and float would add
    sums = {}
    variable = None
    exact = True
    while pos < end:
        m = _TERM.match(text, pos)
        sign, coef, slash, den, star, name, caret, exp = m.groups()
        if sign:
            if m.end(1) == end or text[m.end(1)] in "+-":
                raise ParseError("expected a term", m.end(1))
        elif pos != start:
            raise ParseError("expected '+' or '-' between terms", pos)
        n = d = 1
        if coef is not None:
            if _is_decimal(coef, m.start(2)):
                n = float(coef)
                if not math.isfinite(n):
                    raise ParseError("coefficient is not finite", m.end(2))
                exact = False
                if slash:
                    raise ParseError("decimal coefficients take no denominator", m.start(3))
            else:
                n = int(coef)
                if slash:
                    if _is_decimal(den, m.start(4)):
                        raise ParseError("denominator must be an integer", m.end(3))
                    d = int(den)
                    if d == 0:
                        raise ParseError("zero denominator", m.end(3))
        cut = None
        if name is not None:
            length = _name_length(name)
            if length < len(name):  # no term goes on after the numeral
                cut = m.start(6) + length
                name = name[:length] or None
        degree = 0
        if name is None:
            if star:
                raise ParseError("expected a variable after '*'", m.end(5))
            if coef is None:
                raise ParseError("expected a coefficient or variable", m.end(1))
        else:
            if variable is None:
                variable = name
            elif name != variable:
                raise ParseError(f"inconsistent variable name '{name}'", m.start(6))
            degree = 1
        if cut is not None:
            raise ParseError("expected '+' or '-' between terms", cut)
        if caret:
            exp_pos = m.end(7)
            if _is_decimal(exp, m.start(8)):
                raise ParseError("exponent must be a nonnegative integer", exp_pos)
            if len(exp) > 10 or int(exp) > _MAX_EXPONENT:
                raise ParseError("exponent overflow", exp_pos)
            degree = int(exp)
        pos = m.end()

        if sign[:1] == "-":
            n = -n
        old = sums.get(degree, 0)
        if n.__class__ is float:
            sums[degree] = (old[0] / old[1] if old.__class__ is tuple else old) + n
        elif old.__class__ is tuple:
            sums[degree] = old[0] * d + n * old[1], old[1] * d
        elif old.__class__ is float:
            sums[degree] = old + n / d
        else:
            sums[degree] = n, d

    coefficients = {}
    for degree, value in sums.items():
        if value.__class__ is float:
            if value:
                coefficients[degree] = value
        elif value[0]:
            coefficients[degree] = Fraction(*value) if exact else value[0] / value[1]
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
    coefficient and one root.  Radical text goes in as it is: it is made of
    digits, spaces, ``-/+*^()`` and the letters of sqrt, cbrt and omega,
    none of which JSON escapes."""
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
      "radical": "{render_radical(record)}",
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
    seed_env = os.environ.get("RADICA_SEED")
    try:
        seed = int(seed_env) if seed_env else 20260810
    except ValueError:
        error = f"RADICA_SEED is not an integer: {seed_env!r}"
        print(f"radica selftest: error: {error}", file=sys.stderr)
        return EXIT_PARSE
    from . import selftest

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
    Python's limit on integer text (4,300 digits) is lifted for the call, so
    that long exact coefficients parse and long exact roots print, and the
    caller's limit is restored on return.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
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
    else:
        return _cmd_solve(args) if command == "solve" else _cmd_selftest(args)
    finally:
        sys.set_int_max_str_digits(limit)


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: as the SIGPIPE note in Python's signal docs
        # does, point stdout at devnull, so that the flush at exit does not
        # raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
