"""Property tests of the polynomial parser: every text parses or is rejected
with an offset inside the text, and the parser agrees with the character
scanner it replaced on arbitrary text and on every bench corpus input."""

import importlib.util
import os
import sys
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from radica.cli import ParseError, PolynomialInput, parse_polynomial  # noqa: E402

#: characters of the polynomial grammar, so most drawn texts get past the
#: first token
GRAMMAR = "xy0123456789/.*^+- \t"


@settings(deadline=None, max_examples=300, database=None)
@given(st.one_of(st.text(alphabet=GRAMMAR, max_size=40), st.text(max_size=40)))
@example("2\u00b2")  # a superscript digit passes str.isdigit but not int()
def test_parse_returns_input_or_error_with_offset_in_text(text):
    try:
        result = parse_polynomial(text)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(text)
    else:
        assert isinstance(result, PolynomialInput)


# -- the character scanner, kept as the reference -------------------------------
# ``_Scanner`` and ``parse_polynomial`` as the CLI had them before one regular
# expression per term replaced them, unchanged but for the function's name
# and for the value of a decimal, which is now the exact rational it writes.

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


def reference_parse(text):
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
                coef = Fraction(num_text)
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
    return PolynomialInput(
        variable=variable or "x",
        coefficients=coefficients,
        source=text,
        exact=exact,
    )


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the input with each coefficient's
    type, or the error's class, message and offset."""
    try:
        poly = parse(text)
    except ParseError as exc:
        return ("ParseError", exc.message, exc.offset)
    except (ValueError, OverflowError) as exc:
        return (type(exc).__name__, str(exc))
    coefficients = [(d, type(v), v) for d, v in poly.coefficients.items()]
    return (poly.variable, coefficients, poly.source, poly.exact)


def _agree(text):
    assert _outcome(parse_polynomial, text) == _outcome(reference_parse, text), repr(text)


#: grammar characters and the Unicode that the scanner's character classes
#: (``str.isspace``, ``str.isdecimal``, ``str.isalpha``) and the regular
#: expression's (``\s``, ``\d``, ``\w``) might read apart: Arabic-Indic and
#: fullwidth digits, superscripts, vulgar fractions, Roman numerals, letters
#: with and without combining marks, an ideograph that is also a numeral, and
#: Unicode spaces
TRICKY = GRAMMAR + "_\u0663\uff17\u00b2\u00b9\u00bd\u2167\u00e9e\u0301\u4e00\u00a0\u2003\u3000\n\x1c"


@settings(deadline=None, max_examples=1500, database=None)
@given(st.one_of(st.text(alphabet=TRICKY, max_size=30), st.text(max_size=30)))
@example("\u0663*x + 1")
@example("\u00e9^2 + 1")
@example("x\u00b2 + 1")
@example("3\u00b2")
@example("3*\u00b2")
@example("x + \u00bd")
@example("x\u2167^2")
@example("1/3*x + 0.5*x - 1/6*x^2 + 0.25*x^2")
@example("1.1*x^2 + 2.2*x^2")
@example(".5*x + 5.*x")
@example("0.0*x - 0.0*x + x")
@example("-0.0 + x")
@example("1" * 400 + ".0*x")
@example("1" * 400 + "*x + 0.5*x")
@example("1" * 5000 + "*x + 1")  # int() refuses more than 4,300 digits
@example("x + 1/" + "3" * 5000)
def test_parser_agrees_with_the_scanner_on_arbitrary_text(text):
    _agree(text)


def test_decimal_sums_are_exact():
    # in doubles, 1.1 + 2.2 is 3.3000000000000003
    poly = parse_polynomial("1.1*x^2 + 2.2*x^2 - 0.1*x + 1/10*x + 0.000000000001")
    assert poly.coefficients == {2: Fraction(33, 10), 0: Fraction(1, 10**12)}
    assert not poly.exact


def test_decimal_beyond_double_range_parses_exactly():
    poly = parse_polynomial("1" + "0" * 400 + ".5*x + 1")
    assert poly.coefficients == {1: Fraction(2 * 10**400 + 1, 2), 0: Fraction(1)}
    assert not poly.exact


def _corpus_texts(monkeypatch):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "corpus.py")
    spec = importlib.util.spec_from_file_location("_bench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus)  # for its dataclass
    spec.loader.exec_module(corpus)
    for workload in corpus.WORKLOADS:
        for seed in (1, 7):
            for case in corpus.make_corpus(workload, seed):
                yield case.argv[-1]


def test_parser_agrees_with_the_scanner_on_the_bench_corpora(monkeypatch):
    texts = list(_corpus_texts(monkeypatch))
    assert len(texts) == 2 * (160 + 1000 + 1000)
    for text in texts:
        _agree(text)
