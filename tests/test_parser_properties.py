"""Property test of the polynomial parser: every text parses or is rejected
with an offset inside the text."""

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
