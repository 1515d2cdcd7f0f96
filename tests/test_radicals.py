"""Radical expression trees: folding, rendering, evaluation."""

import dataclasses
import gc
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import pytest

from radica import (
    RootRecord,
    TowerField,
    render_radical,
    solve_cubic,
    solve_quadratic,
    solve_quartic,
)
from radica import radicals
from radica.radicals import (
    Add,
    Cbrt,
    Div,
    Lit,
    Mul,
    Neg,
    OmegaPow,
    RadicalExpr,
    Sqrt,
    evaluate,
    lit,
    radd,
    rdiv,
    render,
    rmul,
    rneg,
    rsub,
)


def test_literal_constructor_picks_node_kind():
    assert lit(3) == Lit(3)
    assert lit(Fraction(6, 2)) == Lit(3)
    assert lit(Fraction(1, 2)) == Lit(Fraction(1, 2))


def test_literals_hold_fractions():
    for q, text in ((3, "3"), (Fraction(3, 4), "3/4"), (-0, "0")):
        node = lit(q)
        assert type(node.value) is Fraction
        assert render(node) == text


def test_literal_folding():
    assert radd(lit(Fraction(9, 2)), lit(Fraction(7, 2))) == Lit(8)
    assert rmul(lit(3), lit(Fraction(1, 3))) == Lit(1)
    assert rdiv(lit(-6), lit(-3)) == Lit(2)
    assert rneg(lit(Fraction(1, 2))) == Lit(Fraction(-1, 2))



def _fraction_prec(q):
    """``_prec`` of a literal as read from its ``Fraction``."""
    if q < 0:
        return radicals._PREC_ADD
    return radicals._PREC_ATOM if q.denominator == 1 else radicals._PREC_MUL


def _agree(node, want):
    """``node`` is the literal ``lit(want)`` in every respect the trees read."""
    assert node.__class__ is Lit
    assert render(node) == str(want)
    assert radicals._prec(node) == _fraction_prec(want)
    assert node == lit(want) and hash(node) == hash(lit(want))
    assert repr(node) == repr(lit(want))
    assert type(node.value) is Fraction and node.value == want


def test_folds_on_pairs_agree_with_fraction_arithmetic():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(max_denominator=10**12) | st.sampled_from(
        [Fraction(0), Fraction(1), Fraction(-1), Fraction(-3, 7)]
    )

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(rationals, rationals, rationals)
    def check(p, q, r):
        _agree(radd(lit(p), lit(q)), p + q)
        _agree(rsub(lit(p), lit(q)), p - q)
        _agree(rmul(lit(p), lit(q)), p * q)
        _agree(rneg(lit(p)), -p)
        if q:
            _agree(rdiv(lit(p), lit(q)), p / q)
            _agree(rdiv(lit(p), rneg(lit(q))), p / -q)  # a negative divisor too
        # folds of folded literals, whose value has not been read
        _agree(rmul(rsub(lit(p), lit(q)), radd(lit(q), lit(r))), (p - q) * (q + r))

    check()


def test_cross_cancelled_folds_are_the_fraction_results_in_lowest_terms():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    big = st.integers(-(2**400), 2**400)
    rationals = st.one_of(
        st.fractions(max_denominator=10**6),
        st.builds(Fraction, big, big.filter(bool)),  # beyond 300 bits
        st.builds(Fraction, big),  # d = 1
        st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2**301 - 1, 2**300)]),
    )

    def pair(node, want):
        assert node.__class__ is Lit
        assert (node.n, node.d) == (want.numerator, want.denominator)
        assert node.d > 0 and math.gcd(node.n, node.d) == 1

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(rationals, rationals)
    def check(p, q):
        # a common factor in the denominators makes the sum's second gcd run
        for r in (q, q / 6 if q else q, q * p.denominator):
            pair(radd(lit(p), lit(r)), p + r)
            pair(rsub(lit(p), lit(r)), p - r)
            pair(rmul(lit(p), lit(r)), p * r)
            if r:
                pair(rdiv(lit(p), lit(r)), p / r)
        pair(rsub(lit(p), lit(p)), Fraction(0))
        if p:
            pair(rdiv(lit(p), lit(-p)), Fraction(-1))

    check()


def _trees():
    """Radical trees of negative and 300-bit literals, nested negations and
    quotients, roots and omega powers, built by the smart constructors and
    by the node classes directly."""
    st = pytest.importorskip("hypothesis").strategies
    literals = st.builds(
        lambda n, d: lit(Fraction(n, d)),
        st.integers(-(2**300), 2**300) | st.integers(-20, 20),
        st.integers(1, 2**300) | st.integers(1, 20),
    )
    leaves = literals | st.builds(OmegaPow, st.sampled_from([1, 2]))

    def grow(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            st.builds(Neg, children), st.builds(rneg, children),
            st.builds(Sqrt, children), st.builds(Cbrt, children),
            pairs.map(lambda p: Add(*p)), pairs.map(lambda p: radd(*p)),
            pairs.map(lambda p: Mul(*p)), pairs.map(lambda p: rmul(*p)),
            pairs.map(lambda p: Div(*p)), pairs.map(lambda p: rdiv(*p)),
            pairs.map(lambda p: rsub(*p)),
        )

    return st.recursive(leaves, grow, max_leaves=12)


def test_radical_text_needs_no_json_escape():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(_trees())
    def check(tree):
        text = render(tree)
        assert re.fullmatch(r"[0-9a-z()+\-*/^ ]*", text)
        assert set(re.findall(r"[a-z]+", text)) <= {"sqrt", "cbrt", "omega"}
        assert encode_basestring_ascii(text) == '"' + text + '"'

    check()


def test_a_zero_literal_divisor_folds_only_a_zero_numerator():
    assert rdiv(lit(0), lit(0)) == Lit(0)
    assert rdiv(lit(1), lit(0)) == Div(Lit(1), Lit(0))


def test_nodes_are_frozen_dataclasses():
    folded = radd(lit(1), lit(Fraction(1, 2)))
    nodes = [
        folded, lit(2), Add(folded, lit(2)), Neg(folded), Mul(folded, folded),
        Div(folded, lit(3)), Sqrt(folded), Cbrt(folded), OmegaPow(2),
    ]
    for node in nodes:
        field = dataclasses.fields(node)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field, lit(0))
        assert node == dataclasses.replace(node) and hash(node) == hash(dataclasses.replace(node))
    assert [f.name for f in dataclasses.fields(Div)] == ["num", "den"]
    assert repr(folded) == "Lit(value=Fraction(3, 2))"
    assert repr(Neg(lit(2))) == "Neg(child=Lit(value=Fraction(2, 1)))"


_NODE_CLASSES = (Lit, Add, Neg, Mul, Div, Sqrt, Cbrt, OmegaPow)


@pytest.mark.parametrize("first", ["instance", "class"])
def test_node_fields_are_the_init_parameters_in_a_fresh_interpreter(first):
    # each class builds its field table on first read, from an instance or
    # from the class, and no class's table serves another
    code = f"""
import dataclasses, inspect
from fractions import Fraction
from radica.radicals import {", ".join(cls.__name__ for cls in _NODE_CLASSES)}
leaf = Lit(Fraction(1, 2))
for cls in ({", ".join(cls.__name__ for cls in _NODE_CLASSES)}):
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    if cls is Lit:
        node = leaf
    elif cls is OmegaPow:
        node = cls(2)
    else:
        node = cls(*[leaf] * len(params))
    reads = [node, cls] if {first!r} == "instance" else [cls, node]
    names = [[f.name for f in dataclasses.fields(each)] for each in reads]
    assert names == [params, params], (cls, names, params)
    assert dataclasses.replace(node) == node
print("ok")
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"
    assert not dataclasses.is_dataclass(RadicalExpr)


def test_identity_folding():
    x = Sqrt(lit(2))
    assert radd(lit(0), x) is x
    assert rmul(lit(1), x) is x
    assert rmul(lit(0), x) == Lit(0)
    assert rdiv(x, lit(1)) is x
    assert rneg(rneg(x)) is x


def test_omega_powers_fold():
    x = Sqrt(lit(2))
    w = OmegaPow(1)
    assert rmul(w, rmul(w, x)) == Mul(OmegaPow(2), x)
    assert rmul(w, Mul(OmegaPow(2), x)) is x
    assert render(rmul(w, rmul(w, x))) == "omega^2*sqrt(2)"


def test_roots_stay_symbolic():
    f = TowerField()
    plus, minus = solve_quadratic(f, f.one, f.zero, f.from_rational(Fraction(-49, 4)))
    assert render_radical(plus) == "sqrt(49/4)"
    assert render_radical(minus) == "-sqrt(49/4)"
    assert f.as_rational(plus.exact) == Fraction(7, 2)


def test_render_cardano_shape():
    s = Cbrt(radd(lit(Fraction(9, 2)), Sqrt(lit(Fraction(49, 4)))))
    u = rsub(s, rdiv(lit(-6), rmul(lit(3), s)))
    assert render(u) == "cbrt(9/2 + sqrt(49/4)) - (-6)/(3*cbrt(9/2 + sqrt(49/4)))"


def test_render_atoms_and_parens():
    assert render(lit(0)) == "0"
    assert render(lit(Fraction(-1, 2))) == "-1/2"
    assert render(Mul(OmegaPow(2), Sqrt(lit(5)))) == "omega^2*sqrt(5)"
    assert render(Neg(Add(lit(1), Sqrt(lit(2))))) == "-(1 + sqrt(2))"
    assert render(Div(Add(lit(1), Sqrt(lit(2))), lit(2))) == "(1 + sqrt(2))/2"


def test_render_shared_node_keeps_per_context_parens():
    def tree(shared_sum):
        return Add(Mul(lit(3), shared_sum()), Sqrt(shared_sum()))

    node = Add(lit(1), Sqrt(lit(2)))
    shared = render(tree(lambda: node))
    fresh = render(tree(lambda: Add(lit(1), Sqrt(lit(2)))))
    assert shared == fresh == "3*(1 + sqrt(2)) + sqrt(1 + sqrt(2))"


def _records(solve, coeffs):
    f = TowerField()
    return solve(f, *(f.from_rational(q) for q in coeffs))


def _nodes(e, seen=None):
    """The distinct nodes of a tree, by identity."""
    seen = {} if seen is None else seen
    if id(e) not in seen:
        seen[id(e)] = e
        for f in dataclasses.fields(e):
            child = getattr(e, f.name)
            if isinstance(child, RadicalExpr):
                _nodes(child, seen)
    return seen


def _rebuilt(e):
    """An equal tree of new nodes, none shared and none rendered yet."""
    return type(e)(
        *(
            _rebuilt(child) if isinstance(child, RadicalExpr) else child
            for child in (getattr(e, f.name) for f in dataclasses.fields(e))
        )
    )


def test_roots_of_one_solve_render_each_shared_node_once(monkeypatch):
    built = Counter()
    prec = radicals._prec

    def counting_prec(e):
        built[id(e)] += 1
        return prec(e)

    monkeypatch.setattr(radicals, "_prec", counting_prec)
    for solve, coeffs in (
        (solve_quartic, (3, -1, 5, 2, -7)),
        (solve_quartic, (1, 0, 2, 1, 2)),
        (solve_cubic, (2, 1, -3, 5)),
    ):
        for order in (lambda rs: rs, lambda rs: rs[::-1]):
            records = order(_records(solve, coeffs))
            built.clear()
            texts = [render_radical(r) for r in records]
            nodes = {}
            for r in records:
                _nodes(r.radical, nodes)
            # each distinct node builds its text at most once across all the
            # roots (a Neg on the right of an Add renders as " - " instead),
            # so the shared subtrees are built fewer times than the roots use
            assert set(built.values()) == {1} and built.keys() <= nodes.keys()
            assert len(built) < sum(len(_nodes(r.radical)) for r in records)
            built.clear()
            assert [render_radical(r) for r in records] == texts
            assert not built
            assert texts == [render(_rebuilt(r.radical)) for r in records]


def test_replaced_tree_renders_itself_after_the_original_is_collected():
    records = _records(solve_quartic, (3, -1, 5, 2, -7))
    for record in records:
        render_radical(record)
    shell = RootRecord(records[0].label, records[0].exact, records[0].approx, lit(0))
    assert render_radical(shell) == "0"
    del records, record
    gc.collect()
    for coeffs in ((2, 3, -1, 4, 5), (1, -2, 7, 3, -3), (5, 1, 1, -4, 9)):
        for tree in [r.radical for r in _records(solve_quartic, coeffs)]:
            record = RootRecord(shell.label, shell.exact, shell.approx, tree)
            assert render_radical(record) == render(_rebuilt(tree))


def test_evaluate_matches_principal_branches():
    expr = rsub(
        Cbrt(radd(lit(Fraction(9, 2)), Sqrt(lit(Fraction(49, 4))))),
        rdiv(lit(-6), rmul(lit(3), Cbrt(radd(lit(Fraction(9, 2)), Sqrt(lit(Fraction(49, 4))))))),
    )
    assert abs(evaluate(expr) - 3) < 1e-12


def test_evaluate_omega():
    w = evaluate(OmegaPow(1))
    assert abs(w**3 - 1) < 1e-12
    assert abs(evaluate(OmegaPow(2)) - w * w) < 1e-12
    assert abs(evaluate(Sqrt(lit(-1))) - 1j) < 1e-15
