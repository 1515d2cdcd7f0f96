"""Radical expression trees: folding, rendering, evaluation."""

from fractions import Fraction

from radica.radicals import (
    Add,
    Cbrt,
    Div,
    Lit,
    Mul,
    Neg,
    OmegaPow,
    Sqrt,
    evaluate,
    lit,
    radd,
    rdiv,
    render,
    rmul,
    rneg,
    rsqrt,
    rsub,
)


def test_literal_constructor_picks_node_kind():
    assert lit(3) == Lit(3)
    assert lit(Fraction(6, 2)) == Lit(3)
    assert lit(Fraction(1, 2)) == Lit(Fraction(1, 2))


def test_literal_folding():
    assert radd(lit(Fraction(9, 2)), lit(Fraction(7, 2))) == Lit(8)
    assert rmul(lit(3), lit(Fraction(1, 3))) == Lit(1)
    assert rdiv(lit(-6), lit(-3)) == Lit(2)
    assert rneg(lit(Fraction(1, 2))) == Lit(Fraction(-1, 2))


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
    assert rsqrt(lit(Fraction(49, 4))) == Sqrt(Lit(Fraction(49, 4)))


def test_render_cardano_shape():
    s = Cbrt(radd(lit(Fraction(9, 2)), rsqrt(lit(Fraction(49, 4)))))
    u = rsub(s, rdiv(lit(-6), rmul(lit(3), s)))
    assert render(u) == "cbrt(9/2 + sqrt(49/4)) - (-6)/(3*cbrt(9/2 + sqrt(49/4)))"


def test_render_atoms_and_parens():
    assert render(lit(0)) == "0"
    assert render(lit(Fraction(-1, 2))) == "-1/2"
    assert render(Mul(OmegaPow(2), Sqrt(lit(5)))) == "omega^2*sqrt(5)"
    assert render(Neg(Add(lit(1), Sqrt(lit(2))))) == "-(1 + sqrt(2))"
    assert render(Div(Add(lit(1), Sqrt(lit(2))), lit(2))) == "(1 + sqrt(2))/2"


def test_evaluate_matches_principal_branches():
    expr = rsub(
        Cbrt(radd(lit(Fraction(9, 2)), rsqrt(lit(Fraction(49, 4))))),
        rdiv(lit(-6), rmul(lit(3), Cbrt(radd(lit(Fraction(9, 2)), rsqrt(lit(Fraction(49, 4))))))),
    )
    assert abs(evaluate(expr) - 3) < 1e-12


def test_evaluate_omega():
    w = evaluate(OmegaPow(1))
    assert abs(w**3 - 1) < 1e-12
    assert abs(evaluate(OmegaPow(2)) - w * w) < 1e-12
    assert abs(evaluate(Sqrt(lit(-1))) - 1j) < 1e-15
