"""Solver formulas: depressions, Cardano, the quartic split, records."""

from fractions import Fraction

import pytest

from radica import (
    BiquadraticQuartic,
    ComplexField,
    DegenerateLeadingTerm,
    ReducibleExtensionError,
    StrictHypothesisViolation,
    TowerElement,
    TowerField,
    ZeroLinearTerm,
    cardano_root,
    depress_cubic,
    depress_quartic,
    horner_eval,
    quartic_split_depressed,
    render_radical,
    resolvent_coeffs,
    solve_cubic,
    solve_quadratic,
    solve_quartic,
)
from radica.complexfield import csqrt_principal
from radica.radicals import evaluate
from radica.selftest import rand_fraction


def _multiset(records, digits=9):
    return sorted(
        (round(r.approx.real, digits), round(r.approx.imag, digits)) for r in records
    )


def _poly_compose_shift(coeffs, shift):
    """Independent expansion oracle: coefficients of p(u - shift) over Q,
    expanding each (u - shift)**k by convolution."""
    coeffs = [Fraction(c) for c in coeffs]
    shift = Fraction(shift)
    n = len(coeffs) - 1
    out = [Fraction(0)] * (n + 1)
    for k in range(n + 1):  # term coeffs[k] * x**(n-k) with x = u - shift
        power = [Fraction(1)]
        for _ in range(n - k):
            nxt = [Fraction(0)] * (len(power) + 1)
            for i, b in enumerate(power):
                nxt[i] += b
                nxt[i + 1] += -shift * b
            power = nxt
        offset = (n + 1) - len(power)
        for i, b in enumerate(power):
            out[offset + i] += coeffs[k] * b
    return out


# -- quadratic -----------------------------------------------------------------


def test_quadratic_monic_simple_roots():
    f = TowerField()
    recs = solve_quadratic(f, f.one, f.from_rational(-3), f.from_rational(2))
    r1, r2 = [r.exact for r in recs]
    assert {f.as_rational(r1), f.as_rational(r2)} == {2, 1}


def test_quadratic_monic_pure_square_root_form():
    f = TowerField()
    r1, r2 = [r.exact for r in solve_quadratic(f, f.one, f.zero, f.from_rational(-5))]
    assert f.eq(r1, f.neg(r2))
    assert f.is_zero(f.sub(f.mul(r1, r1), f.from_rational(5)))


def test_quadratic_monic_double_root_at_zero():
    f = TowerField()
    r1, r2 = [r.exact for r in solve_quadratic(f, f.one, f.zero, f.zero)]
    assert f.is_zero(r1) and f.is_zero(r2)


def test_quadratic_general_scales_to_monic():
    f = TowerField()
    r1, r2 = [
        r.exact
        for r in solve_quadratic(f, f.from_rational(2), f.from_rational(-6), f.from_rational(4))
    ]
    assert {f.as_rational(r1), f.as_rational(r2)} == {2, 1}


def test_quadratic_general_x_squared_minus_4():
    f = TowerField()
    r1, r2 = [r.exact for r in solve_quadratic(f, f.one, f.zero, f.from_rational(-4))]
    assert {f.as_rational(r1), f.as_rational(r2)} == {2, -2}


def test_quadratic_general_rejects_zero_leading():
    f = TowerField()
    with pytest.raises(DegenerateLeadingTerm):
        solve_quadratic(f, f.zero, f.one, f.one)


# -- cubic depression ----------------------------------------------------------


def test_depress_cubic_example():
    f = TowerField()
    c, d, shift = depress_cubic(f, f.from_rational(3), f.zero, f.zero)
    assert f.as_rational(c) == -3
    assert f.as_rational(d) == 2
    assert f.as_rational(shift) == 1
    # independent oracle: substitute x = u - 1 into x^3 + 3x^2
    assert _poly_compose_shift([1, 3, 0, 0], 1) == [1, 0, -3, 2]


def test_depress_cubic_already_depressed():
    f = TowerField()
    c, d, shift = depress_cubic(f, f.zero, f.from_rational(5), f.from_rational(-7))
    assert f.as_rational(c) == 5
    assert f.as_rational(d) == -7
    assert f.is_zero(shift)


def test_depress_cubic_perfect_cube():
    f = TowerField()
    c, d, _ = depress_cubic(f, f.from_rational(3), f.from_rational(3), f.from_rational(1))
    assert f.is_zero(c) and f.is_zero(d)
    assert _poly_compose_shift([1, 3, 3, 1], 1) == [1, 0, 0, 0]


def test_depress_cubic_roundtrip_random(rng):
    for _ in range(50):
        f = TowerField()
        b, c, d = (rand_fraction(rng) for _ in range(3))
        u = rand_fraction(rng)
        dc, dd, shift = depress_cubic(f, *(f.from_rational(q) for q in (b, c, d)))
        expected = _poly_compose_shift([1, b, c, d], f.as_rational(shift))
        assert expected == [
            1,
            0,
            f.as_rational(dc),
            f.as_rational(dd),
        ]
        x = f.from_rational(u - f.as_rational(shift))
        lhs = horner_eval(f, [f.one, f.from_rational(b), f.from_rational(c), f.from_rational(d)], x)
        rhs = horner_eval(f, [f.one, f.zero, dc, dd], f.from_rational(u))
        assert f.eq(lhs, rhs)


# -- Cardano -------------------------------------------------------------------


def test_cardano_worked_example():
    f = TowerField()
    u = cardano_root(f, f.from_rational(-6), f.from_rational(-9), branch=0)
    assert f.as_rational(u) == 3


def test_cardano_zero_inner_square_root():
    f = TowerField()
    u = cardano_root(f, f.from_rational(-3), f.from_rational(-2), branch=0)
    assert f.as_rational(u) == 2


def test_cardano_omega_branch_hits_cofactor():
    f = TowerField()
    u = cardano_root(f, f.from_rational(-6), f.from_rational(-9), branch=1)
    # u**3 - 6u - 9 = (u - 3)(u**2 + 3u + 3); the omega branch solves the cofactor
    value = horner_eval(f, [f.one, f.from_rational(3), f.from_rational(3)], u)
    assert f.is_zero(value)


def test_cardano_rejects_zero_c():
    f = TowerField()
    with pytest.raises(ZeroLinearTerm):
        cardano_root(f, f.zero, f.from_rational(-8))


def test_cardano_substitution_zero_random(rng):
    for _ in range(25):
        f = TowerField()
        c = f.from_rational(rand_fraction(rng, nonzero=True))
        d = f.from_rational(rand_fraction(rng, nonzero=True))
        coeffs = [f.one, f.zero, c, d]
        for branch in range(3):
            u = cardano_root(f, c, d, branch)
            assert f.is_zero(horner_eval(f, coeffs, u))


# -- total cubic solvers ---------------------------------------------------------


def test_cubic_total_pure_cube_roots():
    f = TowerField()
    recs = solve_cubic(f, f.one, f.zero, f.zero, f.from_rational(-8))
    labels = [r.label for r in recs]
    assert labels == ["cuberoot-A", "cuberoot-B", "cuberoot-C"]
    w = complex(-0.5, 0.8660254037844386)
    expected = [2, 2 * w, 2 * w * w]
    got = [r.approx for r in recs]
    assert all(abs(a - b) < 1e-9 for a, b in zip(got, expected))


def test_cubic_total_zero_d_case():
    f = TowerField()
    recs = solve_cubic(f, f.one, f.zero, f.from_rational(-4), f.zero)
    assert _multiset(recs) == [(-2.0, 0.0), (0.0, 0.0), (2.0, 0.0)]
    assert [r.label for r in recs] == ["zero", "sqrt-plus", "sqrt-minus"]


def test_cubic_total_generic_case():
    f = TowerField()
    recs = solve_cubic(f, f.one, f.zero, f.from_rational(-6), f.from_rational(-9))
    assert _multiset(recs) == [
        (-1.5, -0.866025404),
        (-1.5, 0.866025404),
        (3.0, 0.0),
    ]


def test_cubic_total_returns_three_records_with_repetition():
    f = TowerField()
    recs = solve_cubic(f, f.one, f.zero, f.zero, f.zero)
    assert len(recs) == 3
    assert all(f.is_zero(r.exact) for r in recs)


def test_solve_cubic_with_shift():
    f = TowerField()
    recs = solve_cubic(f, *(f.from_rational(q) for q in (1, 3, 0, 0)))
    assert _multiset(recs) == [(-3.0, 0.0), (0.0, 0.0), (0.0, 0.0)]
    coeffs = [f.from_rational(q) for q in (1, 3, 0, 0)]
    for r in recs:
        assert f.is_zero(horner_eval(f, coeffs, r.exact))


def test_solve_cubic_scale_invariance():
    f1, f2 = TowerField(), TowerField()
    a = solve_cubic(f1, *(f1.from_rational(q) for q in (1, 0, -6, -9)))
    b = solve_cubic(f2, *(f2.from_rational(q) for q in (2, 0, -12, -18)))
    assert _multiset(a) == _multiset(b)


def test_solve_cubic_rejects_zero_leading():
    f = TowerField()
    with pytest.raises(DegenerateLeadingTerm):
        solve_cubic(f, f.zero, f.one, f.one, f.one)


def test_strict_cubic_rejects_paper_excluded_inputs():
    f = TowerField()
    with pytest.raises(StrictHypothesisViolation, match="3ac - b\\^2"):
        solve_cubic(f, *(f.from_rational(q) for q in (1, 0, 0, -8)), strict=True)
    f = TowerField()
    # x**3 - 3x + 2 has 2b^3 - 9abc + 27a^2 d = 54 - 0... pick d' = 0 instead:
    # depressed d' = 0 iff 2b^3 - 9abc + 27d = 0; with b=0: d = 0
    with pytest.raises(StrictHypothesisViolation, match="2b\\^3"):
        solve_cubic(f, *(f.from_rational(q) for q in (1, 0, -4, 0)), strict=True)


def test_strict_cubic_matches_total_on_generic_input():
    f1, f2 = TowerField(), TowerField()
    a = solve_cubic(f1, *(f1.from_rational(q) for q in (1, 1, -6, -9)), strict=True)
    b = solve_cubic(f2, *(f2.from_rational(q) for q in (1, 1, -6, -9)))
    assert _multiset(a) == _multiset(b)


# -- quartic -------------------------------------------------------------------


def test_depress_quartic_example():
    f = TowerField()
    c, d, e, _ = depress_quartic(f, *(f.from_rational(q) for q in (4, 0, 0, 0)))
    assert (
        f.as_rational(c),
        f.as_rational(d),
        f.as_rational(e),
    ) == (-6, 8, -3)
    assert _poly_compose_shift([1, 4, 0, 0, 0], 1) == [1, 0, -6, 8, -3]


def test_depress_quartic_already_depressed():
    f = TowerField()
    c, d, e, _ = depress_quartic(f, f.zero, f.one, f.from_rational(2), f.from_rational(3))
    assert f.as_rational(c) == 1
    assert f.as_rational(d) == 2
    assert f.as_rational(e) == 3


def test_depress_quartic_perfect_fourth_power():
    f = TowerField()
    c, d, e, _ = depress_quartic(f, *(f.from_rational(q) for q in (4, 6, 4, 1)))
    assert f.is_zero(c) and f.is_zero(d) and f.is_zero(e)


def test_depress_quartic_roundtrip_random(rng):
    for _ in range(50):
        f = TowerField()
        b, c, d, e = (rand_fraction(rng) for _ in range(4))
        dc, dd, de, shift = depress_quartic(f, *(f.from_rational(q) for q in (b, c, d, e)))
        expected = _poly_compose_shift([1, b, c, d, e], f.as_rational(shift))
        assert expected == [
            1,
            0,
            f.as_rational(dc),
            f.as_rational(dd),
            f.as_rational(de),
        ]


def test_resolvent_coefficients():
    f = TowerField()
    rb, rc, rd = resolvent_coeffs(f, f.from_rational(2), f.from_rational(1), f.from_rational(2))
    assert (f.as_rational(rb), f.as_rational(rc), f.as_rational(rd)) == (4, -4, -1)
    # P = 1 is a root: 1 + 4 - 4 - 1 = 0
    value = horner_eval(f, [f.one, rb, rc, rd], f.one)
    assert f.is_zero(value)


def test_resolvent_biquadratic_shape():
    f = TowerField()
    rb, rc, rd = resolvent_coeffs(f, f.zero, f.zero, f.from_rational(5))
    assert (f.as_rational(rb), f.as_rational(rc), f.as_rational(rd)) == (0, -20, 0)


def test_quartic_split_with_injected_resolvent_root():
    f = TowerField()
    p, q, s = quartic_split_depressed(
        f,
        f.from_rational(2),
        f.from_rational(1),
        f.from_rational(2),
        resolvent_root=f.from_rational(1),
    )
    assert f.as_rational(p) == 1
    assert f.as_rational(q) == 1
    assert f.as_rational(s) == 2


def test_quartic_split_other_sqrt_branch_swaps_factors():
    # with p -> -p the q and s parameters swap; the factor set is unchanged
    c, d, p = Fraction(2), Fraction(1), Fraction(-1)
    big_p = p * p
    q = (c + big_p - d / p) / 2
    s = (c + big_p + d / p) / 2
    assert (q, s) == (2, 1)


def test_quartic_split_expansion_identity_random(rng):
    for _ in range(10):
        f = TowerField()
        c = f.from_rational(rand_fraction(rng, 10))
        d = f.from_rational(rand_fraction(rng, 10, nonzero=True))
        e = f.from_rational(rand_fraction(rng, 10, nonzero=True))
        p, q, s = quartic_split_depressed(f, c, d, e)
        assert f.eq(f.sub(f.add(q, s), f.mul(p, p)), c)
        assert f.eq(f.mul(p, f.sub(s, q)), d)
        assert f.eq(f.mul(q, s), e)


def test_quartic_split_rejects_biquadratic():
    f = TowerField()
    with pytest.raises(BiquadraticQuartic):
        quartic_split_depressed(f, f.from_rational(2), f.zero, f.from_rational(2))


# -- the formula helpers on a plain field ---------------------------------------


def test_cubic_helpers_on_plain_field_match_solve_cubic(rng):
    checked = 0
    for _ in range(30):
        f = TowerField()
        a, b, c, d = (f.from_rational(rand_fraction(rng, nonzero=True)) for _ in range(4))
        records = solve_cubic(f, a, b, c, d)
        dc, dd, shift = depress_cubic(f, f.div(b, a), f.div(c, a), f.div(d, a))
        assert all(isinstance(x, TowerElement) for x in (dc, dd, shift))
        if f.is_zero(dc) or f.is_zero(dd):
            continue
        for branch, record in enumerate(records):
            assert record.label == "cardano-" + "ABC"[branch]
            root = cardano_root(f, dc, dd, branch)
            assert isinstance(root, TowerElement)
            assert f.sub(root, shift) == record.exact
        checked += 1
    assert checked >= 25


def test_quartic_helpers_on_plain_field_match_solve_quartic(rng):
    checked = 0
    while checked < 10:
        f = TowerField()
        a, b, c, d, e = (f.from_rational(rand_fraction(rng, 10, nonzero=True)) for _ in range(5))
        try:
            records = solve_quartic(f, a, b, c, d, e)
            dc, dd, de, shift = depress_quartic(f, *(f.div(x, a) for x in (b, c, d, e)))
            resolvent = resolvent_coeffs(f, dc, dd, de)
            split = quartic_split_depressed(f, dc, dd, de)
        except ReducibleExtensionError:
            continue
        values = (dc, dd, de, shift, *resolvent, *split)
        assert all(isinstance(x, TowerElement) for x in values)
        p, q, s = split
        factors = {"quadratic-1": (p, q), "quadratic-2": (f.neg(p), s)}
        for record in records:
            u = f.add(record.exact, shift)
            lin, const = factors[record.label.rsplit("-", 1)[0]]
            assert f.is_zero(f.add(f.mul(u, f.add(u, lin)), const))
        checked += 1


def test_quartic_total_biquadratic():
    f = TowerField()
    recs = solve_quartic(f, f.one, f.zero, f.from_rational(-5), f.zero, f.from_rational(4))
    assert _multiset(recs) == [(-2.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (2.0, 0.0)]


def test_quartic_total_generic():
    f = TowerField()
    recs = solve_quartic(
        f, f.one, f.zero, f.from_rational(2), f.from_rational(1), f.from_rational(2)
    )
    coeffs = [f.one, f.zero, f.from_rational(2), f.from_rational(1), f.from_rational(2)]
    for r in recs:
        assert f.is_zero(horner_eval(f, coeffs, r.exact))
    # the four roots are those of u^2+u+1 and u^2-u+2 (for the P = 1 split)
    quad_roots = []
    for b, c in ((1, 1), (-1, 2)):
        disc = csqrt_principal(b * b - 4 * c)
        quad_roots += [(-b + disc) / 2, (-b - disc) / 2]
    expected = sorted((round(z.real, 9), round(z.imag, 9)) for z in quad_roots)
    assert _multiset(recs) == expected


def test_quartic_total_all_zero():
    f = TowerField()
    recs = solve_quartic(f, f.one, f.zero, f.zero, f.zero, f.zero)
    assert len(recs) == 4
    assert all(f.is_zero(r.exact) for r in recs)


def test_solve_quartic_with_shift():
    f = TowerField()
    coeffs = [f.from_rational(q) for q in (1, 4, 0, 0, 0)]
    recs = solve_quartic(f, *coeffs)
    assert _multiset(recs) == [(-4.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]
    for r in recs:
        assert f.is_zero(horner_eval(f, coeffs, r.exact))


def test_solve_quartic_scale_invariance():
    f1, f2 = TowerField(), TowerField()
    a = solve_quartic(f1, *(f1.from_rational(q) for q in (1, 0, 2, 1, 2)))
    b = solve_quartic(f2, *(f2.from_rational(q) for q in (3, 0, 6, 3, 6)))
    assert _multiset(a) == _multiset(b)


def test_strict_quartic_rejections():
    f = TowerField()
    with pytest.raises(StrictHypothesisViolation, match="d' = 0"):
        solve_quartic(f, *(f.from_rational(q) for q in (1, 0, 2, 0, 2)), strict=True)
    f = TowerField()
    with pytest.raises(StrictHypothesisViolation, match="e' = 0"):
        solve_quartic(f, *(f.from_rational(q) for q in (1, 0, 2, 1, 0)), strict=True)
    f = TowerField()
    with pytest.raises(StrictHypothesisViolation, match="12e'"):
        solve_quartic(
            f, *(f.from_rational(q) for q in (1, 0, 2, 1, Fraction(-1, 3))), strict=True
        )


def test_strict_quartic_matches_total_on_generic_input():
    f1, f2 = TowerField(), TowerField()
    a = solve_quartic(f1, *(f1.from_rational(q) for q in (1, 0, 2, 1, 2)), strict=True)
    b = solve_quartic(f2, *(f2.from_rational(q) for q in (1, 0, 2, 1, 2)))
    assert _multiset(a) == _multiset(b)


# -- records and rendering -------------------------------------------------------


def test_render_radical_cardano_example():
    f = TowerField()
    recs = solve_cubic(f, f.one, f.zero, f.from_rational(-6), f.from_rational(-9))
    text = render_radical(recs[0])
    assert text == "cbrt(9/2 + sqrt(49/4)) - (-6)/(3*cbrt(9/2 + sqrt(49/4)))"
    assert text.count("cbrt(9/2 + sqrt(49/4))") == 2


def test_render_radical_zero_root():
    f = TowerField()
    recs = solve_cubic(f, f.one, f.zero, f.from_rational(-4), f.zero)
    assert render_radical(recs[0]) == "0"


def test_render_radical_pure_square_root():
    f = TowerField()
    recs = solve_cubic(f, f.one, f.zero, f.from_rational(-5), f.zero)
    assert render_radical(recs[1]) == "sqrt(5)"
    assert render_radical(recs[2]) == "-sqrt(5)"


def test_records_are_self_consistent(rng):
    from radica.solvers import record_self_consistent

    cases = [
        (3, (1, 2, -5, 1)),
        (3, (1, 0, -6, 9)),
        (4, (1, 4, 0, 0, 0)),
        (4, (2, 1, 3, 1, 2)),
    ]
    for degree, coeffs in cases:
        f = TowerField()
        elems = [f.from_rational(q) for q in coeffs]
        recs = solve_cubic(f, *elems) if degree == 3 else solve_quartic(f, *elems)
        for r in recs:
            assert record_self_consistent(r), (coeffs, r.label)


def test_records_coherent_on_ill_conditioned_cubic():
    # tiny depressed c' makes -d/2 + r a difference of near-equal quantities;
    # the traced formula must switch to the companion cube root so the float
    # evaluation of the radical tree keeps its digits
    from radica.solvers import record_self_consistent

    f = TowerField()
    coeffs = [f.from_rational(q) for q in (Fraction(10, 17), Fraction(-9, 7), Fraction(16, 17), Fraction(19, 11))]
    recs = solve_cubic(f, *coeffs)
    for r in recs:
        assert f.is_zero(horner_eval(f, coeffs, r.exact))
        assert record_self_consistent(r), r.label


def test_records_coherent_on_negative_cube_root_case():
    from radica.solvers import record_self_consistent

    f = TowerField()
    recs = solve_cubic(f, f.one, f.zero, f.zero, f.from_rational(8))
    assert f.as_rational(recs[0].exact) == -2
    assert render_radical(recs[0]) == "-2"
    for r in recs:
        assert record_self_consistent(r), r.label


def test_rendered_text_reevaluates_to_the_approximation():
    # the rendered string is itself an unambiguous expression: evaluating it
    # (with principal-branch roots and omega bound) must reproduce approx
    from radica.complexfield import ccbrt_principal as cbrt_fn, csqrt_principal as sqrt_fn

    names = {
        "sqrt": sqrt_fn,
        "cbrt": cbrt_fn,
        "omega": complex(-0.5, 3**0.5 / 2),
        "__builtins__": {},
    }
    cases = [(3, (1, 0, -6, -9)), (3, (1, 2, -1, 7)), (4, (1, 0, 2, 1, 2)), (4, (1, 4, 0, 0, 0))]
    for degree, coeffs in cases:
        f = TowerField()
        elems = [f.from_rational(q) for q in coeffs]
        recs = solve_cubic(f, *elems) if degree == 3 else solve_quartic(f, *elems)
        for r in recs:
            text = render_radical(r).replace("^", "**")
            value = eval(text, names)  # noqa: S307 - fixed namespace, own output
            assert abs(value - r.approx) <= 1e-9 * max(1.0, abs(r.approx)), (
                coeffs,
                r.label,
                text,
            )


def test_branch_totality_under_flipped_sqrt():
    class FlippedSqrt(ComplexField):
        def sqrt(self, x):
            return -csqrt_principal(x)

    plain = ComplexField()
    flipped = FlippedSqrt()
    a = solve_cubic(plain, plain.one, plain.zero, complex(-6), complex(-9))
    b = solve_cubic(flipped, flipped.one, flipped.zero, complex(-6), complex(-9))
    assert _multiset(a) == _multiset(b)


def test_complex_backend_solves_decimal_style_inputs():
    f = ComplexField(scale=10)
    recs = solve_cubic(f, 1 + 0j, 0j, complex(-6.5), complex(-9.25))
    for r in recs:
        value = r.approx**3 - 6.5 * r.approx - 9.25
        assert abs(value) <= 1e-6 * 10
        assert abs(evaluate(r.radical) - r.approx) <= 1e-9 * max(1, abs(r.approx))
