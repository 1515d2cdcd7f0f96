"""Solver formulas: depressions, Cardano, the quartic split, records."""

import itertools
import random
from fractions import Fraction

import pytest

from radica import (
    BiquadraticQuartic,
    ComplexField,
    DegenerateLeadingTerm,
    ReducibleExtensionError,
    RootRecord,
    SolverError,
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
    solve_linear,
    solve_quadratic,
    solve_quartic,
    verify_solution,
)
from radica import radicals, solvers
from radica.complexfield import csqrt_principal
from radica.fields import FieldCapabilities
from radica.radicals import Cbrt, OmegaPow, Sqrt, evaluate, render
from radica.selftest import rand_fraction
from radica.solvers import _TV, _cubic_depressed_roots, _Traced


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


def test_cardano_root_rejects_a_branch_beyond_the_three():
    f = TowerField()
    with pytest.raises(ValueError):
        cardano_root(f, f.from_rational(-6), f.from_rational(-9), 3)


def _reference_cardano_branch(f, c, d, k):
    """Root ``k`` of u**3 + c*u + d by the per-branch formula: k fresh
    products by omega on the base's cube root, then the companion."""
    t, swapped = solvers._cardano_base(f, c, d)
    for _ in range(k):
        t = f.mul(f.omega(), t)
    companion = f.div(c, f.mul(f.from_rational(3), t))
    return f.sub(companion, t) if swapped else f.sub(t, companion)


@pytest.mark.parametrize("c, d", [(-6, -9), (-3, -2), (1, 1), (-2, 5)])
def test_shared_cardano_base_matches_one_branch_entry(c, d):
    """The omega-orbit's three Cardano roots are the per-branch formula's,
    as normal forms, as doubles and as rendered trees, and ``cardano_root``
    returns each of them."""
    for f in (TowerField(), ComplexField()):
        fc, fd = f.from_rational(c), f.from_rational(d)
        want = [_reference_cardano_branch(f, fc, fd, k) for k in range(3)]
        assert [u for _, u in _cubic_depressed_roots(f, fc, fd)] == want
        assert [cardano_root(f, fc, fd, k) for k in range(3)] == want
    t = _Traced(TowerField())
    tc, td = t.from_rational(c), t.from_rational(d)
    want = [render(_reference_cardano_branch(t, tc, td, k).expr) for k in range(3)]
    assert [render(u.expr) for _, u in _cubic_depressed_roots(t, tc, td)] == want


class _OmegaProductCounter(TowerField):
    """Counts the products that take an operand from ``omega()``."""

    def __init__(self):
        super().__init__()
        self.omegas = []
        self.omega_products = 0

    def omega(self):
        w = super().omega()
        self.omegas.append(w)
        return w

    def mul(self, x, y):
        self.omega_products += any(w is x or w is y for w in self.omegas)
        return super().mul(x, y)


@pytest.mark.parametrize("coeffs", [(1, 0, -6, -9), (1, 0, 0, -2)], ids=["cardano", "cuberoot"])
def test_three_cubic_roots_take_two_products_by_omega(coeffs):
    f = _OmegaProductCounter()
    solve_cubic(f, *coeffs)
    assert f.omega_products == 2


def test_exact_cubic_takes_one_cube_root(monkeypatch):
    calls = {"sqrt": 0, "cbrt": 0}
    for op in calls:
        real = getattr(TowerField, op)

        def counted(self, x, op=op, real=real):
            calls[op] += 1
            return real(self, x)

        monkeypatch.setattr(TowerField, op, counted)
    f = TowerField()
    solve_cubic(f, *(f.from_rational(q) for q in (1, 0, -6, -9)))
    # sqrt of the Cardano inner term, and sqrt(-3) for omega
    assert calls == {"sqrt": 2, "cbrt": 1}


class _ZeroTestCounter(TowerField):
    """Counts the backend's zero tests."""

    def __init__(self):
        super().__init__()
        self.zero_tests = 0

    def is_zero(self, x):
        self.zero_tests += 1
        return super().is_zero(x)


@pytest.mark.parametrize(
    "solve, coeffs, total, strict",
    [
        # the leading coefficient, then c' and d' in the split
        (solve_cubic, (2, 1, -3, 5), 3, 5),
        # the leading coefficient, d', the resolvent's c and d, and the two
        # quadratics' linear terms, +-p, which are radicals
        (solve_quartic, (3, -1, 2, 5, -7), 6, 7),
    ],
)
def test_each_case_split_tests_its_element_once(monkeypatch, solve, coeffs, total, strict):
    """Zero tests are counted where the formulas make them, at the trace
    backend.  A rational value's test reads its literal and never reaches
    the backend: the leading coefficient, the cubic's c' and d' and the
    quartic's d', e' and resolvent are rational.  Only a test of a radical
    does, and the resolvent root the quartic split takes is not tested."""
    traced = []
    real = _Traced.is_zero

    def counted(self, x):
        traced.append(x)
        return real(self, x)

    monkeypatch.setattr(_Traced, "is_zero", counted)
    backend = {solve_cubic: 0, solve_quartic: 2}[solve]
    for is_strict, want in ((False, total), (True, strict)):
        traced.clear()
        f = _ZeroTestCounter()
        solve(f, *(f.from_rational(q) for q in coeffs), strict=is_strict)
        assert len(traced) == want
        assert f.zero_tests == backend


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


def test_generic_exact_quartic_never_takes_omega(monkeypatch):
    def no_omega(self):
        raise AssertionError("omega taken")

    monkeypatch.setattr(TowerField, "omega", no_omega)
    f = TowerField()
    coeffs = [1, 0, 2, 1, 2]
    records = solve_quartic(f, *coeffs)
    assert verify_solution(f, coeffs, records).factorization_exact is True
    assert f.tower.depth == 5
    assert all(level.radicand != (((0, -3),), 1) for level in f.tower.levels)


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


@pytest.mark.parametrize(
    "solve, coeffs, needle",
    [
        # c' = 3 - 0.3**2/(3*0.1**2) = 0 in Q, not in doubles
        (solve_cubic, ("0.1", "0.3", "0.3", "1"), "3ac - b\\^2"),
        # the resolvent's depressed linear coefficient -(c'^2 + 12e')/3 with
        # c' = 0.6 and e' = -0.03
        (solve_quartic, ("0.1", "0", "0.06", "0.1", "-0.003"), "12e'"),
    ],
)
def test_strict_rejects_what_the_formulas_reject_on_the_complex_backend(solve, coeffs, needle):
    # the decimals go in as the CLI passes them, as exact rationals, so the
    # hypotheses are decided in Q
    with pytest.raises(StrictHypothesisViolation, match=needle):
        solve(ComplexField(), *map(Fraction, coeffs), strict=True)


def test_the_complex_backend_decides_tiny_coefficients_exactly():
    # 10x^3 + 1e-12x + 1: c' is 1e-13, nonzero, so strict mode takes Cardano
    records = solve_cubic(ComplexField(), 10, 0, Fraction("1e-12"), 1, strict=True)
    assert [r.label for r in records] == ["cardano-A", "cardano-B", "cardano-C"]


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


def record_self_consistent(record, tol=1e-9):
    """True when the record's radical tree and exact value (if any) both
    reproduce its numeric approximation within ``tol``."""
    ok = abs(evaluate(record.radical) - record.approx) <= tol * max(
        1.0, abs(record.approx)
    )
    if ok and record.exact is not None:
        ok = abs(record.exact.to_complex() - record.approx) <= tol * max(
            1.0, abs(record.approx)
        )
    return ok


def test_records_are_self_consistent(rng):
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
    f = TowerField()
    coeffs = [f.from_rational(q) for q in (Fraction(10, 17), Fraction(-9, 7), Fraction(16, 17), Fraction(19, 11))]
    recs = solve_cubic(f, *coeffs)
    for r in recs:
        assert f.is_zero(horner_eval(f, coeffs, r.exact))
        assert record_self_consistent(r), r.label


def test_records_coherent_on_negative_cube_root_case():
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
    a = solve_cubic(plain, 1, 0, -6, -9)
    b = solve_cubic(flipped, 1, 0, -6, -9)
    assert _multiset(a) == _multiset(b)


def _labels_or_error(field, qs, strict):
    solve = solve_cubic if len(qs) == 4 else solve_quartic
    try:
        return sorted(r.label for r in solve(field, *qs, strict=strict))
    except SolverError as exc:
        return type(exc).__name__, str(exc)


def test_both_backends_decide_decimal_input_alike():
    """Fed the same decimal rationals, the complex and the exact backend take
    the same case split: the labels, or the strict rejection, agree.  Repeated
    one-decimal roots make c', d' and the resolvent's terms vanish; scaled
    coefficients put up to 1e40 between the largest and the smallest."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tenths = st.integers(-30, 30).map(lambda n: Fraction(n, 10))
    repeated = st.sampled_from([Fraction(-1, 2), Fraction(3, 10), 1])
    roots = st.integers(3, 4).flatmap(
        lambda n: st.lists(repeated | tenths, min_size=n, max_size=n)
    )
    from_roots = st.builds(
        lambda lead, rs: [lead * c for c in _product(*([1, -r] for r in rs))],
        tenths.filter(bool),
        roots,
    )
    decimal = st.builds(
        lambda m, k: Fraction(m, 10) * Fraction(10) ** k, st.integers(-99, 99), st.integers(-20, 20)
    )
    scaled = st.integers(4, 5).flatmap(lambda n: st.lists(decimal, min_size=n, max_size=n)).filter(
        lambda qs: qs[0] != 0
    )

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(from_roots | scaled, st.booleans())
    @hypothesis.example(
        [Fraction("67422875422606543926987146033637980184155.2"), 0, Fraction("-3.9"), Fraction("-64.1")],
        False,
    )
    # the resolvent's first root is tiny, and rounds to 0.0 in doubles
    @hypothesis.example([Fraction("-0.1"), 0, 100000, Fraction("0.1"), 1], False)
    def check(qs, strict):
        got = _labels_or_error(ComplexField(), qs, strict)
        assert got == _labels_or_error(TowerField(), qs, strict)

    check()


@pytest.mark.parametrize(
    "coeffs, want",
    [
        # the resolvent's first root, about 1e-8, is lost to rounding
        (
            ("1", "0", "-10000", "-1", "-1.1"),
            (-99.99995054996359, 100.00005054996139, -4.99999989e-05 + 0.010487969240526024j),
        ),
        # about x^4 - 4.48, whose first resolvent root, about 7e-11, is lost
        # inside Cardano's formula rather than to its shift
        (
            ("67000.7", "-0.056", "-0.000075", "-0.0023", "-300000.3"),
            (-1.4546567404723882, 1.4546571664898982, 2.0489732665703965e-07 + 1.4546569530962918j),
        ),
    ],
)
def test_complex_quartic_split_avoids_a_resolvent_root_lost_to_rounding(coeffs, want):
    # want: roots from mpmath.polyroots at 40 digits, one of each conjugate pair
    got = [r.approx for r in solve_quartic(ComplexField(), *map(Fraction, coeffs))]
    for z in want:
        assert min(abs(z - g) for g in got) <= 1e-9 * max(1, abs(z))


def test_complex_backend_solves_decimal_style_inputs():
    f = ComplexField()
    recs = solve_cubic(f, 1, 0, Fraction("-6.5"), Fraction("-9.25"))
    for r in recs:
        value = r.approx**3 - 6.5 * r.approx - 9.25
        assert abs(value) <= 1e-6 * 10
        assert abs(evaluate(r.radical) - r.approx) <= 1e-9 * max(1, abs(r.approx))


def _product(*factors):
    """Leading-first coefficients of a product of leading-first polynomials."""
    out = [Fraction(1)]
    for factor in factors:
        nxt = [Fraction(0)] * (len(out) + len(factor) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(factor):
                nxt[i + j] += x * y
        out = nxt
    return out


def test_exact_solves_never_invert_a_zero_divisor():
    """Inputs whose towers are reducible solve exactly in both modes.

    A radicand that is a perfect power over the levels below makes the
    tower a ring with zero divisors, but on rational input the solvers
    invert only units, so ``ReducibleExtensionError`` cannot fire:

    - rationals: the leading coefficient and small integer constants;
    - ``3*omega**k*t`` in Cardano's ``c/(3t)``, where ``t**3`` is one
      radicand R: R times the conjugate radicand is ``c**3/27 != 0`` and
      ``omega**3 = 1``, so ``t * t**2 * R' * 27/c**3 = 1``;
    - ``p = sqrt(P)`` in the quartic split's ``d/p``, where P satisfies the
      resolvent ``P*(P**2 + 2c*P + c**2 - 4e) = d**2 != 0`` as a ring
      identity, so P and with it p are units.

    Strict mode may still reject an input outside its hypotheses.
    """
    values = (-2, -1, 0, Fraction(1, 2), 3)
    polys = [
        _product(*([1, -r] for r in roots))
        for degree in (3, 4)
        for roots in itertools.combinations_with_replacement(values, degree)
    ]
    polys += [
        _product([1, 0, -2 * k * k], [1, 0, -2 * m * m]) for k in (1, 2, 3) for m in (1, 2, 3)
    ]
    polys += [_product([1, 1, 1], [1, 0, 3 * k * k]) for k in (1, 2)]
    polys += [_product([1, 0, 0, -8 * a], [1, -b]) for a in (1, 2, -1) for b in (2, -2, 1)]
    strict_solved = 0
    for coeffs, strict in itertools.product(polys, (False, True)):
        f = TowerField()
        solve = solve_cubic if len(coeffs) == 4 else solve_quartic
        try:
            records = solve(f, *coeffs, strict=strict)
        except StrictHypothesisViolation:
            assert strict, coeffs
            continue
        report = verify_solution(f, coeffs, records)
        assert report.residuals_ok and report.factorization_ok, (coeffs, strict)
        strict_solved += strict
    assert strict_solved >= len(polys) // 2


# -- pending rationals against the eager trace backend -----------------------------
#
# ``_ReferenceTraced`` and ``_reference_record`` are the trace backend and the
# record builder as they were before a rational value stayed a literal until
# read, kept verbatim but for ``is_exact``, which the quartic split reads, and
# ``wrap``, which takes the rational coefficients the solvers take: each solve
# must give the same records through both.


class _ReferenceTraced(FieldCapabilities):
    """Field whose elements are ``_TV(value, expr)`` pairs: ``value`` lives in
    the wrapped backend ``f`` and ``expr`` is its radical tree."""

    def __init__(self, field):
        self.f = field
        self.is_exact = field.is_exact
        self._omega = None
        self._lits = {}

    def wrap(self, x):
        return _TV(x, radicals.lit(self.f.as_rational(x)))

    def from_rational(self, q):
        tv = self._lits.get(q)
        if tv is None:
            tv = _TV(self.f.from_rational(q), radicals.lit(q))
            self._lits[q] = tv
        return tv

    def to_complex(self, x):
        return self.f.to_complex(x.value)

    def is_zero(self, x):
        return self.f.is_zero(x.value)

    def add(self, x, y):
        return _TV(self.f.add(x.value, y.value), radicals.radd(x.expr, y.expr))

    def sub(self, x, y):
        return _TV(self.f.sub(x.value, y.value), radicals.rsub(x.expr, y.expr))

    def neg(self, x):
        return _TV(self.f.neg(x.value), radicals.rneg(x.expr))

    def mul(self, x, y):
        return _TV(self.f.mul(x.value, y.value), radicals.rmul(x.expr, y.expr))

    def div(self, x, y):
        return _TV(self.f.div(x.value, y.value), radicals.rdiv(x.expr, y.expr))

    def sqrt(self, x):
        return _TV(self.f.sqrt(x.value), Sqrt(x.expr))

    def cbrt(self, x):
        value = self.f.cbrt(x.value)
        q = self.f.as_rational(x.value)
        if q is not None and q < 0:
            # the exact backend takes the real (sign-preserving) cube root of
            # a negative rational, which the principal branch would not match
            root = self.f.as_rational(value)
            if root is not None:
                return _TV(value, radicals.lit(root))
        return _TV(value, Cbrt(x.expr))

    def omega(self):
        if self._omega is None:
            self._omega = _TV(self.f.omega(), OmegaPow(1))
        return self._omega


def _reference_record(field, label, tv):
    return RootRecord(
        label=label,
        exact=tv.value if field.is_exact else None,
        approx=field.to_complex(tv.value),
        radical=tv.expr,
    )


class _ReferenceTracedRecords(_ReferenceTraced):
    """The reference with the record builder the solvers call."""

    def record(self, label, tv):
        return _reference_record(self.f, label, tv)


def _solve_any(field, coeffs, strict):
    """The records of a solve, or the type and text of what it raised."""
    solve = {2: solve_linear, 3: solve_quadratic, 4: solve_cubic, 5: solve_quartic}[len(coeffs)]
    extra = {"strict": strict} if len(coeffs) > 3 else {}
    try:
        return solve(field, *coeffs, **extra)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same_solve(monkeypatch, field, coeffs, strict=False):
    """Solve ``coeffs`` (backend elements) through the reference trace
    backend and then through the solvers' own, in the same session: the
    labels, exact elements, approximations to the bit, rendered radicals
    and exceptions must agree, and the second solve adjoins no level."""
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_Traced", _ReferenceTracedRecords)
        want = _solve_any(field, coeffs, strict)
    depth = field.tower.depth if field.is_exact else 0
    got = _solve_any(field, coeffs, strict)
    if isinstance(want, tuple):
        assert got == want
        return
    assert [r.label for r in got] == [r.label for r in want]
    assert [r.exact for r in got] == [r.exact for r in want]
    hexes = [(r.approx.real.hex(), r.approx.imag.hex()) for r in want]
    assert [(r.approx.real.hex(), r.approx.imag.hex()) for r in got] == hexes
    assert [render_radical(r) for r in got] == [render_radical(r) for r in want]
    if field.is_exact:
        assert field.tower.depth == depth


def _exact_coeffs(qs):
    """A session and the rationals ``qs`` as its elements."""
    f = TowerField()
    return f, [f.from_rational(q) for q in qs]


def test_pending_solves_match_the_eager_reference(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    polynomials = st.integers(2, 5).flatmap(lambda n: st.lists(rationals, min_size=n, max_size=n))

    @hypothesis.settings(max_examples=120, deadline=None, database=None)
    @hypothesis.given(polynomials, st.booleans())
    def check(qs, strict):
        _assert_same_solve(monkeypatch, *_exact_coeffs(qs), strict)

    check()


@pytest.mark.parametrize(
    "qs",
    [
        (0, 5),  # a zero leading coefficient: a pending division by zero
        (0, 1, 2),
        (1, 3, 3, 5),  # c' = 0
        (1, 3, -1, -3),  # d' = 0
        (1, 0, 0, -8),  # the cube roots of a rational
        (1, 0, 0, 8),  # the real cube root of a negative rational
        (1, 0, -7, 6),  # rational roots, reducible cube-root level
        (2, -5, -4, 3),  # 2(x - 1/2)(x + 1)(x - 3)
        (1, -3, 3, -1),  # a triple root
        (1, 0, -5, 0, 4),  # biquadratic
        (1, 4, 1, -6, 0),  # biquadratic after the shift
        (1, -8, 24, -32, 16),  # a fourfold root
        (1, 0, 0, 1, 0),  # c'^2 + 12e' = 0 and e' = 0
        (1, 0, 0, 0, 0),
        (1, -10, 35, -50, 24),  # four rational roots
        (3, -1, 2, 5, -7),
    ],
)
@pytest.mark.parametrize("strict", [False, True])
def test_pending_solves_match_the_eager_reference_on_degenerate_input(monkeypatch, qs, strict):
    _assert_same_solve(monkeypatch, *_exact_coeffs(qs), strict)


@pytest.mark.parametrize(
    "qs, irrational",
    [((1, 0), 1), ((1, -2, 1), 1), ((1, 0, -2), 0), ((1, 0, -3, 1), 3), ((1, 1, 0, -1), 2)],
)
def test_solvers_reject_an_irrational_coefficient(qs, irrational):
    """A coefficient is rational: a tower element with sqrt(2) in it is a
    ``TypeError``, and the session adjoins nothing past that sqrt(2)."""
    f, coeffs = _exact_coeffs(qs)
    coeffs[irrational] = f.add(coeffs[irrational], f.sqrt(f.from_rational(2)))
    depth = f.tower.depth
    kind, text = _solve_any(f, coeffs, False)
    assert kind is TypeError and text.startswith("a coefficient must be rational, not ")
    assert f.tower.depth == depth


@pytest.mark.parametrize("field", [TowerField, ComplexField])
@pytest.mark.parametrize("bad", [1.5, 2.0, 2j, complex(3), float("nan")])
def test_solvers_reject_a_float_or_complex_coefficient(field, bad):
    for qs in ((1, 0), (1, 0, 1), (1, 0, -6, -9), (1, 0, 0, 1, 1)):
        for k in range(len(qs)):
            coeffs = list(qs)
            coeffs[k] = bad
            kind, text = _solve_any(field(), coeffs, False)
            assert kind is TypeError and text == f"a coefficient must be rational, not {bad!r}"


def test_a_pending_division_by_zero_raises():
    for backend in (TowerField, ComplexField):
        t = _Traced(backend())
        zero, one = t.from_rational(0), t.from_rational(1)
        assert zero.value is None and t.is_zero(zero)
        root = t.sqrt(t.from_rational(2))
        for x in (one, zero, root, t.wrap(Fraction(3))):
            with pytest.raises(ZeroDivisionError, match="^division by zero$"):
                t.div(x, zero)
            with pytest.raises(ZeroDivisionError, match="^division by zero$"):
                t.div(x, t.sub(one, one))


@pytest.mark.parametrize("q", [Fraction(1, 10**400), Fraction(-3, 10**320)])
def test_a_pending_radicand_or_divisor_that_underflows_a_double_raises(q):
    t = _Traced(ComplexField())
    x = t.sqrt(t.wrap(-4))  # 2j
    for op in (t.sqrt, t.cbrt, lambda y: t.div(x, y)):
        with pytest.raises(SolverError, match="underflows a double"):
            op(t.wrap(q))
    # an addend may underflow, and zero and the least normal double are read
    assert t.add(x, t.wrap(q)).value == float(q) + 2j
    assert t.sqrt(t.wrap(0)).value == 0
    assert t.sqrt(t.wrap(Fraction(2) ** -1022)).value == 2**-511
    # the tower holds every rational
    t = _Traced(TowerField())
    assert t.f.as_rational(t.div(t.sqrt(t.from_rational(2)), t.from_rational(q)).value) is None


@pytest.mark.parametrize(
    "field, qs",
    [(TowerField, (3, -1, 2, 5, -7)), (ComplexField, ("1.5", "-2.25", "0.125", "3.3", "-0.7"))],
)
def test_a_pending_value_reaches_the_backend_once(monkeypatch, field, qs):
    """``_read`` makes a pending value's backend element from its literal
    once and keeps it, so no pending ``_TV`` reaches the backend's
    ``from_rational`` twice in one solve; the literals that are read are
    the formulas' constants and, over Q, the pending results."""
    pending = []
    real = _Traced._read

    def read(self, x):
        if x.value is None:
            pending.append(x)
        return real(self, x)

    monkeypatch.setattr(_Traced, "_read", read)
    solve_quartic(field(), *map(Fraction, qs))
    assert pending
    assert len({id(x) for x in pending}) == len(pending)
