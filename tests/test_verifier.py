"""Verification machinery: Horner, expansion, the numeric oracle, reports."""

import gc
import itertools
import math
import random
from fractions import Fraction

import pytest

from radica import (
    ComplexField,
    NoConvergence,
    RootRecord,
    TowerField,
    durand_kerner,
    expand_monic_from_roots,
    horner_eval,
    match_root_multisets,
    negative_exhibit_two_cbrts,
    omega_twisting_cbrt,
    real_preferring_cbrt,
    residuals,
    solve_cubic,
    solve_linear,
    solve_quadratic,
    solve_quartic,
    verify_solution,
)
from radica.complexfield import approx_eq
from radica.verifier import MatchResult, _chorner
from radica.selftest import rand_fraction


def test_horner_examples():
    f = TowerField()
    coeffs = [f.from_rational(q) for q in (1, 0, -6, -9)]
    assert f.is_zero(horner_eval(f, coeffs, f.from_rational(3)))
    assert f.as_rational(horner_eval(f, coeffs, f.zero)) == -9
    assert f.as_rational(horner_eval(f, [f.from_rational(5)], f.from_rational(11))) == 5


def test_horner_rejects_empty():
    with pytest.raises(ValueError):
        horner_eval(TowerField(), [], 0)


def test_expand_two_rational_roots():
    f = TowerField()
    coeffs = expand_monic_from_roots(f, [f.from_rational(1), f.from_rational(2)])
    assert [f.as_rational(c) for c in coeffs] == [1, -3, 2]


def test_expand_cardano_root_triple():
    f = TowerField()
    g = f.sqrt(f.from_rational(-3))
    half = f.inverse(f.from_rational(2))
    r1 = f.mul(f.add(f.from_rational(-3), g), half)
    r2 = f.mul(f.sub(f.from_rational(-3), g), half)
    coeffs = expand_monic_from_roots(f, [f.from_rational(3), r1, r2])
    assert [f.as_rational(c) for c in coeffs] == [1, 0, -6, -9]


def test_expand_triple_zero():
    f = TowerField()
    coeffs = expand_monic_from_roots(f, [f.zero, f.zero, f.zero])
    assert [f.as_rational(c) for c in coeffs] == [1, 0, 0, 0]


def test_expand_evaluation_coherence_random(rng):
    for _ in range(20):
        f = TowerField()
        roots = [f.from_rational(rand_fraction(rng, 10)) for _ in range(3)]
        roots[0] = f.add(roots[0], f.sqrt(f.from_rational(rand_fraction(rng, 10, nonzero=True))))
        coeffs = expand_monic_from_roots(f, roots)
        for r in roots:
            assert f.is_zero(horner_eval(f, coeffs, r))


def _reference_expand(field, roots):
    """``expand_monic_from_roots`` by iterated convolution, as it was before
    conjugate pairs were expanded first, kept verbatim as the reference."""
    if not 1 <= len(roots) <= 4:
        raise ValueError("expected between one and four roots")
    coeffs = [field.one]
    for r in roots:
        nxt = []
        for i in range(len(coeffs) + 1):
            term = coeffs[i] if i < len(coeffs) else field.zero
            if i > 0:
                term = field.sub(term, field.mul(r, coeffs[i - 1]))
            nxt.append(term)
        coeffs = nxt
    return coeffs


def test_expansion_of_solved_roots_matches_the_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    leads = rationals.filter(bool)
    polynomials = st.integers(1, 4).flatmap(
        lambda n: st.tuples(leads, st.lists(rationals, min_size=n, max_size=n))
    )
    solvers = {2: solve_linear, 3: solve_quadratic, 4: solve_cubic, 5: solve_quartic}

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(polynomials, st.randoms(use_true_random=False))
    def check(poly, rng):
        f = TowerField()
        coeffs = [f.from_rational(q) for q in (poly[0], *poly[1])]
        roots = [rec.exact for rec in solvers[len(coeffs)](f, *coeffs)]
        want = _reference_expand(f, roots)
        assert expand_monic_from_roots(f, roots) == want
        rng.shuffle(roots)
        assert expand_monic_from_roots(f, roots) == want

    check()


def test_expansion_of_tower_elements_matches_the_reference():
    """Arbitrary elements of a tower with square and cube root levels, in
    every order, expand to the reference's elements."""
    rng = random.Random(19)
    f = TowerField()
    gens = [
        f.sqrt(f.from_rational(2)),
        f.cbrt(f.from_rational(Fraction(3, 5))),
        f.sqrt(f.from_rational(-3)),
    ]
    gens.append(f.sqrt(f.add(f.from_rational(1), gens[0])))
    monomials = [f.one, *gens, f.mul(gens[1], gens[1]), f.mul(gens[0], gens[3])]

    def element():
        x = f.zero
        for m in rng.sample(monomials, rng.randint(0, 3)):
            x = f.add(x, f.mul(f.from_rational(rand_fraction(rng, 9)), m))
        return x

    for _ in range(40):
        roots = [element() for _ in range(rng.randint(1, 4))]
        want = _reference_expand(f, roots)
        for perm in itertools.permutations(roots):
            assert expand_monic_from_roots(f, list(perm)) == want
    for n in (0, 5):
        with pytest.raises(ValueError):
            expand_monic_from_roots(f, [f.one] * n)


def test_expansion_in_complex_doubles_matches_the_reference_to_rounding():
    rng = random.Random(19)
    f = ComplexField()
    for _ in range(200):
        roots = [complex(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(rng.randint(1, 4))]
        want = _reference_expand(f, roots)
        got = expand_monic_from_roots(f, roots)
        assert all(approx_eq(x, y, 1e-12) for x, y in zip(got, want)) and len(got) == len(want)


# -- Durand-Kerner oracle --------------------------------------------------------


def test_durand_kerner_factored_quadratic():
    roots = durand_kerner([1, -3, 2])
    assert sorted(round(r.real, 9) for r in roots) == [1.0, 2.0]
    assert all(abs(r.imag) < 1e-9 for r in roots)


def test_durand_kerner_linear():
    assert abs(durand_kerner([1, -5])[0] - 5) < 1e-12


def test_durand_kerner_cardano_cubic():
    roots = durand_kerner([1, 0, -6, -9])
    got = sorted((round(r.real, 9), round(r.imag, 9)) for r in roots)
    assert got == [(-1.5, -0.866025404), (-1.5, 0.866025404), (3.0, 0.0)]


def test_durand_kerner_non_convergence_carries_iterate():
    with pytest.raises(NoConvergence) as excinfo:
        durand_kerner([1, 0, -6, -9], tol=1e-12, max_iter=1)
    assert len(excinfo.value.roots) == 3


def test_durand_kerner_rejects_bad_input():
    with pytest.raises(ValueError):
        durand_kerner([5])
    with pytest.raises(ValueError):
        durand_kerner([0, 1, 2])


def test_durand_kerner_residuals_on_random_separated_polynomials(rng):
    import itertools

    checked = 0
    while checked < 50:
        degree = rng.choice((2, 3, 4))
        roots = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(degree)]
        if min(
            (abs(a - b) for a, b in itertools.combinations(roots, 2)),
            default=1.0,
        ) < 1e-3:
            continue
        coeffs = [1 + 0j]
        for r in roots:
            coeffs = [1 + 0j] + [
                (coeffs[i] if i < len(coeffs) else 0) - r * coeffs[i - 1]
                for i in range(1, len(coeffs) + 1)
            ]
        scale = max(abs(c) for c in coeffs)
        for z in durand_kerner(coeffs):
            acc = 0j
            for c in coeffs:
                acc = acc * z + c
            assert abs(acc) <= 1e-8 * max(1.0, scale)
        checked += 1


# -- multiset matching -----------------------------------------------------------


def test_match_permutation():
    result = match_root_multisets([1, 2], [2, 1], 1e-9)
    assert result.matched
    assert result.max_distance < 1e-15


def test_match_failure_reports_distance():
    result = match_root_multisets([1, 2], [1, 3], 1e-9)
    assert not result.matched
    assert abs(result.max_distance - 1) < 1e-12


def test_match_clustered_roots_within_relative_tolerance():
    result = match_root_multisets([0, 0], [1e-13, -1e-13], 1e-9)
    assert result.matched


def _reference_match(a, b, tol):
    """The matcher that computes each pair's distance inside every
    permutation, as the reference for the one that computes them once."""
    best_perm = None
    best_rel = math.inf
    for perm in itertools.permutations(range(len(b))):
        rel = max(abs(x - b[p]) / max(1.0, abs(x), abs(b[p])) for x, p in zip(a, perm))
        if rel < best_rel:
            best_rel = rel
            best_perm = perm
    max_dist = max(abs(x - b[p]) for x, p in zip(a, best_perm))
    matched = all(approx_eq(x, b[p], tol) for x, p in zip(a, best_perm))
    return best_perm, max_dist, matched


def test_match_agrees_with_per_permutation_reference():
    rng = random.Random(20261018)
    # repeated values make exact ties between permutations
    pool = [0j, 1 + 0j, -1 + 0j, 1j, 2 - 1j, 1e-13 + 0j, -1e-13 + 0j]

    def draw():
        if rng.random() < 0.5:
            return rng.choice(pool)
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))

    ties = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        a = [draw() for _ in range(n)]
        if rng.random() < 0.5:
            b = [draw() for _ in range(n)]
        else:
            b = [x + complex(rng.choice((0.0, 1e-12, 1e-3)), 0.0) for x in a]
            rng.shuffle(b)
        tol = rng.choice((1e-9, 1e-6, 0.5))
        got = match_root_multisets(a, b, tol)
        assert (got.permutation, got.max_distance, got.matched) == _reference_match(a, b, tol)
        ties += len(set(a)) < n or len(set(b)) < n
    assert ties > 300


def test_match_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        match_root_multisets([1, 2j, 3 + 0j, -1], [3, -1 + 1e-13j, 2j, 1], 1e-9)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _match_outcome(match, a, b, tol):
    """(permutation, repr of the distance, verdict), or the error's class."""
    try:
        result = match(a, b, tol)
    except Exception as exc:  # every permutation NaN: no best one to read
        return type(exc)
    if isinstance(result, MatchResult):
        result = (result.permutation, result.max_distance, result.matched)
    permutation, max_distance, matched = result
    return permutation, repr(max_distance), matched


def test_pruned_match_agrees_with_reference_on_nan_inf_and_coincident_roots():
    rng = random.Random(20261019)
    nan, inf = math.nan, math.inf
    # non-finite parts make NaN and inf distances, at any place in a
    # permutation; repeated values make ties
    pool = [
        0j, 1 + 0j, 1 + 0j, -1 + 0j, 1j, 1e-13 + 0j,
        complex(nan, 0.0), complex(0.0, nan), complex(inf, 0.0), complex(-inf, 1.0),
        complex(inf, inf), complex(1e308, -1e308),
    ]
    kinds = set()
    for _ in range(4000):
        n = rng.randint(1, 4)
        a = [rng.choice(pool) for _ in range(n)]
        b = [rng.choice(pool) for _ in range(n)]
        if rng.random() < 0.3:
            b = list(a)
            rng.shuffle(b)
        tol = rng.choice((1e-9, 0.5))
        want = _match_outcome(_reference_match, a, b, tol)
        assert _match_outcome(match_root_multisets, a, b, tol) == want, (a, b)
        if isinstance(want, type):
            kinds.add(want)
            continue
        kinds.add("inf" if want[1] == "inf" else "finite")
        rel = [abs(x - b[p]) / max(1.0, abs(x), abs(b[p])) for x, p in zip(a, want[0])]
        if any(map(math.isnan, rel)):
            kinds.add("a later NaN passed over")
    assert kinds == {TypeError, "inf", "finite", "a later NaN passed over"}



# -- bit identity with the loops as they were before tightening -------------------


def _reference_durand_kerner(coeffs, tol=1e-12, max_iter=200):
    if len(coeffs) < 2:
        raise ValueError("degree must be at least 1")
    lead = complex(coeffs[0])
    if lead == 0:
        raise ValueError("leading coefficient must be nonzero")
    monic = [complex(c) / lead for c in coeffs]
    n = len(monic) - 1
    seed = 0.4 + 0.9j
    roots = [seed**k for k in range(n)]
    for _ in range(max_iter):
        worst = 0.0
        for i in range(n):
            zi = roots[i]
            den = 1 + 0j
            for j in range(n):
                if j != i:
                    den *= zi - roots[j]
            if den == 0:
                den = complex(1e-40, 0.0)
            corr = _chorner(monic, zi) / den
            roots[i] = zi - corr
            worst = max(worst, abs(corr))
        if worst <= tol:
            return roots
    raise NoConvergence(roots, max_iter)


def _reference_match_root_multisets(a, b, tol):
    if len(a) != len(b):
        raise ValueError("root lists must have equal length")
    if len(a) > 4:
        raise ValueError("at most four roots supported")
    if not a:
        return MatchResult(True, (), 0.0)
    dist = [[abs(x - y) / max(1.0, abs(x), abs(y)) for y in b] for x in a]
    best_perm = None
    best_rel = math.inf
    for perm in itertools.permutations(range(len(b))):
        rel = max(row[p] for row, p in zip(dist, perm))
        if rel < best_rel:
            best_rel = rel
            best_perm = perm
    max_dist = max(abs(x - b[p]) for x, p in zip(a, best_perm))
    matched = all(approx_eq(x, b[p], tol) for x, p in zip(a, best_perm))
    return MatchResult(matched, best_perm, max_dist)


def _bits(roots):
    return [(z.real.hex(), z.imag.hex()) for z in roots]


def _oracle_outcome(oracle, coeffs, max_iter):
    """The roots by ``float.hex``, or those of the iterate ``NoConvergence`` carries."""
    try:
        return "converged", _bits(oracle(coeffs, max_iter=max_iter))
    except NoConvergence as exc:
        return "no convergence", exc.iterations, _bits(exc.roots)


#: x^4 - 4x^3 + 6x^2 - 4x + 1.000001: four roots clustered at 1, on which the
#: oracle does not converge in 200 iterations
CLUSTERED_QUARTIC = [1.0, -4.0, 6.0, -4.0, 1.000001]


def _complex_numbers(st):
    parts = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.0, 1e-13])
    return st.builds(complex, parts, parts)


def test_durand_kerner_is_bit_identical_to_the_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefficient_lists = st.integers(1, 4).flatmap(
        lambda n: st.lists(_complex_numbers(st), min_size=n + 1, max_size=n + 1)
    ).filter(lambda coeffs: coeffs[0] != 0)

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(coefficient_lists, st.sampled_from([1, 2, 200]))
    @hypothesis.example(CLUSTERED_QUARTIC, 200)
    @hypothesis.example(CLUSTERED_QUARTIC, 1)
    def check(coeffs, max_iter):
        assert _oracle_outcome(durand_kerner, coeffs, max_iter) == _oracle_outcome(
            _reference_durand_kerner, coeffs, max_iter
        )

    check()
    assert _oracle_outcome(durand_kerner, CLUSTERED_QUARTIC, 200)[0] == "no convergence"


def test_match_root_multisets_is_identical_to_the_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # values drawn from a small pool repeat, which makes ties between permutations
    numbers = _complex_numbers(st) | st.sampled_from([0j, 1 + 0j, 1j, 1e-13 + 0j, 1.0000001 + 0j])
    root_lists = st.integers(0, 4).flatmap(
        lambda n: st.tuples(*[st.lists(numbers, min_size=n, max_size=n)] * 2)
    )

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(root_lists, st.sampled_from([1e-9, 1e-6, 0.5]))
    def check(lists, tol):
        got = match_root_multisets(*lists, tol)
        want = _reference_match_root_multisets(*lists, tol)
        assert got.matched is want.matched and got.permutation == want.permutation
        assert got.max_distance.hex() == want.max_distance.hex()

    check()


# -- verify_solution ---------------------------------------------------------------


def test_verify_cardano_example_passes_exactly():
    f = TowerField()
    c, d = f.from_rational(-6), f.from_rational(-9)
    records = solve_cubic(f, f.one, f.zero, c, d)
    report = verify_solution(f, [f.one, f.zero, c, d], records)
    assert report.passed
    assert report.residuals == [0.0, 0.0, 0.0]
    assert report.factorization_exact is True
    assert report.oracle_match is True


def test_verify_x_squared_plus_one():
    f = ComplexField()
    records = solve_quadratic(f, f.one, 0j, 1 + 0j)
    report = verify_solution(f, [1 + 0j, 0j, 1 + 0j], records)
    assert report.passed
    assert {round(r.approx.imag, 9) for r in records} == {1.0, -1.0}


def test_verify_detects_tampered_root():
    f = TowerField()
    c, d = f.from_rational(-6), f.from_rational(-9)
    records = solve_cubic(f, f.one, f.zero, c, d)
    tampered = [RootRecord(records[0].label, None, 3.1 + 0j, records[0].radical)]
    tampered += list(records[1:])
    report = verify_solution(f, [f.one, f.zero, c, d], tampered)
    assert not report.passed
    assert abs(report.residuals[0] - 2.191) < 1e-9


def test_verify_quartic_exact():
    f = TowerField()
    coeffs = [f.from_rational(q) for q in (1, 0, 2, 1, 2)]
    records = solve_quartic(f, *coeffs)
    report = verify_solution(f, coeffs, records)
    assert report.passed
    assert report.factorization_exact is True


def test_verify_exact_wrong_root_falls_back_to_horner(monkeypatch):
    import radica.verifier as verifier

    f = TowerField()
    coeffs = [f.from_rational(q) for q in (1, 0, 2, 1, 2)]
    records = solve_quartic(f, *coeffs)
    wrong = f.add(records[2].exact, f.from_rational(Fraction(1, 10)))
    records[2] = RootRecord(records[2].label, wrong, records[2].approx, records[2].radical)
    seen = []
    real = verifier.horner_eval
    monkeypatch.setattr(verifier, "horner_eval", lambda *a: seen.append(a) or real(*a))
    report = verify_solution(f, coeffs, records)
    assert report.factorization_exact is False
    assert report.residuals_ok is False
    assert report.residuals[2] > 0.0
    assert report.residuals[:2] + report.residuals[3:] == [0.0, 0.0, 0.0]
    assert not report.passed
    assert len(seen) == 4


def _rational_quadratic(f):
    """2x^2 - 3x - 5 = (2x - 5)(x + 1)."""
    return [f.from_rational(q) for q in (2, -3, -5)]


def _sqrt2_quadratic(f):
    """x^2 - 2*sqrt(2)*x + 1, whose roots are sqrt(2) + 1 and sqrt(2) - 1."""
    g = f.sqrt(f.from_rational(2))
    return [f.one, f.mul(f.from_rational(-2), g), f.one]


def _inverses_in_verify(monkeypatch, f, coeffs, records):
    """The report of ``verify_solution`` and the tower inverses it took."""
    seen = []
    real = TowerField.inverse
    monkeypatch.setattr(TowerField, "inverse", lambda self, x: seen.append(x) or real(self, x))
    report = verify_solution(f, coeffs, records)
    monkeypatch.undo()
    return report, len(seen)


@pytest.mark.parametrize(
    "coefficients, inverses", [(_rational_quadratic, 0), (_sqrt2_quadratic, 1)]
)
def test_verify_compares_rational_input_in_q_and_other_input_in_the_tower(
    monkeypatch, coefficients, inverses
):
    f = TowerField()
    coeffs = coefficients(f)
    records = solve_quadratic(f, *coeffs)
    report, taken = _inverses_in_verify(monkeypatch, f, coeffs, records)
    assert report.factorization_exact is True
    assert report.residuals == [0.0, 0.0]
    assert report.passed
    # the tower route divides by the leading coefficient; the Q route does not
    assert taken == inverses


@pytest.mark.parametrize(
    "coefficients, inverses", [(_rational_quadratic, 0), (_sqrt2_quadratic, 1)]
)
def test_verify_root_shifted_by_a_tenth_fails_on_both_routes(monkeypatch, coefficients, inverses):
    f = TowerField()
    coeffs = coefficients(f)
    records = solve_quadratic(f, *coeffs)
    wrong = f.add(records[0].exact, f.from_rational(Fraction(1, 10)))
    records[0] = RootRecord(records[0].label, wrong, records[0].approx, records[0].radical)
    report, taken = _inverses_in_verify(monkeypatch, f, coeffs, records)
    assert report.factorization_exact is False
    assert report.residuals[0] > 0.0 and report.residuals[1] == 0.0
    assert not report.residuals_ok and not report.passed
    assert taken == inverses


def test_residuals_exact_wrong_root_falls_back_to_horner(monkeypatch):
    import radica.verifier as verifier

    f = TowerField()
    coeffs = [f.from_rational(q) for q in (1, 0, 2, 1, 2)]
    records = solve_quartic(f, *coeffs)
    wrong = f.add(records[2].exact, f.from_rational(Fraction(1, 10)))
    records[2] = RootRecord(records[2].label, wrong, records[2].approx, records[2].radical)
    seen = []
    real = verifier.horner_eval
    monkeypatch.setattr(verifier, "horner_eval", lambda *a: seen.append(a) or real(*a))
    values, ok = residuals(f, coeffs, records)
    assert ok is False
    assert values[2] > 0.0
    assert values[:2] + values[3:] == [0.0, 0.0, 0.0]
    assert len(seen) == 4


def test_verify_flags_oracle_non_convergence(monkeypatch):
    import radica.verifier as verifier

    def explode(coeffs, tol=1e-12, max_iter=200):
        raise NoConvergence([0j], max_iter)

    monkeypatch.setattr(verifier, "durand_kerner", explode)
    f = TowerField()
    c, d = f.from_rational(-6), f.from_rational(-9)
    records = solve_cubic(f, f.one, f.zero, c, d)
    report = verifier.verify_solution(f, [f.one, f.zero, c, d], records)
    assert report.oracle_match is None
    assert report.passed
    assert any("converge" in note for note in report.notes)


# -- negative exhibit -------------------------------------------------------------


def test_exhibit_benign_case_with_real_preferring_branch():
    exhibit = negative_exhibit_two_cbrts(-6, -9)
    assert exhibit.residual_naive <= 1e-12
    assert exhibit.residual_corrected <= 1e-12
    assert abs(exhibit.s - 2) < 1e-12
    assert abs(exhibit.t_independent + 1) < 1e-12


def test_exhibit_omega_twisted_t_breaks_naive_formula():
    twisted = omega_twisting_cbrt(lambda z: z.real < 0)  # hits only the t radicand
    exhibit = negative_exhibit_two_cbrts(-6, -9, cbrt_func=twisted)
    assert abs(exhibit.residual_naive - 18.0) < 1e-9
    assert exhibit.residual_corrected <= 1e-12


def test_exhibit_corrected_formula_never_fails(rng):
    adversarial = omega_twisting_cbrt()
    for _ in range(50):
        c = complex(rng.uniform(-8, 8) or 1.0, rng.uniform(-2, 2))
        d = complex(rng.uniform(-8, 8) or 1.0, rng.uniform(-2, 2))
        if abs(c) < 1e-6 or abs(d) < 1e-6:
            continue
        for provider in (real_preferring_cbrt, adversarial):
            exhibit = negative_exhibit_two_cbrts(c, d, cbrt_func=provider)
            scale = max(1.0, abs(c), abs(d)) ** 2
            assert exhibit.residual_corrected <= 1e-9 * scale


def test_exhibit_requires_nonzero_inputs():
    with pytest.raises(ValueError):
        negative_exhibit_two_cbrts(0, 1)


def test_adversarial_provider_is_still_a_valid_cube_root(rng):
    adversarial = omega_twisting_cbrt()
    for _ in range(100):
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        root = adversarial(z)
        assert abs(root**3 - z) <= 1e-12 * max(1.0, abs(z))
