"""Randomized criteria behind `radica selftest` and the acceptance suite.

Each criterion is one function ``check(rng, n) -> (ok, detail)`` that draws
a corpus of size ``n`` from ``rng`` and checks an identity or contract:
exactly in the tower backend, within a stated tolerance in the float
backend.  ``CRITERIA`` lists them in order, each with the size `radica
selftest` runs and the size the acceptance suite runs; the two run the
same code and differ only in ``n``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .cli import run
from .complexfield import ComplexField, ccbrt_principal, csqrt_principal
from .solvers import (
    StrictHypothesisViolation,
    cardano_root,
    depress_cubic,
    depress_quartic,
    quartic_split_depressed,
    solve_cubic,
    solve_quadratic,
    solve_quartic,
)
from .tower import ReducibleExtensionError, TowerField
from .verifier import (
    NoConvergence,
    durand_kerner,
    expand_monic_from_roots,
    horner_eval,
    match_root_multisets,
    negative_exhibit_two_cbrts,
    omega_twisting_cbrt,
    verify_solution,
)


def rand_fraction(rng, span=20, nonzero=False):
    """A rational p/q with |p| <= span and 1 <= q <= span, nonzero on request."""
    while True:
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if q != 0 or not nonzero:
            return q


def _cubic_corpus(rng, n):
    return [(rand_fraction(rng, nonzero=True), rand_fraction(rng, nonzero=True)) for _ in range(n)]


def check_cardano_correctness(rng, n):
    """Each of Cardano's three branches is an exact root of n depressed cubics."""
    ok = True
    for c, d in _cubic_corpus(rng, n):
        f = TowerField()
        fc, fd = f.from_rational(c), f.from_rational(d)
        coeffs = [f.one, f.zero, fc, fd]
        for branch in range(3):
            root = cardano_root(f, fc, fd, branch)
            if not f.is_zero(horner_eval(f, coeffs, root)):
                ok = False
    return ok, ""


def check_cubic_factorization_uniqueness(rng, n):
    """The roots of n depressed cubics expand exactly to their coefficients,
    and n/4 rational non-roots leave a nonzero residual."""
    ok = True
    corpus = _cubic_corpus(rng, n)
    for c, d in corpus:
        f = TowerField()
        fc, fd = f.from_rational(c), f.from_rational(d)
        records = solve_cubic(f, f.one, f.zero, fc, fd)
        expanded = expand_monic_from_roots(f, [r.exact for r in records])
        for got, want in zip(expanded, [f.one, f.zero, fc, fd]):
            if not f.eq(got, want):
                ok = False
    nonroot_checked = 0
    while nonroot_checked < n // 4:
        c, d = corpus[rng.randrange(len(corpus))]
        f = TowerField()
        fc, fd = f.from_rational(c), f.from_rational(d)
        records = solve_cubic(f, f.one, f.zero, fc, fd)
        x = f.from_rational(rand_fraction(rng))
        if any(f.eq(x, r.exact) for r in records):
            continue
        if f.is_zero(horner_eval(f, [f.one, f.zero, fc, fd], x)):
            ok = False
        nonroot_checked += 1
    return ok, ""


def check_quadratic_suite(rng, n):
    """n quadratics: exact substitution, factorization and uniqueness."""
    ok = True
    for _ in range(n):
        a, b, c = rand_fraction(rng, nonzero=True), rand_fraction(rng), rand_fraction(rng)
        f = TowerField()
        fa, fb, fc = (f.from_rational(q) for q in (a, b, c))
        ainv = f.inverse(fa)
        records = solve_quadratic(f, f.one, f.mul(fb, ainv), f.mul(fc, ainv))
        coeffs = [fa, fb, fc]
        for r in records:
            if not f.is_zero(horner_eval(f, coeffs, r.exact)):
                ok = False
        expanded = expand_monic_from_roots(f, [r.exact for r in records])
        monic = [f.one, f.mul(fb, ainv), f.mul(fc, ainv)]
        if not all(f.eq(x, y) for x, y in zip(expanded, monic)):
            ok = False
        x = f.from_rational(rand_fraction(rng))
        if not any(f.eq(x, r.exact) for r in records):
            if f.is_zero(horner_eval(f, coeffs, x)):
                ok = False
    return ok, ""


def check_quartic_split_identity(rng, n):
    """n depressed quartics with c^2 + 12e != 0: the quadratic split expands
    exactly and the roots substitute to zero; a reducible extension is
    checked in floats instead, and counted."""
    ok = True
    exact_roots = 0
    float_fallbacks = 0
    produced = 0
    while produced < n:
        c = rand_fraction(rng)
        d = rand_fraction(rng, nonzero=True)
        e = rand_fraction(rng, nonzero=True)
        if c * c + 12 * e == 0:
            continue
        produced += 1
        f = TowerField()
        fc, fd, fe = (f.from_rational(q) for q in (c, d, e))
        try:
            p, q, s = quartic_split_depressed(f, fc, fd, fe)
            if not (
                f.eq(f.sub(f.add(q, s), f.mul(p, p)), fc)
                and f.eq(f.mul(p, f.sub(s, q)), fd)
                and f.eq(f.mul(q, s), fe)
            ):
                ok = False
            records = solve_quartic(f, f.one, f.zero, fc, fd, fe)
            coeffs = [f.one, f.zero, fc, fd, fe]
            for r in records:
                if not f.is_zero(horner_eval(f, coeffs, r.exact)):
                    ok = False
            exact_roots += 1
        except ReducibleExtensionError:
            float_fallbacks += 1
            scale = max(1.0, float(max(abs(c), abs(d), abs(e))))
            cf = ComplexField(scale=scale)
            records = solve_quartic(
                cf, cf.one, cf.zero, complex(float(c)), complex(float(d)), complex(float(e))
            )
            for r in records:
                residual = abs(
                    r.approx**4 + float(c) * r.approx**2 + float(d) * r.approx + float(e)
                )
                if residual > 1e-6 * scale:
                    ok = False
    return ok, f"exact={exact_roots}, float-fallback={float_fallbacks}"


def check_depress_roundtrips(rng, n):
    """n exact substitution identities, cubic and quartic drawn at random."""
    ok = True
    for _ in range(n):
        f = TowerField()
        u = f.from_rational(rand_fraction(rng))
        if rng.random() < 0.5:
            b, c, d = (f.from_rational(rand_fraction(rng)) for _ in range(3))
            cp, dp, shift = depress_cubic(f, b, c, d)
            x = f.sub(u, shift)
            lhs = horner_eval(f, [f.one, b, c, d], x)
            rhs = horner_eval(f, [f.one, f.zero, cp, dp], u)
        else:
            b, c, d, e = (f.from_rational(rand_fraction(rng)) for _ in range(4))
            cp, dp, ep, shift = depress_quartic(f, b, c, d, e)
            x = f.sub(u, shift)
            lhs = horner_eval(f, [f.one, b, c, d, e], x)
            rhs = horner_eval(f, [f.one, f.zero, cp, dp, ep], u)
        if not f.eq(lhs, rhs):
            ok = False
    return ok, ""


def check_condition_translations(rng, n):
    """n inputs: each hypothesis on the general coefficients holds exactly
    when its translation on the depressed coefficients does."""
    ok = True
    for _ in range(n):
        a = rand_fraction(rng, nonzero=True)
        b, c, d, e = (rand_fraction(rng) for _ in range(4))
        f = TowerField()
        cp3, dp3, _ = depress_cubic(
            f,
            f.from_rational(b / a),
            f.from_rational(c / a),
            f.from_rational(d / a),
        )
        cond1 = 3 * a * c - b * b != 0
        cond2 = 2 * b**3 - 9 * a * b * c + 27 * a * a * d != 0
        if cond1 != (f.as_rational(cp3) != 0):
            ok = False
        if cond2 != (f.as_rational(dp3) != 0):
            ok = False
        depressed = depress_quartic(f, *(f.from_rational(q) for q in (b, c, d, e)))
        cp, dp, ep = (f.as_rational(x) for x in depressed[:3])
        if (b**3 / 8 - b * c / 2 + d != 0) != (dp != 0):
            ok = False
        if (b * b * c / 16 - 3 * b**4 / 256 - b * d / 4 + e != 0) != (ep != 0):
            ok = False
        if (c * c - 3 * b * d + 12 * e != 0) != (cp * cp + 12 * ep != 0):
            ok = False
    return ok, ""


def check_degenerate_coverage(rng, n):
    """n rounds of the four families outside the formulas' hypotheses: each
    solves and verifies in the default mode and is rejected in strict mode,
    directly and through the CLI."""
    ok = True

    def solves_and_verifies(degree, coeffs):
        f = TowerField()
        elems = [f.from_rational(q) for q in coeffs]
        records = solve_cubic(f, *elems) if degree == 3 else solve_quartic(f, *elems)
        report = verify_solution(f, elems, records)
        return report.passed

    def strict_rejects(degree, coeffs, needle):
        f = TowerField()
        elems = [f.from_rational(q) for q in coeffs]
        solve = solve_cubic if degree == 3 else solve_quartic
        try:
            solve(f, *elems, strict=True)
        except StrictHypothesisViolation as exc:
            return needle in str(exc)
        return False

    for _ in range(n):
        # c = 0 cubics (depressed linear term vanishes): roots are cube roots of -d
        b = rand_fraction(rng)
        d = rand_fraction(rng, nonzero=True)
        coeffs = (Fraction(1), b, b * b / 3, d)
        ok &= solves_and_verifies(3, coeffs)
        ok &= strict_rejects(3, coeffs, "3ac - b^2")
        # d = 0 cubics (depressed constant vanishes)
        b, c = rand_fraction(rng), rand_fraction(rng, nonzero=True)
        d0 = (9 * b * c - 2 * b**3) / 27
        coeffs = (Fraction(1), b, c, d0)
        ok &= solves_and_verifies(3, coeffs)
        ok &= strict_rejects(3, coeffs, "2b^3")
        # biquadratic quartics
        c, e = rand_fraction(rng, nonzero=True), rand_fraction(rng, nonzero=True)
        coeffs = (Fraction(1), Fraction(0), c, Fraction(0), e)
        ok &= solves_and_verifies(4, coeffs)
        ok &= strict_rejects(4, coeffs, "d' = 0")
        # c**2 + 12e = 0 quartics (resolvent hypothesis fails)
        c = rand_fraction(rng, nonzero=True)
        d = rand_fraction(rng, nonzero=True)
        coeffs = (Fraction(1), Fraction(0), c, d, -c * c / 12)
        ok &= solves_and_verifies(4, coeffs)
        ok &= strict_rejects(4, coeffs, "12e'")

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        ok &= run(["solve", "x^3 - 8", "--verify"]) == 0
        ok &= run(["solve", "x^3 - 8", "--paper-strict"]) == 4
        ok &= run(["solve", "x^3 - 4*x", "--verify"]) == 0
        ok &= run(["solve", "x^3 - 4*x", "--paper-strict"]) == 4
        ok &= run(["solve", "x^4 - 5*x^2 + 4", "--verify"]) == 0
        ok &= run(["solve", "x^4 - 5*x^2 + 4", "--paper-strict"]) == 4
        ok &= run(["solve", "x^4 + 2*x^2 + x - 1/3", "--verify"]) == 0
        ok &= run(["solve", "x^4 + 2*x^2 + x - 1/3", "--paper-strict"]) == 4
    return bool(ok), ""


def check_differential_oracle(rng, n):
    """n random complex cubics and quartics: the float solver's roots match
    Durand-Kerner's at 1e-6.  Inputs whose oracle does not converge or whose
    roots lie closer than 1e-3 are excluded, and counted."""
    ok = True
    solved = 0
    excluded_separation = 0
    excluded_convergence = 0
    while solved + excluded_separation + excluded_convergence < n:
        degree = rng.choice((3, 4))
        coeffs = [
            complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(degree + 1)
        ]
        if abs(coeffs[0]) < 0.05:
            continue
        field = ComplexField(scale=max(abs(z) for z in coeffs))
        records = (
            solve_cubic(field, *coeffs) if degree == 3 else solve_quartic(field, *coeffs)
        )
        try:
            oracle = durand_kerner(coeffs)
        except NoConvergence:
            excluded_convergence += 1
            continue
        separation = min(
            abs(x - y) for x, y in itertools.combinations(oracle, 2)
        )
        if separation < 1e-3:
            excluded_separation += 1
            continue
        solved += 1
        result = match_root_multisets([r.approx for r in records], oracle, 1e-6)
        if not result.matched:
            ok = False
    return ok, (
        f"matched={solved}, excluded(separation)={excluded_separation}, "
        f"excluded(convergence)={excluded_convergence}"
    )


def check_negative_exhibit(rng, n):
    """On n inputs, two independent cube roots fail at least once under a
    valid adversarial provider; the corrected t = c/(3s) form never does."""
    adversarial = omega_twisting_cbrt()
    naive_failures = 0
    corrected_ok = True
    for _ in range(n):
        c = complex(float(rand_fraction(rng, nonzero=True)))
        d = complex(float(rand_fraction(rng, nonzero=True)))
        scale = max(1.0, abs(c), abs(d)) ** 2
        exhibit = negative_exhibit_two_cbrts(c, d, cbrt_func=adversarial)
        if exhibit.residual_naive > 1e-6 * scale:
            naive_failures += 1
        if exhibit.residual_corrected > 1e-9 * scale:
            corrected_ok = False
        benign = negative_exhibit_two_cbrts(c, d)
        if benign.residual_corrected > 1e-9 * scale:
            corrected_ok = False
    return naive_failures >= 1 and corrected_ok, f"naive failures {naive_failures}/{n}"


def check_provider_invariants(rng, n):
    """Exact root-provider contracts on n tower extensions, and the float
    providers within 1e-12 on 200*n complex samples."""
    ok = True
    for _ in range(n):
        f = TowerField()
        a = f.from_rational(rand_fraction(rng, 10, nonzero=True))
        if rng.random() < 0.5:
            scale = f.from_rational(rand_fraction(rng, 10))
            radicand = f.from_rational(rand_fraction(rng, 10, nonzero=True))
            a = f.add(a, f.mul(scale, f.sqrt(radicand)))
        g = f.sqrt(a)
        ok &= f.is_zero(f.sub(f.mul(g, g), a))
        ng = f.neg(g)
        ok &= f.is_zero(f.sub(f.mul(ng, ng), a))
        x = f.from_rational(rand_fraction(rng, 10))
        if not (f.eq(x, g) or f.eq(x, ng)):
            ok &= not f.is_zero(f.sub(f.mul(x, x), a))
        h = f.cbrt(a)
        w = f.omega()
        for factor in (f.one, w, f.mul(w, w)):
            root = f.mul(factor, h)
            ok &= f.is_zero(f.sub(f.mul(f.mul(root, root), root), a))
    for _ in range(200 * n):
        mag = 10 ** rng.uniform(-6, 6)
        z = mag * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        bound = 1e-12 * max(1.0, abs(z))
        s = csqrt_principal(z)
        ok &= abs(s * s - z) <= bound
        ok &= abs((-s) * (-s) - z) <= bound
        cb = ccbrt_principal(z)
        ok &= abs(cb * cb * cb - z) <= bound
    return bool(ok), ""


def _rand_element(rng, field, depth):
    value = field.from_rational(rand_fraction(rng, 10))
    for _ in range(depth):
        radicand = field.from_rational(rand_fraction(rng, 10, nonzero=True))
        g = field.sqrt(radicand) if rng.random() < 0.5 else field.cbrt(radicand)
        scale = field.from_rational(rand_fraction(rng, 10))
        value = field.add(value, field.mul(scale, g))
    return value


def check_field_axioms(rng, n):
    """Associativity, commutativity, distributivity, negation and inverses
    on n triples of tower elements of depth 0 to 2."""
    for _ in range(n):
        field = TowerField()
        x = _rand_element(rng, field, rng.randint(0, 2))
        y = _rand_element(rng, field, rng.randint(0, 2))
        z = _rand_element(rng, field, rng.randint(0, 2))
        if not field.eq(field.add(field.add(x, y), z), field.add(x, field.add(y, z))):
            return False, ""
        if not field.eq(field.mul(x, y), field.mul(y, x)):
            return False, ""
        lhs = field.mul(x, field.add(y, z))
        rhs = field.add(field.mul(x, y), field.mul(x, z))
        if not field.eq(lhs, rhs):
            return False, ""
        if not field.is_zero(field.add(x, field.neg(x))):
            return False, ""
        if not field.is_zero(x):
            try:
                if not field.eq(field.mul(x, field.inverse(x)), field.one):
                    return False, ""
            except ReducibleExtensionError:
                pass
    return True, ""


def check_verified_cubic_solves(rng, n):
    """n general rational cubics pass the full verification report."""
    for _ in range(n):
        field = TowerField()
        coeffs = [field.from_rational(rand_fraction(rng, 8, nonzero=True))]
        coeffs += [field.from_rational(rand_fraction(rng, 8)) for _ in range(3)]
        records = solve_cubic(field, *coeffs)
        if not verify_solution(field, coeffs, records).passed:
            return False, ""
    return True, ""


class Criterion(NamedTuple):
    name: str
    check: Callable
    selftest_n: int
    acceptance_n: int


CRITERIA = [
    Criterion("cardano-correctness", check_cardano_correctness, 15, 200),
    Criterion("cubic-factorization-uniqueness", check_cubic_factorization_uniqueness, 20, 200),
    Criterion("quadratic-suite", check_quadratic_suite, 50, 500),
    Criterion("quartic-split-identity", check_quartic_split_identity, 5, 100),
    Criterion("depress-roundtrips", check_depress_roundtrips, 100, 500),
    Criterion("condition-translations", check_condition_translations, 100, 500),
    Criterion("degenerate-coverage", check_degenerate_coverage, 1, 5),
    Criterion("differential-oracle", check_differential_oracle, 100, 1000),
    Criterion("negative-exhibit", check_negative_exhibit, 20, 50),
    Criterion("provider-invariants", check_provider_invariants, 15, 50),
    Criterion("field-axioms", check_field_axioms, 25, 200),
    Criterion("verified-cubic-solves", check_verified_cubic_solves, 6, 50),
]


def run_corpus(seed):
    """Run every criterion at its selftest size, the k-th drawing from
    ``random.Random(seed + k)``, and print one PASS or FAIL line each."""
    all_ok = True
    for k, criterion in enumerate(CRITERIA):
        ok, detail = criterion.check(random.Random(seed + k), criterion.selftest_n)
        suffix = f"  ({detail})" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'} {criterion.name}{suffix}")
        all_ok = all_ok and ok
    return all_ok
