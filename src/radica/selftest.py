"""Randomized invariant corpus behind the `radica selftest` subcommand.

A scaled-down version of the acceptance suite: field axioms on random
tower elements, root-provider contracts, substitution-to-zero and
factorization identities for the solvers, depress round-trips, and the
differential check against the numeric oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .complexfield import ComplexField
from .fields import omega
from .solvers import depress_cubic, quartic_split_depressed, solve_cubic, solve_quartic
from .tower import ReducibleExtensionError, TowerField
from .verifier import (
    NoConvergence,
    durand_kerner,
    horner_eval,
    match_root_multisets,
    negative_exhibit_two_cbrts,
    omega_twisting_cbrt,
    verify_solution,
)


def _rand_fraction(rng, span=20, nonzero=False):
    while True:
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if q != 0 or not nonzero:
            return q


def _rand_element(rng, field, depth):
    value = field.from_rational(_rand_fraction(rng, 10))
    for _ in range(depth):
        radicand = field.from_rational(_rand_fraction(rng, 10, nonzero=True))
        g = field.sqrt(radicand) if rng.random() < 0.5 else field.cbrt(radicand)
        scale = field.from_rational(_rand_fraction(rng, 10))
        value = field.add(value, field.mul(scale, g))
    return value


def _check_field_axioms(rng, trials=25):
    for _ in range(trials):
        field = TowerField()
        x = _rand_element(rng, field, rng.randint(0, 2))
        y = _rand_element(rng, field, rng.randint(0, 2))
        z = _rand_element(rng, field, rng.randint(0, 2))
        if not field.eq(field.add(field.add(x, y), z), field.add(x, field.add(y, z))):
            return False
        if not field.eq(field.mul(x, y), field.mul(y, x)):
            return False
        lhs = field.mul(x, field.add(y, z))
        rhs = field.add(field.mul(x, y), field.mul(x, z))
        if not field.eq(lhs, rhs):
            return False
        if not field.is_zero(field.add(x, field.neg(x))):
            return False
        if not field.is_zero(x):
            try:
                if not field.eq(field.mul(x, field.inverse(x)), field.one):
                    return False
            except ReducibleExtensionError:
                pass
    return True


def _check_providers(rng, trials=15):
    for _ in range(trials):
        field = TowerField()
        a = _rand_element(rng, field, 1)
        g = field.sqrt(a)
        if not field.is_zero(field.sub(field.mul(g, g), a)):
            return False
        ng = field.neg(g)
        if not field.is_zero(field.sub(field.mul(ng, ng), a)):
            return False
        h = field.cbrt(a)
        if not field.is_zero(field.sub(field.mul(field.mul(h, h), h), a)):
            return False
        w = omega(field)
        wh = field.mul(w, h)
        if not field.is_zero(field.sub(field.mul(field.mul(wh, wh), wh), a)):
            return False
    return True


def _check_cardano(rng, trials=15):
    for _ in range(trials):
        field = TowerField()
        c = field.from_rational(_rand_fraction(rng, nonzero=True))
        d = field.from_rational(_rand_fraction(rng, nonzero=True))
        coeffs = [field.one, field.zero, c, d]
        report = verify_solution(field, coeffs, solve_cubic(field, *coeffs))
        # only the exact identities: the oracle is not part of this check
        if not (report.residuals_ok and report.factorization_ok):
            return False
    return True


def _check_depress_roundtrip(rng, trials=100):
    for _ in range(trials):
        field = TowerField()
        b, c, d = (field.from_rational(_rand_fraction(rng)) for _ in range(3))
        u = field.from_rational(_rand_fraction(rng))
        dep = depress_cubic(field, b, c, d)
        x = field.sub(u, dep.shift)
        orig = horner_eval(field, [field.one, b, c, d], x)
        depr = horner_eval(field, [field.one, field.zero, dep.c, dep.d], u)
        if not field.eq(orig, depr):
            return False
    return True


def _check_quartic_split(rng, trials=4):
    for _ in range(trials):
        field = TowerField()
        c = field.from_rational(_rand_fraction(rng, 8))
        d = field.from_rational(_rand_fraction(rng, 8, nonzero=True))
        e = field.from_rational(_rand_fraction(rng, 8, nonzero=True))
        try:
            p, q, s = quartic_split_depressed(field, c, d, e)
        except ReducibleExtensionError:
            continue
        # (u^2 + pu + q)(u^2 - pu + s) must reproduce u^4 + cu^2 + du + e
        if not field.is_zero(field.sub(field.add(q, field.sub(s, field.mul(p, p))), c)):
            return False
        if not field.eq(field.mul(p, field.sub(s, q)), d):
            return False
        if not field.eq(field.mul(q, s), e):
            return False
    return True


def _check_differential(rng, trials=100):
    for _ in range(trials):
        degree = rng.choice((3, 4))
        coeffs = [
            complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(degree + 1)
        ]
        if abs(coeffs[0]) < 0.1:
            continue
        field = ComplexField(scale=max(abs(z) for z in coeffs))
        if degree == 3:
            records = solve_cubic(field, *coeffs)
        else:
            records = solve_quartic(field, *coeffs)
        try:
            oracle = durand_kerner(coeffs)
        except NoConvergence:
            continue
        separation = min(
            abs(x - y) for i, x in enumerate(oracle) for y in oracle[i + 1 :]
        )
        if separation < 1e-3:
            continue
        result = match_root_multisets([r.approx for r in records], oracle, 1e-6)
        if not result.matched:
            return False
    return True


def _check_negative_exhibit(rng):
    adversarial = omega_twisting_cbrt()
    saw_failure = False
    for _ in range(20):
        c = complex(rng.uniform(-5, 5)) or complex(1.0)
        d = complex(rng.uniform(-5, 5)) or complex(1.0)
        exhibit = negative_exhibit_two_cbrts(c, d, cbrt_func=adversarial)
        if exhibit.residual_naive > 1e-6:
            saw_failure = True
        if exhibit.residual_corrected > 1e-6 * max(1.0, abs(c), abs(d)) * 10:
            return False
    return saw_failure


def _check_verified_solve(rng, trials=6):
    for _ in range(trials):
        field = TowerField()
        coeffs = [field.from_rational(_rand_fraction(rng, 8, nonzero=True))]
        coeffs += [field.from_rational(_rand_fraction(rng, 8)) for _ in range(3)]
        records = solve_cubic(field, *coeffs)
        report = verify_solution(field, coeffs, records)
        if not report.passed:
            return False
    return True


def run_corpus(rng, out=print):
    checks = [
        ("field-axioms", _check_field_axioms),
        ("root-providers", _check_providers),
        ("cardano-substitution-and-factorization", _check_cardano),
        ("depress-roundtrip", _check_depress_roundtrip),
        ("quartic-split-identity", _check_quartic_split),
        ("differential-oracle", _check_differential),
        ("negative-exhibit", _check_negative_exhibit),
        ("verified-cubic-solves", _check_verified_solve),
    ]
    all_ok = True
    for name, check in checks:
        ok = check(rng)
        out(f"{'PASS' if ok else 'FAIL'} {name}")
        all_ok = all_ok and ok
    return all_ok
