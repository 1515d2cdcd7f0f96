"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The underlying results are identities, so acceptance is property-based at
desk scale: randomized corpora with exact checks in the tower backend and
tolerance checks in the float backend.  Run with `pytest -s` to see the
per-criterion lines.
"""

import itertools
import json
import os
import random
import time
from fractions import Fraction

from radica import (
    ComplexField,
    ReducibleExtensionError,
    StrictHypothesisViolation,
    TowerField,
    cardano_root,
    depress_cubic,
    depress_quartic,
    durand_kerner,
    expand_monic_from_roots,
    horner_eval,
    match_root_multisets,
    negative_exhibit_two_cbrts,
    omega,
    omega_twisting_cbrt,
    quartic_split_depressed,
    solve_cubic,
    solve_quadratic,
    solve_quartic,
    verify_solution,
)
from radica.cli import run
from radica.complexfield import ccbrt_principal, csqrt_principal
from radica.solvers import DepressedCubic

SEED = 20260810


def _criterion(name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    assert ok, name


def _frac(rng, span=20, nonzero=False):
    while True:
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if q != 0 or not nonzero:
            return q


def _cubic_corpus(rng, n=200):
    return [(_frac(rng, nonzero=True), _frac(rng, nonzero=True)) for _ in range(n)]


def test_cardano_correctness():
    rng = random.Random(SEED)
    start = time.time()
    ok = True
    for c, d in _cubic_corpus(rng, 200):
        f = TowerField()
        fc, fd = f.from_rational(c), f.from_rational(d)
        coeffs = [f.one, f.zero, fc, fd]
        for branch in range(3):
            root = cardano_root(f, DepressedCubic(fc, fd, f.zero), branch)
            if not f.is_zero(horner_eval(f, coeffs, root)):
                ok = False
    elapsed = time.time() - start
    _criterion(
        "cardano-correctness: 200 cubics x 3 branches, exact residual zero",
        ok and elapsed <= 60,
        f"{elapsed:.1f}s",
    )


def test_cubic_factorization_uniqueness():
    rng = random.Random(SEED + 1)
    ok = True
    corpus = _cubic_corpus(rng, 200)
    for c, d in corpus:
        f = TowerField()
        fc, fd = f.from_rational(c), f.from_rational(d)
        records = solve_cubic(f, f.one, f.zero, fc, fd)
        expanded = expand_monic_from_roots(f, [r.exact for r in records])
        for got, want in zip(expanded, [f.one, f.zero, fc, fd]):
            if not f.eq(got, want):
                ok = False
    nonroot_checked = 0
    while nonroot_checked < 50:
        c, d = corpus[rng.randrange(len(corpus))]
        f = TowerField()
        fc, fd = f.from_rational(c), f.from_rational(d)
        records = solve_cubic(f, f.one, f.zero, fc, fd)
        x = f.from_rational(_frac(rng))
        if any(f.eq(x, r.exact) for r in records):
            continue
        if f.is_zero(horner_eval(f, [f.one, f.zero, fc, fd], x)):
            ok = False
        nonroot_checked += 1
    _criterion(
        "cubic-factorization-uniqueness: exact expansion + 50 nonzero off-root residuals",
        ok,
    )


def test_quadratic_suite():
    rng = random.Random(SEED + 2)
    ok = True
    for _ in range(500):
        a, b, c = _frac(rng, nonzero=True), _frac(rng), _frac(rng)
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
        x = f.from_rational(_frac(rng))
        if not any(f.eq(x, r.exact) for r in records):
            if f.is_zero(horner_eval(f, coeffs, x)):
                ok = False
    _criterion(
        "quadratic-suite: 500 solves, exact substitution/factorization/uniqueness",
        ok,
    )


def test_quartic_split_identity():
    rng = random.Random(SEED + 3)
    start = time.time()
    ok = True
    exact_roots = 0
    float_fallbacks = 0
    produced = 0
    while produced < 100:
        c = _frac(rng)
        d = _frac(rng, nonzero=True)
        e = _frac(rng, nonzero=True)
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
    elapsed = time.time() - start
    _criterion(
        "quartic-split-identity: 100 exact expansion identities + verified roots",
        ok and elapsed <= 300,
        f"{elapsed:.1f}s, exact={exact_roots}, float-fallback={float_fallbacks}",
    )


def test_depress_roundtrips():
    rng = random.Random(SEED + 4)
    ok = True
    for _ in range(500):
        f = TowerField()
        u = f.from_rational(_frac(rng))
        if rng.random() < 0.5:
            b, c, d = (f.from_rational(_frac(rng)) for _ in range(3))
            dep = depress_cubic(f, b, c, d)
            x = f.sub(u, dep.shift)
            lhs = horner_eval(f, [f.one, b, c, d], x)
            rhs = horner_eval(f, [f.one, f.zero, dep.c, dep.d], u)
        else:
            b, c, d, e = (f.from_rational(_frac(rng)) for _ in range(4))
            dep = depress_quartic(f, b, c, d, e)
            x = f.sub(u, dep.shift)
            lhs = horner_eval(f, [f.one, b, c, d, e], x)
            rhs = horner_eval(f, [f.one, f.zero, dep.c, dep.d, dep.e], u)
        if not f.eq(lhs, rhs):
            ok = False
    _criterion("depress-roundtrips: 500 exact substitution identities", ok)


def test_condition_translations():
    rng = random.Random(SEED + 5)
    ok = True
    for _ in range(500):
        a = _frac(rng, nonzero=True)
        b, c, d, e = (_frac(rng) for _ in range(4))
        f = TowerField()
        dep3 = depress_cubic(
            f,
            f.from_rational(b / a),
            f.from_rational(c / a),
            f.from_rational(d / a),
        )
        cond1 = 3 * a * c - b * b != 0
        cond2 = 2 * b**3 - 9 * a * b * c + 27 * a * a * d != 0
        if cond1 != (f.as_rational(dep3.c) != 0):
            ok = False
        if cond2 != (f.as_rational(dep3.d) != 0):
            ok = False
        dep4 = depress_quartic(
            f,
            f.from_rational(b),
            f.from_rational(c),
            f.from_rational(d),
            f.from_rational(e),
        )
        dp = f.as_rational(dep4.d)
        ep = f.as_rational(dep4.e)
        cp = f.as_rational(dep4.c)
        if (b**3 / 8 - b * c / 2 + d != 0) != (dp != 0):
            ok = False
        if (b * b * c / 16 - 3 * b**4 / 256 - b * d / 4 + e != 0) != (ep != 0):
            ok = False
        if (c * c - 3 * b * d + 12 * e != 0) != (cp * cp + 12 * ep != 0):
            ok = False
    _criterion(
        "condition-translations: 500 exact equivalences (cubic and quartic)", ok
    )


def test_degenerate_coverage():
    rng = random.Random(SEED + 6)
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

    for _ in range(5):
        # c = 0 cubics (depressed linear term vanishes): roots are cube roots of -d
        b = _frac(rng)
        d = _frac(rng, nonzero=True)
        coeffs = (Fraction(1), b, b * b / 3, d)
        ok &= solves_and_verifies(3, coeffs)
        ok &= strict_rejects(3, coeffs, "3ac - b^2")
        # d = 0 cubics (depressed constant vanishes)
        b, c = _frac(rng), _frac(rng, nonzero=True)
        d0 = (9 * b * c - 2 * b**3) / 27
        coeffs = (Fraction(1), b, c, d0)
        ok &= solves_and_verifies(3, coeffs)
        ok &= strict_rejects(3, coeffs, "2b^3")
        # biquadratic quartics
        c, e = _frac(rng, nonzero=True), _frac(rng, nonzero=True)
        coeffs = (Fraction(1), Fraction(0), c, Fraction(0), e)
        ok &= solves_and_verifies(4, coeffs)
        ok &= strict_rejects(4, coeffs, "d' = 0")
        # c**2 + 12e = 0 quartics (resolvent hypothesis fails)
        c = _frac(rng, nonzero=True)
        d = _frac(rng, nonzero=True)
        coeffs = (Fraction(1), Fraction(0), c, d, -c * c / 12)
        ok &= solves_and_verifies(4, coeffs)
        ok &= strict_rejects(4, coeffs, "12e'")

    # the same families through the CLI flag
    import contextlib
    import io

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
    _criterion(
        "degenerate-coverage: excluded families solve in default mode, strict rejects",
        bool(ok),
    )


def test_differential_oracle():
    rng = random.Random(SEED + 7)
    ok = True
    solved = 0
    excluded_separation = 0
    excluded_convergence = 0
    while solved + excluded_separation + excluded_convergence < 1000:
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
        except Exception:
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
    _criterion(
        "differential-oracle: 1000 random degree-3/4 inputs match Durand-Kerner at 1e-6",
        ok,
        f"matched={solved}, excluded(separation)={excluded_separation}, "
        f"excluded(convergence)={excluded_convergence}",
    )


def test_negative_exhibit():
    rng = random.Random(SEED + 8)
    adversarial = omega_twisting_cbrt()
    naive_failures = 0
    corrected_ok = True
    for _ in range(50):
        c = complex(float(_frac(rng, nonzero=True)))
        d = complex(float(_frac(rng, nonzero=True)))
        scale = max(1.0, abs(c), abs(d)) ** 2
        exhibit = negative_exhibit_two_cbrts(c, d, cbrt_func=adversarial)
        if exhibit.residual_naive > 1e-6 * scale:
            naive_failures += 1
        if exhibit.residual_corrected > 1e-9 * scale:
            corrected_ok = False
        benign = negative_exhibit_two_cbrts(c, d)
        if benign.residual_corrected > 1e-9 * scale:
            corrected_ok = False
    _criterion(
        "negative-exhibit: independent cube roots fail under a valid adversarial "
        "provider, corrected form never does",
        naive_failures >= 1 and corrected_ok,
        f"naive failures {naive_failures}/50",
    )


def test_provider_invariants():
    rng = random.Random(SEED + 9)
    ok = True
    for _ in range(50):
        f = TowerField()
        a = f.from_rational(_frac(rng, 10, nonzero=True))
        if rng.random() < 0.5:
            a = f.add(a, f.mul(f.from_rational(_frac(rng, 10)), f.sqrt(f.from_rational(_frac(rng, 10, nonzero=True)))))
        g = f.sqrt(a)
        ok &= f.is_zero(f.sub(f.mul(g, g), a))
        ng = f.neg(g)
        ok &= f.is_zero(f.sub(f.mul(ng, ng), a))
        x = f.from_rational(_frac(rng, 10))
        if not (f.eq(x, g) or f.eq(x, ng)):
            ok &= not f.is_zero(f.sub(f.mul(x, x), a))
        h = f.cbrt(a)
        w = omega(f)
        for factor in (f.one, w, f.mul(w, w)):
            root = f.mul(factor, h)
            ok &= f.is_zero(f.sub(f.mul(f.mul(root, root), root), a))
    float_ok = True
    for _ in range(10_000):
        mag = 10 ** rng.uniform(-6, 6)
        z = mag * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        bound = 1e-12 * max(1.0, abs(z))
        s = csqrt_principal(z)
        float_ok &= abs(s * s - z) <= bound
        float_ok &= abs((-s) * (-s) - z) <= bound
        cb = ccbrt_principal(z)
        float_ok &= abs(cb * cb * cb - z) <= bound
    _criterion(
        "provider-invariants: exact contracts on 50 tower extensions, 1e-12 on 1e4 floats",
        bool(ok and float_ok),
    )


def test_cli_golden():
    golden_path = os.path.join(os.path.dirname(__file__), "golden", "cardano_x3_6x_9.json")
    import io
    import sys

    buffer = io.StringIO()
    stdout = sys.stdout
    sys.stdout = buffer
    try:
        code = run(["solve", "x^3 - 6*x - 9", "--verify", "--format", "json"])
    finally:
        sys.stdout = stdout
    with open(golden_path) as fh:
        expected = json.load(fh)
    payload = json.loads(buffer.getvalue())
    ok = code == 0 and payload == expected
    exact_root = next(r for r in payload["roots"] if r["label"] == "cardano-A")
    ok &= exact_root["approx"] == {"re": 3.0, "im": 0.0}
    ok &= payload["verification"]["factorization_ok"] is True
    ok &= payload["verification"]["oracle_match"] is True
    _criterion("cli-golden: stored Cardano report reproduced byte-for-byte", bool(ok))
