"""Independent checking machinery for solver output.

Residuals by Horner substitution, coefficient recovery from roots,
a Durand-Kerner simultaneous-iteration oracle, multiset matching of
root sets, and assembly of a per-solve verification report.  Exact
residuals, in the report and from ``residuals`` alike (so with or without
``--verify`` on the CLI), come from the factorization identity first: when
the roots expand to the monic input, each root is exact, and Horner runs
only when the identity fails.  On rational input the expansion is compared
with the input's coefficients in Q, so the monic input is never built in
the tower.  Also hosts the negative demonstration: the uncorrected
two-cube-roots formula fails under a valid but adversarial cube-root
provider, while the corrected t = c/(3s) form never does.
"""

from __future__ import annotations

import math

from .complexfield import ComplexField, approx_eq, ccbrt_principal, csqrt_principal

FLOAT_RESIDUAL_TOL = 1e-6
ORACLE_MATCH_TOL = 1e-6


def horner_eval(field, coeffs, x):
    """Value of the polynomial (leading-first coefficients) at x."""
    if not coeffs:
        raise ValueError("empty coefficient list")
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = field.add(field.mul(acc, x), c)
    return acc


def expand_monic_from_roots(field, roots):
    """Leading-first coefficients of prod (x - r).

    The last two roots, and for four roots the first two as well, are
    multiplied out first, as x**2 - (r + s)*x + r*s.  A solver puts
    conjugate roots next to each other, so their sum and product drop the
    top radical before anything else multiplies them.  Three roots then
    give (x - r1) times that quadratic, and four the product of the two
    quadratics.  On an exact backend the coefficients are the same elements
    in any order of the roots.
    """
    n = len(roots)
    if not 1 <= n <= 4:
        raise ValueError("expected between one and four roots")
    add, sub, mul, neg = field.add, field.sub, field.mul, field.neg
    if n == 1:
        return [field.one, neg(roots[0])]
    b, c = neg(add(roots[-2], roots[-1])), mul(roots[-2], roots[-1])
    if n == 2:
        return [field.one, b, c]
    if n == 3:
        r = roots[0]
        return [field.one, sub(b, r), sub(c, mul(r, b)), neg(mul(r, c))]
    b1, c1 = neg(add(roots[0], roots[1])), mul(roots[0], roots[1])
    return [
        field.one,
        add(b1, b),
        add(add(c1, c), mul(b1, b)),
        add(mul(b1, c), mul(b, c1)),
        mul(c1, c),
    ]


class NoConvergence(ArithmeticError):
    """Root iteration did not meet tolerance; carries the last iterate."""

    def __init__(self, roots, iterations):
        super().__init__(f"no convergence after {iterations} iterations")
        self.roots = roots
        self.iterations = iterations


def _chorner(coeffs, x):
    acc = 0j
    for c in coeffs:
        acc = acc * x + c
    return acc


def durand_kerner(coeffs, tol=1e-12, max_iter=200):
    """All complex roots by Weierstrass simultaneous iteration.

    ``coeffs`` is leading-first with nonzero leading coefficient, degree
    at least 1.  Deterministic initialization at powers of 0.4 + 0.9i;
    iterates until the largest correction is at most ``tol``.
    """
    if len(coeffs) < 2:
        raise ValueError("degree must be at least 1")
    lead = complex(coeffs[0])
    if lead == 0:
        raise ValueError("leading coefficient must be nonzero")
    monic = [complex(c) / lead for c in coeffs]
    n = len(monic) - 1
    seed = 0.4 + 0.9j
    roots = [seed**k for k in range(n)]
    others = [(i, [j for j in range(n) if j != i]) for i in range(n)]
    for _ in range(max_iter):
        worst = 0.0
        for i, rest in others:
            zi = roots[i]
            den = 1 + 0j
            for j in rest:
                den *= zi - roots[j]
            if den == 0:
                den = complex(1e-40, 0.0)
            acc = 0j  # _chorner(monic, zi), inline
            for c in monic:
                acc = acc * zi + c
            corr = acc / den
            roots[i] = zi - corr
            size = abs(corr)
            if size > worst:
                worst = size
        if worst <= tol:
            return roots
    raise NoConvergence(roots, max_iter)


class MatchResult:
    def __init__(self, matched, permutation, max_distance):
        self.matched = matched
        self.permutation = permutation
        self.max_distance = max_distance


def _walk(dist, perm, rel, best):
    """Extend ``perm``, whose largest distance is ``rel``, in
    ``itertools.permutations`` order, and keep in ``best`` each full
    permutation whose largest distance is below the best one's.  A
    module-level function, so that no closure cycle outlives a match."""
    i, n = len(perm), len(dist)
    for j in range(n):
        if j in perm:
            continue
        d = dist[i][j]
        if i and not d > rel:  # as max keeps a first NaN and skips a later one
            d = rel
        if d < best[0]:  # else cut: no permutation below here is better
            if i + 1 < n:
                _walk(dist, perm + (j,), d, best)
            else:
                best[:] = d, perm + (j,)


def match_root_multisets(a, b, tol):
    """Best permutation matching of two equal-length root lists (length <= 4).

    Exhaustive search over all permutations for the least largest relative
    pair distance; the n*n relative distances are computed once.  The
    permutations are walked in ``itertools.permutations`` order, each
    prefix carrying its largest distance as ``max`` takes it, and a prefix
    is cut once that distance is not below the best found, which only a
    strictly smaller one replaces.  Pairs compare via the scale-relative
    ``approx_eq`` at ``tol``.  The reported distance is the
    largest absolute pair distance under the best permutation, the first
    one found on a tie.
    """
    if len(a) != len(b):
        raise ValueError("root lists must have equal length")
    if len(a) > 4:
        raise ValueError("at most four roots supported")
    if not a:
        return MatchResult(True, (), 0.0)
    # max(1.0, |x|, |y|), as max folds from the left, NaN passed over
    sizes = [max(1.0, abs(y)) for y in b]
    dist = []
    for x in a:
        size = max(1.0, abs(x))
        dist.append([abs(x - y) / (s if s > size else size) for y, s in zip(b, sizes)])
    best = [math.inf, None]
    _walk(dist, (), None, best)
    best_perm = best[1]
    max_dist = max(abs(x - b[p]) for x, p in zip(a, best_perm))
    matched = all(approx_eq(x, b[p], tol) for x, p in zip(a, best_perm))
    return MatchResult(matched, best_perm, max_dist)


def _scale(numeric):
    return max(1.0, max(abs(z) for z in numeric))


def residuals(field, coeffs, records):
    """|p(root)| for each record, and whether every one is acceptable.

    ``coeffs`` are leading-first backend elements.  A record with an exact
    value must give literally zero; otherwise its approximation is
    substituted in complex doubles and must stay within 1e-6 times the
    largest coefficient magnitude (at least 1).  Exact records are proved
    by the factorization identity first and substituted by Horner only
    when it fails (see ``_vieta_first``).
    """
    values, ok, _ = _vieta_first(field, coeffs, records, None)
    return values, ok


def _vieta_first(field, coeffs, records, numeric):
    """(values, ok, factorization_exact): the residuals, proved by Vieta
    where possible.

    When the field is exact and every one of the degree-many records is
    exact, the roots are expanded and compared with the monic input;
    ``factorization_exact`` says whether they agree, and is None otherwise.
    When every coefficient is rational, the comparison is in Q: the
    expansion's rational values against q_i/q_0.  Else it subtracts the
    monic input in the field.  The normal form is unique, so a coefficient
    of the expansion that is not rational differs from a rational one, and
    both comparisons give the same verdict.  If they agree,
    p(r_i) = a*prod(r_i - r_j) = 0 is a ring identity (on a reducible tower
    too, as a ring homomorphism preserves it), so every residual is exactly
    0 and no root is substituted.  Else the residuals come from Horner,
    ``_residuals``; the normal form is unique, so both routes give the same
    values.
    """
    factorization_exact = None
    if (
        field.is_exact
        and len(records) == len(coeffs) - 1
        and all(rec.exact is not None for rec in records)
    ):
        expanded = expand_monic_from_roots(field, [rec.exact for rec in records])
        rational = [field.as_rational(c) for c in coeffs]
        if None in rational:
            ainv = field.inverse(coeffs[0])
            monic = [field.mul(c, ainv) for c in coeffs]
            factorization_exact = all(
                field.is_zero(field.sub(x, y)) for x, y in zip(expanded, monic)
            )
        else:
            lead = rational[0]
            factorization_exact = all(
                field.as_rational(x) == q / lead for x, q in zip(expanded, rational)
            )
        if factorization_exact:
            return [0.0] * len(records), True, True
    values, ok = _residuals(field, coeffs, records, numeric)
    return values, ok, factorization_exact


def _residuals(field, coeffs, records, numeric):
    """Horner residuals, with the complex embedding of ``coeffs`` given, or
    None to embed them on first need."""
    values = []
    ok = True
    tol = None
    for rec in records:
        if rec.exact is not None:
            value = horner_eval(field, coeffs, rec.exact)
            within = field.is_zero(value)
            residual = 0.0 if within else abs(field.to_complex(value))
        else:
            if tol is None:
                if numeric is None:
                    numeric = [field.to_complex(c) for c in coeffs]
                tol = FLOAT_RESIDUAL_TOL * _scale(numeric)
            residual = abs(_chorner(numeric, rec.approx))
            within = residual <= tol
        values.append(residual)
        ok = ok and within
    return values, ok


class VerificationReport:
    """Checks for one solve: per-root residuals, the factorization identity,
    and agreement with the numeric oracle."""

    def __init__(
        self, residuals, residuals_ok, factorization_exact, factorization_ok, oracle_match,
        notes=None,
    ):
        self.residuals = residuals
        self.residuals_ok = residuals_ok
        self.factorization_exact = factorization_exact
        self.factorization_ok = factorization_ok
        self.oracle_match = oracle_match
        self.notes = [] if notes is None else notes

    @property
    def passed(self):
        return self.residuals_ok and self.factorization_ok and self.oracle_match is not False


def verify_solution(field, coeffs, records):
    """Check solver output against the input polynomial.

    ``coeffs`` are leading-first backend elements (degree 1 to 4) and
    ``records`` the degree-many root records.  The factorization identity
    recovers the monic coefficient list from the roots, and the oracle
    check matches root multisets against Durand-Kerner within
    ``ORACLE_MATCH_TOL``.  Oracle non-convergence is flagged in the notes,
    not failed.

    The residuals and the exact factorization come from one route, the
    one ``residuals`` (and so the CLI without ``--verify``) takes: on the
    exact backend, with every record exact, the roots expanding to the
    monic input prove every residual exactly 0 and no root is substituted;
    otherwise Horner gives them, exactly where records carry exact values
    and numerically elsewhere (|p(root)| <= 1e-6 * scale).  Inexact records
    have their factorization checked on the complex embedding instead.
    """
    degree = len(coeffs) - 1
    if degree < 1 or degree > 4:
        raise ValueError("degree must be between 1 and 4")
    if len(records) != degree:
        raise ValueError("record count must equal the degree")
    notes = []
    numeric = [field.to_complex(c) for c in coeffs]

    values, residuals_ok, factorization_exact = _vieta_first(field, coeffs, records, numeric)
    if factorization_exact is None:
        scale = _scale(numeric)
        lead = numeric[0]
        monic_num = [z / lead for z in numeric]
        expanded = expand_monic_from_roots(ComplexField(), [rec.approx for rec in records])
        factorization_ok = (
            max(abs(x - y) for x, y in zip(expanded, monic_num)) <= FLOAT_RESIDUAL_TOL * scale
        )
    else:
        factorization_ok = factorization_exact

    oracle_match = None
    try:
        oracle_roots = durand_kerner(numeric)
    except NoConvergence as exc:
        notes.append(f"oracle did not converge within {exc.iterations} iterations")
    else:
        oracle_match = match_root_multisets(
            [rec.approx for rec in records], oracle_roots, ORACLE_MATCH_TOL
        ).matched

    return VerificationReport(
        residuals=values,
        residuals_ok=residuals_ok,
        factorization_exact=factorization_exact,
        factorization_ok=factorization_ok,
        oracle_match=oracle_match,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Negative demonstration: two independent cube roots.
# ---------------------------------------------------------------------------


def real_preferring_cbrt(z):
    """A valid cube-root choice that keeps real inputs real (cbrt(-8) = -2)
    and uses the principal branch elsewhere."""
    z = complex(z)
    if z.imag == 0.0:
        return complex(math.copysign(abs(z.real) ** (1.0 / 3.0), z.real))
    return ccbrt_principal(z)


def omega_twisting_cbrt(selector=None):
    """A valid-but-adversarial provider: omega * real_preferring_cbrt(z) on
    inputs chosen by ``selector`` (all inputs when None).  The result still
    cubes back to z, so it satisfies the cube-root contract."""
    w = complex(-0.5, math.sqrt(3.0) / 2.0)

    def cbrt(z):
        root = real_preferring_cbrt(z)
        if selector is None or selector(z):
            root *= w
        return root

    return cbrt


class TwoCubeRootExhibit:
    """One run of the uncorrected formula u = s - t with s and t taken as
    independent cube roots, next to the corrected u = s - c/(3s)."""

    def __init__(
        self, c, d, s, t_independent, u_naive, residual_naive, u_corrected, residual_corrected
    ):
        self.c = c
        self.d = d
        self.s = s
        self.t_independent = t_independent
        self.u_naive = u_naive
        self.residual_naive = residual_naive
        self.u_corrected = u_corrected
        self.residual_corrected = residual_corrected


def negative_exhibit_two_cbrts(c, d, cbrt_func=real_preferring_cbrt):
    """Evaluate the naive and corrected Cardano forms under ``cbrt_func``.

    Requires c, d != 0.  With the default (real-preferring) provider the
    naive form happens to work on benign inputs; swap in an
    ``omega_twisting_cbrt`` provider to exhibit a nonzero naive residual.
    The corrected residual is tiny for every valid provider.
    """
    c, d = complex(c), complex(d)
    if c == 0 or d == 0:
        raise ValueError("requires c != 0 and d != 0")
    r = csqrt_principal(d * d / 4 + c**3 / 27)
    s = cbrt_func(-d / 2 + r)
    t_ind = cbrt_func(d / 2 + r)
    u_naive = s - t_ind
    u_corr = s - c / (3 * s)

    def residual(u):
        return abs(u**3 + c * u + d)

    return TwoCubeRootExhibit(
        c=c,
        d=d,
        s=s,
        t_independent=t_ind,
        u_naive=u_naive,
        residual_naive=residual(u_naive),
        u_corrected=u_corr,
        residual_corrected=residual(u_corr),
    )
