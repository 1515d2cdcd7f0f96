"""Independent checking machinery for solver output.

Residuals by Horner substitution, coefficient recovery from roots,
a Durand-Kerner simultaneous-iteration oracle, the oracle check (the
solver's roots pair off one-to-one with the oracle's within 1e-6 relative,
``approx_eq``), and assembly of a per-solve verification report.  One
function, ``_check``, gives the residuals and the exact factorization
verdict, for the report and for ``residuals`` alike (so with or without
``--verify`` on the CLI): on an exact backend the factorization identity
comes first, and when the roots expand to the monic input each root is
exact and Horner runs only when the identity fails.  ``verify_solution``
is the one caller of the oracle, for the CLI and the selftest both.  The
checks take the coefficients the solvers take, as numbers (``int`` or
``Fraction``, and ``complex`` or ``float`` too on an inexact backend), not
backend elements: the expansion is compared with them in Q, and the
oracle reads their doubles.  Also hosts the negative demonstration: the
uncorrected two-cube-roots formula fails under a valid but adversarial
cube-root provider, while the corrected t = c/(3s) form never does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

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
    iterates until the largest correction is at most ``tol``, and raises
    ``NoConvergence`` after ``max_iter`` sweeps that do not get there, as
    when the iterate overflows to NaN.
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
            if not size <= worst:  # a NaN correction too: NaN never converges
                worst = size
        if worst <= tol:
            return roots
    raise NoConvergence(roots, max_iter)


def _pairs_off(close, used):
    """Whether root ``len(used)`` and every later one pair off with distinct
    indices not in ``used``, root i with one of ``close[i]``.  A
    module-level function, so that no closure cycle outlives a match."""
    i = len(used)
    if i == len(close):
        return True
    for j in close[i]:
        if j not in used and _pairs_off(close, used + (j,)):
            return True
    return False


def match_root_multisets(a, b, tol):
    """Whether two equal-length root lists (length <= 4) pair off one-to-one
    so that every pair passes the scale-relative ``approx_eq`` at ``tol``.

    Each root of ``a`` lists its close roots of ``b`` once; a pairing is
    then searched depth-first.  A pair whose difference is NaN fails
    ``approx_eq``, so a NaN root never matches a finite one.
    """
    if len(a) != len(b):
        raise ValueError("root lists must have equal length")
    if len(a) > 4:
        raise ValueError("at most four roots supported")
    close = [[j for j, y in enumerate(b) if approx_eq(x, y, tol)] for x in a]
    return _pairs_off(close, ())


def residuals(field, coeffs, records):
    """|p(root)| for each record, and whether every one is acceptable.

    ``coeffs`` are the leading-first coefficients as numbers, as the
    solvers take them: ``int`` or ``Fraction`` on either backend, and
    ``complex`` or ``float`` too on an inexact one.  A record with an exact
    value must give literally zero; otherwise its approximation is
    substituted in complex doubles and must stay within 1e-6 times the
    largest coefficient magnitude (at least 1).  Exact records are proved
    by the factorization identity first and substituted by Horner only
    when it fails (see ``_check``).
    """
    return _check(field, coeffs, records)[:2]


def _check(field, coeffs, records):
    """(values, ok, factorization): the residuals, proved by Vieta where
    possible, and the exact factorization verdict.

    When the field is exact and every one of the degree-many records is
    exact, the roots are expanded and the expansion's rational values below
    its leading 1 are compared with q_i/q_0, read from ``coeffs`` as given
    (a coefficient that is not a rational number raises ``TypeError``);
    ``factorization`` says whether they agree, and is None otherwise.  The
    normal form is unique, so a coefficient of the expansion that is not
    rational has no rational value and differs.  If they agree,
    p(r_i) = a*prod(r_i - r_j) = 0 is a ring identity (on a reducible tower
    too, as a ring homomorphism preserves it), so every residual is exactly
    0 and no root is substituted.  Else each residual comes from Horner: an
    exact record is substituted in the field, whose elements of ``coeffs``
    are made on first need, and an inexact one in complex doubles.  The
    normal form is unique, so both routes give the same values.
    """
    factorization = None
    if (
        field.is_exact
        and len(records) == len(coeffs) - 1
        and all(rec.exact is not None for rec in records)
    ):
        expanded = expand_monic_from_roots(field, [rec.exact for rec in records])
        lead = Fraction(coeffs[0])
        factorization = all(
            field.as_rational(x) == q / lead for x, q in zip(expanded[1:], coeffs[1:])
        )
        if factorization:
            return [0.0] * len(records), True, True
    values = []
    ok = True
    elements = tol = None
    for rec in records:
        if rec.exact is not None:
            if elements is None:
                elements = [field.from_rational(c) for c in coeffs]
            value = horner_eval(field, elements, rec.exact)
            within = field.is_zero(value)
            residual = 0.0 if within else abs(field.to_complex(value))
        else:
            if tol is None:
                numeric = [complex(c) for c in coeffs]
                tol = FLOAT_RESIDUAL_TOL * max(1.0, max(abs(z) for z in numeric))
            residual = abs(_chorner(numeric, rec.approx))
            within = residual <= tol
        values.append(residual)
        ok = ok and within
    return values, ok, factorization


class VerificationReport:
    """Checks for one solve: per-root residuals, the factorization identity,
    and agreement with the numeric oracle."""

    def __init__(self, residuals, residuals_ok, factorization_ok, oracle_match, notes=None):
        self.residuals = residuals
        self.residuals_ok = residuals_ok
        self.factorization_ok = factorization_ok
        self.oracle_match = oracle_match
        self.notes = [] if notes is None else notes

    @property
    def passed(self):
        return self.residuals_ok and self.factorization_ok and self.oracle_match is not False


def verify_solution(field, coeffs, records):
    """Check solver output against the input polynomial.

    ``coeffs`` are the leading-first coefficients (degree 1 to 4) as
    numbers, as ``residuals`` takes them, and ``records`` the degree-many
    root records.  The factorization identity recovers the monic
    coefficient list from the roots, and the oracle check pairs the roots'
    approximations off with Durand-Kerner's, run on the coefficients'
    doubles, each pair within ``ORACLE_MATCH_TOL`` relative (``approx_eq``).
    Oracle non-convergence is flagged in the notes, not failed.

    The residuals and the exact factorization come from ``_check``, as
    ``residuals`` (and so the CLI without ``--verify``) has them: on the
    exact backend, with every record exact, the roots expanding to the
    monic input in Q prove every residual exactly 0 and no root is
    substituted; otherwise Horner gives them, exactly where records carry
    exact values and numerically elsewhere (|p(root)| <= 1e-6 * scale).
    Where ``_check`` gives no factorization verdict, the records'
    approximations are expanded on the complex embedding instead.
    """
    degree = len(coeffs) - 1
    if degree < 1 or degree > 4:
        raise ValueError("degree must be between 1 and 4")
    if len(records) != degree:
        raise ValueError("record count must equal the degree")
    notes = []
    numeric = [complex(c) for c in coeffs]

    values, residuals_ok, factorization_ok = _check(
        field, coeffs if field.is_exact else numeric, records
    )
    if factorization_ok is None:
        lead = numeric[0]
        expanded = expand_monic_from_roots(ComplexField(), [rec.approx for rec in records])
        tol = FLOAT_RESIDUAL_TOL * max(1.0, max(abs(z) for z in numeric))
        factorization_ok = all(abs(x - z / lead) <= tol for x, z in zip(expanded, numeric))

    oracle_match = None
    try:
        oracle_roots = durand_kerner(numeric)
    except NoConvergence as exc:
        notes.append(f"oracle did not converge within {exc.iterations} iterations")
    else:
        oracle_match = match_root_multisets(
            [rec.approx for rec in records], oracle_roots, ORACLE_MATCH_TOL
        )

    return VerificationReport(
        residuals=values,
        residuals_ok=residuals_ok,
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


def omega_twisting_cbrt():
    """A valid-but-adversarial provider: omega * real_preferring_cbrt(z) on
    every input.  The result still cubes back to z, so it satisfies the
    cube-root contract."""
    w = complex(-0.5, math.sqrt(3.0) / 2.0)

    def cbrt(z):
        return real_preferring_cbrt(z) * w

    return cbrt


def negative_exhibit_two_cbrts(c, d, cbrt_func=real_preferring_cbrt):
    """Evaluate the naive and corrected Cardano forms under ``cbrt_func``.

    Returns a namespace of ``c`` and ``d`` (as complex), the first cube
    root ``s``, the independently taken ``t_independent``, the naive
    ``u_naive`` = s - t_independent and the corrected ``u_corrected`` =
    s - c/(3s), with their residuals |u^3 + c*u + d| as ``residual_naive``
    and ``residual_corrected``.  Requires c, d != 0.  With the default
    (real-preferring) provider the naive form happens to work on benign
    inputs; swap in an ``omega_twisting_cbrt`` provider to exhibit a
    nonzero naive residual.  The corrected residual is tiny for every valid
    provider.
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

    return SimpleNamespace(
        c=c,
        d=d,
        s=s,
        t_independent=t_ind,
        u_naive=u_naive,
        residual_naive=residual(u_naive),
        u_corrected=u_corr,
        residual_corrected=residual(u_corr),
    )
