"""Closed-form solvers for quadratic, cubic, and quartic equations.

The depressed-cubic route follows Cardano with one essential correction:
only a single cube root s is ever taken, and the companion value is
computed as t = c/(3s).  Taking two independent cube roots is unsound for
an arbitrary root provider because nothing forces 3st = c (the verifier
module carries a demonstration).  The quartic is split into two quadratics
whose parameters come from a root of the resolvent cubic.

There is one solver per degree, ``solve_linear`` to ``solve_quartic``,
each taking leading-first general coefficients over any backend satisfying
the field contract and returning root records.  By default the cubic and
quartic solvers case-split on the backend's ``is_zero`` and cover every
degenerate input; with ``strict=True`` they demand the formulas'
nonzeroness hypotheses instead and raise ``StrictHypothesisViolation``.
The case splits are only as faithful as ``is_zero``, which on a reducible
tower can miss a zero (see ``FieldCapabilities`` and ROADMAP item 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from . import radicals
from .fields import from_integer, omega
from .radicals import RadicalExpr, evaluate, render


class SolverError(Exception):
    pass


class DegenerateLeadingTerm(SolverError):
    """The would-be leading coefficient is zero; solve a lower degree instead."""


class ZeroLinearTerm(SolverError):
    """Cardano's formula needs c != 0; use the total solver for c = 0."""


class BiquadraticQuartic(SolverError):
    """The quartic split needs d != 0; d = 0 is the biquadratic case."""


class StrictHypothesisViolation(SolverError):
    """Input excluded by the formula's hypotheses in strict mode."""


@dataclass(frozen=True)
class MonicCubic:
    b: Any
    c: Any
    d: Any


@dataclass(frozen=True)
class DepressedCubic:
    """u**3 + c*u + d, reached from x**3 + b*x**2 + ... via x = u - shift."""

    c: Any
    d: Any
    shift: Any


@dataclass(frozen=True)
class DepressedQuartic:
    c: Any
    d: Any
    e: Any
    shift: Any


@dataclass(frozen=True)
class RootRecord:
    """One solved root: formula branch label, exact tower value when the
    backend is exact, numeric approximation, and a displayable radical tree."""

    label: str
    exact: Optional[Any]
    approx: complex
    radical: RadicalExpr


def render_radical(record):
    """Deterministic text of the record's radical expression tree."""
    return render(record.radical)


# ---------------------------------------------------------------------------
# Traced arithmetic: every field operation also builds the display tree.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TV:
    value: Any
    expr: RadicalExpr


class _Traced:
    def __init__(self, field):
        self.f = field
        self._omega = None
        self._ints = {}

    def wrap(self, x):
        q = self.f.as_rational(x)
        if q is not None:
            return _TV(x, radicals.lit(q))
        z = self.f.to_complex(x)
        expr = radicals.lit(Fraction(str(z.real)) if z.real else 0)
        if z.imag:
            unit = radicals.rsqrt(radicals.lit(-1))
            expr = radicals.radd(
                expr, radicals.rmul(radicals.lit(Fraction(str(z.imag))), unit)
            )
        return _TV(x, expr)

    def int_(self, n):
        tv = self._ints.get(n)
        if tv is None:
            tv = _TV(from_integer(self.f, n), radicals.lit(n))
            self._ints[n] = tv
        return tv

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
        return _TV(self.f.sqrt(x.value), radicals.rsqrt(x.expr))

    def cbrt(self, x):
        value = self.f.cbrt(x.value)
        folded = None
        q = self.f.as_rational(x.value)
        if q is not None and q < 0:
            # the exact backend takes the real (sign-preserving) cube root of
            # a negative rational, which the principal branch would not match
            folded = self.f.as_rational(value)
        return _TV(value, radicals.rcbrt(x.expr, folded))

    def omega_mul(self, k, x):
        k %= 3
        if k == 0:
            return x
        if self._omega is None:
            self._omega = omega(self.f)
        w = self._omega
        value = x.value
        for _ in range(k):
            value = self.f.mul(w, value)
        return _TV(value, radicals.romega(k, x.expr))


def _record(field, label, tv):
    return RootRecord(
        label=label,
        exact=tv.value if field.is_exact else None,
        approx=field.to_complex(tv.value),
        radical=tv.expr,
    )


# ---------------------------------------------------------------------------
# Linear and quadratic.
# ---------------------------------------------------------------------------


def _quadratic_monic_t(t, b, c):
    if t.is_zero(b):
        root = t.sqrt(t.neg(c))
        return root, t.neg(root)
    disc = t.sub(t.mul(b, b), t.mul(t.int_(4), c))
    root = t.sqrt(disc)
    half = t.div(t.int_(1), t.int_(2))
    plus = t.mul(t.add(t.neg(b), root), half)
    minus = t.mul(t.sub(t.neg(b), root), half)
    return plus, minus


def _monic(field, a, *rest):
    if field.is_zero(a):
        raise DegenerateLeadingTerm("degenerate leading coefficient")
    ainv = field.inverse(a)
    return [field.mul(x, ainv) for x in rest]


def _shifted_records(field, t, tvs, shift):
    return [_record(field, label, t.sub(tv, shift)) for label, tv in tvs]


def solve_linear(field, a, b):
    """The root -b/a of a*x + b (a != 0), as one record."""
    t = _Traced(field)
    return [_record(field, "linear", t.div(t.neg(t.wrap(b)), t.wrap(a)))]


def solve_quadratic(field, a, b, c):
    """Both roots of a*x**2 + b*x + c (a != 0), as two records.

    With B = b/a and C = c/a the roots are (-B + sqrt(B**2 - 4C))/2 and
    (-B - ...)/2; for B = 0 the pair is (sqrt(-C), -sqrt(-C)) directly.
    When the discriminant is zero the two roots coincide.
    """
    nb, nc = _monic(field, a, b, c)
    t = _Traced(field)
    plus, minus = _quadratic_monic_t(t, t.wrap(nb), t.wrap(nc))
    return [
        _record(field, "quadratic-plus", plus),
        _record(field, "quadratic-minus", minus),
    ]


# ---------------------------------------------------------------------------
# Cubic.
# ---------------------------------------------------------------------------


def _depress_cubic_t(t, b, c, d):
    three = t.int_(3)
    shift = t.div(b, three)
    b2 = t.mul(b, b)
    cp = t.sub(c, t.div(b2, three))
    b3 = t.mul(b2, b)
    dp = t.add(
        t.sub(t.div(t.mul(t.int_(2), b3), t.int_(27)), t.div(t.mul(b, c), three)),
        d,
    )
    return cp, dp, shift


def depress_cubic(field, b, c, d):
    """Coefficients after x = u - b/3: c' = c - b**2/3,
    d' = 2b**3/27 - bc/3 + d."""
    t = _Traced(field)
    cp, dp, shift = _depress_cubic_t(t, t.wrap(b), t.wrap(c), t.wrap(d))
    return DepressedCubic(cp.value, dp.value, shift.value)


def _cardano_t(t, c, d, branch):
    if t.is_zero(c):
        raise ZeroLinearTerm("c = 0: use the total solver")
    two, three = t.int_(2), t.int_(3)
    half_d = t.div(d, two)
    inner = t.add(
        t.div(t.mul(d, d), t.int_(4)),
        t.div(t.mul(t.mul(c, c), c), t.int_(27)),
    )
    r = t.sqrt(inner)
    s_radicand = t.add(t.neg(half_d), r)
    t_radicand = t.add(half_d, r)
    # s and t are interchangeable under 3st = c, and their cubes multiply to
    # c**3/27; take the cube root of the larger one so the displayed radical
    # stays well-conditioned in floats (the smaller radicand is a difference
    # of near-equal quantities).  The companion value is always computed by
    # division, never as an independent cube root.
    if abs(t.f.to_complex(t_radicand.value)) > abs(t.f.to_complex(s_radicand.value)):
        tt = t.omega_mul(branch, t.cbrt(t_radicand))
        return t.sub(t.div(c, t.mul(three, tt)), tt)
    s = t.omega_mul(branch, t.cbrt(s_radicand))
    return t.sub(s, t.div(c, t.mul(three, s)))


def cardano_root(field, dc, branch=0):
    """One root of u**3 + c*u + d for c != 0.

    ``branch`` selects the cube root used for s: 0 for the provider's own,
    1 and 2 for the omega- and omega**2-multiplied ones.  s is never zero
    (s**3 = 0 would force c = 0), and the returned u = s - c/(3s) satisfies
    the equation exactly in the exact backend.
    """
    t = _Traced(field)
    tv = _cardano_t(t, t.wrap(dc.c), t.wrap(dc.d), branch)
    return tv.value


def _cubic_depressed_tvs(t, c, d, strict=False):
    """Labeled roots of u**3 + c*u + d, with repetition when they coincide.

    Case split: c = 0 gives the three cube roots of -d; d = 0 gives 0 and
    +-sqrt(-c); otherwise the three Cardano branches.  ``strict`` skips
    the split and takes Cardano, which then requires c != 0.
    """
    if not strict and t.is_zero(c):
        base = t.cbrt(t.neg(d))
        return [
            ("cuberoot-A", base),
            ("cuberoot-B", t.omega_mul(1, base)),
            ("cuberoot-C", t.omega_mul(2, base)),
        ]
    if not strict and t.is_zero(d):
        root = t.sqrt(t.neg(c))
        zero = t.int_(0)
        return [("zero", zero), ("sqrt-plus", root), ("sqrt-minus", t.neg(root))]
    return [
        (f"cardano-{name}", _cardano_t(t, c, d, branch))
        for branch, name in enumerate("ABC")
    ]


def solve_cubic(field, a, b, c, d, strict=False):
    """All roots of a*x**3 + b*x**2 + c*x + d (a != 0), as three records.

    ``strict`` mirrors the formula's hypotheses exactly: it requires
    3ac - b**2 != 0 and 2b**3 - 9abc + 27a**2*d != 0 (the depressed c' and
    d' are nonzero) and always takes the Cardano branches.
    """
    nb, nc, nd = _monic(field, a, b, c, d)
    if strict:
        three = from_integer(field, 3)
        q1 = field.sub(field.mul(three, field.mul(a, c)), field.mul(b, b))
        if field.is_zero(q1):
            raise StrictHypothesisViolation("3ac - b^2 = 0")
        b3 = field.mul(field.mul(b, b), b)
        q2 = field.add(
            field.sub(
                field.mul(from_integer(field, 2), b3),
                field.mul(from_integer(field, 9), field.mul(a, field.mul(b, c))),
            ),
            field.mul(from_integer(field, 27), field.mul(field.mul(a, a), d)),
        )
        if field.is_zero(q2):
            raise StrictHypothesisViolation("2b^3 - 9abc + 27a^2*d = 0")
    t = _Traced(field)
    cp, dp, shift = _depress_cubic_t(t, t.wrap(nb), t.wrap(nc), t.wrap(nd))
    return _shifted_records(field, t, _cubic_depressed_tvs(t, cp, dp, strict), shift)


# ---------------------------------------------------------------------------
# Quartic.
# ---------------------------------------------------------------------------


def _depress_quartic_t(t, b, c, d, e):
    two, four, eight = t.int_(2), t.int_(4), t.int_(8)
    shift = t.div(b, four)
    b2 = t.mul(b, b)
    b3 = t.mul(b2, b)
    b4 = t.mul(b3, b)
    cp = t.sub(c, t.div(t.mul(t.int_(3), b2), eight))
    dp = t.add(t.sub(t.div(b3, eight), t.div(t.mul(b, c), two)), d)
    ep = t.add(
        t.sub(
            t.sub(t.div(t.mul(b2, c), t.int_(16)), t.div(t.mul(t.int_(3), b4), t.int_(256))),
            t.div(t.mul(b, d), four),
        ),
        e,
    )
    return cp, dp, ep, shift


def depress_quartic(field, b, c, d, e):
    """Coefficients after x = u - b/4: c' = c - 3b**2/8,
    d' = b**3/8 - bc/2 + d, e' = b**2*c/16 - 3b**4/256 - bd/4 + e."""
    t = _Traced(field)
    cp, dp, ep, shift = _depress_quartic_t(t, t.wrap(b), t.wrap(c), t.wrap(d), t.wrap(e))
    return DepressedQuartic(cp.value, dp.value, ep.value, shift.value)


def _resolvent_t(t, c, d, e):
    return (
        t.mul(t.int_(2), c),
        t.sub(t.mul(c, c), t.mul(t.int_(4), e)),
        t.neg(t.mul(d, d)),
    )


def resolvent_coeffs(field, c, d, e):
    """Monic cubic in P = p**2 parameterizing the split of u**4 + cu**2 + du + e:
    P**3 + 2c*P**2 + (c**2 - 4e)*P - d**2 = 0."""
    t = _Traced(field)
    rb, rc, rd = _resolvent_t(t, t.wrap(c), t.wrap(d), t.wrap(e))
    return MonicCubic(rb.value, rc.value, rd.value)


def _quartic_split_t(t, c, d, e, strict=False, resolvent_root=None):
    if t.is_zero(d):
        raise BiquadraticQuartic("biquadratic case")
    if resolvent_root is not None:
        candidates = [resolvent_root]
    else:
        cp, dp, shift = _depress_cubic_t(t, *_resolvent_t(t, c, d, e))
        candidates = [t.sub(tv, shift) for _, tv in _cubic_depressed_tvs(t, cp, dp, strict)]
    # every resolvent root is nonzero when d != 0 (their product is d**2),
    # but the float backend's zero test may fire near zero; fall through
    for cand in candidates:
        if not t.is_zero(cand):
            big_p = cand
            break
    else:
        raise SolverError("no usable resolvent root")
    p = t.sqrt(big_p)
    d_over_p = t.div(d, p)
    base = t.add(c, big_p)
    two = t.int_(2)
    q = t.div(t.sub(base, d_over_p), two)
    s = t.div(t.add(base, d_over_p), two)
    return p, q, s


def quartic_split_depressed(field, c, d, e, resolvent_root=None):
    """Split u**4 + cu**2 + du + e into (u**2 + pu + q)(u**2 - pu + s).

    Picks a nonzero root P of the resolvent cubic (trying the Cardano-A
    branch first, then B and C), sets p = sqrt(P), q = (c + P - d/p)/2 and
    s = (c + P + d/p)/2; the expansion identity holds exactly in the exact
    backend.  ``resolvent_root`` overrides the choice of P.  Requires d != 0.
    """
    t = _Traced(field)
    root = None if resolvent_root is None else t.wrap(resolvent_root)
    p, q, s = _quartic_split_t(t, t.wrap(c), t.wrap(d), t.wrap(e), resolvent_root=root)
    return p.value, q.value, s.value


def _quartic_depressed_tvs(t, c, d, e, strict=False):
    """Labeled roots of u**4 + cu**2 + du + e, with repetition.

    d = 0 solves the quadratic in u**2 and takes square roots; otherwise
    the two quadratic factors from the resolvent split are solved.
    """
    if t.is_zero(d):
        y1, y2 = _quadratic_monic_t(t, c, e)
        r1 = t.sqrt(y1)
        r2 = t.sqrt(y2)
        return [
            ("biquadratic-1-plus", r1),
            ("biquadratic-1-minus", t.neg(r1)),
            ("biquadratic-2-plus", r2),
            ("biquadratic-2-minus", t.neg(r2)),
        ]
    p, q, s = _quartic_split_t(t, c, d, e, strict=strict)
    x1, x2 = _quadratic_monic_t(t, p, q)
    x3, x4 = _quadratic_monic_t(t, t.neg(p), s)
    return [
        ("quadratic-1-plus", x1),
        ("quadratic-1-minus", x2),
        ("quadratic-2-plus", x3),
        ("quadratic-2-minus", x4),
    ]


def solve_quartic(field, a, b, c, d, e, strict=False):
    """All roots of a*x**4 + ... + e (a != 0), as four records.

    ``strict`` requires the depressed coefficients to satisfy d' != 0,
    e' != 0 and c'**2 + 12e' != 0, and solves the resolvent cubic by
    Cardano's branches alone.
    """
    nb, nc, nd, ne = _monic(field, a, b, c, d, e)
    t = _Traced(field)
    cp, dp, ep, shift = _depress_quartic_t(t, t.wrap(nb), t.wrap(nc), t.wrap(nd), t.wrap(ne))
    if strict:
        if t.is_zero(dp):
            raise StrictHypothesisViolation("depressed d' = 0 (biquadratic case)")
        if t.is_zero(ep):
            raise StrictHypothesisViolation("depressed e' = 0")
        cond = t.add(t.mul(cp, cp), t.mul(t.int_(12), ep))
        if t.is_zero(cond):
            raise StrictHypothesisViolation("c'^2 + 12e' = 0 (resolvent hypothesis)")
    tvs = _quartic_depressed_tvs(t, cp, dp, ep, strict)
    return _shifted_records(field, t, tvs, shift)


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
