"""Closed-form solvers for quadratic, cubic, and quartic equations.

The depressed-cubic route follows Cardano with one essential correction:
only a single cube root s is ever taken, and the companion value is
computed as t = c/(3s).  Taking two independent cube roots is unsound for
an arbitrary root provider because nothing forces 3st = c (the verifier
module carries a demonstration).  The quartic is split into two quadratics
whose parameters come from a root of the resolvent cubic.

Each formula is one function over the field contract: ``depress_cubic``,
``cardano_root``, ``depress_quartic``, ``resolvent_coeffs`` and
``quartic_split_depressed`` take any ``FieldCapabilities`` and return its
elements.  There is one solver per degree, ``solve_linear`` to
``solve_quartic``, each taking leading-first general coefficients and
returning root records; the solvers run the same formulas over
``_Traced``, a backend whose elements pair the wrapped backend's value
with the radical tree that produced it.  By default the cubic and quartic
solvers case-split on the backend's ``is_zero`` and cover every
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
from .fields import FieldCapabilities
from .radicals import OmegaPow, RadicalExpr, evaluate, render


class SolverError(Exception):
    pass


class DegenerateLeadingTerm(SolverError):
    """The would-be leading coefficient is zero; solve a lower degree instead."""


class ZeroLinearTerm(SolverError):
    """Cardano's formula needs c != 0; ``solve_cubic`` splits off c = 0."""


class BiquadraticQuartic(SolverError):
    """The quartic split needs d != 0; d = 0 is the biquadratic case."""


class StrictHypothesisViolation(SolverError):
    """Input excluded by the formula's hypotheses in strict mode."""


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
# The trace backend: every field operation also builds the display tree.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TV:
    value: Any
    expr: RadicalExpr


class _Traced(FieldCapabilities):
    """Field whose elements are ``_TV(value, expr)`` pairs: ``value`` lives in
    the wrapped backend ``f`` and ``expr`` is its radical tree."""

    def __init__(self, field):
        self.f = field
        self._omega = None
        self._lits = {}

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

    def omega(self):
        if self._omega is None:
            self._omega = _TV(self.f.omega(), OmegaPow(1))
        return self._omega


def _record(field, label, tv):
    return RootRecord(
        label=label,
        exact=tv.value if field.is_exact else None,
        approx=field.to_complex(tv.value),
        radical=tv.expr,
    )


def _monic(field, a, *rest):
    if field.is_zero(a):
        raise DegenerateLeadingTerm("degenerate leading coefficient")
    ainv = field.inverse(a)
    return [field.mul(x, ainv) for x in rest]


def _shifted_records(field, t, roots, shift):
    return [_record(field, label, t.sub(tv, shift)) for label, tv in roots]


# ---------------------------------------------------------------------------
# Linear and quadratic.
# ---------------------------------------------------------------------------


def _quadratic_monic(f, b, c):
    if f.is_zero(b):
        root = f.sqrt(f.neg(c))
        return root, f.neg(root)
    disc = f.sub(f.mul(b, b), f.mul(f.from_rational(4), c))
    root = f.sqrt(disc)
    half = f.from_rational(Fraction(1, 2))
    plus = f.mul(f.add(f.neg(b), root), half)
    minus = f.mul(f.sub(f.neg(b), root), half)
    return plus, minus


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
    plus, minus = _quadratic_monic(t, t.wrap(nb), t.wrap(nc))
    return [
        _record(field, "quadratic-plus", plus),
        _record(field, "quadratic-minus", minus),
    ]


# ---------------------------------------------------------------------------
# Cubic.
# ---------------------------------------------------------------------------


def depress_cubic(f, b, c, d):
    """(c', d', shift) with x = u - shift taking x**3 + b*x**2 + c*x + d to
    u**3 + c'*u + d': shift = b/3, c' = c - b**2/3, d' = 2b**3/27 - bc/3 + d."""
    three = f.from_rational(3)
    shift = f.div(b, three)
    b2 = f.mul(b, b)
    cp = f.sub(c, f.div(b2, three))
    b3 = f.mul(b2, b)
    dp = f.add(
        f.sub(
            f.div(f.mul(f.from_rational(2), b3), f.from_rational(27)),
            f.div(f.mul(b, c), three),
        ),
        d,
    )
    return cp, dp, shift


def _omega_times(f, k, x):
    """omega**k * x, as omega*(omega*x) for k = 2."""
    if k:
        w = f.omega()
        for _ in range(k):
            x = f.mul(w, x)
    return x


def cardano_root(f, c, d, branch=0):
    """One root of u**3 + c*u + d for c != 0.

    ``branch`` selects the cube root used for s: 0 for the provider's own,
    1 and 2 for the omega- and omega**2-multiplied ones.  s is never zero
    (s**3 = 0 would force c = 0), and the returned u = s - c/(3s) satisfies
    the equation exactly in the exact backend.
    """
    if f.is_zero(c):
        raise ZeroLinearTerm("c = 0: Cardano's formula needs c != 0")
    two, three = f.from_rational(2), f.from_rational(3)
    half_d = f.div(d, two)
    inner = f.add(
        f.div(f.mul(d, d), f.from_rational(4)),
        f.div(f.mul(f.mul(c, c), c), f.from_rational(27)),
    )
    r = f.sqrt(inner)
    s_radicand = f.add(f.neg(half_d), r)
    t_radicand = f.add(half_d, r)
    # s and t are interchangeable under 3st = c, and their cubes multiply to
    # c**3/27; take the cube root of the larger one so the displayed radical
    # stays well-conditioned in floats (the smaller radicand is a difference
    # of near-equal quantities).  The companion value is always computed by
    # division, never as an independent cube root.
    if abs(f.to_complex(t_radicand)) > abs(f.to_complex(s_radicand)):
        t = _omega_times(f, branch, f.cbrt(t_radicand))
        return f.sub(f.div(c, f.mul(three, t)), t)
    s = _omega_times(f, branch, f.cbrt(s_radicand))
    return f.sub(s, f.div(c, f.mul(three, s)))


def _cubic_depressed_roots(f, c, d, strict=False):
    """Labeled roots of u**3 + c*u + d, with repetition when they coincide.

    Case split: c = 0 gives the three cube roots of -d; d = 0 gives 0 and
    +-sqrt(-c); otherwise the three Cardano branches.  ``strict`` skips
    the split and takes Cardano, which then requires c != 0.
    """
    if not strict and f.is_zero(c):
        base = f.cbrt(f.neg(d))
        w = f.omega()
        second = f.mul(w, base)
        return [("cuberoot-A", base), ("cuberoot-B", second), ("cuberoot-C", f.mul(w, second))]
    if not strict and f.is_zero(d):
        root = f.sqrt(f.neg(c))
        return [("zero", f.from_rational(0)), ("sqrt-plus", root), ("sqrt-minus", f.neg(root))]
    return [
        (f"cardano-{name}", cardano_root(f, c, d, branch))
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
        n = field.from_rational
        q1 = field.sub(field.mul(n(3), field.mul(a, c)), field.mul(b, b))
        if field.is_zero(q1):
            raise StrictHypothesisViolation("3ac - b^2 = 0")
        b3 = field.mul(field.mul(b, b), b)
        q2 = field.add(
            field.sub(field.mul(n(2), b3), field.mul(n(9), field.mul(a, field.mul(b, c)))),
            field.mul(n(27), field.mul(field.mul(a, a), d)),
        )
        if field.is_zero(q2):
            raise StrictHypothesisViolation("2b^3 - 9abc + 27a^2*d = 0")
    t = _Traced(field)
    cp, dp, shift = depress_cubic(t, t.wrap(nb), t.wrap(nc), t.wrap(nd))
    return _shifted_records(field, t, _cubic_depressed_roots(t, cp, dp, strict), shift)


# ---------------------------------------------------------------------------
# Quartic.
# ---------------------------------------------------------------------------


def depress_quartic(f, b, c, d, e):
    """(c', d', e', shift) with x = u - shift taking x**4 + b*x**3 + ... + e
    to u**4 + c'*u**2 + d'*u + e': shift = b/4, c' = c - 3b**2/8,
    d' = b**3/8 - bc/2 + d, e' = b**2*c/16 - 3b**4/256 - bd/4 + e."""
    n = f.from_rational
    two, four, eight = n(2), n(4), n(8)
    shift = f.div(b, four)
    b2 = f.mul(b, b)
    b3 = f.mul(b2, b)
    b4 = f.mul(b3, b)
    cp = f.sub(c, f.div(f.mul(n(3), b2), eight))
    dp = f.add(f.sub(f.div(b3, eight), f.div(f.mul(b, c), two)), d)
    ep = f.add(
        f.sub(
            f.sub(f.div(f.mul(b2, c), n(16)), f.div(f.mul(n(3), b4), n(256))),
            f.div(f.mul(b, d), four),
        ),
        e,
    )
    return cp, dp, ep, shift


def resolvent_coeffs(f, c, d, e):
    """(2c, c**2 - 4e, -d**2): the monic cubic in P = p**2 parameterizing the
    split of u**4 + cu**2 + du + e, P**3 + 2c*P**2 + (c**2 - 4e)*P - d**2."""
    return (
        f.mul(f.from_rational(2), c),
        f.sub(f.mul(c, c), f.mul(f.from_rational(4), e)),
        f.neg(f.mul(d, d)),
    )


def quartic_split_depressed(f, c, d, e, strict=False, resolvent_root=None):
    """(p, q, s) splitting u**4 + cu**2 + du + e into (u**2 + pu + q)(u**2 - pu + s).

    Picks a nonzero root P of the resolvent cubic (trying the Cardano-A
    branch first, then B and C; ``strict`` solves the resolvent as
    ``solve_cubic`` does in strict mode), sets p = sqrt(P),
    q = (c + P - d/p)/2 and s = (c + P + d/p)/2; the expansion identity
    holds exactly in the exact backend.  ``resolvent_root`` overrides the
    choice of P.  Requires d != 0.
    """
    if f.is_zero(d):
        raise BiquadraticQuartic("biquadratic case")
    if resolvent_root is not None:
        candidates = [resolvent_root]
    else:
        cp, dp, shift = depress_cubic(f, *resolvent_coeffs(f, c, d, e))
        candidates = [f.sub(r, shift) for _, r in _cubic_depressed_roots(f, cp, dp, strict)]
    # every resolvent root is nonzero when d != 0 (their product is d**2),
    # but the float backend's zero test may fire near zero; fall through
    for cand in candidates:
        if not f.is_zero(cand):
            big_p = cand
            break
    else:
        raise SolverError("no usable resolvent root")
    p = f.sqrt(big_p)
    d_over_p = f.div(d, p)
    base = f.add(c, big_p)
    two = f.from_rational(2)
    q = f.div(f.sub(base, d_over_p), two)
    s = f.div(f.add(base, d_over_p), two)
    return p, q, s


def _quartic_depressed_roots(f, c, d, e, strict=False):
    """Labeled roots of u**4 + cu**2 + du + e, with repetition.

    d = 0 solves the quadratic in u**2 and takes square roots; otherwise
    the two quadratic factors from the resolvent split are solved.
    """
    if f.is_zero(d):
        y1, y2 = _quadratic_monic(f, c, e)
        r1 = f.sqrt(y1)
        r2 = f.sqrt(y2)
        return [
            ("biquadratic-1-plus", r1),
            ("biquadratic-1-minus", f.neg(r1)),
            ("biquadratic-2-plus", r2),
            ("biquadratic-2-minus", f.neg(r2)),
        ]
    p, q, s = quartic_split_depressed(f, c, d, e, strict=strict)
    x1, x2 = _quadratic_monic(f, p, q)
    x3, x4 = _quadratic_monic(f, f.neg(p), s)
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
    cp, dp, ep, shift = depress_quartic(t, t.wrap(nb), t.wrap(nc), t.wrap(nd), t.wrap(ne))
    if strict:
        if t.is_zero(dp):
            raise StrictHypothesisViolation("depressed d' = 0 (biquadratic case)")
        if t.is_zero(ep):
            raise StrictHypothesisViolation("depressed e' = 0")
        cond = t.add(t.mul(cp, cp), t.mul(t.from_rational(12), ep))
        if t.is_zero(cond):
            raise StrictHypothesisViolation("c'^2 + 12e' = 0 (resolvent hypothesis)")
    roots = _quartic_depressed_roots(t, cp, dp, ep, strict)
    return _shifted_records(field, t, roots, shift)


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
