"""Closed-form solvers for quadratic, cubic, and quartic equations.

The depressed-cubic route follows Cardano with one essential correction:
only a single cube root s is ever taken, and the companion value is
computed as t = c/(3s).  Taking two independent cube roots is unsound for
an arbitrary root provider because nothing forces 3st = c (the verifier
module carries a demonstration).  As in the paper, the three roots come
from that one s: the radicands and s are computed once per cubic, the
three branches walk its omega-orbit s, omega*s, omega*(omega*s) with two
products by omega, and each forms s - c/(3s) from its own value.  The
quartic is split into two quadratics whose parameters come from a root of
the resolvent cubic.

Each formula is one function over the field contract: ``depress_cubic``,
``cardano_root``, ``depress_quartic``, ``resolvent_coeffs`` and
``quartic_split_depressed`` take any ``FieldCapabilities`` and return its
elements.  There is one solver per degree, ``solve_linear`` to
``solve_quartic``, each taking leading-first general coefficients and
returning root records; the solvers run the same formulas over
``_Traced``, one backend over either field whose elements pair the wrapped
backend's value with the radical tree that produced it.  A coefficient is
rational: an ``int`` or a ``Fraction``, as the CLI passes them on both
backends, or a backend element whose ``as_rational`` is known; a float or
a complex raises ``TypeError``.  A rational value stays a literal, which
the tree's literal fold computes exactly: normalizing to monic,
depressing, the resolvent and Cardano's inner term are arithmetic in Q,
and the value becomes a backend element only when it meets an irrational
value, a root, ``to_complex`` or a record.  By default the cubic and
quartic solvers case-split on ``is_zero`` and cover every degenerate
input; with ``strict=True`` they demand the paper's nonzeroness
hypotheses instead and raise ``StrictHypothesisViolation``.  Every case
split tests a rational value, whose test reads its literal, or a square
root that an earlier exact test has proved nonzero; on a reducible tower
the backend's ``is_zero`` of such a root can still miss a zero (see
``FieldCapabilities`` and ROADMAP item 2).
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Number

from . import radicals
from .fields import FieldCapabilities
from .radicals import Cbrt, OmegaPow, Sqrt, render

_DOUBLE_MIN = 2.2250738585072014e-308  # the least normal double


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


class RootRecord:
    """One solved root: formula branch label, exact tower value when the
    backend is exact, numeric approximation, and a displayable radical tree.
    The records of one solve share subtrees, whose nodes keep their own
    rendered text (see ``radicals.render``).
    """

    __slots__ = ("label", "exact", "approx", "radical")

    def __init__(self, label, exact, approx, radical):
        self.label = label
        self.exact = exact
        self.approx = approx
        self.radical = radical


def render_radical(record):
    """Deterministic text of the record's radical expression tree."""
    return render(record.radical)


# ---------------------------------------------------------------------------
# The trace backend: every field operation also builds the display tree.
# ---------------------------------------------------------------------------


class _TV:
    __slots__ = ("value", "expr")

    def __init__(self, value, expr):
        self.value = value
        self.expr = expr


class _Traced(FieldCapabilities):
    """Field whose elements are ``_TV(value, expr)`` pairs: ``value`` lives in
    the wrapped backend ``f`` and ``expr`` is its radical tree.

    A rational stays a literal until it is read: ``from_rational``, and
    ``wrap`` of a coefficient, which is rational, give a ``_TV`` whose
    ``value`` is ``None``, pending.  Two pending operands combine by the
    literal fold alone, which computes the exact value, and ``is_zero`` of
    a pending value reads the literal's numerator.  When a pending value
    meets a backend value, a root, ``to_complex`` or a record, ``_read``
    makes its backend element from the literal, once, and keeps it.  So
    every coefficient is pending, and the backend first sees a value at
    the first radical: on the exact backend it is the element the eager
    arithmetic would make, as the normal form is unique; on the complex
    backend it is the double nearest the exact rational, and a radicand or
    divisor must be a normal double (``_read_nonzero``).
    """

    def __init__(self, field):
        self.f = field
        self.is_exact = field.is_exact
        self._omega = None
        self._lits = {}

    def _read(self, x):
        """The backend value of ``x``, made from its literal and kept if ``x``
        is pending.  The operations read ``x.value or self._read(x)``: no
        call for a value that is there, and a falsy one comes back as is."""
        value = x.value
        if value is None:
            lit = x.expr
            # an integer goes in as an int: the complex backend's float() of
            # a Fraction is a Python-level call, of an int a native one
            value = x.value = self.f.from_rational(lit.n if lit.d == 1 else lit.value)
        return value

    def _read_nonzero(self, x):
        """``_read`` of a radicand or a divisor.  On doubles a nonzero
        literal below the normal range has lost its digits, or reads as 0.0
        against the exact tests that called it nonzero; the formula would
        then answer for another input, so this raises ``SolverError``."""
        value = x.value
        if value is None:
            value = self._read(x)
            if not self.is_exact and x.expr.n and abs(value) < _DOUBLE_MIN:
                raise SolverError("a nonzero radicand or divisor underflows a double")
        return value

    def wrap(self, x):
        """The pending literal of a coefficient, which must be rational: an
        ``int``, a ``Fraction`` or a backend element whose ``as_rational``
        is known.  Anything else, a float or a complex too, is a
        ``TypeError``."""
        if x.__class__ is Fraction or x.__class__ is int:
            return _TV(None, radicals.lit(x))
        q = None if isinstance(x, Number) else self.f.as_rational(x)
        if q is None:
            raise TypeError(f"a coefficient must be rational, not {x!r}")
        return _TV(None, radicals.lit(q))

    def from_rational(self, q):
        tv = self._lits.get(q)
        if tv is None:
            tv = self._lits[q] = _TV(None, radicals.lit(q))
        return tv

    def to_complex(self, x):
        return self.f.to_complex(x.value or self._read(x))

    def is_zero(self, x):
        if x.value is None:
            return x.expr.n == 0
        return self.f.is_zero(x.value)

    def add(self, x, y):
        expr = radicals.radd(x.expr, y.expr)
        if x.value is None and y.value is None:
            return _TV(None, expr)
        return _TV(self.f.add(x.value or self._read(x), y.value or self._read(y)), expr)

    def sub(self, x, y):
        expr = radicals.rsub(x.expr, y.expr)
        if x.value is None and y.value is None:
            return _TV(None, expr)
        return _TV(self.f.sub(x.value or self._read(x), y.value or self._read(y)), expr)

    def neg(self, x):
        value = x.value
        return _TV(None if value is None else self.f.neg(value), radicals.rneg(x.expr))

    def mul(self, x, y):
        expr = radicals.rmul(x.expr, y.expr)
        if x.value is None and y.value is None:
            return _TV(None, expr)
        return _TV(self.f.mul(x.value or self._read(x), y.value or self._read(y)), expr)

    def div(self, x, y):
        if y.value is None and y.expr.n == 0:
            raise ZeroDivisionError("division by zero")
        expr = radicals.rdiv(x.expr, y.expr)
        if x.value is None and y.value is None:
            return _TV(None, expr)
        return _TV(self.f.div(x.value or self._read(x), y.value or self._read_nonzero(y)), expr)

    def sqrt(self, x):
        return _TV(self.f.sqrt(x.value or self._read_nonzero(x)), Sqrt(x.expr))

    def cbrt(self, x):
        radicand = x.value or self._read_nonzero(x)
        value = self.f.cbrt(radicand)
        q = self.f.as_rational(radicand)
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

    def record(self, label, tv):
        """The root record of ``tv``."""
        f = self.f
        value = tv.value or self._read(tv)
        return RootRecord(
            label=label,
            exact=value if f.is_exact else None,
            approx=f.to_complex(value),
            radical=tv.expr,
        )


def _monic(t, a, *rest):
    """The wrapped ``rest`` over the wrapped leading coefficient ``a``."""
    a = t.wrap(a)
    if t.is_zero(a):
        raise DegenerateLeadingTerm("degenerate leading coefficient")
    return [t.div(t.wrap(x), a) for x in rest]


def _shifted_records(t, roots, shift):
    return [t.record(label, t.sub(tv, shift)) for label, tv in roots]


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
    minus_b = f.neg(b)
    plus = f.mul(f.add(minus_b, root), half)
    minus = f.mul(f.sub(minus_b, root), half)
    return plus, minus


def solve_linear(field, a, b):
    """The root -b/a of a*x + b (a != 0), as one record."""
    t = _Traced(field)
    return [t.record("linear", t.div(t.neg(t.wrap(b)), t.wrap(a)))]


def solve_quadratic(field, a, b, c):
    """Both roots of a*x**2 + b*x + c (a != 0), as two records.

    With B = b/a and C = c/a the roots are (-B + sqrt(B**2 - 4C))/2 and
    (-B - ...)/2; for B = 0 the pair is (sqrt(-C), -sqrt(-C)) directly.
    When the discriminant is zero the two roots coincide.
    """
    t = _Traced(field)
    plus, minus = _quadratic_monic(t, *_monic(t, a, b, c))
    return [t.record("quadratic-plus", plus), t.record("quadratic-minus", minus)]


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


def _omega_orbit(f, root):
    """root, omega*root and omega*(omega*root), lazily: omega is taken when
    the second value is asked for, and the third multiplies the second."""
    yield root
    w = f.omega()
    second = f.mul(w, root)
    yield second
    yield f.mul(w, second)


def _cardano_base(f, c, d):
    """(root, swapped): the branch-invariant part of Cardano for
    u**3 + c*u + d; the caller has tested c != 0.

    ``root`` is the provider's cube root of the larger of the radicands
    -d/2 + r and d/2 + r, r = sqrt(d**2/4 + c**3/27); ``swapped`` says it
    is the second one, so it plays t rather than s.
    """
    half_d = f.div(d, f.from_rational(2))
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
        return f.cbrt(t_radicand), True
    return f.cbrt(s_radicand), False


def cardano_root(f, c, d, branch=0):
    """One root of u**3 + c*u + d for c != 0.

    ``branch`` selects the cube root used for s: 0 for the provider's own,
    1 and 2 for the omega- and omega**2-multiplied ones.  s is never zero
    (s**3 = 0 would force c = 0), and the returned u = s - c/(3s) satisfies
    the equation exactly in the exact backend.  This is root ``branch`` of
    ``_cubic_depressed_roots`` in strict mode, which builds the roots before
    it in the orbit too.
    """
    for k, (_, u) in enumerate(_cubic_depressed_roots(f, c, d, strict=True)):
        if k == branch:
            return u
    raise ValueError("branch must be 0, 1 or 2")


def _cubic_depressed_roots(f, c, d, strict=False):
    """Labeled roots of u**3 + c*u + d, with repetition when they coincide.

    Case split: c = 0 gives the three cube roots of -d; d = 0 gives 0 and
    +-sqrt(-c); otherwise the three Cardano branches, which share one base
    (one square root and one cube root) built before the first is yielded.
    Both cube-root cases walk ``_omega_orbit`` of their one cube root, so
    the three roots take two products by omega.  ``strict`` skips the split
    and takes Cardano, raising ``ZeroLinearTerm`` on c = 0; either way c is
    tested once.  The roots are yielded lazily, in that order: a caller
    that stops after the first one never takes omega, so sqrt(-3) is
    adjoined only when a later root is asked for.
    """
    if strict and f.is_zero(c):
        raise ZeroLinearTerm("c = 0: Cardano's formula needs c != 0")
    if not strict and f.is_zero(c):
        for name, u in zip("ABC", _omega_orbit(f, f.cbrt(f.neg(d)))):
            yield f"cuberoot-{name}", u
    elif not strict and f.is_zero(d):
        root = f.sqrt(f.neg(c))
        yield "zero", f.from_rational(0)
        yield "sqrt-plus", root
        yield "sqrt-minus", f.neg(root)
    else:
        root, swapped = _cardano_base(f, c, d)
        three = f.from_rational(3)
        for name, t in zip("ABC", _omega_orbit(f, root)):
            companion = f.div(c, f.mul(three, t))
            yield f"cardano-{name}", f.sub(companion, t) if swapped else f.sub(t, companion)


def solve_cubic(field, a, b, c, d, strict=False):
    """All roots of a*x**3 + b*x**2 + c*x + d (a != 0), as three records.

    ``strict`` requires the depressed c' and d' to be nonzero (3ac - b**2
    != 0 and 2b**3 - 9abc + 27a**2*d != 0) and takes the Cardano branches.
    c' != 0 is Cardano's own zero test, on the same traced element; d' != 0
    is demanded in addition.
    """
    t = _Traced(field)
    cp, dp, shift = depress_cubic(t, *_monic(t, a, b, c, d))
    if strict:
        if t.is_zero(cp):
            raise StrictHypothesisViolation("3ac - b^2 = 0")
        if t.is_zero(dp):
            raise StrictHypothesisViolation("2b^3 - 9abc + 27a^2*d = 0")
    roots = list(_cubic_depressed_roots(t, cp, dp))
    return _shifted_records(t, roots, shift)


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

    Takes a root P of the resolvent cubic, which is nonzero as d is: the
    first in ``_cubic_depressed_roots`` order (Cardano-A in the generic
    case), so the later branches, and the omega they need, are not built.
    Only on an inexact backend, where that root is below 2**-26 of the
    scale of the resolvent's roots and so has lost over half its digits, is
    the largest of the three taken instead.  ``strict`` solves the
    resolvent as ``solve_cubic`` does in strict mode.  Then p = sqrt(P),
    q = (c + P - d/p)/2 and s = (c + P + d/p)/2; the expansion identity
    holds exactly in the exact backend.  ``resolvent_root`` overrides the
    choice of P.  Requires d != 0.
    """
    if f.is_zero(d):
        raise BiquadraticQuartic("biquadratic case")
    return _quartic_split(f, c, d, e, strict, resolvent_root)


def _quartic_split(f, c, d, e, strict, resolvent_root=None):
    """``quartic_split_depressed`` for a d the caller has tested nonzero."""
    if resolvent_root is None:
        coeffs = resolvent_coeffs(f, c, d, e)
        cp, dp, shift = depress_cubic(f, *coeffs)
        roots = (f.sub(r, shift) for _, r in _cubic_depressed_roots(f, cp, dp, strict))
        resolvent_root = next(roots)
        # No resolvent root is zero (they multiply to d**2, tested exactly),
        # but a double gets one only to about 2**-53 of the roots' scale M,
        # the largest |a_k|**(1/k) of P**3 + a_1*P**2 + a_2*P + a_3.  A first
        # root below 2**-26*M has lost over half its digits; the largest, at
        # least M/3, has not.
        if not f.is_exact:
            scale = max(abs(f.to_complex(a)) ** (1 / k) for k, a in enumerate(coeffs, 1))
            if abs(f.to_complex(resolvent_root)) < 2**-26 * scale:
                resolvent_root = max((resolvent_root, *roots), key=lambda x: abs(f.to_complex(x)))
    p = f.sqrt(resolvent_root)
    d_over_p = f.div(d, p)
    base = f.add(c, resolvent_root)
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
    p, q, s = _quartic_split(f, c, d, e, strict)
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
    Cardano's branches alone.  d' != 0 is the split's own zero test and
    c'**2 + 12e' != 0 the resolvent Cardano's (its depressed linear
    coefficient is -(c'**2 + 12e')/3); e' != 0 is demanded in addition.
    """
    t = _Traced(field)
    cp, dp, ep, shift = depress_quartic(t, *_monic(t, a, b, c, d, e))
    if strict:
        if t.is_zero(dp):
            raise StrictHypothesisViolation("depressed d' = 0 (biquadratic case)")
        if t.is_zero(ep):
            raise StrictHypothesisViolation("depressed e' = 0")
    try:
        roots = _quartic_depressed_roots(t, cp, dp, ep, strict)
    except ZeroLinearTerm:
        raise StrictHypothesisViolation("c'^2 + 12e' = 0 (resolvent hypothesis)") from None
    return _shifted_records(t, roots, shift)
