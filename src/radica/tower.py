"""Exact backend: normalized rationals and radical extension towers.

Elements live in Q(g1)(g2)...(gn) where each generator g_k is a square or
cube root (d_k = 2 or 3) of an element built from the levels below it.

Representation: each generator is stored rescaled as h_k = c_k*g_k, where
the positive integer c_k makes h_k**d_k = c_k**d_k * radicand integral; that
integral element is the level's rewrite rule.  An element is a sparse map
from monomials h1**e1 ... hn**en (0 <= e_k < d_k) to nonzero integers over
one positive denominator, with the gcd of the coefficients and the
denominator divided out: a unique form, so the zero test only looks for
terms.  A monomial is one integer key whose digits are its exponents, in a
mixed radix of 2*d_k - 1 per level with the lowest level least significant,
so multiplying two monomials adds their keys without carry and appending a
level leaves every key unchanged.  A product sums the pair products by key
and then reduces the sum on its own, modulo the levels' defining
polynomials as triangular-set arithmetic does: from the lowest level up,
the part whose exponent e_k is at least d_k, already normal below level k,
is shifted down by d_k, multiplied by rule_k, the value of h_k**d_k, and
reduced below level k again.  A monomial c*prod h_k**e_k inverts in closed
form, sign(c)/|c| times prod h_k**(d_k - e_k) * rule_k**-1 over its levels
with e_k > 0, and each level keeps its rule's inverse from its first use;
any other element multiplies by its adjugate over the level below its
highest generator, and the norm recursion ends in the closed form once the
norm is a monomial.  A product with a rational operand only scales the
other's terms.
``debug_str`` and ``to_complex`` are defined in the original g basis, where
a key's coefficient is its h-basis one times prod scale_k**e_k.
``to_complex`` hands the integral terms and the denominator to ``_embed``,
which multiplies part i of each level by scale_k**i on its way down and
divides once per leaf; it evaluates from the highest level an element uses,
which gives the bits of an evaluation over the whole tower as long as every
level embeds as a finite number.

A ``Tower`` is one solve session: it holds the level chain and the
generator keys, nothing else, and adjoins.  ``Tower.adjoin`` returns the
generator of a level of the same kind and an equal radicand, and otherwise
appends a level in place; since appending leaves every key unchanged,
elements built before it keep their value, elements over the lower levels
are elements of the grown tower, and the kept rule inverses stay valid as
it grows.  Splitting a reducible level (ROADMAP item 2) would change its
rule and scale, which products and ``_embed`` read from the level itself,
so a split has to drop only the kept rule inverses.  Elements combine only
with elements, and elements of different towers do not mix, except that a
rational takes the tower of the element it meets.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from math import gcd

from .complexfield import ccbrt_principal, csqrt_principal
from .fields import FieldCapabilities

class TowerMismatchError(ValueError):
    """Raised when combining elements of two different towers, neither of
    them rational."""


class ReducibleExtensionError(ArithmeticError):
    """A defining polynomial turned out reducible over its base.

    Raised when inverting a nonzero zero-divisor.  ``factor`` carries the
    discovered proper factor of the defining polynomial: a little-endian
    coefficient list of elements of the session tower that use only the
    levels below the reducible one.  The tower is not auto-split.  On
    rational coefficients the solvers invert only units, so they never
    raise it.
    """

    def __init__(self, factor):
        super().__init__("reducible extension")
        self.factor = factor


def _isqrt_exact(n):
    r = math.isqrt(n)
    return r if r * r == n else None


def _icbrt(n):
    """Floor cube root of a nonnegative integer: integer Newton iteration from
    above never steps below the floor (AM-GM) and decreases until it reaches
    it (Brent and Zimmermann, Modern Computer Arithmetic, 1.5)."""
    if n == 0:
        return 0
    r = 1 << ((n.bit_length() + 2) // 3)
    while True:
        nxt = (2 * r + n // (r * r)) // 3
        if nxt >= r:
            return r
        r = nxt


def rational_sqrt(q):
    """Exact nonnegative square root of a rational, or None."""
    if q < 0:
        return None
    rn = _isqrt_exact(q.numerator)
    if rn is None:
        return None
    rd = _isqrt_exact(q.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)


def rational_cbrt(q):
    """Exact real cube root of a rational (sign preserved), or None."""
    rn = _icbrt(abs(q.numerator))
    if rn * rn * rn != abs(q.numerator):
        return None
    rd = _icbrt(q.denominator)
    if rd * rd * rd != q.denominator:
        return None
    root = Fraction(rn, rd)
    return -root if q < 0 else root


# ---------------------------------------------------------------------------
# Integral terms.  ``terms`` maps a monomial key to a nonzero int; keys
# of normal monomials have every digit e_k < d_k, and the sum of two such
# keys is the key of their product, each digit below 2*d_k - 1.
# ---------------------------------------------------------------------------


def _combine(x, y, sy=1, sx=1):
    """sx*x + sy*y on integral terms, zeros dropped."""
    out = {k: v * sx for k, v in x.items()} if sx != 1 else dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + sy * v
    return {k: v for k, v in out.items() if v}


def _product(x, y):
    """x*y on integral terms, summed by key, not reduced and zeros kept."""
    out = {}
    get = out.get
    for a, ca in x.items():
        for b, cb in y.items():
            key = a + b
            out[key] = get(key, 0) + ca * cb
    return out


#: the primes below 100: once a prime's factors are out of den, none of its
#: multiples divides what is left
_SMALL_PRIMES = tuple(p for p in range(2, 100) if all(p % q for q in range(2, p)))


def _root_scale(den, deg):
    """A positive c with den dividing c**deg, by trial division by the primes
    below 100: the least such c when what the division leaves of den is a
    perfect deg-th power."""
    scale = 1
    for p in _SMALL_PRIMES:
        if den == 1:
            break
        e = 0
        while den % p == 0:
            den //= p
            e += 1
        scale *= p ** -(-e // deg)
    root = math.isqrt(den) if deg == 2 else _icbrt(den)
    return scale * (root if root**deg == den else den)


def _exponents(levels, key):
    """Exponent of each level's generator in the monomial ``key``."""
    exps = []
    for lv in levels:
        key, e = divmod(key, lv.radix)
        exps.append(e)
    return exps


def _g_numerators(levels, terms):
    """{key: int}: the terms in the g basis, since h_k**e = scale_k**e * g_k**e."""
    out = {}
    for key, v in terms.items():
        for lv, e in zip(levels, _exponents(levels, key)):
            v *= lv.scale**e
        out[key] = v
    return out


def _embed(levels, bases, depth, terms, den):
    """Nested per-level Horner over ``levels[:depth]`` of the g-basis value
    of the integral ``terms`` over ``den``, from the highest level a key uses
    (the levels above it leave the bits unchanged; see
    ``TowerElement.to_complex``).

    Part i of a level is multiplied by scale**i on the way down, so a leaf
    holds n * prod scale_k**e_k, and its one division by ``den`` is the
    correctly rounded g-basis coefficient.  A used level runs its full
    Horner loop, zero coefficients included, in the same order as a dense
    evaluation, so signed zeros come out the same; an all-zero subtree is
    skipped, since its dense value is exactly 0j.
    """
    if not terms:
        return 0j
    depth = bisect_right(bases, max(terms), 0, depth)
    if depth == 0:
        return complex(terms[0] / den)
    depth -= 1
    base, level = bases[depth], levels[depth]
    scale = level.scale
    powers = (1, scale, scale * scale)
    parts = [{} for _ in range(level.deg)]
    for key, n in terms.items():
        i, low = divmod(key, base)
        parts[i][low] = n * powers[i]
    acc = 0j
    for part in reversed(parts):
        if not part:
            value = 0j
        elif len(part) == 1 and 0 in part:
            value = complex(part[0] / den)
        else:
            value = _embed(levels, bases, depth, part, den)
        acc = acc * level.embed + value
    return acc


def _render(levels, terms, den):
    """g-basis text of terms/den, monomials in key order."""
    coeffs = {k: Fraction(v, den) for k, v in _g_numerators(levels, terms).items()}
    if not coeffs:
        return "0"
    if list(coeffs) == [0]:
        return str(coeffs[0])
    parts = []
    for key in sorted(coeffs):
        factors = [f"({coeffs[key]})"]
        for i, e in enumerate(_exponents(levels, key)):
            if e == 1:
                factors.append(f"g{i + 1}")
            elif e > 1:
                factors.append(f"g{i + 1}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def _normal(tower, terms, den):
    """The element terms/den with the common factor divided out."""
    if not terms:
        return TowerElement(tower, {}, 1)
    g = gcd(den, *terms.values())
    if g != 1:
        terms = {k: v // g for k, v in terms.items()}
        den //= g
    return TowerElement(tower, terms, den)


def _trim(poly):
    while poly and poly[-1].is_zero():
        poly.pop()
    return poly


def _reducible_factor(tower, level, coeffs):
    """gcd over the levels below ``level`` of sum(coeffs[i] * X**i) and
    X**deg - radicand, by Euclid in ``tower``; little-endian, a proper factor
    when the first is a zero-divisor."""
    terms, den = level.radicand
    a = [-TowerElement(tower, dict(terms), den)]
    a += [tower.rational(0)] * (level.deg - 1) + [tower.rational(1)]
    b = _trim(list(coeffs))
    while b:
        lead = b[-1].inverse()
        while len(a) >= len(b):
            q = a[-1] * lead
            shift = len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] = a[shift + j] - q * bj
            _trim(a)
        a, b = b, a
    return a


class Level:
    """One radical extension: a generator g with g**deg equal to the radicand.

    ``radicand`` is the sorted (key, int) pairs and denominator of the
    radicand over the levels below; the generator is stored as
    h = scale*g, and ``rule`` is the integral element h**deg reduces to.
    ``rule_inverse`` is the reduced (terms, den) of 1/rule, kept from the
    first monomial inversion that needs it, or None before then; a pair
    and not an element, which would refer back to the tower.
    """

    __slots__ = ("kind", "deg", "radix", "radicand", "embed", "scale", "rule", "rule_inverse")

    def __init__(self, kind, radicand, embed):
        self.kind = kind
        self.deg = 2 if kind == "sqrt" else 3
        self.radix = 2 * self.deg - 1
        self.radicand = (tuple(sorted(radicand.terms.items())), radicand.den)
        self.embed = embed
        self.scale = _root_scale(radicand.den, self.deg)
        lift = self.scale**self.deg // radicand.den
        self.rule = {k: v * lift for k, v in radicand.terms.items()}
        self.rule_inverse = None


class Tower:
    """The chain of radical extensions over the rationals of one session,
    and its integral arithmetic.

    ``levels`` is the chain and ``bases`` the key of each generator, then
    one past the largest key; ``adjoin`` grows both in place, and they are
    all the tower holds: each product is reduced on its own by the levels'
    rules, ``TowerElement.to_complex`` reads each level's scale inside
    ``_embed``, and ``adjoin`` finds an equal radicand among the levels.
    """

    __slots__ = ("levels", "bases")

    def __init__(self):
        self.levels = []
        self.bases = [1]

    @property
    def depth(self):
        return len(self.levels)

    def rational(self, q):
        if q.__class__ is not int and q.__class__ is not Fraction:
            q = Fraction(q)
        return TowerElement(self, {0: q.numerator} if q else {}, q.denominator)

    def adjoin(self, kind, a):
        """A ``kind`` ("sqrt" or "cbrt") root of ``a``, which must be an
        element of this tower or a rational.

        An equal radicand returns an equal root, the generator of the level
        of the same kind and radicand, so each provider is a genuine
        function.  A rational perfect square, or perfect cube of either
        sign, returns its rational root and leaves the tower unchanged.  Otherwise a level is appended whose generator embeds as
        the principal complex root of the radicand's embedding.
        """
        if a.tower is not self and not a.terms.keys() <= {0}:
            raise TowerMismatchError("tower mismatch")
        # the normal form is unique, so equal radicands have equal terms
        radicand = (tuple(sorted(a.terms.items())), a.den)
        for level, base in zip(self.levels, self.bases):
            if level.kind == kind and level.radicand == radicand:
                return TowerElement(self, {base: 1}, level.scale)
        q = a.as_rational()
        r = None if q is None else (rational_sqrt(q) if kind == "sqrt" else rational_cbrt(q))
        if r is not None:
            return self.rational(r)
        principal = csqrt_principal if kind == "sqrt" else ccbrt_principal
        level = Level(kind, a, principal(a.to_complex()))
        root = TowerElement(self, {self.bases[-1]: 1}, level.scale)
        self.levels.append(level)
        self.bases.append(self.bases[-1] * level.radix)
        return root

    def mul(self, x, y):
        """Product of integral terms x and y, reduced by the level rules."""
        if not x or not y:
            return {}
        terms = self._reduce(_product(x, y), bisect_right(self.bases, max(x) + max(y)))
        return {k: v for k, v in terms.items() if v}

    def _reduce(self, terms, top):
        """``terms``, each exponent below 2*d_k - 1, reduced in place at the
        levels below ``top``, zeros kept.  From the lowest level up,
        h_k**(d_k + e) = h_k**e * rule_k: the part with e_k >= d_k, normal
        below k, is shifted down by d_k, multiplied by rule_k and reduced
        below k again."""
        levels, bases = self.levels, self.bases
        for k in range(top):
            level, base = levels[k], bases[k]
            deg, radix = level.deg, level.radix
            over = [key for key in terms if key // base % radix >= deg]
            if over:
                cut = deg * base
                high = {key - cut: terms.pop(key) for key in over}
                for key, v in self._reduce(_product(high, level.rule), k).items():
                    terms[key] = terms.get(key, 0) + v
        return terms

    def inverse(self, terms):
        """(terms, den) of 1/x for nonzero integral x.

        A monomial inverts in closed form; any other x by the norm to the
        level below its highest generator, x * adj(x) = N(x) there, whose
        inverse takes the closed form again when N(x) is a monomial.
        """
        if len(terms) == 1:
            ((key, c),) = terms.items()
            return self._monomial_inverse(key, c)
        top = bisect_right(self.bases, max(terms)) - 1
        level, base, mul = self.levels[top], self.bases[top], self.mul
        rule = level.rule
        a = [{} for _ in range(level.deg)]
        for key, v in terms.items():
            i, low = divmod(key, base)
            a[i][low] = v
        if level.deg == 2:
            adj = [a[0], {k: -v for k, v in a[1].items()}]
            norm = _combine(mul(a[0], a[0]), mul(rule, mul(a[1], a[1])), -1)
        else:
            a0, a1, a2 = a
            adj = [
                _combine(mul(a0, a0), mul(rule, mul(a1, a2)), -1),
                _combine(mul(rule, mul(a2, a2)), mul(a0, a1), -1),
                _combine(mul(a1, a1), mul(a0, a2), -1),
            ]
            cross = _combine(mul(a1, adj[2]), mul(a2, adj[1]))
            norm = _combine(mul(a0, adj[0]), mul(rule, cross))
        if not norm:
            coeffs = [
                _normal(self, {k: v * level.scale**i for k, v in part.items()}, 1)
                for i, part in enumerate(a)
            ]
            raise ReducibleExtensionError(factor=_reducible_factor(self, level, coeffs))
        content = gcd(*norm.values())
        inv, den = self.inverse({k: v // content for k, v in norm.items()})
        adjoint = {low + i * base: v for i, part in enumerate(adj) for low, v in part.items()}
        return mul(adjoint, inv), den * content

    def _monomial_inverse(self, key, c):
        """(terms, den) of 1/(c * prod h_k**e_k): h_k**d_k = rule_k gives
        1/h_k**e_k = h_k**(d_k - e_k) * rule_k**-1 for each e_k > 0, with
        each rule's inverse kept on its level from its first use."""
        used = []
        flipped = 0
        for level, base in zip(self.levels, self.bases):
            if key < base:
                break
            e = key // base % level.radix
            if e:
                used.append(level)
                flipped += (level.deg - e) * base
        terms, den = {flipped: 1 if c > 0 else -1}, abs(c)
        for level in reversed(used):
            if level.rule_inverse is None:
                inv, inv_den = self.inverse(level.rule)
                g = gcd(inv_den, *inv.values())
                level.rule_inverse = {k: v // g for k, v in inv.items()}, inv_den // g
            inv, inv_den = level.rule_inverse
            terms = self.mul(terms, inv)
            den *= inv_den
        return terms, den

    def __repr__(self):
        return f"Tower(depth={self.depth})"


class TowerElement:
    """A tower value: integral ``terms`` over the positive ``den``, reduced."""

    __slots__ = ("tower", "terms", "den")

    def __init__(self, tower, terms, den=1):
        self.tower = tower
        self.terms = terms
        self.den = den

    def _pair(self, other):
        """(tower, other element) for a binary operation, or None when other
        is not an element; a rational takes the other side's tower."""
        if other.__class__ is not TowerElement:
            return None
        if self.tower is other.tower or other.terms.keys() <= {0}:
            return self.tower, other
        if self.terms.keys() <= {0}:
            return other.tower, other
        raise TowerMismatchError("tower mismatch")

    # -- ring operations ----------------------------------------------------

    def _add(self, other, sign):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        tower, y = pair
        dx, dy = self.den, y.den
        g = gcd(dx, dy)
        sx = dy // g
        return _normal(tower, _combine(self.terms, y.terms, sign * dx // g, sx), dx * sx)

    def __add__(self, other):
        return self._add(other, 1)

    def __neg__(self):
        return TowerElement(self.tower, {k: -v for k, v in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        tower, y = pair
        x, den = self, self.den * y.den
        if len(x.terms) == 1 and 0 in x.terms:
            x, y = y, x
        if len(y.terms) == 1 and 0 in y.terms:
            # a nonzero rational scales the terms; the tower's product is
            # the same, term by term
            n = y.terms[0]
            return _normal(tower, {k: v * n for k, v in x.terms.items()}, den)
        return _normal(tower, tower.mul(x.terms, y.terms), den)

    def inverse(self):
        """Multiplicative inverse; the input must be nonzero.

        Raises ``ZeroDivisionError`` on zero and ``ReducibleExtensionError``
        when a nonzero zero-divisor reveals a reducible defining polynomial.
        """
        if not self.terms:
            raise ZeroDivisionError("division by zero")
        terms, den = self.tower.inverse(self.terms)
        return _normal(self.tower, {k: v * self.den for k, v in terms.items()}, den)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        y = pair[1]
        return self.terms == y.terms and self.den == y.den

    def __hash__(self):
        return hash((self.den, frozenset(self.terms.items())))

    # -- views ----------------------------------------------------------------

    def to_complex(self):
        """Evaluate the g-basis coefficients at the generators' embeddings.

        ``n / den`` is the correctly rounded value of the coefficient, the
        same float as that of its ``Fraction``, so a rational embeds as
        ``complex(n / den)``.  The evaluation starts at the highest level the
        element uses.  It has the bits of one over every level of the tower,
        also those adjoined after the element was built, as long as every
        level embeds as a finite number: ``_embed`` never returns a -0.0
        component, so a level the element does not use contributes
        (+0, +0)*g + v = v.
        """
        tower = self.tower
        return _embed(tower.levels, tower.bases, len(tower.levels), self.terms, self.den)

    def as_rational(self):
        terms = self.terms
        if not terms:
            return Fraction(0)
        if len(terms) == 1 and 0 in terms:
            return Fraction(terms[0], self.den)
        return None

    def debug_str(self):
        """Canonical text form in the g basis, lowest level first, for golden
        tests."""
        levels = self.tower.levels
        body = _render(levels, self.terms, self.den)
        clauses = []
        for i, lv in enumerate(levels):
            terms, den = lv.radicand
            clauses.append(f"g{i + 1}^{lv.deg} = {_render(levels[:i], dict(terms), den)}")
        if clauses:
            return f"{body} where {'; '.join(clauses)}"
        return body

    def __repr__(self):
        return f"TowerElement({self.debug_str()})"


class TowerField(FieldCapabilities):
    """Field capabilities over one growing radical tower.

    One instance is a single solve session with one ``Tower``, the same
    object for the whole session: ``sqrt`` and ``cbrt`` are its ``adjoin``,
    which appends levels and returns an equal generator for an equal
    radicand.  Elements built earlier in the session stay valid as the
    tower grows.
    """

    name = "tower"
    is_exact = True

    def __init__(self):
        self.tower = Tower()
        self.zero = self.tower.rational(0)
        self.one = self.tower.rational(1)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def inverse(self, x):
        return x.inverse()

    def is_zero(self, x):
        return x.is_zero()

    def from_rational(self, q):
        return self.tower.rational(q)

    def to_complex(self, x):
        return x.to_complex()

    def as_rational(self, x):
        return x.as_rational()

    def sqrt(self, x):
        return self.tower.adjoin("sqrt", x)

    def cbrt(self, x):
        return self.tower.adjoin("cbrt", x)
