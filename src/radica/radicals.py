"""Radical expression trees attached to solved roots.

Node kinds: rational literal, add, neg, mul, div, sqrt, cbrt,
omega-power.  The smart constructors fold arithmetic on literals, as
integer pairs in lowest terms (so a tree shows `9/2 + sqrt(49/4)` rather
than the unevaluated rational plumbing), and products of omega powers, but
keep root nodes symbolic.
Rendering is deterministic and parenthesized-unambiguously, writes only
digits, spaces, ``-/+*^()`` and the letters of sqrt, cbrt and omega (so
JSON needs no escape in it), and a node keeps its own text once rendered;
evaluating a tree over complex doubles with principal branches reproduces
the root's numeric approximation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

from .complexfield import ccbrt_principal, csqrt_principal


class _FieldTable:
    """``__dataclass_fields__`` of a node class, for ``dataclasses.fields`` and
    ``dataclasses.replace``: on first read, the fields of a throwaway frozen
    dataclass with the same field names, then kept on the node class.  Only
    the tests and ``perfbench/tracing.count_nodes`` read it; delete it once
    ROADMAP item 10's recorder replaces ``count_nodes``."""

    def __get__(self, node, owner):
        names = owner.__dict__.get("_fields")
        if names is None:
            raise AttributeError("__dataclass_fields__")
        import dataclasses

        shape = dataclasses.make_dataclass(owner.__name__, names, frozen=True)
        table = owner.__dataclass_fields__ = {f.name: f for f in dataclasses.fields(shape)}
        return table


class RadicalExpr:
    """A tree node: a frozen value whose class and ``_fields`` (the
    ``__init__`` parameters) give its equality, hash and repr.  Each
    ``__init__`` writes the instance dict, the cheap way past the frozen
    ``__setattr__``."""

    __slots__ = ()
    __dataclass_fields__ = _FieldTable()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)


class _LitValue:
    """``Lit.value`` of a literal made from its pair by a fold: the ``Fraction``
    is built when first read and then kept in the instance dict, which shadows
    this descriptor."""

    def __get__(self, node, owner=None):
        if node is None:
            return self
        value = node.__dict__["value"] = Fraction(node.n, node.d)
        return value


class Lit(RadicalExpr):
    """A rational literal.  Folding and rendering read its pair ``n``/``d`` in
    lowest terms with ``d > 0``; ``value`` is the same number as a ``Fraction``."""

    _fields = ("value",)
    value = _LitValue()

    def __init__(self, value):
        attrs = self.__dict__
        attrs["value"], attrs["n"], attrs["d"] = value, value.numerator, value.denominator


class Add(RadicalExpr):
    _fields = ("left", "right")

    def __init__(self, left, right):
        attrs = self.__dict__
        attrs["left"], attrs["right"] = left, right


class Neg(RadicalExpr):
    _fields = ("child",)

    def __init__(self, child):
        self.__dict__["child"] = child


class Mul(RadicalExpr):
    _fields = ("left", "right")

    def __init__(self, left, right):
        attrs = self.__dict__
        attrs["left"], attrs["right"] = left, right


class Div(RadicalExpr):
    _fields = ("num", "den")

    def __init__(self, num, den):
        attrs = self.__dict__
        attrs["num"], attrs["den"] = num, den


class Sqrt(RadicalExpr):
    _fields = ("child",)

    def __init__(self, child):
        self.__dict__["child"] = child


class Cbrt(RadicalExpr):
    _fields = ("child",)

    def __init__(self, child):
        self.__dict__["child"] = child


class OmegaPow(RadicalExpr):
    """Multiplication by the primitive cube root of unity, omega**power."""

    _fields = ("power",)

    def __init__(self, power):
        self.__dict__["power"] = power


def lit(q):
    return Lit(q if q.__class__ is Fraction else Fraction(q))


def _pair(n, d):
    """The literal n/d of a pair in lowest terms with d > 0; its ``value`` is
    made when first read."""
    node = object.__new__(Lit)
    attrs = node.__dict__
    attrs["n"], attrs["d"] = n, d
    return node


# The smart constructors fold two literals on their pairs, which are in
# lowest terms, and drop the identities 0 and 1.  A fold cancels before it
# multiplies (Henrici; Knuth, TAOCP vol. 2, 4.5.1), so its gcds take the
# operands rather than their products, and its result is in lowest terms
# with nothing left to divide out.


def _sum(n1, d1, n2, d2):
    """The literal n1/d1 + n2/d2 of two pairs in lowest terms."""
    g = gcd(d1, d2)
    if g == 1:
        return _pair(n1 * d2 + n2 * d1, d1 * d2)
    d1 //= g
    t = n1 * (d2 // g) + n2 * d1
    g = gcd(t, g)
    return _pair(t // g, d1 * (d2 // g))


def _product(n1, d1, n2, d2):
    """The literal (n1/d1) * (n2/d2) of two pairs in lowest terms, d2 != 0;
    the sign of d2 moves to the numerator."""
    g1, g2 = gcd(n1, d2), gcd(n2, d1)
    n, d = (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)
    if d < 0:
        return _pair(-n, -d)
    return _pair(n, d)


def radd(a, b):
    if a.__class__ is Lit:
        if b.__class__ is Lit:
            return _sum(a.n, a.d, b.n, b.d)
        if a.n == 0:
            return b
    elif b.__class__ is Lit and b.n == 0:
        return a
    return Add(a, b)


def rneg(a):
    if a.__class__ is Lit:
        return _pair(-a.n, a.d)
    if isinstance(a, Neg):
        return a.child
    return Neg(a)


def rsub(a, b):
    if a.__class__ is Lit and b.__class__ is Lit:
        return _sum(a.n, a.d, -b.n, b.d)
    return radd(a, rneg(b))


def rmul(a, b):
    if a.__class__ is Lit:
        if b.__class__ is Lit:
            return _product(a.n, a.d, b.n, b.d)
        if a.n == 0:
            return _pair(0, 1)
        if a.n == a.d:
            return b
    elif b.__class__ is Lit:
        if b.n == 0:
            return _pair(0, 1)
        if b.n == b.d:
            return a
    if isinstance(a, OmegaPow) and isinstance(b, Mul) and isinstance(b.left, OmegaPow):
        power = (a.power + b.left.power) % 3
        return Mul(OmegaPow(power), b.right) if power else b.right
    return Mul(a, b)


def rdiv(a, b):
    if b.__class__ is Lit and b.n:
        if a.__class__ is Lit:
            return _product(a.n, a.d, b.d, b.n)
        if b.n == b.d:
            return a
    if a.__class__ is Lit and a.n == 0:
        return _pair(0, 1)
    return Div(a, b)


# -- rendering ---------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_ATOM = 9


def _prec(e):
    cls = e.__class__
    if cls is Add or cls is Neg:
        return _PREC_ADD
    if cls is Mul or cls is Div:
        return _PREC_MUL
    if cls is Lit:
        if e.n < 0:
            return _PREC_ADD
        return _PREC_ATOM if e.d == 1 else _PREC_MUL
    return _PREC_ATOM


def _render(e, ctx):
    """Text of ``e`` in precedence context ``ctx``.  The trees are DAGs (P, p
    and the Cardano radical recur within one root and across the roots of
    one solve), so a node stores its unparenthesized text and precedence in
    its instance ``__dict__`` on first render, as ``cached_property`` does;
    only the parentheses depend on the context, and the fields stay as
    they are."""
    entry = e.__dict__.get("_text")
    if entry is None:
        cls = e.__class__
        if cls is Lit:
            text = str(e.n) if e.d == 1 else f"{e.n}/{e.d}"
        elif cls is Add:
            left = _render(e.left, _PREC_ADD)
            if e.right.__class__ is Neg:
                text = f"{left} - {_render(e.right.child, _PREC_MUL)}"
            else:
                text = f"{left} + {_render(e.right, _PREC_MUL)}"
        elif cls is Neg:
            text = f"-{_render(e.child, _PREC_MUL + 1)}"
        elif cls is Mul:
            text = f"{_render(e.left, _PREC_MUL)}*{_render(e.right, _PREC_MUL + 1)}"
        elif cls is Div:
            text = f"{_render(e.num, _PREC_MUL + 1)}/{_render(e.den, _PREC_MUL + 1)}"
        elif cls is Sqrt:
            text = f"sqrt({_render(e.child, 0)})"
        elif cls is Cbrt:
            text = f"cbrt({_render(e.child, 0)})"
        elif cls is OmegaPow:
            text = "omega" if e.power == 1 else f"omega^{e.power}"
        else:
            raise TypeError(f"not a radical expression: {e!r}")
        entry = e.__dict__["_text"] = (text, _prec(e))
    if entry[1] < ctx:
        return f"({entry[0]})"
    return entry[0]


def render(e):
    """Deterministic text of the expression tree; a subtree shared within
    it, or by the trees of one solve, renders once."""
    return _render(e, 0)


_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)


def evaluate(e):
    """Evaluate over complex doubles, with principal branches for the roots."""
    if isinstance(e, Lit):
        return complex(float(e.value))
    if isinstance(e, Add):
        return evaluate(e.left) + evaluate(e.right)
    if isinstance(e, Neg):
        return -evaluate(e.child)
    if isinstance(e, Mul):
        return evaluate(e.left) * evaluate(e.right)
    if isinstance(e, Div):
        return evaluate(e.num) / evaluate(e.den)
    if isinstance(e, Sqrt):
        return csqrt_principal(evaluate(e.child))
    if isinstance(e, Cbrt):
        return ccbrt_principal(evaluate(e.child))
    if isinstance(e, OmegaPow):
        return _OMEGA if e.power == 1 else _OMEGA * _OMEGA
    raise TypeError(f"not a radical expression: {e!r}")
