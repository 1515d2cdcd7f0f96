"""Radical expression trees attached to solved roots.

Node kinds: rational literal, add, neg, mul, div, sqrt, cbrt,
omega-power.  The smart constructors fold arithmetic on literals (so a
tree shows `9/2 + sqrt(49/4)` rather than the unevaluated rational
plumbing) and products of omega powers, but keep root nodes symbolic.
Rendering is deterministic and parenthesized-unambiguously, and a node
keeps its own text once rendered; evaluating a tree over complex doubles
with principal branches reproduces the root's numeric approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .complexfield import ccbrt_principal, csqrt_principal


class RadicalExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Lit(RadicalExpr):
    value: Fraction


@dataclass(frozen=True)
class Add(RadicalExpr):
    left: RadicalExpr
    right: RadicalExpr


@dataclass(frozen=True)
class Neg(RadicalExpr):
    child: RadicalExpr


@dataclass(frozen=True)
class Mul(RadicalExpr):
    left: RadicalExpr
    right: RadicalExpr


@dataclass(frozen=True)
class Div(RadicalExpr):
    num: RadicalExpr
    den: RadicalExpr


@dataclass(frozen=True)
class Sqrt(RadicalExpr):
    child: RadicalExpr


@dataclass(frozen=True)
class Cbrt(RadicalExpr):
    child: RadicalExpr


@dataclass(frozen=True)
class OmegaPow(RadicalExpr):
    """Multiplication by the primitive cube root of unity, omega**power."""

    power: int


def lit(q):
    return Lit(q if q.__class__ is Fraction else Fraction(q))


def _lit_value(e):
    return e.value if e.__class__ is Lit else None


def radd(a, b):
    va, vb = _lit_value(a), _lit_value(b)
    if va is not None and vb is not None:
        return lit(va + vb)
    if va == 0:
        return b
    if vb == 0:
        return a
    return Add(a, b)


def rneg(a):
    va = _lit_value(a)
    if va is not None:
        return lit(-va)
    if isinstance(a, Neg):
        return a.child
    return Neg(a)


def rsub(a, b):
    return radd(a, rneg(b))


def rmul(a, b):
    va, vb = _lit_value(a), _lit_value(b)
    if va is not None and vb is not None:
        return lit(va * vb)
    if va == 0 or vb == 0:
        return lit(0)
    if va == 1:
        return b
    if vb == 1:
        return a
    if isinstance(a, OmegaPow) and isinstance(b, Mul) and isinstance(b.left, OmegaPow):
        power = (a.power + b.left.power) % 3
        return Mul(OmegaPow(power), b.right) if power else b.right
    return Mul(a, b)


def rdiv(a, b):
    va, vb = _lit_value(a), _lit_value(b)
    if vb is not None and vb != 0:
        if va is not None:
            return lit(va / vb)
        if vb == 1:
            return a
    if va == 0:
        return lit(0)
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
        if e.value < 0:
            return _PREC_ADD
        return _PREC_ATOM if e.value.denominator == 1 else _PREC_MUL
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
            text = str(e.value)
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
