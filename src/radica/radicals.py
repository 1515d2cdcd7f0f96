"""Radical expression trees attached to solved roots.

Node kinds: rational literal, add, neg, mul, div, sqrt, cbrt,
omega-power.  The smart constructors fold arithmetic on literals (so a
tree shows `9/2 + sqrt(49/4)` rather than the unevaluated rational
plumbing) and products of omega powers, but keep root nodes symbolic.
Rendering is deterministic and parenthesized-unambiguously; evaluating a
tree over complex doubles with principal branches reproduces the root's
numeric approximation.
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
    return Lit(Fraction(q))


def _lit_value(e):
    return e.value if isinstance(e, Lit) else None


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


def rsqrt(a):
    return Sqrt(a)


def rcbrt(a, folded=None):
    """Cube-root node; ``folded`` carries the provider's rational result when
    its branch differs from the principal one (negative perfect cubes)."""
    if folded is not None:
        return lit(folded)
    return Cbrt(a)


# -- rendering ---------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_ATOM = 9


def _prec(e):
    if isinstance(e, (Add, Neg)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Lit):
        if e.value < 0:
            return _PREC_ADD
        return _PREC_ATOM if e.value.denominator == 1 else _PREC_MUL
    return _PREC_ATOM


def _render(e, ctx):
    if isinstance(e, Lit):
        text = str(e.value)
    elif isinstance(e, Add):
        left = _render(e.left, _PREC_ADD)
        if isinstance(e.right, Neg):
            text = f"{left} - {_render(e.right.child, _PREC_MUL)}"
        else:
            text = f"{left} + {_render(e.right, _PREC_MUL)}"
    elif isinstance(e, Neg):
        text = f"-{_render(e.child, _PREC_MUL + 1)}"
    elif isinstance(e, Mul):
        text = f"{_render(e.left, _PREC_MUL)}*{_render(e.right, _PREC_MUL + 1)}"
    elif isinstance(e, Div):
        text = f"{_render(e.num, _PREC_MUL + 1)}/{_render(e.den, _PREC_MUL + 1)}"
    elif isinstance(e, Sqrt):
        text = f"sqrt({_render(e.child, 0)})"
    elif isinstance(e, Cbrt):
        text = f"cbrt({_render(e.child, 0)})"
    elif isinstance(e, OmegaPow):
        text = "omega" if e.power == 1 else f"omega^{e.power}"
    else:
        raise TypeError(f"not a radical expression: {e!r}")
    if _prec(e) < ctx:
        return f"({text})"
    return text


def render(e):
    """Deterministic text of the expression tree."""
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
