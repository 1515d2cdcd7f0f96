"""Abstract field contract shared by the exact and approximate backends.

The radical formulas are written once against this contract and must be
correct for *any* backend satisfying it: a commutative field of
characteristic other than 2 and 3, optionally equipped with square-root
and cube-root providers such that ``sqrt(a) * sqrt(a) == a`` and
``cbrt(a)**3 == a`` for every element.  No branch choice is imposed here;
each backend fixes its own.
"""

from __future__ import annotations



class FieldCapabilities:
    """Operations a backend supplies to the solver and verifier layers.

    ``inverse`` is witness-guarded: the argument must be nonzero and
    backends raise ``ZeroDivisionError`` otherwise (there is no 0**-1 == 0
    convention).  ``sqrt`` and ``cbrt`` are ``None`` when the backend has
    no provider for them.  ``is_zero`` is the backend's zero test, which
    the total solvers rely on for case splits.  It is not a decision
    procedure on every backend: on a tower with a reducible level, such as
    the cube root of -100/27 behind ``x^3 - 7*x + 6``, a nonzero
    representation can embed as 0, so that solve prints ``2 + 4.44e-16i``
    and never ``(exactly 2)`` (ROADMAP item 3).
    """

    name = "abstract"

    #: elements carry exact values (residual checks may demand literal zero)
    is_exact = False

    # Root providers; subclasses override with methods when available.
    sqrt = None
    cbrt = None

    zero = None
    one = None

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inverse(self, x):
        raise NotImplementedError

    def is_zero(self, x):
        raise NotImplementedError

    def from_rational(self, q):
        """Embed a rational number into the field."""
        raise NotImplementedError

    def to_complex(self, x):
        """Numeric image of ``x``, used for display and oracle matching."""
        raise NotImplementedError

    def as_rational(self, x):
        """Exact rational value of ``x`` if the backend knows one, else None."""
        return None

    # Derived conveniences.

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def div(self, x, y):
        return self.mul(x, self.inverse(y))

    def eq(self, x, y):
        return self.is_zero(self.sub(x, y))


def from_integer(field, n):
    """Image of the integer ``n`` under the canonical ring map.

    Computed by binary doubling, so the cost is logarithmic in ``|n|``.
    """
    if n < 0:
        return field.neg(from_integer(field, -n))
    acc = field.zero
    if n:
        for bit in bin(n)[2:]:
            acc = field.add(acc, acc)
            if bit == "1":
                acc = field.add(acc, field.one)
    return acc


def small_pow(field, x, k):
    """``x**k`` for a nonnegative integer ``k``, by repeated squaring."""
    if k < 0:
        raise ValueError("negative exponent")
    result = field.one
    base = x
    while k:
        if k & 1:
            result = field.mul(result, base)
        k >>= 1
        if k:
            base = field.mul(base, base)
    return result


def omega(field):
    """The primitive cube root of unity (-1 + sqrt(-3)) / 2.

    Requires a square-root provider and characteristic != 2.  Satisfies
    omega**3 == 1 and omega**2 + omega + 1 == 0 for any valid provider.
    """
    if field.sqrt is None:
        raise ValueError("square-root provider required for omega")
    root = field.sqrt(from_integer(field, -3))
    half = field.inverse(from_integer(field, 2))
    return field.mul(field.add(field.neg(field.one), root), half)
