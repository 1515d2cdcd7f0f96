"""Approximate backend: double-precision complex arithmetic.

Both root providers use the principal branch.  Note that the principal
cube root of a negative real is complex (ccbrt_principal(-8) is
1 + i*sqrt(3), not -2); the solvers are branch-agnostic, so this only
affects which of the labeled roots each formula branch denotes.
"""

from __future__ import annotations

import cmath
import math

from .fields import FieldCapabilities


def _canonical(z):
    """Normalize inputs that sit on the branch cut.

    Flushes signed zeros, and snaps inputs within 1e-12 relative of the
    negative real axis onto it, so that two float computations of the same
    radicand (differing only in rounding noise) always pick the same branch.
    """
    z = complex(z)
    re = z.real + 0.0
    im = z.imag + 0.0
    if re < 0.0 and im != 0.0 and abs(im) <= 1e-12 * abs(re):
        im = 0.0
    return complex(re, im)


def csqrt_principal(z):
    """Principal square root: nonnegative real part; +i*sqrt(|z|) for z < 0."""
    return cmath.sqrt(_canonical(z))


def ccbrt_principal(z):
    """Principal cube root: the argument of the result lies in (-pi/3, pi/3]."""
    z = _canonical(z)
    if z == 0:
        return 0j
    r = abs(z) ** (1.0 / 3.0)
    theta = cmath.phase(z) / 3.0
    return complex(r * math.cos(theta), r * math.sin(theta))


def approx_eq(x, y, tol):
    """Scale-relative comparison: |x - y| <= tol * max(1, |x|, |y|), and a
    NaN or infinite difference is never close."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    diff = abs(x - y)
    return math.isfinite(diff) and diff <= tol * max(1.0, abs(x), abs(y))


class ComplexField(FieldCapabilities):
    """Field capabilities over python ``complex`` values.

    ``is_zero`` is ``x == 0``.  The solvers take rational coefficients and
    decide a case split on a rational value by its literal (see
    ``solvers._Traced``), so only radicals, which an earlier exact test has
    proved nonzero, reach it.
    """

    name = "complex"
    is_exact = False

    zero = 0j
    one = 1 + 0j

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def inverse(self, x):
        if self.is_zero(x):
            raise ZeroDivisionError("division by zero")
        return 1 / x

    def is_zero(self, x):
        return x == 0

    def sqrt(self, x):
        return csqrt_principal(x)

    def cbrt(self, x):
        return ccbrt_principal(x)

    def from_rational(self, q):
        return complex(float(q))

    def to_complex(self, x):
        return complex(x)
