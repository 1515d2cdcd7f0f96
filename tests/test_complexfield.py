"""Principal-branch root providers over complex doubles."""

import math

import pytest

from radica import approx_eq, ccbrt_principal, csqrt_principal


def test_csqrt_examples():
    assert csqrt_principal(4) == 2
    r = csqrt_principal(-3)
    assert abs(r - 1.7320508075688772j) < 1e-12
    assert abs(r * r + 3) < 1e-12
    assert csqrt_principal(0) == 0


def test_csqrt_nonnegative_real_part(rng):
    for _ in range(500):
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        assert csqrt_principal(z).real >= 0


def test_ccbrt_examples():
    assert ccbrt_principal(8) == 2
    r = ccbrt_principal(-8)
    assert abs(r - (1 + 1.7320508075688772j)) < 1e-12
    assert abs(r**3 + 8) < 1e-12 * 8
    assert ccbrt_principal(0) == 0


def test_ccbrt_argument_range(rng):
    import cmath
    import math

    for _ in range(500):
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if z == 0:
            continue
        arg = cmath.phase(ccbrt_principal(z))
        assert -math.pi / 3 < arg <= math.pi / 3 + 1e-15


def test_roots_square_and_cube_back(rng):
    for _ in range(2000):
        mag = 10 ** rng.uniform(-6, 6)
        z = mag * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        s = csqrt_principal(z)
        assert abs(s * s - z) <= 1e-12 * max(1.0, abs(z))
        c = ccbrt_principal(z)
        assert abs(c * c * c - z) <= 1e-12 * max(1.0, abs(z))


def test_branch_determinism_and_signed_zero():
    a = csqrt_principal(complex(-3.0, 0.0))
    b = csqrt_principal(complex(-3.0, -0.0))
    assert a == b
    assert ccbrt_principal(complex(-8.0, -0.0)) == ccbrt_principal(complex(-8.0, 0.0))
    assert csqrt_principal(-3) == csqrt_principal(-3)


def test_approx_eq_examples():
    assert approx_eq(1, 1 + 1e-15, 1e-9)
    assert not approx_eq(1, 2, 1e-9)
    assert approx_eq(1e6, 1e6 + 0.5, 1e-6)


def test_approx_eq_fails_on_a_non_finite_difference():
    nan, inf = math.nan, math.inf
    assert not approx_eq(inf, 1, 1e-6)
    assert not approx_eq(1, -inf, 1e-6)
    assert not approx_eq(complex(nan, 0), complex(0, inf), 1e-6)
    assert not approx_eq(complex(inf, 0), complex(inf, 0), 1e-6)
    assert not approx_eq(nan, nan, 0.5)
    assert approx_eq(1e308, 1e308, 1e-6)


def test_approx_eq_requires_positive_tolerance():
    with pytest.raises(ValueError):
        approx_eq(1, 1, 0)


def test_field_axioms_hold_to_tolerance(rng):
    from radica import ComplexField

    f = ComplexField()
    for _ in range(200):
        x, y, z = (
            complex(rng.uniform(-20, 20), rng.uniform(-20, 20)) for _ in range(3)
        )
        assert approx_eq(f.add(f.add(x, y), z), f.add(x, f.add(y, z)), 1e-12)
        assert approx_eq(f.mul(x, y), f.mul(y, x), 1e-12)
        assert approx_eq(
            f.mul(x, f.add(y, z)), f.add(f.mul(x, y), f.mul(x, z)), 1e-9
        )
        assert f.is_zero(f.add(x, f.neg(x)))
        if not f.is_zero(x):
            assert approx_eq(f.mul(x, f.inverse(x)), f.one, 1e-12)


def test_inverse_of_zero_is_guarded():
    from radica import ComplexField

    f = ComplexField()
    with pytest.raises(ZeroDivisionError):
        f.inverse(0j)
    with pytest.raises(ZeroDivisionError):
        f.inverse(complex(-0.0, 0.0))
    # zero is zero: no threshold, however small the value
    assert f.inverse(1e-300 + 0j) == 1 / (1e-300 + 0j)
