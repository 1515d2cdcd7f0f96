"""Field-core contract: the integer embedding and omega.

The formulas take their integer constants from ``from_rational``, so its
restriction to the integers must be the canonical ring map.
"""

from radica import ComplexField, TowerField


def test_from_integer_three_is_one_plus_one_plus_one():
    f = ComplexField()
    three = f.add(f.one, f.add(f.one, f.one))
    assert f.from_rational(3) == three == 3


def test_from_integer_repeated_doubling_reaches_256():
    f = TowerField()
    two = f.from_rational(2)
    acc = f.one
    for _ in range(8):
        acc = f.mul(acc, two)
    assert f.eq(acc, f.from_rational(256))


def test_from_integer_zero_and_negatives():
    f = TowerField()
    assert f.is_zero(f.from_rational(0))
    assert f.as_rational(f.from_rational(-7)) == -7


def test_from_integer_is_a_ring_homomorphism(rng):
    f = TowerField()
    n = f.from_rational
    for _ in range(60):
        a = rng.randint(-300, 300)
        b = rng.randint(-300, 300)
        assert f.eq(n(a + b), f.add(n(a), n(b)))
        assert f.eq(n(a * b), f.mul(n(a), n(b)))


def test_omega_over_complex_doubles():
    f = ComplexField()
    w = f.omega()
    assert abs(w - complex(-0.5, 0.8660254037844386)) < 1e-12
    assert abs(w * w * w - 1) < 1e-12


def test_omega_minimal_polynomial_exact():
    f = TowerField()
    w = f.omega()
    assert f.is_zero(f.add(f.mul(w, w), f.add(w, f.one)))


def test_omega_cubed_is_one_exact():
    f = TowerField()
    w = f.omega()
    assert f.eq(f.mul(w, f.mul(w, w)), f.one)
