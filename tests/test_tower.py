"""Exact backend: adjunction, arithmetic, inversion."""

import random
from fractions import Fraction

import pytest

from radica import (
    ReducibleExtensionError,
    Tower,
    TowerField,
    TowerMismatchError,
)
from radica.selftest import rand_fraction


# -- adjunction ---------------------------------------------------------------


def test_adjoin_sqrt_perfect_square_keeps_tower():
    t = Tower()
    t2, root = t.adjoin_sqrt(t.rational(4))
    assert t2 is t
    assert root.as_rational() == 2


def test_adjoin_sqrt_two():
    t = Tower()
    t2, g = t.adjoin_sqrt(t.rational(2))
    assert t2.depth == 1
    assert (g * g).as_rational() == 2
    assert abs(g.to_complex() ** 2 - 2) <= 1e-12 * 2
    assert abs(g.to_complex() - 1.41421356) < 1e-7


def test_adjoin_sqrt_negative_three():
    t = Tower()
    _, g = t.adjoin_sqrt(t.rational(-3))
    embed = g.to_complex()
    assert abs(embed - 1.7320508j) < 1e-6
    assert abs(embed**2 + 3) <= 1e-12 * 3


def test_adjoin_cbrt_perfect_cube_keeps_tower():
    t = Tower()
    t2, root = t.adjoin_cbrt(t.rational(8))
    assert t2 is t
    assert root.as_rational() == 2


def test_adjoin_cbrt_two():
    t = Tower()
    t2, g = t.adjoin_cbrt(t.rational(2))
    assert t2.depth == 1
    assert (g * g * g).as_rational() == 2
    assert abs(g.to_complex() - 1.25992105) < 1e-7


def test_adjoin_cbrt_negative_perfect_cube_preserves_sign():
    t = Tower()
    t2, root = t.adjoin_cbrt(t.rational(-27))
    assert t2 is t
    assert root.as_rational() == -3


# -- arithmetic ---------------------------------------------------------------


def test_product_of_conjugates():
    f = TowerField()
    g = f.sqrt(f.from_rational(2))
    product = f.mul(f.add(f.one, g), f.sub(f.one, g))
    assert f.as_rational(product) == -1


def test_cube_generator_relation():
    f = TowerField()
    g = f.cbrt(f.from_rational(2))
    assert f.as_rational(f.mul(g, f.mul(g, g))) == 2


def test_additive_identity_on_random_elements(rng):
    for _ in range(20):
        f = TowerField()
        x = f.from_rational(rand_fraction(rng))
        x = f.add(x, f.mul(f.from_rational(rand_fraction(rng)), f.sqrt(f.from_rational(rand_fraction(rng, nonzero=True)))))
        assert f.eq(f.add(x, f.zero), x)


def test_inverse_of_one_plus_sqrt2():
    f = TowerField()
    g = f.sqrt(f.from_rational(2))
    e = f.add(f.one, g)
    inv = f.inverse(e)
    assert f.eq(inv, f.add(f.neg(f.one), g))
    assert f.eq(f.mul(e, inv), f.one)


def test_inverse_of_rational_leaf():
    f = TowerField()
    assert f.as_rational(f.inverse(f.from_rational(2))) == Fraction(1, 2)


def test_inverse_of_zero_raises():
    f = TowerField()
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        f.inverse(f.zero)


def test_reducible_extension_detected_with_factor():
    f = TowerField()
    g1 = f.sqrt(f.from_rational(2))
    # (1 + sqrt 2)**2 = 3 + 2*sqrt 2; adjoining its square root is reducible
    radicand = f.add(f.from_rational(3), f.mul(f.from_rational(2), g1))
    g2 = f.sqrt(radicand)
    witness = f.sub(g2, f.add(f.one, g1))
    assert not f.is_zero(witness)
    with pytest.raises(ReducibleExtensionError) as excinfo:
        f.inverse(witness)
    assert len(excinfo.value.factor) == 2  # a linear factor of x**2 - radicand


def test_product_of_zero_divisor_radicands_squares_to_zero():
    f = TowerField()
    g1 = f.sqrt(f.from_rational(2))
    g2 = f.sqrt(f.add(f.from_rational(3), f.mul(f.from_rational(2), g1)))
    # g2**2 == (1 + g1)**2, so the radicands of g3 and g4 multiply to zero
    g3 = f.sqrt(f.sub(g2, f.add(f.one, g1)))
    g4 = f.sqrt(f.add(g2, f.add(f.one, g1)))
    g5 = f.sqrt(f.add(g3, f.one))
    x = f.mul(f.mul(g3, g4), g5)
    assert f.is_zero(f.mul(x, x))


def test_tower_mismatch_between_sessions():
    fa, fb = TowerField(), TowerField()
    ga = fa.sqrt(fa.from_rational(2))
    gb = fb.sqrt(fb.from_rational(3))
    with pytest.raises(TowerMismatchError, match="tower mismatch"):
        ga + gb


def test_rationals_interoperate_across_sessions():
    fa, fb = TowerField(), TowerField()
    assert fa.eq(fa.from_rational(2) + fb.from_rational(3), fa.from_rational(5))


# -- numeric embedding --------------------------------------------------------


def test_to_complex_of_one_plus_sqrt2():
    f = TowerField()
    e = f.add(f.one, f.sqrt(f.from_rational(2)))
    assert abs(f.to_complex(e) - 2.41421356) < 1e-7


def test_to_complex_of_zero():
    assert TowerField().to_complex(TowerField().zero) == 0j


def test_omega_embedding():
    f = TowerField()
    w = f.omega()
    embed = f.to_complex(w)
    assert abs(embed - complex(-0.5, 0.86602540)) < 1e-7
    assert abs(embed**3 - 1) <= 1e-12


def test_to_complex_is_a_homomorphism_up_to_rounding(rng):
    for _ in range(25):
        f = TowerField()
        parts = []
        for _ in range(2):
            g = f.sqrt(f.from_rational(rand_fraction(rng, 10, nonzero=True)))
            parts.append(f.mul(f.from_rational(rand_fraction(rng, 10)), g))
        x = f.add(f.from_rational(rand_fraction(rng, 10)), parts[0])
        y = f.add(f.from_rational(rand_fraction(rng, 10)), parts[1])
        lhs = f.to_complex(f.mul(x, y))
        rhs = f.to_complex(x) * f.to_complex(y)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))
        lhs = f.to_complex(f.add(x, y))
        rhs = f.to_complex(x) + f.to_complex(y)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


# -- normal form and debug serialization --------------------------------------


def test_debug_serialization_golden():
    f = TowerField()
    g = f.sqrt(f.from_rational(2))
    e = f.add(f.from_rational(Fraction(3, 2)), f.mul(f.from_rational(Fraction(1, 2)), g))
    assert e.debug_str() == "(3/2) + (1/2)*g1 where g1^2 = 2"


def test_debug_serialization_depth_two():
    f = TowerField()
    g1 = f.sqrt(f.from_rational(2))
    g2 = f.cbrt(f.add(f.one, g1))
    e = f.add(g1, f.mul(f.from_rational(2), f.mul(g2, g2)))
    assert (
        e.debug_str()
        == "(1)*g1 + (2)*g2^2 where g1^2 = 2; g2^3 = (1) + (1)*g1"
    )


def test_debug_serialization_zero_and_rational():
    f = TowerField()
    assert f.zero.debug_str() == "0"
    assert f.from_rational(Fraction(-5, 3)).debug_str() == "-5/3"


def test_is_zero_iff_all_leaves_zero():
    f = TowerField()
    g = f.sqrt(f.from_rational(7))
    x = f.sub(f.mul(g, g), f.from_rational(7))
    assert f.is_zero(x)
    assert not f.is_zero(g)


def test_adjoin_is_append_only():
    t = Tower()
    t1, g1 = t.adjoin_sqrt(t.rational(2))
    t2, g2 = t1.adjoin_cbrt(g1)
    assert t.depth == 0 and t1.depth == 1 and t2.depth == 2
    assert t2.levels[:1] == t1.levels
    # elements from the shorter tower stay usable on the longer one
    assert ((g1 + t.one) * g2).tower.depth == 2


def test_session_reuses_generator_for_same_radicand():
    f = TowerField()
    a = f.from_rational(5)
    g1 = f.sqrt(a)
    g2 = f.sqrt(a)
    assert f.eq(g1, g2)
    assert f.tower.depth == 1


# -- randomized field-axiom suite ---------------------------------------------


def _random_element(rng, f, depth):
    value = f.from_rational(rand_fraction(rng, 50))
    for _ in range(depth):
        radicand = f.from_rational(rand_fraction(rng, 50, nonzero=True))
        g = f.sqrt(radicand) if rng.random() < 0.5 else f.cbrt(radicand)
        value = f.add(value, f.mul(f.from_rational(rand_fraction(rng, 50)), g))
    return value


def test_field_axioms_on_random_towers(rng):
    for _ in range(30):
        f = TowerField()
        x = _random_element(rng, f, rng.randint(0, 3))
        y = _random_element(rng, f, rng.randint(0, 3))
        z = _random_element(rng, f, rng.randint(0, 3))
        assert f.eq(f.add(f.add(x, y), z), f.add(x, f.add(y, z)))
        assert f.eq(f.mul(f.mul(x, y), z), f.mul(x, f.mul(y, z)))
        assert f.eq(f.add(x, y), f.add(y, x))
        assert f.eq(f.mul(x, y), f.mul(y, x))
        assert f.eq(f.mul(x, f.add(y, z)), f.add(f.mul(x, y), f.mul(x, z)))
        assert f.is_zero(f.add(x, f.neg(x)))
        if not f.is_zero(x):
            try:
                assert f.eq(f.mul(x, f.inverse(x)), f.one)
            except ReducibleExtensionError:
                pass



# -- cross-check against a naive reference ------------------------------------
# The reference keeps g-basis Fraction coefficients keyed by exponent tuples
# (lowest level first) and rewrites g_k**d_k -> radicand by plain recursion.


def _ref_reduce(levels, out, exps, c):
    for k in reversed(range(len(levels))):
        deg, radicand = levels[k]
        if exps[k] >= deg:
            rest = exps[:k] + (exps[k] - deg,) + exps[k + 1 :]
            for r, q in radicand.items():
                _ref_reduce(levels, out, tuple(i + j for i, j in zip(rest, r)), c * q)
            return
    out[exps] = out.get(exps, 0) + c


def _ref_mul(levels, x, y):
    out = {}
    for a, p in x.items():
        for b, q in y.items():
            _ref_reduce(levels, out, tuple(i + j for i, j in zip(a, b)), p * q)
    return {k: v for k, v in out.items() if v}


def _ref_add(x, y, sign=1):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def _ref_render(x):
    if not x:
        return "0"
    if not any(e for exps in x for e in exps):
        return str(next(iter(x.values())))
    parts = []
    for exps in sorted(x, key=lambda e: e[::-1]):
        factors = [f"({x[exps]})"]
        factors += [f"g{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
        parts.append("*".join(factors))
    return " + ".join(parts)


def _ref_debug_str(levels, x):
    clauses = [f"g{i + 1}^{deg} = {_ref_render(r)}" for i, (deg, r) in enumerate(levels)]
    return f"{_ref_render(x)} where {'; '.join(clauses)}"


def _ref_embed(tower, x, k=None, high=()):
    """Dense nested Horner of the g-basis coefficients, zeros included."""
    k = tower.depth if k is None else k
    if k == 0:
        return complex(x.get(high, Fraction(0)))
    level = tower.levels[k - 1]
    acc = 0j
    for i in reversed(range(level.deg)):
        acc = acc * level.embed + _ref_embed(tower, x, k - 1, (i,) + high)
    return acc


def _ref_random(rng, degs, depth, terms):
    """A reference element over the first ``depth`` of the levels ``degs``."""
    x = {}
    for _ in range(terms):
        exps = tuple(rng.randrange(d) if i < depth else 0 for i, d in enumerate(degs))
        x[exps] = x.get(exps, 0) + rand_fraction(rng, 30)
    return {k: v for k, v in x.items() if v}


def _from_ref(tower, gens, x):
    """The kernel element of a reference element, built from generator powers."""
    total = tower.zero
    for exps, q in x.items():
        term = tower.rational(q)
        for g, e in zip(gens, exps):
            for _ in range(e):
                term = term * g
        total = total + term
    return total


def _random_tower(rng, degs):
    """A kernel tower with levels of degrees ``degs``, its generators and its
    reference levels; radicands above the first level are not rational."""
    tower, gens, levels = Tower(), [], []
    for k, deg in enumerate(degs):
        while True:
            radicand = _ref_random(rng, degs, k, rng.randint(1, 4))
            if k and not any(e for exps in radicand for e in exps):
                continue
            adjoin = tower.adjoin_sqrt if deg == 2 else tower.adjoin_cbrt
            grown, g = adjoin(_from_ref(tower, gens, radicand))
            if grown.depth > k:  # else a rational perfect power
                break
        tower, gens = grown, gens + [g]
        levels.append((deg, radicand))
    return tower, gens, levels


def _check_against_reference(tower, gens, levels, x, y):
    """Compare the kernel with the reference on x, y and what they make;
    True when x was inverted."""
    n = tower.depth
    kx, ky = _from_ref(tower, gens, x), _from_ref(tower, gens, y)
    for ref, got in (
        (x, kx),
        (y, ky),
        ({k: -v for k, v in x.items()}, -kx),
        (_ref_add(x, y), kx + ky),
        (_ref_add(x, y, -1), kx - ky),
        (_ref_mul(levels, x, y), kx * ky),
        (_ref_mul(levels, x, x), kx * kx),
    ):
        assert got.debug_str() == _ref_debug_str(levels, ref)
        want = _ref_embed(tower, ref)
        assert (got.to_complex().real.hex(), got.to_complex().imag.hex()) == (
            want.real.hex(),
            want.imag.hex(),
        )
        assert got.is_zero() == (not ref)
        rational = not any(e for exps in ref for e in exps)
        assert got.as_rational() == (sum(ref.values(), Fraction(0)) if rational else None)
    assert (kx == ky) == (x == y)
    assert kx == _from_ref(tower, gens, dict(reversed(list(x.items()))))
    # the same value on a longer tower is equal and hashes the same
    longer, _ = tower.adjoin_sqrt(kx * kx + ky + 7)
    if longer.depth > n:
        lifted = kx + longer.zero
        assert lifted.tower is longer
        assert lifted == kx and hash(lifted) == hash(kx)
        assert lifted.debug_str().startswith(kx.debug_str().split(" where ")[0])
    if x:
        try:
            assert kx * kx.inverse() == tower.one
            return True
        except ReducibleExtensionError:
            pass
    return False


def test_kernel_matches_reference_on_random_towers():
    rng = random.Random(20261017)
    inverted = 0
    for _ in range(60):
        degs = [rng.choice((2, 3)) for _ in range(rng.randint(1, 4))]
        tower, gens, levels = _random_tower(rng, degs)
        x, y = (_ref_random(rng, degs, len(degs), rng.randint(0, 5)) for _ in range(2))
        inverted += _check_against_reference(tower, gens, levels, x, y)
    assert inverted >= 40


def _zero_divisor_tower(rng):
    """g1 = sqrt(a); g2 = sqrt(s**2) for some s over g1, a reducible level;
    g3, g4 with radicands (g2 - s)*u and (g2 + s)*v, whose product is zero;
    g5 over all of them.  Returns the tower, generators, reference levels
    and degrees."""
    degs = [2, 2] + [rng.choice((2, 3)) for _ in range(3)]
    tower, gens, levels = Tower(), [], []

    def nonzero(depth):
        while True:
            x = _ref_random(rng, degs, depth, rng.randint(1, 3))
            if x:
                return x

    def adjoin(radicand):
        nonlocal tower, gens
        deg = degs[len(levels)]
        adjoin = tower.adjoin_sqrt if deg == 2 else tower.adjoin_cbrt
        grown, g = adjoin(_from_ref(tower, gens, radicand))
        assert grown.depth == len(levels) + 1
        tower, gens = grown, gens + [g]
        levels.append((deg, radicand))

    adjoin({(0,) * 5: Fraction(rng.choice((2, 3, 5, 7)))})
    s = nonzero(1)
    s[(1, 0, 0, 0, 0)] = Fraction(rng.choice((-2, -1, 1, 2)))
    adjoin(_ref_mul(levels, s, s))
    g2 = {(0, 1, 0, 0, 0): Fraction(1)}
    adjoin(_ref_mul(levels, _ref_add(g2, s, -1), nonzero(2)))
    adjoin(_ref_mul(levels, _ref_add(g2, s), nonzero(2)))
    adjoin(_ref_add(nonzero(4), {(0, 0, 1, 0, 0): Fraction(1)}))
    return tower, gens, levels, degs


def test_kernel_matches_reference_on_zero_divisor_towers():
    rng = random.Random(20261018)
    for _ in range(20):
        tower, gens, levels, degs = _zero_divisor_tower(rng)
        # the top monomial makes x*x overflow every level at once
        top = tuple(d - 1 for d in degs)
        x, y = (_ref_random(rng, degs, 5, rng.randint(0, 4)) for _ in range(2))
        x[top] = x.get(top, 0) + rand_fraction(rng, 30) or 1
        _check_against_reference(tower, gens, levels, x, y)
