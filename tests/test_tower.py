"""Exact backend: adjunction, arithmetic, inversion."""

import gc
import io
import itertools
import random
from bisect import bisect_right
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

import pytest

from radica import (
    ReducibleExtensionError,
    Tower,
    TowerField,
    TowerMismatchError,
    solve_quartic,
)
from radica.cli import run
from radica.selftest import rand_fraction
from radica.tower import (
    _combine,
    _g_numerators,
    _icbrt,
    _normal,
    _reducible_factor,
    _root_scale,
)


# -- adjunction ---------------------------------------------------------------


def test_adjoin_sqrt_perfect_square_keeps_tower():
    t = Tower()
    root = t.adjoin("sqrt", t.rational(4))
    assert t.depth == 0
    assert root.as_rational() == 2


def test_adjoin_sqrt_two():
    t = Tower()
    g = t.adjoin("sqrt", t.rational(2))
    assert t.depth == 1
    assert (g * g).as_rational() == 2
    assert abs(g.to_complex() ** 2 - 2) <= 1e-12 * 2
    assert abs(g.to_complex() - 1.41421356) < 1e-7


def test_adjoin_sqrt_negative_three():
    t = Tower()
    g = t.adjoin("sqrt", t.rational(-3))
    embed = g.to_complex()
    assert abs(embed - 1.7320508j) < 1e-6
    assert abs(embed**2 + 3) <= 1e-12 * 3


def test_adjoin_cbrt_perfect_cube_keeps_tower():
    t = Tower()
    root = t.adjoin("cbrt", t.rational(8))
    assert t.depth == 0
    assert root.as_rational() == 2


def test_adjoin_cbrt_two():
    t = Tower()
    g = t.adjoin("cbrt", t.rational(2))
    assert t.depth == 1
    assert (g * g * g).as_rational() == 2
    assert abs(g.to_complex() - 1.25992105) < 1e-7


def test_adjoin_cbrt_negative_perfect_cube_preserves_sign():
    t = Tower()
    root = t.adjoin("cbrt", t.rational(-27))
    assert t.depth == 0
    assert root.as_rational() == -3


def test_icbrt_is_the_floor_cube_root():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cubes = st.integers(1, 10**200).flatmap(lambda k: st.sampled_from([k**3 - 1, k**3, k**3 + 1]))

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(st.integers(0, 10**600) | cubes)
    def check(n):
        r = _icbrt(n)
        assert r**3 <= n < (r + 1) ** 3

    check()
    for n in range(3000):
        r = _icbrt(n)
        assert r**3 <= n < (r + 1) ** 3


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
    fa.sqrt(ga + fa.one)
    # the first has the terms of ga + 1
    for radicand in (gb + fb.one, gb + fb.from_rational(2)):
        with pytest.raises(TowerMismatchError, match="tower mismatch"):
            fa.sqrt(radicand)


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
    g1 = t.adjoin("sqrt", t.rational(2))
    first = t.levels[0]
    g2 = t.adjoin("cbrt", g1)
    assert t.depth == 2 and t.levels[0] is first
    # elements built before an adjunction stay usable after it
    assert ((g1 + t.rational(1)) * g2).tower is t


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_session_tower_grows_in_place_keeping_earlier_elements():
    f = TowerField()
    tower = f.tower

    def build():
        g1 = f.sqrt(f.from_rational(2))
        return f.sub(f.from_rational(Fraction(-7, 3)), f.mul(f.from_rational(5), g1))

    x, y = build(), build()
    body = x.debug_str().split(" where ")[0]
    before = (hash(x), body, _bits(f.to_complex(x)))
    g2 = f.sqrt(f.from_rational(-3))
    g3 = f.cbrt(f.sub(f.one, f.mul(f.from_rational(2), g2)))
    assert f.tower is tower and tower.depth == 3
    z = build()
    assert x == y and x == z and x != g3
    assert x.debug_str().split(" where ")[0] == body
    assert x.debug_str().endswith("; g3^3 = (1) + (-2)*g2")
    assert (hash(x), body, _bits(f.to_complex(x))) == before
    assert hash(z) == before[0] and _bits(f.to_complex(z)) == before[2]


def test_adjoin_reuses_generator_for_same_radicand():
    t = Tower()

    def radicand():
        return t.rational(1) + t.adjoin("sqrt", t.rational(2))

    g = t.adjoin("cbrt", radicand())
    assert t.adjoin("cbrt", radicand()) == g
    assert t.depth == 2
    # levels appended after it leave the equal radicand's generator found
    t.adjoin("sqrt", g + t.rational(3))
    assert t.adjoin("cbrt", radicand()) == g
    assert t.depth == 3
    # the same radicand under the other kind is a new level
    s = t.adjoin("sqrt", radicand())
    assert t.depth == 4 and s != g and (s * s).debug_str() == radicand().debug_str()
    assert t.adjoin("sqrt", radicand()) == s and t.adjoin("cbrt", radicand()) == g
    # a rational that is not a perfect power, then an equal one built otherwise
    r = t.adjoin("sqrt", t.rational(5))
    assert t.adjoin("sqrt", t.rational(20) * t.rational(4).inverse()) == r
    assert t.depth == 5


def test_solved_session_is_freed_without_the_cycle_collector():
    def towers():
        return sum(isinstance(o, Tower) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = towers()
        f = TowerField()
        records = solve_quartic(f, *(f.from_rational(q) for q in (3, -1, 2, 5, -7)))
        assert f.tower.depth > 0 and towers() == before + 1
        del f, records
        assert towers() == before
    finally:
        gc.enable()


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


def test_sub_is_add_of_the_negation(rng):
    for _ in range(30):
        f = TowerField()
        x = _random_element(rng, f, rng.randint(0, 3))
        y = _random_element(rng, f, rng.randint(0, 3))
        for a, b in ((x, y), (y, x), (x, x), (x, f.zero), (f.one, y)):
            got, want = f.sub(a, b), f.add(a, f.neg(b))
            assert (got.terms, got.den) == (want.terms, want.den)


def test_root_scale_is_least_for_smooth_denominators():
    for den in range(1, 2001):
        smooth = den
        for p in range(2, 100):
            while smooth % p == 0:
                smooth //= p
        for deg in (2, 3):
            c = _root_scale(den, deg)
            assert c**deg % den == 0
            if smooth == 1:
                assert c == next(k for k in itertools.count(1) if k**deg % den == 0)


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


def _ref_random(rng, degs, depth, terms, span=30):
    """A reference element over the first ``depth`` of the levels ``degs``,
    with coefficients p/q, |p| <= span and 1 <= q <= span."""
    x = {}
    for _ in range(terms):
        exps = tuple(rng.randrange(d) if i < depth else 0 for i, d in enumerate(degs))
        x[exps] = x.get(exps, 0) + rand_fraction(rng, span)
    return {k: v for k, v in x.items() if v}


def _from_ref(tower, gens, x):
    """The kernel element of a reference element, built from generator powers."""
    total = tower.rational(0)
    for exps, q in x.items():
        term = tower.rational(q)
        for g, e in zip(gens, exps):
            for _ in range(e):
                term = term * g
        total = total + term
    return total


def _random_tower(rng, degs, span=30):
    """A kernel tower with levels of degrees ``degs``, its generators and its
    reference levels; radicands above the first level are not rational, and
    their coefficients are drawn as ``_ref_random``'s with ``span``."""
    tower, gens, levels = Tower(), [], []
    for k, deg in enumerate(degs):
        while True:
            radicand = _ref_random(rng, degs, k, rng.randint(1, 4), span)
            if k and not any(e for exps in radicand for e in exps):
                continue
            g = tower.adjoin("sqrt" if deg == 2 else "cbrt", _from_ref(tower, gens, radicand))
            if tower.depth > k:  # else a rational perfect power
                break
        gens.append(g)
        levels.append((deg, radicand))
    return tower, gens, levels


#: rational operands of the products checked against the reference
RATIONAL_FACTORS = (Fraction(-7, 3), Fraction(0), Fraction(5, 4), Fraction(6))


def _check_against_reference(tower, gens, levels, x, y):
    """Compare the kernel with the reference on x, y and what they make;
    True when x was inverted."""
    kx, ky = _from_ref(tower, gens, x), _from_ref(tower, gens, y)
    cases = [
        (x, kx),
        (y, ky),
        ({k: -v for k, v in x.items()}, -kx),
        (_ref_add(x, y), kx + ky),
        (_ref_add(x, y, -1), kx - ky),
        (_ref_mul(levels, x, y), kx * ky),
        (_ref_mul(levels, x, x), kx * kx),
    ]
    one = (0,) * len(levels)
    for q in RATIONAL_FACTORS:
        ref = _ref_mul(levels, {one: q}, x)
        cases += [(ref, tower.rational(q) * kx), (ref, kx * tower.rational(q))]
    for ref, got in cases:
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
    if x:
        try:
            assert kx * kx.inverse() == tower.rational(1)
            return True
        except ReducibleExtensionError:
            pass
    return False


def _full_depth_embed(levels, bases, depth, coeffs):
    """The embedding that runs every level's Horner loop, even above an
    element's highest key: the reference for the bits of ``to_complex``."""
    if not coeffs:
        return 0j
    if depth == 0:
        return complex(coeffs[0])
    depth -= 1
    base = bases[depth]
    parts = [{} for _ in range(levels[depth].deg)]
    for key, q in coeffs.items():
        i, low = divmod(key, base)
        parts[i][low] = q
    g = levels[depth].embed
    acc = 0j
    for part in reversed(parts):
        acc = acc * g + _full_depth_embed(levels, bases, depth, part)
    return acc


def _full_depth_to_complex(x):
    levels = x.tower.levels
    coeffs = {k: n / x.den for k, n in _g_numerators(levels, x.terms).items()}
    return _full_depth_embed(levels, x.tower.bases, len(levels), coeffs)


def test_to_complex_matches_full_depth_embedding():
    rng = random.Random(20261019)
    low = 0
    for _ in range(60):
        degs = [rng.choice((2, 3)) for _ in range(rng.randint(1, 5))]
        tower, gens, _ = _random_tower(rng, degs)
        elements = [tower.rational(0), tower.rational(-rand_fraction(rng, 30, nonzero=True) ** 2)]
        elements += [tower.rational(rand_fraction(rng, 30)) for _ in range(2)]
        # one element per number of levels used, the lower ones many times over
        for depth in range(len(degs) + 1):
            x = _from_ref(tower, gens, _ref_random(rng, degs, depth, rng.randint(1, 5)))
            elements += [x, x * x]
            low += depth < len(degs)
        for x in elements:
            assert _bits(x.to_complex()) == _bits(_full_depth_to_complex(x))
    assert low >= 150


def test_kernel_matches_reference_on_random_towers():
    rng = random.Random(20261017)
    inverted = 0
    for _ in range(60):
        degs = [rng.choice((2, 3)) for _ in range(rng.randint(1, 4))]
        tower, gens, levels = _random_tower(rng, degs)
        x, y = (_ref_random(rng, degs, len(degs), rng.randint(0, 5)) for _ in range(2))
        inverted += _check_against_reference(tower, gens, levels, x, y)
    assert inverted >= 40


def test_kernel_matches_reference_on_big_integer_towers():
    # 30- to 60-digit radicands: the rules, the scales and the products of
    # the level-by-level reduction run on big integers
    rng = random.Random(20261022)
    for _ in range(12):
        degs = [rng.choice((2, 3)) for _ in range(rng.randint(2, 3))]
        span = 10 ** rng.randint(30, 60)
        tower, gens, levels = _random_tower(rng, degs, span)
        assert max(lv.scale for lv in tower.levels) > 10**20
        x, y = (_ref_random(rng, degs, len(degs), rng.randint(1, 4), span) for _ in range(2))
        assert _check_against_reference(tower, gens, levels, x, y)
        kx, ky = _from_ref(tower, gens, x), _from_ref(tower, gens, y)
        for z in (kx, kx * ky, ky * kx.inverse()):
            assert _bits(z.to_complex()) == _bits(_full_depth_to_complex(z))


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
        deg = degs[len(levels)]
        gens.append(tower.adjoin("sqrt" if deg == 2 else "cbrt", _from_ref(tower, gens, radicand)))
        assert tower.depth == len(levels) + 1
        levels.append((deg, radicand))

    adjoin({(0,) * 5: Fraction(rng.choice((2, 3, 5, 7)))})
    s = nonzero(1)
    s[(1, 0, 0, 0, 0)] = Fraction(rng.choice((-2, -1, 1, 2)))
    # a rational part keeps s**2 off the first radicand, whose root is g1
    s[(0,) * 5] = s.get((0,) * 5) or Fraction(1)
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


# -- closed-form monomial inverse ---------------------------------------------


def _adjugate_inverse(tower, terms):
    """``Tower.inverse`` as it was before monomials took the closed form:
    every element, monomials too, by the adjugate; the reference for the
    closed form's normal forms and errors."""
    top = bisect_right(tower.bases, max(terms)) - 1
    if top < 0:
        n = terms[0]
        return {0: 1 if n > 0 else -1}, abs(n)
    level, base, mul = tower.levels[top], tower.bases[top], tower.mul
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
            _normal(tower, {k: v * level.scale**i for k, v in part.items()}, 1)
            for i, part in enumerate(a)
        ]
        raise ReducibleExtensionError(factor=_reducible_factor(tower, level, coeffs))
    content = gcd(*norm.values())
    inv, den = _adjugate_inverse(tower, {k: v // content for k, v in norm.items()})
    adjoint = {low + i * base: v for i, part in enumerate(adj) for low, v in part.items()}
    return mul(adjoint, inv), den * content


#: the coefficients c of the monomials c*h**e inverted
MONOMIAL_COEFFICIENTS = (1, -1, 7, -7, 2**200 + 1)


def _monomial_inverses(tower):
    """For each monomial c*h**e of ``tower``, every digit pattern e, the
    normal form of its inverse, or the length of the factor the inversion
    raised with: (closed form, adjugate reference) pairs."""
    pairs = []
    for exps in itertools.product(*(range(lv.deg) for lv in tower.levels)):
        key = sum(e * base for e, base in zip(exps, tower.bases))
        for c in MONOMIAL_COEFFICIENTS:
            pair = []
            for inverse in (tower.inverse, lambda terms: _adjugate_inverse(tower, terms)):
                try:
                    x = _normal(tower, *inverse({key: c}))
                    pair.append((x.terms, x.den))
                except ReducibleExtensionError as exc:
                    pair.append(len(exc.factor))
            pairs.append(pair)
    return pairs


def test_monomial_inverse_matches_the_adjugate_on_random_towers():
    rng = random.Random(20261020)
    cube = 0
    for _ in range(30):
        degs = [rng.choice((2, 3)) for _ in range(rng.randint(1, 4))]
        tower, _, _ = _random_tower(rng, degs)
        cube += 3 in degs
        for got, want in _monomial_inverses(tower):
            assert got == want
    assert cube >= 20


def test_monomial_inverse_raises_like_the_adjugate_on_zero_divisor_towers():
    rng = random.Random(20261021)
    inverted = raised = 0
    for _ in range(8):
        tower = _zero_divisor_tower(rng)[0]
        for got, want in _monomial_inverses(tower):
            assert got == want
            raised += got.__class__ is int
            inverted += got.__class__ is not int
    assert inverted >= 250 and raised >= 2000


def _rule_inversions(monkeypatch, text):
    """How often ``solve --verify`` of ``text`` inverts each level's rule."""
    counts = Counter()
    inverse = Tower.inverse

    def spy(tower, terms):
        counts.update(i for i, level in enumerate(tower.levels) if terms is level.rule)
        return inverse(tower, terms)

    monkeypatch.setattr(Tower, "inverse", spy)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert run(["solve", "--verify", "--", text]) == 0
    return counts


@pytest.mark.parametrize(
    "text",
    [
        # the first cubic and the first quartic of the bench's seed-1 corpora
        "7/2*x^3 - 1/2*x^2 + 16/13*x - 2/7",
        "1/3*x^4 + 2/5*x^3 + 8/5*x^2 - 7*x + 13/17",
    ],
)
def test_a_solve_inverts_each_level_rule_at_most_once(monkeypatch, text):
    counts = _rule_inversions(monkeypatch, text)
    assert counts and max(counts.values()) == 1


@pytest.mark.parametrize("q", [5, -12, 0, Fraction(-7, 3), Fraction(0), "-7/3", "4", 0.25, -2.5, True])
def test_rational_equals_the_element_of_its_fraction(q):
    t = Tower()
    x, old = t.rational(q), Fraction(q)
    assert (x.terms, x.den) == ({0: old.numerator} if old else {}, old.denominator)
    assert all(v.__class__ is int for v in x.terms.values()) and x.den.__class__ is int
