"""Seeded inputs for the benchmark workloads.

Each input is the argv list handed to ``radica.cli.run`` together with the
coefficients the benchmark's own checker compares the answer against.  The
program only ever sees the argv strings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Case:
    argv: tuple
    coeffs: tuple  # leading-first, Fraction for exact inputs, float for decimal ones
    exact: bool


def _frac(rng, span=20, nonzero=False):
    """p/q with |p| <= span and 1 <= q <= span, drawn like the acceptance suite."""
    while True:
        q = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if q != 0 or not nonzero:
            return q


def _poly_text(coeffs, fmt, keep_zeros=False):
    """Signed-term text of a leading-first coefficient list."""
    degree = len(coeffs) - 1
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0 and not keep_zeros:
            continue
        power = degree - i
        var = "" if power == 0 else "x" if power == 1 else f"x^{power}"
        text = fmt(abs(c))
        body = text if not var else var if text == "1" else f"{text}*{var}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


def _frac_text(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _dec_text(x):
    return f"{x:.3f}"


def _argv(text, verify):
    """``solve`` argv; ``--`` keeps argparse from reading a polynomial that
    starts with '-' and has no space, such as "-5/4*x^3", as an option."""
    flags = ("--format", "json") + (("--verify",) if verify else ())
    return ("solve",) + flags + ("--", text)


def _exact_case(coeffs, verify):
    return Case(_argv(_poly_text(coeffs, _frac_text), verify), tuple(coeffs), True)


def _random_frac_poly(rng, degree):
    lead = _frac(rng, nonzero=True)
    middle = [_frac(rng) for _ in range(degree - 1)]
    const = _frac(rng, nonzero=True)
    return [lead] + middle + [const]


def _rational_root_cubic(rng):
    """a*(x - r1)(x - r2)(x - r3) with small rational roots: the cube-root
    level of such a cubic is reducible over the rationals."""
    coeffs = [_frac(rng, nonzero=True)]
    for _ in range(3):
        r = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        coeffs = [
            (coeffs[i] if i < len(coeffs) else 0) - (r * coeffs[i - 1] if i else 0)
            for i in range(len(coeffs) + 1)
        ]
    return coeffs


def exact_quartic_verify(rng, n):
    return [_exact_case(_random_frac_poly(rng, 4), verify=True) for _ in range(n)]


def exact_cubic(rng, n):
    cases = []
    for i in range(n):
        coeffs = _random_frac_poly(rng, 3) if i % 2 == 0 else _rational_root_cubic(rng)
        cases.append(_exact_case(coeffs, verify=False))
    return cases


def float_mixed_verify(rng, n):
    cases = []
    for i in range(n):
        degree = 3 if i % 2 == 0 else 4
        while True:
            coeffs = [round(rng.uniform(-5, 5), 3) for _ in range(degree + 1)]
            if abs(coeffs[0]) >= 0.05:
                break
        # every term is written, zeros too, so each input carries decimal
        # literals and routes to the complex backend
        text = _poly_text(coeffs, _dec_text, keep_zeros=True)
        cases.append(Case(_argv(text, verify=True), tuple(coeffs), False))
    return cases


#: workload name -> (generator, corpus size, traced prefix).  The timed loop
#: cycles through the corpus; a large corpus keeps its median close to that
#: of the input distribution whatever the seed.  The traced run makes one pass
#: over a fixed prefix, so the per-solve counts it reports repeat exactly.
WORKLOADS = {
    "exact-quartic-verify": (exact_quartic_verify, 160, 40),
    "exact-cubic": (exact_cubic, 1000, 200),
    "float-mixed-verify": (float_mixed_verify, 1000, 300),
}


def make_corpus(workload, seed):
    generator, size, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return generator(rng, size)
