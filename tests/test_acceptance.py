"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The underlying results are identities, so acceptance is property-based at
desk scale.  The criteria live in `radica.selftest`, which `radica
selftest` runs at smaller sizes; here each runs at its acceptance size
with its own seed.  Run with `pytest -s` to see the per-criterion lines.
"""

import json
import os
import random
import time

from radica.cli import run
from radica.selftest import CRITERIA

SEED = 20260810


def _criterion(name, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    assert ok, name


def _accept(name, seed, summary, limit_s=None):
    """Run the shared criterion ``name`` at its acceptance size; with a time
    limit, the elapsed seconds lead the detail and count toward the verdict."""
    criterion = next(c for c in CRITERIA if c.name == name)
    start = time.time()
    ok, detail = criterion.check(random.Random(seed), criterion.acceptance_n)
    if limit_s is not None:
        elapsed = time.time() - start
        ok = ok and elapsed <= limit_s
        detail = f"{elapsed:.1f}s, {detail}" if detail else f"{elapsed:.1f}s"
    _criterion(f"{name}: {summary}", ok, detail)


def test_cardano_correctness():
    _accept(
        "cardano-correctness", SEED, "200 cubics x 3 branches, exact residual zero", 60
    )


def test_cubic_factorization_uniqueness():
    _accept(
        "cubic-factorization-uniqueness",
        SEED + 1,
        "exact expansion + 50 nonzero off-root residuals",
    )


def test_quadratic_suite():
    _accept(
        "quadratic-suite",
        SEED + 2,
        "500 solves, exact substitution/factorization/uniqueness",
    )


def test_quartic_split_identity():
    _accept(
        "quartic-split-identity",
        SEED + 3,
        "100 exact expansion identities + verified roots",
        300,
    )


def test_depress_roundtrips():
    _accept("depress-roundtrips", SEED + 4, "500 exact substitution identities")


def test_condition_translations():
    _accept(
        "condition-translations",
        SEED + 5,
        "500 exact equivalences (cubic and quartic)",
    )


def test_degenerate_coverage():
    _accept(
        "degenerate-coverage",
        SEED + 6,
        "excluded families solve in default mode, strict rejects",
    )


def test_differential_oracle():
    _accept(
        "differential-oracle",
        SEED + 7,
        "1000 random degree-3/4 inputs match Durand-Kerner at 1e-6",
    )


def test_negative_exhibit():
    _accept(
        "negative-exhibit",
        SEED + 8,
        "independent cube roots fail under a valid adversarial provider, "
        "corrected form never does",
    )


def test_provider_invariants():
    _accept(
        "provider-invariants",
        SEED + 9,
        "exact contracts on 50 tower extensions, 1e-12 on 1e4 floats",
    )


def test_field_axioms():
    _accept(
        "field-axioms",
        SEED + 10,
        "200 triples of tower elements, exact field axioms and inverses",
    )


def test_verified_cubic_solves():
    _accept(
        "verified-cubic-solves",
        SEED + 11,
        "50 general rational cubics pass the verification report",
    )


def test_cli_golden():
    golden_path = os.path.join(os.path.dirname(__file__), "golden", "cardano_x3_6x_9.json")
    import io
    import sys

    buffer = io.StringIO()
    stdout = sys.stdout
    sys.stdout = buffer
    try:
        code = run(["solve", "x^3 - 6*x - 9", "--verify", "--format", "json"])
    finally:
        sys.stdout = stdout
    with open(golden_path) as fh:
        expected = json.load(fh)
    payload = json.loads(buffer.getvalue())
    ok = code == 0 and payload == expected
    exact_root = next(r for r in payload["roots"] if r["label"] == "cardano-A")
    ok &= exact_root["approx"] == {"re": 3.0, "im": 0.0}
    ok &= payload["verification"]["factorization_ok"] is True
    ok &= payload["verification"]["oracle_match"] is True
    _criterion("cli-golden: stored Cardano report reproduced byte-for-byte", bool(ok))
