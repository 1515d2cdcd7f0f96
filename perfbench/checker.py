"""Independent check of one ``radica solve --format json`` answer.

The roots' numeric approximations are multiplied back out in plain Python
complex arithmetic (Vieta) and compared with the generated coefficients;
radica's own verifier is not used for this.
"""

from __future__ import annotations

import json

#: relative tolerance of the Vieta comparison, against max(1, max |monic coeff|)
VIETA_TOL = 1e-6


def expand_monic(roots):
    """Leading-first coefficients of prod (x - r)."""
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [
            (coeffs[i] if i < len(coeffs) else 0j) - (r * coeffs[i - 1] if i else 0j)
            for i in range(len(coeffs) + 1)
        ]
    return coeffs


def check(case, code, output):
    """None when the answer is right, else a one-line reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(output)
        degree = len(case.coeffs) - 1
        if payload["degree"] != degree or len(payload["roots"]) != degree:
            return "wrong number of roots"
        roots = [complex(r["approx"]["re"], r["approx"]["im"]) for r in payload["roots"]]
        field = payload["field"]
        verification = payload["verification"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"
    expected_field = "exact" if case.exact else "complex"
    if field != expected_field:
        return f"solved on the {field} backend, expected {expected_field}"
    lead = case.coeffs[0]
    monic = [complex(c / lead) for c in case.coeffs]
    scale = max(1.0, max(abs(m) for m in monic))
    error = max(abs(x - y) for x, y in zip(expand_monic(roots), monic))
    if error > VIETA_TOL * scale:
        return f"roots expand to the wrong polynomial (error {error:.3g})"
    if "--verify" in case.argv:
        if verification is None:
            return "verification block missing"
        if verification.get("factorization_ok") is not True:
            return "factorization_ok is not true"
        if verification.get("oracle_match") is False:
            return "oracle_match is false"
    return None
