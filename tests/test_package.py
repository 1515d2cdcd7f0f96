"""The names the ``radica`` package exports."""

import radica

#: the package's public names, as its former ``__all__`` listed them
PUBLIC_NAMES = [
    "BiquadraticQuartic",
    "ComplexField",
    "DegenerateLeadingTerm",
    "FieldCapabilities",
    "NoConvergence",
    "ReducibleExtensionError",
    "RootRecord",
    "SolverError",
    "StrictHypothesisViolation",
    "Tower",
    "TowerElement",
    "TowerField",
    "TowerMismatchError",
    "VerificationReport",
    "ZeroLinearTerm",
    "approx_eq",
    "cardano_root",
    "ccbrt_principal",
    "csqrt_principal",
    "depress_cubic",
    "depress_quartic",
    "durand_kerner",
    "expand_monic_from_roots",
    "horner_eval",
    "match_root_multisets",
    "negative_exhibit_two_cbrts",
    "omega_twisting_cbrt",
    "quartic_split_depressed",
    "real_preferring_cbrt",
    "render_radical",
    "residuals",
    "resolvent_coeffs",
    "solve_cubic",
    "solve_linear",
    "solve_quadratic",
    "solve_quartic",
    "verify_solution",
]


def test_every_public_name_is_importable_and_star_exported():
    assert len(set(PUBLIC_NAMES)) == 37
    star = {}
    exec("from radica import *", star)
    for name in PUBLIC_NAMES:
        assert getattr(radica, name) is star[name], name
