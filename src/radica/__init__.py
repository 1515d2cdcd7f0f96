"""radica: exact and approximate radical solutions of low-degree polynomials.

Solves quadratic, cubic, and quartic equations by radicals over any field
providing square- and cube-root operations.  Two backends are included: an
exact one over dynamically grown radical extension towers of the rationals,
and an approximate one over complex doubles with principal branches.  The
verifier module machine-checks the substitution-to-zero and factorization
identities behind the formulas and cross-checks roots against an
independent numeric oracle.
"""

from .complexfield import ComplexField, approx_eq, ccbrt_principal, csqrt_principal
from .fields import FieldCapabilities
from .solvers import (
    BiquadraticQuartic,
    DegenerateLeadingTerm,
    RootRecord,
    SolverError,
    StrictHypothesisViolation,
    ZeroLinearTerm,
    cardano_root,
    depress_cubic,
    depress_quartic,
    quartic_split_depressed,
    render_radical,
    resolvent_coeffs,
    solve_cubic,
    solve_linear,
    solve_quadratic,
    solve_quartic,
)
from .tower import (
    ReducibleExtensionError,
    Tower,
    TowerElement,
    TowerField,
    TowerMismatchError,
)
from .verifier import (
    NoConvergence,
    VerificationReport,
    durand_kerner,
    expand_monic_from_roots,
    horner_eval,
    match_root_multisets,
    negative_exhibit_two_cbrts,
    omega_twisting_cbrt,
    real_preferring_cbrt,
    residuals,
    verify_solution,
)

__version__ = "0.1.0"
