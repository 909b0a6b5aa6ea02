"""Exact characteristic-number lattices of highly connected manifolds.

Everything is computed in exact integer and rational arithmetic: Bernoulli
and tangent numbers at large index, the genus coefficients available on
highly connected manifolds, the invariants of the two standard plumbings,
the lattices of realizable characteristic numbers, the divisibility
constants for signatures and A-hat genera of bundles over surfaces, and a
verification harness for the long-range number-theoretic scans.
"""

from .bernoulli import (
    BernoulliRecord,
    bernoulli_abs,
    bernoulli_record,
    record_range,
    tangent_number,
    tangent_numbers,
    vsc_denominator,
)
from .bundles import (
    DivisibilityReport,
    KappaExpression,
    bundle_ahat_divisor,
    bundle_signature_divisor,
    divisibility_report,
    kappa_basis,
    pairing,
    pairing_matrix,
    signature_4_realizable,
)
from .exact import BezoutPair, extended_gcd, normalize_bezout, nu2, padic_valuation
from .genera import (
    GENERA,
    GenusCoefficients,
    P2kDecomposition,
    genus_coeffs,
    p2k_solve,
    s,
    shat,
    stolz_class_coeffs,
)
from .lattices import (
    InvariantVector,
    KernelStructure,
    LatticeBasis,
    OrdParameter,
    generator_invariants,
    kernel_structure,
    lattice_span_equal,
    minimal_ahat,
    minimal_signature,
    signature_divisibility_bound,
)
from .plumbing import (
    DimensionProfile,
    bp_order,
    canonical_bezout,
    pk2_of_Q,
    profile,
    s_of_Q,
    s_of_Q_formulas,
    stolz_s,
)
from .verify import (
    CLAIMS,
    VerificationReport,
    verify_gcd_power_of_two,
    verify_identity_suite,
    verify_numerator_coprimality,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliRecord",
    "BezoutPair",
    "DimensionProfile",
    "DivisibilityReport",
    "GENERA",
    "GenusCoefficients",
    "InvariantVector",
    "KappaExpression",
    "KernelStructure",
    "LatticeBasis",
    "OrdParameter",
    "P2kDecomposition",
    "VerificationReport",
    "CLAIMS",
    "bernoulli_abs",
    "bernoulli_record",
    "bp_order",
    "bundle_ahat_divisor",
    "bundle_signature_divisor",
    "canonical_bezout",
    "divisibility_report",
    "extended_gcd",
    "generator_invariants",
    "genus_coeffs",
    "kappa_basis",
    "kernel_structure",
    "lattice_span_equal",
    "minimal_ahat",
    "minimal_signature",
    "normalize_bezout",
    "nu2",
    "p2k_solve",
    "padic_valuation",
    "pairing",
    "pairing_matrix",
    "pk2_of_Q",
    "profile",
    "record_range",
    "s",
    "s_of_Q",
    "s_of_Q_formulas",
    "shat",
    "signature_4_realizable",
    "signature_divisibility_bound",
    "stolz_class_coeffs",
    "stolz_s",
    "tangent_number",
    "tangent_numbers",
    "verify_gcd_power_of_two",
    "verify_identity_suite",
    "verify_numerator_coprimality",
    "vsc_denominator",
]
