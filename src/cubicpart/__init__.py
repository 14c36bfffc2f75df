"""Exact q-series engine for partition counts with colored even parts.

Counting (generating functions and a DP oracle), classical congruence
verification, eta-quotient metadata, Hecke operators, Sturm-bound
certificates, and an empirical congruence search, all over exact
integer or mod-m coefficient rings.
"""

from .series import Ring, TruncatedSeries, ZZ, one, zero, zmod
from .qfunctions import (
    eta_expansion,
    euler_product,
    euler_quotient,
    frobenius_split,
    jacobi_cube,
    psi,
)
from .partitions import (
    CUBIC,
    OVERCUBIC,
    CheckReport,
    PartitionFamily,
    check_functional_equation,
    check_lemma_product,
    check_named_identity,
    count_direct,
    generating_series,
)
from .arith import (
    ResidueClassReport,
    admissible_residues,
    is_odd_prime,
    kronecker,
    legendre,
)
from .modform import (
    CandidacyReport,
    CharacterDescriptor,
    CuspOrderTable,
    EtaQuotient,
    character_eval,
    check_candidacy,
    cusp_orders,
    hecke_tp,
    hecke_tp_factored,
    sturm_bound,
    weight,
)
from .engine import (
    CongruenceClaim,
    DEFAULT_NMAX,
    SturmCertificate,
    VerificationResult,
    build_certificate,
    prove_isolated,
    search_congruences,
    theorem_claims,
    verify_claim,
    verify_theorem_family,
)

__version__ = "0.1.0"

__all__ = [
    "Ring",
    "TruncatedSeries",
    "ZZ",
    "zmod",
    "one",
    "zero",
    "euler_product",
    "jacobi_cube",
    "psi",
    "frobenius_split",
    "euler_quotient",
    "eta_expansion",
    "CUBIC",
    "OVERCUBIC",
    "PartitionFamily",
    "CheckReport",
    "generating_series",
    "count_direct",
    "check_functional_equation",
    "check_lemma_product",
    "check_named_identity",
    "is_odd_prime",
    "legendre",
    "kronecker",
    "ResidueClassReport",
    "admissible_residues",
    "EtaQuotient",
    "CharacterDescriptor",
    "CandidacyReport",
    "CuspOrderTable",
    "weight",
    "check_candidacy",
    "character_eval",
    "cusp_orders",
    "sturm_bound",
    "hecke_tp",
    "hecke_tp_factored",
    "CongruenceClaim",
    "VerificationResult",
    "SturmCertificate",
    "verify_claim",
    "theorem_claims",
    "verify_theorem_family",
    "prove_isolated",
    "build_certificate",
    "search_congruences",
    "DEFAULT_NMAX",
    "__version__",
]
