"""Exact and high-precision verification of alternating convolution
identities for Catalan numbers and binomial coefficients.

The package pairs brute-force summation oracles with closed forms over
exact rationals (`identities`), certifies confluent hypergeometric
product formulae coefficient-by-coefficient (`hyperseries`), and checks
Gamma-quotient evaluations and double-integral representations at
arbitrary precision (`numerics`).  `suite` bundles the acceptance
criteria; `cli` exposes everything as the ``catconv`` command.
"""

from .exactnum import (
    ZeroLowerPochhammer,
    binomial,
    catalan,
    chi,
    pochhammer,
    poch_quotient,
)
from .hyperseries import (
    DEFAULT_ORDER,
    DEFAULT_RATIONAL_GRID,
    PRODUCT_FORMULAE,
    DegenerateLambda,
    SeriesSpec,
    TruncatedSeries,
    check_product_formula,
    check_product_grid,
    contiguous_relation_check,
    pfq_truncate,
    pfq_unity_sum_exact,
    terminating_4f3_block,
    terminating_4f3_check,
    terminating_4f3_closed_form,
)
from .identities import (
    CHI_BEARING,
    DomainError,
    IdentityId,
    IdentityParams,
    dictionary_check,
    lhs_value,
    rhs_value,
    specialization_check,
    specialization_findings,
    verify_case,
    verify_grid,
)
from .numerics import (
    GammaQuotientSpec,
    NonConvergent,
    PoleError,
    QuadratureRule,
    RuleConstructionFailure,
    TailBoundExceeded,
    dixon_check,
    dminus_check,
    gamma_quotient,
    gamma_selftest,
    integral_check,
    integral_value,
    jacobi_rule,
    linear4f3_check,
    log_gamma,
)
from .report import CaseRecord, VerificationReport
from .suite import FULL_SIZES, QUICK_SIZES, SuiteSizes, run_all

__version__ = "0.1.0"
