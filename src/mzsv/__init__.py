"""mzsv: a high-precision workbench for multiple zeta-star values, Euler
sums, finite multiple harmonic sums, and very-well-poised hypergeometric
identities.

The hot summation kernels are pure-Python fixed-point integer loops
(``mzsv.kernels``).
"""

__version__ = "0.1.0"

from .context import HPReal, PrecisionContext
from .errors import (ConditionError, ConfigurationError, ConsistencyError,
                     ContextMismatchError, ConvergenceError, DomainError,
                     MzsvError, ParseError)
from .indices import Index, admissible, coarsenings, compositions, parse_index
from .kernels import BACKEND
from .numerics import derivative_at, gamma, zeta_tail
from .finite_sums import (d1_inv_pochhammer2a_at1, d1_pochhammer_at1,
                          dr_inv_pochhammer_2minus_at1, dr_ratio_at1,
                          pochhammer, star_sum, star_sum_exact, strict_sum,
                          strict_sum_exact)
from .series import (EvalDiagnostics, Evaluation, alt_mzsv, eta_shifted, mzv,
                     mzsv, weighted_product_series, zeta)
from .hypergeom import (ConditionReport, KRParamsI, KRParamsII,
                        kr_conditions_i, kr_conditions_ii, kr_lhs_i, kr_lhs_ii,
                        kr_rhs_i, kr_rhs_ii, pfq, specialized_lhs,
                        specialized_rhs)
from .identities import (IdentityDescriptor, VerificationResult,
                         get_identity, list_identities, verify, verify_suite)

__all__ = [
    "__version__", "BACKEND",
    "PrecisionContext", "HPReal",
    "MzsvError", "DomainError", "ParseError", "ContextMismatchError",
    "ConvergenceError", "ConsistencyError", "ConditionError",
    "ConfigurationError",
    "Index", "parse_index", "admissible", "coarsenings", "compositions",
    "gamma", "zeta_tail", "derivative_at",
    "pochhammer", "strict_sum", "star_sum", "strict_sum_exact",
    "star_sum_exact", "d1_pochhammer_at1", "d1_inv_pochhammer2a_at1",
    "dr_inv_pochhammer_2minus_at1", "dr_ratio_at1",
    "zeta", "eta_shifted", "mzv", "mzsv", "alt_mzsv",
    "weighted_product_series", "Evaluation", "EvalDiagnostics",
    "KRParamsI", "KRParamsII", "ConditionReport", "pfq",
    "kr_conditions_i", "kr_conditions_ii", "kr_rhs_i", "kr_rhs_ii",
    "kr_lhs_i", "kr_lhs_ii", "specialized_lhs", "specialized_rhs",
    "IdentityDescriptor", "VerificationResult", "list_identities",
    "get_identity", "verify", "verify_suite",
]
