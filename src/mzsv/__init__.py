"""mzsv: a high-precision workbench for multiple zeta-star values, Euler
sums, finite multiple harmonic sums, and very-well-poised hypergeometric
identities.

The hot summation kernels are pure-Python fixed-point integer loops
(``mzsv.kernels``).

``import mzsv`` loads the layers below ``series`` in the import graph:
``context``, ``errors``, ``indices``, ``kernels``, ``tailcalc``,
``numerics``, ``chains`` and ``finite_sums``. The layers built on them,
``series``, ``hypergeom``, ``identities`` (with the identity registry) and
``bench``, load on first use: the first access to one of their names here,
or to the submodule itself, imports it (PEP 562). Every name in
``__all__`` resolves as before; ``mzsv.mzsv`` is the ``series`` function.
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

# the layers built on series, each with the package-level names it defines;
# each loads on the first access to one of them or to the submodule
_LAZY_NAMES = {
    "series": ("EvalDiagnostics", "Evaluation", "alt_mzsv", "eta_shifted",
               "mzv", "mzsv", "weighted_product_series", "zeta"),
    "hypergeom": ("ConditionReport", "KRParamsI", "KRParamsII",
                  "kr_conditions_i", "kr_conditions_ii", "kr_lhs_i",
                  "kr_lhs_ii", "kr_rhs_i", "kr_rhs_ii", "pfq",
                  "specialized_lhs", "specialized_rhs"),
    "identities": ("IdentityDescriptor", "VerificationResult", "get_identity",
                   "list_identities", "verify", "verify_suite"),
    "bench": (),
}
_LAZY = {name: module for module, names in _LAZY_NAMES.items()
         for name in (module, *names)}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import binds the submodule here; unlike importlib.import_module,
    # __import__ goes through the import statement's path, which
    # -X importtime reports
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


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
    *(name for names in _LAZY_NAMES.values() for name in names),
]
