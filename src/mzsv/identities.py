"""Identity catalog and verification runner.

Every identity carries a parameter schema, a default grid (the widest range
that completes quickly at 30 digits), and an evaluator producing both sides
with diagnostics. Verification never trusts a single evaluation route: the
two sides always come from structurally different evaluators.

The per-identity pass tolerance is max(ctx.tol, 10 * (sum of both sides'
error estimates)), so a verification cannot fail through honest truncation
error while a genuinely false identity still fails loudly.
"""

from __future__ import annotations

import math
import time
from fnmatch import fnmatch
from fractions import Fraction
from itertools import product as iter_product
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from mpmath.libmp import fzero, mpf_add, mpf_mul_int, to_fixed

from . import finite_sums, hypergeom, series
from .context import HPReal, PrecisionContext, _exact_text, as_fraction
from .errors import ConfigurationError, DomainError
from .indices import Index, compositions
from .numerics import derivative_at
from .series import EvalDiagnostics, Evaluation, exact_diag
from .tailcalc import GUARD_BITS


class ParamSpec(NamedTuple):
    name: str
    kind: str                      # 'int' | 'real' | 'choice'
    lo: Optional[Fraction] = None  # closed bounds unless *_open
    hi: Optional[Fraction] = None
    lo_open: bool = False
    hi_open: bool = False
    choices: Tuple[str, ...] = ()

    def describe(self) -> str:
        if self.kind == "choice":
            return f"{self.name} in {{{','.join(self.choices)}}}"
        lo = "" if self.lo is None else _exact_text(self.lo)
        hi = "" if self.hi is None else _exact_text(self.hi)
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{self.name}:{self.kind} {lb}{lo}..{hi}{rb}"

    def validate(self, value):
        if self.kind == "choice":
            if str(value) not in self.choices:
                raise ConfigurationError(
                    f"{self.name}={value!r} not in {self.choices}")
            return str(value)
        what = "an integer" if self.kind == "int" else "a real number"
        try:
            frac = as_fraction(value)
        except DomainError as exc:
            raise ConfigurationError(
                f"{self.name}={value!r} is not {what}: {exc}") from None
        if self.kind == "int" and frac.denominator != 1:
            problem = "is not an integer"
        elif self.lo is not None and (frac < self.lo or (self.lo_open and frac == self.lo)):
            problem = f"below bound {_exact_text(self.lo)}"
        elif self.hi is not None and (frac > self.hi or (self.hi_open and frac == self.hi)):
            problem = f"above bound {_exact_text(self.hi)}"
        else:
            return int(frac) if self.kind == "int" else value
        shown = _exact_text(frac) if isinstance(value, (int, Fraction)) else repr(value)
        raise ConfigurationError(f"{self.name}={shown} {problem}")


class IdentityDescriptor(NamedTuple):
    id: str
    anchor: str
    params: Tuple[ParamSpec, ...]
    default_grid: Tuple[dict, ...]
    evaluate: Callable  # (ctx, params) -> (Evaluation, Evaluation)

    def schema_text(self) -> str:
        return ", ".join(p.describe() for p in self.params) or "(no parameters)"

    def grid_text(self) -> str:
        return "; ".join(
            ",".join(f"{k}={v}" for k, v in sorted(inst.items())) or "-"
            for inst in self.default_grid)


class VerificationResult(NamedTuple):
    id: str
    params: dict
    lhs_value: HPReal
    rhs_value: HPReal
    abs_diff: HPReal
    tolerance: HPReal
    passed: bool
    lhs_diag: EvalDiagnostics
    rhs_diag: EvalDiagnostics
    elapsed_s: float
    error: Optional[str] = None


# -- evaluation helpers -----------------------------------------------------------

def _scalar(ctx: PrecisionContext, value) -> Evaluation:
    v = value if isinstance(value, HPReal) else ctx.real(value)
    return Evaluation(v, exact_diag(ctx))


def _combine(ctx: PrecisionContext, parts: List[Tuple[int, Evaluation]]) -> Evaluation:
    """Signed integer combination of evaluations with aggregated diagnostics.

    Each sum runs from zero through libmp, a product by the coefficient and
    a sum per part at the context's (prec, rounding): the operations, and
    so the mpfs, of ``total + coef * value`` in HPReals; ``ctx.real``
    still rejects a part from another context."""
    prec, rnd = ctx.mp._prec_rounding

    def add(acc, coef, x):
        return mpf_add(acc, mpf_mul_int(ctx.real(x).mpf._mpf_, coef, prec, rnd), prec, rnd)

    total = tail = est = fzero
    terms = 0
    strategy = "direct"
    for coef, ev in parts:
        diag = ev.diagnostics
        total = add(total, coef, ev.value)
        tail = add(tail, coef, diag.tail_correction)
        est = add(est, abs(coef), diag.error_estimate)
        if diag.terms_used >= terms:
            terms = diag.terms_used
            strategy = diag.strategy
    total, tail, est = (HPReal(ctx.mp.make_mpf(v), ctx) for v in (total, tail, est))
    return Evaluation(total, EvalDiagnostics(terms, tail, est, strategy))


def _star(ctx, parts):
    return series.mzsv(Index(tuple(parts)), ctx)


def _two_one_parts(r: int, s: int, kind: str) -> List[Tuple[int, Tuple[int, ...]]]:
    """Signed power-of-two combinations over compositions of r+1.

    kind 'star': coefficient (-1)^(r-i) 2^(i+1), last entry += 2s-2 (weak sums)
    kind 'alt' : same signs, last entry += 2s-1 (alternating weak sums)
    kind 'mzv' : coefficient +2^(i+1), last entry += 2s-2 (strict sums)
    """
    out = []
    bump = 2 * s - 1 if kind == "alt" else 2 * s - 2
    for i in range(r + 1):
        coef = 2 ** (i + 1)
        if kind != "mzv":
            coef *= (-1) ** (r - i)
        for comp in compositions(r + 1, i + 1):
            out.append((coef, comp[:i] + (comp[i] + bump,)))
    return out


# -- per-identity evaluators -------------------------------------------------------

def _ev_remark1_even(ctx, p):
    s = p["s"]
    z = series.zeta(2 * s, ctx)
    lhs = _scalar(ctx, 2 * (1 - ctx.real(2) ** (1 - 2 * s)) * z)
    rhs = _star(ctx, (2,) * s)
    return lhs, rhs


def _ev_remark1_odd(ctx, p):
    s = p["s"]
    lhs = _scalar(ctx, 2 * series.zeta(2 * s + 1, ctx))
    rhs = _star(ctx, (1,) + (2,) * s)
    return lhs, rhs


def _ev_specialized(case):
    def ev(ctx, p):
        s, alpha = p["s"], p["alpha"]
        lhs = hypergeom.specialized_lhs(case, alpha, s, ctx)
        rhs = hypergeom.specialized_rhs(case, alpha, s, ctx)
        return lhs, rhs
    return ev


def _ev_a1_prefactor_derivative(ctx, p):
    from .numerics import gamma

    def f(x):
        return gamma(x, x.ctx) ** 2 / (2 * gamma(2 * x, x.ctx))

    lhs = _scalar(ctx, derivative_at(f, 1, 1, ctx))
    rhs = _scalar(ctx, -1)
    return lhs, rhs


def _ev_eq1(ctx, p):
    s = p["s"]
    lhs = _scalar(ctx, 4 * s * (1 - ctx.real(2) ** (-2 * s))
                  * series.zeta(2 * s + 1, ctx))
    parts = [(1, _star(ctx, (3,) + (2,) * (s - 1)))]
    for i in range(1, s + 1):
        parts.append((2, _star(ctx, (2,) * (i - 1) + (3,) + (2,) * (s - i))))
    return lhs, _combine(ctx, parts)


def _ev_a2_cyclic(ctx, p):
    s = p["s"]
    lhs = _scalar(ctx, (2 * s - 1) * series.zeta(2 * s, ctx))
    parts = [(1, _star(ctx, (2,) * s))]
    for i in range(0, s - 1):
        parts.append((1, _star(ctx, (1,) + (2,) * i + (3,) + (2,) * (s - 2 - i))))
    return lhs, _combine(ctx, parts)


def _ev_eq2_check(ctx, p):
    m, r = p["m"], p["r"]
    lhs = _scalar(ctx, finite_sums.dr_inv_pochhammer_2minus_at1(m, r, ctx))

    def f(x):
        # 1/(2-x)_{m+1} in integers at GUARD_BITS past x's precision, with
        # no HPReal operation per factor: a = 2 - x exactly (x is a stencil
        # node near 1), m products floored at 2^-bits while the product stays
        # above 1/2, so each floor costs under 2^(1-bits) relative, then one
        # reciprocal scaled to bits+1 significant bits and one rounding
        bits = x.ctx.mp.prec + GUARD_BITS
        a = (2 << bits) - to_fixed(x.mpf._mpf_, bits)
        prod = a
        for j in range(1, m + 1):
            prod = prod * (a + (j << bits)) >> bits
        s = prod.bit_length()
        return HPReal(x.ctx.mp.ldexp((1 << (bits + s)) // prod, -s), x.ctx)

    rhs = _scalar(ctx, derivative_at(f, 1, r, ctx) / math.factorial(r))
    return lhs, rhs


def _star_side(ctx, r, s, alternating):
    """The zeta-star side of Eq. (4) if alternating, else of Eq. (3)."""
    head = (r + 2,) if alternating else (1,) * (r + 1)
    return _star(ctx, head + (2,) * (s - 1))


def _ev_eq(alternating):
    """Eq. (4) if alternating, else Eq. (3): the zeta-star side against the
    harmonic-product series."""
    def ev(ctx, p):
        r, s = p["r"], p["s"]
        lhs = _star_side(ctx, r, s, alternating)
        return lhs, series.weighted_product_series_ex(r, s, alternating, ctx)
    return ev


def _ev_eq5_check(ctx, p):
    m, r = p["m"], p["r"]
    form_a, form_b = finite_sums.dr_ratio_at1_forms(m, r)
    return _scalar(ctx, form_a), _scalar(ctx, form_b)


def _ev_two_one(kind):
    """A two-one rewrite against the side it rewrites, by _two_one_parts
    kind: the zeta-star side of Eq. (3) as zeta-star values ('star'), that
    of Eq. (4) as alternating ones ('alt'), or the harmonic-product side of
    Eq. (3) as strict ones ('mzv')."""
    name = {"star": "mzsv", "alt": "alt_mzsv", "mzv": "mzv"}[kind]

    def ev(ctx, p):
        r, s = p["r"], p["s"]
        if kind == "mzv":
            lhs = series.weighted_product_series_ex(r, s, False, ctx)
        else:
            lhs = _star_side(ctx, r, s, kind == "alt")
        fn = getattr(series, name)  # at call time, as the tracer wraps it
        parts = [(coef, fn(Index(ix), ctx))
                 for coef, ix in _two_one_parts(r, s, kind)]
        return lhs, _combine(ctx, parts)
    return ev


def _with_r(evaluate, k):
    """Alias evaluator: ``evaluate`` with r fixed at k."""
    return lambda ctx, p: evaluate(ctx, {**p, "r": k})


def _kr_params(kind: str, variant: str, alpha, s: int):
    """The Theorem A (kind 'i' or 'ii') parameter set of a variant.

    Its well-poised xs in series order (b_1, c_1, b_2, ... for (i);
    c_0, b_1, c_1, ... for (ii)) are `first`, then `rest` for every other
    x: (A1)/(A2) take a = 2 alpha, first 1 and rest alpha; (A4)/(A3) take
    a = 2, first alpha and rest 1; 'generic' takes a = 11/5 and 7/10 for
    every x.
    """
    if variant == "generic":
        a, first, rest = Fraction(11, 5), Fraction(7, 10), Fraction(7, 10)
    elif variant in ("a1", "a2"):
        rest = as_fraction(alpha)
        a, first = 2 * rest, Fraction(1)
    else:
        first = as_fraction(alpha)
        a, rest = Fraction(2), Fraction(1)
    if kind == "i":
        return hypergeom.KRParamsI(s=s, a=a, b=(first,) + (rest,) * s,
                                   c=(rest,) * (s + 1))
    return hypergeom.KRParamsII(s=s, a=a, c0=first, b=(rest,) * s, c=(rest,) * s)


def _ev_theoremA(kind):
    """Theorem A (i) or (ii): the series side against the nested sum."""
    def ev(ctx, p):
        params = _kr_params(kind, p["variant"], p.get("alpha", "1"), p["s"])
        # looked up at call time, as the tracer wraps these names
        lhs = getattr(hypergeom, f"kr_lhs_{kind}")(params, ctx)
        return lhs, getattr(hypergeom, f"kr_rhs_{kind}")(params, ctx)
    return ev


# -- registry ---------------------------------------------------------------------

def _int_spec(name, lo, hi):
    return ParamSpec(name, "int", Fraction(lo), Fraction(hi))


def _alpha_spec(lo=None, hi=None, lo_open=False, hi_open=False):
    return ParamSpec("alpha", "real",
                     None if lo is None else Fraction(lo),
                     None if hi is None else Fraction(hi),
                     lo_open, hi_open)


_ALPHAS = ("0.6", "1.0", "1.3")


def _grid(**lists) -> Tuple[dict, ...]:
    keys = list(lists)
    return tuple(dict(zip(keys, combo))
                 for combo in iter_product(*(lists[k] for k in keys)))


def _build_registry() -> List[IdentityDescriptor]:
    reg: List[IdentityDescriptor] = []

    def add(id_, anchor, params, grid, evaluate):
        reg.append(IdentityDescriptor(id_, anchor, tuple(params), tuple(grid),
                                      evaluate))

    add("remark1_even", "Remark 1, even weights",
        [_int_spec("s", 1, 8)], _grid(s=[1, 2, 3, 4, 5]), _ev_remark1_even)
    add("remark1_odd", "Remark 1, odd weights",
        [_int_spec("s", 1, 8)], _grid(s=[1, 2, 3, 4, 5]), _ev_remark1_odd)
    add("a1_specialized", "(A1) specialized identity",
        [_int_spec("s", 1, 4), _alpha_spec(lo=0, lo_open=True)],
        _grid(s=[1, 2, 3], alpha=_ALPHAS), _ev_specialized("a1"))
    add("a1_prefactor_derivative", "(A1) prefactor derivative at 1",
        [], ({},), _ev_a1_prefactor_derivative)
    add("eq1", "Eq. (1)",
        [_int_spec("s", 1, 6)], _grid(s=[1, 2, 3, 4]), _ev_eq1)
    add("a2_specialized", "(A2) specialized identity",
        [_int_spec("s", 2, 4), _alpha_spec(lo=0, lo_open=True)],
        _grid(s=[2, 3], alpha=_ALPHAS), _ev_specialized("a2"))
    add("a2_cyclic", "(A2) cyclic-sum example",
        [_int_spec("s", 1, 6)], _grid(s=[2, 3, 4, 5]), _ev_a2_cyclic)
    add("a3_specialized", "(A3) specialized identity",
        [_int_spec("s", 2, 4), _alpha_spec(hi=2, hi_open=True)],
        _grid(s=[2, 3], alpha=_ALPHAS), _ev_specialized("a3"))
    add("eq2_check", "Eq. (2) closed form vs derivative oracle",
        [_int_spec("m", 0, 30), _int_spec("r", 0, 6)],
        _grid(m=[0, 1, 2, 3, 5, 10, 15], r=[0, 1, 2, 3, 4]), _ev_eq2_check)
    add("eq3", "Eq. (3)",
        [_int_spec("r", 0, 5), _int_spec("s", 2, 4)],
        _grid(r=[0, 1, 2, 3], s=[2, 3]), _ev_eq(False))
    for k in range(4):
        add(f"eq3_expansion_r{k}", f"(A3) expansion display, r={k}",
            [_int_spec("s", 2, 4)], _grid(s=[2, 3]),
            _with_r(_ev_two_one("star"), k))
    add("a4_specialized", "(A4) specialized identity",
        [_int_spec("s", 1, 4), _alpha_spec(hi=Fraction(3, 2), hi_open=True)],
        _grid(s=[1, 2, 3], alpha=_ALPHAS), _ev_specialized("a4"))
    add("eq4", "Eq. (4)",
        [_int_spec("r", 0, 5), _int_spec("s", 1, 3)],
        _grid(r=[0, 1, 2, 3], s=[1, 2]), _ev_eq(True))
    for k in range(4):
        add(f"eq4_expansion_r{k}", f"(A4) expansion display, r={k}",
            [_int_spec("s", 1, 3)], _grid(s=[1, 2]),
            _with_r(_ev_two_one("alt"), k))
    add("eq5_check", "Eq. (5), both closed forms",
        [_int_spec("m", 0, 30), _int_spec("r", 0, 8)],
        _grid(m=[0, 1, 2, 3, 4, 6, 8, 10, 12, 15], r=[0, 1, 2, 3, 4, 5]),
        _ev_eq5_check)
    add("addendum_mzv_form", "Addendum, strict-sum form",
        [_int_spec("r", 0, 5), _int_spec("s", 2, 3)],
        _grid(r=[0, 1, 2, 3, 4], s=[2, 3]), _ev_two_one("mzv"))
    add("two_one_eq3", "Addendum, two-one rewrite of Eq. (3)",
        [_int_spec("r", 0, 5), _int_spec("s", 2, 3)],
        _grid(r=[0, 1, 2, 3, 4], s=[2, 3]), _ev_two_one("star"))
    add("two_one_eq4", "Addendum, two-one rewrite of Eq. (4)",
        [_int_spec("r", 0, 5), _int_spec("s", 1, 3)],
        _grid(r=[0, 1, 2, 3, 4], s=[1, 2]), _ev_two_one("alt"))
    add("theoremA_i", "Theorem A (i)",
        [ParamSpec("variant", "choice", choices=("a1", "a4", "generic")),
         _int_spec("s", 1, 3), _alpha_spec()],
        tuple([{"variant": "a1", "s": 1, "alpha": a} for a in _ALPHAS]
              + [{"variant": "a4", "s": 1, "alpha": a} for a in _ALPHAS]
              + [{"variant": "generic", "s": 1, "alpha": "1.0"}]),
        _ev_theoremA("i"))
    add("theoremA_ii", "Theorem A (ii)",
        [ParamSpec("variant", "choice", choices=("a2", "a3", "generic")),
         _int_spec("s", 1, 3), _alpha_spec()],
        tuple([{"variant": "a2", "s": 2, "alpha": a} for a in _ALPHAS]
              + [{"variant": "a3", "s": 2, "alpha": a} for a in _ALPHAS]
              + [{"variant": "generic", "s": 1, "alpha": "1.0"}]),
        _ev_theoremA("ii"))
    return reg


_REGISTRY: List[IdentityDescriptor] = _build_registry()
_BY_ID: Dict[str, IdentityDescriptor] = {d.id: d for d in _REGISTRY}


def list_identities() -> List[IdentityDescriptor]:
    """The full registry in canonical order."""
    return list(_REGISTRY)


def get_identity(id_: str) -> IdentityDescriptor:
    try:
        return _BY_ID[id_]
    except KeyError:
        raise ConfigurationError(f"unknown identity {id_!r}") from None


def _validate_params(desc: IdentityDescriptor, params: dict) -> dict:
    out = {}
    specs = {p.name: p for p in desc.params}
    for key, value in params.items():
        if key not in specs:
            raise ConfigurationError(
                f"identity {desc.id} takes no parameter {key!r}")
        out[key] = specs[key].validate(value)
    for name in specs:
        if name in out:
            continue
        # alpha is unused by the generic theorem variants
        if name == "alpha" and out.get("variant") == "generic":
            continue
        raise ConfigurationError(f"identity {desc.id} requires parameter {name!r}")
    return out


def verify(id_: str, params: dict, ctx: PrecisionContext) -> VerificationResult:
    """Evaluate both sides of one identity instance and compare."""
    desc = get_identity(id_)
    checked = _validate_params(desc, dict(params))
    start = time.perf_counter()
    lhs, rhs = desc.evaluate(ctx, checked)
    elapsed = time.perf_counter() - start
    diff = abs(lhs.value - rhs.value)
    est_sum = lhs.diagnostics.error_estimate + rhs.diagnostics.error_estimate
    tolerance = HPReal(max(ctx.tol, (10 * est_sum).mpf), ctx)
    passed = diff <= tolerance
    return VerificationResult(
        id=desc.id, params=checked, lhs_value=lhs.value, rhs_value=rhs.value,
        abs_diff=diff, tolerance=tolerance, passed=passed,
        lhs_diag=lhs.diagnostics, rhs_diag=rhs.diagnostics, elapsed_s=elapsed)


def _instances_for(desc: IdentityDescriptor,
                   param_grid: Optional[dict]) -> List[dict]:
    if not param_grid:
        return [dict(g) for g in desc.default_grid]
    names = [p.name for p in desc.params]
    override_keys = [k for k in param_grid if k in names]
    if not override_keys and desc.params:
        return [dict(g) for g in desc.default_grid]
    instances = []
    seen = set()
    for base in desc.default_grid or ({},):
        for combo in iter_product(*(param_grid[k] for k in override_keys)):
            inst = dict(base)
            inst.update(zip(override_keys, combo))
            key = tuple(sorted((k, str(v)) for k, v in inst.items()))
            if key not in seen:
                seen.add(key)
                instances.append(inst)
    return instances


def verify_suite(id_filter: Optional[str], param_grid: Optional[dict],
                 ctx: PrecisionContext) -> List[VerificationResult]:
    """Run all matching (identity, parameters) combinations in canonical order.

    Individual failures are recorded, never raised; an empty match, or a
    grid axis that no matched identity takes, is a configuration error.
    """
    pattern = id_filter or "*"
    matched = [d for d in _REGISTRY if fnmatch(d.id, pattern)]
    if not matched:
        raise ConfigurationError(f"no identity matches {pattern!r}")
    taken = {p.name for d in matched for p in d.params}
    for axis in param_grid or ():
        if axis not in taken:
            raise ConfigurationError(
                f"no identity matching {pattern!r} takes parameter {axis!r}")
    results: List[VerificationResult] = []
    for desc in matched:
        for inst in _instances_for(desc, param_grid):
            start = time.perf_counter()
            try:
                results.append(verify(desc.id, inst, ctx))
            except ConfigurationError:
                raise  # bad grids are caller errors, not verification failures
            except Exception as exc:  # evaluation failure: record, keep going
                nan = HPReal(ctx.mp.nan, ctx)
                results.append(VerificationResult(
                    id=desc.id, params=dict(inst), lhs_value=nan, rhs_value=nan,
                    abs_diff=nan, tolerance=HPReal(ctx.tol, ctx), passed=False,
                    lhs_diag=exact_diag(ctx), rhs_diag=exact_diag(ctx),
                    elapsed_s=time.perf_counter() - start,
                    error=f"{type(exc).__name__}: {exc}"))
    return results
