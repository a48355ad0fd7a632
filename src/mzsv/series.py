"""Convergent infinite-series evaluators.

zeta / eta_shifted          single series (Euler-Maclaurin / Boole tail)
mzv / mzsv / alt_mzsv       nested chains over strictly / weakly increasing
                            variables, with analytic chain-tail corrections
weighted_product_series     the harmonic-product series forming the
                            right-hand sides of the expansion identities

Each nested evaluator returns an Evaluation pairing the value with
EvalDiagnostics (terms used, tail correction, error estimate, strategy).
"""

from __future__ import annotations

from typing import NamedTuple

from .chains import ChainEvaluator, WeightedChainEvaluator, index_levels, _tol_mpf
from .context import HPReal, PrecisionContext, as_int
from .errors import DomainError
from .indices import Index, admissible
from .tailcalc import power_sum_tail


class EvalDiagnostics(NamedTuple):
    """Truncation report for one series evaluation."""
    terms_used: int
    tail_correction: HPReal
    error_estimate: HPReal
    strategy: str


class Evaluation(NamedTuple):
    value: HPReal
    diagnostics: EvalDiagnostics


def run_evaluation(ev, tol=None, pref=1) -> Evaluation:
    """pref times the run of evaluator ev, as an Evaluation.

    The run asks for tol / max(1, |pref|) (tol defaults to ctx.tol), so
    the scaled value meets tol; the tail and the estimate are scaled alike.
    With pref = 1 that takes no mpf operation: the run rounds tol into the
    context itself, and a product by 1 would return the same mpfs.
    """
    ctx = ev.ctx
    if tol is None:
        tol = ctx.tol
    if pref == 1:
        val, info = ev.run(tol)
        tail, est = info["tail"], info["estimate"]
    else:
        prefa = abs(pref)
        tolm = _tol_mpf(ctx, tol)
        val, info = ev.run(tolm / prefa if prefa > 1 else tolm)
        val, tail, est = pref * val, pref * info["tail"], prefa * info["estimate"]
    diag = EvalDiagnostics(info["terms"], HPReal(tail, ctx), HPReal(est, ctx),
                           info["strategy"])
    return Evaluation(HPReal(val, ctx), diag)


def exact_diag(ctx: PrecisionContext) -> EvalDiagnostics:
    """Diagnostics for closed-form quantities (error at the rounding floor).

    A new record per call: its HPReals refer to ctx, so a record kept on
    ctx would hold ctx in a reference cycle. The floor 10^-(wd-2) is built
    once and kept on ctx (``ctx.exact_floor``)."""
    floor = ctx.exact_floor
    if floor is None:
        floor = ctx.exact_floor = ctx.mp.mpf(10) ** (-(ctx.working_digits - 2))
    return EvalDiagnostics(0, ctx.zero(), HPReal(floor, ctx), "direct")


def zeta(k, ctx: PrecisionContext) -> HPReal:
    """Riemann zeta for real k > 1 by partial sum plus Euler-Maclaurin tail,
    kept on ctx as a raw mpf per argument (``ctx.scalars``, keyed by k's
    mpf in ctx), so a repeat is one lookup."""
    kv = ctx.real(k)
    key = ("zeta", kv.mpf._mpf_)
    val = ctx.scalars.get(key)
    if val is None:
        if kv <= 1:
            raise DomainError(f"zeta requires k > 1, got {kv}")
        mp = ctx.mp
        # to working precision, so that callers may claim exact_diag's floor
        tail = power_sum_tail(mp, kv.mpf, 1, mp.mpf(10) ** -ctx.working_digits)
        val = ctx.scalars[key] = 1 + tail
    return HPReal(val, ctx)


def eta_shifted(k: int, ctx: PrecisionContext) -> HPReal:
    """sum_{m>=0} (-1)^m / (m+1)^k for integer k >= 1 (Boole tail)."""
    return eta_shifted_ex(k, ctx).value


def eta_shifted_ex(k: int, ctx: PrecisionContext) -> Evaluation:
    k = as_int(k, "k", 1)
    return _index_chain(Index((k,)), ctx, None, alternating=True)


def _index_chain(ix: Index, ctx: PrecisionContext, tol, strict: bool = False,
                 alternating: bool = False) -> Evaluation:
    """The chain of an admissible index ix, summed to tol (default ctx.tol)."""
    if not admissible(ix, alternating=alternating):
        raise DomainError(f"inadmissible index {ix}: last part must be >= 2")
    return run_evaluation(ChainEvaluator(ctx, index_levels(ix.parts), strict=strict,
                                         alternating=alternating), tol)


def mzv(ix: Index, ctx: PrecisionContext, tol=None) -> Evaluation:
    """Multiple zeta value over strictly increasing variables."""
    return _index_chain(ix, ctx, tol, strict=True)


def mzsv(ix: Index, ctx: PrecisionContext, tol=None) -> Evaluation:
    """Multiple zeta-star value over weakly increasing variables."""
    return _index_chain(ix, ctx, tol)


def alt_mzsv(ix: Index, ctx: PrecisionContext, tol=None) -> Evaluation:
    """Alternating zeta-star value: sign (-1)^(m_n - 1) on the outer variable."""
    return _index_chain(ix, ctx, tol, alternating=True)


def weighted_product_series(r: int, s: int, alternating: bool,
                            ctx: PrecisionContext) -> HPReal:
    """2 * sum_m sigma(m)/(m+1)^p * sum_{i<=r} S_m(1^(r-i)) S*_m(1^i).

    (sigma, p) is (+1, 2s-1) in the plain case (needs s >= 2) and
    ((-1)^m, 2s) in the alternating case (s >= 1).
    """
    return weighted_product_series_ex(r, s, alternating, ctx).value


def weighted_product_series_ex(r: int, s: int, alternating: bool,
                               ctx: PrecisionContext, tol=None) -> Evaluation:
    r = as_int(r, "r", 0)
    s = as_int(s, "s", 1 if alternating else 2)
    p = 2 * s if alternating else 2 * s - 1
    ev = WeightedChainEvaluator(ctx, r=r, p=p, alternating=alternating)
    return run_evaluation(ev, tol, pref=2)
