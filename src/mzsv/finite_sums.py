"""Pochhammer symbols, finite multiple harmonic sums, and the closed-form
derivatives at 1 of the Pochhammer-ratio weights.

The strict/weak sums are the infinite series' index chains, 1/(t+1)^k from
t = 0, cut off at m (O(depth * m) time, O(depth * kernels.BLOCK) memory).
Their exact rational twins run the same chain on the same kernel at the
scale lcm(1..m+1)^(sum of the parts), where every floor division is exact.
The derivative closed forms are assembled from these exact rationals and
only rounded on return.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Tuple

from . import chains
from .context import HPReal, PrecisionContext, as_int
from .errors import ConsistencyError
from .indices import Index, compositions


def pochhammer(a, m: int, ctx: PrecisionContext) -> HPReal:
    """Rising factorial (a)_m = a (a+1) ... (a+m-1), with (a)_0 = 1."""
    m = as_int(m, "m", 0)
    av = ctx.real(a)
    mp = ctx.mp
    acc = mp.mpf(1)
    base = av.mpf
    for j in range(m):
        acc *= base + j
    return HPReal(acc, ctx)


def _chain_prefixes(parts: Tuple[int, ...], m: int, strict: bool, S: int) -> List[int]:
    """Scaled [S_m(k_1..k_j)] (strict) or [S*_m(k_1..k_j)] (weak) for j = 0..n.

    One kernel call over the index chain at scale S: 10^(working digits +
    SCALE_PAD) for a rounded sum, or lcm(1..m+1)^(k_1+...+k_n) for an
    exact one, where every contribution S * prod (m_j+1)^-k_j divides S
    and so every floor division in the kernel is exact.
    """
    (lp, lr, rn, rd), rvals = chains.kernel_levels(chains.index_levels(parts), S,
                                                   strict)
    pvals = [S] + [0] * len(parts)
    # strict S_m sums variables < m (state h_n(m-1)); weak S*_m includes m
    chains.nested_chain_advance(lp, lr, rn, rd, S, pvals, rvals, 0,
                                m if strict else m + 1, strict, False)
    return pvals


def _finite_sum(parts: Tuple[int, ...], m: int, ctx: PrecisionContext,
                strict: bool) -> HPReal:
    S = 10 ** (ctx.working_digits + chains.SCALE_PAD)
    return HPReal(ctx.mp.mpf(_chain_prefixes(parts, m, strict, S)[-1]) / S, ctx)


def _exact_prefixes(parts: Tuple[int, ...], m: int, strict: bool) -> List[Fraction]:
    S = math.lcm(*range(1, m + 2)) ** sum(parts)
    return [Fraction(p, S) for p in _chain_prefixes(parts, m, strict, S)]


def strict_sum(ix: Optional[Index], m: int, ctx: PrecisionContext) -> HPReal:
    """S_m: sum over 0 <= m_1 < ... < m_n < m of prod (m_i+1)^(-k_i).

    The empty index gives 1; m below the depth gives 0.
    """
    m = as_int(m, "m", 0)
    if ix is None:
        return ctx.one()
    if m < ix.depth:
        return ctx.zero()
    return _finite_sum(ix.parts, m, ctx, strict=True)


def star_sum(ix: Optional[Index], m: int, ctx: PrecisionContext) -> HPReal:
    """S*_m: sum over 0 <= m_1 <= ... <= m_n <= m of prod (m_i+1)^(-k_i)."""
    m = as_int(m, "m", 0)
    if ix is None:
        return ctx.one()
    return _finite_sum(ix.parts, m, ctx, strict=False)


def strict_sum_exact(ix: Optional[Index], m: int) -> Fraction:
    """Exact S_m, from the index chain at an exact scale."""
    m = as_int(m, "m", 0)
    if ix is None:
        return Fraction(1)
    return _exact_prefixes(ix.parts, m, strict=True)[-1]


def star_sum_exact(ix: Optional[Index], m: int) -> Fraction:
    """Exact S*_m, from the index chain at an exact scale."""
    m = as_int(m, "m", 0)
    if ix is None:
        return Fraction(1)
    return _exact_prefixes(ix.parts, m, strict=False)[-1]


def d1_pochhammer_at1(m: int, ctx: PrecisionContext) -> HPReal:
    """d/da (a)_m at a=1, i.e. m! * (H_{m+1} - 1/(m+1)) = m! * H_m."""
    m = as_int(m, "m", 0)
    return ctx.real(math.factorial(m) * strict_sum_exact(Index((1,)), m))


def d1_inv_pochhammer2a_at1(m: int, ctx: PrecisionContext) -> HPReal:
    """d/da 1/(2a)_m at a=1, i.e. (-2/(m+1)!) * (H_{m+1} - 1)."""
    m = as_int(m, "m", 0)
    val = Fraction(-2, math.factorial(m + 1)) * (star_sum_exact(Index((1,)), m) - 1)
    return ctx.real(val)


def dr_inv_pochhammer_2minus_at1_exact(m: int, r: int) -> Fraction:
    """(1/r!) d^r/da^r [1/(2-a)_{m+1}] at a=1 via S*_m(1^r)/(m+1)!."""
    m, r = as_int(m, "m", 0), as_int(r, "r", 0)
    return _exact_prefixes((1,) * r, m, strict=False)[r] / math.factorial(m + 1)


def dr_inv_pochhammer_2minus_at1(m: int, r: int, ctx: PrecisionContext) -> HPReal:
    """(1/r!) d^r/da^r [1/(2-a)_{m+1}] at a=1, rounded from the exact value."""
    return ctx.real(dr_inv_pochhammer_2minus_at1_exact(m, r))


def dr_ratio_at1_forms(m: int, r: int) -> Tuple[Fraction, Fraction]:
    """The two exact-rational routes to (1/r!) d^r/da^r [(a)_m/(2-a)_{m+1}] at 1.

    First: (1/(m+1)) * sum_i S_m(1^(r-i)) S*_m(1^i).
    Second: sum_i 2^i * sum over compositions k of r+1 into i+1 parts of
            S_m(k_1..k_i) / (m+1)^(k_{i+1}).
    Equality of the two for all m, r is itself one of the verified identities.

    Both sum in integers, with L = lcm(1..m+1): the first over
    L^(2r) (m+1), from the kernel's exact prefixes of the chains 1^r at
    scale L^r, the second over L^(r+1) (m+1)^(r+1), each S_m(k_1..k_i)
    exact at scale L^(r+1) since k_1 + ... + k_i <= r. Each such head is
    read off the prefixes of the one kernel call on the longest head
    through it, so each longest head is summed once. Each form is one
    Fraction, made at the end.
    """
    m, r = as_int(m, "m", 0), as_int(r, "r", 0)
    n1 = m + 1
    L = math.lcm(*range(1, m + 2))
    S = L ** r
    ones_s = _chain_prefixes((1,) * r, m, True, S)
    ones_t = _chain_prefixes((1,) * r, m, False, S)
    form_a = Fraction(sum(ones_s[r - i] * ones_t[i] for i in range(r + 1)), S * S * n1)
    S *= L
    heads = {(): S}  # S_m(head) at scale S, read off the prefixes of chains
    imax = min(m, r)
    num_b = 0
    for i in range(imax + 1):
        inner = 0
        for comp in compositions(r + 1, i + 1):
            head = comp[:i]
            if head not in heads:
                # the longest head through this one: it sums to r or has
                # imax parts, and its one kernel call gives every prefix
                chain = head + (comp[i] - 1,) if i < imax and comp[i] > 1 else head
                heads.update(zip((chain[:j] for j in range(len(chain) + 1)),
                                 _chain_prefixes(chain, m, True, S)))
            inner += heads[head] * n1 ** (r + 1 - comp[i])
        num_b += inner << i
    return form_a, Fraction(num_b, S * n1 ** (r + 1))


def dr_ratio_at1(m: int, r: int, ctx: PrecisionContext) -> HPReal:
    """Closed-form scaled derivative of the Pochhammer ratio, cross-checked
    through both exact routes (ConsistencyError if they ever disagree)."""
    form_a, form_b = dr_ratio_at1_forms(m, r)
    if form_a != form_b:
        raise ConsistencyError(
            f"ratio-derivative routes disagree at m={m}, r={r}: "
            f"{form_a} vs {form_b}")
    return ctx.real(form_a)
