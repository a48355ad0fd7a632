"""Pochhammer symbols, finite multiple harmonic sums, and the closed-form
derivatives at 1 of the Pochhammer-ratio weights.

The strict/weak sums are the infinite series' index chains, 1/(t+1)^k from
t = 0, cut off at m, in O(depth * kernels.BLOCK) memory. A rounded sum
past the first checkpoint M0 (``chains.first_checkpoint``) sums its first
M0 terms on the kernel and takes the rest, up to any m, from the chains'
tail series, a word ending in 1s through the stuffle product with the
harmonic number (``_tail_route``), in time independent of m. A context
keeps each such word once, with its evaluator and its value at infinity,
so a word it has met costs only its tails at the new bound. A sum with at
most M0 terms, or whose words would cost more, is one kernel call over
all of them, in O(depth * m). Either loop is capped by ctx.max_terms.
The exact rational twins run the whole chain on the same kernel at the
scale lcm(1..m+1)^(sum of the parts), where every floor division is
exact. The derivative closed forms are assembled from these exact rationals and
only rounded on return.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from typing import List, Optional, Tuple

from mpmath.libmp import from_int, mpf_euler, mpf_log, to_fixed

from . import chains
from .context import HPReal, PrecisionContext, as_int
from .errors import ConsistencyError, ConvergenceError
from .indices import Index, compositions
from .tailcalc import _em_series


def pochhammer(a, m: int, ctx: PrecisionContext) -> HPReal:
    """Rising factorial (a)_m = a (a+1) ... (a+m-1), with (a)_0 = 1."""
    m = as_int(m, "m", 0)
    _check_loop("pochhammer", m, "factors", ctx)
    av = ctx.real(a)
    mp = ctx.mp
    acc = mp.mpf(1)
    base = av.mpf
    for j in range(m):
        acc *= base + j
    return HPReal(acc, ctx)


def _check_loop(what: str, n: int, units: str, ctx: PrecisionContext) -> None:
    """Refuse a loop of n steps past ctx.max_terms before it starts."""
    if n > ctx.max_terms:
        raise ConvergenceError(
            f"{what}: its {n} {units} exceed max_terms={ctx.max_terms}")


def _chain_prefixes(parts: Tuple[int, ...], end: int, strict: bool, S: int) -> List[int]:
    """Scaled [P_j(end-1)] for j = 0..n, the index chain summed over t < end:
    [S_m(k_1..k_j)] for a strict chain with end = m, [S*_m(k_1..k_j)] for a
    weak one with end = m + 1.

    One kernel call over the index chain at scale S: 10^(working digits +
    SCALE_PAD) for a rounded sum, or lcm(1..m+1)^(k_1+...+k_n) for an
    exact one, where every contribution S * prod (m_j+1)^-k_j divides S
    and so every floor division in the kernel is exact.
    """
    (lp, lr, rn, rd), rvals = chains.kernel_levels(chains.index_levels(parts), S,
                                                   strict)
    pvals = [S] + [0] * len(parts)
    chains.nested_chain_advance(lp, lr, rn, rd, S, pvals, rvals, 0, end, strict, False)
    return pvals


def _finite_sum(ix: Optional[Index], m: int, ctx: PrecisionContext,
                strict: bool) -> HPReal:
    """S_m (strict) or S*_m (weak), the chain summed over t < end, end = m
    or m + 1, at S = 10^(working digits + SCALE_PAD): ``_tail_route`` past
    the first checkpoint M0 where its words cost less than one kernel call
    over every term, else that call; None gives 1, a strict m < depth 0."""
    m = as_int(m, "m", 0)
    if ix is None:
        return ctx.one()
    parts = ix.parts
    if strict and m < len(parts):
        return ctx.zero()
    S = 10 ** (ctx.working_digits + chains.SCALE_PAD)
    end = m if strict else m + 1    # strict S_m stops at h_n(m-1), weak S*_m at m
    m0 = chains.first_checkpoint(ctx, False)
    budget = min(len(parts) * end // (_WORD_COST * m0), _PLAN_MAX)
    words = _plan(parts, budget) if end > m0 else None
    if words:
        _check_loop("finite sum", m0, "terms", ctx)
        value = _tail_route(ctx, S, m0, end, strict, words)
    else:
        _check_loop("finite sum", end, "terms", ctx)
        value = _chain_prefixes(parts, end, strict, S)[-1]
    return HPReal(ctx.mp.mpf(value) / S, ctx)


# what a word of ``_tail_route`` costs per part, in kernel term-levels per
# M0, the first time a context meets it: its tails' evaluations and their
# builds took 1.1-1.7 M0 warm and 5-6.4 M0 cold at 100 and 30 digits
# (medians over random words of parts 1-4); the context then keeps the
# word, and a new bound costs one evaluation of its tails
_WORD_COST = 3
# the most word parts ``_plan`` lists: about half a second of tail route
_PLAN_MAX = 2 ** 14


def _recipe(w: Tuple[int, ...]):
    """How ``_tail_route`` forms P_w(end-1) from other words: None for a
    word whose last part is >= 2, from its heads; else, for w = (v, 1^r),
    (r, u, inserted, raised) with u = (v, 1^(r-1)), the insertions of a 1
    into u before its last len(u) - len(v) + 1 gaps, and the words u with
    one part raised by 1."""
    if w[-1] >= 2:
        return None
    u = w[:-1]
    lv = len(u)             # the length of v
    while lv and u[lv - 1] == 1:
        lv -= 1
    return (len(w) - lv, u, [u[:p] + (1,) + u[p:] for p in range(lv)],
            [u[:i] + (u[i] + 1,) + u[i + 1:] for i in range(len(u))])


def _plan(w: Tuple[int, ...], budget: int) -> Optional[List[Tuple[int, ...]]]:
    """Every word ``_tail_route`` needs for w, each after those it is formed
    from, w last; None once their parts pass budget."""
    order: List[Tuple[int, ...]] = []
    seen = {()}
    stack = [(w, False)]
    while stack:
        x, formed = stack.pop()
        if formed:
            order.append(x)
            continue
        if x in seen:
            continue
        seen.add(x)
        budget -= len(x)
        if budget < 0:
            return None
        stack.append((x, True))
        recipe = _recipe(x)
        if recipe is None:
            stack.extend((x[:i], False) for i in range(1, len(x)))
        else:
            _, u, inserted, raised = recipe
            stack.extend((y, False) for y in [u, (1,)] + inserted + raised)
    return order


def _tail_route(ctx: PrecisionContext, S: int, m0: int, end: int, strict: bool,
                words) -> int:
    """P_w(end-1) at scale S of the last of ``_plan``'s words, from kernel
    sums over t < M0 and the chains' tail series.

    A word w whose last part is >= 2 converges, and its tails hold the
    working digits from M0 on (``tailcalc.expansion_plan``), so
    P_w(end-1) = P_w(M0-1) + R_w(M0-1) - R_w(end-1), R_w(x) the
    ``tail_correction`` at x of w's ChainEvaluator with its inner prefix
    values set to those of w's heads at x; the heads at M0-1 come from
    kernel calls, the longest words first, and those at end-1 are values
    of this route. A word (v, 1^r), v empty or ending in a part >= 2,
    diverges, and its remainder has a log term no tail series holds; it
    comes from the harmonic (stuffle) product, exact for finite sums at
    any bound, of u = (v, 1^(r-1)) and (1): u * (1) is the sum of u with
    a 1 put in each of its len(u) + 1 gaps, plus (strict) or minus (weak)
    the sum of u with one part raised by 1. The r gaps after v give w, so
    r * w = u * H - (the other insertions) -+ (the raised words)
    (``_recipe``), where H = P_(1)(end-1) = H_end (``_harmonic``); every
    word on the right is shorter or ends in fewer 1s.

    A context keeps each word w ending in a part >= 2 once, keyed by
    (w, strict) (``TailCalc.finite_words``): its evaluator and its value at
    infinity P_w(M0-1) + R_w(M0-1), which does not depend on end; the
    evaluator holds ctx through a weak proxy, since ctx holds it. Kernel
    calls over t < M0 are made only for words not kept yet, so a word met
    before costs one ``tail_correction`` at end-1. Tails are built once per
    context (``TailCalc.suffix_tails``).
    """
    kept = ctx.tail_calc(False).finite_words
    at_m0 = {(): S}
    for w in sorted(words, key=len, reverse=True):
        if w[-1] >= 2 and (w, strict) not in kept and w not in at_m0:
            pv = _chain_prefixes(w, m0, strict, S)
            at_m0.update((w[:i], pv[i]) for i in range(1, len(w) + 1))
    at_end = {(): S}
    for w in words:
        recipe = _recipe(w)
        if recipe is None:
            entry = kept.get((w, strict))
            if entry is None:
                ev = chains.ChainEvaluator(ctx, chains.index_levels(w), strict)
                ev.ctx = weakref.proxy(ctx)  # no reference cycle through the store
                ev.pvals = [at_m0[w[:i]] for i in range(len(w) + 1)]
                entry = kept[w, strict] = (ev, at_m0[w] + ev.tail_correction(m0 - 1))
            ev, rest = entry
            ev.pvals = [at_end[w[:i]] for i in range(len(w))] + [0]
            at_end[w] = rest - ev.tail_correction(end - 1)
        elif w == (1,):
            at_end[w] = _harmonic(end, S)
        else:
            r, u, inserted, raised = recipe
            total = at_end[u] * at_end[(1,)] // S - sum(at_end[x] for x in inserted)
            up = sum(at_end[x] for x in raised)
            at_end[w] = (total - up if strict else total + up) // r
    return at_end[words[-1]]


def _harmonic(end: int, S: int) -> int:
    """H_end at scale S, end > M0, from the Euler-Maclaurin expansion
    H_n = ln n + gamma + 1/(2n) - sum_k B_2k/(2k n^2k), in fixed point at
    bits = S's bits + 40, and floored once at S. The sum runs on the
    helper of the zeta tails and Stirling's series (``tailcalc._em_series``),
    with g_k = (2k-1)! / n^2k, to its first term below one unit. The series
    is asymptotic, and that is valid because n = end > M0 (``_tail_route``
    runs only past the first checkpoint): its least term, about
    e^(-2 pi n) < 2^(-9 n), is then far below 2^-bits, since 9 M0 exceeds
    bits at every precision (828 against 227 at 30 digits)."""
    bits = S.bit_length() + 40
    one = 1 << bits
    series = _em_series(one // end ** 2, 1, 1, end * end, 1)
    h = (to_fixed(mpf_log(from_int(end), bits + 8), bits)
         + to_fixed(mpf_euler(bits + 8), bits) + one // (2 * end) - series)
    return h * S >> bits


def _exact_prefixes(parts: Tuple[int, ...], m: int, strict: bool) -> List[Fraction]:
    S = math.lcm(*range(1, m + 2)) ** sum(parts)
    return [Fraction(p, S) for p in _chain_prefixes(parts, m if strict else m + 1,
                                                    strict, S)]


def _exact_sum(ix: Optional[Index], m: int, strict: bool) -> Fraction:
    """Exact S_m (strict) or S*_m (weak), from the index chain at an exact scale."""
    m = as_int(m, "m", 0)
    if ix is None:
        return Fraction(1)
    return _exact_prefixes(ix.parts, m, strict)[-1]


def strict_sum(ix: Optional[Index], m: int, ctx: PrecisionContext) -> HPReal:
    """S_m: sum over 0 <= m_1 < ... < m_n < m of prod (m_i+1)^(-k_i).

    The empty index gives 1; m below the depth gives 0.
    """
    return _finite_sum(ix, m, ctx, strict=True)


def star_sum(ix: Optional[Index], m: int, ctx: PrecisionContext) -> HPReal:
    """S*_m: sum over 0 <= m_1 <= ... <= m_n <= m of prod (m_i+1)^(-k_i)."""
    return _finite_sum(ix, m, ctx, strict=False)


def strict_sum_exact(ix: Optional[Index], m: int) -> Fraction:
    """Exact S_m."""
    return _exact_sum(ix, m, strict=True)


def star_sum_exact(ix: Optional[Index], m: int) -> Fraction:
    """Exact S*_m."""
    return _exact_sum(ix, m, strict=False)


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
    ones_t = _chain_prefixes((1,) * r, m + 1, False, S)
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
