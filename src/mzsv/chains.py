"""Adaptive evaluation of nested prefix-sum chains.

Every convergent multiple series in the package (zeta-star/strict values,
the hypergeometric nested right-hand sides, the harmonic-product series)
is a chain P_i(t) = P_i(t-1) + w_i(t) * P_{i-1}(t or t-1) whose outermost
level accumulates the value. This module drives the fixed-point kernels
over such chains, and both evaluators share one run loop,
``_run_evaluator``: advance to M, add the tail, compare with the last
checkpoint, step M on. Every chain starts at t = 0, with index part k as
the level 1/(t+1)^k (``index_levels``). Every shift reaches the kernel
exactly (``kernel_levels``): a power piece 1/(t+a/b)^k as (a, k, b), a ratio
factor t + s as (s*L, L) over the common denominator L of its ratio.

* start at M = M0, take the second checkpoint a short step on, at
  M0 + ceil(M0/8), and double M from there until two successive results,
  their difference scaled by M_prev/(M - M_prev), differ by less than
  tol/2 (ctx.max_terms caps M); checkpoint M sums exactly the M terms
  t = 0 .. M-1. M0 grows with the working digits, with the tail
  expansion order (``tailcalc.expansion_plan``): 112 at 30 digits, 389
  at 100;
* at each checkpoint, correct the truncation by expanding the remainder
  level-by-level into tail-polynomial sums (exact for power-law weights;
  a ratio weight uses its full asymptotic shape, whose decay exponent
  sum(den_shifts) - sum(num_shifts) the ratio itself fixes, pinned to
  the running value), so the check usually passes at its first
  comparison, the second checkpoint, instead of chasing O(1/M)
  remainders (every evaluation takes at least two checkpoints); the
  harmonic-product series splits its remainder exactly into the prefix
  state times tail sums. Each evaluator builds its tail series once, every
  ratio level at unit scale, by the tail algebra (and factor rows) that
  its context keeps (``ctx.tail_calc()``); a checkpoint only rescales them;
* an alternating outer sum signs term t by (-1)^t, which the kernels
  compute from t, so an evaluator keeps no sign state; its remainder expands
  the same way, with every level's tail sum taken by the Boole formula
  (``TailCalc.sumtail(..., alternating=True)``), since the sign of the
  outermost level carries into every level below it;
* a finished run is memoised on its PrecisionContext, keyed by the
  evaluator's structure (``memo_key``), tol and corrections, so the many
  identities that share a series sum it once per context. A run that
  raises is not stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Optional, Tuple

from .context import PrecisionContext
from .errors import ConvergenceError, DomainError
from .kernels import nested_chain_advance, weighted_chain_advance
# _iterated_means is unused here; perfbench/tracing.py wraps it by name
from .numerics import _iterated_means  # noqa: F401

SCALE_PAD = 16          # extra scaled digits absorbing floor-division bias

DIRECT = "direct"
TAIL_CORRECTED = "tail_corrected"


@dataclass(frozen=True)
class Pow:
    """Weight factor 1/(t + shift)^k with an exact rational shift."""
    k: int
    shift: Fraction = Fraction(0)


@dataclass(frozen=True)
class Ratio:
    """Running weight w(t+1) = w(t) * prod(t + ns) / prod(t + ds).

    ``init`` is the exact w at the chain's first t. The kernel takes each
    factor over the common denominator L of all the shifts, as the integer
    L*(t + s); the factor counts are equal, so the L's cancel. The tail
    model is w(t) ~ c * (t+1)^-rho with rho = sum(ds) - sum(ns), the decay
    the recurrence itself fixes, and c estimated at each checkpoint from
    the running value.
    """
    num_shifts: Tuple[Fraction, ...]
    den_shifts: Tuple[Fraction, ...]
    init: Fraction

    def __post_init__(self):
        if len(self.num_shifts) != len(self.den_shifts):
            raise DomainError("ratio weight needs equally many numerator "
                              "and denominator factors")


@dataclass(frozen=True)
class Level:
    """Weight of one chain level: the product of its pieces. An empty level
    has weight 1, so it is a plain prefix sum of the level below; it must
    not be the outermost level, whose tail sum would then diverge."""
    pows: Tuple[Pow, ...] = ()
    ratio: Optional[Ratio] = None


def first_checkpoint(ctx: PrecisionContext, levels=()) -> int:
    """The first checkpoint of a run on ctx over the given chain levels.

    That is M0 of ctx's tail algebra (``ctx.tail_calc().m0``), from which
    its tail expansion holds the working digits, unless a level
    has a large shift: a piece 1/(t+c)^k, or a ratio factor t + c, expands
    in powers of (c-1)/(m+1), which diverge for m below |c-1|. So a chain
    starts at twice its largest |c-1| at least, and the run loop steps on
    from there.
    """
    shifts = [p.shift for lvl in levels for p in lvl.pows]
    shifts += [c for lvl in levels if lvl.ratio is not None
               for c in lvl.ratio.num_shifts + lvl.ratio.den_shifts]
    reach = max((abs(c - 1) for c in shifts), default=0)
    return max(ctx.tail_calc().m0, ceil(2 * reach))


def _run_evaluator(ev, tol, corrections: bool, what: str):
    """The run loop of both evaluators.

    Checkpoint M sums the M terms t = 0 .. M-1 and adds the remainder after
    them, unless corrections is off; M starts at ev.start (the
    ``first_checkpoint`` of its levels), M0, steps to M0 + ceil(M0/8) and
    then doubles, until two successive results differ by less than tol/2.
    The difference over a step Mp -> M is scaled by Mp/(M - Mp), about 8
    for the first step and 1 for a doubling: a model error c*M^-j with
    j >= 1 changes over the step by (x^j - 1)/(x - 1) >= 1 times its value
    at M = x*Mp, so the scaled difference bounds the error where the run
    stops. The short first step still shows the expansion's first dropped
    term (j about qmax) almost whole: it falls by 1 - (8/9)^j over it.
    The least difference is the rounding floor
    10^-working_digits * max(1, |E|, |tail|): the partial sum and the tail
    each round at their own size. A tol that
    10^-working_digits * max(1, |E|) alone exceeds can never be met and
    raises DomainError at the first checkpoint. A plateau (the scaled
    difference no longer shrinking while still above tolerance) means the
    truncation model has bottomed out, and raises ConvergenceError at
    once; so does a next checkpoint past ctx.max_terms, checked for the
    second before the first is summed.

    Runs are memoised in ev.ctx.evaluations under (ev.memo_key, tol,
    corrections). A hit returns the stored value and a copy of its info
    without advancing ev; ConvergenceError and DomainError are never
    stored, so a repeat raises them again.
    """
    ctx = ev.ctx
    mp = ctx.mp
    tolm = mp.mpf(tol)
    memo = ctx.evaluations
    key = (ev.memo_key, tolm, corrections)
    if key in memo:
        E, info = memo[key]
        return E, dict(info)
    if ev.alternating:
        what = "alternating " + what
    digits = ctx.working_digits
    floor = mp.mpf(10) ** -digits
    M = ev.start
    nxt = M + ceil(M / 8)
    if nxt > ctx.max_terms:
        raise ConvergenceError(
            f"{what}: its first two checkpoints, M = {M} and {nxt}, "
            f"exceed max_terms={ctx.max_terms}")
    prev = dprev = None
    while True:
        ev.advance_to(M)
        tail = ev.tail_correction(M - 1) if corrections else mp.mpf(0)
        E = mp.mpf(ev.acc) / ev.S + tail
        rounding = floor * max(1, abs(E))
        if rounding >= tolm / 2:
            raise DomainError(
                f"{what}: tolerance {mp.nstr(tolm, 4)} is below the rounding "
                f"floor {mp.nstr(rounding, 4)} of {digits} working digits; "
                f"raise the precision")
        if prev is not None:
            # the step difference scaled by Mprev/(M - Mprev), the factor
            # formed first so that a doubling scales by exactly 1; E adds
            # the tail to the partial sum, and where both far exceed E (a
            # long alternating sum with large terms), each rounds at its
            # own size
            step = abs(E - prev) * (mp.mpf(Mprev) / (M - Mprev))
            diff = max(step, rounding, floor * abs(tail))
            if diff < tolm / 2:
                info = {"terms": M, "tail": tail, "estimate": diff,
                        "strategy": TAIL_CORRECTED if corrections else DIRECT}
                memo[key] = (E, info)
                return E, dict(info)
            if dprev is not None and diff * mp.mpf("1.6") > dprev:
                raise ConvergenceError(
                    f"{what}: truncation error plateaued at {mp.nstr(diff, 4)} "
                    f"above tolerance {mp.nstr(tolm, 4)}")
            dprev = diff
        prev, Mprev = E, M
        if nxt > ctx.max_terms:
            raise ConvergenceError(
                f"{what}: not stabilized below {mp.nstr(tolm, 4)} within "
                f"max_terms={ctx.max_terms} (last M={M})")
        M, nxt = nxt, 2 * nxt


def index_levels(parts):
    """The chain levels of an index, innermost first: part k is 1/(t+1)^k."""
    return [Level(pows=(Pow(k, Fraction(1)),)) for k in parts]


def kernel_levels(levels, S: int, strict: bool):
    """The kernel's view of a chain at scale S.

    Returns ((level_pows, level_ratio, ratio_nums, ratio_dens), rvals), the
    leading arguments of ``nested_chain_advance`` and the scaled ratio
    weights at t = 0, each rounded to the nearest multiple of 1/S. The
    shifts stay exact: a power piece 1/(t + a/b)^k, a/b in lowest terms,
    becomes (a, k, b), and a ratio factor t + s becomes (s*L, L), with L
    the lcm of that ratio's shift denominators.
    """
    level_pows = []
    level_ratio = []
    ratio_nums = []
    ratio_dens = []
    rvals = []
    for lvl in levels:
        level_pows.append(tuple((p.shift.numerator, p.k, p.shift.denominator)
                                for p in lvl.pows))
        if lvl.ratio is None:
            level_ratio.append(-1)
        else:
            if strict:
                raise DomainError("ratio weights are only supported on weak-order chains")
            r = lvl.ratio
            level_ratio.append(len(rvals))
            L = lcm(*(s.denominator for s in r.num_shifts + r.den_shifts))
            ratio_nums.append(tuple((int(s * L), L) for s in r.num_shifts))
            ratio_dens.append(tuple((int(s * L), L) for s in r.den_shifts))
            rvals.append(round(r.init * S))
    return (tuple(level_pows), tuple(level_ratio), tuple(ratio_nums),
            tuple(ratio_dens)), rvals


class ChainEvaluator:
    """One chain over t = 0, 1, ..., evaluated adaptively and resumably."""

    def __init__(self, ctx: PrecisionContext, levels, strict: bool = False,
                 alternating: bool = False):
        if strict and alternating:
            raise DomainError("strict chains with alternating outer sums are unsupported")
        self.ctx = ctx
        self.levels = list(levels)
        self.strict = strict
        self.alternating = alternating
        # Level, Pow and Ratio are frozen dataclasses of Fractions: hashable
        self.memo_key = (tuple(self.levels), strict, alternating)
        n = len(self.levels)
        if n < 1:
            raise DomainError("chain needs at least one level")
        S = 10 ** (ctx.working_digits + SCALE_PAD)
        self.S = S
        self._kernel_args, self.rvals = kernel_levels(self.levels, S, strict)
        self.pvals = [S] + [0] * n
        self.t_next = 0
        self.start = first_checkpoint(ctx, self.levels)
        self._tails = None

    # -- kernel driving -------------------------------------------------------
    def advance_to(self, t_exclusive: int):
        if t_exclusive <= self.t_next:
            return
        lp, lr, rn, rd = self._kernel_args
        nested_chain_advance(lp, lr, rn, rd, self.S, self.pvals, self.rvals,
                             self.t_next, t_exclusive, self.strict, self.alternating)
        self.t_next = t_exclusive

    # -- tail corrections -----------------------------------------------------
    def _build_tails(self, calc):
        """Per level, outermost first: (ratio shape or None, tail series).

        Each ratio level enters at unit scale (its shape), so no series
        depends on the checkpoint: the tail of level i is linear in the
        scale of every ratio level at or outside i.
        """
        tails = []
        G = T = None
        for lvl in reversed(self.levels):
            shape = F = None
            if lvl.ratio is not None:
                shape = F = calc.ratio_asymptotics(lvl.ratio.num_shifts,
                                                   lvl.ratio.den_shifts)
            for p in lvl.pows:
                pf = calc.pow_weight(p.k, p.shift)
                F = pf if F is None else calc.mul(F, pf)
            if F is None:
                F = calc.const(1)
            if T is not None:
                F = calc.mul(F, T if self.strict else calc.add(G, T))
            G, T = F, calc.sumtail(F, self.alternating)
            tails.append((shape, T))
        return tails

    def tail_correction(self, mc: int):
        """Remainder sum_{t>mc} of the chain, by level-by-level expansion.

        The tail series are built once, by ``ctx.tail_calc()``; at each
        checkpoint the tail of level i is scaled by w(mc+1)/shape(mc+1) of
        every ratio level at or outside i, which pins each ratio shape to
        its running weight. An alternating chain's tails are Boole tails,
        (-1)^mc times the sum.
        """
        mp = self.ctx.mp
        calc = self.ctx.tail_calc()
        if self._tails is None:
            self._tails = self._build_tails(calc)
        ratio_index = self._kernel_args[1]
        n = len(self.levels)
        scale = mp.mpf(1)
        corr = mp.mpf(0)
        for j, (shape, T) in enumerate(self._tails):
            i = n - 1 - j
            if shape is not None:
                w_next = mp.mpf(self.rvals[ratio_index[i]]) / self.S
                scale *= w_next / calc.eval_at(shape, mc + 1)
            corr += scale * (mp.mpf(self.pvals[i]) / self.S) * calc.eval_at(T, mc)
        return -corr if self.alternating and mc % 2 else corr

    # -- adaptive driver ------------------------------------------------------
    @property
    def acc(self) -> int:
        """The scaled running value of the outermost sum."""
        return self.pvals[-1]

    def run(self, tol, corrections: bool = True):
        """Evaluate to absolute tolerance tol.

        Returns (value_mpf, info) with info keys terms/tail/estimate/strategy;
        a truncation plateau raises ConvergenceError, and a tol at or below
        twice the rounding floor 10^-working_digits * max(1, |value|)
        raises DomainError.
        """
        return _run_evaluator(self, tol, corrections, "chain")


class WeightedChainEvaluator:
    """The harmonic-product series 2 * sum_{N>=1} sigma(N)/N^p * W_r(N).

    W_r(N) = [x^r] prod_{n<N}(1 + x/n) * prod_{n<=N}(1 - x/n)^-1 is
    maintained incrementally as sum_{i<=r} S(1^(r-i)) S*(1^i). The
    tail is exact: splitting both products at the last
    summed N = K gives sum_{N>K} N^-p W_r(N) = sum_a A_a * T_{r-a}(K), where
    A_a are the coefficients of the prefix products (the kernel state) and
    T_b(x) = sum_{N>x} N^-p [y^b] prod_{x<n<N} (1+y/n)/(1-y/n) / (1-y/N).
    Peeling off the smallest n of the segment, with (1+u)/(1-u) =
    1 + 2 sum_{c>=1} u^c, gives the recurrence
    T_b(x) = sum_{n>x} (n^(-p-b) + 2 sum_{c=1..b} n^-c T_{b-c}(n)).
    The alternating series signs the term at N by (-1)^(N-1); its T_b
    carry (-1)^n through the same recurrence, so each is (-1)^x times a
    Boole tail sum and the factor 2 stays. The prefactor 2 is NOT applied
    here.
    """

    def __init__(self, ctx: PrecisionContext, r: int, p: int, alternating: bool):
        if r < 0 or p < 1:
            raise DomainError(f"need r >= 0 and p >= 1, got r={r}, p={p}")
        self.ctx = ctx
        self.r = r
        self.p = p
        self.alternating = alternating
        self.memo_key = (r, p, alternating)
        S = 10 ** (ctx.working_digits + SCALE_PAD)
        self.S = S
        self.svals = [S] + [0] * r
        self.tvals = [S] + [0] * r
        self.acc = 0    # the scaled running sum; term t is the one at N = t + 1
        self.t_next = 0
        self.start = first_checkpoint(ctx)
        self._tails = None

    def advance_to(self, t_exclusive: int):
        if t_exclusive <= self.t_next:
            return
        self.acc = weighted_chain_advance(
            self.r, self.p, self.S, self.svals, self.tvals, self.acc,
            self.t_next, t_exclusive, self.alternating)
        self.t_next = t_exclusive

    def _segment_tails(self, calc):
        """[T_0, ..., T_r] as tail series in x; none depends on the checkpoint."""
        inner = [calc.pow_weight(c, 0) for c in range(1, self.r + 1)]
        tails: list = []
        for b in range(self.r + 1):
            F = calc.pow_weight(self.p + b, 0)
            for c in range(1, b + 1):
                F = calc.add(F, calc.scale(calc.mul(inner[c - 1], tails[b - c]), 2))
            tails.append(calc.sumtail(F, self.alternating))
        return tails

    def tail_correction(self, mc: int):
        """sum_{N>K} N^-p W_r(N) with K = mc + 1, the last N summed."""
        mp = self.ctx.mp
        calc = self.ctx.tail_calc()
        if self._tails is None:
            self._tails = self._segment_tails(calc)
        S, r, sv, tv = self.S, self.r, self.svals, self.tvals
        corr = mp.mpf(0)
        for a in range(r + 1):
            A = mp.mpf(sum(sv[a - i] * tv[i] for i in range(a + 1))) / (S * S)
            corr += A * calc.eval_at(self._tails[r - a], mc + 1)
        return -corr if self.alternating and mc % 2 else corr

    def run(self, tol, corrections: bool = True):
        """As ChainEvaluator.run; the value still lacks the prefactor 2."""
        return _run_evaluator(self, tol, corrections, "harmonic-product series")
