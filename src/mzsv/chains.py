"""Adaptive evaluation of nested prefix-sum chains.

Every convergent multiple series in the package (zeta-star/strict values,
the hypergeometric nested right-hand sides, the harmonic-product series)
is a chain P_i(t) = P_i(t-1) + w_i(t) * P_{i-1}(t or t-1) whose outermost
level accumulates the value. This module drives the fixed-point kernels
over such chains, and both evaluators share one run loop,
``_run_evaluator``: advance to M, add the tail, compare with the last
checkpoint, step M on. Every chain starts at t = 0, with index part k as
the level 1/(t+1)^k (``index_levels``). Every shift reaches the kernel
exactly, and each level becomes integers once, in its view
(``level_view``), from which the memo key, the suffix-tail keys, the first
checkpoint and the kernel's arguments (``kernel_levels``) all come.

* start at M = M0, take the second checkpoint a short step on, at
  M0 + ceil(M0/8), and double M from there until two successive results,
  their difference scaled by M_prev/(M - M_prev), differ by less than
  tol/2 (ctx.max_terms caps M); checkpoint M sums exactly the M terms
  t = 0 .. M-1. M0 grows with the working digits, with the tail
  expansion order, and depends on the sign (``tailcalc.expansion_plan``):
  92 at 30 digits and 268 at 100 for a plain sum, 112 and 389 for an
  alternating one;
* at each checkpoint, correct the truncation by expanding the remainder
  level-by-level into tail-polynomial sums (exact for power-law weights;
  a ratio weight uses its full asymptotic shape, whose decay exponent
  sum(den_shifts) - sum(num_shifts) the ratio itself fixes, pinned to
  the running value; the shape is built from the reduced shifts, shared
  ones cancelled and integer-step pairs taken as power passes,
  ``TailCalc.ratio_asymptotics``), so the check usually passes at its first
  comparison, the second checkpoint, instead of chasing O(1/M)
  remainders (every evaluation takes at least two checkpoints); the
  harmonic-product series splits its remainder exactly into the prefix
  state times tail sums. Each evaluator builds its tail series once, every
  ratio level at unit scale, by the tail algebra of its sign that its
  context keeps (``ctx.tail_calc(alternating)``); a checkpoint only
  rescales them. A chain's tail from level i outwards depends on its
  levels i.. alone, so an index chain takes the levels that an earlier
  chain on the context built (``TailCalc.suffix_tails``), and builds only
  the rest;
* an alternating outer sum signs term t by (-1)^t, which the kernels
  compute from t, so an evaluator keeps no sign state; its remainder expands
  the same way, with every level's tail sum taken by the Boole formula
  (the ``sumtail`` of an alternating TailCalc), since the sign of the
  outermost level carries into every level below it;
* every checkpoint runs in integers at the evaluator's scale S: the tail
  comes back as an int at S (every level sums P_i * T_i with T_i an int at
  the tail algebra's 2**bits, a ratio-scaled level's times its pins, a
  quotient of ints in which the ratio shapes' fractional powers cancel),
  and the run loop forms the value, the rounding floor, the scaled step
  and the plateau test in ints. A run converts to mpf only when it
  finishes;
* a finished run is memoised on its PrecisionContext, keyed by the
  evaluator's structure (``memo_key``: for a chain, each level's exact
  shifts and powers and each ratio's exact initial weight), tol and
  corrections, so the many identities that share a series sum it once per
  context. A hit is one lookup after a set-up that reads each level's kept
  view. A run that raises is not stored.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import NamedTuple, Optional, Tuple

from mpmath.libmp import from_int, mpf_div, mpf_mul_int, mpf_shift, to_int

from .context import HPReal, PrecisionContext, _exact_text
from .errors import ConvergenceError, DomainError
from .kernels import nested_chain_advance, weighted_chain_advance
# _iterated_means is unused here; perfbench/tracing.py wraps it by name
from .numerics import _iterated_means  # noqa: F401

SCALE_PAD = 16          # extra scaled digits absorbing floor-division bias

DIRECT = "direct"
TAIL_CORRECTED = "tail_corrected"


class Pow(NamedTuple):
    """Weight factor 1/(t + shift)^k with an exact rational shift."""
    k: int
    shift: Fraction = Fraction(0)


class _RatioFields(NamedTuple):
    num_shifts: Tuple[Fraction, ...]
    den_shifts: Tuple[Fraction, ...]
    init: Fraction


class Ratio(_RatioFields):
    """Running weight w(t+1) = w(t) * prod(t + ns) / prod(t + ds).

    ``init`` is the exact w at the chain's first t. The kernel takes each
    factor over the common denominator L of all the shifts, as the integer
    L*(t + s); the factor counts are equal, so the L's cancel. The tail
    model is w(t) ~ c * (t+1)^-rho with rho = sum(ds) - sum(ns), the decay
    the recurrence itself fixes, and c estimated at each checkpoint from
    the running value.
    """
    __slots__ = ()

    def __new__(cls, num_shifts, den_shifts, init):
        if len(num_shifts) != len(den_shifts):
            raise DomainError("ratio weight needs equally many numerator "
                              "and denominator factors")
        return tuple.__new__(cls, (num_shifts, den_shifts, init))


class Level(NamedTuple):
    """Weight of one chain level: the product of its pieces. An empty level
    has weight 1, so it is a plain prefix sum of the level below; it must
    not be the outermost level, whose tail sum would then diverge."""
    pows: Tuple[Pow, ...] = ()
    ratio: Optional[Ratio] = None


def first_checkpoint(ctx: PrecisionContext, alternating: bool, views=()) -> int:
    """The first checkpoint of a run on ctx over chain levels, given by
    their views (``level_view``, as a ChainEvaluator keeps them), with a
    plain or an alternating outer sum: M0 of ctx's tail algebra of that
    sign (``ctx.tail_calc(alternating).m0``: 92 at 30 digits and 268 at 100
    for a plain sum, 112 and 389 for an alternating one), from which its
    tail expansion holds the working digits, or the views' largest reach.
    A piece 1/(t+c)^k, or a ratio factor t + c, expands in powers of
    (c-1)/(m+1), which diverge for m below |c-1|, so a chain starts at
    2|c-1| at least. The power passes a ratio shape takes for an integer-step
    pair n, d = n + j have shifts c in [n, d), so |c-1| <= max(|n-1|, |d-1|)
    and the same start holds for them.
    """
    return max([ctx.tail_calc(alternating).m0] + [view[4] for view in views])


def _tol_mpf(ctx: PrecisionContext, tol):
    """tol as an mpf of ctx: an HPReal through ``ctx.real``, which rejects
    one of another context, and anything else as mpmath reads it."""
    return ctx.real(tol).mpf if isinstance(tol, HPReal) else ctx.mp.mpf(tol)


def _run_evaluator(ev, tol, corrections: bool, what: str):
    """The run loop of both evaluators.

    Checkpoint M sums the M terms t = 0 .. M-1 and adds the remainder after
    them (``ev.tail_correction``, an int at ev.S), unless corrections is
    off; M starts at ev.start (the ``first_checkpoint`` of its levels'
    views), M0, steps to M0 + ceil(M0/8) and then doubles, until two
    successive results differ by less than tol/2.
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
    difference no longer shrinking, diff * 1.6 > the previous one, while
    still above tolerance) means the truncation model has bottomed out,
    and raises ConvergenceError at once; so does a next checkpoint past
    ctx.max_terms, checked for the second before the first is summed.

    Every checkpoint computes in ints at scale S: E = ev.acc + tail, the
    floor max(S, |E|) // 10^working_digits, the scaled step
    |E - E_prev| * Mprev // (M - Mprev), and the plateau as
    8 * diff > 5 * diff_prev; tol/2 is rounded to S once per run. The
    value, the tail and the estimate become mpfs once, when the run
    finishes.

    Runs are memoised in ev.ctx.evaluations under (ev.memo_key, tol's raw
    mpf, corrections), tol read by ``_tol_mpf``. A hit returns the stored
    value and a copy of its info without advancing ev. What raises is never
    stored, so a repeat raises again: ConvergenceError, DomainError, and
    the DomainError of a tol that is not positive and finite, checked after
    the lookup. tol * S / 2 and the three conversions at the finish are the
    mpf operations ``tolm * S / 2`` and ``mpf(x) / S`` would make, at the
    context's (prec, rounding), taken through libmp.
    """
    ctx = ev.ctx
    mp = ctx.mp
    tolm = tol if tol is ctx.tol else _tol_mpf(ctx, tol)    # ctx.tol is an mpf of ctx
    memo = ctx.evaluations
    key = (ev.memo_key, tolm._mpf_, corrections)
    hit = memo.get(key)
    if hit is not None:
        return hit[0], dict(hit[1])
    if ev.alternating:
        what = "alternating " + what
    if not (tolm > 0 and mp.isfinite(tolm)):
        raise DomainError(f"{what}: tol must be positive and finite, got {mp.nstr(tolm, 4)}")
    digits = ctx.working_digits
    S = ev.S
    prec, rnd = mp._prec_rounding
    unit = 10 ** digits     # a value v at scale S rounds at max(S, |v|) // unit
    # tol * S / 2: the division by 2 is exact, a shift
    half = to_int(mpf_shift(mpf_mul_int(tolm._mpf_, S, prec, rnd), -1))
    M = ev.start
    nxt = M - (-M // 8)     # M + ceil(M/8) in ints: M may pass a float
    if nxt > ctx.max_terms:
        raise ConvergenceError(
            f"{what}: its first two checkpoints, M = {_exact_text(M)} and "
            f"{_exact_text(nxt)}, exceed max_terms={ctx.max_terms}")
    prev = dprev = None
    tail = 0
    while True:
        ev.advance_to(M)
        if corrections:
            tail = ev.tail_correction(M - 1)
        E = ev.acc + tail
        rounding = max(S, abs(E)) // unit
        if rounding >= half:
            raise DomainError(
                f"{what}: tolerance {mp.nstr(tolm, 4)} is below the rounding "
                f"floor {mp.nstr(mp.mpf(rounding) / S, 4)} of {digits} working "
                f"digits; raise the precision")
        if prev is not None:
            # the step difference scaled by Mprev/(M - Mprev), exact for a
            # doubling; E adds the tail to the partial sum, and where both
            # far exceed E (a long alternating sum with large terms), each
            # rounds at its own size
            step = abs(E - prev) * Mprev // (M - Mprev)
            diff = max(step, rounding, abs(tail) // unit)
            if diff < half:
                Sv = from_int(S)
                value, tailv, estimate = (
                    mp.make_mpf(mpf_div(from_int(x, prec, rnd), Sv, prec, rnd))
                    for x in (E, tail, diff))
                info = {"terms": M, "tail": tailv, "estimate": estimate,
                        "strategy": TAIL_CORRECTED if corrections else DIRECT}
                memo[key] = (value, info)
                return value, dict(info)
            if dprev is not None and 8 * diff > 5 * dprev:
                raise ConvergenceError(
                    f"{what}: truncation error plateaued at "
                    f"{mp.nstr(mp.mpf(diff) / S, 4)} above tolerance {mp.nstr(tolm, 4)}")
            dprev = diff
        prev, Mprev = E, M
        if nxt > ctx.max_terms:
            raise ConvergenceError(
                f"{what}: not stabilized below {mp.nstr(tolm, 4)} within "
                f"max_terms={ctx.max_terms} (last M={M})")
        M, nxt = nxt, 2 * nxt


def index_levels(parts):
    """The chain levels of an index, innermost first: part k is 1/(t+1)^k."""
    return [_index_level(k) for k in parts]


@lru_cache(maxsize=None)
def _index_level(k: int) -> Level:
    """The level 1/(t+1)^k, built once per k: a Level is immutable."""
    return Level(pows=(Pow(k, Fraction(1)),))


@lru_cache(maxsize=1024)
def level_view(lvl: Level):
    """A level's exact integers, kept for the last levels met: (pieces,
    ratio numerator factors, ratio denominator factors, init, reach), a
    piece 1/(t + a/b)^k, a/b in lowest terms, as (a, k, b), a ratio factor
    t + s as (s*L, L), L the lcm of its ratio's shift denominators, init
    the ratio's initial weight as (numerator, denominator), the three None
    with no ratio, and reach ceil(2|c-1|) over the shifts c, or 0, in ints:
    ceil(2|a-b|/b) for a piece and ceil(2|A-L|/L) for a factor (A, L)."""
    pows = tuple((p.shift.numerator, p.k, p.shift.denominator) for p in lvl.pows)
    factors = [(a, b) for a, _, b in pows]
    nums = dens = init = None
    r = lvl.ratio
    if r is not None:
        L = lcm(*(s.denominator for s in r.num_shifts + r.den_shifts))
        nums = tuple((s.numerator * (L // s.denominator), L) for s in r.num_shifts)
        dens = tuple((s.numerator * (L // s.denominator), L) for s in r.den_shifts)
        init = (r.init.numerator, r.init.denominator)
        factors += nums + dens
    return pows, nums, dens, init, max((-(-2 * abs(a - b) // b) for a, b in factors), default=0)


def kernel_levels(levels, S: int, strict: bool):
    """The kernel's view of a chain at scale S, from its levels' views:
    ((level_pows, level_ratio, ratio_nums, ratio_dens), rvals), the leading
    arguments of ``nested_chain_advance`` and the ratio weights at t = 0,
    each rounded to the nearest multiple of 1/S, ties to even."""
    return _kernel_from_views([level_view(lvl) for lvl in levels], S, strict)


def _kernel_from_views(views, S: int, strict: bool):
    level_ratio, ratio_nums, ratio_dens, rvals = [], [], [], []
    for _, nums, dens, init, _ in views:
        if init is None:
            level_ratio.append(-1)
            continue
        if strict:
            raise DomainError("ratio weights are only supported on weak-order chains")
        level_ratio.append(len(rvals))
        ratio_nums.append(nums)
        ratio_dens.append(dens)
        q, rem = divmod(init[0] * S, init[1])      # round(init * S), ties to even
        rvals.append(q + (2 * rem + (q & 1) > init[1]))
    return (tuple([v[0] for v in views]), tuple(level_ratio), tuple(ratio_nums),
            tuple(ratio_dens)), rvals


class ChainEvaluator:
    """One chain over t = 0, 1, ..., evaluated adaptively and resumably.
    ``memo_key`` (the views, strict and the sign), the kernel's arguments,
    ``rvals`` and ``start`` come from its levels' views (``level_view``)."""

    def __init__(self, ctx: PrecisionContext, levels, strict: bool = False,
                 alternating: bool = False):
        if strict and alternating:
            raise DomainError("strict chains with alternating outer sums are unsupported")
        self.ctx = ctx
        self.levels = list(levels)
        self.strict = strict
        self.alternating = alternating
        if not self.levels:
            raise DomainError("chain needs at least one level")
        S = 10 ** (ctx.working_digits + SCALE_PAD)
        self.S = S
        views = tuple(map(level_view, self.levels))
        self.memo_key = (views, strict, alternating)
        self._kernel_args, self.rvals = _kernel_from_views(views, S, strict)
        self.pvals = [S] + [0] * len(views)
        self.t_next = 0
        self._tails = None

    @property
    def start(self) -> int:
        return first_checkpoint(self.ctx, self.alternating, self.memo_key[0])

    # -- kernel driving -------------------------------------------------------
    def advance_to(self, t_exclusive: int):
        if t_exclusive <= self.t_next:
            return
        nested_chain_advance(*self._kernel_args, self.S, self.pvals, self.rvals,
                             self.t_next, t_exclusive, self.strict, self.alternating)
        self.t_next = t_exclusive

    # -- tail corrections -----------------------------------------------------
    def _build_tails(self, calc):
        """Per level, outermost first: (ratio shape or None, tail series,
        the sum k of the power pieces at or outside the level).

        Each ratio level enters at unit scale (its shape), so no series
        depends on the checkpoint: the tail of level i is linear in the
        scale of every ratio level at or outside i. Level i's entry
        depends only on levels[i:] and the order, so it is kept in
        ``calc.suffix_tails`` under their shifts (``level_view``, not a
        ratio's init: its shape is at unit scale) and strict, with the
        series the next level inwards multiplies by: T (strict) or G + T
        (weak), G the summand of T.
        The summand is the ratio shape times that series, times each power
        piece in turn (``TailCalc.pow_weight`` with its tail), so the only
        dense product is the one of a ratio level with a level outside it.
        The shape itself comes from the ratio's reduced shifts, and levels
        whose ratios reduce alike share it (``TailCalc.ratio_asymptotics``).
        """
        tails = []
        inner = None
        k = 0
        for i in range(len(self.levels) - 1, -1, -1):
            lvl = self.levels[i]
            k += sum(p.k for p in lvl.pows)
            key = (tuple(view[:3] for view in self.memo_key[0][i:]), self.strict)
            entry = calc.suffix_tails.get(key)
            if entry is None:
                shape = F = None
                if lvl.ratio is not None:
                    shape = F = calc.ratio_asymptotics(lvl.ratio.num_shifts,
                                                       lvl.ratio.den_shifts)
                if inner is not None:
                    F = inner if F is None else calc.mul(F, inner)
                for p in lvl.pows:
                    F = calc.pow_weight(p.k, p.shift, F)
                if F is None:
                    F = calc.const(1)
                T = calc.sumtail(F)
                entry = calc.suffix_tails[key] = (
                    shape, T, T if self.strict else calc.add(F, T))
            shape, T, inner = entry
            tails.append((shape, T, k))
        return tails

    def tail_correction(self, mc: int) -> int:
        """Remainder sum_{t>mc} of the chain at scale S, by level-by-level
        expansion, in integers. It reads the inner prefix values, all of
        pvals but the last, as the state at mc.

        The tail series are built once per context, by the TailCalc of the
        chain's sign (``_build_tails``); at the checkpoint M = mc + 1 the
        tail of level i is scaled by w(M)/shape(M) of every ratio level at
        or outside i, which pins each ratio shape to its running weight.
        The shape is read at mc, as the tails are, through the ratio's own
        step R(t) = prod(t + n_j) / prod(t + d_j):
        w(M)/shape(M) = w(M) prod(mc + d_j) / (prod(mc + n_j) shape(mc)),
        each factor the kernel's int A + mc*L. ``TailCalc.eval_at`` gives
        every tail and shape at 2**bits without its power M**rho, and the
        fractional powers cancel: rho(T_i) less the rho of the pinned
        shapes is k, the power pieces at or outside level i. So level i
        adds P_i * floor(T_i * pins / M**k) at scale S * 2**bits, the pins
        one running quotient of ints (1/1 outside every ratio level, where
        this is a power level's one floor), and a shift ends the sum. An
        alternating chain's tails are Boole tails, (-1)^mc times the sum.
        """
        calc = self.ctx.tail_calc(self.alternating)
        if self._tails is None:
            self._tails = self._build_tails(calc)
        pv = self.pvals
        n = len(pv) - 1
        _, level_ratio, ratio_nums, ratio_dens = self._kernel_args
        M = mc + 1
        acc = 0             # at scale S * 2**bits
        num = den = 1       # the pins at or outside the level
        for j, (shape, T, k) in enumerate(self._tails):
            i = n - 1 - j
            if shape is not None:
                r = level_ratio[i]
                num *= self.rvals[r] * prod(A + mc * L for A, L in ratio_dens[r]) << calc.bits
                den *= (self.S * prod(A + mc * L for A, L in ratio_nums[r])
                        * calc.eval_at(shape, mc))
            acc += pv[i] * (calc.eval_at(T, mc) * num // (den * M ** k))
        corr = acc >> calc.bits
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
        self.start = ctx.tail_calc(alternating).m0
        self._tails = None

    def advance_to(self, t_exclusive: int):
        if t_exclusive <= self.t_next:
            return
        self.acc = weighted_chain_advance(
            self.r, self.p, self.S, self.svals, self.tvals, self.acc,
            self.t_next, t_exclusive, self.alternating)
        self.t_next = t_exclusive

    def _segment_tails(self, calc):
        """[T_0, ..., T_r] as tail series in x. None depends on the
        checkpoint or on r, so the TailCalc keeps them per p
        (``calc.segment_tails``), and a larger r only extends the list."""
        tails = calc.segment_tails.setdefault(self.p, [])
        for b in range(len(tails), self.r + 1):
            F = calc.pow_weight(self.p + b, 0)
            for c in range(1, b + 1):
                F = calc.add(F, calc.scale(calc.pow_weight(c, 0, tails[b - c]), 2))
            tails.append(calc.sumtail(F))
        return tails

    def tail_correction(self, mc: int) -> int:
        """sum_{N>K} N^-p W_r(N) at scale S, with K = mc + 1, the last N
        summed: sum_a A_a * T_{r-a}(K), A_a at scale S^2 and each T at
        2**bits, divided once by S * 2**bits. T_b has rho = p + b, so
        ``TailCalc.eval_at`` gives T_b(K) (K+1)**(p+b), and one floor
        divides it by that power."""
        calc = self.ctx.tail_calc(self.alternating)
        if self._tails is None:
            self._tails = self._segment_tails(calc)
        r, sv, tv = self.r, self.svals, self.tvals
        n = mc + 2
        acc = 0
        for a in range(r + 1):
            A = sum(sv[a - i] * tv[i] for i in range(a + 1))
            acc += A * (calc.eval_at(self._tails[r - a], mc + 1) // n ** (self.p + r - a))
        corr = acc // (self.S << calc.bits)
        return -corr if self.alternating and mc % 2 else corr

    def run(self, tol, corrections: bool = True):
        """As ChainEvaluator.run; the value still lacks the prefactor 2."""
        return _run_evaluator(self, tol, corrections, "harmonic-product series")
