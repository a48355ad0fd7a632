"""Adaptive evaluation of nested prefix-sum chains.

Every convergent multiple series in the package (zeta-star/strict values,
the hypergeometric nested right-hand sides, the harmonic-product series)
is a chain P_i(t) = P_i(t-1) + w_i(t) * P_{i-1}(t or t-1) whose outermost
level accumulates the value. This module drives the fixed-point kernels
over such chains with the truncation policy:

* start at M = 10^4 and double M until two successive results differ by
  less than tol/2 (ctx.max_terms caps the doubling);
* at each checkpoint, correct the truncation by expanding the remainder
  level-by-level into tail-polynomial sums (exact for power-law weights;
  ratio weights use their full asymptotic shape pinned to the running
  value), so the doubling check usually passes at its first comparison,
  the second checkpoint, instead of chasing O(1/M) remainders (every
  evaluation takes at least two checkpoints);
* alternating outer sums skip tail corrections and instead extrapolate a
  window of partial sums by iterated averaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .context import PrecisionContext
from .errors import ConvergenceError, DomainError
from .kernels import nested_chain_advance, weighted_chain_advance
from .numerics import _iterated_means
from .tailcalc import TailCalc

SCALE_PAD = 16          # extra scaled digits absorbing floor-division bias
DEFAULT_START = 10_000  # first truncation checkpoint
ALT_START = 512         # first checkpoint for alternating outer sums
ALT_WINDOW = 40         # averaging window length

DIRECT = "direct"
TAIL_CORRECTED = "tail_corrected"
ALT_ACCELERATED = "alternating_accelerated"


@dataclass(frozen=True)
class Pow:
    """Weight factor 1/(t + shift)^k with an exact rational shift."""
    k: int
    shift: Fraction = Fraction(0)


@dataclass(frozen=True)
class Ratio:
    """Running weight w(t+1) = w(t) * prod(t + ns) / prod(t + ds).

    ``init`` is the exact w at the chain's first t. The tail model assumes
    w(t) ~ c * (t+1)^(-model_rho) with c estimated at each checkpoint from
    the running value.
    """
    num_shifts: Tuple[Fraction, ...]
    den_shifts: Tuple[Fraction, ...]
    init: Fraction
    model_rho: object = 1

    def __post_init__(self):
        if len(self.num_shifts) != len(self.den_shifts):
            raise DomainError("ratio weight needs equally many numerator "
                              "and denominator factors")


@dataclass(frozen=True)
class Level:
    pows: Tuple[Pow, ...] = ()
    ratio: Optional[Ratio] = None


def _to_mpf(mp, x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _scaled(value, S: int) -> int:
    """Round value * S to the nearest integer (value: Fraction or int)."""
    fr = value if isinstance(value, Fraction) else Fraction(value)
    q, r = divmod(fr.numerator * S, fr.denominator)
    if 2 * r >= fr.denominator:
        q += 1
    return q


def _adaptive_drive(mp, tolm, start, max_terms, checkpoint, strategy,
                    relax=None, what="series"):
    """Doubling driver shared by all evaluators.

    checkpoint(M) must advance state and return (E, tail, extra_est).
    Stops when two successive results differ by < tol/2. A plateau (the
    difference no longer shrinking while still above tolerance) means the
    truncation model has bottomed out: with `relax` set, the value is
    returned with its honest estimate as long as it is within relax*tol,
    otherwise ConvergenceError is raised.
    """
    M = start
    prev = None
    dprev = None
    while True:
        E, tail, extra = checkpoint(M)
        if prev is not None:
            diff = max(abs(E - prev), extra)
            if diff < tolm / 2:
                return E, {"terms": M, "tail": tail, "estimate": diff,
                           "strategy": strategy}
            plateau = dprev is not None and diff * mp.mpf("1.6") > dprev
            if plateau:
                if relax is not None and diff <= relax * tolm:
                    return E, {"terms": M, "tail": tail, "estimate": diff,
                               "strategy": strategy}
                raise ConvergenceError(
                    f"{what}: truncation error plateaued at {mp.nstr(diff, 4)} "
                    f"above tolerance {mp.nstr(tolm, 4)}")
            dprev = diff
        prev = E
        if 2 * M > max_terms:
            raise ConvergenceError(
                f"{what}: not stabilized below {mp.nstr(tolm, 4)} within "
                f"max_terms={max_terms} (last M={M})")
        M *= 2


class ChainEvaluator:
    """Evaluate one chain adaptively; resumable across doubling checkpoints."""

    def __init__(self, ctx: PrecisionContext, levels, t_start: int = 1,
                 strict: bool = False, alternating: bool = False):
        if strict and alternating:
            raise DomainError("strict chains with alternating outer sums are unsupported")
        self.ctx = ctx
        self.levels = list(levels)
        self.strict = strict
        self.alternating = alternating
        self.t_start = t_start
        n = len(self.levels)
        if n < 1:
            raise DomainError("chain needs at least one level")
        S = 10 ** (ctx.working_digits + SCALE_PAD)
        self.S = S
        level_pows = []
        level_ratio = []
        ratio_nums = []
        ratio_dens = []
        rvals = []
        for lvl in self.levels:
            pieces = []
            for p in lvl.pows:
                if p.shift == 0:
                    pieces.append((0, p.k, 0))
                else:
                    pieces.append((_scaled(p.shift, S), p.k, S ** p.k))
            level_pows.append(tuple(pieces))
            if lvl.ratio is None:
                level_ratio.append(-1)
            else:
                if strict:
                    raise DomainError("ratio weights are only supported on weak-order chains")
                r = lvl.ratio
                level_ratio.append(len(rvals))
                ratio_nums.append(tuple(_scaled(s, S) for s in r.num_shifts))
                ratio_dens.append(tuple(_scaled(s, S) for s in r.den_shifts))
                rvals.append(_scaled(r.init, S))
        self._kernel_args = (tuple(level_pows), tuple(level_ratio),
                             tuple(ratio_nums), tuple(ratio_dens))
        self.pvals = [S] + [0] * n
        self.rvals = rvals
        self.t_next = t_start
        self.sign_next = 1
        self._calc = None
        self._ratio_shapes: dict = {}
        self._outer_tails = None

    # -- kernel driving -------------------------------------------------------
    def advance_to(self, t_exclusive: int, window=None, win_start: int = 0):
        if t_exclusive <= self.t_next:
            return
        lp, lr, rn, rd = self._kernel_args
        self.sign_next = nested_chain_advance(
            lp, lr, rn, rd, self.S, self.pvals, self.rvals,
            self.t_next, t_exclusive, self.strict, self.alternating,
            self.sign_next, window, win_start)
        self.t_next = t_exclusive

    # -- tail corrections -----------------------------------------------------
    def _calc_instance(self) -> TailCalc:
        if self._calc is None:
            self._calc = TailCalc(self.ctx.mp)
        return self._calc

    def _level_series(self, calc: TailCalc, lvl: Level, ridx: int, mc: int):
        mp = self.ctx.mp
        F = None
        if lvl.ratio is not None:
            shape = self._ratio_shapes.get(ridx)
            if shape is None:
                rho = _to_mpf(mp, lvl.ratio.model_rho)
                shape = calc.ratio_asymptotics(
                    [_to_mpf(mp, x) for x in lvl.ratio.num_shifts],
                    [_to_mpf(mp, x) for x in lvl.ratio.den_shifts], rho)
                self._ratio_shapes[ridx] = shape
            # pin the free scale to the running weight at t = mc + 1
            w_next = mp.mpf(self.rvals[ridx]) / self.S
            F = calc.scale(shape, w_next / calc.eval_at(shape, mc + 1))
        for p in lvl.pows:
            pf = calc.pow_weight(p.k, _to_mpf(mp, p.shift))
            F = pf if F is None else calc.mul(F, pf)
        return F

    def _next_tail(self, calc: TailCalc, i: int, mc: int, above):
        """(F_i, sumtail(F_i)) for level i, given the pair of level i+1 (or None)."""
        F = self._level_series(calc, self.levels[i], self._kernel_args[1][i], mc)
        if above is not None:
            G, T = above
            F = calc.mul(F, T if self.strict else calc.add(G, T))
        return F, calc.sumtail(F)

    def tail_correction(self, mc: int):
        """Remainder sum_{t>mc} of the chain, by level-by-level expansion.

        The remainder series are composed from the outermost level inward.
        Those of the outer run of power-only levels do not depend on mc, so
        they are built at the first checkpoint and reused.
        """
        calc = self._calc_instance()
        mp = self.ctx.mp
        n = len(self.levels)
        fixed = self._outer_tails
        if fixed is None:
            fixed = self._outer_tails = []
            for i in range(n - 1, -1, -1):
                if self.levels[i].ratio is not None:
                    break
                fixed.append(self._next_tail(calc, i, mc, fixed[-1] if fixed else None))
        pairs = list(fixed)
        for i in range(n - 1 - len(fixed), -1, -1):
            pairs.append(self._next_tail(calc, i, mc, pairs[-1] if pairs else None))
        corr = mp.mpf(0)
        for j, (_, T) in enumerate(pairs):
            corr += mp.mpf(self.pvals[n - 1 - j]) / self.S * calc.eval_at(T, mc)
        return corr

    # -- adaptive driver ------------------------------------------------------
    def run(self, tol, corrections: bool = True, relax=None):
        """Evaluate to absolute tolerance tol.

        Returns (value_mpf, info) with info keys terms/tail/estimate/strategy.
        With `relax`, a truncation plateau within relax*tol is returned with
        its honest estimate instead of raising ConvergenceError.
        """
        mp = self.ctx.mp
        tolm = mp.mpf(tol)
        floor = mp.mpf(10) ** (-(self.ctx.working_digits + 4))
        if self.alternating:
            def checkpoint(count):
                window: list = []
                t_end = self.t_start + count
                self.advance_to(t_end, window=window, win_start=t_end - ALT_WINDOW)
                row = [mp.mpf(v) / self.S for v in window]
                E, spread = _iterated_means(mp, row)
                return E, mp.mpf(0), spread + floor * max(1, abs(E))

            return _adaptive_drive(mp, tolm, ALT_START, self.ctx.max_terms,
                                   checkpoint, ALT_ACCELERATED, relax=relax,
                                   what="alternating chain")

        def checkpoint(M):
            self.advance_to(self.t_start + M)
            mc = self.t_start + M - 1
            tail = self.tail_correction(mc) if corrections else mp.mpf(0)
            E = mp.mpf(self.pvals[-1]) / self.S + tail
            return E, tail, floor * max(1, abs(E))

        start = max(500, min(DEFAULT_START, self.ctx.max_terms // 2))
        return _adaptive_drive(mp, tolm, start, self.ctx.max_terms, checkpoint,
                               TAIL_CORRECTED if corrections else DIRECT,
                               relax=relax, what="chain")


class WeightedChainEvaluator:
    """The harmonic-product series 2 * sum sigma(m)/(m+1)^p * W_r(m).

    W_r(m) = sum_{i<=r} S_m(1^(r-i)) S*_m(1^i) is maintained incrementally;
    the non-alternating tail uses the exact outer power series plus a
    one-over-(m+1) model for the increments of W_r (the prefactor 2 is NOT
    applied here).
    """

    def __init__(self, ctx: PrecisionContext, r: int, p: int, alternating: bool):
        if r < 0 or p < 1:
            raise DomainError(f"need r >= 0 and p >= 1, got r={r}, p={p}")
        self.ctx = ctx
        self.r = r
        self.p = p
        self.alternating = alternating
        S = 10 ** (ctx.working_digits + SCALE_PAD)
        self.S = S
        self.svals = [S] + [0] * r
        self.tvals = [S] + [0] * r
        self.accbox = [0, 0, 0]
        self.t_next = 0
        self.sign_next = 1
        self._calc = None
        self._outer = None

    def advance_to(self, t_exclusive: int, window=None, win_start: int = 0):
        if t_exclusive <= self.t_next:
            return
        self.sign_next = weighted_chain_advance(
            self.r, self.p, self.S, self.svals, self.tvals, self.accbox,
            self.t_next, t_exclusive, self.alternating, self.sign_next,
            window, win_start)
        self.t_next = t_exclusive

    def tail_correction(self, mc: int):
        if self._calc is None:
            calc = self._calc = TailCalc(self.ctx.mp)
            # the outer power series and its tail sum do not depend on mc
            F1 = calc.pow_weight(self.p, self.ctx.mp.mpf(1))
            T1 = calc.sumtail(F1)
            self._outer = (T1, calc.add(F1, T1))
        calc = self._calc
        T1, F1T1 = self._outer
        mp = self.ctx.mp
        w_last = mp.mpf(self.accbox[2]) / self.S
        corr = w_last * calc.eval_at(T1, mc)
        dW = (mp.mpf(self.accbox[2]) - mp.mpf(self.accbox[1])) / self.S
        if dW:
            model = calc.scale(calc.pow_weight(1, mp.mpf(1)), dW * (mc + 1))
            F2 = calc.mul(model, F1T1)
            corr += calc.eval_at(calc.sumtail(F2), mc)
        return corr

    def run(self, tol, corrections: bool = True, relax=None):
        mp = self.ctx.mp
        tolm = mp.mpf(tol)
        floor = mp.mpf(10) ** (-(self.ctx.working_digits + 4))
        if self.alternating:
            def checkpoint(count):
                window: list = []
                self.advance_to(count, window=window, win_start=count - ALT_WINDOW)
                row = [mp.mpf(v) / self.S for v in window]
                E, spread = _iterated_means(mp, row)
                return E, mp.mpf(0), spread + floor * max(1, abs(E))

            return _adaptive_drive(mp, tolm, ALT_START, self.ctx.max_terms,
                                   checkpoint, ALT_ACCELERATED, relax=relax,
                                   what="alternating harmonic-product series")

        def checkpoint(M):
            self.advance_to(M + 1)
            tail = self.tail_correction(M) if corrections else mp.mpf(0)
            E = mp.mpf(self.accbox[0]) / self.S + tail
            return E, tail, floor * max(1, abs(E))

        start = max(500, min(DEFAULT_START, self.ctx.max_terms // 2))
        return _adaptive_drive(mp, tolm, start, self.ctx.max_terms, checkpoint,
                               TAIL_CORRECTED if corrections else DIRECT,
                               relax=relax, what="harmonic-product series")
