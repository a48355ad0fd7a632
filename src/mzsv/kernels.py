"""Fixed-point summation kernels: pure-Python integer pipelines.

All kernels operate on Python integers scaled by a power of ten S: the int
``v`` represents the real number ``v / S``. Floor divisions introduce at
most one unit of error in the last scaled digit per operation, which the
callers absorb in their guard digits. Every kernel is resumable: advancing
over [t0, t1) and then [t1, t2) leaves the same state as one call over
[t0, t2).

Kernel state conventions:

* ``nested_chain_advance`` drives a chain of prefix sums
  ``P_i(t) = P_i(t-1) + w_i(t) * P_{i-1}(t)`` (weak/star order) or
  ``P_i(t) = P_i(t-1) + w_i(t) * P_{i-1}(t-1)`` (strict order), with
  ``P_0 = 1`` and the outermost level accumulating into ``pvals[n]``.
  Level weights are products of power pieces ``1/(t+c)^k`` and at most one
  ratio-updated piece ``w(t+1) = w(t) * prod(t + n_j) / prod(t + d_j)``.
  Every shift reaches the kernel exactly: c = a/b in lowest terms as the
  piece (a, k, b), whose division is ``contrib * b^k // (b*t + a)^k``, the
  floor of contrib/(t+c)^k; a ratio factor t + s as (s*L, L), the integer
  factor L*(t + s), with L the common denominator of that ratio's shifts.
  A ratio has as many numerator as denominator factors, so the L's cancel;
  a ratio with no factors keeps its weight.

* Both kernels are level-major: they take t in blocks [b0, b1) of
  ``BLOCK`` terms and advance each level over a whole block before the
  next one. A level is one lazy chain of C-level iterators:
  ``map(operator.floordiv, ...)`` and ``map(operator.mul, ...)`` over an
  ``itertools.islice`` of the previous level's prefix column
  ``P_{i-1}(b0-1), ..., P_{i-1}(b1-1)``. Weak order reads that column from
  offset 1 (``islice(col, 1, None)``), strict order from offset 0
  (``islice(col, 0, n)``, which must stop at n: an empty level adds no
  iterator that would). Only the prefix column that the next level reads
  is materialised, as ``list(accumulate(c, initial=P_i(b0-1)))``; the
  outermost level adds ``sum(c)`` straight into ``pvals[n]``, and an
  alternating one adds its even-t entries and subtracts its odd-t ones.
  Per block the nested kernel first builds each ratio weight's column,
  which leaves ``rvals`` at the block's end: one column of factor products
  per side (``map(mul, ...)`` over ``range`` columns), then the two-step
  recurrence ``w = w * num // den``. Every (t, level) takes the same floor
  divisions in the same order as a loop over t would, so the state is
  bit-identical whatever the block boundaries, and a call keeps
  O(depth * BLOCK) integers whatever the length of its range. The split
  of each level's pieces is kept per chain shape (``_level_table``), so a
  short call does not rebuild it.

* A divisor ``(t+c)^k`` with an integer c is split into one-digit factors.
  With q = t + c, the kernel divides by q once if k is odd, then by q*q
  k//2 times. Every divisor after the first is positive, and
  floor(floor(x/a)/b) = floor(x/(a*b)) for an integer b > 0, so the state
  is bit-identical to one division by q^k for any sign of the contribution
  or of q. While q < 2^15, q*q fits in one 30-bit CPython digit, and
  CPython divides by a one-digit int on its short-division path:
  ``x // qq // qq`` takes about 0.6 of the time of ``x // q**4`` on
  CPython 3.11, power included. Each block builds one q column (a
  ``range``) per shift and one q*q column, ``map(mul, qs, qs)``, per shift
  that some level divides by q*q; all levels share them, and each division
  is one ``map(floordiv, ...)`` stage. The leading piece of a level takes
  this split when its shift is an integer; every other piece keeps the
  single division, since moving a piece past a fractional one would change
  its floors. ``weighted_chain_advance`` splits ``(t+1)^p`` the same way.

* ``weighted_chain_advance`` accumulates
  ``sum_t sigma(t)/(t+1)^p * sum_{i<=r} S_t(1^(r-i)) S*_t(1^i)``
  from the one-part harmonic chains: per block, the prefix columns of the
  weak chain ``S*_t(1^j) = S*_{t-1}(1^j) + S*_t(1^(j-1)) // (t+1)`` and of
  the strict chain ``S_t(1^j) = S_{t-1}(1^j) + S_{t-1}(1^(j-1)) // (t+1)``,
  then the column of products W, summed by ``map(add, ...)``, divided by S
  and by (t+1)^p.

An alternating sum signs term t by (-1)^t, computed from t itself, so a
kernel carries no sign between calls.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, islice, repeat
from operator import add, floordiv, mul

BACKEND = "python"
# 1024 ran the kernel calls of finite_sums_30d 5-8 % faster than 256, and
# 2048 ran slower again; one block column of 46-digit ints takes ~57 KB
BLOCK = 1024


def _signed_sum(c, b0, alt):
    """Sum of column c over t = b0, b0+1, ...; alt subtracts the odd-t entries."""
    if not alt:
        return sum(c)
    c = list(c)
    return sum(c[b0 & 1::2]) - sum(c[1 - (b0 & 1)::2])


def _factor_column(factors, b0, b1):
    """prod(A + t*L) over the factors, per t in [b0, b1); None if no factors."""
    col = None
    for A, L in factors:
        f = range(A + b0 * L, A + b1 * L, L)
        col = f if col is None else map(mul, col, f)
    return col


@lru_cache(maxsize=512)
def _level_table(level_pows, level_ratio):
    """Per level (ratio index, a, k, other pieces), with (a, k) the leading
    integer-shift piece (k = 0 if there is none) and the other pieces as
    (a, k, b, b^k); and per integer shift a, whether a level divides by
    (t + a)^2."""
    table = []
    for pieces, ridx in zip(level_pows, level_ratio):
        a = k = 0
        if pieces and pieces[0][2] == 1:
            (a, k, _), pieces = pieces[0], pieces[1:]
        rest = tuple((ap, kp, bp, bp ** kp) for ap, kp, bp in pieces)
        table.append((ridx, a, k, rest))
    shifts = {}
    for _, a, k, _ in table:
        if k:
            shifts[a] = shifts.get(a, False) or k > 1
    return tuple(table), tuple(shifts.items())


def nested_chain_advance(level_pows, level_ratio, ratio_nums, ratio_dens,
                         S, pvals, rvals, t0, t1, strict, alt):
    """Advance the chain over t in [t0, t1); mutates pvals/rvals.

    level_pows: per level, tuple of (a, k, b): divisor (t + a/b)^k, with a/b
                in lowest terms and b > 0.
    level_ratio: per level, index into rvals or -1.
    ratio_nums/ratio_dens: per ratio, tuple of (A, L): factor A + t*L, with
                one L for all factors of a ratio.
    pvals: [S, P_1, ..., P_{n-1}, acc]; rvals: scaled ratio weights at t0.
    strict: level i reads P_{i-1}(t-1) instead of P_{i-1}(t).
    alt: the outermost level subtracts the terms at odd t.

    Per block, each level is a pipeline of ``map`` stages over the previous
    level's prefix column; see the module docstring.
    """
    table, shifts = _level_table(level_pows, level_ratio)
    outer = len(table)
    for b0 in range(t0, t1, BLOCK):
        b1 = min(b0 + BLOCK, t1)
        n = b1 - b0
        # each ratio's weight at every t of the block, leaving rvals at its end
        rcols = []
        for j, (nums, dens) in enumerate(zip(ratio_nums, ratio_dens)):
            w = rvals[j]
            if not nums:
                rcols.append([w] * n)
                continue
            wcol = []
            append = wcol.append
            for num, den in zip(_factor_column(nums, b0, b1),
                                _factor_column(dens, b0, b1)):
                append(w)
                w = w * num // den
            rcols.append(wcol)
            rvals[j] = w
        # one t + a and one (t + a)^2 column per integer shift, for all levels
        qs = {}
        qqs = {}
        for a, squared in shifts:
            q = qs[a] = range(b0 + a, b1 + a)
            if squared:
                qqs[a] = list(map(mul, q, q))
        # the prefix column P_{i-1}(b0 - 1), ..., P_{i-1}(b1 - 1); P_0 = S
        col = [pvals[0]] * (n + 1)
        for i, (ridx, a, k, rest) in enumerate(table, 1):
            c = islice(col, 0, n) if strict else islice(col, 1, None)
            if ridx >= 0:
                c = map(floordiv, map(mul, c, rcols[ridx]), repeat(S))
            if k & 1:
                c = map(floordiv, c, qs[a])
            for _ in range(k >> 1):
                c = map(floordiv, c, qqs[a])
            for ap, kp, bp, bk in rest:
                if bk != 1:
                    c = map(mul, c, repeat(bk))
                c = map(floordiv, c, map(pow, range(bp * b0 + ap, bp * b1 + ap, bp),
                                         repeat(kp)))
            if i == outer:
                pvals[i] += _signed_sum(c, b0, alt)
            else:
                col = list(accumulate(c, initial=pvals[i]))
                pvals[i] = col[-1]


def weighted_chain_advance(r, p, S, svals, tvals, acc, t0, t1, alt):
    """Advance the harmonic-product series over t in [t0, t1).

    svals[j] ~ S_t(1^j), tvals[j] ~ S*_t(1^j) (scaled); acc is the scaled
    running sum at t0. Returns the running sum at t1.

    Per block: the prefix columns of both harmonic chains, each level one
    ``accumulate`` over a ``map`` of the level below, then the column W(t) =
    sum_i S_{t-1}(1^(r-i)) S*_t(1^i) // S, divided by (t+1)^p.
    """
    for b0 in range(t0, t1, BLOCK):
        b1 = min(b0 + BLOCK, t1)
        n = b1 - b0
        us = range(b0 + 1, b1 + 1)
        # S*_{t-1}(1^j), S*_t(1^j) for the block's t: weak, read from offset 1
        tcols = [[tvals[0]] * (n + 1)]
        for j in range(1, r + 1):
            col = list(accumulate(map(floordiv, islice(tcols[-1], 1, None), us),
                                  initial=tvals[j]))
            tvals[j] = col[-1]
            tcols.append(col)
        # S_{t-1}(1^j), S_t(1^j): strict, read from offset 0
        scols = [[svals[0]] * (n + 1)]
        for j in range(1, r + 1):
            col = list(accumulate(map(floordiv, islice(scols[-1], 0, n), us),
                                  initial=svals[j]))
            svals[j] = col[-1]
            scols.append(col)
        W = map(mul, islice(scols[r], 0, n), islice(tcols[0], 1, None))
        for i in range(1, r + 1):
            W = map(add, W, map(mul, islice(scols[r - i], 0, n),
                                islice(tcols[i], 1, None)))
        c = map(floordiv, W, repeat(S))
        # W // u**p split as in nested_chain_advance; u > 0
        if p & 1:
            c = map(floordiv, c, us)
        if p > 1:
            uus = list(map(mul, us, us))
            for _ in range(p >> 1):
                c = map(floordiv, c, uus)
        acc += _signed_sum(c, b0, alt)
    return acc
