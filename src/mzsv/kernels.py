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
  O(depth * BLOCK) integers whatever the length of its range.

* Every power piece, in either kernel, takes one split path (``_divide``).
  With q = b*t + a, the kernel multiplies by b^k when b != 1, then divides
  by q once if k is odd and by q*q k//2 times. Every divisor after the
  first is positive, and floor(floor(x/a)/b) = floor(x/(a*b)) for an
  integer b > 0, so the state is bit-identical to one division by q^k for
  any sign of the contribution or of q. While q < 2^15, q*q fits in one
  30-bit CPython digit, and CPython divides by a one-digit int on its
  short-division path: ``x // qq // qq`` takes about 0.6 of the time of
  ``x // q**4`` on CPython 3.11, power included. Each block builds one q
  column, ``range(b*b0 + a, b*b1 + a, b)``, per (a, b) and one q*q column,
  ``map(mul, q, q)``, per (a, b) that some piece divides by q*q; all
  levels share them, and each division is one ``map(floordiv, ...)``
  stage. The pieces of a level keep their order, so every floor is the
  one the single division would make. ``weighted_chain_advance`` divides
  by (t+1)^p on the same path.

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


def _divide(c, k, q, qq):
    """Column c floor-divided by q^k: by the column q once if k is odd, then
    k//2 times by the column qq = q*q (None if k < 2)."""
    if k & 1:
        c = map(floordiv, c, q)
    for _ in range(k >> 1):
        c = map(floordiv, c, qq)
    return c


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
    # each (a, b) that a piece divides by, and whether one divides by its square
    shifts = {}
    for pieces in level_pows:
        for a, k, b in pieces:
            if k > 1 or (a, b) not in shifts:
                shifts[a, b] = k > 1
    outer = len(level_pows)
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
        # one b*t + a and one (b*t + a)^2 column per (a, b), for all levels
        cols = {}
        for (a, b), squared in shifts.items():
            q = range(b * b0 + a, b * b1 + a, b)
            cols[a, b] = q, list(map(mul, q, q)) if squared else None
        # the prefix column P_{i-1}(b0 - 1), ..., P_{i-1}(b1 - 1); P_0 = S
        col = [pvals[0]] * (n + 1)
        for i, (pieces, ridx) in enumerate(zip(level_pows, level_ratio), 1):
            c = islice(col, 0, n) if strict else islice(col, 1, None)
            if ridx >= 0:
                c = map(floordiv, map(mul, c, rcols[ridx]), repeat(S))
            for a, k, b in pieces:
                if b != 1:
                    c = map(mul, c, repeat(b ** k))
                c = _divide(c, k, *cols[a, b])
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
        c = _divide(c, p, us, list(map(mul, us, us)) if p > 1 else None)
        acc += _signed_sum(c, b0, alt)
    return acc
