"""Fixed-point summation kernels: pure-Python integer loops.

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
  A ratio has as many numerator as denominator factors, so the L's cancel.

* The kernel is level-major: it takes t in blocks [b0, b1) of ``BLOCK``
  terms and advances each level over a whole block before the next one.
  Per block it first builds the column of each ratio weight from its
  recurrence, which leaves ``rvals`` at the block's end. Then, innermost
  level first, it computes the level's column of contributions from the
  previous level's prefix column ``P_{i-1}(b0-1), ..., P_{i-1}(b1-1)``:
  weak order reads it from offset 1, strict order from offset 0. The outermost column of an
  alternating sum has its odd-t entries negated, and
  ``itertools.accumulate(..., initial=pvals[i])`` turns a level's column
  into its own prefix column. Every (t, level) takes the same floor
  divisions in the same order as a loop over t would, so the state is
  bit-identical whatever the block boundaries, and a call keeps
  O(depth * BLOCK) integers whatever the length of its range.

* A divisor ``(t+c)^k`` with an integer c is split into one-digit factors.
  With q = t + c, the kernel divides by q once if k is odd, then by q*q
  k//2 times. Every divisor after the first is positive, and
  floor(floor(x/a)/b) = floor(x/(a*b)) for an integer b > 0, so the state
  is bit-identical to one division by q^k for any sign of the contribution
  or of q. While q < 2^15, q*q fits in one 30-bit CPython digit, and
  CPython divides by a one-digit int on its short-division path:
  ``x // qq // qq`` takes about 0.6 of the time of ``x // q**4`` on
  CPython 3.11, power included. Each block builds one (q, q*q) column pair
  per shift, which all levels share, and a list comprehension takes up to
  two of these divisions per pass. The leading piece of a level takes this
  split when its shift is an integer; every other piece keeps the single
  division, since moving a piece past a fractional one would change its
  floors. ``weighted_chain_advance`` splits ``(t+1)^p`` the same way.

* ``weighted_chain_advance`` accumulates
  ``sum_t sigma(t)/(t+1)^p * sum_{i<=r} S_t(1^(r-i)) S*_t(1^i)``
  keeping the strict/weak one-part harmonic prefix sums updated in O(r).

An alternating sum signs term t by (-1)^t, computed from t itself, so a
kernel carries no sign between calls.
"""

from __future__ import annotations

from itertools import accumulate

BACKEND = "python"
BLOCK = 256  # 512 ran long ranges ~8 % faster but raised peak RSS by ~0.1 MB


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
    """
    # per level: (ratio index, a, k, other pieces), with (a, k) the leading
    # integer-shift piece (k = 0 if there is none), other pieces as (a, k, b, b^k)
    table = []
    for pieces, ridx in zip(level_pows, level_ratio):
        a = k = 0
        if pieces and pieces[0][2] == 1:
            (a, k, _), pieces = pieces[0], pieces[1:]
        rest = tuple((ap, kp, bp, bp ** kp) for ap, kp, bp in pieces)
        table.append((ridx, a, k, rest))
    shifts = {a for _, a, k, _ in table if k}
    for b0 in range(t0, t1, BLOCK):
        ts = range(b0, min(b0 + BLOCK, t1))
        # each ratio's weight at every t of the block, leaving rvals at its end
        rcols = [[] for _ in rvals]
        for j, wcol in enumerate(rcols):
            w = rvals[j]
            for t in ts:
                wcol.append(w)
                den = 1
                for A, L in ratio_nums[j]:
                    w *= A + t * L
                for B, L in ratio_dens[j]:
                    den *= B + t * L
                w //= den
            rvals[j] = w
        # one t + a and one (t + a)^2 column per integer shift, for all levels
        qs = {a: range(b0 + a, ts.stop + a) for a in shifts}
        qqs = {a: [q * q for q in qs[a]] for a in shifts}
        # the prefix column P_{i-1}(b0 - 1), ..., P_{i-1}(b1 - 1); P_0 = S
        col = [pvals[0]] * (len(ts) + 1)
        for i, (ridx, a, k, rest) in enumerate(table, 1):
            c = col[:-1] if strict else col[1:]
            if ridx >= 0:
                c = [x * w // S for x, w in zip(c, rcols[ridx])]
            if k & 1:
                c = [x // q for x, q in zip(c, qs[a])]
            for _ in range(k >> 2):
                c = [x // qq // qq for x, qq in zip(c, qqs[a])]
            if k & 2:
                c = [x // qq for x, qq in zip(c, qqs[a])]
            for ap, kp, bp, bk in rest:
                c = [x * bk // (bp * t + ap) ** kp for x, t in zip(c, ts)]
            if alt and i == len(table):
                c[1 - b0 % 2::2] = [-x for x in c[1 - b0 % 2::2]]
            col = list(accumulate(c, initial=pvals[i]))
            pvals[i] = col[-1]


def weighted_chain_advance(r, p, S, svals, tvals, acc, t0, t1, alt):
    """Advance the harmonic-product series over t in [t0, t1).

    svals[j] ~ S_t(1^j), tvals[j] ~ S*_t(1^j) (scaled); acc is the scaled
    running sum at t0. Returns the running sum at t1.
    """
    for t in range(t0, t1):
        u = t + 1
        for j in range(1, r + 1):
            tvals[j] += tvals[j - 1] // u
        W = 0
        for i in range(r + 1):
            W += svals[r - i] * tvals[i]
        W //= S
        # W // u**p split as in nested_chain_advance; u > 0
        term = W // u if p & 1 else W
        if p > 1:
            uu = u * u
            for _ in range(p >> 1):
                term //= uu
        if alt and t & 1:
            acc -= term
        else:
            acc += term
        for j in range(r, 0, -1):
            svals[j] += svals[j - 1] // u
    return acc
