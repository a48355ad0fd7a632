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
  Both orders share one level loop: weak order updates the levels
  innermost first, strict order outermost first, so that level i still
  reads ``P_{i-1}(t-1)``. Level weights are products of power pieces
  ``1/(t+c)^k`` and at most one ratio-updated piece
  ``w(t+1) = w(t) * prod(t + n_j) / prod(t + d_j)``. Every shift reaches
  the kernel exactly: c = a/b in lowest terms as the piece (a, k, b), whose
  division is ``contrib * b^k // (b*t + a)^k``, the floor of contrib/(t+c)^k;
  a ratio factor t + s as (s*L, L), the integer factor L*(t + s), with L
  the common denominator of that ratio's shifts. A ratio has as many
  numerator as denominator factors, so the L's cancel. The level loop is
  set up once per call: one table row per level, in update order, so the
  per-t loop tests nothing it could know in advance.

* A divisor ``(t+c)^k`` with an integer c is split into one-digit factors.
  With q = t + c, the kernel divides by q once if k is odd, then by q*q
  k//2 times. Every divisor after the first is positive, and
  floor(floor(x/a)/b) = floor(x/(a*b)) for an integer b > 0, so the state
  is bit-identical to one division by q^k for any sign of the contribution
  or of q. While q < 2^15, q*q fits in one 30-bit CPython digit, and
  CPython divides by a one-digit int on its short-division path:
  ``x // qq // qq`` takes about 0.6 of the time of ``x // q**4`` on
  CPython 3.11, power included. The leading piece of a level takes this
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

BACKEND = "python"


def nested_chain_advance(level_pows, level_ratio, ratio_nums, ratio_dens,
                         S, pvals, rvals, t0, t1, strict, alt):
    """Advance the chain over t in [t0, t1); mutates pvals/rvals.

    level_pows: per level, tuple of (a, k, b): divisor (t + a/b)^k, with a/b
                in lowest terms and b > 0.
    level_ratio: per level, index into rvals or -1.
    ratio_nums/ratio_dens: per ratio, tuple of (A, L): factor A + t*L, with
                one L for all factors of a ratio.
    pvals: [S, P_1, ..., P_{n-1}, acc]; rvals: scaled ratio weights at t0.
    strict: levels update outermost first, so level i reads P_{i-1}(t-1).
    alt: the outermost level subtracts the terms at odd t.
    """
    n = len(level_pows)
    # per level in update order: (i, ratio index, a, k, other pieces, sub),
    # with (a, k) the leading integer-shift piece (k = 0 if there is none),
    # each other piece as (a, k, b, b^k), and sub set on the outermost
    # level of an alternating sum
    table = []
    for i in (range(n, 0, -1) if strict else range(1, n + 1)):
        pieces = level_pows[i - 1]
        a = k = 0
        if pieces and pieces[0][2] == 1:
            (a, k, _), pieces = pieces[0], pieces[1:]
        rest = tuple((ap, kp, bp, bp ** kp) for ap, kp, bp in pieces)
        table.append((i, level_ratio[i - 1], a, k, rest, i == n and alt))
    for t in range(t0, t1):
        for i, ridx, a, k, rest, sub in table:
            contrib = pvals[i - 1]
            if ridx >= 0:
                contrib = contrib * rvals[ridx] // S
            if k:
                # unrolled up to k = 5: a range loop per term costs about
                # as much as the division it saves
                q = t + a
                if k & 1:
                    contrib //= q
                if k > 1:
                    q *= q
                    contrib //= q
                    if k > 3:
                        contrib //= q
                        if k > 5:
                            for _ in range((k >> 1) - 2):
                                contrib //= q
            if rest:  # most levels have one piece; skip the loop set-up
                for ap, kp, bp, bk in rest:
                    contrib = contrib * bk // (bp * t + ap) ** kp
            if sub and t & 1:
                pvals[i] -= contrib
            else:
                pvals[i] += contrib
        if rvals:
            for j in range(len(rvals)):
                num = rvals[j]
                for A, L in ratio_nums[j]:
                    num *= A + t * L
                den = 1
                for B, L in ratio_dens[j]:
                    den *= B + t * L
                rvals[j] = num // den


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
