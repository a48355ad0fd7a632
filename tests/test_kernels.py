"""Kernel resumability: advancing a kernel in several calls must leave the
same state as one call over the whole range, for every kernel shape. The
kernels also match a one-division oracle, and sum exactly at a scale where
every division is exact, fractional shifts included."""

import tracemalloc
from fractions import Fraction
from math import gcd, lcm, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsv import kernels
from mzsv.chains import Level, Pow, Ratio, index_levels, kernel_levels

S = 10 ** 45
SINGLE = (1, 4001)
SPLIT = (1, 501, 2300, 4001)

# pieces (a, k, b): 1/(t + a/b)^k; ratio factors (A, L): A + t*L
UNSHIFTED = (((0, 1, 1),), ((0, 2, 1),))
SHIFTED = (((1, 1, 1),), ((0, 2, 1), (1, 3, 1)))              # shift c = 1


def _run_nested(bounds, strict=False, alt=False, with_ratio=False,
                level_pows=UNSHIFTED):
    if with_ratio:
        level_pows = (((0, 1, 1),), ((1, 2, 2),))     # shift c = 1/2
        level_ratio = (0, -1)
        ratio_nums = (((2, 2),),)         # factor 2(t + 1)
        ratio_dens = (((6, 2),),)         # factor 2(t + 3)
        rvals = [S // 2]
    else:
        level_ratio = (-1, -1)
        ratio_nums = ()
        ratio_dens = ()
        rvals = []
    pvals = [S, 0, 0]
    for lo, hi in zip(bounds, bounds[1:]):
        kernels.nested_chain_advance(
            level_pows, level_ratio, ratio_nums, ratio_dens, S, pvals, rvals,
            lo, hi, strict, alt)
    return pvals, rvals


def _run_weighted(bounds, alt=False):
    svals = [S, 0, 0, 0]
    tvals = [S, 0, 0, 0]
    acc = 0
    for lo, hi in zip(bounds, bounds[1:]):
        acc = kernels.weighted_chain_advance(3, 3, S, svals, tvals, acc,
                                             lo, hi, alt)
    return svals, tvals, acc


def test_resumability_matches_single_pass():
    shapes = [
        (_run_nested, {}),
        (_run_nested, {"strict": True}),
        (_run_nested, {"alt": True}),
        (_run_nested, {"with_ratio": True}),
        (_run_nested, {"level_pows": SHIFTED}),
        (_run_nested, {"level_pows": SHIFTED, "strict": True}),
        (_run_weighted, {}),
        (_run_weighted, {"alt": True}),
    ]
    for run, opts in shapes:
        single = run(SINGLE, **opts)
        assert run(SPLIT, **opts) == single, (run.__name__, opts)


def test_alternating_sign_follows_t():
    # term t carries (-1)^t whatever t0 a call starts at; at the scale
    # lcm(1..N) every division is exact, so the sums are exact rationals
    N = 12
    L = lcm(*range(1, N + 1))
    want = sum(Fraction((-1) ** t, t + 1) for t in range(1, N))
    pvals = [L, 0]
    for lo, hi in ((1, 4), (4, 5), (5, N)):
        kernels.nested_chain_advance((((1, 1, 1),),), (-1,), (), (), L, pvals, [],
                                     lo, hi, False, True)
    assert Fraction(pvals[1], L) == want
    # the weighted kernel at r = 0, p = 1 sums the same terms
    acc = 0
    for lo, hi in ((1, 6), (6, 7), (7, N)):
        acc = kernels.weighted_chain_advance(0, 1, L, [L], [L], acc, lo, hi, True)
    assert Fraction(acc, L) == want


def test_fractional_power_shift_is_exact():
    # sum_{t<12} 1/(t + 1/3)^2 = sum 9/(3t + 1)^2: at a scale that every
    # (3t + 1)^2 divides, the kernel's one division per term is exact
    N = 12
    S_exact = lcm(*(3 * t + 1 for t in range(N))) ** 2
    levels = [Level(pows=(Pow(2, Fraction(1, 3)),))]
    (lp, lr, rn, rd), rvals = kernel_levels(levels, S_exact, False)
    assert lp == (((1, 2, 3),),)
    pvals = [S_exact, 0]
    kernels.nested_chain_advance(lp, lr, rn, rd, S_exact, pvals, rvals,
                                 0, N, False, False)
    assert Fraction(pvals[1], S_exact) == sum(Fraction(9, (3 * t + 1) ** 2)
                                              for t in range(N))


def test_ratio_shifts_in_thirds_are_exact():
    # w(t+1) = w(t) (t + 1/3)(t + 2/3) / ((t + 4/3)(t + 5/3)), w(0) = 1: at
    # the scale prod_{u<N} (3u + 4)(3u + 5) every S*w(t) is an integer
    N = 10
    third = Fraction(1, 3)
    ratio = Ratio((third, 2 * third), (4 * third, 5 * third), init=Fraction(1))
    S_exact = prod((3 * u + 4) * (3 * u + 5) for u in range(N))
    (lp, lr, rn, rd), rvals = kernel_levels([Level(ratio=ratio)], S_exact, False)
    assert rn == (((1, 3), (2, 3)),) and rd == (((4, 3), (5, 3)),)
    pvals = [S_exact, 0]
    kernels.nested_chain_advance(lp, lr, rn, rd, S_exact, pvals, rvals,
                                 0, N, False, False)
    w = [Fraction(1)]
    for t in range(N):
        w.append(w[-1] * (t + third) * (t + 2 * third)
                 / ((t + 4 * third) * (t + 5 * third)))
    assert Fraction(rvals[0], S_exact) == w[N]
    assert Fraction(pvals[1], S_exact) == sum(w[:N])


# -- oracle: the level loop with one exact division per piece -------------------

def _reference_nested(level_pows, level_ratio, ratio_nums, ratio_dens,
                      S, pvals, rvals, t0, t1, strict, alt):
    n = len(level_pows)
    order = range(n, 0, -1) if strict else range(1, n + 1)
    for t in range(t0, t1):
        for i in order:
            contrib = pvals[i - 1]
            ridx = level_ratio[i - 1]
            if ridx >= 0:
                contrib = contrib * rvals[ridx] // S
            for a, k, b in level_pows[i - 1]:
                contrib = contrib * b ** k // (b * t + a) ** k
            if i == n and alt and t & 1:
                pvals[n] -= contrib
            else:
                pvals[i] += contrib
        for j in range(len(rvals)):
            num = rvals[j]
            for A, L in ratio_nums[j]:
                num *= A + t * L
            den = 1
            for B, L in ratio_dens[j]:
                den *= B + t * L
            rvals[j] = num // den


def _reference_weighted(r, p, S, svals, tvals, acc, t0, t1, alt):
    for t in range(t0, t1):
        u = t + 1
        for j in range(1, r + 1):
            tvals[j] += tvals[j - 1] // u
        W = sum(svals[r - i] * tvals[i] for i in range(r + 1)) // S
        term = W // u ** p
        acc += -term if alt and t & 1 else term
        for j in range(r, 0, -1):
            svals[j] += svals[j - 1] // u
    return acc


def _both_nested(level_pows, bounds, level_ratio=None, ratio_nums=(),
                 ratio_dens=(), rvals=(), strict=False, alt=False, scale=S):
    """(kernel state, reference state) after the same calls over bounds."""
    if level_ratio is None:
        level_ratio = (-1,) * len(level_pows)
    states = []
    for advance in (kernels.nested_chain_advance, _reference_nested):
        pvals = [scale] + [0] * len(level_pows)
        rv = list(rvals)
        for lo, hi in bounds:
            advance(level_pows, level_ratio, ratio_nums, ratio_dens, scale,
                    pvals, rv, lo, hi, strict, alt)
        states.append((pvals, rv))
    return states


ORDERS = [(False, False), (True, False), (False, True)]  # weak, strict, alt


@pytest.mark.parametrize("k", range(1, 10))
@pytest.mark.parametrize("strict, alt", ORDERS)
def test_split_divisor_matches_one_division(k, strict, alt):
    # C = -3 takes q through -3..-1, where the contributions of level 2 are
    # negative for odd k, and the ranges skip q = 0
    negative = (((1, k, 1),), ((-3, k, 1),), ((2, 1, 1),))
    got, want = _both_nested(negative, ((0, 3),), strict=strict, alt=alt)
    assert got == want and (got[0][2] < 0) == (k % 2 == 1)
    got, want = _both_nested(negative, ((0, 3), (4, 300)), strict=strict, alt=alt)
    assert got == want
    # t + 68 crosses 2^15 = 32768, where q*q no longer fits one 30-bit digit
    wide = (((0, k, 1),), ((68, k, 1),))
    got, want = _both_nested(wide, ((32_700, 32_751), (32_751, 32_900)),
                             strict=strict, alt=alt, scale=10 ** 100)
    assert got == want and got[0][2] != 0


@pytest.mark.parametrize("strict, alt", ORDERS)
def test_mixed_pieces_match_one_division(strict, alt):
    # a leading integer piece, a second integer piece and a fractional one
    # (shift 1/2); and a fractional piece ahead of an integer one, which
    # keeps its order
    level_pows = (((1, 2, 1), (3, 3, 1), (1, 2, 2)),
                  ((1, 1, 2), (1, 1, 1)),
                  ((1, 1, 1),))
    got, want = _both_nested(level_pows, ((1, 40), (40, 500)),
                             strict=strict, alt=alt)
    assert got == want and got[0][3] != 0


@pytest.mark.parametrize("alt", [False, True])
def test_negative_ratio_level_matches_one_division(alt):
    # the ratio weight starts at -1/3, so every contribution of level 2 and
    # on is negative
    level_pows = (((1, 1, 1),), ((1, 3, 1),), ((2, 4, 1),))
    got, want = _both_nested(level_pows, ((1, 100), (100, 700)),
                             level_ratio=(-1, 0, -1), ratio_nums=(((1, 1),),),
                             ratio_dens=(((3, 1),),), rvals=(-S // 3,), alt=alt)
    assert got == want
    assert got[0][2] < 0 and got[1][0] < 0


@pytest.mark.parametrize("p", range(1, 7))
@pytest.mark.parametrize("alt", [False, True])
def test_weighted_split_divisor_matches_one_division(p, alt):
    for r in (0, 1, 3):
        states = []
        for advance in (kernels.weighted_chain_advance, _reference_weighted):
            svals = [S] + [0] * r
            tvals = [S] + [0] * r
            acc = 0
            for lo, hi in ((0, 7), (7, 400), (32_700, 32_900)):
                acc = advance(r, p, S, svals, tvals, acc, lo, hi, alt)
            states.append((svals, tvals, acc))
        assert states[0] == states[1], r


# -- the level-major blocks against the one-division oracle ---------------------

BLOCK = kernels.BLOCK
# the hypothesis tests run the kernels at small block sizes, which put many
# block seams into short ranges; the real BLOCK gets fixed long ranges below
SMALL_BLOCKS = (1, 2, 7, 64)


@st.composite
def _pieces(draw, fractional):
    """(a, k, b) pieces of one level, a/b > 0 in lowest terms."""
    pieces = []
    for j in range(draw(st.integers(1 if fractional else 0, 3))):
        lead = fractional and j == 0    # a leading piece with a/b not an integer
        b = draw(st.sampled_from((2, 3) if lead else (1, 1, 2, 3)))
        a = b * draw(st.integers(0, 4)) + draw(st.integers(1, b - 1 if lead else b))
        g = gcd(a, b)
        pieces.append((a // g, draw(st.integers(1, 6)), b // g))
    return tuple(pieces)


@st.composite
def _ratio(draw):
    """(nums, dens) of one ratio: as many factors A + t*L above as below."""
    L = draw(st.sampled_from((1, 2, 3)))
    n = draw(st.integers(0, 2))       # no factors: a constant weight
    factor = st.tuples(st.integers(1, 4 * L), st.just(L))
    return (tuple(draw(factor) for _ in range(n)),
            tuple(draw(factor) for _ in range(n)))


@st.composite
def _block_and_bounds(draw, odd_start=False):
    """A block size and the ranges of successive calls, which start anywhere
    against its seams; ranges up to two blocks long, and empty ones."""
    block = draw(st.sampled_from(SMALL_BLOCKS))
    t0 = draw(st.integers(0, 3 * BLOCK))
    if odd_start:
        t0 |= 1
    lengths = draw(st.lists(st.integers(0, 2 * block + 40), min_size=1, max_size=4))
    cuts = [t0]
    for n in lengths:
        cuts.append(cuts[-1] + n)
    return block, tuple(zip(cuts, cuts[1:]))


@st.composite
def _chain_and_calls(draw, kind):
    """A chain of depth 1-4 of the given kind and the calls that advance it."""
    depth = draw(st.integers(1, 4))
    fractional = kind == "fractional"
    level_pows = tuple(draw(_pieces(fractional and i == depth - 1))
                       for i in range(depth))
    if kind == "ratio":
        ratios = draw(st.lists(_ratio(), min_size=1, max_size=2))
        level_ratio = [draw(st.integers(-1, len(ratios) - 1)) for _ in range(depth)]
        level_ratio[draw(st.integers(0, depth - 1))] = 0
        ratio_nums, ratio_dens = (tuple(r) for r in zip(*ratios))
        rvals = [draw(st.integers(-S, S)) for _ in ratios]
    else:
        level_ratio, ratio_nums, ratio_dens, rvals = [-1] * depth, (), (), []
    strict = kind == "strict"
    alt = kind == "alt" or (not strict and draw(st.booleans()))
    block, bounds = draw(_block_and_bounds(odd_start=kind == "alt"))
    return block, dict(level_pows=level_pows, bounds=bounds,
                       level_ratio=tuple(level_ratio), ratio_nums=ratio_nums,
                       ratio_dens=ratio_dens, rvals=rvals, strict=strict, alt=alt)


@pytest.mark.parametrize("kind", ["weak", "strict", "alt", "ratio", "fractional"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_blocks_match_one_division_oracle(kind, data):
    # split points anywhere against the block grid, ranges shorter than a
    # block and empty ones: the state is the per-t oracle's, bit for bit
    block, chain = data.draw(_chain_and_calls(kind))
    with mock.patch.object(kernels, "BLOCK", block):
        got, want = _both_nested(**chain)
    assert got == want


def _both_weighted(r, p, svals, tvals, bounds, alt):
    """(kernel state, reference state) after the same calls over bounds."""
    states = []
    for advance in (kernels.weighted_chain_advance, _reference_weighted):
        sv, tv, acc = list(svals), list(tvals), 0
        for lo, hi in bounds:
            acc = advance(r, p, S, sv, tv, acc, lo, hi, alt)
        states.append((sv, tv, acc))
    return states


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_weighted_blocks_match_one_division_oracle(data):
    # any harmonic state at t0, r = 0..4, p = 1..6, and for an alternating
    # sum an odd t0, split anywhere against the block grid
    r = data.draw(st.integers(0, 4))
    p = data.draw(st.integers(1, 6))
    alt = data.draw(st.booleans())
    svals = [S] + data.draw(st.lists(st.integers(0, S), min_size=r, max_size=r))
    tvals = [S] + data.draw(st.lists(st.integers(0, S), min_size=r, max_size=r))
    block, bounds = data.draw(_block_and_bounds(odd_start=alt))
    with mock.patch.object(kernels, "BLOCK", block):
        got, want = _both_weighted(r, p, svals, tvals, bounds, alt)
    assert got == want


@pytest.mark.parametrize("strict, alt", ORDERS)
def test_real_block_seams_match_one_division(strict, alt):
    # calls over two seams of the real BLOCK, from an odd t0, with an
    # integer, a fractional and a ratio level
    level_pows = (((1, 2, 1),), ((1, 3, 2),), ((2, 1, 1),))
    bounds = ((1, 2 * BLOCK + 40), (2 * BLOCK + 40, 3 * BLOCK + 45))
    ratio = {} if strict else dict(level_ratio=(-1, 0, -1), ratio_nums=(((1, 1),),),
                                   ratio_dens=(((3, 1),),), rvals=(S // 3,))
    got, want = _both_nested(level_pows, bounds, strict=strict, alt=alt, **ratio)
    assert got == want
    got, want = _both_weighted(3, 5, [S, 0, 0, 0], [S, 0, 0, 0], bounds, alt)
    assert got == want


@pytest.mark.parametrize("strict", [False, True])
def test_empty_levels_are_plain_prefix_sums(strict):
    # levels with no pieces and no ratio, innermost and between two others:
    # strict order reads the n values P_{i-1}(t-1) of a block, not n + 1
    level_pows = ((), ((1, 2, 1),), (), ((1, 1, 1),))
    got, want = _both_nested(level_pows, ((0, 5), (5, BLOCK + 9)), strict=strict)
    assert got == want
    N = 12
    L = lcm(*range(1, N + 1))
    got, _ = _both_nested(((), ((1, 1, 1),)), ((0, N),), strict=strict, scale=L)
    # strict: sum_t P_1(t-1)/(t+1) with P_1(t-1) = t; weak: P_1(t) = t + 1
    assert Fraction(got[0][2], L) == sum(Fraction(t if strict else t + 1, t + 1)
                                         for t in range(N))


def test_ratio_without_factors_keeps_its_weight():
    # Ratio((), (), init) is a constant weight init: the kernel keeps it
    ratio = Ratio((), (), init=Fraction(1, 3))
    (lp, lr, rn, rd), rvals = kernel_levels(
        [Level(pows=(Pow(1, Fraction(1)),)), Level(ratio=ratio)], S, False)
    assert rn == rd == ((),)
    got, want = _both_nested(lp, ((0, 10), (10, BLOCK + 20)), level_ratio=lr,
                             ratio_nums=rn, ratio_dens=rd, rvals=rvals)
    assert got == want and got[1] == rvals
    # over t < 3: sum_t H_t * (S//3) // S, with H_t = sum_{u<=t} S//(u+1)
    pvals = [S, 0, 0]
    kernels.nested_chain_advance(lp, lr, rn, rd, S, pvals, list(rvals), 0, 3,
                                 False, False)
    h = [S, S + S // 2, S + S // 2 + S // 3]
    assert pvals == [S, h[2], sum(x * (S // 3) // S for x in h)]


@pytest.mark.parametrize("t0, t1", [(5, 5), (BLOCK + 3, 7)])
def test_empty_range_leaves_state_untouched(t0, t1):
    level_pows = (((1, 2, 1),), ((1, 1, 2),), ((2, 3, 1),))
    pvals = [S, 11, -22, 33]
    rvals = [S // 3]
    kernels.nested_chain_advance(level_pows, (-1, 0, -1), (((1, 1),),),
                                 (((4, 1),),), S, pvals, rvals, t0, t1, False, True)
    assert pvals == [S, 11, -22, 33] and rvals == [S // 3]


def test_one_long_call_keeps_memory_bounded():
    # 60 000 terms of zeta*(2, 2, 2): the kernel keeps a few block columns,
    # some 200 KB, where whole-range columns of 46-digit ints would hold
    # about 12 MB. tracemalloc slows the call about thirtyfold, to seconds
    (lp, lr, rn, rd), rvals = kernel_levels(index_levels((2, 2, 2)), S, False)
    pvals = [S, 0, 0, 0]
    tracemalloc.start()
    try:
        kernels.nested_chain_advance(lp, lr, rn, rd, S, pvals, rvals,
                                     0, 60_000, False, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pvals[3] > 0
    assert peak < 2 ** 20, peak
