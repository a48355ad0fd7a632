"""Kernel resumability: advancing a kernel in several calls must leave the
same state as one call over the whole range, for every kernel shape."""

from mzsv import kernels

S = 10 ** 45
SINGLE = (1, 4001)
SPLIT = (1, 501, 2300, 4001)

# pieces (C, k, Spow): 1/(t + C)^k for an integer shift (Spow = 0), else
# S^k/(C + t*S)^k for a scaled shift C
UNSHIFTED = (((0, 1, 0),), ((0, 2, 0),))
SHIFTED = (((1, 1, 0),), ((0, 2, 0), (1, 3, 0)))              # shift c = 1
SHIFTED_SCALED = (((S, 1, S),), ((0, 2, 0), (S, 3, S ** 3)))   # the same, scaled


def _run_nested(bounds, strict=False, alt=False, with_ratio=False,
                level_pows=UNSHIFTED):
    if with_ratio:
        level_pows = (((0, 1, 0),), ((S, 2, S ** 2),))
        level_ratio = (0, -1)
        ratio_nums = ((S,),)              # factor (t + 1)
        ratio_dens = ((3 * S,),)          # factor (t + 3)
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


def test_integer_shift_encodings_agree():
    # floor(c * S^k / (S^k * u^k)) = floor(c / u^k): both encodings of an
    # integer shift leave the same integers
    for strict in (False, True):
        plain = _run_nested(SINGLE, strict=strict, level_pows=SHIFTED)
        scaled = _run_nested(SINGLE, strict=strict, level_pows=SHIFTED_SCALED)
        assert plain[0] == scaled[0] and plain[0][2] > 0, strict


def test_alternating_sign_follows_t():
    # term t carries (-1)^t whatever t0 a call starts at; at the scale
    # lcm(1..N) every division is exact, so the sums are exact rationals
    from fractions import Fraction
    from math import lcm
    N = 12
    L = lcm(*range(1, N + 1))
    want = sum(Fraction((-1) ** t, t + 1) for t in range(1, N))
    pvals = [L, 0]
    for lo, hi in ((1, 4), (4, 5), (5, N)):
        kernels.nested_chain_advance((((1, 1, 0),),), (-1,), (), (), L, pvals, [],
                                     lo, hi, False, True)
    assert Fraction(pvals[1], L) == want
    # the weighted kernel at r = 0, p = 1 sums the same terms
    acc = 0
    for lo, hi in ((1, 6), (6, 7), (7, N)):
        acc = kernels.weighted_chain_advance(0, 1, L, [L], [L], acc, lo, hi, True)
    assert Fraction(acc, L) == want
