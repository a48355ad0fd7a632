"""Backend parity: the compiled kernels must return bitwise-identical state
to the pure-Python twin on every kernel shape. Resumability is checked on
whichever backend is active."""

import pytest

from mzsv import kernels

BACKENDS = kernels.backends()

needs_two_backends = pytest.mark.skipif(
    len(BACKENDS) < 2, reason="compiled kernel extension not built")

S = 10 ** 45


def _run_nested(impl, strict=False, alt=False, with_ratio=False):
    if with_ratio:
        level_pows = (((0, 1, 0),), ((S, 2, S ** 2),))
        level_ratio = (0, -1)
        ratio_nums = ((S,),)              # factor (t + 1)
        ratio_dens = ((3 * S,),)          # factor (t + 3)
        rvals = [S // 2]
    else:
        level_pows = (((0, 1, 0),), ((0, 2, 0),))
        level_ratio = (-1, -1)
        ratio_nums = ()
        ratio_dens = ()
        rvals = []
    pvals = [S, 0, 0]
    window = [] if alt else None
    sign = impl.nested_chain_advance(
        level_pows, level_ratio, ratio_nums, ratio_dens, S, pvals, rvals,
        1, 4001, strict, alt, 1, window, 3950)
    return pvals, rvals, window, sign


@needs_two_backends
@pytest.mark.parametrize("strict,alt,ratio", [
    (False, False, False), (True, False, False),
    (False, True, False), (False, False, True),
])
def test_nested_chain_parity(strict, alt, ratio):
    results = [_run_nested(impl, strict, alt, ratio)
               for impl in BACKENDS.values()]
    first = results[0]
    for other in results[1:]:
        assert other == first


@needs_two_backends
@pytest.mark.parametrize("alt", [False, True])
def test_weighted_chain_parity(alt):
    results = []
    for impl in BACKENDS.values():
        svals = [S, 0, 0, 0]
        tvals = [S, 0, 0, 0]
        accbox = [0, 0, 0]
        window = [] if alt else None
        sign = impl.weighted_chain_advance(3, 3, S, svals, tvals, accbox,
                                           0, 3000, alt, 1, window, 2980)
        results.append((svals, tvals, accbox, window, sign))
    first = results[0]
    for other in results[1:]:
        assert other == first


def test_resumability_matches_single_pass():
    impl = kernels
    for strict in (False, True):
        pv1 = [S, 0, 0]
        impl.nested_chain_advance((((0, 1, 0),), ((0, 2, 0),)), (-1, -1), (),
                                  (), S, pv1, [], 1, 2001, strict, False, 1,
                                  None, 0)
        pv2 = [S, 0, 0]
        for lo, hi in ((1, 501), (501, 1300), (1300, 2001)):
            impl.nested_chain_advance((((0, 1, 0),), ((0, 2, 0),)), (-1, -1),
                                      (), (), S, pv2, [], lo, hi, strict,
                                      False, 1, None, 0)
        assert pv1 == pv2
