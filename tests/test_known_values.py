"""Chain values against closed forms that do not go through the chain route.

Every reference here is mpmath's own zeta or pi, computed at twice the
digits, so a fault shared by every chain evaluation (the tail algebra,
the run loop's stopping rule) cannot cancel out as it does when a chain
is compared with itself at another precision. Each check requires the
error to stay within the summed ``error_estimate``s of the chain runs:

* the sum formula: sum of zeta(k) over the admissible indices k of
  weight w and depth d is zeta(w) (Granville 1997; Zagier), and its star
  form, sum of zeta*(k) = C(w-1, d-1) zeta(w), which follows from it by
  the coarsening relation;
* zeta({2}^n) = pi^(2n)/(2n+1)! (Hoffman 1992);
* zeta({3,1}^n) = 2 pi^(4n)/(4n+2)! (Borwein, Bradley, Broadhurst and
  Lisonek 1998), the index (1,3) repeated n times in this package's
  innermost-first order;
* sum_m (-1)^(m-1) H_m/m^2 = (5/8) zeta(3) (Flajolet and Salvy 1998),
  which is alt_mzsv((1,2)).

The contexts cap max_terms at 10^5, far above every run's last
checkpoint, so a fault that keeps a run from settling fails in seconds.
"""

from math import comb

import pytest

from mzsv import Index, PrecisionContext
from mzsv.indices import compositions
from mzsv.series import alt_mzsv, mzsv, mzv

MAX_TERMS = 10 ** 5


def _assert_within_estimates(evaluations, reference, digits):
    """|sum of the values - reference(mp)| <= the summed estimates, with
    the sum and the reference taken at twice the digits."""
    ref_mp = PrecisionContext(2 * digits).mp
    total = ref_mp.fsum(ref_mp.mpf(ev.value.mpf) for ev in evaluations)
    err = abs(total - reference(ref_mp))
    bound = ref_mp.fsum(ref_mp.mpf(ev.diagnostics.error_estimate.mpf)
                        for ev in evaluations)
    assert err <= bound, (ref_mp.nstr(err, 5), ref_mp.nstr(bound, 5))


def _admissible(w, d):
    return [Index(k) for k in compositions(w, d) if k[-1] >= 2]


@pytest.mark.parametrize("digits,w", [(100, w) for w in range(2, 9)]
                         + [(200, w) for w in range(2, 7)])
def test_sum_formula(digits, w):
    ctx = PrecisionContext(digits, max_terms=MAX_TERMS)
    for d in range(1, w):
        _assert_within_estimates([mzv(k, ctx) for k in _admissible(w, d)],
                                 lambda mp: mp.zeta(w), digits)


@pytest.mark.parametrize("digits,w", [(100, w) for w in range(2, 9)]
                         + [(200, w) for w in range(2, 7)])
def test_star_sum_formula(digits, w):
    ctx = PrecisionContext(digits, max_terms=MAX_TERMS)
    for d in range(1, w):
        _assert_within_estimates([mzsv(k, ctx) for k in _admissible(w, d)],
                                 lambda mp: comb(w - 1, d - 1) * mp.zeta(w), digits)


@pytest.mark.parametrize("digits,n", [(100, n) for n in (1, 2, 3, 4)] + [(200, 2)])
def test_zeta_of_twos(digits, n):
    ctx = PrecisionContext(digits, max_terms=MAX_TERMS)
    _assert_within_estimates([mzv(Index((2,) * n), ctx)],
                             lambda mp: mp.pi ** (2 * n) / mp.factorial(2 * n + 1),
                             digits)


@pytest.mark.parametrize("digits,n", [(100, n) for n in (1, 2)] + [(200, 1)])
def test_zeta_of_three_ones(digits, n):
    ctx = PrecisionContext(digits, max_terms=MAX_TERMS)
    _assert_within_estimates([mzv(Index((1, 3) * n), ctx)],
                             lambda mp: 2 * mp.pi ** (4 * n) / mp.factorial(4 * n + 2),
                             digits)


@pytest.mark.parametrize("digits", [100, 200])
def test_alternating_harmonic_sum(digits):
    ctx = PrecisionContext(digits, max_terms=MAX_TERMS)
    _assert_within_estimates([alt_mzsv(Index((1, 2)), ctx)],
                             lambda mp: 5 * mp.zeta(3) / 8, digits)
