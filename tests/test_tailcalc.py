"""Tail-polynomial algebra against independent oracles.

sum_{m>x} (m+1)**-p is the Hurwitz zeta value zeta(p, x+2), which mpmath
computes by its own route, so every tail sum below has a reference that
shares no code with TailCalc.
"""

from fractions import Fraction

import pytest

from mzsv import DomainError, PrecisionContext
from mzsv.tailcalc import TailCalc, TailPoly

X = 10 ** 4


@pytest.fixture(scope="module", params=[30, 100], ids=["30d", "100d"])
def env(request):
    ctx = PrecisionContext(digits=request.param)
    return ctx.mp, TailCalc(ctx.mp), ctx.mp.mpf(10) ** (-(ctx.working_digits - 3))


def _mpf(mp, s):
    fr = Fraction(s)
    return mp.mpf(fr.numerator) / fr.denominator


def _close(mp, got, want, rtol):
    assert abs(got - want) <= rtol * abs(want), mp.nstr(got - want, 5)


@pytest.mark.parametrize("rho", ["2", "3", "2.5", "1.25"])
def test_sumtail_of_single_power(env, rho):
    mp, calc, rtol = env
    r = mp.mpf(rho)
    got = calc.eval_at(calc.sumtail(TailPoly(r, {0: mp.mpf(1)})), X)
    _close(mp, got, mp.zeta(r, X + 2), rtol)


@pytest.mark.parametrize("k,shift", [(2, "0"), (3, "1/3"), (2, "5/2"), (4, "-1/2")])
def test_sumtail_of_shifted_pow_weight(env, k, shift):
    mp, calc, rtol = env
    c = _mpf(mp, shift)
    got = calc.eval_at(calc.sumtail(calc.pow_weight(k, c)), X)
    # sum_{m>x} (m+c)**-k = zeta(k, x+1+c)
    _close(mp, got, mp.zeta(k, X + 1 + c), rtol)


def test_sumtail_with_negative_keys(env):
    mp, calc, rtol = env
    rho = mp.mpf("3.5")
    f = TailPoly(rho, {-1: mp.mpf(2), 0: mp.mpf(-3), 2: mp.mpf("0.5")})
    got = calc.eval_at(calc.sumtail(f), X)
    want = (2 * mp.zeta(rho - 1, X + 2) - 3 * mp.zeta(rho, X + 2)
            + mp.mpf("0.5") * mp.zeta(rho + 2, X + 2))
    _close(mp, got, want, rtol)


def test_composed_tail_sums(env):
    mp, calc, rtol = env
    # sum_{m>x} sum_{n>m} (n+1)**-3 = sum_{N>=x+3} (N-x-2) N**-3
    inner = calc.sumtail(calc.pow_weight(3, 1))
    assert min(inner.coeffs) == -1
    got = calc.eval_at(calc.sumtail(inner), X)
    want = mp.zeta(2, X + 3) - (X + 2) * mp.zeta(3, X + 3)
    _close(mp, got, want, rtol)
    # weak order, as a zeta-star chain composes it:
    # sum_{m>x} (m+1)**-1 sum_{n>=m} (n+1)**-2
    #   = sum_{N>=x+2} (H_N - H_{x+1}) / N**2,
    # and sum_{N>=1} H_N / N**2 = zeta*(1,2) = 2 zeta(3)
    F = calc.pow_weight(2, 1)
    outer = calc.mul(calc.pow_weight(1, 1), calc.add(F, calc.sumtail(F)))
    got = calc.eval_at(calc.sumtail(outer), X)
    H = mp.mpf(0)
    head = mp.mpf(0)
    for N in range(1, X + 2):
        H += mp.mpf(1) / N
        head += H / N ** 2
    want = 2 * mp.zeta(3) - head - H * mp.zeta(2, X + 2)
    _close(mp, got, want, rtol * 10 ** 4)


def test_sumtail_requires_convergence(env):
    mp, calc, _ = env
    with pytest.raises(DomainError):
        calc.sumtail(calc.pow_weight(1, 0))
    with pytest.raises(DomainError):
        calc.sumtail(TailPoly(mp.mpf("0.75"), {0: mp.mpf(1)}))
    with pytest.raises(DomainError):
        calc.sumtail(TailPoly(mp.mpf(3), {-2: mp.mpf(1), 0: mp.mpf(1)}))
    assert calc.sumtail(TailPoly(mp.mpf(2), {})).coeffs == {}


@pytest.mark.parametrize("nums,dens", [
    (("1/3", "7/4"), ("1", "9/4")),   # rho = 7/6
    (("1/2",), ("5/2",)),             # rho = 2
    (("2/3", "2/3"), ("1", "4/3")),   # rho = 1
])
def test_ratio_asymptotics_matches_direct_product(env, nums, dens):
    mp, calc, rtol = env

    ns = [_mpf(mp, s) for s in nums]
    ds = [_mpf(mp, s) for s in dens]
    rho = sum(ds) - sum(ns)
    shape = calc.ratio_asymptotics(ns, ds, rho)
    t1, t2 = X, 2 * X
    w = mp.mpf(1)  # w(t1) = 1; multiply up to w(t2)
    for t in range(t1, t2):
        for n in ns:
            w *= t + n
        for d in ds:
            w /= t + d
    got = calc.eval_at(shape, t2) / calc.eval_at(shape, t1)
    _close(mp, got, w, rtol * 10 ** 3)


# -- alternating (Boole) tail sums ------------------------------------------------

ALT_X = 499  # the tail after the first checkpoint, M = 500


def _alt_power_tail(mp, p, x):
    """sum_{m>x} (-1)**m (m+1)**-p, by Hurwitz zeta at half-integer shifts:
    the terms pair up into 2**-p (zeta(p, (x+2)/2) - zeta(p, (x+3)/2))."""
    half = mp.mpf(x + 2) / 2
    return (-1) ** (x + 1) * 2 ** -p * (mp.zeta(p, half) - mp.zeta(p, half + mp.mpf(1) / 2))


def _check_alt(build):
    """sumtail(alternating=True) of build(calc, mp) at ALT_X and 30 digits,
    against the Hurwitz form of every power at 60 digits."""
    ctx = PrecisionContext(digits=30)
    mp = ctx.mp
    calc = TailCalc(mp)
    f = build(calc, mp)
    got = (-1) ** ALT_X * calc.eval_at(calc.sumtail(f, alternating=True), ALT_X)
    with mp.workdps(2 * mp.dps):
        want = sum(c * _alt_power_tail(mp, f.rho + q, ALT_X) for q, c in f.coeffs.items())
    tol = mp.mpf(10) ** -ctx.working_digits * abs(want)
    assert abs(got - want) <= tol, mp.nstr(got - want, 5)


@pytest.mark.parametrize("p", ["1/2", "2", "3"])
def test_alternating_sumtail_of_single_power(p):
    _check_alt(lambda calc, mp: TailPoly(_mpf(mp, p), {0: mp.mpf(1)}))


def test_alternating_sumtail_of_ratio_shape():
    # (1/2)_t / (5/2)_t: the decay rho = 2 of a ratio-weighted level
    _check_alt(lambda calc, mp: calc.ratio_asymptotics(
        [mp.mpf(1) / 2], [mp.mpf(5) / 2], mp.mpf(2)))


def test_sumtail_domain_thresholds():
    mp = PrecisionContext(digits=30).mp
    calc = TailCalc(mp)
    one = TailPoly(mp.mpf(1), {0: mp.mpf(1)})
    with pytest.raises(DomainError):
        calc.sumtail(one)                       # plain needs min power > 1
    assert calc.sumtail(one, alternating=True).coeffs
    for f in (TailPoly(mp.mpf(0), {0: mp.mpf(1)}),
              TailPoly(mp.mpf(2), {-2: mp.mpf(1), 0: mp.mpf(1)})):
        with pytest.raises(DomainError):
            calc.sumtail(f, alternating=True)   # alternating needs > 0
    assert calc.sumtail(TailPoly(mp.mpf("0.25"), {0: mp.mpf(1)}), alternating=True).coeffs
