"""Tail-polynomial algebra against independent oracles.

sum_{m>x} (m+1)**-p is the Hurwitz zeta value zeta(p, x+2), which mpmath
computes by its own route, so every tail sum below has a reference that
shares no code with TailCalc. TailCalc keeps the coefficient of key q as
an integer at scale 2**(bits - q*d), and ``eval_at`` returns an int
without the power (m+1)**-rho, which ``tail_value`` puts back as an mpf;
the mpf algebra it replaced is kept below as a second oracle, run at twice
the working digits.
"""

import random
from fractions import Fraction
from math import comb, factorial, floor, lgamma, log, pi

import pytest
from conftest import tail_value

from mzsv import DomainError, PrecisionContext
from mzsv.chains import ChainEvaluator, Level, Ratio, first_checkpoint, index_levels
from mzsv.tailcalc import (MARGIN, TailCalc, TailPoly, _em_fraction, expansion_plan,
                           power_sum_tail)

X = 10 ** 4


@pytest.fixture(scope="module", params=[30, 100], ids=["30d", "100d"])
def env(request):
    ctx = PrecisionContext(digits=request.param)
    return ctx.mp, TailCalc(ctx.mp, False), ctx.mp.mpf(10) ** (-(ctx.working_digits - 3))


def _mpf(mp, s):
    fr = Fraction(s)
    return mp.mpf(fr.numerator) / fr.denominator


def _close(mp, got, want, rtol):
    assert abs(got - want) <= rtol * abs(want), mp.nstr(got - want, 5)


def _poly(calc, rho, coeffs):
    """The TailPoly sum_q coeffs[q] (m+1)**-(rho+q), from exact numbers."""
    fixed = {q: floor(Fraction(c) * Fraction(2) ** (calc.bits - q * calc.d))
             for q, c in coeffs.items()}
    return TailPoly(Fraction(rho), fixed)


@pytest.mark.parametrize("rho", ["2", "3", "2.5", "1.25"])
def test_sumtail_of_single_power(env, rho):
    mp, calc, rtol = env
    got = tail_value(mp, calc, calc.sumtail(_poly(calc, rho, {0: 1})), X)
    _close(mp, got, mp.zeta(_mpf(mp, rho), X + 2), rtol)


@pytest.mark.parametrize("k,shift", [(2, "0"), (3, "1/3"), (2, "5/2"), (4, "-1/2")])
def test_sumtail_of_shifted_pow_weight(env, k, shift):
    mp, calc, rtol = env
    c = _mpf(mp, shift)
    got = tail_value(mp, calc, calc.sumtail(calc.pow_weight(k, Fraction(shift))), X)
    # sum_{m>x} (m+c)**-k = zeta(k, x+1+c)
    _close(mp, got, mp.zeta(k, X + 1 + c), rtol)


def test_sumtail_with_negative_keys(env):
    mp, calc, rtol = env
    rho = mp.mpf("3.5")
    f = _poly(calc, "3.5", {-1: 2, 0: -3, 2: "0.5"})
    got = tail_value(mp, calc, calc.sumtail(f), X)
    want = (2 * mp.zeta(rho - 1, X + 2) - 3 * mp.zeta(rho, X + 2)
            + mp.mpf("0.5") * mp.zeta(rho + 2, X + 2))
    _close(mp, got, want, rtol)


def test_composed_tail_sums(env):
    mp, calc, rtol = env
    # sum_{m>x} sum_{n>m} (n+1)**-3 = sum_{N>=x+3} (N-x-2) N**-3
    inner = calc.sumtail(calc.pow_weight(3, 1))
    assert min(inner.coeffs) == -1
    got = tail_value(mp, calc, calc.sumtail(inner), X)
    want = mp.zeta(2, X + 3) - (X + 2) * mp.zeta(3, X + 3)
    _close(mp, got, want, rtol)
    # weak order, as a zeta-star chain composes it:
    # sum_{m>x} (m+1)**-1 sum_{n>=m} (n+1)**-2
    #   = sum_{N>=x+2} (H_N - H_{x+1}) / N**2,
    # and sum_{N>=1} H_N / N**2 = zeta*(1,2) = 2 zeta(3)
    F = calc.pow_weight(2, 1)
    outer = calc.mul(calc.pow_weight(1, 1), calc.add(F, calc.sumtail(F)))
    got = tail_value(mp, calc, calc.sumtail(outer), X)
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
        calc.sumtail(_poly(calc, "0.75", {0: 1}))
    with pytest.raises(DomainError):
        calc.sumtail(_poly(calc, 3, {-2: 1, 0: 1}))
    assert calc.sumtail(_poly(calc, 2, {})).coeffs == {}


@pytest.mark.parametrize("nums,dens", [
    (("1/3", "7/4"), ("1", "9/4")),   # rho = 7/6
    (("1/2",), ("5/2",)),             # rho = 2
    (("2/3", "2/3"), ("1", "4/3")),   # rho = 1
])
def test_ratio_asymptotics_matches_direct_product(env, nums, dens):
    mp, calc, rtol = env

    ns = [_mpf(mp, s) for s in nums]
    ds = [_mpf(mp, s) for s in dens]
    exact_ns = [Fraction(s) for s in nums]
    exact_ds = [Fraction(s) for s in dens]
    shape = calc.ratio_asymptotics(exact_ns, exact_ds)
    t1, t2 = X, 2 * X
    w = mp.mpf(1)  # w(t1) = 1; multiply up to w(t2)
    for t in range(t1, t2):
        for n in ns:
            w *= t + n
        for d in ds:
            w /= t + d
    got = tail_value(mp, calc, shape, t2) / tail_value(mp, calc, shape, t1)
    _close(mp, got, w, rtol * 10 ** 3)


# -- power sums by Euler-Maclaurin ---------------------------------------------------

@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("p", ["1.0001", "2", "17", "1000"])
def test_power_sum_tail_one_pass(digits, p):
    # against mpmath's Hurwitz zeta(p, M+1) at twice the working digits, at p
    # as the context rounds it; the expansion point is fixed before the pass
    mp = PrecisionContext(digits=digits).mp
    ref_mp = mp.clone()
    ref_mp.dps = 2 * mp.dps
    tol = mp.mpf(10) ** -(mp.dps - 2)
    pv = mp.mpf(p)
    for M in (1, 500, 10 ** 6):
        val = power_sum_tail(mp, pv, M, tol)
        ref = ref_mp.zeta(ref_mp.mpf(pv), M + 1)
        assert abs(val - ref) <= tol * max(1, abs(ref)), M


@pytest.mark.parametrize("digits", [30, 100, 200])
def test_power_sum_tail_half_integer_bridge(digits):
    # zeta(k + 1/2) = 1 + the tail past M = 1, whose bridge takes each term
    # by an integer square root: within 10 working ulps of mpmath at twice
    # the working digits
    mp = PrecisionContext(digits=digits).mp
    ref_mp = mp.clone()
    ref_mp.dps = 2 * mp.dps
    for k in range(1, 6):
        pv = mp.mpf(k) + 0.5
        val = 1 + power_sum_tail(mp, pv, 1, mp.mpf(10) ** -mp.dps)
        ref = ref_mp.zeta(ref_mp.mpf(pv))
        assert abs(val - ref) / ref * ref_mp.mpf(10) ** mp.dps <= 10, k


# -- the first checkpoint and the expansion order -----------------------------------

def _log_first_dropped_plain_term(m0, qmax, p):
    """log of the first Euler-Maclaurin term a plain tail of (m+1)^-p
    drops at x = M0 - 1, relative to its leading term M0^(1-p)/(p-1):
    (p-1) |B_2k|/(2k)! (p)_{2k-1} M0^-2k at the least k with 2k - 1 > qmax,
    B_2k/(2k)! from the exact table."""
    k = qmax // 2 + 1
    num, den = _em_fraction(k)
    rising = lgamma(p + 2 * k - 1) - lgamma(p)  # log (p)_{2k-1}
    return log(p - 1) + log(abs(num)) - log(den) + rising - 2 * k * log(m0)


def test_expansion_plan_truncation_and_margin():
    # at every precision from 15 to 1000 digits (any guard), the first
    # dropped key leaves a Boole truncation of at most 10^-dps at the first
    # checkpoint, of the tail of (m+1)^-3 relative to itself,
    # 2 M0 (q+3)!/(pi M0)^(q+2), and so also of the estimate the truncation
    # of every tail starts from, (q+1)!/(pi M0)^(q+1); M0 stays MARGIN *
    # qmax clear of qmax, the margin eval_at asks for. The plain plan keeps
    # the same bounds with 2 pi in place of pi, and its first dropped
    # Euler-Maclaurin term, computed exactly for the powers up to 3, stays
    # at most 10^-dps relative to the tail
    assert MARGIN >= 4
    for alternating, c in ((True, pi), (False, 2 * pi)):
        for dps in range(15, 1011):
            m0, q = expansion_plan(dps, alternating)
            assert m0 >= MARGIN * q, dps
            bound = -dps * log(10)
            assert log(2 * m0) + lgamma(q + 4) - (q + 2) * log(c * m0) <= bound, dps
            assert lgamma(q + 2) - (q + 1) * log(c * m0) <= bound, dps
            if not alternating:
                for p in (1.5, 2, 2.5, 3):
                    assert _log_first_dropped_plain_term(m0, q, p) <= bound, (dps, p)
    # the plans at 30, 100 and 200 digits (40, 110 and 210 working digits)
    assert [expansion_plan(d, True) for d in (40, 110, 210)] == [
        (112, 28), (389, 67), (1005, 114)]
    assert [expansion_plan(d, False) for d in (40, 110, 210)] == [
        (92, 23), (268, 60), (711, 103)]


@pytest.mark.parametrize("digits", [15, 30, 100, 200])
def test_run_start_and_tailcalc_share_the_plan(digits):
    ctx = PrecisionContext(digits=digits)
    for alternating in (False, True):
        m0, qmax = expansion_plan(ctx.working_digits, alternating)
        assert first_checkpoint(ctx, alternating) == m0
        assert ctx.tail_calc(alternating).qmax == qmax
        assert TailCalc(ctx.mp, alternating).qmax == qmax


# -- alternating (Boole) tail sums ------------------------------------------------

# the tails after the first checkpoint at 30 digits and after M = 500
ALT_X = (first_checkpoint(PrecisionContext(digits=30), True) - 1, 499)


def _alt_power_tail(mp, p, x):
    """sum_{m>x} (-1)**m (m+1)**-p, by Hurwitz zeta at half-integer shifts:
    the terms pair up into 2**-p (zeta(p, (x+2)/2) - zeta(p, (x+3)/2))."""
    half = mp.mpf(x + 2) / 2
    return (-1) ** (x + 1) * 2 ** -p * (mp.zeta(p, half) - mp.zeta(p, half + mp.mpf(1) / 2))


def _check_alt(build):
    """The Boole sumtail of build(calc, mp) at each ALT_X and 30 digits,
    against the Hurwitz form of every power at 60 digits."""
    ctx = PrecisionContext(digits=30)
    mp = ctx.mp
    calc = TailCalc(mp, True)
    f = build(calc, mp)
    G = calc.sumtail(f)
    for x in ALT_X:
        got = (-1) ** x * tail_value(mp, calc, G, x)
        with mp.workdps(2 * mp.dps):
            want = sum(mp.ldexp(c, q * calc.d - calc.bits)
                       * _alt_power_tail(mp, _mpf(mp, f.rho + q), x)
                       for q, c in f.coeffs.items())
        tol = mp.mpf(10) ** -ctx.working_digits * abs(want)
        assert abs(got - want) <= tol, (x, mp.nstr(got - want, 5))


@pytest.mark.parametrize("p", ["1/2", "2", "3"])
def test_alternating_sumtail_of_single_power(p):
    _check_alt(lambda calc, mp: _poly(calc, p, {0: 1}))


def test_alternating_sumtail_of_ratio_shape():
    # (1/2)_t / (5/2)_t: the decay rho = 2 of a ratio-weighted level
    _check_alt(lambda calc, mp: calc.ratio_asymptotics([Fraction(1, 2)], [Fraction(5, 2)]))


def test_sumtail_domain_thresholds():
    mp = PrecisionContext(digits=30).mp
    calc, boole = TailCalc(mp, False), TailCalc(mp, True)
    with pytest.raises(DomainError):
        calc.sumtail(_poly(calc, 1, {0: 1}))    # plain needs min power > 1
    assert boole.sumtail(_poly(boole, 1, {0: 1})).coeffs
    for f in (_poly(boole, 0, {0: 1}), _poly(boole, 2, {-2: 1, 0: 1})):
        with pytest.raises(DomainError):
            boole.sumtail(f)                    # alternating needs > 0
    assert boole.sumtail(_poly(boole, "0.25", {0: 1})).coeffs


# -- the mpf tail algebra as an oracle ---------------------------------------------
#
# TailCalc's algebra as it stood in mpf arithmetic: a poly is (rho, {q: c}) in
# mpf, truncated at the qmax of the TailCalc under test so that both sides
# drop the same keys. Run at twice the working digits, it checks the fixed
# point arithmetic alone, not the truncation.

def _oracle_sumtail(mp, qmax, f, alternating):
    rho, coeffs = f
    out = {}
    zero = mp.mpf(0)
    for q, cq in coeffs.items():
        p = rho + q
        if q - 1 <= qmax and not alternating:
            out[q - 1] = out.get(q - 1, zero) + cq / (p - 1)
        if q <= qmax:
            out[q] = out.get(q, zero) - cq / 2
        rf = cq * p  # c_q * (p)_{2k-1}, built incrementally
        k = 1
        while q - 1 + 2 * k <= qmax:
            fac = mp.bernoulli(2 * k) / mp.factorial(2 * k)
            if alternating:
                fac *= 4 ** k - 1
            out[q - 1 + 2 * k] = out.get(q - 1 + 2 * k, zero) + rf * fac
            rf *= (p + 2 * k - 1) * (p + 2 * k)
            k += 1
    return rho, out


def _oracle_mul(mp, qmax, f, g):
    coeffs = {}
    for qf, cf in f[1].items():
        for qg, cg in g[1].items():
            if qf + qg <= qmax:
                coeffs[qf + qg] = coeffs.get(qf + qg, mp.mpf(0)) + cf * cg
    return f[0] + g[0], coeffs


def _oracle_add(mp, f, g):
    coeffs = dict(f[1])
    for q, c in g[1].items():
        coeffs[q] = coeffs.get(q, mp.mpf(0)) + c
    return f[0], coeffs


def _oracle_ratio_asymptotics(mp, qmax, ns, ds, rho):
    P = [mp.mpf(0)] * (qmax + 2)
    P[0] = mp.mpf(1)
    for n in ns:
        for i in range(qmax + 1, 0, -1):
            P[i] += P[i - 1] * (n - 1)
    for d in ds:
        for i in range(1, qmax + 2):
            P[i] -= P[i - 1] * (d - 1)
    cols = []
    for q in range(qmax):
        col = [mp.mpf(1)]
        for j in range(qmax + 1 - q):
            col.append(col[j] * ((-q - rho - j) / (j + 1)))
        cols.append(col)
    c = {0: mp.mpf(1)}
    for m in range(2, qmax + 2):
        acc = mp.mpf(0)
        for q in range(0, m - 1):
            acc += c[q] * (cols[q][m - q] - P[m - q])
        c[m - 1] = acc / (m - 1)
    return rho, c


def _oracle_eval(mp, f, x):
    return sum(c * mp.mpf(x + 1) ** -(f[0] + q) for q, c in f[1].items())


def _random_poly(rng, rho, qlo, qmax):
    """Exact coefficients on a random key set from qlo up: the lowest one of
    size 1/2..1, so the value at x = 499 has no cancellation."""
    keys = [qlo] + sorted(rng.sample(range(qlo + 1, qmax + 1), rng.randint(2, 8)))
    coeffs = {q: Fraction(rng.randint(-10 ** 6, 10 ** 6), 10 ** 6) for q in keys}
    coeffs[qlo] = Fraction(rng.choice((-1, 1)) * rng.randint(5 * 10 ** 5, 10 ** 6), 10 ** 6)
    return Fraction(rho), coeffs


def _oracle_poly(mp, f):
    """The exact poly f as an oracle poly at mp's precision."""
    rho, coeffs = f
    return _mpf(mp, rho), {q: _mpf(mp, c) for q, c in coeffs.items()}


# (rho, lowest key) of plain and alternating random polys: integer and
# fractional offsets, negative keys, minimum powers above 1 (plain) or 0
PLAIN = [(2, 0), (3, -1), ("5/2", -1), ("7/3", 0), (4, -2)]
ALTERNATING = [("1/2", 0), (1, 0), (2, -1), ("7/3", -2), ("5/4", 0)]
ORACLE_X = 499


def _check_algebra(digits, alternating, seed, xs):
    """Every TailCalc operation on seeded random polys, evaluated at each x
    in xs, against the mpf oracle at twice the working digits."""
    ctx = PrecisionContext(digits=digits)
    mp = ctx.mp
    calc = TailCalc(mp, alternating)
    qmax = calc.qmax
    rng = random.Random(1000 * digits + 10 * seed + alternating)
    rho, qlo = rng.choice(ALTERNATING if alternating else PLAIN)
    f = _random_poly(rng, rho, qlo, qmax)
    g = _random_poly(rng, rng.choice(["1/3", 1, 2] if alternating else [2, "5/2", 3]), 0, qmax)
    ns = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(2)]
    ds = [n + Fraction(rng.randint(2, 8), rng.randint(1, 2)) for n in ns]  # rho >= 2
    rho_r = sum(ds) - sum(ns)

    fx, gx = _poly(calc, *f), _poly(calc, *g)
    shape = calc.ratio_asymptotics(ns, ds)
    got = {
        "sumtail": calc.sumtail(fx),
        "mul": calc.mul(fx, gx),
        "sumtail(mul(f, add(g, sumtail(g))))": calc.sumtail(
            calc.mul(fx, calc.add(gx, calc.sumtail(gx)))),
        "ratio_asymptotics": shape,
        "sumtail(shape)": calc.sumtail(shape),
    }
    with mp.workdps(2 * mp.dps):
        fo, go = _oracle_poly(mp, f), _oracle_poly(mp, g)
        so = _oracle_ratio_asymptotics(mp, qmax, [_mpf(mp, n) for n in ns],
                                       [_mpf(mp, d) for d in ds], _mpf(mp, rho_r))
        want = {
            "sumtail": _oracle_sumtail(mp, qmax, fo, alternating),
            "mul": _oracle_mul(mp, qmax, fo, go),
            "sumtail(mul(f, add(g, sumtail(g))))": _oracle_sumtail(mp, qmax, _oracle_mul(
                mp, qmax, fo, _oracle_add(mp, go, _oracle_sumtail(mp, qmax, go, alternating))),
                alternating),
            "ratio_asymptotics": so,
            "sumtail(shape)": _oracle_sumtail(mp, qmax, so, alternating),
        }
    for x in xs:
        with mp.workdps(2 * mp.dps):
            wx = {name: _oracle_eval(mp, h, x) for name, h in want.items()}
        for name, h in got.items():
            val = tail_value(mp, calc, h, x)
            with mp.workdps(2 * mp.dps):
                err = abs(val - wx[name]) / abs(wx[name])
                assert err <= mp.mpf(10) ** -ctx.working_digits, (x, name, mp.nstr(err, 3))


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("alternating", [False, True], ids=["plain", "boole"])
@pytest.mark.parametrize("seed", range(4))
def test_fixed_point_algebra_matches_mpf_oracle(digits, alternating, seed):
    _check_algebra(digits, alternating, seed, (ORACLE_X,))


@pytest.mark.parametrize("digits", [30, 100, 200])
@pytest.mark.parametrize("alternating", [False, True], ids=["plain", "boole"])
@pytest.mark.parametrize("seed", [4, 5])
def test_fixed_point_algebra_at_the_first_checkpoint(digits, alternating, seed):
    # the least point a run evaluates its tails at, m + 1 = M0, and the
    # least one eval_at admits, m + 1 = 2**d, where the later keys of the
    # graded scale weigh the most
    ctx = PrecisionContext(digits=digits)
    _check_algebra(digits, alternating, seed,
                   (first_checkpoint(ctx, alternating) - 1,
                    2 ** TailCalc(ctx.mp, alternating).d - 1))



@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("rho", ["7/2", "1001/2", Fraction(0.1) + 2, "2.1234567"],
                         ids=["short", "large", "float", "digits7"])
def test_eval_at_long_exponents_match_mpf_oracle(digits, rho):
    # eval_at leaves the power (m+1)**-rho to its caller, so no exponent,
    # a large one or one with a long denominator, enters it: it returns the
    # int the same coefficients give at rho = 0, and that int read back
    # with the power matches the oracle
    ctx = PrecisionContext(digits=digits)
    mp = ctx.mp
    calc = TailCalc(mp, False)
    f = _random_poly(random.Random(digits), rho, 0, calc.qmax)
    for x in (ORACLE_X, 10 ** 6):
        fx = _poly(calc, *f)
        got = tail_value(mp, calc, fx, x)
        assert calc.eval_at(fx, x) == calc.eval_at(TailPoly(Fraction(0), fx.coeffs), x)
        with mp.workdps(2 * mp.dps):
            want = _oracle_eval(mp, _oracle_poly(mp, f), x)
            err = abs(got - want) / abs(want)
            assert err <= mp.mpf(10) ** -ctx.working_digits, (x, mp.nstr(err, 3))


@pytest.mark.parametrize("digits", [30, 100, 200])
def test_eval_at_rejects_points_below_the_graded_minimum(digits):
    # key q sits at scale 2**(bits - q*d): below m + 1 = 2**d a unit of a
    # later key would outweigh one of key 0
    ctx = PrecisionContext(digits=digits)
    for alternating, sign in ((False, 1), (True, -1)):
        # the Boole tail of (m+1)^-2 is about -(m+2)^-2/2
        calc = TailCalc(ctx.mp, alternating)
        f = calc.scale(calc.sumtail(calc.pow_weight(2, 1)), sign)
        m0 = first_checkpoint(ctx, alternating)
        assert 2 ** calc.d <= m0 < 2 ** (calc.d + 1)
        with pytest.raises(DomainError):
            calc.eval_at(f, 2 ** calc.d - 2)
        with pytest.raises(DomainError):
            calc.eval_at(TailPoly(Fraction(2), {}), 0)
        assert calc.eval_at(f, m0 - 1) > 0
        assert calc.eval_at(f, 2 ** calc.d - 1) > 0


def test_bernoulli_table_matches_bernfrac(monkeypatch):
    # the tangent-number table, grown on demand from empty, against
    # mpmath's B_2k: the same reduced pairs (num, den * (2k)!). It grows one
    # entry at a time, to exactly the k asked for, and keeps every entry it
    # made: a jump ahead adds the missing entries and touches no earlier one
    from mpmath import bernfrac
    from mzsv import tailcalc
    monkeypatch.setattr(tailcalc, "_em_exact", [])
    monkeypatch.setattr(tailcalc, "_em_state", [[], 1, 1])
    made = []
    for k in list(range(1, 61)) + [97, 130]:
        tailcalc._em_fraction(k)
        assert len(tailcalc._em_exact) == k
        assert all(a is b for a, b in zip(made, tailcalc._em_exact))
        made = list(tailcalc._em_exact)
    for k in range(1, 131):
        num, den = bernfrac(2 * k)
        assert tailcalc._em_fraction(k) == (num, den * factorial(2 * k)), k
    assert len(tailcalc._em_exact) == 130


def test_each_context_keeps_one_tail_algebra_and_its_rows():
    ctx = PrecisionContext(digits=30)
    calc, boole = ctx.tail_calc(False), ctx.tail_calc(True)
    assert ctx.tail_calc(False) is calc and ctx.tail_calc(True) is boole
    assert boole is not calc and boole.alternating and not calc.alternating
    twin = PrecisionContext(digits=30)
    assert twin.tail_calc(False) is not calc
    assert ctx.raised(90).tail_calc(False) not in (calc, twin.tail_calc(False))
    # key 5 of a poly at rho = 1/2 asks for a shorter row of p = 11/2 than
    # key 0 of one at rho = 11/2; the longer request extends it in place
    calc.sumtail(_poly(calc, "1/2", {5: 1}))
    kept = calc.rows[(11, 2)]
    short = list(kept)
    assert len(short) == (calc.qmax - 4) // 2 + 1
    calc.sumtail(_poly(calc, "11/2", {0: 1}))
    row = calc.rows[(11, 2)]
    assert row is kept and len(row) == (calc.qmax + 1) // 2 + 1
    assert row[:len(short)] == short
    assert row == TailCalc(ctx.mp, False)._sum_row(11, 2, len(row) - 1)
    assert twin.tail_calc(False).rows == {} and boole.rows == {}
    # a second evaluation of one chain (at another tolerance, past the
    # memo) takes the tails the first one built, one per level, and builds
    # no row
    levels = index_levels((3, 1, 2))
    ChainEvaluator(ctx, levels, alternating=True).run(ctx.mp.mpf("1e-30"))
    built, tails = dict(boole.rows), dict(boole.suffix_tails)
    assert len(built) > 2 and len(tails) == len(levels)
    ChainEvaluator(ctx, levels, alternating=True).run(ctx.mp.mpf("1e-25"))
    for kept, now in ((built, boole.rows), (tails, boole.suffix_tails)):
        assert now.keys() == kept.keys()
        assert all(now[k] is kept[k] for k in kept)
    assert calc.suffix_tails == {}


# -- tails shared by the chains of one context -------------------------------------

_GAUSS = Level(ratio=Ratio((Fraction(3, 10), Fraction(2, 5)), (Fraction(1), Fraction(11, 5)),
                           init=Fraction(1)))


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("earlier, later, strict, alternating, shared", [
    # zeta*(1, 2, 2) after zeta*(2, 2): the levels run innermost first, so
    # the two chains share their outer levels (2, 2)
    ((index_levels((2, 2)), False, False), index_levels((1, 2, 2)), False, False, 2),
    ((index_levels((1, 1, 3)), False, False), index_levels((2, 1, 1, 3)), False, False, 3),
    ((index_levels((2, 3)), True, False), index_levels((1, 1, 2, 3)), True, False, 2),
    ((index_levels((1, 2)), False, True), index_levels((3, 1, 2)), False, True, 2),
    ((index_levels((2,)) + [_GAUSS], False, False), index_levels((1, 2)) + [_GAUSS],
     False, False, 2),
    # a weak chain's tails are not a strict one's, and a plain chain's are
    # not an alternating one's
    ((index_levels((2, 3)), False, False), index_levels((1, 2, 3)), True, False, 0),
    ((index_levels((2, 3)), False, False), index_levels((1, 2, 3)), False, True, 0),
], ids=["weak", "weak-deep", "strict", "alternating", "ratio", "strict-after-weak",
        "alternating-after-plain"])
def test_shared_suffix_tails_match_a_fresh_context(monkeypatch, digits, earlier, later,
                                                   strict, alternating, shared):
    # a chain whose outer levels an earlier chain on its context built takes
    # their tails, builds only the levels it does not share, and corrects
    # its truncation bit for bit as the same chain on a fresh context does
    ctx = PrecisionContext(digits)
    first = ChainEvaluator(ctx, *earlier)
    first.advance_to(first.start)
    first.tail_correction(first.start - 1)

    counts = {}
    sumtail = TailCalc.sumtail

    def counted(calc, f):
        counts[calc] = counts.get(calc, 0) + 1
        return sumtail(calc, f)

    monkeypatch.setattr(TailCalc, "sumtail", counted)
    fresh_ctx = PrecisionContext(digits)
    values = []
    for c in (ctx, fresh_ctx):
        ev = ChainEvaluator(c, later, strict, alternating)
        ev.advance_to(ev.start)
        values.append(ev.tail_correction(ev.start - 1))
    assert values[0] == values[1] and values[0] != 0
    assert counts[ctx.tail_calc(alternating)] == len(later) - shared
    assert counts[fresh_ctx.tail_calc(alternating)] == len(later)


def test_equal_shift_sets_share_one_shape():
    calc = PrecisionContext(30).tail_calc(False)
    ns, ds = (Fraction(1, 3), Fraction(7, 4)), (Fraction(1), Fraction(9, 4))
    shape = calc.ratio_asymptotics(ns, ds)
    assert calc.ratio_asymptotics(list(ns), list(ds)) is shape
    other = calc.ratio_asymptotics(ns, (Fraction(1), Fraction(5, 2)))
    assert other is not shape and other.rho != shape.rho
    fresh = TailCalc(PrecisionContext(30).mp, False).ratio_asymptotics(ns, ds)
    assert (fresh.rho, fresh.coeffs) == (shape.rho, shape.coeffs)


# shift sets that reduce before the recurrence: shared shifts cancel, and an
# integer-step pair n, n + j peels into the power factors (t+n+i)**-1, i < j
REDUCING = {
    "shared": ((Fraction(1), Fraction(1), Fraction(13, 10)),
               (Fraction(1), Fraction(17, 10), Fraction(5, 2))),
    "kr_levels": ((2, 2, Fraction(13, 10), 1, 1, 1, 1),
                  (1, 1, Fraction(17, 10), 2, 2, 2, 2)),
    "steps": ((Fraction(1, 3), Fraction(7, 10), Fraction(7, 10)),
              (Fraction(10, 3), Fraction(17, 10), Fraction(9, 4))),
    "mixed": ((Fraction(1, 2), Fraction(3, 5), Fraction(2)),
              (Fraction(5, 2), Fraction(3, 2), Fraction(11, 5))),
    "telescope": ((Fraction(1, 2), Fraction(1, 3), 1), (Fraction(5, 2), Fraction(7, 3), 4)),
}


def _reference_ratio_shape(calc, ns, ds):
    """The general recurrence as plain loops, column by column and one
    indexed sum per key: how ratio_asymptotics ran it on every shape
    before its anti-diagonal sums, rounded at the same points."""
    bits, d, qmax = calc.bits, calc.d, calc.qmax
    one = 1 << bits
    rho = sum(map(Fraction, ds), Fraction(0)) - sum(map(Fraction, ns), Fraction(0))
    P = [one] + [0] * (qmax + 1)
    for n in ns:
        u = Fraction(n) - 1
        for i in range(qmax + 1, 0, -1):
            P[i] += P[i - 1] * u.numerator // (u.denominator << d)
    for s in ds:
        u = Fraction(s) - 1
        for i in range(1, qmax + 2):
            P[i] -= P[i - 1] * u.numerator // (u.denominator << d)
    rn, rd = rho.numerator, rho.denominator
    cols = []
    for q in range(qmax):
        col = [one]
        for j in range(qmax + 1 - q):
            col.append(col[j] * (-(q + j) * rd - rn) // (rd * (j + 1) << d))
        cols.append(col)
    c = [one]
    for m in range(2, qmax + 2):
        acc = sum(c[q] * (cols[q][m - q] - P[m - q]) for q in range(m - 1))
        c.append((acc >> (bits - d)) // (m - 1))
    return rho, dict(enumerate(c))


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("alternating", [False, True], ids=["plain", "boole"])
def test_ratio_recurrence_is_bit_identical_to_plain_loops(digits, alternating):
    # the anti-diagonal sums add the same exact products as the plain loops,
    # so every coefficient is the same integer
    calc = TailCalc(PrecisionContext(digits).mp, alternating)
    rng = random.Random(4200 + digits + alternating)
    for _ in range(6):
        k = rng.randint(0, 3)
        ns, ds = ([Fraction(rng.randint(1, 40), rng.randint(1, 10)) for _ in range(k)]
                  for _ in range(2))
        shape = calc._ratio_shape(ns, ds)
        assert (shape.rho, shape.coeffs) == _reference_ratio_shape(calc, ns, ds), (ns, ds)


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("alternating", [False, True], ids=["plain", "boole"])
def test_reduced_ratio_shapes_match_the_mpf_oracle(digits, alternating, monkeypatch):
    # every key of the reduced shape against the recurrence on the raw
    # lists in mpf at twice the digits, in units of the key's graded scale.
    # The general recurrence forms key m - 1 from entries at key m's scale,
    # d bits coarser, so its keys carry up to about 2**(d+1) units; k power
    # passes add at most k + 1, so a shape that telescopes completely stays
    # within a few units
    mp = PrecisionContext(digits).mp
    calc = TailCalc(mp, alternating)
    recurrences = []
    recurrence = TailCalc._ratio_shape
    monkeypatch.setattr(TailCalc, "_ratio_shape",
                        lambda self, ns, ds: recurrences.append(ns) or recurrence(self, ns, ds))
    for name, (ns, ds) in REDUCING.items():
        recurrences.clear()
        shape = calc.ratio_asymptotics(ns, ds)
        rho = sum(map(Fraction, ds)) - sum(map(Fraction, ns))
        assert shape.rho == rho and shape.coeffs[0] == 1 << calc.bits, name
        with mp.workdps(2 * mp.dps):
            _, want = _oracle_ratio_asymptotics(mp, calc.qmax, [_mpf(mp, n) for n in ns],
                                                [_mpf(mp, d) for d in ds], _mpf(mp, rho))
            worst = max(abs(shape.coeffs.get(q, 0)
                            - want[q] * mp.mpf(2) ** (calc.bits - q * calc.d))
                        for q in range(calc.qmax + 1))
        bound = 2 ** (calc.d + 2) if recurrences else 1 + int(rho)
        assert worst <= bound, (name, mp.nstr(worst, 4), bound)
        assert bool(recurrences) == (name != "telescope"), name


def test_equal_reductions_share_one_shape(monkeypatch):
    calc = PrecisionContext(30).tail_calc(False)
    built = []
    recurrence = TailCalc._ratio_shape
    monkeypatch.setattr(TailCalc, "_ratio_shape",
                        lambda self, ns, ds: built.append((ns, ds)) or recurrence(self, ns, ds))
    ns, ds = REDUCING["kr_levels"]
    shape = calc.ratio_asymptotics(ns, ds)
    assert built == [((Fraction(13, 10),), (Fraction(17, 10),))]
    # a permuted list, and lists with the same remainder and peeled
    # factors, take the very same object without a second recurrence
    assert calc.ratio_asymptotics(ns[::-1], ds[::-1]) is shape
    same = calc.ratio_asymptotics((Fraction(13, 10), 1, 1, 5), (2, 2, 5, Fraction(17, 10)))
    assert same is shape
    assert len(built) == 1
    # the remainder alone is a shape of its own, of lower rho, kept when it
    # was first built, so neither it nor the remainder with other peeled
    # pairs runs a second recurrence
    bare = calc.ratio_asymptotics((Fraction(13, 10),), (Fraction(17, 10),))
    assert bare is not shape and bare.rho == shape.rho - 2
    other = calc.ratio_asymptotics((Fraction(13, 10), Fraction(1, 2)),
                                   (Fraction(17, 10), Fraction(7, 2)))
    assert other.rho == bare.rho + 3 and len(built) == 1
    # a shift on both sides cancels: [1, 1]/[1, 17/10] is [1]/[17/10]
    assert (calc.ratio_asymptotics((1, 1), (1, Fraction(17, 10)))
            is calc.ratio_asymptotics((1,), (Fraction(17, 10),)))


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("alternating", [False, True], ids=["plain", "boole"])
def test_a_telescoping_ratio_runs_no_recurrence(digits, alternating, monkeypatch):
    # (1/2)(1/3)(1) over (5/2)(7/3)(4): every pair steps by a whole number,
    # so the shape is (t+1/2)^-1 (t+3/2)^-1 (t+1/3)^-1 (t+4/3)^-1
    # (t+1)^-1 (t+2)^-1 (t+3)^-1, the pow_weight passes in ascending shift
    calc = TailCalc(PrecisionContext(digits).mp, alternating)
    monkeypatch.setattr(TailCalc, "_ratio_shape", lambda *args: pytest.fail("recurrence run"))
    shape = calc.ratio_asymptotics(*REDUCING["telescope"])
    want = None
    for c in sorted([Fraction(1, 3), Fraction(1, 2), 1, Fraction(4, 3), Fraction(3, 2), 2, 3]):
        want = calc.pow_weight(1, c, want)
    assert (shape.rho, shape.coeffs) == (want.rho, want.coeffs) == (7, want.coeffs)
    # and an empty ratio, or one whose shifts all cancel, is the constant 1
    assert calc.ratio_asymptotics((), ()).coeffs == {0: 1 << calc.bits}
    cancelled = calc.ratio_asymptotics((Fraction(2, 3),), (Fraction(2, 3),))
    assert cancelled.coeffs == {0: 1 << calc.bits}


def test_shared_suffix_tail_is_evaluated_once_per_checkpoint(monkeypatch):
    # zeta*(1, 2, 2) after zeta*(2, 2) takes the tails of the outer levels
    # (2, 2) from its context, and at the same checkpoint their values too:
    # eval_at returns the value it kept on the tail, the very object the
    # first chain got, so no second Horner pass made it
    ctx = PrecisionContext(30)
    calls = []
    eval_at = TailCalc.eval_at

    def recorded(calc, f, m):
        value = eval_at(calc, f, m)
        calls.append((f, m, value))
        return value

    monkeypatch.setattr(TailCalc, "eval_at", recorded)

    def correction(parts, c):
        ev = ChainEvaluator(c, index_levels(parts))
        ev.advance_to(ev.start)
        return ev.tail_correction(ev.start - 1)

    correction((2, 2), ctx)
    first = {(id(f), m): value for f, m, value in calls}
    kept = [f for f, m, value in calls]
    calls.clear()
    later = correction((1, 2, 2), ctx)
    assert len(first) == 2 and all(f.values for f in kept)
    shared = [(f, m, value) for f, m, value in calls if (id(f), m) in first]
    assert len(shared) == 2 and len(calls) == 3
    assert all(value is first[id(f), m] for f, m, value in shared)
    assert correction((1, 2, 2), PrecisionContext(30)) == later


# -- power weights by first-order passes ------------------------------------------

POW_SHIFTS = [0, 1, Fraction(3, 5), Fraction(7, 10), Fraction(13, 10), Fraction(17, 10)]


def _binomial_series(calc, k, c):
    """(m+c)**-k as the dense binomial series in (m+1)**-1, one running term
    rounded down per key, up to qmax or its first zero: how pow_weight built
    it before its passes, and what chains multiplied a tail by."""
    u = 1 - Fraction(c)
    coeffs = {}
    term = 1 << calc.bits
    for j in range(calc.qmax + 1):
        if not term:
            break
        coeffs[j] = term
        term = term * u.numerator * (k + j) // (u.denominator * (j + 1) << calc.d)
    return TailPoly(Fraction(k), coeffs)


def _exact_product(calc, k, c, f):
    """f * (m+c)**-k in exact rationals at the graded scale, keys lo..qmax:
    key q gathers f_j binom(k+i-1, i) (u 2**-d)**i, i = q - j, u = 1 - c.
    Returned as {q: (numerator, denominator)}, over (u's denominator times
    2**d)**(q - lo)."""
    u = 1 - Fraction(c)
    un, ud = u.numerator, u.denominator << calc.d
    lo = min(f.coeffs)
    binoms = [comb(k + i - 1, i) * un ** i for i in range(calc.qmax - lo + 1)]
    out = {}
    for q in range(lo, calc.qmax + 1):
        out[q] = (sum(fj * binoms[q - j] * ud ** (j - lo)
                      for j, fj in f.coeffs.items() if j <= q), ud ** (q - lo))
    return out


@pytest.mark.parametrize("digits", [30, 100, 200])
@pytest.mark.parametrize("alternating", [False, True], ids=["plain", "boole"])
def test_pow_weight_passes_match_the_dense_product(digits, alternating):
    # k passes round down once per key each, so every key is within k + 1
    # units of the exact product. The dense route, a product by the rounded
    # binomial series, stops that series at qmax and where it rounds to 0,
    # so next to a plain tail's key -1 (2**d units) it drops up to 2**d
    # units at a key; its values at the first checkpoint must still agree
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    calc = TailCalc(mp, alternating)
    m = first_checkpoint(ctx, alternating) - 1
    rtol = mp.mpf(10) ** -ctx.working_digits
    tails = {
        "sumtail": calc.sumtail(calc.pow_weight(3, 1)),
        "shape": calc.ratio_asymptotics((Fraction(13, 10), Fraction(1, 3)),
                                        (Fraction(7, 10), Fraction(5, 2))),
    }
    for name, f in tails.items():
        for k in range(1, 10):
            for c in POW_SHIFTS:
                got = calc.pow_weight(k, c, f)
                assert got.rho == f.rho + k
                if c == 1:
                    assert got.coeffs == f.coeffs
                    continue
                want = _exact_product(calc, k, c, f)
                assert sorted(got.coeffs) == sorted(want), (name, k, c)
                assert all(abs(got.coeffs[q] * den - num) <= (k + 1) * den
                           for q, (num, den) in want.items()), (name, k, c)
                dense = calc.eval_at(calc.mul(f, _binomial_series(calc, k, c)), m)
                passes = calc.eval_at(got, m)
                assert abs(passes - dense) <= abs(dense) * rtol, (name, k, c)


@pytest.mark.parametrize("digits", [30, 100, 200])
@pytest.mark.parametrize("alternating", [False, True], ids=["plain", "boole"])
def test_pow_weight_alone_is_the_binomial_series(digits, alternating):
    # from the constant 1 the passes give binom(k+j-1, j) u**j at key j's
    # scale within k units, and stop where the series rounds away
    calc = TailCalc(PrecisionContext(digits).mp, alternating)
    for k in range(1, 10):
        for c in POW_SHIFTS:
            got = calc.pow_weight(k, c)
            assert got.rho == k
            u = 1 - Fraction(c)
            exact = {j: comb(k + j - 1, j) * u ** j
                     * Fraction(2) ** (calc.bits - j * calc.d)
                     for j in range(calc.qmax + 1)}
            assert min(got.coeffs) == 0
            assert all(abs(got.coeffs.get(j, 0) - v) <= k for j, v in exact.items()), (k, c)
            if c == 1:
                assert got.coeffs == {0: 1 << calc.bits}
            top = max(got.coeffs)
            assert got.coeffs[top] != 0
            assert top == calc.qmax or abs(exact[top + 1]) < k + 1, (k, c)
    assert calc.pow_weight(0, Fraction(3, 5)).coeffs == {0: 1 << calc.bits}


def test_eval_at_keeps_the_key_order():
    # the keys are sorted at the first evaluation and reused at every later
    # point, which evaluates as on a fresh poly
    calc = TailCalc(PrecisionContext(30).mp, False)
    coeffs = {2: 1, -1: "0.5", 0: -2}
    f = _poly(calc, 3, coeffs)
    assert f.keys is None
    first = calc.eval_at(f, X)
    assert f.keys == [2, 0, -1]
    for m in (2 * X, X):
        assert calc.eval_at(f, m) == calc.eval_at(_poly(calc, 3, coeffs), m)
    assert calc.eval_at(f, X) is first and f.keys == [2, 0, -1]
