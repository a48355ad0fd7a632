"""Tail-polynomial algebra against independent oracles.

sum_{m>x} (m+1)**-p is the Hurwitz zeta value zeta(p, x+2), which mpmath
computes by its own route, so every tail sum below has a reference that
shares no code with TailCalc. TailCalc keeps the coefficient of key q as
an integer at scale 2**(bits - q*d); the mpf algebra it replaced is kept
below as a second oracle, run at twice the working digits.
"""

import random
from fractions import Fraction
from math import factorial, floor, lgamma, log, pi

import pytest

from mzsv import DomainError, PrecisionContext
from mzsv.chains import ChainEvaluator, first_checkpoint, index_levels
from mzsv.tailcalc import MARGIN, TailCalc, TailPoly, expansion_plan, power_sum_tail

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


def _poly(calc, rho, coeffs):
    """The TailPoly sum_q coeffs[q] (m+1)**-(rho+q), from exact numbers."""
    fixed = {q: floor(Fraction(c) * Fraction(2) ** (calc.bits - q * calc.d))
             for q, c in coeffs.items()}
    return TailPoly(Fraction(rho), fixed)


@pytest.mark.parametrize("rho", ["2", "3", "2.5", "1.25"])
def test_sumtail_of_single_power(env, rho):
    mp, calc, rtol = env
    got = calc.eval_at(calc.sumtail(_poly(calc, rho, {0: 1})), X)
    _close(mp, got, mp.zeta(_mpf(mp, rho), X + 2), rtol)


@pytest.mark.parametrize("k,shift", [(2, "0"), (3, "1/3"), (2, "5/2"), (4, "-1/2")])
def test_sumtail_of_shifted_pow_weight(env, k, shift):
    mp, calc, rtol = env
    c = _mpf(mp, shift)
    got = calc.eval_at(calc.sumtail(calc.pow_weight(k, Fraction(shift))), X)
    # sum_{m>x} (m+c)**-k = zeta(k, x+1+c)
    _close(mp, got, mp.zeta(k, X + 1 + c), rtol)


def test_sumtail_with_negative_keys(env):
    mp, calc, rtol = env
    rho = mp.mpf("3.5")
    f = _poly(calc, "3.5", {-1: 2, 0: -3, 2: "0.5"})
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
    got = calc.eval_at(shape, t2) / calc.eval_at(shape, t1)
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


# -- the first checkpoint and the expansion order -----------------------------------

def test_expansion_plan_truncation_and_margin():
    # at every precision from 15 to 1000 digits (any guard), the first
    # dropped key leaves a Boole truncation of at most 10^-dps at the first
    # checkpoint, of the tail of (m+1)^-3 relative to itself,
    # 2 M0 (q+3)!/(pi M0)^(q+2), and so also of the estimate the truncation
    # of every tail starts from, (q+1)!/(pi M0)^(q+1); M0 stays MARGIN *
    # qmax clear of qmax, the margin eval_at asks for
    assert MARGIN >= 4
    for dps in range(15, 1011):
        m0, q = expansion_plan(dps)
        assert m0 >= MARGIN * q, dps
        bound = -dps * log(10)
        assert log(2 * m0) + lgamma(q + 4) - (q + 2) * log(pi * m0) <= bound, dps
        assert lgamma(q + 2) - (q + 1) * log(pi * m0) <= bound, dps


@pytest.mark.parametrize("digits", [15, 30, 100, 200])
def test_run_start_and_tailcalc_share_the_plan(digits):
    ctx = PrecisionContext(digits=digits)
    m0, qmax = expansion_plan(ctx.working_digits)
    assert first_checkpoint(ctx) == m0
    assert TailCalc(ctx.mp).qmax == qmax


# -- alternating (Boole) tail sums ------------------------------------------------

# the tails after the first checkpoint at 30 digits and after M = 500
ALT_X = (first_checkpoint(PrecisionContext(digits=30)) - 1, 499)


def _alt_power_tail(mp, p, x):
    """sum_{m>x} (-1)**m (m+1)**-p, by Hurwitz zeta at half-integer shifts:
    the terms pair up into 2**-p (zeta(p, (x+2)/2) - zeta(p, (x+3)/2))."""
    half = mp.mpf(x + 2) / 2
    return (-1) ** (x + 1) * 2 ** -p * (mp.zeta(p, half) - mp.zeta(p, half + mp.mpf(1) / 2))


def _check_alt(build):
    """sumtail(alternating=True) of build(calc, mp) at each ALT_X and 30
    digits, against the Hurwitz form of every power at 60 digits."""
    ctx = PrecisionContext(digits=30)
    mp = ctx.mp
    calc = TailCalc(mp)
    f = build(calc, mp)
    G = calc.sumtail(f, alternating=True)
    for x in ALT_X:
        got = (-1) ** x * calc.eval_at(G, x)
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
    calc = TailCalc(mp)
    one = _poly(calc, 1, {0: 1})
    with pytest.raises(DomainError):
        calc.sumtail(one)                       # plain needs min power > 1
    assert calc.sumtail(one, alternating=True).coeffs
    for f in (_poly(calc, 0, {0: 1}), _poly(calc, 2, {-2: 1, 0: 1})):
        with pytest.raises(DomainError):
            calc.sumtail(f, alternating=True)   # alternating needs > 0
    assert calc.sumtail(_poly(calc, "0.25", {0: 1}), alternating=True).coeffs


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
    calc = TailCalc(mp)
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
        "sumtail": calc.sumtail(fx, alternating),
        "mul": calc.mul(fx, gx),
        "sumtail(mul(f, add(g, sumtail(g))))": calc.sumtail(
            calc.mul(fx, calc.add(gx, calc.sumtail(gx, alternating))), alternating),
        "ratio_asymptotics": shape,
        "sumtail(shape)": calc.sumtail(shape, alternating),
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
            val = calc.eval_at(h, x)
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
                   (first_checkpoint(ctx) - 1, 2 ** TailCalc(ctx.mp).d - 1))



@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("rho", ["7/2", "1001/2", Fraction(0.1) + 2, "2.1234567"],
                         ids=["short", "large", "float", "digits7"])
def test_eval_at_long_exponents_match_mpf_oracle(digits, rho):
    # (m+1)**-e is an exact root while (m+1)**|numerator| is small, an mpf
    # power with extra bits past that (a large e, or a long denominator)
    ctx = PrecisionContext(digits=digits)
    mp = ctx.mp
    calc = TailCalc(mp)
    f = _random_poly(random.Random(digits), rho, 0, calc.qmax)
    for x in (ORACLE_X, 10 ** 6):
        got = calc.eval_at(_poly(calc, *f), x)
        with mp.workdps(2 * mp.dps):
            want = _oracle_eval(mp, _oracle_poly(mp, f), x)
            err = abs(got - want) / abs(want)
            assert err <= mp.mpf(10) ** -ctx.working_digits, (x, mp.nstr(err, 3))


@pytest.mark.parametrize("digits", [30, 100, 200])
def test_eval_at_rejects_points_below_the_graded_minimum(digits):
    # key q sits at scale 2**(bits - q*d): below m + 1 = 2**d a unit of a
    # later key would outweigh one of key 0
    ctx = PrecisionContext(digits=digits)
    calc = TailCalc(ctx.mp)
    f = calc.sumtail(calc.pow_weight(2, 1))
    assert 2 ** calc.d <= first_checkpoint(ctx) < 2 ** (calc.d + 1)
    with pytest.raises(DomainError):
        calc.eval_at(f, 2 ** calc.d - 2)
    with pytest.raises(DomainError):
        calc.eval_at(TailPoly(Fraction(2), {}), 0)
    assert calc.eval_at(f, first_checkpoint(ctx) - 1) > 0
    assert calc.eval_at(f, 2 ** calc.d - 1) > 0


def test_bernoulli_table_matches_bernfrac(monkeypatch):
    # the tangent-number table, grown on demand from empty, against
    # mpmath's B_2k: the same reduced pairs (num, den * (2k)!)
    from mpmath import bernfrac
    from mzsv import tailcalc
    monkeypatch.setattr(tailcalc, "_em_exact", [])
    for k in range(1, 121):
        num, den = bernfrac(2 * k)
        assert tailcalc._em_fraction(k) == (num, den * factorial(2 * k)), k
    assert len(tailcalc._em_exact) == 128


def test_each_context_keeps_one_tail_algebra_and_its_rows():
    ctx = PrecisionContext(digits=30)
    calc = ctx.tail_calc()
    assert ctx.tail_calc() is calc
    twin = PrecisionContext(digits=30)
    assert twin.tail_calc() is not calc
    assert ctx.raised(90).tail_calc() not in (calc, twin.tail_calc())
    # key 5 of a poly at rho = 1/2 asks for a shorter row of p = 11/2 than
    # key 0 of one at rho = 11/2; the longer request extends it in place
    calc.sumtail(_poly(calc, "1/2", {5: 1}))
    kept = calc.rows[(11, 2, False)]
    short = list(kept)
    assert len(short) == (calc.qmax - 4) // 2 + 1
    calc.sumtail(_poly(calc, "11/2", {0: 1}))
    row = calc.rows[(11, 2, False)]
    assert row is kept and len(row) == (calc.qmax + 1) // 2 + 1
    assert row[:len(short)] == short
    assert row == TailCalc(ctx.mp)._sum_row(11, 2, False, len(row) - 1)
    assert twin.tail_calc().rows == {}
    # a second evaluation of one chain (at another tolerance, past the
    # memo) builds its tails again from the rows the first one left
    levels = index_levels((3, 1, 2))
    ChainEvaluator(ctx, levels, alternating=True).run(ctx.mp.mpf("1e-30"))
    built = dict(calc.rows)
    assert len(built) > 2
    ChainEvaluator(ctx, levels, alternating=True).run(ctx.mp.mpf("1e-25"))
    assert calc.rows.keys() == built.keys()
    assert all(calc.rows[k] is built[k] for k in built)
