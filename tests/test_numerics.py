import gc
import math
import weakref
from fractions import Fraction

import pytest

import mpmath

from mzsv import (DomainError, ParseError, PrecisionContext, derivative_at,
                  dr_inv_pochhammer_2minus_at1, gamma, get_identity, numerics,
                  verify, zeta_tail)

from mzsv import zeta as mzsv_zeta

from conftest import close


# -- gamma ---------------------------------------------------------------------

def test_gamma_classical_values(ctx30):
    assert close(gamma(1, ctx30), 1, ctx30.tol)
    assert close(gamma(5, ctx30), 24, ctx30.tol * 24)
    sqrt_pi = "1.772453850905516027298167483341145182798"
    assert gamma("0.5", ctx30).decimal().startswith(sqrt_pi[:31])


def test_gamma_reads_a_decimal_string_exactly(ctx30):
    # a decimal string is the Fraction it spells, so it takes the rational
    # paths, negative non-integers included; a negative integer is a pole,
    # a non-finite string a DomainError and a non-numeric one a ParseError
    mp = ctx30.mp
    ref_mp = mp.clone()
    ref_mp.dps = 2 * ctx30.working_digits
    for text, x in (("-0.5", Fraction(-1, 2)), ("-2.75", Fraction(-11, 4)),
                    ("-1.25e1", Fraction(-25, 2)), (" 0.5 ", Fraction(1, 2)),
                    ("1e-3", Fraction(1, 1000))):
        ours = gamma(text, ctx30).mpf
        assert ours == gamma(x, ctx30).mpf, text
        ref = ref_mp.gamma(ref_mp.mpf(x.numerator) / x.denominator)
        assert abs(ours - ref) <= 10 * ref_mp.mpf(10) ** -ctx30.working_digits * abs(ref), text
    assert gamma("-0.5", ctx30).decimal().startswith("-3.54490770181103205459")
    # an a/b string is the Fraction it spells too
    for text, x in (("-1/3", Fraction(-1, 3)), (" 7/2 ", Fraction(7, 2)),
                    ("-2001/2", Fraction(-2001, 2)), ("5000/3", Fraction(5000, 3))):
        assert gamma(text, ctx30).mpf == gamma(x, ctx30).mpf, text
    assert gamma("-1/3", ctx30).decimal().startswith("-4.0623538182792")
    with pytest.raises(DomainError, match="pole"):
        gamma("-4/2", ctx30)
    for text in ("-2", "-3.0", "0", "-1e1"):
        with pytest.raises(DomainError, match="pole"):
            gamma(text, ctx30)
    for text in ("inf", "-inf", "nan"):
        with pytest.raises(DomainError):
            gamma(text, ctx30)
    for text in ("x", "", "1/0", "-0.5x", "--1"):
        with pytest.raises(ParseError):
            gamma(text, ctx30)


def test_gamma_functional_equation(ctx30):
    for x in ("0.3", "0.7", "1.5", "2.5", "6.1"):
        xv = ctx30.real(x)
        lhs = gamma(xv + 1, ctx30)
        rhs = xv * gamma(xv, ctx30)
        assert abs((lhs - rhs).mpf) <= ctx30.tol * max(1, abs(lhs.mpf))


def test_gamma_half_squared_is_pi(ctx30):
    g = gamma("0.5", ctx30)
    assert abs((g * g).mpf - ctx30.mp.pi) <= ctx30.tol


def test_gamma_agrees_with_library_oracle(ctx50):
    # independent route: mpmath's own gamma at matching precision
    for x in ("0.25", "1.0", "3.75", "12.5"):
        ours = gamma(x, ctx50).mpf
        ref = ctx50.mp.gamma(ctx50.real(x).mpf)
        assert abs(ours - ref) <= ctx50.tol * max(1, abs(ref))


def test_gamma_meets_working_precision(ctx30):
    # log Gamma carries the integer digits of x ahead of the point, so the
    # result must still be right to the working digits as x grows, not only
    # to ctx.tol
    mp = ctx30.mp
    ref_mp = mp.clone()
    ref_mp.dps = 2 * ctx30.working_digits
    for x in (Fraction(1, 7), Fraction(1, 2), Fraction(4), Fraction(10),
              Fraction(40), Fraction(10 ** 20)):
        ours = gamma(x, ctx30).mpf
        ref = ref_mp.gamma(ref_mp.mpf(x.numerator) / x.denominator)
        assert abs(ours - ref) <= 10 * ref_mp.mpf(10) ** -ctx30.working_digits * ref, x
    # beyond the float range, against the argument as the context rounds it
    x = ctx30.real(Fraction(10 ** 400)).mpf
    ours = gamma(x, ctx30).mpf
    ref = ref_mp.gamma(ref_mp.mpf(x))
    assert abs(ours - ref) <= 10 * ref_mp.mpf(10) ** -ctx30.working_digits * ref


def test_gamma_domain(ctx30):
    with pytest.raises(DomainError):
        gamma(0, ctx30)
    with pytest.raises(DomainError):
        gamma(-2, ctx30)


def _gamma_ulps(x, ctx):
    """|gamma(x) - Gamma(x)| / |Gamma(x)| in working ulps, against mpmath at
    twice the working digits."""
    ref_mp = mpmath.mp.clone()
    ref_mp.dps = 2 * ctx.working_digits
    ref = ref_mp.gamma(ref_mp.mpf(x.numerator) / x.denominator)
    ours = ref_mp.mpf(gamma(x, ctx).mpf)
    return abs(ours - ref) / abs(ref) * ref_mp.mpf(10) ** ctx.working_digits


@pytest.mark.parametrize("digits", [30, 100])
def test_gamma_exact_path_meets_working_precision(digits):
    # integers and rationals whose integer part lies below, at and just
    # above EXACT_PART_MAX, on both sides of zero, within 10 working ulps
    ctx = PrecisionContext(digits)
    cap = numerics.EXACT_PART_MAX
    third, tiny = Fraction(1, 3), Fraction(1, 10 ** 12)
    xs = [Fraction(n) for n in (1, 2, 3, 17, cap - 1, cap, cap + 1, cap + 2)]
    xs += [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2), Fraction(7, 10),
           Fraction(11, 5), Fraction(-7, 3), Fraction(-3) + tiny, Fraction(-3) - tiny]
    for n in (cap - 1, cap, cap + 1):
        xs += [n + third, n + 1 - tiny, -n + third, -n - tiny]
    xs.append(Fraction(-10 ** 20) + Fraction(2, 3))
    for x in xs:
        assert _gamma_ulps(x, ctx) <= 10, x


def test_gamma_poles_and_negative_reals(ctx30):
    for x in (Fraction(-2000), Fraction(-numerics.EXACT_PART_MAX), Fraction(0)):
        with pytest.raises(DomainError, match="pole"):
            gamma(x, ctx30)
    # only an exact rational may be negative: a decimal string is one
    # (test_gamma_reads_a_decimal_string_exactly), a float or an HPReal is not
    for x in (-0.5, ctx30.real("-0.5")):
        with pytest.raises(DomainError):
            gamma(x, ctx30)


def test_stirling_runs_once_per_fractional_part(monkeypatch):
    # the exact path keeps Gamma(f) on the context: Stirling's series runs
    # once per distinct fractional part, however often the prefactors repeat it
    calls = []
    stirling = numerics._stirling

    def counting(x, *args):
        calls.append(x)
        return stirling(x, *args)

    monkeypatch.setattr(numerics, "_stirling", counting)
    ctx = PrecisionContext(30)
    for id_ in ("theoremA_i", "a1_specialized"):
        for params in get_identity(id_).default_grid:
            assert verify(id_, params, ctx).passed, (id_, params)
    assert calls and all(isinstance(x, Fraction) and 0 < x < 1 for x in calls)
    assert len(calls) == len(set(calls)) == len(ctx.gammas)


def test_a_repeated_gamma_is_one_lookup(monkeypatch):
    # each argument's value is kept on the context as a raw mpf, under its
    # exact value: a decimal string and its Fraction share one entry; Gamma
    # at each fractional part stays in ctx.gammas
    calls = []
    compute = numerics._gamma
    monkeypatch.setattr(numerics, "_gamma", lambda *args: calls.append(args) or compute(*args))
    ctx = PrecisionContext(30)
    for x in (Fraction(7, 10), "0.7", 5, Fraction(-2001, 2), 2.5, ctx.real("1.25"),
              Fraction(3001, 2)):
        first = gamma(x, ctx).mpf
        made = len(calls)
        assert gamma(x, ctx).mpf is first
        assert len(calls) == made
        fresh = PrecisionContext(30)
        assert first == gamma(fresh.real(x.mpf) if hasattr(x, "mpf") else x, fresh).mpf
    # "0.7" is Fraction(7, 10); -2001/2 adds 2003/2
    assert sum(args[-1] is ctx for args in calls) == 7
    assert all(type(v) is ctx.mp.mpf for v in ctx.scalars.values())
    assert all(isinstance(f, Fraction) and 0 < f < 1 for f in ctx.gammas)


def test_kept_values_leave_the_context_free_of_cycles():
    gc.collect()
    gc.disable()
    try:
        ctx = PrecisionContext(30)
        zeta_value = mzsv_zeta(3, ctx)
        gamma(Fraction(7, 10), ctx)
        gamma(2.5, ctx)
        assert len(ctx.scalars) == 3
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is not None   # zeta_value still holds it
        del zeta_value
        assert ref() is None
    finally:
        gc.enable()


def test_gamma_independent_of_call_order():
    # only exact values (the Bernoulli table) are shared between contexts;
    # a context that ran gamma at another precision must not change a later
    # context's value
    x = Fraction(7, 10)
    first = gamma(x, PrecisionContext(30)).mpf
    for digits in (20, 30, 50, 100):
        other = PrecisionContext(digits)
        for y in (x, Fraction(17, 10), Fraction(12), "0.7", "2.25"):
            gamma(y, other)
        derivative_at(lambda t: gamma(t, t.ctx), 1, 1, other)
    fresh = PrecisionContext(30)
    assert gamma(x, fresh).mpf == first
    assert _gamma_ulps(x, fresh) <= 10


@pytest.mark.parametrize("digits", [30, 100, 300])
def test_gamma_non_rational_path_meets_working_precision(digits):
    # decimal strings and the points derivative_at evaluates for the (A1)
    # prefactor Gamma(x)^2 / (2 Gamma(2x)) at x = 1, within 10 working ulps of
    # mpmath at twice the digits; gamma leaves the context's precision as it was
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    prec = mp.prec
    ref_mp = mpmath.mp.clone()
    ref_mp.dps = 2 * ctx.working_digits
    xs = [ctx.real(x).mpf for x in ("1e-30", "0.001", "0.9999", "1.0001", "2.5",
                                    "170.5", "12345.678", "1e20")]
    e = numerics._stencil(1, ctx.working_digits)
    nodes, weights = numerics._central_weights(1, 5)
    xs += [c * (1 + mp.ldexp(j, -e)) for c in (1, 2)
           for j, w in zip(nodes, weights) if w]
    for x in xs:
        ours = gamma(x, ctx).mpf
        assert mp.prec == prec, x
        ref = ref_mp.gamma(ref_mp.mpf(x))
        ulps = abs(ref_mp.mpf(ours) - ref) / ref * ref_mp.mpf(10) ** ctx.working_digits
        assert ulps <= 10, x


def test_stirling_mpf_arguments_at_200_digits():
    # the fixed-point Bernoulli sum steps by the exact binary rational z = x
    # + shift: mpf arguments with full-length mantissas, tiny to large, each
    # within 10 working ulps of mpmath at twice the digits
    ctx = PrecisionContext(200)
    mp = ctx.mp
    wd = ctx.working_digits
    ref_mp = mpmath.mp.clone()
    ref_mp.dps = 2 * wd
    xs = [mp.mpf(1) / 3, mp.sqrt(2), mp.pi, 1 + mp.mpf(10) ** -50, mp.mpf(2) ** -40 / 3,
          mp.exp(5), mp.mpf(10) ** 5 / 7, mp.mpf(10) ** 30 / 7]
    for x in xs:
        ours = numerics._stirling(x, mp, wd)
        ref = ref_mp.gamma(ref_mp.mpf(x))
        assert abs(ref_mp.mpf(ours) - ref) / ref * ref_mp.mpf(10) ** wd <= 10, x


# -- zeta tail -----------------------------------------------------------------

def test_zeta_tail_first_term_values(ctx30):
    # zeta(2) - 1 and zeta(4) - 1
    assert zeta_tail(2, 1, ctx30).decimal().startswith("0.64493406684822643647241516664")
    assert zeta_tail(4, 1, ctx30).decimal(20).startswith("0.082323233711138191")


def test_zeta_tail_large_m_bracket(ctx30):
    # brute-force sandwich: partial sum of 10^6 further terms plus integral
    # bounds pins the value inside [9.99999375e-7, 9.99999625e-7]
    val = zeta_tail(2, 10 ** 6, ctx30).mpf
    assert ctx30.mp.mpf("9.9999937e-7") < val < ctx30.mp.mpf("9.9999963e-7")


def test_zeta_tail_m_independence(ctx30):
    mp = ctx30.mp
    for s in (2, ctx30.real("3.5")):
        totals = []
        for M in (100, 1000, 10000):
            partial = mp.mpf(0)
            sv = ctx30.real(s).mpf
            for m in range(1, M + 1):
                partial += mp.mpf(m) ** (-sv)
            totals.append(partial + zeta_tail(s, M, ctx30).mpf)
        assert abs(totals[0] - totals[1]) <= 10 * ctx30.tol
        assert abs(totals[1] - totals[2]) <= 10 * ctx30.tol


@pytest.mark.parametrize("tol", [None, "1e-9"])
def test_zeta_tail_meets_working_precision(tol):
    # summed to the working digits whatever ctx.tol is, against the Hurwitz
    # zeta at twice the digits, at s as the context rounds it; M = 100 and
    # 1000 lie beyond the expansion point (22, 48 and 84 at 30, 100 and 200
    # digits), where no bridge is summed
    cases = [(2, 1), (3, 1), (Fraction(5, 2), 10), (2, 1000), (Fraction(11, 10), 5),
             (12, 1), (12, 100), (Fraction(10001, 10000), 5),
             (Fraction(10001, 10000), 1000), (10 ** 5, 1), (10 ** 5, 1000)]
    for digits in (30, 100, 200):
        ctx = PrecisionContext(digits, tol=tol)
        ref_mp = mpmath.mp.clone()
        ref_mp.dps = 2 * ctx.working_digits
        bound = 10 * ref_mp.mpf(10) ** -ctx.working_digits
        for s, M in cases:
            ref = ref_mp.zeta(ref_mp.mpf(ctx.real(s).mpf), M + 1)
            ours = zeta_tail(s, M, ctx).mpf
            assert abs(ref_mp.mpf(ours) - ref) <= bound * max(1, ref), (digits, s, M)


def test_zeta_tail_domain(ctx30):
    with pytest.raises(DomainError):
        zeta_tail(1, 10, ctx30)
    with pytest.raises(DomainError):
        zeta_tail("0.5", 10, ctx30)


# -- derivative oracle -----------------------------------------------------------

@pytest.mark.parametrize("r", range(7))
def test_central_weights_meet_the_moment_conditions(r):
    # sum_j w_j j^t = r! [t == r] exactly, for every t below the node count,
    # on the stencil derivative_at takes and on a wider one
    for npts in (2 * r + 3, 2 * r + 5):
        nodes, weights = numerics._central_weights(r, npts)
        assert len(nodes) == npts and all(isinstance(w, Fraction) for w in weights)
        for t in range(npts):
            want = math.factorial(r) if t == r else 0
            assert sum(w * Fraction(j) ** t for j, w in zip(nodes, weights)) == want, t


def test_derivative_polynomials_exact(ctx30):
    bound = ctx30.mp.mpf(10) ** (-(ctx30.digits - 5))
    # f(x) = x^2
    d = derivative_at(lambda x: x * x, 1, 1, ctx30)
    assert abs(d.mpf - 2) <= bound
    # f(x) = x^5 - 3x^3 + x, derivatives at 2: analytic values
    def f(x):
        return x ** 5 - 3 * x ** 3 + x

    expected = {0: 32 - 24 + 2, 1: 5 * 16 - 9 * 4 + 1, 2: 20 * 8 - 18 * 2,
                3: 60 * 4 - 18, 4: 120 * 2}
    for r, want in expected.items():
        d = derivative_at(f, 2, r, ctx30)
        assert abs(d.mpf - want) <= bound * max(1, abs(want))


def test_derivative_pochhammer_rising_two(ctx30):
    # d/dx [x(x+1)] at 1 = 2x+1 |_1 = 3
    d = derivative_at(lambda x: x * (x + 1), 1, 1, ctx30)
    assert abs(d.mpf - 3) <= ctx30.mp.mpf(10) ** (-(ctx30.digits - 5))


def test_derivative_gamma_prefactor():
    # d/da Gamma(a)^2/(2 Gamma(2a)) at 1 = -1
    def f(x):
        return gamma(x, x.ctx) ** 2 / (2 * gamma(2 * x, x.ctx))

    for digits in (50, 200):
        ctx = PrecisionContext(digits)
        d = derivative_at(f, 1, 1, ctx)
        assert abs(d.mpf + 1) <= ctx.mp.mpf(10) ** (-(ctx.digits - 5)), digits


@pytest.mark.parametrize("digits", [30, 100, 200])
def test_derivative_meets_working_precision(digits):
    # the eq2_check oracle: d^r/dx^r [1/(2-x)_{m+1}] at 1 over r!, against
    # its exact closed form, within 10^-(wd-2) (the floor its callers claim)
    ctx = PrecisionContext(digits)
    bound = ctx.mp.mpf(10) ** -(ctx.working_digits - 2)
    for m in (0, 1, 2, 3, 5, 10, 15):
        def f(x, m=m):
            prod = x.ctx.one()
            for j in range(m + 1):
                prod = prod * (2 - x + j)
            return 1 / prod

        for r in range(7):
            d = derivative_at(f, 1, r, ctx).mpf / math.factorial(r)
            exact = dr_inv_pochhammer_2minus_at1(m, r, ctx).mpf
            assert abs(d - exact) <= bound, (m, r)


def test_derivative_reuses_one_context_per_digit_count():
    # the calling context keeps one raised context per digit count,
    # wd + ceil(r wd/(r+2)) with wd = 40; a second call reuses it, and the
    # values match derivatives taken on a fresh context
    seen = set()

    def f(x):
        seen.add(x.ctx)
        return gamma(x, x.ctx) ** 2 / (2 * gamma(2 * x, x.ctx))

    ctx = PrecisionContext(30)
    first, second = [], []
    for r, digits in enumerate((40, 54, 60, 64, 67)):
        first.append(derivative_at(f, 1, r, ctx).mpf)
        hi = ctx.raised(digits)
        assert seen == {hi} and (hi.guard, hi.max_terms) == (ctx.guard, ctx.max_terms)
        seen.clear()
        second.append(derivative_at(f, 1, r, ctx).mpf)
        assert seen == {hi} and ctx.raised(digits) is hi
        seen.clear()
    fresh = PrecisionContext(30)
    assert first == second == [derivative_at(f, 1, r, fresh).mpf for r in range(5)]


def test_derivative_domain(ctx30):
    with pytest.raises(DomainError):
        derivative_at(lambda x: x, 1, -1, ctx30)
    # past order 6 the oracle misses 10^-(wd-2) (at r = 30 by a factor of
    # about 50): it names the order and calls f at no point
    calls = []
    with pytest.raises(DomainError, match="at most 6, got 7"):
        derivative_at(lambda x: calls.append(x) or x, 1, 7, ctx30)
    assert calls == []


@pytest.mark.parametrize("wd", [15, 40, 110, 210, 1000])
def test_stencil_step_is_the_largest_power_of_two_in_range(wd):
    # h = 2^-e with h <= 10^(-wd/(r+2)) < 2h, checked in integers as
    # 2^((e-1)(r+2)) < 10^wd <= 2^(e(r+2))
    for r in range(7):
        e = numerics._stencil(r, wd)
        assert 2 ** ((e - 1) * (r + 2)) < 10 ** wd <= 2 ** (e * (r + 2)), r



@pytest.mark.parametrize("digits", [20, 30, 100])
def test_stencil_weights_are_rounded_once_as_an_mpf_division(digits):
    # the raw mpfs mpf(num) / den makes at the raised context's precision,
    # zero weights left out, built once per order and precision
    mp = PrecisionContext(digits).mp
    for r in range(7):
        nodes, weights = numerics._central_weights(r, 2 * r + 3)
        want = tuple((node, (mp.mpf(w.numerator) / w.denominator)._mpf_)
                     for node, w in zip(nodes, weights) if w)
        got = numerics._weight_mpfs(r, *mp._prec_rounding)
        assert got == want
        assert numerics._weight_mpfs(r, *mp._prec_rounding) is got
