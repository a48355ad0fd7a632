from fractions import Fraction

import mpmath
import pytest

from mzsv import (ConditionError, ConvergenceError, DomainError, KRParamsI,
                  KRParamsII, PrecisionContext, kr_conditions_i,
                  kr_conditions_ii, kr_lhs_i, kr_lhs_ii, kr_rhs_i, kr_rhs_ii,
                  pfq, specialized_lhs, specialized_rhs, zeta)
from mzsv import hypergeom
from mzsv.chains import ChainEvaluator, Level, Pow, Ratio, first_checkpoint
from mzsv.hypergeom import _kr_levels, gamma, pfq_ex
from mzsv.tailcalc import TailCalc


# -- the series itself ------------------------------------------------------------

def test_pfq_terminating_binomial(ctx30):
    # (1+1)^2 via the terminating series
    assert pfq(["-2", 1], [1], -1, ctx30) == 4
    assert pfq(["-1", 1], [2], -1, ctx30).decimal(5) == "1.5000"


def test_pfq_alternating_harmonic(ctx30):
    assert abs(pfq([1, 1], [2], -1, ctx30).mpf - ctx30.mp.ln(2)) < 10 * ctx30.tol


def test_pfq_gauss_value_at_one(ctx30):
    # 2F1(a,b;c;1) = G(c)G(c-a-b)/(G(c-a)G(c-b)) as an independent oracle
    mp = ctx30.mp
    a, b, c = mp.mpf("0.3"), mp.mpf("0.4"), mp.mpf("2.2")
    ours = pfq(["0.3", "0.4"], ["2.2"], 1, ctx30).mpf
    ref = (mp.gamma(c) * mp.gamma(c - a - b)) / (mp.gamma(c - a) * mp.gamma(c - b))
    assert abs(ours - ref) < 1000 * ctx30.tol


def _fr(mp, x):
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


@pytest.mark.parametrize("a,b,c", [
    ("-5/2", "1/2", "3/2"), ("-3/2", "2/3", "5/4"), ("3/10", "2/5", "11/5"),
])
def test_pfq_gauss_theorem_50_digits(ctx50, a, b, c):
    # 2F1(a,b;c;1) = G(c)G(c-a-b) / (G(c-a)G(c-b)), with mpmath's gamma
    mp = ctx50.mp
    af, bf, cf = (_fr(mp, x) for x in (a, b, c))
    ref = (mp.gamma(cf) * mp.gamma(cf - af - bf)
           / (mp.gamma(cf - af) * mp.gamma(cf - bf)))
    ours = pfq([Fraction(a), Fraction(b)], [Fraction(c)], 1, ctx50).mpf
    assert abs(ours - ref) < mp.mpf("1e-45")


@pytest.mark.parametrize("a,b", [("-1/2", "1/4"), ("-7/3", "1/5"), ("1/3", "2/3")])
def test_pfq_kummer_theorem_50_digits(ctx50, a, b):
    # 2F1(a,b;1+a-b;-1) = G(1+a-b)G(1+a/2) / (G(1+a)G(1+a/2-b))
    mp = ctx50.mp
    af, bf = _fr(mp, a), _fr(mp, b)
    ref = (mp.gamma(1 + af - bf) * mp.gamma(1 + af / 2)
           / (mp.gamma(1 + af) * mp.gamma(1 + af / 2 - bf)))
    ours = pfq([Fraction(a), Fraction(b)], [1 + Fraction(a) - Fraction(b)], -1,
               ctx50).mpf
    assert abs(ours - ref) < mp.mpf("1e-45")


@pytest.mark.parametrize("upper,lower,z", [
    (["0.1234567", 1], ["2.3"], 1),
    ([0.1, 1], [2.3], 1),
    (["0.1234567", "0.5"], ["1.7654321"], -1),
    ([0.1, 0.7], [1.3], -1),
], ids=["digits7-z1", "float-z1", "digits7-zm1", "float-zm1"])
def test_pfq_many_digit_parameters(ctx50, upper, lower, z):
    # a 7-digit decimal stays an exact Fraction over 10^7 and a float one over
    # 2^55; the tail's decay exponent then has a long denominator
    mp = ctx50.mp
    ours = pfq(upper, lower, z, ctx50).mpf
    with mp.workdps(2 * mp.dps):
        ref = mp.hyper([_fr(mp, u) for u in upper], [_fr(mp, l) for l in lower], z)
    assert abs(ours - ref) < mp.mpf("1e-45") * abs(ref)


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("case", [
    lambda M: (("200", "1/2"), ("405/2",), 1),
    lambda M: (("110", "3"), ("113",), -1),
    lambda M: (("1/2", "120"), ("121",), -1),
    lambda M: ((M, "1/2"), (Fraction(2 * M + 5, 2),), 1),
    lambda M: ((M - 10, 3), (M - 7,), -1),
    lambda M: (("1/2", M), (M + 1,), -1),
], ids=["2F1(200,1/2;405/2;1)", "2F1(110,3;113;-1)", "2F1(1/2,120;121;-1)",
        "2F1(M0,1/2;M0+5/2;1)", "2F1(M0-10,3;M0-7;-1)", "2F1(1/2,M0;M0+1;-1)"])
def test_pfq_large_parameters_error_estimate(digits, case):
    # ratio shifts near the first checkpoint M0, where the expansion of the
    # term in powers of 1/(m+1) converges slowly or not at all: the reported
    # estimate must still bound the error, against mpmath at twice the digits
    ctx = PrecisionContext(digits=digits)
    upper, lower, z = case(first_checkpoint(ctx, case(0)[2] == -1))
    ev = pfq_ex(upper, lower, z, ctx)
    mp = ctx.mp
    with mp.workdps(2 * mp.dps):
        ref = mp.hyper([_fr(mp, u) for u in upper], [_fr(mp, l) for l in lower], z)
        err = abs(ev.value.mpf - ref)
    assert err <= ev.diagnostics.error_estimate.mpf, mp.nstr(err, 3)


def test_pfq_preconditions(ctx30):
    with pytest.raises(DomainError):
        pfq([1, 2, 3], [1], -1, ctx30)  # arity
    with pytest.raises(DomainError):
        pfq([1, 1], ["-2"], -1, ctx30)  # non-positive-integer lower
    with pytest.raises(DomainError):
        pfq([1, 1], [2], 2, ctx30)  # z not +-1
    with pytest.raises(ConvergenceError):
        pfq([1, 1], [1], 1, ctx30)  # margin -1 at z=+1
    with pytest.raises(ConvergenceError):
        pfq([2, 1], [1], -1, ctx30)  # margin -2 at z=-1


# -- hypothesis checks ---------------------------------------------------------------

def test_conditions_i_examples():
    assert kr_conditions_i(KRParamsI(s=1, a=2, b=(1, 1), c=(1, 1))).overall
    rep = kr_conditions_i(KRParamsI(s=1, a=0, b=(1, 1), c=(1, 1)))
    assert not rep.overall
    assert any("(2s+1)(a+1)" in e.description for e in rep.failures())
    rep = kr_conditions_i(KRParamsI(s=1, a=2, b=(3, 1), c=(1, 1)))
    assert not rep.overall
    assert any("non-positive integer" in e.description for e in rep.failures())


def test_conditions_ii_examples():
    assert kr_conditions_ii(KRParamsII(s=2, a=2, c0=1, b=(1, 1), c=(1, 1))).overall
    rep = kr_conditions_ii(KRParamsII(s=2, a=2, c0="3.5", b=(1, 1), c=(1, 1)))
    assert not rep.overall
    assert any("c_0" in e.description for e in rep.failures())
    rep = kr_conditions_ii(KRParamsII(s=2, a=2, c0=1, b=(1, 3), c=(1, 1)))
    assert not rep.overall


def test_conditions_margins_monotone_in_a():
    # increasing a never turns a satisfied margin inequality unsatisfied
    prev_ok: set = set()
    for a in ("1.2", "1.8", "2.5", "4"):
        rep = kr_conditions_i(KRParamsI(s=2, a=a, b=(1, "0.8", 1),
                                        c=("0.9", 1, "0.7")))
        ok = {e.description for e in rep.entries if e.satisfied and ">" in e.description}
        assert prev_ok <= ok
        prev_ok = ok


def test_conditions_report_structure():
    rep = kr_conditions_i(KRParamsI(s=1, a=2, b=(1, 1), c=(1, 1)))
    assert rep.overall == all(e.satisfied for e in rep.entries)
    margins = [e for e in rep.entries if "A_i" in e.description]
    assert len(margins) == 1  # s=1: single A-vector, single r


# -- gamma prefactors ---------------------------------------------------------------

@pytest.mark.parametrize("x", [Fraction(-1, 2), Fraction(-7, 3), Fraction(-21, 2),
                               Fraction(-99999, 100000),
                               Fraction(-3) + Fraction(1, 10 ** 12)])
def test_gamma_any_at_negative_arguments(ctx30, x):
    # gamma at x < 0 as the prefactors call it, against mpmath at twice the
    # digits, within 10 working ulps relative
    ref_mp = ctx30.mp.clone()
    ref_mp.dps = 2 * ctx30.working_digits
    ours = gamma(x, ctx30).mpf
    ref = ref_mp.gamma(ref_mp.mpf(x.numerator) / x.denominator)
    assert abs(ours - ref) <= 10 * ref_mp.mpf(10) ** -ctx30.working_digits * abs(ref)


# -- nested right-hand sides ------------------------------------------------------------

def test_kr_rhs_i_unit_parameters(ctx30):
    p = KRParamsI(s=1, a=2, b=(1, 1), c=(1, 1))
    val = kr_rhs_i(p, ctx30).value.mpf
    assert abs(val - ctx30.mp.pi ** 2 / 12) < 10 * ctx30.tol


def test_kr_rhs_i_condition_error_carries_report(ctx30):
    with pytest.raises(ConditionError) as err:
        kr_rhs_i(KRParamsI(s=1, a=0, b=(1, 1), c=(1, 1)), ctx30)
    assert err.value.report is not None
    assert not err.value.report.overall


def test_theorem_i_collapse_matches_specialized(ctx30):
    # the a=2*alpha, b=(1,alpha,...), c=(alpha,...) choice reproduces the
    # alternating series evaluated by the specialized route at s=1
    al = Fraction(1)
    p = KRParamsI(s=1, a=2 * al, b=(Fraction(1), al), c=(al, al))
    val = kr_rhs_i(p, ctx30).value.mpf
    assert abs(val - ctx30.mp.pi ** 2 / 12) < 10 * ctx30.tol


@pytest.mark.parametrize("alpha", ["0.6", "1.0", "1.3"])
def test_theorem_i_equality_a1_family(ctx30, alpha):
    al = Fraction(alpha)
    p = KRParamsI(s=1, a=2 * al, b=(Fraction(1), al), c=(al, al))
    assert kr_conditions_i(p).overall
    lhs = kr_lhs_i(p, ctx30, tol=ctx30.mp.mpf("1e-14"))
    rhs = kr_rhs_i(p, ctx30, tol=ctx30.mp.mpf("1e-14"))
    assert abs(lhs.value.mpf - rhs.value.mpf) < ctx30.mp.mpf("1e-12")


def test_theorem_i_equality_generic(ctx30):
    p = KRParamsI(s=1, a="2.2", b=("0.7", "0.7"), c=("0.7", "0.7"))
    assert kr_conditions_i(p).overall
    lhs = kr_lhs_i(p, ctx30, tol=ctx30.mp.mpf("1e-14"))
    rhs = kr_rhs_i(p, ctx30, tol=ctx30.mp.mpf("1e-14"))
    assert abs(lhs.value.mpf - rhs.value.mpf) < ctx30.mp.mpf("1e-12")


def test_theorem_ii_equality_families(ctx30):
    mp = ctx30.mp
    cases = [
        KRParamsII(s=2, a=2, c0=1, b=(1, 1), c=(1, 1)),               # a2 at 1
        KRParamsII(s=2, a=2, c0=Fraction(13, 10), b=(1, 1), c=(1, 1)),  # a3
        KRParamsII(s=1, a="2.2", c0="0.7", b=("0.7",), c=("0.7",)),   # generic
    ]
    for p in cases:
        assert kr_conditions_ii(p).overall
        lhs = kr_lhs_ii(p, ctx30, tol=mp.mpf("1e-13"))
        rhs = kr_rhs_ii(p, ctx30, tol=mp.mpf("1e-13"))
        assert abs(lhs.value.mpf - rhs.value.mpf) < mp.mpf("1e-11"), p


def test_kr_rhs_ii_a2_collapse_is_zeta3(ctx30):
    p = KRParamsII(s=2, a=2, c0=1, b=(1, 1), c=(1, 1))
    val = kr_rhs_ii(p, ctx30, tol=ctx30.mp.mpf("1e-14")).value.mpf
    assert abs(val - zeta(3, ctx30).mpf) < ctx30.mp.mpf("1e-12")


def test_kr_rhs_ii_degenerate_c0_zero(ctx30):
    # c0 = 0 terminates the series side at its first term; the identity
    # still holds, giving an independent check of the nested sum
    p = KRParamsII(s=2, a=2, c0=0, b=(1, 1), c=(1, 1))
    assert kr_conditions_ii(p).overall
    lhs = kr_lhs_ii(p, ctx30)  # terminating: exactly 1
    assert lhs.value == 1
    rhs = kr_rhs_ii(p, ctx30, tol=ctx30.mp.mpf("1e-13"))
    assert abs(rhs.value.mpf - 1) < ctx30.mp.mpf("1e-11")


def test_theorem_ii_generic_s2_convolution(ctx30):
    # coupling 3 between the two ratio levels: two weight-one prefix levels
    p = KRParamsII(s=2, a=3, c0="0.5", b=("0.5", "0.5"), c=("0.5", "0.5"))
    assert kr_conditions_ii(p).overall
    lhs = kr_lhs_ii(p, ctx30, tol=ctx30.mp.mpf("1e-10"))
    rhs = kr_rhs_ii(p, ctx30, tol=ctx30.mp.mpf("1e-8"))
    assert abs(lhs.value.mpf - rhs.value.mpf) < ctx30.mp.mpf("1e-7")


_HALF = Fraction(1, 2)


@pytest.mark.parametrize("p,lhs_fn,rhs_fn", [
    (KRParamsII(s=2, a=3, c0=_HALF, b=(_HALF,) * 2, c=(_HALF,) * 2),
     kr_lhs_ii, kr_rhs_ii),                                     # d = 3
    (KRParamsII(s=3, a=4, c0=_HALF, b=(_HALF,) * 3, c=(_HALF,) * 3),
     kr_lhs_ii, kr_rhs_ii),                                     # d = 4, 4
    (KRParamsI(s=2, a=3, b=(_HALF,) * 3, c=(_HALF,) * 3),
     kr_lhs_i, kr_rhs_i),                                       # d_2 = 3
])
def test_integer_couplings_match_lhs_to_working_precision(ctx30, p, lhs_fn, rhs_fn):
    tol = ctx30.mp.mpf("1e-28")
    lhs = lhs_fn(p, ctx30, tol=tol)
    rhs = rhs_fn(p, ctx30, tol=tol)
    assert abs(lhs.value.mpf - rhs.value.mpf) < ctx30.mp.mpf("1e-25")


@pytest.mark.parametrize("p, fn", [
    (KRParamsI(s=2, a=3, b=(_HALF,) * 3, c=(_HALF,) * 3), kr_rhs_i),
    (KRParamsII(s=2, a=3, c0=_HALF, b=(_HALF,) * 2, c=(_HALF,) * 2), kr_lhs_ii),
])
def test_error_estimate_bounds_error_against_60_digits(ctx30, p, fn):
    # the prefix chain (with its gamma prefactor) and the pFq ratio chain
    # must not report less than their real error
    ref_ctx = PrecisionContext(digits=60)
    ev = fn(p, ctx30, tol=ctx30.mp.mpf("1e-28"))
    ref = fn(p, ref_ctx, tol=ref_ctx.mp.mpf("1e-58"))
    err = abs(ref_ctx.mp.mpf(ev.value.mpf) - ref.value.mpf)
    assert err <= ev.diagnostics.error_estimate.mpf


@pytest.mark.parametrize("p", [
    KRParamsI(s=1, a=2, b=(1, 1), c=(1, 1)),
    KRParamsI(s=1, a=1, b=(1, 1), c=(1, 1)),                    # margin -2
    KRParamsI(s=2, a="5/2", b=("3/4", "1/2", "1/2"), c=("3/4", "1/2", "1/2")),
    KRParamsII(s=1, a="2.2", c0="0.7", b=("0.7",), c=("0.7",)),
    KRParamsII(s=3, a=4, c0=_HALF, b=(_HALF,) * 3, c=(_HALF,) * 3),
    KRParamsII(s=2, a=2, c0="3.5", b=(1, 1), c=(1, 1)),            # margin -3
], ids=["i_unit", "i_negative", "i_s2", "ii_generic", "ii_s3", "ii_negative"])
def test_margin_is_the_summed_series_margin(ctx30, monkeypatch, p):
    # the margin entry is sum(lower) - sum(upper) of the series kr_lhs_*
    # hands to pfq_ex, and each well-poised parameter x has one entry
    # "1+a-x not a non-positive integer": 2s+2 of them for (i), 2s+1 for (ii)
    seen = []
    monkeypatch.setattr(hypergeom, "pfq_ex",
                        lambda upper, lower, z, ctx, tol=None:
                        seen.append((upper, lower, z)))
    first = isinstance(p, KRParamsI)
    (kr_lhs_i if first else kr_lhs_ii)(p, ctx30)
    [(upper, lower, z)] = seen
    assert z == (-1 if first else 1)
    report = (kr_conditions_i if first else kr_conditions_ii)(p)
    [margin] = [e for e in report.entries if "(a+1)" in e.description]
    assert margin.lhs_value == sum(lower) - sum(upper)
    assert margin.satisfied == (margin.lhs_value > 0)
    poles = [e for e in report.entries if "non-positive integer" in e.description]
    assert len(poles) == 2 * p.s + (2 if first else 1)


def _ratio_chains():
    """(name, levels) of three ratio chains, innermost level first."""
    half = Fraction(1, 2)
    kr = KRParamsII(s=2, a=3, c0=half, b=(half,) * 2, c=(half,) * 2)
    # the z = +1 series of 2F1(3/10, 2/5; 11/5; 1), as pfq_ex sums it
    gauss = Ratio((Fraction(3, 10), Fraction(2, 5)), (Fraction(1), Fraction(11, 5)),
                  init=Fraction(1))
    # the (A3) right-hand side at alpha = 1/2, s = 3, as specialized_rhs sums it
    a3 = [Level(ratio=Ratio((Fraction(1),), (3 - half,), init=1 / (2 - half)))]
    a3 += [Level(pows=(Pow(2, Fraction(1)),))] * 2
    return [("kr_ii", _kr_levels(kr, PrecisionContext(30))), ("pfq", [Level(ratio=gauss)]),
            ("a3_rhs", a3)]


@pytest.mark.parametrize("name, levels", _ratio_chains())
def test_ratio_chain_tail_is_checkpoint_independent(monkeypatch, name, levels):
    # each ratio level's shape is pinned to its running weight, so the
    # corrected value must not depend on where the kernel stopped; the tail
    # series are built once, one sumtail per level for all checkpoints. A
    # fresh context counts them whatever tails earlier tests left on a shared one
    ctx30 = PrecisionContext(30)
    sumtails = []
    sumtail = TailCalc.sumtail

    def counted(calc, f, *rest):
        sumtails.append(f)
        return sumtail(calc, f, *rest)

    monkeypatch.setattr(TailCalc, "sumtail", counted)
    mp = ctx30.mp
    ev = ChainEvaluator(ctx30, levels)
    values = []
    for M in (first_checkpoint(ctx30, False), 500, 1000, 2000):
        ev.advance_to(M)
        values.append(mp.mpf(ev.acc + ev.tail_correction(M - 1)) / ev.S)
    assert max(values) - min(values) <= mp.mpf(10) ** -ctx30.working_digits, name
    assert len(sumtails) == len(levels), name


def test_non_integer_coupling_is_a_domain_error(ctx30):
    p = KRParamsI(s=2, a="5/2", b=("3/4", "1/2", "1/2"), c=("3/4", "1/2", "1/2"))
    assert kr_conditions_i(p).overall
    with pytest.raises(DomainError, match=r"1\+a-b_2-c_2 = 5/2"):
        kr_rhs_i(p, ctx30)


# -- specialized series -----------------------------------------------------------------

def test_specialized_a1_at_one(ctx30):
    mp = ctx30.mp
    lhs = specialized_lhs("a1", 1, 1, ctx30)
    rhs = specialized_rhs("a1", 1, 1, ctx30)
    assert abs(lhs.value.mpf - mp.pi ** 2 / 12) < 10 * ctx30.tol
    assert abs(rhs.value.mpf - mp.pi ** 2 / 12) < 100 * ctx30.tol


def test_specialized_a2_a3_at_one(ctx30):
    z3 = zeta(3, ctx30).mpf
    assert abs(specialized_lhs("a2", 1, 2, ctx30).value.mpf - z3) < 100 * ctx30.tol
    assert abs(specialized_lhs("a3", 1, 2, ctx30).value.mpf - z3) < 100 * ctx30.tol


@pytest.mark.parametrize("case,alpha,s", [
    ("a1", "0.6", 2), ("a1", "1.3", 1),
    ("a2", "1.5", 2), ("a2", "0.6", 3),
    ("a3", "0.6", 2), ("a3", "1.3", 3),
    ("a4", "0.6", 1), ("a4", "1.3", 2),
])
def test_specialized_lhs_equals_rhs(ctx30, case, alpha, s):
    mp = ctx30.mp
    tol = mp.mpf("1e-13")
    lhs = specialized_lhs(case, alpha, s, ctx30, tol=tol)
    rhs = specialized_rhs(case, alpha, s, ctx30, tol=tol)
    assert abs(lhs.value.mpf - rhs.value.mpf) < mp.mpf("1e-11")


@pytest.mark.parametrize("alpha", ["0.6", "1.3"])
@pytest.mark.parametrize("s", [2, 3])
def test_specialized_a2_estimate_bounds_hurwitz_error(ctx30, alpha, s):
    # the a2 side is the Hurwitz value zeta(2s-1, alpha); even at a loose
    # tol its reported estimate must bound the error against a reference
    # at twice the digits
    lhs = specialized_lhs("a2", alpha, s, ctx30, tol=ctx30.mp.mpf("1e-9"))
    ref_mp = mpmath.MPContext()
    ref_mp.dps = 2 * ctx30.working_digits
    ref = ref_mp.zeta(2 * s - 1, ref_mp.mpf(alpha))
    err = abs(ref_mp.mpf(lhs.value.mpf) - ref)
    assert err <= lhs.diagnostics.error_estimate.mpf


def test_specialized_domain_errors(ctx30):
    with pytest.raises(DomainError):
        specialized_lhs("a1", "-0.5", 1, ctx30)
    with pytest.raises(DomainError):
        specialized_lhs("a2", 1, 1, ctx30)   # needs s >= 2
    with pytest.raises(DomainError):
        specialized_lhs("a3", 2, 2, ctx30)   # alpha < 2
    with pytest.raises(DomainError):
        specialized_lhs("a4", "1.5", 1, ctx30)  # alpha < 3/2
    with pytest.raises(DomainError):
        specialized_lhs("a9", 1, 1, ctx30)
