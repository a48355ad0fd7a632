from fractions import Fraction

import pytest

from mzsv import (ConditionError, ConvergenceError, DomainError, KRParamsI,
                  KRParamsII, kr_conditions_i, kr_conditions_ii, kr_lhs_i,
                  kr_lhs_ii, kr_rhs_i, kr_rhs_ii, pfq, specialized_lhs,
                  specialized_rhs, zeta)


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
    rhs = kr_rhs_i(p, ctx30, tol=ctx30.mp.mpf("1e-14"), relax=200)
    assert abs(lhs.value.mpf - rhs.value.mpf) < ctx30.mp.mpf("1e-12")


def test_theorem_i_equality_generic(ctx30):
    p = KRParamsI(s=1, a="2.2", b=("0.7", "0.7"), c=("0.7", "0.7"))
    assert kr_conditions_i(p).overall
    lhs = kr_lhs_i(p, ctx30, tol=ctx30.mp.mpf("1e-14"))
    rhs = kr_rhs_i(p, ctx30, tol=ctx30.mp.mpf("1e-14"), relax=200)
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
        rhs = kr_rhs_ii(p, ctx30, tol=mp.mpf("1e-13"), relax=200)
        assert abs(lhs.value.mpf - rhs.value.mpf) < mp.mpf("1e-11"), p


def test_kr_rhs_ii_a2_collapse_is_zeta3(ctx30):
    p = KRParamsII(s=2, a=2, c0=1, b=(1, 1), c=(1, 1))
    val = kr_rhs_ii(p, ctx30, tol=ctx30.mp.mpf("1e-14"), relax=200).value.mpf
    assert abs(val - zeta(3, ctx30).mpf) < ctx30.mp.mpf("1e-12")


def test_kr_rhs_ii_degenerate_c0_zero(ctx30):
    # c0 = 0 terminates the series side at its first term; the identity
    # still holds, giving an independent check of the nested sum
    p = KRParamsII(s=2, a=2, c0=0, b=(1, 1), c=(1, 1))
    assert kr_conditions_ii(p).overall
    lhs = kr_lhs_ii(p, ctx30)  # terminating: exactly 1
    assert lhs.value == 1
    rhs = kr_rhs_ii(p, ctx30, tol=ctx30.mp.mpf("1e-13"), relax=200)
    assert abs(rhs.value.mpf - 1) < ctx30.mp.mpf("1e-11")


def test_theorem_ii_generic_s2_convolution(ctx30):
    # couplings != 1 exercise the boxed-convolution route
    p = KRParamsII(s=2, a=3, c0="0.5", b=("0.5", "0.5"), c=("0.5", "0.5"))
    assert kr_conditions_ii(p).overall
    lhs = kr_lhs_ii(p, ctx30, tol=ctx30.mp.mpf("1e-10"))
    rhs = kr_rhs_ii(p, ctx30, tol=ctx30.mp.mpf("1e-8"), relax=500)
    assert abs(lhs.value.mpf - rhs.value.mpf) < ctx30.mp.mpf("1e-7")


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
    lhs = specialized_lhs(case, alpha, s, ctx30, tol=tol, relax=200)
    rhs = specialized_rhs(case, alpha, s, ctx30, tol=tol, relax=200)
    assert abs(lhs.value.mpf - rhs.value.mpf) < mp.mpf("1e-11")


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
