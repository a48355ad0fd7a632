from fractions import Fraction

import pytest

import mzsv
from mzsv import ContextMismatchError, DomainError, HPReal, PrecisionContext


def test_context_validation():
    with pytest.raises(DomainError):
        PrecisionContext(digits=5)
    with pytest.raises(DomainError):
        PrecisionContext(digits=30, guard=2)
    with pytest.raises(DomainError):
        PrecisionContext(digits=30, max_terms=10)
    with pytest.raises(DomainError):
        PrecisionContext(digits=30, tol=0)
    for tol in ("nan", "inf", float("inf")):
        with pytest.raises(DomainError):
            PrecisionContext(digits=30, tol=tol)


def test_non_finite_reals_are_domain_errors(ctx30):
    # nan would slip past every `k <= 1`-style domain check downstream
    mp = ctx30.mp
    for x in ("nan", "inf", "-inf", float("nan"), float("inf"), mp.nan, -mp.inf):
        with pytest.raises(DomainError):
            ctx30.real(x)


def test_defaults():
    ctx = PrecisionContext(digits=30)
    assert ctx.guard == 10
    assert ctx.max_terms == 10 ** 8
    assert ctx.working_digits == 40
    assert ctx.tol == ctx.mp.mpf(10) ** -30


def test_arithmetic_and_comparisons(ctx30):
    a = ctx30.real("0.5")
    b = ctx30.real(3)
    assert (a + b).decimal().startswith("3.5")
    assert (b - a).decimal().startswith("2.5")
    assert (a * b).decimal().startswith("1.5")
    assert (b / a).decimal().startswith("6.0")
    assert (a ** 2).decimal().startswith("0.25")
    assert abs(-b) == b
    assert a < b and b > a and a <= a and b >= b
    assert a != b


def test_string_coercion_is_exact_decimal(ctx30):
    x = ctx30.real("1.3")
    # 1.3 parsed as a decimal, not the binary double 1.3000000000000000444...
    assert x.decimal(20).startswith("1.3000000000000000000")


def test_ln_exp_roundtrip(ctx30):
    x = ctx30.real("2.5")
    y = x.ln().exp()
    assert abs((y - x).mpf) < ctx30.tol


def test_cross_context_mixing_is_an_error(ctx30, ctx50):
    a = ctx30.real(1)
    b = ctx50.real(1)
    with pytest.raises(ContextMismatchError):
        _ = a + b
    with pytest.raises(ContextMismatchError):
        _ = a < b
    with pytest.raises(ContextMismatchError):
        _ = a == b


def test_decimal_rendering(ctx30):
    assert ctx30.real(0).decimal(5) == "0.0000"
    assert ctx30.real(24).decimal(10) == "24.00000000"
    assert ctx30.real("-1.5").decimal(4) == "-1.500"
    # plain decimal below 1e6, even for small magnitudes
    tiny = ctx30.real("0.000001").decimal(6)
    assert "e" not in tiny and tiny.startswith("0.00000100")
    assert ctx30.real("999999.5").decimal(8) == "999999.50"
    # exponent form from 1e6 on, however large the exponent
    assert ctx30.real("1e6").decimal(3) == "1.0e+6"
    assert ctx30.real("1e400").decimal(3) == "1.0e+400"


def test_decimal_rounding_carry(ctx30):
    assert ctx30.real("9.9999").decimal(4) == "10.00"


def test_hpreal_repr(ctx30):
    assert "HPReal(" in repr(ctx30.real(2))


def test_public_exports_resolve():
    # a deleted function must take its __all__ entry with it
    missing = [name for name in mzsv.__all__ if not hasattr(mzsv, name)]
    assert not missing


_IX2 = mzsv.Index((2,))


@pytest.mark.parametrize("call", [
    lambda ctx: mzsv.eta_shifted(2.5, ctx),
    lambda ctx: mzsv.eta_shifted(True, ctx),
    lambda ctx: mzsv.weighted_product_series(1.5, 2, False, ctx),
    lambda ctx: mzsv.weighted_product_series(1, 2.5, False, ctx),
    lambda ctx: mzsv.zeta_tail(3, 2.5, ctx),
    lambda ctx: mzsv.specialized_lhs("a1", "0.6", 1.5, ctx),
    lambda ctx: mzsv.specialized_rhs("a1", "0.6", 1.5, ctx),
    lambda ctx: mzsv.pochhammer(2, 2.5, ctx),
    lambda ctx: mzsv.strict_sum(_IX2, 2.5, ctx),
    lambda ctx: mzsv.star_sum(_IX2, True, ctx),
    lambda ctx: mzsv.star_sum_exact(_IX2, 2.5),
    lambda ctx: mzsv.dr_ratio_at1(2, 1.5, ctx),
    lambda ctx: mzsv.derivative_at(lambda x: x, 1, 0.5, ctx),
    lambda ctx: mzsv.KRParamsI(s=1.5, a=2, b=(1, 1), c=(1, 1)),
    lambda ctx: PrecisionContext(digits=30.5),
], ids=["eta_shifted", "eta_shifted_bool", "weighted_product_series_r",
        "weighted_product_series_s", "zeta_tail", "specialized_lhs",
        "specialized_rhs", "pochhammer", "strict_sum", "star_sum_bool",
        "star_sum_exact", "dr_ratio_at1", "derivative_at", "KRParamsI",
        "PrecisionContext"])
def test_integer_arguments_reject_bool_and_non_integral(ctx30, call):
    # each of these once truncated the value, or failed deep inside with a
    # bare TypeError or a plateaued ConvergenceError
    with pytest.raises(DomainError, match="must be an integer"):
        call(ctx30)


@pytest.mark.parametrize("call", [
    lambda ctx: ctx.real(True),
    lambda ctx: PrecisionContext(digits=30, tol=True),
    lambda ctx: mzsv.gamma(True, ctx),
    lambda ctx: mzsv.pochhammer(True, 3, ctx),
    lambda ctx: mzsv.specialized_lhs("a1", True, 1, ctx),
    lambda ctx: mzsv.pfq([True, 1], [3], 1, ctx),
    lambda ctx: mzsv.pfq([1, 1], [3], True, ctx),
], ids=["real", "tol", "gamma", "pochhammer", "specialized_lhs", "pfq_param",
        "pfq_z"])
def test_real_arguments_reject_bool(ctx30, call):
    # each of these once read True as 1
    with pytest.raises(DomainError):
        call(ctx30)


def test_real_arguments_take_ints_fractions_and_decimal_strings(ctx30):
    for x in (3, Fraction(6, 2), "3", "3.0"):
        assert ctx30.real(x) == 3
        assert mzsv.gamma(x, ctx30) == 2
        assert mzsv.pochhammer(x, 2, ctx30) == 12
    assert PrecisionContext(digits=30, tol=Fraction(1, 10 ** 9)).tol == ctx30.real("1e-9")
    ln2 = mzsv.pfq([1, 1], [2], -1, ctx30).mpf
    for z, upper in ((-1, [Fraction(1), "1"]), (Fraction(-1), [1, "1.0"])):
        assert mzsv.pfq(upper, [2], z, ctx30).mpf == ln2
    a1 = mzsv.specialized_lhs("a1", Fraction(3, 5), 1, ctx30).value
    assert mzsv.specialized_lhs("a1", "0.6", 1, ctx30).value == a1


def test_integer_arguments_take_integral_values(ctx30):
    assert mzsv.eta_shifted(2.0, ctx30) == mzsv.eta_shifted(2, ctx30)
    assert mzsv.pochhammer(2, Fraction(6, 2), ctx30) == 24
    assert PrecisionContext(digits=30.0).digits == 30
