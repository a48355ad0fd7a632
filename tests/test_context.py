import gc
import operator
import os
import random
import subprocess
import sys
import textwrap
import time
import weakref
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest

import mzsv
from mzsv import (ConfigurationError, ContextMismatchError, ConvergenceError,
                  DomainError, HPReal, PrecisionContext, pfq)
from mzsv.context import _decimal_string, _exact_text, as_int
from mzsv.finite_sums import star_sum
from mzsv.identities import ParamSpec, verify
from mzsv.numerics import gamma


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


def test_real_rejects_a_string_exponent_past_the_bound():
    # 10^e is an integer of 3.3 e bits and 10^-e prints with e leading zeros,
    # neither of which ends at e = 10^9: every reader of a caller's argument
    # and the printer must refuse it at once. The subprocess and its short
    # timeout make a regression fail, not hang
    code = textwrap.dedent("""\
        from mzsv import (ConfigurationError, DomainError, Index, KRParamsI,
                          KRParamsII, PrecisionContext, gamma, pfq,
                          specialized_lhs, star_sum, verify)
        from mzsv.cli import main
        from mzsv.context import EXPONENT_MAX
        ctx = PrecisionContext(digits=30)
        for text in ("-1e-999999999", "1e-999999999l", " 1E-1_000_000 ",
                     f"1e{EXPONENT_MAX + 1}"):
            for call in (ctx.real, lambda t: PrecisionContext(digits=30, tol=t)):
                try:
                    call(text)
                except DomainError as exc:
                    assert str(EXPONENT_MAX) in str(exc), exc
                else:
                    raise AssertionError(text)
        big = "1e999999999"
        for call, error, says in (
                (lambda: PrecisionContext(digits=big), DomainError, "digits"),
                (lambda: PrecisionContext(max_terms=big), DomainError, "max_terms"),
                (lambda: star_sum(Index((2,)), big, ctx), DomainError, "m must"),
                (lambda: KRParamsI(s=1, a=big, b=(1, 1), c=(1, 1)), DomainError,
                 str(EXPONENT_MAX)),
                (lambda: KRParamsII(s=1, a=2, c0=big, b=(1,), c=(1,)), DomainError,
                 str(EXPONENT_MAX)),
                (lambda: pfq([big, 1], [3], 1, ctx), DomainError, str(EXPONENT_MAX)),
                (lambda: specialized_lhs("a1", "1e-999999999", 1, ctx), DomainError,
                 str(EXPONENT_MAX)),
                (lambda: verify("a1_specialized", {"s": 1, "alpha": big}, ctx),
                 ConfigurationError, ("alpha=", str(EXPONENT_MAX))),
                (lambda: gamma(big, ctx), DomainError, str(EXPONENT_MAX)),
                # read exactly, a pole whose integer has no str()
                (lambda: gamma("-1e5000", ctx), DomainError, "pole at -1e5000")):
            try:
                call()
            except error as exc:
                for text in (says,) if isinstance(says, str) else says:
                    assert text in str(exc), exc
            else:
                raise AssertionError(says)
        for argv in (["verify", "a1_specialized", "--alpha", big, "--s", "1"],
                     ["eval", "pfq", "--upper", big + ",1", "--lower", "3", "--z", "1"]):
            assert main(argv) == 2, argv
        assert 0 < ctx.real(f"1e-{EXPONENT_MAX}") < ctx.real(f"-1e{EXPONENT_MAX}") * -1
        zeros = "0" * (EXPONENT_MAX - 1)
        assert str(ctx.real(f"-1e-{EXPONENT_MAX}")) == "-0." + zeros + "1" + "0" * 29
        # below 10^-EXPONENT_MAX a value prints in exponent form
        assert str(ctx.real("1e-90000") ** 11) == "1.0e-990000"
        assert str(-ctx.real(f"1e-{EXPONENT_MAX}") / 10) == f"-1.0e-{EXPONENT_MAX + 1}"
        print("ok")
    """)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=15)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_messages_print_huge_exact_values_in_exponent_form(ctx30):
    # str() of an int of more than 4 300 digits raises ValueError, so a
    # message that printed such a parameter in full raised that instead
    huge = 10 ** 5000
    assert _exact_text(Fraction(1, 3)) == "1/3" and _exact_text(-7) == "-7"
    assert _exact_text(2 ** 1024 - 1) == str(2 ** 1024 - 1)     # 1 024 bits
    assert _exact_text(2 ** 1024) == "1.79769313486232e+308"
    assert _exact_text(Fraction(-huge, 7)) == "-1.42857142857143e+4999"
    assert _exact_text(Fraction(3, huge)) == "3.0e-5000"
    spec = ParamSpec("n", "int", lo=Fraction(1), hi=Fraction(huge))
    assert spec.describe() == "n:int [1..1.0e+5000]"
    for value, says in ((huge + 1, "n=1.0e+5000 above bound 1.0e+5000"),
                        (Fraction(huge, 3), "n=3.33333333333333e+4999 is not an integer"),
                        ("0", "n='0' below bound 1")):
        with pytest.raises(ConfigurationError) as info:
            spec.validate(value)
        assert says in str(info.value)
    with pytest.raises(DomainError) as info:
        as_int(-huge, "m", 0)
    assert str(info.value) == "m must be an integer >= 0, got -1.0e+5000"
    for upper, lower, error, says in (
            (["1e5000", 1], [3], ConvergenceError, "= -1.0e+5000 <= 0"),
            (["1e5000", 1], ["-1e5000"], DomainError, "parameter -1.0e+5000 is"),
            (["1e5000", 1], ["1e5001"], ConvergenceError, "M = 2.0e+5001")):
        with pytest.raises(error) as info:
            pfq(upper, lower, 1, ctx30)
        assert says in str(info.value)


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
    # derivative_at takes its point into the calling context like any real
    with pytest.raises(ContextMismatchError):
        mzsv.derivative_at(lambda x: x * x, b * "1.5", 1, ctx30)
    assert abs(mzsv.derivative_at(lambda x: x * x, a * "1.5", 1, ctx30) - 3) <= ctx30.tol


@pytest.mark.parametrize("value", [2, -7, 0, 10 ** 30, 0.5, -0.1, 1e300, Fraction(3, 4),
                                   Fraction(-5, 8)])
def test_hash_agrees_with_eq(ctx30, ctx50, value):
    # a value the context holds exactly equals the number and hashes alike,
    # so a set or a dict finds either by the other; equal values of two
    # contexts hash alike and meet in ==, which refuses them
    x = ctx30.real(value)
    assert x == value and hash(x) == hash(value)
    assert value in {x} and x in {value}
    assert {x: 1}.get(value) == 1 and {value: 1}.get(x) == 1
    assert hash(ctx50.real(value)) == hash(x)
    with pytest.raises(ContextMismatchError):
        _ = x in {ctx50.real(value)}


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


@pytest.mark.parametrize("digits", [10, 30, 100])
def test_huge_exponents_render_as_nstr_does(digits):
    # past 2**_NSTR_BITS_MAX and below 10**-EXPONENT_MAX the text comes
    # from one logarithm, not from nstr's power of ten; wherever nstr
    # itself is quick it is the same text, digits, rounding and layout
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    rng = random.Random(4200 + digits)
    xs = [mp.mpf(10) ** 2000, mp.mpf(10) ** -200000,
          mp.mpf(10) ** 2000 * (1 + mp.mpf(2) ** -mp.prec), gamma("1e300", ctx).mpf]
    for _ in range(40):
        exp = rng.choice([3501, 10 ** 4, 10 ** 6, 2 ** 40, -340_000, -10 ** 7, -2 ** 40])
        xs.append(mp.mpf((rng.choice((-1, 1)) * (rng.getrandbits(mp.prec) | 1),
                          exp + rng.randint(0, 1000))))
    for x in xs:
        for sig in (5, 15, digits):
            assert _decimal_string(mp, x, sig) == mp.nstr(x, sig), (sig, mp.nstr(x, 5))


def test_astronomical_values_render_quickly():
    # gamma(1e4000) has a decimal exponent of 4 004 digits, which nstr took
    # 17 s to build a power of ten for; gamma(1e5000)'s exponent is past
    # Python's int-to-string limit of 4 300 digits and prints in exponent
    # form, as an error message prints a large int
    ctx = PrecisionContext(30)
    big = gamma("1e4000", ctx)
    times = []
    for _ in range(3):  # the best of three, so a busy host does not fail it
        start = time.perf_counter()
        text = str(big)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1
    assert text.startswith("1.22026290411427561987990288146e+399956570551809674817")
    assert len(text) == 33 + 4004
    huge = gamma("1e5000", ctx)
    assert str(huge) == "2.38204060116782191668339086856e+4.9995657055181e+5003"
    assert str(1 / huge).endswith("e-4.9995657055181e+5003")


def test_decimal_rounding_carry(ctx30):
    assert ctx30.real("9.9999").decimal(4) == "10.00"


def _reference_decimal(x, sig: int) -> str:
    """x rounded half-even to sig significant digits by the decimal module,
    from its exact Fraction value, in plain notation (|x| < 10**6 after
    rounding)."""
    sign, man, e, _ = x._mpf_
    fr = Fraction(-man if sign else man) * Fraction(2) ** e
    with localcontext() as dc:
        dc.prec, dc.rounding = sig, ROUND_HALF_EVEN
        r = Decimal(fr.numerator) / Decimal(fr.denominator)
        r = r.quantize(Decimal((0, (1,), r.adjusted() - sig + 1)))
    return format(r, "f")


def test_decimal_rendering_matches_a_fraction_reference(ctx30):
    # the decimal magnitude is exact: a value just below a power of ten,
    # whose log10 rounds up to the power, still gets every digit asked for
    mp = ctx30.mp
    wd = ctx30.working_digits
    xs = []
    for e in range(-45, 6):
        man, ex = (mp.mpf(10) ** e).man_exp
        xs += [mp.ldexp(man + j, ex) for j in (-2, -1, 0, 1, 2)]
        xs.append(mp.mpf(10) ** e * (1 - mp.mpf(2) ** -130))
    rng = random.Random(2029)
    xs += [mp.mpf(rng.uniform(-1, 1)) * mp.mpf(10) ** rng.randint(-45, 5)
           for _ in range(300)]
    for x in xs:
        for sig in (10, ctx30.digits, wd):
            want = _reference_decimal(x, sig)
            assert HPReal(x, ctx30).decimal(sig) == want, (x, sig)
    text = HPReal(mp.mpf(10) ** -35 * (1 - mp.mpf(2) ** -130), ctx30).decimal(wd)
    assert text.startswith("0." + "0" * 35 + "9") and len(text) == 2 + 35 + wd


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


_ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("op", _ARITHMETIC, ids=["add", "sub", "mul", "truediv"])
def test_int_operands_give_the_coerced_result(ctx30, op, monkeypatch):
    # a plain int of at most the binary precision goes to mpmath as it is;
    # the result is the mpf that coercing it first gives, in either order
    prec = ctx30.mp.prec
    coerced = []
    real = PrecisionContext.real

    def counting_real(self, x):
        coerced.append(x)
        return real(self, x)

    monkeypatch.setattr(PrecisionContext, "real", counting_real)
    x = real(ctx30, "1.3")
    for n in (0, 1, -1, 2 ** prec - 1, -(2 ** prec - 1), 2 ** prec, -2 ** prec,
              2 ** prec + 1):
        coerced.clear()
        want_n = real(ctx30, n).mpf
        for left, right, want_left, want_right in ((x, n, x.mpf, want_n),
                                                   (n, x, want_n, x.mpf)):
            if op is operator.truediv and right is n and n == 0:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            got = op(left, right)
            assert isinstance(got, HPReal) and got.ctx is ctx30
            assert got.mpf._mpf_ == op(want_left, want_right)._mpf_, (op, n)
        # only an int past the precision is coerced, once per order
        assert coerced == ([n, n] if n.bit_length() > prec else []), n


def test_int_fast_path_keeps_bool_and_context_checks(ctx30, ctx50):
    x = ctx30.real("1.3")
    for op in _ARITHMETIC:
        for left, right in ((x, True), (False, x)):
            with pytest.raises(DomainError):
                op(left, right)
        for left, right in ((x, ctx50.real(2)), (ctx50.real(2), x)):
            with pytest.raises(ContextMismatchError):
                op(left, right)
    # a Fraction, a str and a float still take the coercion path
    for other in (Fraction(1, 3), "0.25", 0.5):
        assert (x + other).mpf == x.mpf + ctx30.real(other).mpf


def test_a_context_keeps_no_hpreal_and_no_evaluation():
    # the memo holds (raw mpf, info of mpfs) per finished run and the kept
    # zeta and Gamma values are raw mpfs: nothing there refers to a context
    from mzsv.series import EvalDiagnostics, Evaluation
    ctx = PrecisionContext(30)
    for id_, params in (("remark1_odd", {"s": 2}), ("eq1", {"s": 2}),
                        ("a1_specialized", {"s": 2, "alpha": "0.6"}),
                        ("eq3", {"r": 1, "s": 2}), ("a1_prefactor_derivative", {})):
        assert verify(id_, params, ctx).passed, id_

    def leaves(x):
        if isinstance(x, (tuple, list)):
            for y in x:
                yield from leaves(y)
        elif isinstance(x, dict):
            for y in x.values():
                yield from leaves(y)
        else:
            yield x

    kept = (ctx.evaluations, ctx.scalars, ctx.gammas)
    assert all(kept)
    assert not any(isinstance(x, (mzsv.HPReal, Evaluation, EvalDiagnostics,
                                  PrecisionContext)) for x in leaves(kept))
    assert all(type(v) is ctx.mp.mpf and type(info) is dict
               for v, info in ctx.evaluations.values())


@pytest.mark.parametrize("run", [
    lambda ctx: verify("eq1", {"s": 2}, ctx),             # closed-form diagnostics
    lambda ctx: star_sum(mzsv.Index((2, 3, 1)), 50_000, ctx),  # a kept finite-sum word
], ids=["verify", "star_sum"])
def test_a_context_is_freed_without_the_cyclic_collector(run):
    # nothing a context keeps refers back to it, so dropping the last
    # reference frees it, and the contexts it raised, by reference counts
    gc.collect()
    gc.disable()
    try:
        ctx = PrecisionContext(30)
        run(ctx)
        refs = [weakref.ref(c) for c in (ctx, *ctx._raised.values())]
        assert ctx.tail_calc(False).finite_words or ctx.exact_floor is not None
        del ctx
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
