import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mzsv
import mzsv.cli  # noqa: F401  (the tracer wraps a name in it)
from mzsv import identities
from mzsv import (ConfigurationError, PrecisionContext, get_identity,
                  list_identities, verify, verify_suite, zeta)

EXPECTED_IDS = [
    "remark1_even", "remark1_odd", "a1_specialized", "a1_prefactor_derivative",
    "eq1", "a2_specialized", "a2_cyclic", "a3_specialized", "eq2_check",
    "eq3", "eq3_expansion_r0", "eq3_expansion_r1", "eq3_expansion_r2",
    "eq3_expansion_r3", "a4_specialized", "eq4", "eq4_expansion_r0",
    "eq4_expansion_r1", "eq4_expansion_r2", "eq4_expansion_r3", "eq5_check",
    "addendum_mzv_form", "two_one_eq3", "two_one_eq4", "theoremA_i",
    "theoremA_ii",
]


@pytest.fixture(scope="module")
def vctx():
    return PrecisionContext(digits=30, tol=1e-11)


def test_registry_contents():
    regs = list_identities()
    assert [d.id for d in regs] == EXPECTED_IDS
    assert len(regs) == 26
    assert "Eq. (1)" in get_identity("eq1").anchor
    assert "cyclic" in get_identity("a2_cyclic").anchor
    assert "Addendum" in get_identity("two_one_eq3").anchor
    assert "Theorem A (i)" == get_identity("theoremA_i").anchor


def test_registry_schemas_have_defaults():
    for desc in list_identities():
        assert desc.default_grid, desc.id
        assert desc.schema_text()


def test_verify_eq1_s1(vctx):
    res = verify("eq1", {"s": 1}, vctx)
    assert res.passed
    # LHS = 3 zeta(3), RHS = 3 zeta-star(3)
    want = 3 * zeta(3, vctx).mpf
    assert abs(res.lhs_value.mpf - want) < 1e-20
    assert abs(res.rhs_value.mpf - want) < 1e-11
    assert res.abs_diff.mpf < 1e-12


def test_verify_a2_cyclic_s2(vctx):
    res = verify("a2_cyclic", {"s": 2}, vctx)
    assert res.passed
    want = 3 * zeta(4, vctx).mpf
    assert abs(res.lhs_value.mpf - want) < 1e-20


def test_verify_two_one(vctx):
    res = verify("two_one_eq3", {"r": 1, "s": 2}, vctx)
    assert res.passed
    assert res.abs_diff.mpf <= res.tolerance.mpf


def test_verify_unknown_identity(vctx):
    with pytest.raises(ConfigurationError):
        verify("bogus", {}, vctx)


def test_verify_rejects_out_of_schema_params(vctx):
    with pytest.raises(ConfigurationError):
        verify("eq1", {"s": 99}, vctx)
    with pytest.raises(ConfigurationError):
        verify("eq1", {"q": 1}, vctx)
    with pytest.raises(ConfigurationError):
        verify("eq1", {}, vctx)
    with pytest.raises(ConfigurationError):
        verify("a3_specialized", {"s": 2, "alpha": "2.5"}, vctx)


def test_verify_rejects_non_integral_int_param(vctx):
    # an int parameter is not truncated: s = 2.5 is no s = 2
    for bad in (2.5, "2.5", Fraction(5, 2)):
        with pytest.raises(ConfigurationError, match="s="):
            verify("eq1", {"s": bad}, vctx)
    # an integral value of another type is still an integer
    for good in (2.0, "2", Fraction(2)):
        assert verify("eq1", {"s": good}, vctx).params == {"s": 2}


def test_verify_rejects_bool_int_param(vctx):
    # True is an int to Python, but no s = 1
    for bad in (True, False):
        with pytest.raises(ConfigurationError, match="s="):
            verify("eq1", {"s": bad}, vctx)


def test_verify_suite_filter(vctx):
    results = verify_suite("remark1_*", {"s": [1, 2, 3]}, vctx)
    assert len(results) == 6
    assert all(r.passed for r in results)
    ids = {r.id for r in results}
    assert ids == {"remark1_even", "remark1_odd"}


def test_verify_suite_empty_match(vctx):
    with pytest.raises(ConfigurationError):
        verify_suite("nonexistent*", None, vctx)


def test_verify_suite_deterministic(vctx):
    a = verify_suite("remark1_even", {"s": [2]}, vctx)
    b = verify_suite("remark1_even", {"s": [2]}, vctx)
    assert a[0].lhs_value.decimal() == b[0].lhs_value.decimal()
    assert a[0].rhs_value.decimal() == b[0].rhs_value.decimal()
    assert a[0].abs_diff.decimal() == b[0].abs_diff.decimal()


def test_verify_suite_default_grid_order(vctx):
    results = verify_suite("eq4_expansion_r0", None, vctx)
    assert [r.params["s"] for r in results] == [1, 2]
    assert all(r.passed for r in results)


def test_verify_suite_expansion_family(vctx):
    results = verify_suite("eq4_expansion_*", {"s": [1, 2]}, vctx)
    assert len(results) == 8
    assert all(r.passed for r in results)


@pytest.mark.parametrize("r,s", [(0, 2), (1, 2), (2, 3), (3, 2)])
def test_rhs_rewrites_agree_on_overlap(vctx, r, s):
    # the harmonic-product series, its signed two-one rewrite, and the
    # strict-sum form all evaluate the same quantity
    eq3 = verify("eq3", {"r": r, "s": s}, vctx)
    two_one = verify("two_one_eq3", {"r": r, "s": s}, vctx)
    addendum = verify("addendum_mzv_form", {"r": r, "s": s}, vctx)
    assert abs((eq3.rhs_value - two_one.rhs_value).mpf) <= 1e-9
    assert abs((eq3.rhs_value - addendum.rhs_value).mpf) <= 1e-9


@pytest.mark.parametrize("r,s", [(0, 2), (1, 2), (2, 3), (3, 2)])
def test_rhs_rewrites_agree_to_working_precision(r, s):
    # with the exact harmonic-product tail the three routes meet near the
    # working precision, not only at the 1e-9 of the test above
    ctx = PrecisionContext(digits=30, tol="1e-28")
    eq3 = verify("eq3", {"r": r, "s": s}, ctx)
    two_one = verify("two_one_eq3", {"r": r, "s": s}, ctx)
    addendum = verify("addendum_mzv_form", {"r": r, "s": s}, ctx)
    assert abs((eq3.rhs_value - two_one.rhs_value).mpf) <= 1e-25
    assert abs((eq3.rhs_value - addendum.lhs_value).mpf) <= 1e-25
    assert abs((eq3.rhs_value - addendum.rhs_value).mpf) <= 1e-25


@pytest.mark.parametrize("id_", ["eq3", "addendum_mzv_form"])
def test_eq3_sides_agree_at_30_digits(id_):
    # the default grid plus r = 5, at tol 1e-25
    ctx = PrecisionContext(digits=30, tol="1e-25")
    results = (verify_suite(id_, None, ctx)
               + verify_suite(id_, {"r": [5], "s": [2, 3]}, ctx))
    for res in results:
        assert res.passed and res.abs_diff.mpf <= 1e-25, res.params


@pytest.mark.parametrize("id_", ["eq3", "addendum_mzv_form"])
def test_eq3_sides_agree_at_100_digits(id_):
    ctx = PrecisionContext(digits=100, tol="1e-90")
    res = verify(id_, {"r": 3, "s": 2}, ctx)
    assert res.passed and res.abs_diff.mpf <= ctx.mp.mpf("1e-90")


@pytest.mark.parametrize("eq", ["eq3", "eq4"])
@pytest.mark.parametrize("k", [0, 1])
def test_expansion_ids_alias_two_one(eq, k):
    ctx = PrecisionContext(digits=15, tol=1e-8)
    alias = verify(f"{eq}_expansion_r{k}", {"s": 2}, ctx)
    family = verify(f"two_one_{eq}", {"r": k, "s": 2}, ctx)
    for field in ("lhs_value", "rhs_value", "abs_diff"):
        assert getattr(alias, field).mpf == getattr(family, field).mpf, field


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("id_, params, series_calls, sides", [
    ("eq3", {"r": 2, "s": 2}, 2, 0),
    ("two_one_eq3", {"r": 2, "s": 2}, 1 + 2 ** 2, 0),   # 2^r two-one parts
    ("addendum_mzv_form", {"r": 2, "s": 2}, 1 + 2 ** 2, 0),
    ("theoremA_i", {"variant": "generic", "s": 1}, 0, 1),
    ("theoremA_ii", {"variant": "generic", "s": 1}, 0, 1),
])
def test_registry_evaluators_reach_the_tracer(monkeypatch, id_, params,
                                              series_calls, sides):
    # the benchmark's tracer (perfbench/tracing.py) replaces series.* and
    # hypergeom.* attributes after import; an evaluator that bound one of
    # them at import would bypass it and go uncounted
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, mzsv)
        assert verify(id_, params, PrecisionContext(digits=15, tol=1e-8)).passed
    finally:
        tracer.uninstall()
    calls = {name: agg.calls for name, agg in tracer.aggs.items()}
    assert tracer.series_calls == series_calls
    # Theorem A: one pFq series side and one nested right-hand side
    assert calls.get("hypergeom.pfq", 0) == sides
    assert calls.get("hypergeom.kr_rhs", 0) == sides


@pytest.mark.parametrize("digits", [30, 100, 200])
def test_eq2_check_integer_oracle_across_the_schema(digits):
    # the registry's Eq. (2) check at the schema's corners: both sides within
    # 10^-wd relative (absolute below 1), far inside the claimed floor
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    for m in (0, 7, 15, 30):
        for r in range(7):
            res = verify("eq2_check", {"m": m, "r": r}, ctx)
            lhs = res.lhs_value.mpf
            bound = mp.mpf(10) ** -ctx.working_digits * max(1, abs(lhs))
            assert res.passed and abs(lhs - res.rhs_value.mpf) <= bound, (m, r)


@pytest.mark.parametrize("m", [0, 1, 7, 30])
def test_eq2_check_integer_product_matches_hpreal_product(monkeypatch, m):
    # the oracle's f, 1/(2-x)_{m+1} in integers, against the same product
    # taken by HPReal operations, at every stencil point derivative_at hands
    # it: four at r = 1 (the centre weighs nothing), fifteen at r = 6
    real_derivative_at = identities.derivative_at
    seen = []

    def spy(f, x0, r, ctx):
        def g(x):
            prod = x.ctx.one()
            for j in range(m + 1):
                prod = prod * (2 - x + j)
            ours, ref = f(x), (1 / prod).mpf
            mp = x.ctx.mp
            seen.append(abs(ours.mpf - ref) / ref * mp.mpf(2) ** mp.prec)
            return ours
        return real_derivative_at(g, x0, r, ctx)

    monkeypatch.setattr(identities, "derivative_at", spy)
    for r in (1, 6):
        assert verify("eq2_check", {"m": m, "r": r}, PrecisionContext(30)).passed
    # in units of 2^-prec relative: each of the HPReal side's m+1 roundings
    # costs at most one, the integer side's one final rounding one
    assert len(seen) == 4 + 15 and max(seen) <= m + 3


def _hpreal_combine(ctx, parts):
    """The HPReal loop that identities._combine runs in libmp: the reference."""
    total = tail = est = ctx.zero()
    terms, strategy = 0, "direct"
    for coef, ev in parts:
        total = total + coef * ev.value
        tail = tail + coef * ev.diagnostics.tail_correction
        est = est + abs(coef) * ev.diagnostics.error_estimate
        if ev.diagnostics.terms_used >= terms:
            terms, strategy = ev.diagnostics.terms_used, ev.diagnostics.strategy
    return total.mpf._mpf_, tail.mpf._mpf_, est.mpf._mpf_, terms, strategy


@pytest.mark.parametrize("digits", [30, 100])
def test_combine_is_the_hpreal_loop_bit_for_bit(digits):
    # seeded signed parts of every magnitude, with zeros and near-cancelling
    # pairs: the same raw mpfs, terms and strategy as the HPReal loop
    ctx = PrecisionContext(digits)
    mp = ctx.mp
    rng = random.Random(digits)

    def value():
        if rng.random() < 0.1:
            return ctx.zero()
        man = rng.choice((-1, 1)) * rng.getrandbits(mp.prec)
        return mzsv.HPReal(mp.ldexp(mp.mpf(man), rng.randint(-mp.prec - 40, 4)), ctx)

    for _ in range(300):
        parts = []
        for _ in range(rng.randint(1, 12)):
            v = value()
            if parts and rng.random() < 0.2:   # nearly cancels the part before
                v = -parts[-1][1].value + mzsv.HPReal(mp.ldexp(1, -mp.prec), ctx)
            diag = identities.EvalDiagnostics(rng.randint(0, 500), value(), abs(value()),
                                              rng.choice(("direct", "tail_corrected")))
            coef = rng.choice((-1, 1)) * rng.randint(1, 3) << rng.randint(0, 6)
            parts.append((coef, identities.Evaluation(v, diag)))
        got = identities._combine(ctx, parts)
        diag = got.diagnostics
        assert (got.value.mpf._mpf_, diag.tail_correction.mpf._mpf_,
                diag.error_estimate.mpf._mpf_, diag.terms_used,
                diag.strategy) == _hpreal_combine(ctx, parts)
    other = PrecisionContext(digits)
    with pytest.raises(mzsv.ContextMismatchError):
        identities._combine(ctx, [(1, identities._scalar(other, 1))])


def test_instances_take_only_the_axes_an_identity_takes():
    _instances_for = identities._instances_for
    eq3 = get_identity("eq3")
    default = [dict(g) for g in eq3.default_grid]
    # no grid, an empty one and one of foreign axes all run the default grid
    for grid in (None, {}, {"alpha": ["0.6"], "m": [3]}):
        assert _instances_for(eq3, grid) == default
    # an override replaces its axis in every default point; repeats, also
    # after the default grid's other axes are merged in, run once
    assert _instances_for(eq3, {"s": [2, 2], "r": [1]}) == [{"r": 1, "s": 2}]
    assert _instances_for(eq3, {"s": [3]}) == [{"r": r, "s": 3} for r in range(4)]
    # an identity with no parameters runs its one empty instance
    assert _instances_for(get_identity("a1_prefactor_derivative"), {"s": [2]}) == [{}]
    assert _instances_for(eq3, {"s": []}) == []
