"""The per-context memo of finished evaluator runs (chains._run_evaluator)."""

from fractions import Fraction

import pytest

from mzsv import (ContextMismatchError, ConvergenceError, DomainError, Index,
                  PrecisionContext, alt_mzsv, chains, mzsv, mzv)
from mzsv.chains import (ChainEvaluator, Level, Ratio, WeightedChainEvaluator,
                         index_levels)
from mzsv.hypergeom import KRParamsI, kr_rhs_i
from mzsv.series import eta_shifted_ex, run_evaluation, weighted_product_series_ex
from mzsv.tailcalc import TailCalc


@pytest.fixture
def kernel_calls(monkeypatch):
    """A list that gains one entry per kernel call."""
    calls = []
    for name in ("nested_chain_advance", "weighted_chain_advance"):
        def counted(*args, _kernel=getattr(chains, name)):
            calls.append(args)
            return _kernel(*args)
        monkeypatch.setattr(chains, name, counted)
    return calls


def _chain(parts, tol="1e-20", corrections=True, **kw):
    return lambda ctx: ChainEvaluator(ctx, index_levels(parts), **kw).run(
        tol, corrections)


def _weighted(r, p, alternating=False):
    return lambda ctx: WeightedChainEvaluator(ctx, r, p, alternating).run("1e-20")


@pytest.mark.parametrize("evaluate", [
    lambda ctx: mzsv(Index((1, 2)), ctx),
    lambda ctx: mzv(Index((1, 2)), ctx),
    lambda ctx: alt_mzsv(Index((1, 2)), ctx),
    lambda ctx: weighted_product_series_ex(2, 2, False, ctx),
    lambda ctx: weighted_product_series_ex(2, 1, True, ctx),
], ids=["mzsv", "mzv", "alt_mzsv", "weighted", "weighted_alternating"])
def test_a_repeat_is_a_hit(kernel_calls, evaluate):
    ctx = PrecisionContext(30)
    first = evaluate(ctx)
    calls = len(kernel_calls)
    assert calls > 0
    assert evaluate(ctx) == first  # the value and every diagnostic
    assert len(kernel_calls) == calls


def _ratio_chain(ctx):
    ratio = Ratio((Fraction(1, 2),), (Fraction(5, 2),), init=Fraction(1))
    return run_evaluation(ChainEvaluator(ctx, [Level(ratio=ratio)]))


@pytest.mark.parametrize("evaluate", [
    lambda ctx: mzsv(Index((1, 2, 3)), ctx),
    lambda ctx: mzv(Index((2, 3)), ctx),
    lambda ctx: alt_mzsv(Index((1, 2)), ctx),
    lambda ctx: eta_shifted_ex(3, ctx),
    _ratio_chain,
], ids=["mzsv", "mzv", "alt_mzsv", "eta_shifted", "ratio"])
def test_a_level_view_is_built_once_and_a_hit_runs_no_kernel(monkeypatch, kernel_calls,
                                                             evaluate):
    # every evaluator reads its levels' kept views: a view is built once per
    # distinct level in the process, whatever the context, and a repeat on
    # one context is one memo lookup, which runs no kernel
    made = []
    init = ChainEvaluator.__init__
    monkeypatch.setattr(ChainEvaluator, "__init__",
                        lambda self, *a, **k: made.append(self) or init(self, *a, **k))
    chains.level_view.cache_clear()
    ctx = PrecisionContext(30)
    first = evaluate(ctx)
    built = chains.level_view.cache_info().misses
    assert built == len(set(made[0].levels))
    calls = len(kernel_calls)
    again = evaluate(ctx)
    assert len(kernel_calls) == calls and len(ctx.evaluations) == 1
    assert again == first
    assert again.value.mpf is first.value.mpf
    # the hit's evaluator holds its whole view from construction on
    ev, hit = made
    assert hit.memo_key == ev.memo_key and hit.start == ev.start
    assert (hit._kernel_args, hit.rvals) == chains.kernel_levels(hit.levels, hit.S, hit.strict)
    evaluate(PrecisionContext(30))
    assert len(kernel_calls) > calls
    assert chains.level_view.cache_info().misses == built


def test_a_hit_does_not_advance_the_evaluator(kernel_calls):
    ctx = PrecisionContext(30)
    _chain((1, 2))(ctx)
    ev = ChainEvaluator(ctx, index_levels((1, 2)))
    ev.run("1e-20")
    assert ev.t_next == 0


@pytest.mark.parametrize("first, second", [
    (_chain((1, 2)), _chain((1, 2), strict=True)),
    (_chain((1, 2)), _chain((1, 2), alternating=True)),
    (_chain((1, 2)), _chain((1, 2), tol="1e-21")),
    (_chain((2,), tol="1e-4"), _chain((2,), tol="1e-4", corrections=False)),
    (_weighted(2, 3), _weighted(1, 3)),
    (_weighted(2, 3), _weighted(2, 5)),
    (_weighted(2, 3), _weighted(2, 3, alternating=True)),
], ids=["strict", "alternating", "tol", "corrections", "r", "p",
        "weighted_alternating"])
def test_a_different_key_is_a_miss(kernel_calls, first, second):
    ctx = PrecisionContext(30)
    first(ctx)
    calls = len(kernel_calls)
    second(ctx)
    assert len(kernel_calls) > calls
    assert len(ctx.evaluations) == 2


def test_contexts_do_not_share_entries(kernel_calls):
    run = _chain((1, 2))
    run(PrecisionContext(30))
    calls = len(kernel_calls)
    run(PrecisionContext(30))
    assert len(kernel_calls) > calls


def test_a_hit_returns_a_fresh_info(kernel_calls):
    ctx = PrecisionContext(30)
    run = _chain((1, 2))
    value, info = run(ctx)
    expected = dict(info)
    info["terms"] = -1
    info.clear()
    again_value, again = run(ctx)
    assert again_value == value and again == expected
    again["estimate"] = 0
    assert run(ctx)[1] == expected


@pytest.mark.parametrize("run, max_terms, error", [
    # a direct zeta(2) remainder is about 1/M, far above 1e-20 at any M up
    # to 1000
    (_chain((2,), corrections=False), 1000, ConvergenceError),
    # below the rounding floor of 40 working digits
    (_chain((2,), tol="1e-45"), 10 ** 8, DomainError),
], ids=["convergence", "rounding_floor"])
def test_errors_are_not_stored(kernel_calls, run, max_terms, error):
    ctx = PrecisionContext(30, max_terms=max_terms)
    for _ in range(2):
        calls = len(kernel_calls)
        with pytest.raises(error):
            run(ctx)
        assert len(kernel_calls) > calls
    assert ctx.evaluations == {}


_KR = KRParamsI(s=1, a=2, b=(1, 1), c=(1, 1))
_TOL_RUNS = {
    "mzsv": lambda ctx, tol: mzsv(Index((2,)), ctx, tol=tol),
    "kr_rhs_i": lambda ctx, tol: kr_rhs_i(_KR, ctx, tol=tol),
    "weighted": lambda ctx, tol: weighted_product_series_ex(1, 2, False, ctx, tol=tol),
}


@pytest.mark.parametrize("name", list(_TOL_RUNS))
def test_an_hpreal_tol_is_read_as_its_mpf(kernel_calls, name):
    # a per-call tol is read like the context's: an HPReal of the context
    # keys the memo as its string does, and one of another context is refused
    run = _TOL_RUNS[name]
    ctx = PrecisionContext(30)
    want = run(ctx, "1e-20")
    calls = len(kernel_calls)
    assert run(ctx, ctx.real("1e-20")) == want
    assert len(kernel_calls) == calls and len(ctx.evaluations) == 1
    with pytest.raises(ContextMismatchError):
        run(ctx, PrecisionContext(30).real("1e-20"))


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", 0, -1, "-1e-20"])
@pytest.mark.parametrize("name", list(_TOL_RUNS))
def test_a_tol_not_positive_and_finite_is_a_domain_error(kernel_calls, name, tol):
    ctx = PrecisionContext(30)
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        _TOL_RUNS[name](ctx, tol)
    assert kernel_calls == [] and ctx.evaluations == {}


def test_harmonic_product_tails_are_shared_across_r(monkeypatch):
    # T_0..T_r depend on (p, sign) alone: the context keeps one list per p,
    # so r = 3 after r = 1 builds T_2 and T_3 only, and r = 2 builds none;
    # the values are those a fresh context gives
    sums = []
    sumtail = TailCalc.sumtail
    monkeypatch.setattr(TailCalc, "sumtail", lambda self, f: sums.append(f) or sumtail(self, f))
    ctx = PrecisionContext(30)
    for r, built in ((1, 2), (3, 2), (2, 0)):
        sums.clear()
        shared = weighted_product_series_ex(r, 2, False, ctx)
        assert len(sums) == built, r
        fresh = weighted_product_series_ex(r, 2, False, PrecisionContext(30))
        assert shared.value.mpf == fresh.value.mpf
        assert shared.diagnostics.error_estimate.mpf == fresh.diagnostics.error_estimate.mpf
    assert len(ctx.tail_calc(False).segment_tails[3]) == 4
