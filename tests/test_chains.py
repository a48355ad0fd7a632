"""The per-context memo of finished evaluator runs (chains._run_evaluator)."""

import pytest

from mzsv import (ConvergenceError, DomainError, Index, PrecisionContext,
                  alt_mzsv, chains, mzsv, mzv)
from mzsv.chains import ChainEvaluator, WeightedChainEvaluator, index_levels
from mzsv.series import weighted_product_series_ex


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
