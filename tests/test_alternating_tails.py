"""Alternating sums on the Boole tail: term counts that stay flat as the
precision grows, and error estimates that bound the real error.

Every alternating run (alternating index chains, the alternating
harmonic-product series, pFq at z = -1) corrects its truncation with the
Boole tail sum, so the first comparison of the run loop, at the second
checkpoint M0 + ceil(M0/8) (126 at 30 digits), usually passes.
"""

import random

import pytest

from mzsv import Index, PrecisionContext
from mzsv.hypergeom import pfq_ex
from mzsv.series import alt_mzsv, weighted_product_series_ex

REF_DIGITS = 60


@pytest.mark.parametrize("digits,limit", [(30, 2000), (100, 2000), (200, 8000)])
def test_alternating_term_counts_stay_flat(digits, limit):
    ctx = PrecisionContext(digits=digits)
    for ev in (alt_mzsv(Index((1, 2)), ctx),
               weighted_product_series_ex(3, 2, True, ctx)):
        assert ev.diagnostics.strategy == "tail_corrected"
        assert ev.diagnostics.terms_used <= limit


def _random_indices(n, seed=13):
    """n distinct indices of depth 1-3 with parts 1-4; any is admissible
    under the alternating sign."""
    rng = random.Random(seed)
    found = set()
    while len(found) < n:
        found.add(tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
    return sorted(found)


def _assert_estimate_bounds_error(evaluate):
    ctx = PrecisionContext(digits=30)
    ref_ctx = PrecisionContext(digits=REF_DIGITS)
    ev = evaluate(ctx)
    ref = evaluate(ref_ctx).value.mpf
    err = abs(ref_ctx.mp.mpf(ev.value.mpf) - ref)
    assert ev.diagnostics.strategy == "tail_corrected"
    assert err <= ev.diagnostics.error_estimate.mpf, ref_ctx.mp.nstr(err, 5)


@pytest.mark.parametrize("parts", _random_indices(40), ids=str)
def test_alternating_chain_estimate_bounds_error(parts):
    _assert_estimate_bounds_error(lambda ctx: alt_mzsv(Index(parts), ctx))


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("s", [1, 2])
def test_alternating_weighted_estimate_bounds_error(r, s):
    _assert_estimate_bounds_error(
        lambda ctx: weighted_product_series_ex(r, s, True, ctx))


@pytest.mark.parametrize("upper,lower", [
    (("1/2", "1"), ("1",)),
    (("3/4", "1/3"), ("7/12",)),
    (("1/2", "5/4", "2/3"), ("3/2", "5/12")),
], ids=["2F1(1/2,1;1)", "2F1(3/4,1/3;7/12)", "3F2"])
def test_pfq_at_minus_one_estimate_bounds_error(upper, lower):
    # margin sum(lower) - sum(upper) = -1/2 in each: terms decay like
    # t^(-1/2), the slowest the Boole tail is asked to sum here
    _assert_estimate_bounds_error(lambda ctx: pfq_ex(upper, lower, -1, ctx))


def test_pfq_at_minus_one_closed_form():
    # 2F1(1/2, 1; 1; -1) = (1 + 1)^(-1/2)
    ctx = PrecisionContext(digits=30)
    ev = pfq_ex(("1/2", "1"), ("1",), -1, ctx)
    err = abs(ev.value.mpf - 1 / ctx.mp.sqrt(2))
    assert err <= ev.diagnostics.error_estimate.mpf
