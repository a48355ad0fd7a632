"""Error estimates of plain (non-alternating) runs bound their real error.

Every case is evaluated at 30 digits and compared with the same quantity
at 60 digits: the error against that reference must not exceed the
reported ``error_estimate``. The cases cover power chains (random
admissible weak and strict index chains), ratio chains (pFq at z = +1,
both sides of the four specializations (A1)-(A4), a Krattenthaler-Rivoal
right-hand side) and the plain harmonic-product series. The last test
audits every side of the registry, plain, alternating and closed-form.
``tests/test_alternating_tails.py`` covers the Boole-tailed runs.
"""

import random
from fractions import Fraction

import pytest

from mzsv import Index, KRParamsI, PrecisionContext
from mzsv.hypergeom import kr_rhs_i, pfq_ex, specialized_lhs, specialized_rhs
from mzsv.identities import verify_suite
from mzsv.series import mzsv, mzv, weighted_product_series_ex

from test_alternating_tails import _assert_estimate_bounds_error


def _random_admissible(n, seed=29):
    """n distinct indices of depth 1-3 with parts 1-4, the last part >= 2."""
    rng = random.Random(seed)
    found = set()
    while len(found) < n:
        head = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 2)))
        found.add(head + (rng.randint(2, 4),))
    return sorted(found)


@pytest.mark.parametrize("parts", _random_admissible(40), ids=str)
def test_weak_chain_estimate_bounds_error(parts):
    _assert_estimate_bounds_error(lambda ctx: mzsv(Index(parts), ctx))


@pytest.mark.parametrize("parts", _random_admissible(40, seed=31), ids=str)
def test_strict_chain_estimate_bounds_error(parts):
    _assert_estimate_bounds_error(lambda ctx: mzv(Index(parts), ctx))


@pytest.mark.parametrize("upper,lower", [
    (("3/10", "2/5"), ("11/5",)),
    (("1", "1"), ("3",)),
    (("1/2", "1/2", "1/2"), ("1", "1")),
    (("1/3", "3/4", "1"), ("5/2", "2/3")),
], ids=["2F1(3/10,2/5;11/5)", "2F1(1,1;3)", "3F2(1/2^3;1,1)", "3F2"])
def test_pfq_at_one_estimate_bounds_error(upper, lower):
    # the margins are 3/2, 1, 1/2 and 17/12: the slowest decays like t^(-3/2)
    _assert_estimate_bounds_error(lambda ctx: pfq_ex(upper, lower, 1, ctx))


@pytest.mark.parametrize("case,alpha,s", [
    ("a1", "1/3", 2), ("a2", "1/2", 2), ("a3", "1/2", 3), ("a4", "1/3", 2)])
@pytest.mark.parametrize("side", [specialized_lhs, specialized_rhs],
                         ids=["lhs", "rhs"])
def test_specialized_sides_estimate_bounds_error(side, case, alpha, s):
    _assert_estimate_bounds_error(lambda ctx: side(case, alpha, s, ctx))


def test_kr_rhs_estimate_bounds_error():
    half = Fraction(1, 2)
    p = KRParamsI(s=2, a=3, b=(half,) * 3, c=(half,) * 3)
    _assert_estimate_bounds_error(lambda ctx: kr_rhs_i(p, ctx))


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("s", [2, 3])
def test_weighted_estimate_bounds_error(r, s):
    _assert_estimate_bounds_error(
        lambda ctx: weighted_product_series_ex(r, s, False, ctx))


def test_registry_sides_estimates_bound_error():
    # the whole registry as `verify all` runs it at 30 digits (tol 1e-25),
    # each side against the same side at 60 digits: no side, series or
    # closed form, may be further from its reference than its error_estimate
    ctx = PrecisionContext(digits=30, tol="1e-25")
    ref_ctx = PrecisionContext(digits=60, tol="1e-55")
    mp = ref_ctx.mp
    results = verify_suite(None, None, ctx)
    refs = verify_suite(None, None, ref_ctx)
    assert len(results) == len(refs) >= 220
    over = []
    for res, ref in zip(results, refs):
        assert (res.id, res.params) == (ref.id, ref.params)
        assert res.error is None and ref.error is None, (res.id, res.error, ref.error)
        for side, value, ref_value, diag in (
                ("lhs", res.lhs_value, ref.lhs_value, res.lhs_diag),
                ("rhs", res.rhs_value, ref.rhs_value, res.rhs_diag)):
            err = abs(mp.mpf(value.mpf) - ref_value.mpf)
            est = mp.mpf(diag.error_estimate.mpf)
            if err > est:
                over.append((res.id, res.params, side, mp.nstr(err, 3), mp.nstr(est, 3)))
    assert not over, (len(over), over[:5])
