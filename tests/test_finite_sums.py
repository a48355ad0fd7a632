import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import mpmath
import pytest

import mzsv.chains
from mzsv import (ConvergenceError, DomainError, Index, PrecisionContext,
                  d1_inv_pochhammer2a_at1, d1_pochhammer_at1,
                  dr_inv_pochhammer_2minus_at1, dr_ratio_at1, derivative_at,
                  pochhammer, star_sum, star_sum_exact, strict_sum,
                  strict_sum_exact)
from mzsv.finite_sums import (_PLAN_MAX, _chain_prefixes, _exact_prefixes, _harmonic,
                              _plan, _recipe, _tail_route, dr_ratio_at1_forms,
                              dr_inv_pochhammer_2minus_at1_exact)
from mzsv.indices import coarsenings, compositions


# -- oracle: plain enumeration and Fraction recurrences, independent of the
# chain kernel -------------------------------------------------------------------

def _enum_sum(parts, m, strict):
    """S_m (strict) or S*_m (weak) by enumerating every index tuple."""
    if strict:
        combos = combinations(range(m), len(parts))
    else:
        combos = combinations_with_replacement(range(m + 1), len(parts))
    total = Fraction(0)
    for combo in combos:
        den = 1
        for mi, k in zip(combo, parts):
            den *= (mi + 1) ** k
        total += Fraction(1, den)
    return total


def _ones_strict(m, r):
    """[S_m(1^j)] for j = 0..r by the O(r*m) recurrence."""
    vals = [Fraction(1)] + [Fraction(0)] * r
    for t in range(m):
        inv = Fraction(1, t + 1)
        for j in range(r, 0, -1):
            vals[j] += vals[j - 1] * inv
    return vals


def _ones_star(m, r):
    """[S*_m(1^j)] for j = 0..r."""
    vals = [Fraction(1)] + [Fraction(0)] * r
    for t in range(m + 1):
        inv = Fraction(1, t + 1)
        for j in range(1, r + 1):
            vals[j] += vals[j - 1] * inv
    return vals


def test_pochhammer_examples(ctx30):
    assert pochhammer(2, 3, ctx30) == 24
    assert pochhammer("0.5", 2, ctx30).decimal(5) == "0.75000"
    assert pochhammer(7, 0, ctx30) == 1
    with pytest.raises(DomainError):
        pochhammer(1, -1, ctx30)


def test_strict_sum_examples(ctx30):
    assert abs((strict_sum(Index((1,)), 3, ctx30)
                - ctx30.real(Fraction(11, 6))).mpf) < ctx30.tol
    assert strict_sum(None, 5, ctx30) == 1
    assert strict_sum(Index((1, 1)), 1, ctx30) == 0
    for ix in (None, Index((1,)), Index((2, 1))):
        with pytest.raises(DomainError):
            strict_sum(ix, -1, ctx30)
        with pytest.raises(DomainError):
            strict_sum_exact(ix, -1)


def test_star_sum_examples(ctx30):
    assert abs((star_sum(Index((1,)), 1, ctx30)
                - ctx30.real(Fraction(3, 2))).mpf) < ctx30.tol
    assert abs((star_sum(Index((1, 1)), 2, ctx30)
                - ctx30.real(Fraction(85, 36))).mpf) < ctx30.tol
    assert star_sum(None, 0, ctx30) == 1
    for ix in (None, Index((1,)), Index((2, 1))):
        with pytest.raises(DomainError):
            star_sum(ix, -1, ctx30)
        with pytest.raises(DomainError):
            star_sum_exact(ix, -1)


def test_sums_match_enumeration_oracle(ctx30):
    cases = [((1,), 4), ((2,), 6), ((1, 2), 5), ((2, 1), 5), ((1, 1, 2), 6),
             ((3, 1), 4), ((1, 1), 6)]
    cases += [(parts, m) for parts in ((1, 2), (2, 1, 3), (1, 1, 1, 1, 1), (3,))
              for m in range(16)]
    floor = 100 * ctx30.mp.mpf(10) ** -ctx30.working_digits
    for parts, m in cases:
        ix = Index(parts)
        se = _enum_sum(parts, m, strict=True)
        te = _enum_sum(parts, m, strict=False)
        assert strict_sum_exact(ix, m) == se, (parts, m)
        assert star_sum_exact(ix, m) == te, (parts, m)
        assert abs(strict_sum(ix, m, ctx30).mpf - ctx30.real(se).mpf) < floor
        assert abs(star_sum(ix, m, ctx30).mpf - ctx30.real(te).mpf) < floor
    # one chain of r unit levels holds S_m(1^j) / S*_m(1^j) for every j <= r
    for m in range(16):
        for r in range(6):
            assert _exact_prefixes((1,) * r, m, strict=True) == _ones_strict(m, r)
            assert _exact_prefixes((1,) * r, m, strict=False) == _ones_star(m, r)


def test_exact_sums_at_large_m(ctx30):
    m = 300
    ix = Index((1, 2, 3))
    floor = 100 * ctx30.mp.mpf(10) ** -ctx30.working_digits
    assert abs(ctx30.real(star_sum_exact(ix, m)).mpf - star_sum(ix, m, ctx30).mpf) < floor
    assert abs(ctx30.real(strict_sum_exact(ix, m)).mpf
               - strict_sum(ix, m, ctx30).mpf) < floor
    for k in (1, 2, 3):
        gap = star_sum_exact(Index((k,)), m) - strict_sum_exact(Index((k,)), m)
        assert gap == Fraction(1, (m + 1) ** k)


@pytest.mark.parametrize("digits", [30, 100])
def test_single_part_sums_match_hurwitz_zeta(digits):
    # independent route: S*_m((k)) = zeta(k) - zeta(k, m+2) and
    # S_m((k)) = S*_{m-1}((k)), with mpmath's Hurwitz zeta at twice the
    # digits; at m = 40 000 the kernel's q*q = (t+1)^2 passes 2^30, two
    # digits, and at 10^8 the sum is its first M0 terms and two tails
    ctx = PrecisionContext(digits)
    ref_mp = mpmath.mp.clone()
    ref_mp.dps = 2 * digits
    bound = ref_mp.mpf(10) ** -digits
    for m in (40_000, 10 ** 8):
        for k in (2, 3, 4):
            star_ref = ref_mp.zeta(k) - ref_mp.zeta(k, m + 2)
            strict_ref = ref_mp.zeta(k) - ref_mp.zeta(k, m + 1)
            star = star_sum(Index((k,)), m, ctx)
            strict = strict_sum(Index((k,)), m, ctx)
            for got, ref in ((star, star_ref), (strict, strict_ref)):
                assert abs(ref_mp.mpf(got.mpf) - ref) <= bound * ref, (k, m, digits)
            assert strict.mpf == star_sum(Index((k,)), m - 1, ctx).mpf


def test_exact_sums_run_on_the_chain_kernel(monkeypatch):
    # the benchmark's tracer wraps the kernel under this name
    kernel = mzsv.chains.nested_chain_advance
    calls = []

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(mzsv.chains, "nested_chain_advance", counting)
    assert strict_sum_exact(Index((1, 2)), 7) == _enum_sum((1, 2), 7, strict=True)
    assert len(calls) == 1
    calls.clear()
    a, b = dr_ratio_at1_forms(5, 2)
    assert a == b
    assert len(calls) > 2


@pytest.mark.parametrize("digits", [30, 100])
def test_tail_route_matches_one_kernel_call(digits):
    # the tail route sums t < M0 and takes the rest from the words' tails,
    # a word ending in 1s through the stuffle product with H_end; at the
    # same scale it gives the same mpf as the one kernel call over every
    # term, on both sides of M0 and far past it, and so does the public sum
    # whichever route it takes
    ctx = PrecisionContext(digits)
    m0 = mzsv.chains.first_checkpoint(ctx, False)
    S = 10 ** (ctx.working_digits + mzsv.chains.SCALE_PAD)
    rng = random.Random(3800 + digits)
    for m in (list(range(m0 - 1, m0 + 3)) + [rng.randint(m0, 3 * m0) for _ in range(4)]
              + [rng.randint(m0, 20_000) for _ in range(4)]):
        for strict in (True, False):
            for lo in (1, 2):
                parts = tuple(rng.randint(lo, 5) for _ in range(rng.randint(1, 5)))
                end = m if strict else m + 1
                want = _chain_prefixes(parts, end, strict, S)[-1]
                fn = strict_sum if strict else star_sum
                assert fn(Index(parts), m, ctx).mpf == ctx.mp.mpf(want) / S, (parts, m)
                if end > m0:
                    words = _plan(parts, _PLAN_MAX)
                    got = _tail_route(ctx, S, m0, end, strict, words)
                    assert ctx.mp.mpf(got) / S == ctx.mp.mpf(want) / S, (parts, m, strict)


def test_a_known_word_costs_only_its_tails(monkeypatch):
    # a context keeps each word of the tail route once, with its evaluator
    # and its value at infinity: the same sum at a new bound past M0 makes
    # no kernel call and builds no evaluator, and gives the mpf of a fresh
    # context; the store grows with the distinct words only
    ctx = PrecisionContext(30)
    m0 = mzsv.chains.first_checkpoint(ctx, False)
    ix = Index((2, 1, 4, 3, 1))
    bounds = (100 * m0, 100 * m0 + 1, 217 * m0, 10 ** 6)
    fresh = {(fn, m): fn(ix, m, PrecisionContext(30)).mpf
             for fn in (star_sum, strict_sum) for m in bounds}
    kept = ctx.tail_calc(False).finite_words
    kernel, init = mzsv.chains.nested_chain_advance, mzsv.chains.ChainEvaluator.__init__
    calls, built = [], []
    monkeypatch.setattr(mzsv.chains, "nested_chain_advance",
                        lambda *args: calls.append(args) or kernel(*args))
    monkeypatch.setattr(mzsv.chains.ChainEvaluator, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    for fn in (star_sum, strict_sum):
        assert fn(ix, bounds[0], ctx).mpf == fresh[fn, bounds[0]]
        assert calls and built
        size = len(kept)
        for m in bounds[1:] + bounds[:1]:
            calls.clear()
            built.clear()
            assert fn(ix, m, ctx).mpf == fresh[fn, m], (fn, m)
            assert not calls and not built, (fn, m)
        assert len(kept) == size
    words = [w for w in _plan(ix.parts, _PLAN_MAX) if w[-1] >= 2]
    assert sorted(kept) == sorted((w, strict) for w in words for strict in (False, True))


@pytest.mark.parametrize("digits", [30, 100])
def test_tail_route_keeps_the_working_digits(digits):
    # seeded sums of parts 1-6, among them a strict depth-6 sum of 4.4e-14,
    # against one kernel call at twice the digits: the tail route keeps
    # the package's standard, 10^-wd times max(1, |value|)
    ctx = PrecisionContext(digits)
    ref = PrecisionContext(2 * digits)
    S = 10 ** (ref.working_digits + mzsv.chains.SCALE_PAD)
    m0 = mzsv.chains.first_checkpoint(ctx, False)
    bound = ref.mp.mpf(10) ** -ctx.working_digits
    rng = random.Random(3900 + digits)
    cases = [((2, 1, 5, 6, 4, 6), 19_977, True)] + [
        (tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 6))),
         rng.randint(2 * m0, 20_000), rng.random() < 0.5) for _ in range(12)]
    for parts, m, strict in cases:
        fn = strict_sum if strict else star_sum
        got = ref.mp.mpf(fn(Index(parts), m, ctx).mpf)
        want = ref.mp.mpf(_chain_prefixes(parts, m if strict else m + 1, strict, S)[-1]) / S
        assert abs(got - want) <= bound * max(1, abs(want)), (parts, m, strict)


@pytest.mark.parametrize("m", [10_000, 10 ** 8])
def test_sums_with_parts_one_keep_the_coarsening_identities(ctx30, m):
    # S*_m(k) = sum_c S_{m+1}(c) and S_m(k) = sum_c (-1)^(n-|c|) S*_{m-1}(c)
    # over the coarsenings c of k: every side takes the tail route, and the
    # coarsened words end in 1s where k does not, and the other way round
    mp = ctx30.mp
    bound = mp.mpf(10) ** -ctx30.digits
    for parts in ((1, 2, 1), (3, 1, 1, 2), (2, 1, 3, 1), (1, 1, 1, 1)):
        ix = Index(parts)
        star = star_sum(ix, m, ctx30).mpf
        other = sum(strict_sum(c, m + 1, ctx30).mpf for c in coarsenings(ix))
        assert abs(star - other) <= bound * star, (parts, m)
        strict = strict_sum(ix, m, ctx30).mpf
        other = sum((-1) ** (ix.depth - c.depth) * star_sum(c, m - 1, ctx30).mpf
                    for c in coarsenings(ix))
        assert abs(strict - other) <= bound * strict, (parts, m)


def test_stuffle_plan_orders_words_and_stops_at_its_budget():
    words = _plan((2, 1, 1), _PLAN_MAX)
    assert words[-1] == (2, 1, 1) and len(set(words)) == len(words)
    for i, w in enumerate(words):
        recipe = _recipe(w)
        needs = ([w[:j] for j in range(1, len(w))] if recipe is None
                 else [recipe[1], (1,)] + recipe[2] + recipe[3])
        assert all(x in words[:i] for x in needs if x and x != w), w
    assert _recipe((2, 1, 1)) == (2, (2, 1), [(1, 2, 1)], [(3, 1), (2, 2)])
    # ten 1s need all 2^10 compositions of 1..10 into the same parts
    assert len(_plan((1,) * 10, _PLAN_MAX)) == 1023
    assert _plan((1,) * 10, 100) is None


def _kernel_ranges(monkeypatch):
    """Record the (t0, t1) of every kernel call through chains."""
    kernel = mzsv.chains.nested_chain_advance
    ranges = []

    def counting(*args):
        ranges.append(args[7:9])
        return kernel(*args)

    monkeypatch.setattr(mzsv.chains, "nested_chain_advance", counting)
    return ranges


def test_sums_past_the_first_checkpoint_sum_only_to_it(monkeypatch):
    ctx = PrecisionContext(30)
    m0 = mzsv.chains.first_checkpoint(ctx, False)
    ranges = _kernel_ranges(monkeypatch)
    for fn, end in ((strict_sum, 20_000), (star_sum, 20_001)):
        for parts in ((2, 3, 2), (2, 1, 3), (1, 1, 1, 1, 1)):
            ranges.clear()
            fn(Index(parts), 20_000, ctx)
            assert ranges and set(ranges) == {(0, m0)}, parts
        # eight 1s need 255 words: at this m one kernel call costs less
        ranges.clear()
        fn(Index((1,) * 8), 20_000, ctx)
        assert ranges == [(0, end)]
    ranges.clear()
    star_sum(Index((2, 3)), m0 - 1, ctx)     # m0 terms: no tail
    assert ranges == [(0, m0)]


def test_sums_at_many_bounds_keep_a_bounded_number_of_tail_values():
    # every bound evaluates each head's tails at a new point; the kept
    # values must not grow with the number of bounds asked for
    ctx = PrecisionContext(30)
    m0 = mzsv.chains.first_checkpoint(ctx, False)
    kept = mzsv.tailcalc.VALUES_KEPT
    for m in range(m0, m0 + 3 * kept):
        star_sum(Index((2, 3)), 10 * m, ctx)
    tails = [T for _, T, _ in ctx.tail_calc(False).suffix_tails.values()]
    assert len(tails) == 3 and all(0 < len(T.values) <= kept for T in tails)


def test_loops_past_max_terms_raise_before_they_start():
    # ten 1s need 1 023 words, more than one kernel call over these
    # bounds; twelve need 4 095, past _PLAN_MAX at any bound
    ctx = PrecisionContext(30, max_terms=1000)
    for call in (lambda: star_sum(Index((1,) * 10), 1000, ctx),
                 lambda: strict_sum(Index((1,) * 10), 1001, ctx),
                 lambda: star_sum(Index((1,) * 12), 10 ** 9, PrecisionContext(30)),
                 lambda: pochhammer(2, 1001, ctx)):
        with pytest.raises(ConvergenceError, match="exceed max_terms="):
            call()
    star_sum(Index((1,) * 10), 999, ctx)
    strict_sum(Index((1,) * 10), 1000, ctx)
    pochhammer(2, 1000, ctx)
    # a sum on the tail route loops to M0 only, at any m
    assert star_sum(Index((2, 2)), 10 ** 9, ctx) < star_sum(Index((2, 2)), 10 ** 10, ctx)
    assert star_sum(Index((2, 1)), 10 ** 9, ctx) < star_sum(Index((2, 1)), 10 ** 10, ctx)


def test_a_deep_sum_at_a_billion_terms_returns_at_once():
    # one kernel call over every term would take minutes; the
    # subprocess makes a regression fail by its timeout instead of hanging;
    # each sum falls short of its series by about its head's value over m
    code = textwrap.dedent("""
        from mzsv import Index, PrecisionContext, mzsv, mzv, star_sum, strict_sum
        ctx = PrecisionContext(30)
        for finite, series, parts in ((star_sum, mzsv, (2, 3, 2, 4, 2)),
                                      (strict_sum, mzv, (5, 2, 2, 3, 2))):
            gap = series(Index(parts), ctx).value - finite(Index(parts), 10 ** 9, ctx)
            assert 0 < gap < 2e-9, (parts, gap)
        print("ok")
    """)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


@pytest.mark.parametrize("m, r, heads", [
    (5, 0, 0), (5, 1, 1), (5, 3, 4), (8, 8, 2 ** 7), (1, 3, 3), (2, 3, 4), (0, 3, 0)])
def test_dr_ratio_forms_sum_each_longest_head_once(monkeypatch, m, r, heads):
    # the second form needs S_m(head) for every head k_1..k_i summing to at
    # most r, i <= min(m, r); one kernel call on each longest head (summing
    # to r, or of min(m, r) parts) gives every shorter head as a prefix
    prefixes = mzsv.finite_sums._chain_prefixes
    calls = []

    def counting(parts, m, strict, S):
        calls.append((parts, strict))
        return prefixes(parts, m, strict, S)

    monkeypatch.setattr(mzsv.finite_sums, "_chain_prefixes", counting)
    a, b = dr_ratio_at1_forms(m, r)
    assert a == b
    # two for the first form, on 1^r strict and weak, then one per head
    assert len(calls) == 2 + heads
    assert len(set(calls[2:])) == heads


def test_strict_ones_is_harmonic(ctx30):
    mp = ctx30.mp
    for m in (1, 10, 100, 1000):
        h = sum(mp.mpf(1) / j for j in range(1, m + 1))
        assert abs(strict_sum(Index((1,)), m, ctx30).mpf - h) < 10 ** -(ctx30.working_digits - 4)


def test_star_monotone_strict_zero_below_depth(ctx30):
    ix = Index((1, 2))
    prev = None
    for m in range(0, 8):
        cur = star_sum(ix, m, ctx30).mpf
        if prev is not None:
            assert cur >= prev
        prev = cur
    assert strict_sum(Index((1, 1, 1)), 2, ctx30) == 0


def test_star_strict_single_part_boundary(ctx30):
    # S*_m(k) - S_m(k) = 1/(m+1)^k
    for k in (1, 2, 3):
        for m in (0, 1, 5, 50, 100):
            ix = Index((k,))
            gap = (star_sum(ix, m, ctx30) - strict_sum(ix, m, ctx30)).mpf
            assert abs(gap - ctx30.mp.mpf(m + 1) ** -k) < 10 ** -(ctx30.working_digits - 6)


def test_d1_pochhammer_values(ctx30):
    assert d1_pochhammer_at1(0, ctx30) == 0
    assert d1_pochhammer_at1(1, ctx30) == 1
    assert d1_pochhammer_at1(2, ctx30) == 3


def test_d1_inv_pochhammer2a_values(ctx30):
    assert d1_inv_pochhammer2a_at1(0, ctx30) == 0
    assert abs((d1_inv_pochhammer2a_at1(1, ctx30)
                - ctx30.real(Fraction(-1, 2))).mpf) < ctx30.tol
    assert abs((d1_inv_pochhammer2a_at1(2, ctx30)
                - ctx30.real(Fraction(-5, 18))).mpf) < ctx30.tol


def test_dr_inv_pochhammer_values(ctx30):
    assert dr_inv_pochhammer_2minus_at1_exact(3, 0) == Fraction(1, 24)
    assert dr_inv_pochhammer_2minus_at1_exact(2, 1) == Fraction(11, 36)
    # 1/(2-a) = sum (a-1)^j: every scaled derivative at 1 equals 1
    assert dr_inv_pochhammer_2minus_at1_exact(0, 2) == 1
    assert dr_inv_pochhammer_2minus_at1(2, 1, ctx30).decimal(10).startswith("0.30555555")


def test_dr_ratio_values(ctx30):
    a, b = dr_ratio_at1_forms(4, 0)
    assert a == b == Fraction(1, 5)
    a, b = dr_ratio_at1_forms(1, 1)
    assert a == b == Fraction(5, 4)
    a, b = dr_ratio_at1_forms(0, 2)
    assert a == b == 1
    assert abs((dr_ratio_at1(1, 1, ctx30) - ctx30.real(Fraction(5, 4))).mpf) < ctx30.tol


def test_dr_ratio_both_routes_agree_broadly():
    for m in range(0, 16):
        for r in range(0, 6):
            a, b = dr_ratio_at1_forms(m, r)
            ones_s, ones_t = _ones_strict(m, r), _ones_star(m, r)
            want = sum(ones_s[r - i] * ones_t[i] for i in range(r + 1)) / (m + 1)
            assert a == b == want, (m, r)


def _dr_ratio_forms_by_fractions(m, r):
    """Both forms of dr_ratio_at1_forms summed term by term in Fractions,
    each sum over a composition from strict_sum_exact: the route it took
    before it summed in integers at one scale."""
    ones_s = _exact_prefixes((1,) * r, m, strict=True)
    ones_t = _exact_prefixes((1,) * r, m, strict=False)
    form_a = sum((ones_s[r - i] * ones_t[i] for i in range(r + 1)),
                 Fraction(0)) / (m + 1)
    form_b = Fraction(0)
    for i in range(min(m, r) + 1):
        inner = Fraction(0)
        for comp in compositions(r + 1, i + 1):
            head = strict_sum_exact(Index(comp[:i]) if i else None, m)
            inner += head / Fraction(m + 1) ** comp[i]
        form_b += 2 ** i * inner
    return form_a, form_b


def test_dr_ratio_forms_match_the_fraction_route():
    for m in range(16):
        for r in range(9):
            got = dr_ratio_at1_forms(m, r)
            assert got == _dr_ratio_forms_by_fractions(m, r), (m, r)
            assert got[0] == got[1]


def _inv_pochhammer_2minus(x, m):
    prod = x.ctx.one()
    for j in range(m + 1):
        prod = prod * (2 - x + j)
    return 1 / prod


def _ratio_fn(x, m):
    num = x.ctx.one()
    for j in range(m):
        num = num * (x + j)
    return num * _inv_pochhammer_2minus(x, m)


@pytest.mark.parametrize("m", [0, 2, 7, 12, 20])
@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_closed_forms_match_derivative_oracle(ctx50, m, r):
    # relative error <= 10^-(digits-10) at 50 digits
    bound = ctx50.mp.mpf(10) ** (-(ctx50.digits - 10))
    fact_r = math.factorial(r)

    d_inv = derivative_at(lambda x: _inv_pochhammer_2minus(x, m), 1, r, ctx50)
    want_inv = ctx50.real(dr_inv_pochhammer_2minus_at1_exact(m, r) * fact_r)
    assert abs((d_inv - want_inv).mpf) <= bound * max(1, abs(want_inv.mpf))

    d_ratio = derivative_at(lambda x: _ratio_fn(x, m), 1, r, ctx50)
    want_ratio = ctx50.real(dr_ratio_at1_forms(m, r)[0] * fact_r)
    assert abs((d_ratio - want_ratio).mpf) <= bound * max(1, abs(want_ratio.mpf))


@pytest.mark.parametrize("digits", [30, 100, 200])
def test_harmonic_number_is_mpmaths_floor_at_the_scale(digits):
    # H_end from the package's own Euler-Maclaurin series, at every bound
    # the tail route takes (end > M0), is the integer that mpmath's
    # harmonic number, rounded at 8 bits beyond S's bits + 32, floors to
    from mpmath.libmp import from_int, mpf_harmonic, round_nearest, to_fixed
    ctx = PrecisionContext(digits)
    S = 10 ** (ctx.working_digits + mzsv.chains.SCALE_PAD)
    bits = S.bit_length() + 32
    m0 = mzsv.chains.first_checkpoint(ctx, False)
    rng = random.Random(digits)
    ends = [m0 + 1] + [rng.choice((rng.randint(m0 + 1, 4 * m0), rng.randint(m0 + 1, 10 ** 7),
                                   rng.randint(10 ** 7, 10 ** 15))) for _ in range(150)]
    for end in ends:
        want = to_fixed(mpf_harmonic(from_int(end), bits + 8, round_nearest), bits) * S >> bits
        assert _harmonic(end, S) == want, end
