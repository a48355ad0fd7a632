from fractions import Fraction
from math import ceil, log

import pytest

from mzsv import (ConvergenceError, DomainError, Index, PrecisionContext, admissible,
                  alt_mzsv, coarsenings, eta_shifted, mzsv, mzv, verify,
                  weighted_product_series, zeta)
from mzsv.chains import (ChainEvaluator, Level, Ratio, WeightedChainEvaluator,
                         _run_evaluator, first_checkpoint, index_levels)
from mzsv.series import exact_diag, weighted_product_series_ex


def test_zeta_classical_values(ctx30):
    assert zeta(2, ctx30).decimal().startswith("1.6449340668482264364724151666")
    assert zeta(4, ctx30).decimal().startswith("1.0823232337111381915160036965")
    assert zeta(3, ctx30).decimal().startswith("1.2020569031595942853997381615")
    with pytest.raises(DomainError):
        zeta(1, ctx30)


def test_a_repeated_zeta_is_one_lookup(monkeypatch):
    # kept on the context as a raw mpf per argument: an int and the string
    # of the same value share one entry, and an error is never kept
    from mzsv import series
    calls = []
    tail = series.power_sum_tail
    monkeypatch.setattr(series, "power_sum_tail", lambda *a: calls.append(a) or tail(*a))
    ctx = PrecisionContext(30)
    first = zeta(3, ctx).mpf
    assert zeta(3, ctx).mpf is first and zeta("3", ctx).mpf is first
    assert zeta("2.5", ctx).mpf is zeta(Fraction(5, 2), ctx).mpf
    assert len(calls) == 2
    for _ in range(2):
        with pytest.raises(DomainError):
            zeta(1, ctx)
    assert list(ctx.scalars.values()) == [first, zeta("2.5", ctx).mpf]
    assert first == zeta(3, PrecisionContext(30)).mpf


def test_zeta_real_argument(ctx30):
    # cross-checked against the library's analytic continuation
    ref = ctx30.mp.zeta(ctx30.mp.mpf("2.5"))
    assert abs(zeta("2.5", ctx30).mpf - ref) < 100 * ctx30.tol


def test_zeta_meets_working_precision():
    # the sides built on zeta claim exact_diag's floor, so even at a loose
    # tol its tail must be summed to the working digits; against mpmath at
    # twice the digits, at k as the context rounds it, relative to the
    # tail zeta(k) - 1 where that exceeds 1 (k = 1.0001)
    for digits in (30, 100, 200):
        ctx = PrecisionContext(digits, tol="1e-9")
        ref_mp = ctx.mp.clone()
        ref_mp.dps = 2 * ctx.working_digits
        floor = ref_mp.mpf(10) ** -ctx.working_digits
        for k in (2, 3, 10, 12, "2.5", "1.0001", 10 ** 5):
            ref = ref_mp.zeta(ref_mp.mpf(ctx.real(k).mpf))
            assert abs(zeta(k, ctx).mpf - ref) <= floor * max(1, ref - 1), (digits, k)
        res = verify("a2_cyclic", {"s": 5}, ctx)
        assert res.abs_diff.mpf <= ctx.mp.mpf(10) ** -digits


def test_eta_shifted_values(ctx30):
    mp = ctx30.mp
    assert abs(eta_shifted(1, ctx30).mpf - mp.ln(2)) < ctx30.tol
    assert abs(eta_shifted(2, ctx30).mpf - mp.pi ** 2 / 12) < ctx30.tol
    # (1 - 2^-2) zeta(3) = (3/4) zeta(3)
    assert eta_shifted(3, ctx30).decimal().startswith("0.90154267736969571404980362113")


def test_eta_zeta_relation(ctx30):
    mp = ctx30.mp
    for k in range(2, 9):
        lhs = eta_shifted(k, ctx30).mpf
        rhs = (1 - mp.mpf(2) ** (1 - k)) * zeta(k, ctx30).mpf
        assert abs(lhs - rhs) <= ctx30.tol


def test_mzv_values(ctx30):
    assert abs(mzv(Index((2,)), ctx30).value.mpf - zeta(2, ctx30).mpf) < 10 * ctx30.tol
    assert abs(mzv(Index((1, 2)), ctx30).value.mpf - zeta(3, ctx30).mpf) < 10 * ctx30.tol
    assert abs(mzv(Index((1, 3)), ctx30).value.mpf
               - zeta(4, ctx30).mpf / 4) < 10 * ctx30.tol


def test_mzsv_values(ctx30):
    assert abs(mzsv(Index((2,)), ctx30).value.mpf - zeta(2, ctx30).mpf) < 10 * ctx30.tol
    assert mzsv(Index((1, 2)), ctx30).value.decimal().startswith(
        "2.4041138063191885707994763230")
    assert mzsv(Index((2, 2)), ctx30).value.decimal().startswith(
        "1.8940656589944918351530064689")


def test_alt_mzsv_values(ctx30):
    mp = ctx30.mp
    assert abs(alt_mzsv(Index((1,)), ctx30).value.mpf - mp.ln(2)) < 10 * ctx30.tol
    assert abs(alt_mzsv(Index((2,)), ctx30).value.mpf - mp.pi ** 2 / 12) < 10 * ctx30.tol
    # zeta-star(2^s) = 2 * alternating value at the single index (2s)
    for s in (1, 2):
        lhs = 2 * alt_mzsv(Index((2 * s,)), ctx30).value.mpf
        rhs = mzsv(Index((2,) * s), ctx30).value.mpf
        assert abs(lhs - rhs) < 10 * ctx30.tol


def test_inadmissible_index_rejected(ctx30):
    with pytest.raises(DomainError):
        mzv(Index((2, 1)), ctx30)
    with pytest.raises(DomainError):
        mzsv(Index((2, 1)), ctx30)


def _brute_partial(ctx, parts, m_cap, strict):
    """Independent prefix-array summation truncated at m <= m_cap."""
    mp = ctx.mp
    cur = [mp.mpf(1)] * (m_cap + 1)  # level 0: constant 1 over m = 0..cap
    for k in parts:
        nxt = [mp.mpf(0)] * (m_cap + 1)
        for m in range(1, m_cap + 1):
            prev = cur[m - 1] if strict else cur[m]
            nxt[m] = nxt[m - 1] + prev * mp.mpf(m) ** -k
        cur = nxt
    return cur[m_cap]


def _tail_bound(ctx, parts, m_cap):
    """Rigorous overestimate of the truncated remainder.

    The inner prefix sums are bounded by (1+ln(m+1))^(#ones) * 2^(#others);
    the remaining outer sum is dominated by the decreasing integrand
    (1.1+ln x)^d x^-k integrated from m_cap (closed form by parts).
    """
    mp = ctx.mp
    k = parts[-1]
    d = len(parts) - 1
    L = mp.mpf("1.1") + mp.ln(m_cap)
    poly = sum(L ** (d - i) * _falling(d, i) / mp.mpf(k - 1) ** (i + 1)
               for i in range(d + 1))
    return 2 ** (d + 1) * poly * mp.mpf(m_cap) ** (1 - k)


def _falling(d, i):
    out = 1
    for j in range(i):
        out *= d - j
    return out


def _admissible_small(max_weight, max_depth):
    out = []

    def rec(prefix, total):
        if prefix and prefix[-1] >= 2:
            out.append(tuple(prefix))
        if len(prefix) >= max_depth:
            return
        for nxt in range(1, max_weight - total + 1):
            rec(prefix + [nxt], total + nxt)

    rec([], 0)
    return out


def test_brute_force_oracle_equivalence(ctx30):
    cap = 2000
    for parts in _admissible_small(5, 3):
        bound = _tail_bound(ctx30, parts, cap)
        assert bound < ctx30.mp.mpf("0.5")  # coarse but non-vacuous
        for fn, strict in ((mzv, True), (mzsv, False)):
            val = fn(Index(parts), ctx30).value.mpf
            ref = _brute_partial(ctx30, parts, cap, strict)
            assert abs(val - ref) <= bound, (parts, strict)
            # the partial must sit below the full sum (positive terms)
            assert ref < val


def test_star_equals_sum_of_strict_over_coarsenings(ctx30):
    # weight <= 6 here; the acceptance suite runs weight <= 7
    for parts in _admissible_small(6, 6):
        ix = Index(parts)
        total = ctx30.zero()
        for c in coarsenings(ix):
            total = total + mzv(c, ctx30).value
        star = mzsv(ix, ctx30).value
        assert abs((star - total).mpf) <= 10 * ctx30.tol * len(coarsenings(ix)), parts


def test_weighted_product_series_examples(ctx30):
    mp = ctx30.mp
    # r=0, s=2, plain: 2 zeta(3) = zeta-star(1,2)
    v = weighted_product_series(0, 2, False, ctx30)
    assert abs(v.mpf - 2 * zeta(3, ctx30).mpf) < 10 * ctx30.tol
    # r=0, s=1, alternating: 2 eta(2) = zeta-star(2)
    v = weighted_product_series(0, 1, True, ctx30)
    assert abs(v.mpf - mp.pi ** 2 / 6) < 10 * ctx30.tol
    # r=1, s=1, alternating: 4 alt(1,2) - 2 alt(3) and also zeta-star(3)
    v = weighted_product_series(1, 1, True, ctx30)
    combo = (4 * alt_mzsv(Index((1, 2)), ctx30).value.mpf
             - 2 * alt_mzsv(Index((3,)), ctx30).value.mpf)
    assert abs(v.mpf - combo) < 10 * ctx30.tol
    assert abs(v.mpf - zeta(3, ctx30).mpf) < 10 * ctx30.tol


def test_weighted_preconditions(ctx30):
    with pytest.raises(DomainError):
        weighted_product_series(0, 1, False, ctx30)
    with pytest.raises(DomainError):
        weighted_product_series(-1, 2, False, ctx30)
    with pytest.raises(DomainError):
        weighted_product_series(0, 0, True, ctx30)


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("s", [2, 3])
def test_weighted_matches_star_value(ctx30, r, s):
    tol = ctx30.mp.mpf("1e-11")
    v = weighted_product_series_ex(r, s, False, ctx30, tol=tol)
    star = mzsv(Index((1,) * (r + 1) + (2,) * (s - 1)), ctx30)
    budget = 10 * (v.diagnostics.error_estimate.mpf
                   + star.diagnostics.error_estimate.mpf) + tol
    assert abs(v.value.mpf - star.value.mpf) <= budget


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("s", [1, 2])
def test_weighted_alternating_matches_star_value(ctx30, r, s):
    tol = ctx30.mp.mpf("1e-13")
    v = weighted_product_series_ex(r, s, True, ctx30, tol=tol)
    star = mzsv(Index((r + 2,) + (2,) * (s - 1)), ctx30)
    budget = 10 * (v.diagnostics.error_estimate.mpf
                   + star.diagnostics.error_estimate.mpf) + tol
    assert abs(v.value.mpf - star.value.mpf) <= budget


@pytest.mark.parametrize("s", [2, 3])
def test_weighted_tail_is_exact(ctx30, s):
    # the tail of the plain harmonic-product series is an exact split, so
    # the corrected value must not depend on where the kernel stopped
    mp = ctx30.mp
    for r in range(6):
        ev = WeightedChainEvaluator(ctx30, r, 2 * s - 1, False)
        values = []
        for M in (first_checkpoint(ctx30, False), 500, 1000, 2000):
            ev.advance_to(M + 1)
            values.append(mp.mpf(ev.acc + ev.tail_correction(M)) / ev.S)
        assert max(values) - min(values) <= mp.mpf(10) ** -ctx30.working_digits, r


@pytest.mark.parametrize("parts, strict", [
    ((2,), False), ((1, 2), False), ((2, 2, 2), False), ((3, 1, 2), False),
    ((1, 1, 2), False), ((1, 2), True), ((2, 1, 3), True)])
def test_power_chain_tail_is_checkpoint_independent(ctx30, parts, strict):
    # every power level 1/(t+1)^k has an exact one-term tail series, so the
    # corrected value must not depend on where the kernel stopped, at 30
    # digits and at 100
    for ctx in (ctx30, PrecisionContext(100)):
        mp = ctx.mp
        ev = ChainEvaluator(ctx, index_levels(parts), strict=strict)
        values = []
        for M in (first_checkpoint(ctx, False), 500, 1000, 2000):
            ev.advance_to(M)
            values.append(mp.mpf(ev.acc + ev.tail_correction(M - 1)) / ev.S)
        assert max(values) - min(values) <= mp.mpf(10) ** -ctx.working_digits, ctx.digits


def test_diagnostics_error_estimate_bounds_doubling_deviation(ctx30):
    # re-evaluate each chain beyond its stopping point; the reported
    # estimate must cover the observed shift
    for parts in ((2,), (1, 2), (2, 2), (1, 1, 2)):
        ev = mzsv(Index(parts), ctx30)
        chain = ChainEvaluator(ctx30, index_levels(parts))
        m2 = 2 * ev.diagnostics.terms_used
        chain.advance_to(m2)
        refined = ctx30.mp.mpf(chain.acc + chain.tail_correction(m2 - 1)) / chain.S
        assert abs(refined - ev.value.mpf) <= ev.diagnostics.error_estimate.mpf + \
            ctx30.mp.mpf(10) ** (-(ctx30.working_digits + 2))


def test_evaluation_strategy_labels(ctx30):
    assert mzsv(Index((2,)), ctx30).diagnostics.strategy == "tail_corrected"
    assert alt_mzsv(Index((2,)), ctx30).diagnostics.strategy == "tail_corrected"


class _StubEvaluator:
    """An evaluator whose n-th checkpoint reads value(n), scaled by
    S = 10^45, with no tail; it records every M the run loop advances to."""

    S = 10 ** 45
    alternating = False
    memo_key = "stub"

    def __init__(self, ctx, value):
        self.ctx = ctx
        self.value = value
        self.calls = []
        self.start = first_checkpoint(ctx, self.alternating)

    def advance_to(self, M):
        self.calls.append(M)
        self.acc = int(self.value(len(self.calls)) * self.S)

    def tail_correction(self, mc):
        return 0


def test_driver_plateau_raises_at_third_checkpoint():
    # the step difference stays at 2e-3, far above tol: the driver must give
    # up at the first comparison that shows no shrinking, not double M on
    # to max_terms. The short first step M0 -> M1 = M0 + ceil(M0/8) scales
    # its difference by M0/(M1 - M0) = 8, so the first doubling still
    # looks like progress and the plateau shows at the second
    ctx = PrecisionContext(30)
    ev = _StubEvaluator(ctx, lambda n: (-1) ** n / 1000)
    with pytest.raises(ConvergenceError, match="plateaued"):
        _run_evaluator(ev, "1e-20", True, "stub")
    M0 = first_checkpoint(ctx, False)
    M1 = M0 + ceil(M0 / 8)
    assert ev.calls == [M0, M1, 2 * M1, 4 * M1]


class _ModelStub(_StubEvaluator):
    """A stub whose checkpoint M reads value(M)."""

    def advance_to(self, M):
        self.calls.append(M)
        self.acc = int(self.value(M) * self.S)


def _run_model(err, tol):
    """Run the loop on a series of limit 0 whose checkpoint M is err(M);
    returns (estimate, |E - 0|, the previous checkpoint, the returned M)."""
    ctx = PrecisionContext(30)
    ev = _ModelStub(ctx, lambda M: err(ctx.mp, M))
    E, info = _run_evaluator(ev, tol, True, "stub")
    assert info["terms"] == ev.calls[-1]
    return info["estimate"], abs(E), ev.calls[-2], ev.calls[-1]


@pytest.mark.parametrize("tol", ["1e-19", "1e-22"])
@pytest.mark.parametrize("j", [1, 2, 28])
def test_scaled_step_difference_bounds_power_model_error(j, tol):
    # a truncation error c*M^-j with j >= 1: over a step Mp -> M = x*Mp the
    # difference, scaled by Mp/(M - Mp), is (x^j - 1)/(x - 1) >= j times the
    # error at M, wherever the run stops: 8((9/8)^j - 1) at the short first
    # step, 2^j - 1 at a doubling. j = 1 is tight (ratio 1), so the check
    # allows the rounding floor 10^-40 of 30 digits; the ratio is only as
    # exact as the stub's values, which carry 45 digits after the point
    M0 = first_checkpoint(PrecisionContext(30), False)
    est, err, Mp, M = _run_model(
        lambda mp, M: mp.mpf(10) ** -18 * (mp.mpf(M0) / M) ** j, tol)
    assert err <= est + 1e-40
    x = Fraction(M, Mp)
    ratio = float(est / err)
    assert ratio == pytest.approx(float((x ** j - 1) / (x - 1)), rel=1e-6)


@pytest.mark.parametrize("tol", ["1e-19", "1e-22"])
def test_scaled_step_difference_on_a_log_model(tol):
    # the error log(M)/M of a run without tail corrections decays slower
    # than M^-1, so no difference of two checkpoints that assumes j >= 1
    # bounds it: the scaled estimate reads 1 - x log(x)/((x-1) log M) of
    # the error at M = x*Mp, a shortfall of 1.06/log M at the short first
    # step and 2 log(2)/log M at a doubling, as under a doubling from M0
    est, err, Mp, M = _run_model(lambda mp, M: mp.log(M) / M / 10 ** 18, tol)
    x = M / Mp
    ratio = float(est / err)
    assert ratio == pytest.approx(1 - x * log(x) / ((x - 1) * log(M)), rel=1e-9)
    assert 0.75 < ratio < 1


def test_tol_below_rounding_floor_raises_at_first_checkpoint(ctx30):
    # no truncation can beat the rounding floor 10^-digits * max(1, |E|):
    # the driver must say so at once, not report a plateau
    mp = ctx30.mp
    ev = _StubEvaluator(PrecisionContext(30), lambda n: 3)
    with pytest.raises(DomainError, match="rounding floor"):
        _run_evaluator(ev, "5e-40", True, "stub")   # floor 3e-40 at 40 digits
    assert ev.calls == [first_checkpoint(ctx30, False)]
    below_floor = mp.mpf(10) ** -(ctx30.working_digits + 1)
    with pytest.raises(DomainError, match="rounding floor"):
        mzsv(Index((2,)), ctx30, tol=below_floor)
    for s, alternating in ((2, False), (1, True)):
        with pytest.raises(DomainError, match="rounding floor"):
            weighted_product_series_ex(0, s, alternating, ctx30, tol=below_floor)


def test_large_shift_moves_the_first_checkpoint():
    # the term of 2F1(450, 1/2; 905/2; 1) expands in powers of about
    # 451/(m+1), so the run starts at twice the largest |shift - 1|, and
    # one whose first two checkpoints, 903 and 903 + 113, pass max_terms
    # raises before summing
    a = Fraction(450)
    level = Level(ratio=Ratio((a, Fraction(1, 2)), (Fraction(1), a + Fraction(5, 2)),
                              init=Fraction(1)))
    ctx = PrecisionContext(30)
    for alternating in (False, True):
        M0 = first_checkpoint(ctx, alternating)
        assert first_checkpoint(ctx, alternating, [level]) == 903 > M0
        assert first_checkpoint(ctx, alternating, index_levels((1, 2))) == M0
    ev = ChainEvaluator(PrecisionContext(30, max_terms=1000), [level])
    with pytest.raises(ConvergenceError, match="first two checkpoints"):
        ev.run("1e-20")
    assert ev.t_next == 0


@pytest.mark.parametrize("make", [
    lambda ctx: ChainEvaluator(ctx, index_levels((1, 2))),
    lambda ctx: ChainEvaluator(ctx, index_levels((2,)), alternating=True),
    lambda ctx: WeightedChainEvaluator(ctx, 2, 3, False),
    lambda ctx: WeightedChainEvaluator(ctx, 2, 2, True),
], ids=["chain", "alternating_chain", "weighted", "weighted_alternating"])
def test_run_sums_exactly_the_terms_it_reports(make):
    # one run loop serves both evaluators: checkpoint M sums the M terms
    # t = 0 .. M-1, and the reported count is that M; a fresh context, as
    # a memo hit would return without summing
    ctx = PrecisionContext(digits=30)
    ev = make(ctx)
    _, info = ev.run(ctx.mp.mpf("1e-20"))
    assert ev.t_next == info["terms"]


def test_exact_diag_reports_the_floor_kept_on_its_context():
    # a record per call, since its HPReals refer to ctx and a record kept
    # on ctx would hold ctx in a cycle; the floor it reports is built once
    ctx, other = PrecisionContext(30), PrecisionContext(30)
    diag = exact_diag(ctx)
    floor = ctx.exact_floor
    assert exact_diag(ctx) == diag and exact_diag(ctx).error_estimate.mpf is floor
    assert exact_diag(other).error_estimate.ctx is other and other.exact_floor is not floor
    assert diag.terms_used == 0 and diag.strategy == "direct"
    assert diag.tail_correction == 0 and diag.tail_correction.ctx is ctx
    assert diag.error_estimate.mpf == ctx.mp.mpf(10) ** -(ctx.working_digits - 2)
