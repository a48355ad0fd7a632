"""The chain checkpoints in integers at the evaluator's scale S.

Each evaluator's ``tail_correction`` returns the remainder as an int at S,
and ``TailCalc.eval_at`` has one finish, an int at 2**bits without the
tail's power. The mpf formulas they replaced are kept below as references.
"""

import random
from fractions import Fraction
from math import ceil, floor, prod

import pytest
from conftest import tail_value

from mzsv import PrecisionContext, hypergeom, tailcalc
from mzsv.chains import (ChainEvaluator, Level, Pow, Ratio, WeightedChainEvaluator,
                         first_checkpoint, index_levels, level_view)
from mzsv.hypergeom import KRParamsII, _kr_levels
from mzsv.tailcalc import TailCalc, TailPoly

_GAUSS = Level(ratio=Ratio((Fraction(3, 10), Fraction(2, 5)), (Fraction(1), Fraction(11, 5)),
                           init=Fraction(1)))
# two ratio levels, the outer one coupled to the inner by d = 1
_KR = KRParamsII(s=2, a=2, c0="1.3", b=(1, 1), c=(1, 1))

CHAINS = {
    "weak": (index_levels((1, 2, 2)), False, False),
    "strict": (index_levels((2, 1, 3)), True, False),
    "alternating": (index_levels((3, 1, 2)), False, True),
    # a ratio level inside two power levels: the outer ones sum in ints
    "ratio": ([_GAUSS] + index_levels((1, 2)), False, False),
    # the inner level takes the product of both pins
    "kr": (_kr_levels(_KR, PrecisionContext(30)), False, False),
}


def _mpf_chain_tail(ev, mc):
    """The chain's remainder by the mpf formula: every level scaled by the
    pinned shapes at or outside it, each shape read at mc and stepped to
    M = mc + 1 by its ratio's exact step, each factor an mpf."""
    mp = ev.ctx.mp
    calc = ev.ctx.tail_calc(ev.alternating)
    ratio_index = ev._kernel_args[1]
    n = len(ev.levels)
    scale = mp.mpf(1)
    corr = mp.mpf(0)
    for j, (shape, T, _) in enumerate(ev._tails):
        i = n - 1 - j
        if shape is not None:
            ratio = ev.levels[i].ratio
            step = (prod(mc + s for s in ratio.num_shifts)
                    / prod(mc + s for s in ratio.den_shifts))
            w_next = mp.mpf(ev.rvals[ratio_index[i]]) / ev.S
            scale *= w_next / (tail_value(mp, calc, shape, mc)
                               * step.numerator / step.denominator)
        corr += scale * (mp.mpf(ev.pvals[i]) / ev.S) * tail_value(mp, calc, T, mc)
    return -corr if ev.alternating and mc % 2 else corr


def _mpf_weighted_tail(ev, mc):
    mp = ev.ctx.mp
    calc = ev.ctx.tail_calc(ev.alternating)
    S, r, sv, tv = ev.S, ev.r, ev.svals, ev.tvals
    corr = mp.mpf(0)
    for a in range(r + 1):
        A = mp.mpf(sum(sv[a - i] * tv[i] for i in range(a + 1))) / (S * S)
        corr += A * tail_value(mp, calc, ev._tails[r - a], mc + 1)
    return -corr if ev.alternating and mc % 2 else corr


def _check_against_mpf(ev, reference):
    # an odd and an even mc, at the first checkpoint and a later one
    mp = ev.ctx.mp
    floor = mp.mpf(10) ** -ev.ctx.working_digits
    for M in (ev.start, 2 * ev.start + 1):
        ev.advance_to(M)
        got = ev.tail_correction(M - 1)
        assert isinstance(got, int)
        want = reference(ev, M - 1)
        assert want != 0
        assert abs(mp.mpf(got) / ev.S - want) <= floor * max(1, abs(want)), M


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("name", sorted(CHAINS))
def test_chain_tail_matches_the_mpf_formula(digits, name):
    levels, strict, alternating = CHAINS[name]
    ev = ChainEvaluator(PrecisionContext(digits), levels, strict, alternating)
    _check_against_mpf(ev, _mpf_chain_tail)


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("r", range(5))
@pytest.mark.parametrize("p, alternating", [(3, False), (2, True)],
                         ids=["plain", "alternating"])
def test_harmonic_product_tail_matches_the_mpf_formula(digits, r, p, alternating):
    ev = WeightedChainEvaluator(PrecisionContext(digits), r, p, alternating)
    _check_against_mpf(ev, _mpf_weighted_tail)


class _NoMpf:
    """Stands in for a context's mpmath context: any use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"mpf work: mp.{name}")


def _side_evaluator(side):
    """The ChainEvaluator that a hypergeom side builds, not run."""
    made = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hypergeom, "run_evaluation", lambda ev, *args: made.append(ev))
        side()
    return made[0]


@pytest.mark.parametrize("make", [
    lambda ctx: ChainEvaluator(ctx, index_levels((1, 2, 2))),
    lambda ctx: ChainEvaluator(ctx, index_levels((2, 1, 3)), strict=True),
    lambda ctx: ChainEvaluator(ctx, index_levels((3, 1, 2)), alternating=True),
    lambda ctx: ChainEvaluator(ctx, [Level(pows=(Pow(2, Fraction(3, 5)),))]),
    lambda ctx: WeightedChainEvaluator(ctx, 3, 3, False),
    lambda ctx: WeightedChainEvaluator(ctx, 3, 2, True),
    lambda ctx: _side_evaluator(lambda: hypergeom.pfq_ex(["0.3", "0.4"], ["2.2"], 1, ctx)),
    lambda ctx: _side_evaluator(lambda: hypergeom.pfq_ex(["0.3", "0.4"], ["2.2"], -1, ctx)),
    lambda ctx: _side_evaluator(lambda: hypergeom.kr_rhs_ii(_KR, ctx)),
    lambda ctx: _side_evaluator(lambda: hypergeom.specialized_rhs("a1", "0.6", 3, ctx)),
], ids=["weak", "strict", "alternating", "shifted", "weighted", "weighted_alternating",
        "2f1_plus", "2f1_minus", "kr_coupled", "a1_rhs"])
def test_power_and_harmonic_checkpoints_make_no_mpf(monkeypatch, make):
    # once the tail series are built, a checkpoint of any chain, ratio
    # levels and their pins included, or of the harmonic-product series is
    # integer work throughout
    ctx = PrecisionContext(30)
    ev = make(ctx)
    ev.advance_to(ev.start)
    ev.tail_correction(ev.start - 1)     # builds the tails
    monkeypatch.setattr(ctx, "_mp", _NoMpf())
    for M in (ev.start + 13, 2 * ev.start):
        ev.advance_to(M)
        assert isinstance(ev.tail_correction(M - 1), int)


@pytest.mark.parametrize("digits", [30, 100])
def test_ratio_chain_tail_matches_twice_the_digits(digits):
    # the two-ratio KR chain's tail at its checkpoint 2 M0 + 1, against
    # the same tail at twice the digits: each pin and tail is read at
    # 2**bits, GUARD_BITS past the working precision, so the tail keeps
    # the working digits with room to spare
    ctx = PrecisionContext(digits)
    levels = _kr_levels(_KR, ctx)
    ev = ChainEvaluator(ctx, levels)
    ref = ChainEvaluator(PrecisionContext(2 * digits), levels)
    M = 2 * ev.start + 1
    ev.advance_to(M)
    ref.advance_to(M)
    err = abs(Fraction(ev.tail_correction(M - 1), ev.S)
              - Fraction(ref.tail_correction(M - 1), ref.S))
    assert err * 10 ** ctx.working_digits <= Fraction(1, 10 ** 5), float(err)


# -- the one finish of eval_at -----------------------------------------------------

def _random_fixed_poly(calc, rng, rho, keys):
    return TailPoly(Fraction(rho), {q: rng.randrange(-1 << calc.bits, 1 << calc.bits)
                                    for q in keys})


def _exact_finish(calc, f, m):
    """f(m) (m+1)**rho at scale 2**bits, an exact Fraction."""
    n = m + 1
    return sum(Fraction(c << q * calc.d, n ** q) if q >= 0
               else Fraction(c * n ** -q, 1 << -q * calc.d)
               for q, c in f.coeffs.items())


@pytest.mark.parametrize("digits", [30, 100, 200])
@pytest.mark.parametrize("alternating", [False, True], ids=["plain", "boole"])
def test_fixed_finish_matches_the_mpf_finish(digits, alternating):
    # the int eval_at returns against the exact value of the poly without
    # its power: each Horner step floors once at the running key's scale,
    # a unit of which is worth at most one unit of the lowest key's, and
    # the finish floors once more, a unit of the lowest key being worth
    # max(1, ((m+1) / 2**d)**-lowest) units of 2**bits; at the least
    # admitted point m + 1 = 2**d and at two later ones, for lowest powers
    # e = rho + (lowest key) above, at and below zero. A single key takes
    # no Horner floor, so its finish is the exact value rounded down
    ctx = PrecisionContext(digits)
    calc = TailCalc(ctx.mp, alternating)
    rng = random.Random(digits)
    cases = [
        (3, range(-1, calc.qmax + 1)),          # e = 2, as sumtail leaves it
        (2, (-2, 0, 1, 5, calc.qmax)),          # e = 0, sparse keys
        (1, (-3, -1, 2)),                       # e = -2
        (0, (-1, 0, 3)),                        # e = -1
    ]
    for rho, keys in cases:
        for m in (2 ** calc.d - 1, 4 * calc.m0 - 1, 10 ** 6):
            f = _random_fixed_poly(calc, rng, rho, keys)
            got = calc.eval_at(f, m)
            assert isinstance(got, int)
            lo = min(keys)
            unit = max(1, Fraction(m + 1, 1 << calc.d) ** -lo)
            assert 0 <= _exact_finish(calc, f, m) - got < (len(keys) - 1) * unit + 1, \
                (rho, keys, m)
            assert calc.eval_at(f, m) is got   # kept on f
            single = TailPoly(f.rho, {lo: f.coeffs[lo]})
            assert calc.eval_at(single, m) == floor(_exact_finish(calc, single, m))


def test_fixed_finish_of_a_fractional_power_is_the_mpf_rounded_down():
    # a fractional rho leaves the finish as it is, with no root or mpf: the
    # int is the one the same coefficients give at rho = 0, the exact value
    # without its power rounded down, within one unit per Horner floor
    ctx = PrecisionContext(30)
    calc = ctx.tail_calc(False)
    f = _random_fixed_poly(calc, random.Random(7), "7/3", range(0, 6))
    m = calc.m0 - 1
    got = calc.eval_at(f, m)
    assert got == calc.eval_at(TailPoly(Fraction(0), f.coeffs), m)
    assert 0 <= _exact_finish(calc, f, m) - got < len(f.coeffs)


# -- set-up from the kernel's integers ---------------------------------------------

def _fraction_reach(levels):
    """ceil(2 max |c - 1|) over the exact Fraction shifts c, or 0."""
    shifts = [p.shift for lvl in levels for p in lvl.pows]
    shifts += [c for lvl in levels if lvl.ratio is not None
               for c in lvl.ratio.num_shifts + lvl.ratio.den_shifts]
    return ceil(2 * max((abs(c - 1) for c in shifts), default=0))


def _fraction_first_checkpoint(ctx, alternating, levels):
    """first_checkpoint by its definition, from the exact Fraction shifts."""
    return max(ctx.tail_calc(alternating).m0, _fraction_reach(levels))


def test_first_checkpoint_from_integer_shifts_matches_its_definition():
    ctx = PrecisionContext(30)
    rng = random.Random(11)

    def shift():
        return Fraction(rng.randrange(-900, 900), rng.choice((1, 2, 3, 7, 10)))

    for _ in range(200):
        levels = []
        for _ in range(rng.randrange(1, 4)):
            pows = tuple(Pow(rng.randrange(1, 4), shift()) for _ in range(rng.randrange(3)))
            ratio = None
            if rng.random() < 0.5:
                k = rng.randrange(3)
                ratio = Ratio(tuple(shift() for _ in range(k)),
                              tuple(shift() for _ in range(k)), Fraction(1))
            levels.append(Level(pows=pows, ratio=ratio))
        for alternating in (False, True):
            want = _fraction_first_checkpoint(ctx, alternating, levels)
            assert first_checkpoint(ctx, alternating, map(level_view, levels)) == want
            assert ChainEvaluator(ctx, levels, alternating=alternating).start == want
        # each level's kept reach, fractional pieces and ratio factors alike;
        # an equal level built anew reads the same kept view
        for lvl in levels:
            view = level_view(lvl)
            assert view[4] == _fraction_reach([lvl])
            assert level_view(Level(tuple(lvl.pows), lvl.ratio)) is view


def test_ratio_weights_round_at_s_as_fractions_do():
    # rvals rounds each exact init at S in ints, ties to even
    ctx = PrecisionContext(30)
    S = ChainEvaluator(ctx, index_levels((2,))).S
    rng = random.Random(5)
    inits = [Fraction(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 10 ** 9))
             for _ in range(300)]
    inits += [Fraction(2 * j + 1, 2 * S) for j in range(-3, 3)]     # exact ties
    for init in inits:
        ratio = Ratio((Fraction(1, 2),), (Fraction(5, 2),), init)
        assert ChainEvaluator(ctx, [Level(ratio=ratio)]).rvals == [round(init * S)]


def test_memo_key_is_the_kernel_view_and_the_exact_inits():
    ctx = PrecisionContext(30)
    half = Fraction(1, 2)
    ratio = Ratio((half,), (Fraction(5, 2),), init=Fraction(1))
    key = ChainEvaluator(ctx, [Level(ratio=ratio)]).memo_key
    # the same chain from other objects; an int shift is its Fraction
    same = Ratio((Fraction(2, 4),), (Fraction(5, 2),), init=Fraction(3, 3))
    assert ChainEvaluator(ctx, [Level(ratio=same)]).memo_key == key
    assert (ChainEvaluator(ctx, [Level(pows=(Pow(2, 1),))]).memo_key
            == ChainEvaluator(ctx, index_levels((2,))).memo_key)
    # another initial weight, even one that rounds alike at S, is another sum
    other = Ratio((half,), (Fraction(5, 2),), init=Fraction(1) + Fraction(1, 10 ** 80))
    ev = ChainEvaluator(ctx, [Level(ratio=other)])
    assert ev.rvals == ChainEvaluator(ctx, [Level(ratio=ratio)]).rvals
    assert ev.memo_key != key
    assert index_levels((1, 2))[1] is index_levels((2,))[0]


def test_a_row_extension_computes_only_the_missing_entries(monkeypatch):
    # the kept Pochhammer product lets an extension start where the row
    # stopped: entries 1..4, then 5..9 only, and the row is the one a single
    # build makes; the row ends at (p)_{2k-1} of its first missing entry
    calls = []
    em_fraction = tailcalc._em_fraction

    def counted(k):
        calls.append(k)
        return em_fraction(k)

    monkeypatch.setattr(tailcalc, "_em_fraction", counted)
    for alternating in (False, True):
        calc = PrecisionContext(30).tail_calc(alternating)
        calls.clear()
        row = calc._sum_row(11, 2, 4)
        assert calls == [1, 2, 3, 4]
        calls.clear()
        assert calc._sum_row(11, 2, 9) is row
        assert calls == [5, 6, 7, 8, 9]
        assert row == TailCalc(PrecisionContext(30).mp, alternating)._sum_row(11, 2, 9)
        p = Fraction(11, 2)
        rising = 1
        for j in range(2 * 10 - 1):
            rising *= p + j
        kept, num, den = calc.rows[11, 2]
        assert kept is row
        assert Fraction(num, den) == rising
