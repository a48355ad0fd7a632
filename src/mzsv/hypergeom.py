"""Generalized hypergeometric series at z = +/-1, the very-well-poised
nested-sum right-hand sides, hypothesis checking, and the four specialized
series pairs at a real parameter alpha.

Parameters are real only and normalized to exact fractions (decimal strings
stay exact); hypothesis margins are therefore decided exactly. Convergence
conditions name the violated margin when they fail.

Every non-terminating series here runs through the chain driver of
``chains``: a pFq series and each specialized single-series side are
one-level chains, and the Krattenthaler-Rivoal right-hand sides are ratio
chains too. A coupling
exponent d between two ratio levels weights the inner sum by
(d)_l / l! = C(l+d-1, d-1), which is a d-fold prefix sum, so an integer
d >= 1 adds d-1 weight-one levels to the chain; any other coupling is
outside this engine's domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import List, Sequence, Tuple

from .chains import ChainEvaluator, Level, Pow, Ratio, index_levels
from .context import HPReal, PrecisionContext
from .errors import ConditionError, ConvergenceError, DomainError
# _iterated_means is unused here; perfbench/tracing.py wraps it by name
from .numerics import _iterated_means, gamma  # noqa: F401
from .series import Evaluation, exact_diag, run_evaluation


def as_fraction(x) -> Fraction:
    """Exact normalization of a real parameter (decimal strings stay exact)."""
    if isinstance(x, (Fraction, int, str, float)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise DomainError(f"cannot interpret {x!r} as an exact real parameter")


def _is_nonpos_int(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


@dataclass(frozen=True)
class KRParamsI:
    """Parameters of the z = -1 identity: a plus s+1 pairs (b_i, c_i)."""
    s: int
    a: Fraction
    b: Tuple[Fraction, ...]
    c: Tuple[Fraction, ...]

    def __post_init__(self):
        if self.s < 1:
            raise DomainError(f"s must be >= 1, got {self.s}")
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", tuple(as_fraction(x) for x in self.b))
        object.__setattr__(self, "c", tuple(as_fraction(x) for x in self.c))
        if len(self.b) != self.s + 1 or len(self.c) != self.s + 1:
            raise DomainError(f"b and c must have length s+1={self.s + 1}")


@dataclass(frozen=True)
class KRParamsII:
    """Parameters of the z = +1 identity: a, c0 plus s pairs (b_i, c_i)."""
    s: int
    a: Fraction
    c0: Fraction
    b: Tuple[Fraction, ...]
    c: Tuple[Fraction, ...]

    def __post_init__(self):
        if self.s < 1:
            raise DomainError(f"s must be >= 1, got {self.s}")
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "c0", as_fraction(self.c0))
        object.__setattr__(self, "b", tuple(as_fraction(x) for x in self.b))
        object.__setattr__(self, "c", tuple(as_fraction(x) for x in self.c))
        if len(self.b) != self.s or len(self.c) != self.s:
            raise DomainError(f"b and c must have length s={self.s}")


@dataclass(frozen=True)
class ConditionEntry:
    description: str
    lhs_value: Fraction
    satisfied: bool


@dataclass(frozen=True)
class ConditionReport:
    entries: Tuple[ConditionEntry, ...]
    overall: bool

    @classmethod
    def build(cls, entries: Sequence[ConditionEntry]) -> "ConditionReport":
        return cls(tuple(entries), all(e.satisfied for e in entries))

    def failures(self) -> List[ConditionEntry]:
        return [e for e in self.entries if not e.satisfied]


def _a_vectors(lo: int, hi: int):
    """All A-vectors with A_i in {1,2} for i in [lo, hi]; may be empty."""
    span = range(lo, hi + 1)
    for combo in iter_product((1, 2), repeat=len(span)):
        yield dict(zip(span, combo))


def _margin_i(p: KRParamsI) -> Fraction:
    """(2s+1)(a+1) - 2*sum(b_i+c_i): the convergence margin of the z = -1 series."""
    return (2 * p.s + 1) * (p.a + 1) - 2 * sum(bi + ci for bi, ci in zip(p.b, p.c))


def _margin_ii(p: KRParamsII) -> Fraction:
    """2s(a+1) - 2c_0 - 2*sum(b_i+c_i): the convergence margin of the z = +1 series."""
    return 2 * p.s * (p.a + 1) - 2 * p.c0 - 2 * sum(bi + ci for bi, ci in zip(p.b, p.c))


def kr_conditions_i(p: KRParamsI) -> ConditionReport:
    """Hypothesis check for the z = -1 identity.

    Every A-vector with A_i in {1,2} (i = 2..s) and A_{s+1} = 1 is checked,
    which over-checks conservatively: a parameter set passing all vectors
    certainly satisfies the hypothesis.
    """
    entries: List[ConditionEntry] = []
    one = Fraction(1)
    for i in range(1, p.s + 2):
        for name, val in (("b", p.b[i - 1]), ("c", p.c[i - 1])):
            v = one + p.a - val
            entries.append(ConditionEntry(
                f"1+a-{name}_{i} not a non-positive integer",
                v, not _is_nonpos_int(v)))
    margin = _margin_i(p)
    entries.append(ConditionEntry("(2s+1)(a+1) - 2*sum(b_i+c_i) > 0",
                                  margin, margin > 0))
    d = [one + p.a - bi - ci for bi, ci in zip(p.b, p.c)]  # d[i-1] = 1+a-b_i-c_i
    for vec in _a_vectors(2, p.s):
        vec[p.s + 1] = 1
        for r in range(2, p.s + 2):
            val = sum(Fraction(vec[i]) * d[i - 1] for i in range(r, p.s + 2))
            label = ",".join(f"A{i}={vec[i]}" for i in range(2, p.s + 2))
            entries.append(ConditionEntry(
                f"sum_(i={r}..{p.s + 1}) A_i(1+a-b_i-c_i) > 0 [{label}]",
                val, val > 0))
    return ConditionReport.build(entries)


def kr_conditions_ii(p: KRParamsII) -> ConditionReport:
    """Hypothesis check for the z = +1 identity (includes the c0 inequality)."""
    entries: List[ConditionEntry] = []
    one = Fraction(1)
    for i in range(1, p.s + 1):
        v = one + p.a - p.b[i - 1]
        entries.append(ConditionEntry(
            f"1+a-b_{i} not a non-positive integer", v, not _is_nonpos_int(v)))
    for j in range(0, p.s + 1):
        cj = p.c0 if j == 0 else p.c[j - 1]
        v = one + p.a - cj
        entries.append(ConditionEntry(
            f"1+a-c_{j} not a non-positive integer", v, not _is_nonpos_int(v)))
    margin = _margin_ii(p)
    entries.append(ConditionEntry("2s(a+1) - 2c_0 - 2*sum(b_i+c_i) > 0",
                                  margin, margin > 0))
    d = [one + p.a - bi - ci for bi, ci in zip(p.b, p.c)]
    head = one + p.a - p.c0 - p.b[0] - p.c[0]
    for vec in _a_vectors(2, p.s - 1):
        vec[p.s] = 1
        label = ",".join(f"A{i}={vec[i]}" for i in range(2, p.s + 1)) or "s=1"
        for r in range(2, p.s + 1):
            val = sum(Fraction(vec[i]) * d[i - 1] for i in range(r, p.s + 1))
            entries.append(ConditionEntry(
                f"sum_(i={r}..{p.s}) A_i(1+a-b_i-c_i) > 0 [{label}]",
                val, val > 0))
        val = head + sum(Fraction(vec[i]) * d[i - 1] for i in range(2, p.s + 1))
        entries.append(ConditionEntry(
            f"1+a-c_0-b_1-c_1 + sum_(i=2..{p.s}) A_i(1+a-b_i-c_i) > 0 [{label}]",
            val, val > 0))
    return ConditionReport.build(entries)


# -- the hypergeometric series itself ------------------------------------------

def pfq(upper: Sequence, lower: Sequence, z: int, ctx: PrecisionContext,
        tol=None) -> HPReal:
    """(p+1)F_p at z = +1 or -1 for real parameters.

    Terminating series (an upper parameter a non-positive integer) are summed
    exactly over rationals. Otherwise the convergence margin
    delta = sum(lower) - sum(upper) governs: z = +1 sums need delta > 0,
    z = -1 sums converge for delta > -1. Either runs as a one-level ratio
    chain (see pfq_ex).
    """
    return pfq_ex(upper, lower, z, ctx, tol=tol).value


def pfq_ex(upper: Sequence, lower: Sequence, z: int, ctx: PrecisionContext,
           tol=None) -> Evaluation:
    """pfq with diagnostics.

    A non-terminating series is the one-level chain whose ratio weight is
    the term ratio prod(upper+m) / ((1+m) prod(lower+m)), run by the chain
    driver on the fixed-point kernels: the remainder is the tail sum of the
    term's asymptotic shape (decay exponent 1 + delta) pinned to the
    running term, by Euler-Maclaurin at z = +1 and by the Boole formula at
    z = -1.
    """
    up = [as_fraction(u) for u in upper]
    lo = [as_fraction(l) for l in lower]
    if len(up) != len(lo) + 1:
        raise DomainError(
            f"need exactly one more upper than lower parameter, got {len(up)}/{len(lo)}")
    if z not in (1, -1):
        raise DomainError(f"z must be +1 or -1, got {z}")
    for l in lo:
        if _is_nonpos_int(l):
            raise DomainError(f"lower parameter {l} is a non-positive integer")
    terminating = [u for u in up if _is_nonpos_int(u)]
    if terminating:
        N = min(int(-u) for u in terminating)
        term = Fraction(1)
        total = Fraction(1)
        for m in range(N):
            ratio = Fraction(z)
            for u in up:
                ratio *= u + m
            for l in lo:
                ratio /= l + m
            ratio /= m + 1
            term *= ratio
            total += term
        return Evaluation(ctx.real(total), exact_diag(ctx))
    delta = sum(lo, Fraction(0)) - sum(up, Fraction(0))
    # z=+1 needs a positive margin; the alternating z=-1 series still
    # converges (conditionally) down to margin > -1
    if z == 1 and delta <= 0:
        raise ConvergenceError(
            f"series diverges at z=+1: margin sum(lower) - sum(upper) = {delta} <= 0")
    if z == -1 and delta <= -1:
        raise ConvergenceError(
            f"series diverges at z=-1: margin sum(lower) - sum(upper) = {delta} <= -1")
    level = Level(ratio=Ratio(tuple(up), (Fraction(1),) + tuple(lo),
                              init=Fraction(1)))
    return run_evaluation(ChainEvaluator(ctx, [level], alternating=(z == -1)), tol)


# -- nested right-hand sides -----------------------------------------------------

def _gamma_ratio(ctx: PrecisionContext, num: Sequence[Fraction],
                 den: Sequence[Fraction]):
    """prod gamma(num) / prod gamma(den) on gamma's exact rational path."""
    mp = ctx.mp
    val = mp.mpf(1)
    for x in num:
        val *= gamma(x, ctx).mpf
    for x in den:
        val /= gamma(x, ctx).mpf
    return val


def _kr_prefix_levels(p, kind: str):
    """The ratio levels of the nested sum, innermost first.

    kind 'i': level-1 weight (d_1)_t (b_2)_t (c_2)_t / (t! (1+a-b_1)_t (1+a-c_1)_t),
    upper levels (b_{i+1})_t (c_{i+1})_t / ((1+a-b_i)_t (1+a-c_i)_t).
    kind 'ii': level-1 weight (b_1)_t (c_1)_t / (t! (1+a-c_0)_t),
    upper levels (b_i)_t (c_i)_t / ((1+a-b_{i-1})_t (1+a-c_{i-1})_t).
    (Indices here are 1-based; p.b and p.c are 0-based tuples.)
    """
    one = Fraction(1)
    if kind == "i":
        shapes = [((one + p.a - p.b[0] - p.c[0], p.b[1], p.c[1]),
                   (one, one + p.a - p.b[0], one + p.a - p.c[0]))]
        first = 2
    else:
        shapes = [((p.b[0], p.c[0]), (one, one + p.a - p.c0))]
        first = 1
    shapes += [((p.b[j], p.c[j]), (one + p.a - p.b[j - 1], one + p.a - p.c[j - 1]))
               for j in range(first, first + p.s - 1)]
    return [Level(ratio=Ratio(num, den, init=one)) for num, den in shapes]


def _kr_levels(p, kind: str):
    """The nested sum as one prefix chain, innermost level first.

    Successive ratio levels are coupled by d = 1+a-b_j-c_j (j = 2..s for
    'i', where it is d_j; j = 1..s-1 for 'ii'). Its weight (d)_l / l! is a
    d-fold prefix sum, so an integer d >= 1 puts d-1 weight-one levels
    after the ratio level below it.
    """
    ratios = _kr_prefix_levels(p, kind)
    first = 2 if kind == "i" else 1
    levels = [ratios[0]]
    for j, level in zip(range(first, first + p.s - 1), ratios[1:]):
        d = 1 + p.a - p.b[j - 1] - p.c[j - 1]
        if d.denominator != 1 or d < 1:
            raise DomainError(
                f"coupling exponent 1+a-b_{j}-c_{j} = {d} is not a positive "
                "integer; the nested sum is summed only for integer couplings")
        levels += [Level()] * (int(d) - 1) + [level]
    return levels


def _kr_rhs(p, kind: str, report: ConditionReport, ctx: PrecisionContext,
            tol) -> Evaluation:
    """Gamma prefactor times the s-fold nested sum of either identity.

    Both prefactors are gamma(1+a-b)gamma(1+a-c) / (gamma(1+a)gamma(1+a-b-c))
    at the last pair (b, c); the sum runs as the prefix chain of _kr_levels.
    """
    if not report.overall:
        raise ConditionError(
            "hypothesis conditions fail: "
            + "; ".join(e.description for e in report.failures()), report)
    levels = _kr_levels(p, kind)
    one = Fraction(1)
    b, c = p.b[-1], p.c[-1]
    pref = _gamma_ratio(ctx, [one + p.a - b, one + p.a - c],
                        [one + p.a, one + p.a - b - c])
    return run_evaluation(ChainEvaluator(ctx, levels), tol, pref)


def kr_rhs_i(p: KRParamsI, ctx: PrecisionContext, tol=None) -> Evaluation:
    """Gamma prefactor times the s-fold nested sum of the z = -1 identity."""
    return _kr_rhs(p, "i", kr_conditions_i(p), ctx, tol)


def kr_rhs_ii(p: KRParamsII, ctx: PrecisionContext, tol=None) -> Evaluation:
    """Gamma prefactor times the s-fold nested sum of the z = +1 identity."""
    return _kr_rhs(p, "ii", kr_conditions_ii(p), ctx, tol)


def kr_lhs_i(p: KRParamsI, ctx: PrecisionContext, tol=None) -> Evaluation:
    """The very-well-poised series of the z = -1 identity."""
    upper = [p.a, p.a / 2 + 1]
    lower = [p.a / 2]
    for bi, ci in zip(p.b, p.c):
        upper += [bi, ci]
        lower += [1 + p.a - bi, 1 + p.a - ci]
    return pfq_ex(upper, lower, -1, ctx, tol=tol)


def kr_lhs_ii(p: KRParamsII, ctx: PrecisionContext, tol=None) -> Evaluation:
    """The very-well-poised series of the z = +1 identity."""
    upper = [p.a, p.a / 2 + 1, p.c0]
    lower = [p.a / 2, 1 + p.a - p.c0]
    for bi, ci in zip(p.b, p.c):
        upper += [bi, ci]
        lower += [1 + p.a - bi, 1 + p.a - ci]
    return pfq_ex(upper, lower, 1, ctx, tol=tol)


# -- the four specializations -----------------------------------------------------

_CASES = ("a1", "a2", "a3", "a4")


def _check_case(case: str, alpha: Fraction, s: int):
    if case not in _CASES:
        raise DomainError(f"case must be one of {_CASES}, got {case!r}")
    if case == "a1":
        if alpha <= 0 or s < 1:
            raise DomainError("case a1 needs alpha > 0 and s >= 1")
    elif case == "a2":
        if alpha <= 0 or s < 2:
            raise DomainError("case a2 needs alpha > 0 and s >= 2")
    elif case == "a3":
        if alpha >= 2 or s < 2:
            raise DomainError("case a3 needs alpha < 2 and s >= 2")
    else:
        if 2 * alpha >= 3 or s < 1:
            raise DomainError("case a4 needs alpha < 3/2 and s >= 1")


def _pochhammer_ratio_levels(alpha: Fraction, outer_k: int):
    """Level with weight (alpha)_t / (2-alpha)_{t+1} / (t+1)^outer_k."""
    pows = (Pow(outer_k, Fraction(1)),) if outer_k else ()
    ratio = Ratio((alpha,), (3 - alpha,), init=Fraction(1, 2 - alpha))
    return Level(pows=pows, ratio=ratio)


def specialized_lhs(case: str, alpha, s: int, ctx: PrecisionContext,
                    tol=None) -> Evaluation:
    """The displayed single-series side of one of the four specializations.

    Each is a one-level chain from t = 0: (A1) the alternating sum of
    1/(t+alpha)^(2s), (A2) the plain sum of 1/(t+alpha)^(2s-1), and (A3),
    (A4) the plain and alternating sums of (alpha)_t / (2-alpha)_{t+1}
    over (t+1)^(2s-2) and (t+1)^(2s-1).
    """
    al = as_fraction(alpha)
    _check_case(case, al, s)
    # (level, alternating), built lazily: the ratio levels divide by 2-alpha,
    # which only the a3/a4 domains keep nonzero
    level, alternating = {
        "a1": lambda: (Level(pows=(Pow(2 * s, al),)), True),
        "a2": lambda: (Level(pows=(Pow(2 * s - 1, al),)), False),
        "a3": lambda: (_pochhammer_ratio_levels(al, 2 * s - 2), False),
        "a4": lambda: (_pochhammer_ratio_levels(al, 2 * s - 1), True),
    }[case]()
    return run_evaluation(ChainEvaluator(ctx, [level], alternating=alternating), tol)


def specialized_rhs(case: str, alpha, s: int, ctx: PrecisionContext,
                    tol=None) -> Evaluation:
    """The displayed nested-sum side of one of the four specializations."""
    al = as_fraction(alpha)
    _check_case(case, al, s)
    if case in ("a1", "a2"):
        # inner weight (alpha)_t^2 / (t! (2*alpha)_t); a1 has 1/(t+alpha) extra
        ratio = Ratio((al, al), (Fraction(1), 2 * al), init=Fraction(1))
        pows = (Pow(1, al),) if case == "a1" else ()
        levels = [Level(pows=pows, ratio=ratio)]
        levels += [Level(pows=(Pow(2, al),)) for _ in range(s - 1)]
        pref = _gamma_ratio(ctx, [al, al], [2 * al]) / 2
    else:
        if case == "a3":
            # inner weight t! / (2-alpha)_{t+1}
            ratio = Ratio((Fraction(1),), (3 - al,), init=Fraction(1, 2 - al))
            levels = [Level(ratio=ratio)]
        else:
            # inner weight 1/((t+2-alpha)(t+1)); exact power pieces
            levels = [Level(pows=(Pow(1, 2 - al), Pow(1, Fraction(1))))]
        levels += index_levels((2,) * (s - 1))
        pref = ctx.mp.mpf("0.5")
    return run_evaluation(ChainEvaluator(ctx, levels), tol, pref)
