"""Generalized hypergeometric series at z = +/-1, the very-well-poised
nested-sum right-hand sides, hypothesis checking, and the four specialized
series pairs at a real parameter alpha.

Parameters are real only and normalized to exact fractions (decimal strings
stay exact); hypothesis margins are therefore decided exactly. Convergence
conditions name the violated margin when they fail. Each parameter class of
the two Krattenthaler-Rivoal identities lists its well-poised parameters
(``wellpoised``), the xs that enter the series as x over 1+a-x; both
identities take their series side, margin and hypothesis checks from it.

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
from .context import HPReal, PrecisionContext, as_int
from .errors import ConditionError, ConvergenceError, DomainError
# _iterated_means is unused here; perfbench/tracing.py wraps it by name
from .numerics import _iterated_means, gamma  # noqa: F401
from .series import Evaluation, exact_diag, run_evaluation


def as_fraction(x) -> Fraction:
    """Exact normalization of a real parameter (decimal strings stay exact)."""
    if isinstance(x, (Fraction, int, str, float)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise DomainError(f"cannot interpret {x!r} as an exact real parameter")


def _is_nonpos_int(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def _normalise(p, extra_pairs: int):
    """Shared __post_init__: s an integer >= 1, a, b and c exact, and
    s + extra_pairs pairs (b_i, c_i)."""
    object.__setattr__(p, "s", as_int(p.s, "s", 1))
    object.__setattr__(p, "a", as_fraction(p.a))
    object.__setattr__(p, "b", tuple(as_fraction(x) for x in p.b))
    object.__setattr__(p, "c", tuple(as_fraction(x) for x in p.c))
    pairs = p.s + extra_pairs
    if len(p.b) != pairs or len(p.c) != pairs:
        raise DomainError(f"b and c must have length {pairs} at s={p.s}")


def _pairs(p) -> Tuple[Tuple[str, Fraction], ...]:
    """(name, x) of b_1, c_1, b_2, c_2, ... in series order."""
    return tuple((f"{name}_{i}", x) for i, bc in enumerate(zip(p.b, p.c), 1)
                 for name, x in zip("bc", bc))


@dataclass(frozen=True)
class KRParamsI:
    """Parameters of the z = -1 identity: a plus s+1 pairs (b_i, c_i)."""
    s: int
    a: Fraction
    b: Tuple[Fraction, ...]
    c: Tuple[Fraction, ...]
    z = -1
    margin_text = "(2s+1)(a+1) - 2*sum(b_i+c_i)"

    def __post_init__(self):
        _normalise(self, 1)

    @property
    def wellpoised(self) -> Tuple[Tuple[str, Fraction], ...]:
        """(name, x) of each x that enters the series as x over 1+a-x."""
        return _pairs(self)


@dataclass(frozen=True)
class KRParamsII:
    """Parameters of the z = +1 identity: a, c0 plus s pairs (b_i, c_i)."""
    s: int
    a: Fraction
    c0: Fraction
    b: Tuple[Fraction, ...]
    c: Tuple[Fraction, ...]
    z = 1
    margin_text = "2s(a+1) - 2c_0 - 2*sum(b_i+c_i)"

    def __post_init__(self):
        object.__setattr__(self, "c0", as_fraction(self.c0))
        _normalise(self, 0)

    @property
    def wellpoised(self) -> Tuple[Tuple[str, Fraction], ...]:
        """(name, x) of each x that enters the series as x over 1+a-x."""
        return (("c_0", self.c0),) + _pairs(self)


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


def _margin(p) -> Fraction:
    """(n-1)(a+1) - 2*sum(x) over the n well-poised xs: sum(lower) -
    sum(upper) of the series, the convergence margin of either identity."""
    xs = [x for _, x in p.wellpoised]
    return (len(xs) - 1) * (p.a + 1) - 2 * sum(xs)


def _kr_conditions(p) -> ConditionReport:
    """Hypothesis check of either identity.

    Each 1+a-x must not be a non-positive integer and the margin must be
    positive. Over the n pairs (b_i, c_i), every A-vector with A_i in {1,2}
    (i = 2..n-1) and A_n = 1 must give a positive
    sum_(i=r..n) A_i(1+a-b_i-c_i) for r = 2..n, and for (ii) also a positive
    1+a-c_0-b_1-c_1 + sum_(i=2..n) A_i(1+a-b_i-c_i). Checking every such vector
    over-checks conservatively: a parameter set passing all of them
    certainly satisfies the hypothesis.
    """
    entries: List[ConditionEntry] = []
    one = Fraction(1)
    for name, x in p.wellpoised:
        v = one + p.a - x
        entries.append(ConditionEntry(f"1+a-{name} not a non-positive integer",
                                      v, not _is_nonpos_int(v)))
    margin = _margin(p)
    entries.append(ConditionEntry(f"{p.margin_text} > 0", margin, margin > 0))
    d = [one + p.a - bi - ci for bi, ci in zip(p.b, p.c)]  # d[i-1] = 1+a-b_i-c_i
    n = len(d)
    head = one + p.a - p.c0 - p.b[0] - p.c[0] if p.z == 1 else None
    for vec in _a_vectors(2, n - 1):
        vec[n] = 1
        label = ",".join(f"A{i}={vec[i]}" for i in range(2, n + 1)) or "s=1"
        for r in range(2, n + 1):
            val = sum(vec[i] * d[i - 1] for i in range(r, n + 1))
            entries.append(ConditionEntry(
                f"sum_(i={r}..{n}) A_i(1+a-b_i-c_i) > 0 [{label}]",
                val, val > 0))
        if head is not None:
            val = head + sum(vec[i] * d[i - 1] for i in range(2, n + 1))
            entries.append(ConditionEntry(
                f"1+a-c_0-b_1-c_1 + sum_(i=2..{n}) A_i(1+a-b_i-c_i) > 0 [{label}]",
                val, val > 0))
    return ConditionReport.build(entries)


def kr_conditions_i(p: KRParamsI) -> ConditionReport:
    """Hypothesis check for the z = -1 identity."""
    return _kr_conditions(p)


def kr_conditions_ii(p: KRParamsII) -> ConditionReport:
    """Hypothesis check for the z = +1 identity (includes the c0 inequality)."""
    return _kr_conditions(p)


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
    if isinstance(z, bool) or z not in (1, -1):
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


def _kr_levels(p):
    """The nested sum of either identity as one prefix chain, innermost
    level first.

    Level 1 weighs (d_1)_t (b_2)_t (c_2)_t / (t! (1+a-b_1)_t (1+a-c_1)_t) in
    (i) and (b_1)_t (c_1)_t / (t! (1+a-c_0)_t) in (ii), d_j = 1+a-b_j-c_j.
    Each level above weighs (b_{j+1})_t (c_{j+1})_t / ((1+a-b_j)_t (1+a-c_j)_t)
    (j = 2..s in (i), 1..s-1 in (ii)) and is coupled to the one below by d_j.
    The coupling weight (d)_l / l! is a d-fold prefix sum, so an integer
    d >= 1 puts d-1 weight-one levels between the two ratio levels.
    """
    one = Fraction(1)
    a, b, c = p.a, p.b, p.c
    if p.z == -1:
        num = (one + a - b[0] - c[0], b[1], c[1])
        den = (one, one + a - b[0], one + a - c[0])
    else:
        num, den = (b[0], c[0]), (one, one + a - p.c0)
    levels = [Level(ratio=Ratio(num, den, init=one))]
    for j in range(len(b) - p.s, len(b) - 1):  # (b[j], c[j]) is pair j+1
        d = one + a - b[j] - c[j]
        if d.denominator != 1 or d < 1:
            raise DomainError(
                f"coupling exponent 1+a-b_{j + 1}-c_{j + 1} = {d} is not a "
                "positive integer; the nested sum is summed only for integer "
                "couplings")
        ratio = Ratio((b[j + 1], c[j + 1]), (one + a - b[j], one + a - c[j]),
                      init=one)
        levels += [Level()] * (int(d) - 1) + [Level(ratio=ratio)]
    return levels


def _kr_rhs(p, ctx: PrecisionContext, tol=None) -> Evaluation:
    """Gamma prefactor times the s-fold nested sum of either identity.

    Both prefactors are gamma(1+a-b)gamma(1+a-c) / (gamma(1+a)gamma(1+a-b-c))
    at the last pair (b, c); the sum runs as the prefix chain of _kr_levels.
    A parameter set outside the hypothesis raises ConditionError.
    """
    report = _kr_conditions(p)
    if not report.overall:
        raise ConditionError(
            "hypothesis conditions fail: "
            + "; ".join(e.description for e in report.failures()), report)
    levels = _kr_levels(p)
    one = Fraction(1)
    b, c = p.b[-1], p.c[-1]
    pref = _gamma_ratio(ctx, [one + p.a - b, one + p.a - c],
                        [one + p.a, one + p.a - b - c])
    return run_evaluation(ChainEvaluator(ctx, levels), tol, pref)


def _kr_lhs(p, ctx: PrecisionContext, tol=None) -> Evaluation:
    """The very-well-poised series of either identity, at z = p.z: upper
    parameters a, 1+a/2 and the well-poised xs, lower a/2 and the 1+a-xs."""
    xs = [x for _, x in p.wellpoised]
    return pfq_ex([p.a, p.a / 2 + 1] + xs, [p.a / 2] + [1 + p.a - x for x in xs],
                  p.z, ctx, tol=tol)


def kr_rhs_i(p: KRParamsI, ctx: PrecisionContext, tol=None) -> Evaluation:
    """Gamma prefactor times the s-fold nested sum of the z = -1 identity."""
    return _kr_rhs(p, ctx, tol)


def kr_rhs_ii(p: KRParamsII, ctx: PrecisionContext, tol=None) -> Evaluation:
    """Gamma prefactor times the s-fold nested sum of the z = +1 identity."""
    return _kr_rhs(p, ctx, tol)


def kr_lhs_i(p: KRParamsI, ctx: PrecisionContext, tol=None) -> Evaluation:
    """The very-well-poised series of the z = -1 identity."""
    return _kr_lhs(p, ctx, tol)


def kr_lhs_ii(p: KRParamsII, ctx: PrecisionContext, tol=None) -> Evaluation:
    """The very-well-poised series of the z = +1 identity."""
    return _kr_lhs(p, ctx, tol)


# -- the four specializations -----------------------------------------------------

_CASES = ("a1", "a2", "a3", "a4")


def _check_case(case: str, alpha, s) -> Tuple[Fraction, int]:
    """Exact alpha and integer s of one specialization, in its domain."""
    if case not in _CASES:
        raise DomainError(f"case must be one of {_CASES}, got {case!r}")
    al = as_fraction(alpha)
    s = as_int(s, "s", 2 if case in ("a2", "a3") else 1)
    ok, need = {"a1": (al > 0, "alpha > 0"), "a2": (al > 0, "alpha > 0"),
                "a3": (al < 2, "alpha < 2"), "a4": (2 * al < 3, "alpha < 3/2")}[case]
    if not ok:
        raise DomainError(f"case {case} needs {need}")
    return al, s


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
    al, s = _check_case(case, alpha, s)
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
    al, s = _check_case(case, alpha, s)
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
