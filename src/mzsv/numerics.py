"""Arbitrary-precision scalar operations.

gamma                  -- exact at an int, Fraction or decimal string up to Gamma at
                          its fractional part, which is computed once per
                          context; Stirling's series, after a shift chosen
                          from the working digits, for that part and for
                          any other argument, its Bernoulli sum in fixed
                          point by tailcalc's shared helper; each value
                          kept on the context per exact argument
zeta_tail              -- Euler-Maclaurin remainder of the zeta series, to
                          working precision (tailcalc.power_sum_tail)
derivative_at          -- central-difference derivative oracle of order
                          r <= 6 at the binary step h = 2^-e, the largest
                          power of two <= 10^(-wd/(r+2)); f run at
                          wd + ceil(r wd/(r+2)) digits plus guard, so the
                          guard digits cover the factor 2^r <= 64 that the
                          shorter step adds to the rounding; the stencil's
                          weights rounded once per order and precision
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from mpmath.libmp import from_int, mpf_div

from .context import HPReal, PrecisionContext, as_fraction, as_int
from .errors import DomainError
from .tailcalc import GUARD_BITS, _binary_ratio, _em_series, power_sum_tail

# -- gamma --------------------------------------------------------------------

EXACT_PART_MAX = 1000  # |integer part| up to which a rational takes the exact path


def _stirling(x, mp, working_digits: int):
    """Gamma(x) for x > 0 (a Fraction or an mpf) by Stirling's series for
    log Gamma (DLMF 5.11.1), as an mpf of `mp` at the work precision.

    The work precision D is the working digits + 5 plus the integer digits
    of x, which log Gamma carries ahead of the point. x is shifted to
    z = x + N >= 2 D ln(10) / (2 pi), where the least term of the series is
    far below 10^-D, and the sum
    (z - 1/2) ln z - z + ln(2 pi)/2 + sum_k B_2k / (2k (2k-1) z^(2k-1))
    stops after its first term below 10^-D; for real z > 0 the remainder
    is smaller than the first term left out (DLMF 5.11(ii)). Then
    Gamma(x) = exp(sum) / (x)_N. The Bernoulli sum runs in fixed point at
    the work precision plus GUARD_BITS (``tailcalc._em_series``), with
    g_k = (2k-2)! z^(1-2k) stepped by the exact factor (2k-1) 2k / z^2:
    z is exact, a Fraction for a Fraction x and a binary rational for an
    mpf one.
    """
    if isinstance(x, Fraction):
        bits = x.numerator.bit_length() - x.denominator.bit_length()
    else:
        bits = mp.mag(x)
    work = working_digits + 5 + max(0, math.ceil(bits * math.log10(2)))
    with mp.workdps(work):
        # a Fraction enters the work precision exactly: rounded to the working
        # digits, its error would grow by about x log(x) relative
        base = mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else +x
        zmin = work * math.log(10) / math.pi
        shift = int(mp.ceil(zmin - base)) if base < zmin else 0
        z = base + shift
        if isinstance(x, Fraction):
            zq = x + shift
            zn, zd = zq.numerator, zq.denominator
        else:
            zn, zd = _binary_ratio(z)
        scale = mp.prec + GUARD_BITS
        one = 1 << scale
        series = _em_series(zd * one // zn, 0, zd, zn * zn, one // 10 ** work)
        total = ((z - 0.5) * mp.log(z) - z + mp.log(2 * mp.pi) / 2
                 + mp.ldexp(series, -scale))
        rising = mp.mpf(1)  # (x)_N
        for j in range(shift):
            rising *= base + j
        return mp.exp(total) / rising


def _gamma_exact(n: int, f: Fraction, ctx: PrecisionContext):
    """Gamma(n + f) for an integer n and a rational 0 <= f < 1, not a pole,
    as an mpf of ctx."""
    mp = ctx.mp
    if f == 0:
        return mp.mpf(math.factorial(n - 1))
    wd = ctx.working_digits
    g = ctx.gammas.get(f)
    if g is None:
        g = ctx.gammas[f] = _stirling(f, mp, wd)
    p, q = f.numerator, f.denominator
    with mp.workdps(wd + 5):
        if n >= 0:  # Gamma(f) (f)_n, (f)_n = prod_{j<n} (p + j q) / q^n
            val = g * math.prod(p + j * q for j in range(n)) / q ** n
        else:  # Gamma(f) / (x)_{-n}, (x)_{-n} = prod_{i=1..-n} (p - i q) / q^-n
            val = g * q ** -n / math.prod(p - i * q for i in range(1, 1 - n))
    return mp.mpf(val)  # one rounding from the work precision


def gamma(x, ctx: PrecisionContext) -> HPReal:
    """Gamma function at a real x > 0, or at a rational x that is not a pole.

    An int or Fraction x = n + f (n = floor(x), 0 <= f < 1) whose integer
    part has |n| <= EXACT_PART_MAX = 1000 takes the exact path: Gamma(n) =
    (n-1)! when f = 0, otherwise Gamma(f) (f)_n for n >= 0 and
    Gamma(f) / (x)_{-n} for n < 0, with the rising factorial exact in
    integers. Gamma(f) comes from Stirling's series once per fractional
    part and context (kept in ``ctx.gammas``), the product is formed at 5
    digits beyond the working precision and rounded once into the context.
    A rational below -EXACT_PART_MAX takes the reflection
    Gamma(x) = pi / (sin(pi x) Gamma(1-x)). A rational above
    EXACT_PART_MAX, and any other argument (which must then be > 0), takes
    Stirling's series at guard digits beyond the working precision.
    A decimal or a/b string is read exactly, as the Fraction it spells
    (``context.as_fraction``), for any exponent up to +-EXPONENT_MAX =
    10^5: "1e1001" is the integer 10^1001, not its rounding to the working
    digits. ctx.real reads every other string, or rejects it.
    The result is within a few units of the working precision, relative.
    Each result is kept on ctx, as a raw mpf, per exact argument (the
    Fraction, or the mpf ctx.real makes): ``ctx.scalars``, so a repeat is
    one lookup.
    """
    given = x  # a pole names it: str() of a Fraction past 4300 digits raises
    if isinstance(x, (int, str)):
        try:
            x = as_fraction(x)
        except DomainError:
            pass  # a bool or other text: ctx.real reads it, or raises
    if not isinstance(x, Fraction):
        x = ctx.real(x).mpf
    key = ("gamma", x if isinstance(x, Fraction) else x._mpf_)
    val = ctx.scalars.get(key)
    if val is None:
        val = ctx.scalars[key] = _gamma(x, given, ctx)
    return HPReal(val, ctx)


def _gamma(x, given, ctx: PrecisionContext):
    """``gamma`` at a Fraction or an mpf of ctx, as an mpf of ctx."""
    mp = ctx.mp
    if isinstance(x, Fraction):
        n = math.floor(x)
        f = x - n
        if f == 0 and n <= 0:
            raise DomainError(f"gamma pole at {given}")
        if abs(n) <= EXACT_PART_MAX:
            return _gamma_exact(n, f, ctx)
        if n < 0:
            # sin(pi x) = (-1)^n sin(pi g), g = min(f, 1-f) keeps sinpi
            # well conditioned near f = 1
            g = min(f, 1 - f)
            val = mp.pi / (mp.sinpi(mp.mpf(g.numerator) / g.denominator)
                           * gamma(1 - x, ctx).mpf)
            return -val if n % 2 else val
    elif x <= 0:
        raise DomainError(f"gamma requires x > 0, got {HPReal(x, ctx)}")
    return mp.mpf(_stirling(x, mp, ctx.working_digits))


# -- zeta tail ------------------------------------------------------------------

def zeta_tail(s, M: int, ctx: PrecisionContext) -> HPReal:
    """sum_{m>M} m^(-s) for real s > 1, M >= 1, to working precision
    (absolute error about 10^-working_digits, whatever ctx.tol is)."""
    sv = ctx.real(s)
    if sv <= 1:
        raise DomainError(f"zeta_tail requires s > 1, got {sv}")
    M = as_int(M, "M", 1)
    mp = ctx.mp
    val = power_sum_tail(mp, sv.mpf, M, mp.mpf(10) ** -ctx.working_digits)
    return HPReal(val, ctx)


# -- finite-difference derivative oracle ---------------------------------------

@lru_cache(maxsize=None)
def _central_weights(r: int, npts: int):
    """Exact stencil weights w_j on nodes j = -K..K with sum w_j f(jh) ~ h^r f^(r)(0).

    w_j is r! times the x^r coefficient of node j's Lagrange basis
    polynomial prod_{i != j} (x - i)/(j - i), which meets the moment
    conditions sum_j w_j j^t = r! [t == r] for t = 0..npts-1.
    """
    K = npts // 2
    nodes = list(range(-K, K + 1))
    weights = []
    for j in nodes:
        poly, den = [1], 1  # prod (x - i) over i != j, lowest power first
        for i in nodes:
            if i != j:
                poly = [a - i * b for a, b in zip([0] + poly, poly + [0])]
                den *= j - i
        coeff = poly[r] if r < len(poly) else 0
        weights.append(Fraction(math.factorial(r) * coeff, den))
    return nodes, weights


_MAX_ORDER = 6  # the highest order derivative_at takes, eq2_check's largest r


def _stencil(r: int, wd: int):
    """(e, nodes, weights) of the order-r oracle at wd working digits: the
    step h = 2^-e with e = ceil(wd log2(10) / (r+2)), so h <= 10^(-wd/(r+2))
    < 2h, and the 2r+3-point central stencil of ``_central_weights``."""
    # wd log2(10) lies strictly between b-1 and b, and no multiple of r+2
    # lies in between, so its ceiling over r+2 is that of b
    b = (10 ** wd).bit_length()
    return -(-b // (r + 2)), *_central_weights(r, 2 * r + 3)


def derivative_at(f: Callable[[HPReal], HPReal], x0, r: int,
                  ctx: PrecisionContext) -> HPReal:
    """r-th derivative of f at x0 (taken into ctx) by central differences.

    The order is an integer 0 <= r <= 6; a larger r raises
    DomainError before f is called (at r = 7 the result already misses
    10^-(wd-2), and at r = 30 it is wrong by a factor of about 50).
    The 2r+3-point stencil has accuracy order r+3 or more, and its step
    h = 2^-e, the largest power of two <= 10^(-wd/(r+2)), wd =
    ctx.working_digits (``_stencil``), keeps the truncation error (about
    h^(r+3)) below 10^-wd. The nodes x0 + j h are exact for a short x0
    such as 1, and dividing by h^r is a shift of the exponent. That
    division magnifies the rounding of each f value by 10^(r wd/(r+2))
    times at most 2^r <= 64 (h may fall short of 10^(-wd/(r+2)) by a
    factor below 2), so f runs on ``ctx.raised(wd + ceil(r wd/(r+2)))``,
    whose guard digits (10 by default) hold that error near
    10^-(wd+guard) times 64 and the stencil's weights. `f` receives HPReal
    arguments bound to that context and must return one in it (or a number).
    """
    r = as_int(r, "derivative order r", 0)
    if r > _MAX_ORDER:
        raise DomainError(f"derivative order r must be at most {_MAX_ORDER}, got {r}")
    wd = ctx.working_digits
    hi = ctx.raised(wd - (-r * wd // (r + 2)))
    mp = hi.mp
    x0 = mp.mpf(ctx.real(x0).mpf)  # exact binary transfer
    e = _stencil(r, wd)[0]
    acc = mp.mpf(0)
    for node, w in _weight_mpfs(r, *mp._prec_rounding):
        val = hi.real(f(HPReal(x0 + mp.ldexp(node, -e), hi)))
        acc += mp.make_mpf(w) * val.mpf
    return HPReal(ctx.mp.mpf(mp.ldexp(acc, r * e)), ctx)


@lru_cache(maxsize=None)
def _weight_mpfs(r: int, prec: int, rnd: str):
    """(node, raw mpf weight) for each nonzero weight of the order-r
    stencil (``_stencil``), the weight rounded as mpf(num) / den rounds
    it at (prec, rnd): built once per order and precision."""
    nodes, weights = _central_weights(r, 2 * r + 3)
    return tuple((node, mpf_div(from_int(w.numerator, prec, rnd), from_int(w.denominator),
                                prec, rnd))
                 for node, w in zip(nodes, weights) if w)


# -- pairwise means ---------------------------------------------------------------

# _iterated_means is unused here; perfbench/tracing.py wraps it by name
def _iterated_means(mp, row):
    """Collapse a sequence by repeated pairwise means.

    Returns (value, raw_spread) where raw_spread is half the absolute
    difference of the final pair, which bounds the distance to the limit
    for alternating sequences with eventually monotone term magnitudes.
    """
    row = list(row)
    half = mp.mpf("0.5")
    last_spread = mp.mpf(0)
    while len(row) > 1:
        last_spread = abs(row[-1] - row[-2])
        row = [(row[i] + row[i + 1]) * half for i in range(len(row) - 1)]
    return row[0], last_spread * half
