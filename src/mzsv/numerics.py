"""Arbitrary-precision scalar operations.

gamma                  -- exact at an int or Fraction argument up to Gamma at
                          its fractional part, which is computed once per
                          context; Stirling's series on the shared Bernoulli
                          table, after a shift chosen from the working
                          digits, for that part and for any other argument
zeta_tail              -- Euler-Maclaurin remainder of the zeta series, to
                          working precision
derivative_at          -- central-difference derivative oracle at tripled
                          working precision
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .context import HPReal, PrecisionContext, as_int
from .errors import DomainError
from .tailcalc import _em_fraction, power_sum_tail

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
    Gamma(x) = exp(sum) / (x)_N.
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
        total = (z - 0.5) * mp.log(z) - z + mp.log(2 * mp.pi) / 2
        eps = mp.mpf(10) ** -work
        inv2 = 1 / (z * z)
        zpow = 1 / z  # z^-(2k-1)
        k = 1
        while True:
            num, den = _em_fraction(k)  # B_2k / (2k)!
            term = mp.mpf(num * math.factorial(2 * k - 2)) / den * zpow
            total += term
            if abs(term) < eps:
                break
            zpow *= inv2
            k += 1
        rising = mp.mpf(1)  # (x)_N
        for j in range(shift):
            rising *= base + j
        return mp.exp(total) / rising


def _gamma_exact(n: int, f: Fraction, ctx: PrecisionContext) -> HPReal:
    """Gamma(n + f) for an integer n and a rational 0 <= f < 1, not a pole."""
    mp = ctx.mp
    if f == 0:
        return HPReal(mp.mpf(math.factorial(n - 1)), ctx)
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
    return HPReal(mp.mpf(val), ctx)  # one rounding from the work precision


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
    The result is within a few units of the working precision, relative.
    """
    if isinstance(x, int) and not isinstance(x, bool):  # a bool fails in ctx.real
        x = Fraction(x)
    if isinstance(x, Fraction):
        n = math.floor(x)
        f = x - n
        if f == 0 and n <= 0:
            raise DomainError(f"gamma pole at {x}")
        if abs(n) <= EXACT_PART_MAX:
            return _gamma_exact(n, f, ctx)
        if n < 0:
            mp = ctx.mp
            # sin(pi x) = (-1)^n sin(pi g), g = min(f, 1-f) keeps sinpi
            # well conditioned near f = 1
            g = min(f, 1 - f)
            val = mp.pi / (mp.sinpi(mp.mpf(g.numerator) / g.denominator)
                           * gamma(1 - x, ctx).mpf)
            return HPReal(-val if n % 2 else val, ctx)
    xv = ctx.real(x)
    if xv <= 0:
        raise DomainError(f"gamma requires x > 0, got {xv}")
    arg = x if isinstance(x, Fraction) else xv.mpf
    return HPReal(ctx.mp.mpf(_stirling(arg, ctx.mp, ctx.working_digits)), ctx)


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


def derivative_at(f: Callable[[HPReal], HPReal], x0, r: int,
                  ctx: PrecisionContext) -> HPReal:
    """r-th derivative of f at x0 by central differences.

    Stencil accuracy order is at least r+3 and the evaluation runs at
    tripled precision with step h = 10^(-wd/(r+2)), wd = ctx.working_digits,
    so the truncation error (about h^(r+3)) stays below 10^-wd and the
    subtractive cancellation (about 10^(-3*digits)/h^r) far below it.
    `f` receives HPReal arguments bound to the tripled context
    (``ctx.tripled()``, one per calling context) and must return HPReal
    (or something coercible) in that context.
    """
    r = as_int(r, "derivative order r", 0)
    hi = ctx.tripled()
    if isinstance(x0, HPReal):
        x0v = HPReal(hi.mp.mpf(x0.mpf), hi)  # exact binary transfer
    else:
        x0v = hi.real(x0)
    npts = 2 * r + 3  # accuracy order >= r + 3
    nodes, weights = _central_weights(r, npts)
    mp = hi.mp
    h = mp.mpf(10) ** (mp.mpf(-ctx.working_digits) / (r + 2))
    acc = mp.mpf(0)
    for node, w in zip(nodes, weights):
        if w == 0:
            continue
        pt = HPReal(x0v.mpf + node * h, hi)
        val = hi.real(f(pt))
        acc += mp.mpf(w.numerator) / w.denominator * val.mpf
    res = acc / h ** r
    return HPReal(ctx.mp.mpf(res), ctx)


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
