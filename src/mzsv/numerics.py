"""Arbitrary-precision scalar operations.

gamma                  -- Spouge's approximation, parameter chosen from the
                          context's working digits, recurrence reduction below 1
zeta_tail              -- Euler-Maclaurin remainder of the zeta series
derivative_at          -- central-difference derivative oracle at tripled
                          working precision
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .context import HPReal, PrecisionContext
from .errors import DomainError
from .tailcalc import power_sum_tail

_LOG10_TWO_PI = 0.7981798683581151

# -- gamma --------------------------------------------------------------------

_spouge_cache: dict = {}


def _spouge_coefficients(mp, a: int):
    """c_k = (-1)^(k-1)/(k-1)! * (a-k)^(k-1/2) * e^(a-k), k = 1..a-1."""
    key = (a, mp.prec)
    cached = _spouge_cache.get(key)
    if cached is not None:
        return cached
    coeffs = []
    sign = 1
    fact = mp.mpf(1)
    for k in range(1, a):
        ak = mp.mpf(a - k)
        coeffs.append(sign * ak ** (k - mp.mpf("0.5")) * mp.exp(ak) / fact)
        sign = -sign
        fact *= k
    _spouge_cache[key] = coeffs
    return coeffs


def _spouge_guard_digits(a: int) -> int:
    """Decimal digits the Spouge sum can lose to cancellation at any z >= 0:
    its terms |c_k|/(z+k) are at most |c_k|/k, and its value
    Gamma(z+1) (z+a)^-(z+1/2) e^(z+a) is at least sqrt(2 pi)."""
    log_term = max((k - 0.5) * math.log(a - k) + (a - k) - math.lgamma(k + 1)
                   for k in range(1, a))
    return max(0, math.ceil((log_term - 0.5 * math.log(2 * math.pi)) / math.log(10)))


def gamma(x, ctx: PrecisionContext) -> HPReal:
    """Gamma function for positive real arguments.

    Absolute error <= ctx.tol * max(1, Gamma(x)). Spouge's parameter `a`
    grows linearly with the working digits; the stated relative error bound
    a^(-1/2) * (2*pi)^(-(a+1/2)) then sits below one working ulp.
    """
    xv = ctx.real(x)
    if xv <= 0:
        raise DomainError(f"gamma requires x > 0, got {xv}")
    mp = ctx.mp
    a = int((ctx.working_digits + 12) / _LOG10_TWO_PI) + 2
    # extra digits absorb the rounding and the cancellation of the Spouge sum,
    # and the integer digits of z that (z+1/2) log(z+a) and z+a carry
    lead = int(mp.log10(xv.mpf)) if xv > 1 else 0
    work = mp.clone()
    work.dps = ctx.working_digits + 10 + _spouge_guard_digits(a) + lead
    z = work.mpf(xv.mpf)
    shift = 0
    while z < 1:  # argument reduction: Gamma(z) = Gamma(z+n) / (z (z+1) ... )
        shift += 1
        z += 1
    z -= 1  # Spouge computes Gamma(z+1)
    coeffs = _spouge_coefficients(work, a)
    acc = work.sqrt(2 * work.pi)
    for k in range(1, a):
        acc += coeffs[k - 1] / (z + k)
    val = (z + a) ** (z + work.mpf("0.5")) * work.exp(-(z + a)) * acc
    if shift:
        base = work.mpf(xv.mpf)
        denom = work.mpf(1)
        for j in range(shift):
            denom *= base + j
        val /= denom
    return HPReal(mp.mpf(val), ctx)


# -- zeta tail ------------------------------------------------------------------

def zeta_tail(s, M: int, ctx: PrecisionContext) -> HPReal:
    """sum_{m>M} m^(-s) for real s > 1, M >= 1, to absolute error <= ctx.tol."""
    sv = ctx.real(s)
    if sv <= 1:
        raise DomainError(f"zeta_tail requires s > 1, got {sv}")
    if M < 1:
        raise DomainError(f"zeta_tail requires M >= 1, got {M}")
    mp = ctx.mp
    val = power_sum_tail(mp, sv.mpf, int(M), ctx.tol * mp.mpf("1e-2"))
    return HPReal(val, ctx)


# -- finite-difference derivative oracle ---------------------------------------

_weight_cache: dict = {}


def _central_weights(r: int, npts: int):
    """Exact stencil weights w_j on nodes j = -K..K with sum w_j f(jh) ~ h^r f^(r)(0).

    Solved from the moment conditions sum_j w_j j^t = r! [t == r] for
    t = 0..npts-1 (Fraction Gaussian elimination; npts is small).
    """
    key = (r, npts)
    cached = _weight_cache.get(key)
    if cached is not None:
        return cached
    K = npts // 2
    nodes = list(range(-K, K + 1))
    n = len(nodes)
    rows = [[Fraction(node) ** t for node in nodes] + [Fraction(0)] for t in range(n)]
    if r < n:
        rows[r][-1] = Fraction(math.factorial(r))
    # Gaussian elimination with partial pivoting over Fractions
    for col in range(n):
        piv = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    weights = [rows[i][-1] for i in range(n)]
    _weight_cache[key] = (nodes, weights)
    return nodes, weights


def derivative_at(f: Callable[[HPReal], HPReal], x0, r: int,
                  ctx: PrecisionContext) -> HPReal:
    """r-th derivative of f at x0 by central differences.

    Stencil accuracy order is at least r+3 and the evaluation runs at
    tripled precision with step h = 10^(-wd/(r+2)), wd = ctx.working_digits,
    so the truncation error (about h^(r+3)) stays below 10^-wd and the
    subtractive cancellation (about 10^(-3*digits)/h^r) far below it.
    `f` receives HPReal arguments bound to the internal tripled context and
    must return HPReal (or something coercible) in that context.
    """
    if r < 0:
        raise DomainError(f"derivative order must be >= 0, got {r}")
    hi = PrecisionContext(digits=3 * ctx.digits, guard=ctx.guard,
                          max_terms=ctx.max_terms)
    if isinstance(x0, HPReal):
        x0v = HPReal(hi.mp.mpf(x0.mpf), hi)  # exact binary transfer
    else:
        x0v = hi.real(x0)
    if r == 0:
        res = f(x0v)
        return ctx.real(hi.real(res).decimal(hi.working_digits))
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
