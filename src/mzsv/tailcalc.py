"""Euler-Maclaurin tail machinery for nested-series truncation.

Two layers:

* :func:`power_sum_tail` evaluates ``sum_{m>M} m**(-p)`` to a requested
  tolerance in one pass: it sums a short bridge up to an expansion point
  chosen so that the asymptotic Euler-Maclaurin expansion has a least term
  far below tolerance, then adds the expansion. This backs ``series.zeta``
  and the public ``zeta_tail`` operation. Its Bernoulli series, like that
  of Stirling's series in ``numerics``, runs in fixed-point integers in
  ``_em_series``, one running term stepped by exact integer factors.

* :class:`TailCalc` manipulates asymptotic *tail polynomials*: functions of
  an integer m of the form ``F(m) = sum_q c_q * (m+1)**-(rho+q)`` with a
  fixed exact rational offset ``rho >= 0`` and integer keys ``q``. The
  class supports products, sums, and the tail-sum operator
  ``F -> (x -> sum_{m>x} F(m))``, which is closed on this representation:
  each power (m+1)**-p sums to the Euler-Maclaurin expansion of
  ``sum_{n>N} n**-p`` at N = x+1, whose terms are again powers of (x+1).
  The alternating tail ``x -> sum_{m>x} (-1)**m F(m)`` is (-1)**x times a
  tail polynomial too, by the Boole summation formula, so one operator
  serves both kinds of sum; a TailCalc takes one of the two signs
  (``alternating``) for all its sums. Nested-series evaluators expand their
  truncation remainder into a short chain of such operations, so the
  remainder of a dynamic-programming chain is corrected analytically
  instead of by brute-force term counts.

Coefficients are fixed-point integers, as in the kernels, at a scale
graded by key: each TailCalc keeps c_q as round-down(c_q * 2**(bits -
q*d)), with bits the precision of the mpmath context handed to the
constructor plus ``GUARD_BITS`` and d = floor(log2 M0) for the first
checkpoint M0 of its ``expansion_plan``. A tail is only evaluated at
m + 1 >= 2**d (``eval_at`` enforces it), where key q is worth
(m+1)**-q <= 2**(-q*d) of key 0, so a unit of key q's scale is worth at
most one of key 0's there and the later keys carry q*d fewer bits
(Brent & Zimmermann, Modern Computer Arithmetic, ch. 4). The scale is
linear in q, so a product of keys qf and qg still rescales by a shift of
bits. rho, the power weights' shifts and the ratio shifts stay exact
Fractions. ``sumtail`` multiplies each coefficient c_q by one row of
factors per p = rho+q: 1/(p-1), then B_2k/(2k)! (p)_{2k-1}, times
4**k - 1 for a Boole tail, each rounded once from its exact rational
value at the scale of the key it lands on. A TailCalc builds its rows on
first use and keeps them (``rows``), and so the shapes of
``ratio_asymptotics`` (``shapes``) and the tails the chain evaluators
build per suffix of their levels (``suffix_tails``). Each
PrecisionContext keeps one TailCalc per sign
(``PrecisionContext.tail_calc``), so every evaluation on a context shares
what the others built. The exact B_2k/(2k)! behind the rows, the module's
one table, come from the integer tangent numbers and also serve
``_em_series``. Only ``eval_at`` returns an mpf: it runs Horner by
integer division by m+1 and converts once, times (m+1)**-(rho + lowest
key), and keeps the value on the tail polynomial, one per m.

Series are truncated at ``qmax`` powers, and the run loop of ``chains``
takes its first checkpoint at M0; ``expansion_plan`` derives both from
the working digits D and the sign, from the truncation at the first
checkpoint. The Euler-Maclaurin coefficient of key q grows like
q!/(2 pi)^q and the Boole one faster, like q!/pi^q (DLMF 24.17, 2.10), so
dropping every key above qmax leaves about (qmax+1)!/(c M0)^(qmax+1) at
M0, c = 2 pi for a plain tail and pi for a Boole one, times a factor that
grows with the power summed. The rule keeps that below 10^-D for every
power up to 3 (relative to the tail itself), so a tail holds the working
digits from the first checkpoint on, and a power chain settles at its
second checkpoint for any tolerance its context admits. A larger M0 lets
a shorter expansion do; of the pairs that qualify, the rule takes the
cheapest by a measured cost model (kernel terms against tail-coefficient
products), with M0 at least ``MARGIN`` times qmax. A plain tail gets
M0 = 92 and qmax = 23 at 30 digits (D = 40), 268 and 60 at 100, 711 and
103 at 200; a Boole tail 112 and 28, 389 and 67, 1005 and 114.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, exp, lgamma, log, pi

from mpmath.libmp import to_fixed

from .errors import DomainError

GUARD_BITS = 32  # fixed-point bits of TailCalc beyond the context's precision

_TWO_PI = 6.283185307179586

PRODUCT_COST = 0.25  # one tail-coefficient product in kernel term steps (expansion_plan)
MARGIN = 4  # the first checkpoint is at least MARGIN * qmax (expansion_plan)
EXACT_POWER_BITS = 4096  # eval_at takes a root of (m+1)**|a| up to this size

_em_exact: list = []


def power_sum_tail(mp, p, M: int, tol):
    """sum_{m>M} m**(-p) for real p > 1 and integer M >= 1, in one pass.

    Bridge-sums explicitly up to the expansion point
    X = max(M, floor(tol_digits * ln 10 / (2 pi)) + 8), then adds the
    Euler-Maclaurin expansion at N = X+1,
    N**(1-p) (1/(p-1) + 1/(2N) + sum_k B_2k/(2k)! (p)_{2k-1} N**-2k),
    whose series runs in fixed point (``_em_series``) up to its first term
    below tol/1000, or up to its least term. The terms
    fall while p + 2k < 2 pi X, so the least term is at most about
    X e**(2 pi - 2 pi X), the worst case being p near 2 pi. Since
    X >= tol_digits * ln 10 / (2 pi) + 7, that is below tol * X e**(-12 pi),
    far under tol/1000 (a scan over 20-410 digits and p from 1.0001 to 1e5
    found at most 3e-21 tol), so the pass never needs a larger X.

    Everything but N**(1-p) is summed in integers at the scale
    2**(prec + GUARD_BITS): the mpf p is an exact binary rational, so the
    series steps by exact integer factors. An integer p takes each bridge
    term m**-p by one integer division, and stops the bridge at the first
    m whose m**p exceeds the scale; any other p takes mpf powers there.
    """
    p = mp.mpf(p)
    if p <= 1:
        raise DomainError(f"power-sum tail requires exponent > 1, got {p}")
    if M < 1:
        raise DomainError(f"tail start must satisfy M >= 1, got {M}")
    tol = mp.mpf(tol)
    tol_digits = float(-mp.log10(tol)) if tol < 1 else 1.0
    X = max(M, int(tol_digits * 2.302585 / _TWO_PI) + 8)
    N = X + 1
    bits = mp.prec + GUARD_BITS
    one = 1 << bits
    pn, pd = _binary_ratio(p)
    bridge = 0
    if pd == 1:
        for m in range(M + 1, N):
            if pn * (m.bit_length() - 1) > bits:
                break  # m**-p, and every later term, is below one unit
            bridge += one // m ** pn
    else:
        for m in range(M + 1, N):
            bridge += to_fixed(mp.power(m, -p)._mpf_, bits)
    lead = mp.power(N, 1 - p)
    # the series stops at tol/1000 of the whole tail, so at that over lead
    stop = mp.ldexp(tol / lead, bits) / 1000
    stop = int(stop) if stop < one else one
    series = _em_series(pn * one // (pd * N * N), pn, pd, (pd * N) ** 2, stop)
    bracket = pd * one // (pn - pd) + one // (2 * N) + series
    return mp.ldexp(bridge, -bits) + lead * mp.ldexp(bracket, -bits)


def expansion_plan(dps: int, alternating: bool) -> tuple:
    """(M0, qmax) for dps working digits and one sign of tail: the first
    checkpoint of a run and the number of powers every tail series keeps.

    The Boole tail of (m+1)**-p at x = M0 - 1 drops, relative to its
    leading term, about 4 M0 (p)_{2k-1} / (pi M0)^(2k) at its first
    dropped key 2k - 1 > qmax (|B_2k|/(2k)! ~ 2/(2 pi)^2k); with
    2k = qmax + 2 and p = 3 that is 2 M0 (qmax+3)! / (pi M0)^(qmax+2).
    The plain tail lacks the factor 4**k - 1 of the Boole one, so the
    rule puts 2 pi in place of pi for it. Relative to its leading term
    M0**(1-p)/(p-1) it drops about 2 (p-1) (p)_{2k-1} / (2 pi M0)^(2k),
    so that bound leaves it a factor M0 to spare. A pair is admissible
    when the bound of its sign is at most 10^-dps and M0 >= MARGIN *
    qmax. The truncation grows with p, so every power up to 3 then keeps
    the working digits relative to itself and every larger one keeps
    them absolutely (its tail, M0^-p, shrinks faster).
    For each qmax that fixes the least M0; of those pairs the rule takes
    the one of least cost 2 * M0 + PRODUCT_COST * qmax**2, kernel steps
    against tail-coefficient products per level.

    A run settles at its second checkpoint M0 + ceil(M0/8), yet the cost
    counts 2 * M0, the weight PRODUCT_COST was fitted against: costed at
    M0 + ceil(M0/8) with that weight, the rule picks (133, 26) for a
    Boole tail at 30 digits, (515, 61) at 100 and (1333, 105) at 200,
    which raised the terms a 30-digit ``verify all`` sums from 15 624 to
    18 600 and left a 100-digit pass no faster. A sweep of PRODUCT_COST
    from 0.05 to 4 (in-process ``verify_suite`` at 100 and 200 digits,
    min of 3) found no weight that beats 0.25.
    """
    bound = dps * log(10)
    log_c = log(pi if alternating else 2 * pi)
    best = None
    q = 0
    while best is None or PRODUCT_COST * q * q < best[0]:
        q += 1
        # the least M0 with 2 M0 (q+3)! / (c M0)^(q+2) <= 10^-dps
        log_m0 = (log(2) + lgamma(q + 4) - (q + 2) * log_c + bound) / (q + 1)
        if log_m0 > 690:
            continue  # an M0 past 10^299: never the cheapest
        m0 = max(ceil(exp(log_m0)), MARGIN * q)
        cost = 2 * m0 + PRODUCT_COST * q * q
        if best is None or cost < best[0]:
            best = (cost, m0, q)
    return best[1:]


def _em_fraction(k: int) -> tuple:
    """B_2k/(2k)! as an exact (numerator, denominator) pair: the reduced
    B_2k = num/den, and den * (2k)!. One table, shared by ``_em_series``
    and every scale of the sumtail rows, rebuilt to max(k, twice its
    length) when asked past its end.

    B_2j = (-1)**(j-1) 2j T_j / (4**j (4**j - 1)) with the tangent numbers
    T_j, which an O(n**2) recurrence in small integers gives all at once
    (Brent & Zimmermann, Modern Computer Arithmetic, 4.7.2).
    """
    if k > len(_em_exact):
        n = max(k, 2 * len(_em_exact))
        T = [0, 1]  # T[j] for j = 1..n
        for j in range(2, n + 1):
            T.append((j - 1) * T[j - 1])
        for i in range(2, n + 1):
            for j in range(i, n + 1):
                T[j] = (j - i) * T[j - 1] + (j - i + 2) * T[j]
        table = []
        fact = 1  # (2j)!
        for j in range(1, n + 1):
            fact *= (2 * j - 1) * (2 * j)
            b = Fraction((-1) ** (j - 1) * 2 * j * T[j], 4 ** j * (4 ** j - 1))
            table.append((b.numerator, b.denominator * fact))
        _em_exact[:] = table
    return _em_exact[k - 1]


def _em_series(g: int, a: int, b: int, c: int, stop: int) -> int:
    """sum_{k>=1} B_2k/(2k)! g_k in fixed point, for power_sum_tail and
    Stirling's series in ``numerics``: g = g_1 at the caller's scale and
    g_{k+1} = g_k (a + (2k-1) b) (a + 2k b) / c, with exact integers
    a >= 0 and b, c >= 1. g_k runs as one rounded-down integer, and each
    term is its product with B_2k/(2k)!, rounded down. The sum takes terms
    up to and including the first one below stop (in units of the scale),
    and stops before a term that is not smaller than the one before: the
    series is asymptotic, and that term is past its least one.
    """
    total = 0
    prev = None
    k = 1
    while True:
        num, den = _em_fraction(k)
        term = g * num // den
        at = abs(term)
        if prev is not None and at >= prev:
            return total
        total += term
        if at < stop:
            return total
        prev = at
        g = g * (a + (2 * k - 1) * b) * (a + 2 * k * b) // c
        k += 1


def _binary_ratio(x) -> tuple:
    """An mpf x as an exact (numerator, denominator) pair in lowest terms;
    the denominator is a power of 2."""
    sign, man, e, _ = x._mpf_
    if sign:
        man = -man
    return (man << e, 1) if e >= 0 else (man, 1 << -e)


class TailPoly:
    """Asymptotic tail polynomial: sum_q c_q * (m+1)**-(rho+q).

    rho is an exact Fraction; each coeffs[q] is an int, c_q times
    2**(bits - q*d) of the TailCalc that built it. ``values`` keeps the
    mpf values ``TailCalc.eval_at`` computed, keyed by m (None until the
    first one).
    """

    __slots__ = ("rho", "coeffs", "values")

    def __init__(self, rho, coeffs: dict):
        self.rho = rho
        self.coeffs = coeffs
        self.values = None

    def min_power(self):
        return self.rho + min(self.coeffs) if self.coeffs else None


class TailCalc:
    """Algebra of tail polynomials in fixed point at the precision of an
    mpmath context: the coefficient of key q is an int at scale
    2**(bits - q*d), with bits the context's precision plus GUARD_BITS and
    d = floor(log2 M0) bits fewer per key, for the first checkpoint M0 of
    ``expansion_plan`` of its sign (``m0``). Its tails are evaluated at
    m + 1 >= 2**d only, and its sums are all plain or all Boole
    (``alternating``).

    It keeps what it builds, for every evaluation on its context:
    ``rows``, the sumtail factor rows, keyed by (a, b) with p = a/b;
    ``shapes``, the ``ratio_asymptotics`` results, keyed by their shift
    tuples; and ``suffix_tails``, which ``chains.ChainEvaluator`` fills
    with one entry per suffix of its levels. Every entry is read only."""

    def __init__(self, mp, alternating: bool):
        self.mp = mp
        self.alternating = alternating
        self.m0, self.qmax = expansion_plan(mp.dps, alternating)
        self.bits = mp.prec + GUARD_BITS
        self.d = self.m0.bit_length() - 1
        self.rows: dict = {}
        self.shapes: dict = {}
        self.suffix_tails: dict = {}

    # -- constructors --------------------------------------------------------
    def const(self, value) -> TailPoly:
        v = Fraction(value)
        return TailPoly(Fraction(0), {0: (v.numerator << self.bits) // v.denominator})

    def pow_weight(self, k, c) -> TailPoly:
        """(m+c)**(-k) expanded around the (m+1) basis; rho = k. k and c
        are exact (int or Fraction)."""
        k = Fraction(k)
        u = 1 - Fraction(c)  # (m+c)^-k = (m+1)^-k * (1 - u/(m+1))^-k
        un, ud = u.numerator, u.denominator
        kn, kd = k.numerator, k.denominator
        d = self.d
        coeffs = {}
        term = 1 << self.bits
        for j in range(self.qmax + 1):
            if not term:
                break  # u = 0, or rounded away: every later term is 0 too
            coeffs[j] = term
            term = term * un * (kn + j * kd) // (ud * kd * (j + 1) << d)
        return TailPoly(k, coeffs)

    # -- arithmetic ----------------------------------------------------------
    def add(self, f: TailPoly, g: TailPoly) -> TailPoly:
        if f.rho != g.rho:
            raise ValueError("tail polynomials with different offsets cannot be added")
        coeffs = dict(f.coeffs)
        for q, c in g.coeffs.items():
            coeffs[q] = coeffs.get(q, 0) + c
        return TailPoly(f.rho, coeffs)

    def scale(self, f: TailPoly, s) -> TailPoly:
        """f times the exact number s (int or Fraction)."""
        s = Fraction(s)
        n, d = s.numerator, s.denominator
        return TailPoly(f.rho, {q: c * n // d for q, c in f.coeffs.items()})

    def mul(self, f: TailPoly, g: TailPoly) -> TailPoly:
        qmax = self.qmax
        acc: dict = {}
        for qf, cf in f.coeffs.items():
            for qg, cg in g.coeffs.items():
                q = qf + qg
                if q <= qmax:
                    acc[q] = acc.get(q, 0) + cf * cg
        bits = self.bits
        return TailPoly(f.rho + g.rho, {q: v >> bits for q, v in acc.items()})

    def ratio_asymptotics(self, num_shifts, den_shifts) -> TailPoly:
        """Asymptotic shape (normalized to leading coefficient 1) of a weight
        obeying w(t+1) = w(t) * prod(t + n_j) / prod(t + d_j).

        With equal factor counts the weight behaves like
        (t+1)^(-rho) * (1 + c_1/(t+1) + ...), rho = sum(d) - sum(n); the c_q
        solve a triangular recurrence obtained by matching the functional
        equation order by order. Scaling the result to the running value at
        one point makes the model exact to series-truncation order. The
        shifts are exact (int or Fraction). A shape is built once per pair of
        shift tuples and kept in ``shapes``.
        """
        key = (tuple(num_shifts), tuple(den_shifts))
        shape = self.shapes.get(key)
        if shape is not None:
            return shape
        bits, d, qmax = self.bits, self.d, self.qmax
        one = 1 << bits
        rho = sum(den_shifts, Fraction(0)) - sum(num_shifts, Fraction(0))
        # P(y) = prod(1 + (n_j - 1) y) / prod(1 + (d_j - 1) y), y^i at the
        # scale of key i
        P = [0] * (qmax + 2)
        P[0] = one
        for n in num_shifts:
            u = Fraction(n) - 1
            a, b = u.numerator, u.denominator << d
            for i in range(qmax + 1, 0, -1):
                P[i] += P[i - 1] * a // b
        for s in den_shifts:
            u = Fraction(s) - 1
            a, b = u.numerator, u.denominator << d
            # multiply by 1/(1 + u y): P <- P * sum (-u)^i y^i, in place
            for i in range(1, qmax + 2):
                P[i] -= P[i - 1] * a // b

        # binom(-q-rho, i) for i <= qmax+1-q, one column per q, entry i at
        # the scale of key i: (-q-rho-j)/(j+1) = (-(q+j)*rd - rn) / (rd*(j+1))
        rn, rd = rho.numerator, rho.denominator
        cols = []
        for q in range(qmax):
            col = [one]
            for j in range(qmax + 1 - q):
                col.append(col[j] * (-(q + j) * rd - rn) // (rd * (j + 1) << d))
            cols.append(col)

        # c_q (key q) times a y^(m-q) entry is at the scale of key m; c_(m-1)
        # is d bits above it
        c = [one]
        for m in range(2, qmax + 2):
            acc = 0
            for q in range(0, m - 1):
                acc += c[q] * (cols[q][m - q] - P[m - q])
            c.append((acc >> (bits - d)) // (m - 1))
        shape = self.shapes[key] = TailPoly(rho, dict(enumerate(c)))
        return shape

    # -- the tail-sum operator -----------------------------------------------
    def _sum_row(self, a: int, b: int, kmax: int) -> list:
        """The factors sumtail applies to the coefficient of (m+1)**-p, p = a/b:
        row[0] = 1/(p-1) (0 for a Boole tail, which has no such term) at scale
        2**(bits + d), and row[k] = B_2k/(2k)! (p)_{2k-1}, times 4**k - 1 for a
        Boole tail, at scale 2**(bits - (2k-1)*d), for k = 1..kmax, so that
        its product with the coefficient of key q, shifted down by bits, lands
        at the graded scale of its key, q-1 or q-1+2k. Each factor is rounded
        down from its exact rational value. Rows are kept in ``rows`` under
        (a, b), and extended in place when a longer one is asked for."""
        key = (a, b)
        row = self.rows.get(key)
        if row is not None and len(row) > kmax:
            return row
        bits, d, alternating = self.bits, self.d, self.alternating
        if row is None:
            row = self.rows[key] = [0 if alternating else (b << (bits + d)) // (a - b)]
        num, den = a, b  # (p)_{2k-1} = num/den, carried across the kept entries
        for k in range(1, kmax + 1):
            if k >= len(row):
                en, ed = _em_fraction(k)
                if alternating:
                    en *= 4 ** k - 1
                en *= num
                ed *= den
                s = bits - (2 * k - 1) * d  # a later key's scale may be below 2**0
                row.append((en << s) // ed if s >= 0 else en // (ed << -s))
            num *= (a + (2 * k - 1) * b) * (a + 2 * k * b)
            den *= b * b
        return row

    def sumtail(self, f: TailPoly) -> TailPoly:
        """G with G(x) = sum_{m>x} f(m); requires min power of f > 1.

        With N = x+1, sum_{m>x} (m+1)**-p = sum_{n>N} n**-p is the
        Euler-Maclaurin expansion of sum_{n>=N} n**-p less its N**-p term:
        N**(1-p)/(p-1) - N**-p/2 + sum_k B_2k/(2k)! (p)_{2k-1} N**(1-p-2k).
        Coefficient c_q (p = rho+q) therefore lands directly on keys q-1, q
        and q-1+2k, times the factors of its row (``_sum_row``), whose
        scales carry each product to the graded scale of its key; keys
        above qmax are dropped.

        On an alternating TailCalc: G with sum_{m>x} (-1)**m f(m) =
        (-1)**x G(x), for any min power > 0. The Boole summation formula
        (DLMF 24.17) gives
        -N**-p/2 + sum_k (4**k - 1) B_2k/(2k)! (p)_{2k-1} N**(1-p-2k):
        the key q-1 term is gone and key q-1+2k gains the factor 4**k - 1.
        """
        mn = f.min_power()
        if mn is None:
            return TailPoly(f.rho, {})
        alternating = self.alternating
        if mn <= (0 if alternating else 1):
            raise DomainError(f"tail-sum of a series with minimum power {mn} diverges")
        bits, qmax = self.bits, self.qmax
        rn, rd = f.rho.numerator, f.rho.denominator
        out: dict = {}
        get = out.get
        for q, cq in f.coeffs.items():
            if not cq:
                continue
            kmax = (qmax + 1 - q) // 2
            row = self._sum_row(rn + q * rd, rd, kmax)
            if q - 1 <= qmax and not alternating:
                out[q - 1] = get(q - 1, 0) + cq * row[0]
            if q <= qmax:
                out[q] = get(q, 0) - (cq << (bits - 1))  # -c_q/2
            key = q + 1
            for k in range(1, kmax + 1):
                out[key] = get(key, 0) + cq * row[k]
                key += 2
        return TailPoly(f.rho, {q: v >> bits for q, v in out.items()})

    # -- evaluation ------------------------------------------------------------
    def eval_at(self, f: TailPoly, m: int):
        """Numeric value of f at integer m, valid for m well above qmax (a
        run evaluates its tails at m + 1 >= M0 >= MARGIN * qmax, see
        ``expansion_plan``). m + 1 must be at least 2**d, where a unit of
        every key's graded scale is worth at most 2**-bits (m+1)**-rho;
        below that a tail would lose digits, so it raises DomainError.

        Horner in fixed point: moving from key prev down to key q shifts
        the running total up to q's scale by (prev-q)*d bits and divides
        it by (m+1)**(prev-q). Then one mpf conversion times (m+1)**-e,
        e = rho + lowest key. With e = a/b that power is the b-th root of
        the exact integer (m+1)**|a|, which rounds once, while that integer
        has at most EXACT_POWER_BITS bits. Past that (a parameter with many
        digits, or a large one) the power takes an mpf exponent, with
        enough extra bits that its rounding, magnified by e*log(m+1), stays
        GUARD_BITS below the working precision.

        The value is kept on f (``f.values``), so chains that share a tail
        and a checkpoint compute it once."""
        values = f.values
        if values is None:
            values = f.values = {}
        elif m in values:
            return values[m]
        mp = self.mp
        d = self.d
        n = m + 1
        if n < 1 << d:
            raise DomainError(f"tail evaluated at m + 1 = {n}, below its minimum 2**{d}")
        if not f.coeffs:
            values[m] = mp.mpf(0)
            return values[m]
        coeffs = f.coeffs
        keys = sorted(coeffs, reverse=True)
        prev = keys[0]
        total = 0
        for q in keys:
            total = (total << (prev - q) * d) // n ** (prev - q) + coeffs[q]
            prev = q
        value = mp.ldexp(mp.mpf(total), prev * d - self.bits)
        e = f.rho + prev
        a, b = e.numerator, e.denominator
        if abs(a) * n.bit_length() <= EXACT_POWER_BITS:
            power = mp.root(n ** abs(a), b)
            value = value / power if e > 0 else value * power
        else:
            lost = int(abs(e) * n.bit_length()).bit_length()
            with mp.workprec(mp.prec + GUARD_BITS + lost):
                power = mp.power(n, mp.mpf(-a) / b)
            value *= power
        values[m] = value
        return value
