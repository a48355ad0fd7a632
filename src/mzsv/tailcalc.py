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
  (``alternating``) for all its sums. A product by a power weight
  (m+c)**-k takes no dense product: ``pow_weight`` runs the tail through
  k first-order passes over its keys, one small factor per key, so
  ``mul`` is left for the product of two general tails (a ratio shape
  and the tail of the levels outside it). Nested-series evaluators
  expand their truncation remainder into a short chain of such
  operations, so the remainder of a dynamic-programming chain is
  corrected analytically instead of by brute-force term counts.

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
build per suffix of their levels (``suffix_tails``, keyed by those
levels' exact shifts, ``chains.level_view``). A ratio shape is built from
its reduced shifts: a shift on both sides cancels, a pair n, n + j with
j a whole number becomes the power passes of prod_{i<j} (m+n+i)**-1, and
only the shifts left take the O(qmax**2) recurrence, so ratios with the
same reduction share one shape and a ratio that telescopes takes none. Each
PrecisionContext keeps one TailCalc per sign
(``PrecisionContext.tail_calc``), so every evaluation on a context shares
what the others built. The exact B_2k/(2k)! behind the rows, the module's
one table, come from the integer tangent numbers and also serve
``_em_series``. ``eval_at`` runs Horner by integer division by m+1 and
returns f(m) (m+1)**rho, the value without its power, as an int at scale
2**bits, finished times (m+1)**-(lowest key) in one floor; the caller
divides by an integer power of m+1, or by none where the powers of
pinned ratio shapes cancel, so no tail takes an mpf or a root. It keeps
each value on the tail polynomial, one per m.

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
from math import ceil, exp, isqrt, lgamma, log, pi
from operator import mul

from mpmath.libmp import to_fixed

from .errors import DomainError

GUARD_BITS = 32  # fixed-point bits of TailCalc beyond the context's precision

_TWO_PI = 6.283185307179586

PRODUCT_COST = 0.25  # one tail-coefficient product in kernel term steps (expansion_plan)
MARGIN = 4  # the first checkpoint is at least MARGIN * qmax (expansion_plan)
# values a TailPoly keeps (eval_at): more than a run's checkpoints, fewer
# than the bounds that finite sums on one context may ask for
VALUES_KEPT = 32

_em_exact: list = []    # B_2k/(2k)!, k = 1, 2, ... (``_em_fraction``)
_em_state: list = [[], 1, 1]  # the tangent recurrence's last column, n!, (2n)!


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
    m whose m**p exceeds the scale; a half-integer p = a/2 takes it as the
    integer square root of one**2 // m**a, the exact floor, and stops once
    m**a exceeds one**2; any other p takes mpf powers there.
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
    elif pd == 2:  # one * m**-(pn/2), floored exactly: isqrt(one**2 // m**pn)
        for m in range(M + 1, N):
            if pn * (m.bit_length() - 1) > 2 * bits:
                break
            bridge += isqrt((one << bits) // m ** pn)
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
    and every scale of the sumtail rows, grown one entry at a time up to k
    when asked past its end; no entry is ever computed twice.

    B_2j = (-1)**(j-1) 2j T_j / (4**j (4**j - 1)) with the tangent numbers
    T_j, from the O(n**2) recurrence in small integers of Brent &
    Zimmermann, Modern Computer Arithmetic, 4.7.2: T_j^(1) = (j-1)!, and
    T_j^(i) = (j-i) T_(j-1)^(i) + (j-i+2) T_j^(i-1) for i = 2..j, with
    T_j = T_j^(j). Column j needs only column j - 1, so ``_em_state``
    keeps the last column [T_n^(1), ..., T_n^(n)], n! and (2n)!, n the
    table's length, and the next entry costs one column of n + 1 products.
    """
    while k > len(_em_exact):
        col, fact, fact2 = _em_state
        j = len(_em_exact) + 1      # the entry to add, from column j - 1
        new = [fact]
        # at i = j the term (j - i) T_(j-1)^(i) vanishes: column j - 1 ends at i = j - 1
        for i, t in zip(range(2, j + 1), col[1:] + [0]):
            new.append((j - i) * t + (j - i + 2) * new[-1])
        fact2 *= (2 * j - 1) * (2 * j)
        b = Fraction((-1) ** (j - 1) * 2 * j * new[-1], 4 ** j * (4 ** j - 1))
        _em_exact.append((b.numerator, b.denominator * fact2))
        _em_state[:] = [new, fact * j, fact2]
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


def _reduced_ratio(num_shifts, den_shifts, jmax: int) -> tuple:
    """The key ``TailCalc.ratio_asymptotics`` builds a shape under: (the
    numerator shifts left, the denominator shifts left, the peeled
    (c, k) pairs), each sorted. A shift on both sides cancels, repeats
    counted. Then each denominator shift d, in ascending order, takes the
    largest numerator shift n left with d - n a whole number j, 1 <= j <=
    jmax, and the pair becomes the factors (t+c)**-1, c = n .. d - 1,
    counted k times per c. Nothing peels a pair whose step passes jmax:
    its j passes would cost more than the recurrence they save."""
    dens = sorted(Fraction(s) for s in den_shifts)
    nums = []
    for n in sorted(Fraction(s) for s in num_shifts):
        if n in dens:
            dens.remove(n)
        else:
            nums.append(n)
    left = []
    peeled: dict = {}
    for s in dens:
        steps = [n for n in nums if (s - n).denominator == 1 and 1 <= s - n <= jmax]
        if not steps:
            left.append(s)
            continue
        n = max(steps)
        nums.remove(n)
        for i in range(int(s - n)):
            peeled[n + i] = peeled.get(n + i, 0) + 1
    return tuple(nums), tuple(left), tuple(sorted(peeled.items()))


class TailPoly:
    """Asymptotic tail polynomial: sum_q c_q * (m+1)**-(rho+q).

    rho is an exact Fraction; each coeffs[q] is an int, c_q times
    2**(bits - q*d) of the TailCalc that built it. The coefficients never
    change once the poly is built. ``values`` keeps up to VALUES_KEPT
    values ``TailCalc.eval_at`` computed, keyed by m, and ``keys`` the
    keys in the descending order its Horner pass takes them (both None
    until the first evaluation).
    """

    __slots__ = ("rho", "coeffs", "values", "keys")

    def __init__(self, rho, coeffs: dict):
        self.rho = rho
        self.coeffs = coeffs
        self.values = None
        self.keys = None

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
    ``rows``, the sumtail factor rows, keyed by (a, b) with p = a/b, and
    ``row_ends``, the exact Pochhammer product each row resumes from;
    ``shapes``, the ``ratio_asymptotics`` results, keyed by their shift
    tuples and by their reduction (``_reduced_ratio``), so shift lists
    that reduce alike share one; ``suffix_tails``, which
    ``chains.ChainEvaluator`` fills with one entry per suffix of its
    levels; ``segment_tails``, the harmonic-product tails T_0, T_1, ... of
    ``chains.WeightedChainEvaluator``, one list per power p; and
    ``finite_words``, where
    ``finite_sums._tail_route`` keeps each word it met once, keyed by (word,
    strict), with its evaluator and its value at infinity. A row grows at
    its end, and its ``row_ends`` entry moves with it; an evaluator there
    has its inner prefix values reset on each use; every other entry is
    read only."""

    def __init__(self, mp, alternating: bool):
        self.alternating = alternating
        self.m0, self.qmax = expansion_plan(mp.dps, alternating)
        self.bits = mp.prec + GUARD_BITS
        self.d = self.m0.bit_length() - 1
        self.rows: dict = {}
        self.row_ends: dict = {}
        self.shapes: dict = {}
        self.suffix_tails: dict = {}
        self.segment_tails: dict = {}
        self.finite_words: dict = {}

    # -- constructors --------------------------------------------------------
    def const(self, value) -> TailPoly:
        v = Fraction(value)
        return TailPoly(Fraction(0), {0: (v.numerator << self.bits) // v.denominator})

    def pow_weight(self, k: int, c, f: TailPoly | None = None) -> TailPoly:
        """f * (m+c)**(-k), with f = 1 by default; k is an int >= 0 and c is
        exact (int or Fraction).

        (m+c)**-1 = (m+1)**-1 / (1 - u/(m+1)) with u = 1 - c, so a product
        by it raises rho by one and takes the coefficients through one
        first-order pass, g_q = f_q + u g_(q-1), over the keys from f's
        lowest up to qmax; at the graded scale u g_(q-1) also drops d
        bits, and it is rounded down once. k such passes make the product
        by (m+c)**-k, each key within k + 1 units of its scale of the exact
        product, in k * (qmax + 1) steps of a small factor where a
        dense product by the binomial series of (m+c)**-k takes about
        qmax**2 / 2 big-integer products. Past f's highest key a pass
        stops at its first zero, after which f adds nothing, so from the
        constant 1 the keys end where (m+c)**-k rounds away. With u = 0
        (c = 1) every pass is the identity and f's coefficients come back
        exact.
        """
        if f is None:
            f = TailPoly(Fraction(0), {0: 1 << self.bits})
        coeffs = f.coeffs
        rho = f.rho + k
        u = 1 - Fraction(c)
        if not u or not k or not coeffs:
            return TailPoly(rho, coeffs)
        un, ud = u.numerator, u.denominator << self.d
        lo = min(coeffs)
        span = self.qmax - lo + 1  # keys lo..qmax
        vals = [coeffs.get(q, 0) for q in range(lo, min(max(coeffs), self.qmax) + 1)]
        for _ in range(k):
            g = 0
            out = []
            for fq in vals:
                g = fq + g * un // ud
                out.append(g)
            while len(out) < span:
                g = g * un // ud
                if not g:
                    break
                out.append(g)
            vals = out
        return TailPoly(rho, dict(enumerate(vals, lo)))

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
        (t+1)^(-rho) * (1 + c_1/(t+1) + ...), rho = sum(d) - sum(n). Scaling
        the result to the running value at one point makes the model exact
        to series-truncation order. The shifts are exact (int or Fraction).

        The shifts are reduced first (``_reduced_ratio``): a shift on both
        sides cancels, and a numerator shift n paired with a denominator
        shift d = n + j, j a positive integer up to qmax, is the exact
        weight prod_{i<j} (t+n+i)**-1, which ``pow_weight`` applies, one
        pass per factor. Only the shifts left go through the triangular
        recurrence (``_ratio_shape``); a ratio that telescopes completely
        runs none. Every peeled c = n + i lies in [n, d), so |c - 1| <=
        max(|n - 1|, |d - 1|): the first checkpoint of a chain with this
        ratio, at least twice every |shift - 1|
        (``chains.first_checkpoint``), is inside the reach of each pass.

        A shape is built once per reduction and kept in ``shapes`` under
        both keys: the raw shift tuples and (sorted numerator remainder,
        sorted denominator remainder, peeled (c, k) pairs), so permuted
        lists and ratios with the same reduction share one TailPoly. The
        remainder's own shape is kept too, with no peeled pairs, so ratios
        that differ only in their peeled pairs run one recurrence.
        """
        key = (tuple(num_shifts), tuple(den_shifts))
        shape = self.shapes.get(key)
        if shape is not None:
            return shape
        reduced = _reduced_ratio(num_shifts, den_shifts, self.qmax)
        shape = self.shapes.get(reduced)
        if shape is None:
            nums, dens, peeled = reduced
            shape = self.shapes.get((nums, dens, ()))
            if shape is None:
                shape = self.shapes[nums, dens, ()] = (
                    self._ratio_shape(nums, dens) if nums
                    else TailPoly(Fraction(0), {0: 1 << self.bits}))
            for c, k in peeled:
                shape = self.pow_weight(k, c, shape)
            self.shapes[reduced] = shape
        self.shapes[key] = shape
        return shape

    def _ratio_shape(self, num_shifts, den_shifts) -> TailPoly:
        """The shape of ``ratio_asymptotics`` by its general recurrence: the
        c_q solve a triangular recurrence obtained by matching the
        functional equation order by order, in O(qmax**2) big-integer
        products."""
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

        # c_(m-1) = sum_q c_q (binom(-q-rho, m-q) - P[m-q]) / (m-1), q < m-1.
        # binom(-q-rho, i) runs down column q by (-q-rho-j)/(j+1) =
        # (-(q+j)*rd - rn) / (rd*(j+1)), entry i at the scale of key i, and
        # each entry less P[i] joins the anti-diagonal m = q + i it serves
        # (entry 1 lands after the c_q of its diagonal exist, and map stops
        # at c's end). c_q (key q) times an entry of diagonal m is at the
        # scale of key m; c_(m-1) is d bits above it. The sums are exact, so
        # their order does not change a bit
        rn, rd = rho.numerator, rho.denominator
        nums = [-k * rd - rn for k in range(qmax + 1)]
        dens = [rd * j << d for j in range(1, qmax + 2)]
        diags = [[] for _ in range(qmax + 2)]
        for q in range(qmax):
            x = one
            m = q
            for a, b, p in zip(nums[q:], dens, P[1:]):
                x = x * a // b
                m += 1
                diags[m].append(x - p)
        c = [one]
        for m in range(2, qmax + 2):
            c.append((sum(map(mul, c, diags[m])) >> (bits - d)) // (m - 1))
        return TailPoly(rho, dict(enumerate(c)))

    # -- the tail-sum operator -----------------------------------------------
    def _sum_row(self, a: int, b: int, kmax: int) -> list:
        """The factors sumtail applies to the coefficient of (m+1)**-p, p = a/b:
        row[0] = 1/(p-1) (0 for a Boole tail, which has no such term) at scale
        2**(bits + d), and row[k] = B_2k/(2k)! (p)_{2k-1}, times 4**k - 1 for a
        Boole tail, at scale 2**(bits - (2k-1)*d), for k = 1..kmax, so that
        its product with the coefficient of key q, shifted down by bits, lands
        at the graded scale of its key, q-1 or q-1+2k. Each factor is rounded
        down from its exact rational value. Rows are kept in ``rows`` under
        (a, b), and extended in place when a longer one is asked for: the
        exact (p)_{2k-1} of the first missing entry, as a numerator and a
        denominator, is kept in ``row_ends`` under the same key, so an
        extension starts where the row stopped."""
        key = (a, b)
        row = self.rows.get(key)
        if row is not None and len(row) > kmax:
            return row
        bits, d, alternating = self.bits, self.d, self.alternating
        if row is None:
            row = self.rows[key] = [0 if alternating else (b << (bits + d)) // (a - b)]
            num, den = a, b  # (p)_1
        else:
            num, den = self.row_ends[key]
        for k in range(len(row), kmax + 1):
            en, ed = _em_fraction(k)
            if alternating:
                en *= 4 ** k - 1
            en *= num
            ed *= den
            s = bits - (2 * k - 1) * d  # a later key's scale may be below 2**0
            row.append((en << s) // ed if s >= 0 else en // (ed << -s))
            num *= (a + (2 * k - 1) * b) * (a + 2 * k * b)
            den *= b * b
        self.row_ends[key] = (num, den)
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
    def eval_at(self, f: TailPoly, m: int) -> int:
        """f(m) * (m+1)**rho, the value of f at integer m without its power,
        as an int at scale 2**bits; valid for m well above qmax (a run
        evaluates its tails at m + 1 >= M0 >= MARGIN * qmax, see
        ``expansion_plan``). m + 1 must be at least 2**d, where a unit of
        every key's graded scale is worth at most 2**-bits (m+1)**-rho;
        below that a tail would lose digits, so it raises DomainError.

        Horner in fixed point: moving from key prev down to key q shifts
        the running total up to q's scale by (prev-q)*d bits and divides
        it by (m+1)**(prev-q). The finish multiplies the total, at the
        scale of the lowest key prev, by (m+1)**-prev and brings it to
        scale 2**bits in one floor: ``(total << prev*d) // n**prev`` for
        prev >= 0 and ``total * n**-prev >> -prev*d`` below. The value is off by less
        than one unit of 2**-bits beyond the Horner rounding. The caller
        divides by the power (m+1)**rho, an integer one for a power level
        (by one more floor, which gives the floor of the whole quotient)
        and none at all for a pinned ratio level, whose fractional powers
        cancel (``chains.ChainEvaluator.tail_correction``).

        The value is kept on f (``f.values``, keyed by m), so chains that
        share a tail and a checkpoint compute it once, and so is the
        descending key order of the Horner pass (``f.keys``), sorted at the
        first evaluation. Past VALUES_KEPT values the kept ones start
        over, so that finite sums at ever new bounds do not grow them
        without end."""
        values = f.values
        if values is None:
            values = f.values = {}
            f.keys = sorted(f.coeffs, reverse=True)
        elif m in values:
            return values[m]
        d = self.d
        n = m + 1
        if n < 1 << d:
            raise DomainError(f"tail evaluated at m + 1 = {n}, below its minimum 2**{d}")
        coeffs = f.coeffs
        keys = f.keys
        prev = keys[0] if keys else 0
        total = 0
        for q in keys:
            total = (total << (prev - q) * d) // n ** (prev - q) + coeffs[q]
            prev = q
        if prev >= 0:
            value = (total << prev * d) // n ** prev
        else:
            value = total * n ** -prev >> -prev * d
        if len(values) >= VALUES_KEPT:
            values.clear()
        values[m] = value
        return value
