"""Euler-Maclaurin tail machinery for nested-series truncation.

Two layers:

* :func:`power_sum_tail` evaluates ``sum_{m>M} m**(-p)`` to a requested
  tolerance by summing a short bridge up to the point where the asymptotic
  Euler-Maclaurin expansion has a minimum term below tolerance, then adding
  the expansion. This backs ``series.zeta`` and the public ``zeta_tail``
  operation.

* :class:`TailCalc` manipulates asymptotic *tail polynomials*: functions of
  an integer m of the form ``F(m) = sum_q c_q * (m+1)**-(rho+q)`` with a
  fixed real offset ``rho >= 0`` and integer keys ``q``. The class supports
  products, sums, and the tail-sum operator ``F -> (x -> sum_{m>x} F(m))``,
  which is closed on this representation: each power (m+1)**-p sums to the
  Euler-Maclaurin expansion of ``sum_{n>N} n**-p`` at N = x+1, whose terms
  are again powers of (x+1). The alternating tail
  ``x -> sum_{m>x} (-1)**m F(m)`` is (-1)**x times a tail polynomial too,
  by the Boole summation formula, so one operator serves both kinds of
  sum. Nested-series evaluators expand their truncation remainder into a
  short chain of such operations, so the remainder of a dynamic-programming
  chain is corrected analytically instead of by brute-force term counts.

Coefficients live in the mpmath context handed to the constructor; series
are truncated at ``qmax = max(18, (dps + 14) // 3 + 1)`` powers: at m ~ 500
that is below working precision at 30 digits, but only about 1e-101 at 100
digits, where the Euler-Maclaurin coefficients outgrow 500^-qmax. The
Boole coefficients grow faster still (about q!/pi^q against q!/(2 pi)^q),
so at 100 digits an alternating tail holds about 104 digits.
"""

from __future__ import annotations

from .errors import ConvergenceError, DomainError

_TWO_PI = 6.283185307179586

_em_cache: dict = {}


def _em_factors(mp, kmax: int) -> list:
    """B_2k/(2k)! for k = 1..kmax (index k-1): one list per precision,
    shared by every TailCalc and power_sum_tail, extended on demand. The
    values live in a private clone of the first caller's context, so a
    later precision change of that context cannot alter them."""
    if mp.prec not in _em_cache:
        _em_cache[mp.prec] = (mp.clone(), [])
    work, em = _em_cache[mp.prec]
    for k in range(len(em) + 1, kmax + 1):
        em.append(work.bernoulli(2 * k) / work.factorial(2 * k))
    return em


def _em_expansion_point(tol_digits: float, M: int) -> int:
    # smallest X where the EM minimum term ~ e^(-2*pi*X) clears the target
    need = int(tol_digits * 2.302585 / _TWO_PI) + 8
    return max(M, need)


def power_sum_tail(mp, p, M: int, tol):
    """sum_{m>M} m**(-p) for real p > 1 and integer M >= 1.

    Bridge-sums explicitly up to the Euler-Maclaurin expansion point, then
    adds the asymptotic expansion truncated at its first term below ``tol``
    (minimum-term guarded: if the expansion stalls above tolerance the
    expansion point is pushed outward and the computation retried).
    """
    p = mp.mpf(p)
    if p <= 1:
        raise DomainError(f"power-sum tail requires exponent > 1, got {p}")
    if M < 1:
        raise DomainError(f"tail start must satisfy M >= 1, got {M}")
    tol = mp.mpf(tol)
    tol_digits = float(-mp.log10(tol)) if tol < 1 else 1.0
    X = _em_expansion_point(tol_digits, M)
    for _ in range(6):
        bridge = mp.mpf(0)
        for m in range(M + 1, X + 1):
            bridge += mp.mpf(m) ** (-p)
        base = mp.mpf(X + 1)
        total = base ** (1 - p) / (p - 1) + base ** (-p) / 2
        # Bernoulli correction terms; asymptotic, so stop at the minimum term
        prev = mp.inf
        term_ok = False
        k = 1
        rf = p  # (p)_{2k-1} built incrementally
        while True:
            term = _em_factors(mp, k)[k - 1] * rf * base ** (1 - p - 2 * k)
            at = abs(term)
            if at >= prev:
                break  # divergence onset; min term reached
            total += term
            prev = at
            if at < tol * mp.mpf("1e-3"):
                term_ok = True
                break
            rf *= (p + 2 * k - 1) * (p + 2 * k)
            k += 1
        if term_ok or prev < tol:
            return bridge + total
        X *= 2  # min term was not small enough; expand the bridge
    raise ConvergenceError(
        f"Euler-Maclaurin tail did not reach tolerance {tol} for exponent {p}")


class TailPoly:
    """Asymptotic tail polynomial: sum_q coeffs[q] * (m+1)**-(rho+q)."""

    __slots__ = ("rho", "coeffs")

    def __init__(self, rho, coeffs: dict):
        self.rho = rho
        self.coeffs = coeffs

    def min_power(self):
        return self.rho + min(self.coeffs) if self.coeffs else None


class TailCalc:
    """Algebra of tail polynomials over a fixed mpmath context."""

    def __init__(self, mp):
        self.mp = mp
        self.qmax = max(18, (mp.dps + 14) // 3 + 1)

    # -- constructors --------------------------------------------------------
    def const(self, value) -> TailPoly:
        return TailPoly(self.mp.mpf(0), {0: self.mp.mpf(value)})

    def pow_weight(self, k, c) -> TailPoly:
        """(m+c)**(-k) expanded around the (m+1) basis; rho = k."""
        mp = self.mp
        k = mp.mpf(k)
        u = mp.mpf(1) - c  # (m+c)^-k = (m+1)^-k * (1 - u/(m+1))^-k with u = 1-c
        coeffs = {}
        term = mp.mpf(1)
        for j in range(self.qmax + 1):
            if term:
                coeffs[j] = term
            term = term * u * (k + j) / (j + 1)
        return TailPoly(k, coeffs)

    # -- arithmetic ----------------------------------------------------------
    def add(self, f: TailPoly, g: TailPoly) -> TailPoly:
        if f.rho != g.rho:
            raise ValueError("tail polynomials with different offsets cannot be added")
        coeffs = dict(f.coeffs)
        for q, c in g.coeffs.items():
            coeffs[q] = coeffs.get(q, self.mp.mpf(0)) + c
        return TailPoly(f.rho, coeffs)

    def scale(self, f: TailPoly, s) -> TailPoly:
        s = self.mp.mpf(s)
        return TailPoly(f.rho, {q: c * s for q, c in f.coeffs.items()})

    def mul(self, f: TailPoly, g: TailPoly) -> TailPoly:
        qmax = self.qmax
        coeffs = {}
        zero = self.mp.mpf(0)
        for qf, cf in f.coeffs.items():
            for qg, cg in g.coeffs.items():
                q = qf + qg
                if q <= qmax:
                    coeffs[q] = coeffs.get(q, zero) + cf * cg
        return TailPoly(f.rho + g.rho, coeffs)

    def ratio_asymptotics(self, num_shifts, den_shifts, rho) -> TailPoly:
        """Asymptotic shape (normalized to leading coefficient 1) of a weight
        obeying w(t+1) = w(t) * prod(t + n_j) / prod(t + d_j).

        With equal factor counts the weight behaves like
        (t+1)^(-rho) * (1 + c_1/(t+1) + ...), rho = sum(d) - sum(n); the c_q
        solve a triangular recurrence obtained by matching the functional
        equation order by order. Scaling the result to the running value at
        one point makes the model exact to series-truncation order.
        """
        mp = self.mp
        rho = mp.mpf(rho)
        qmax = self.qmax
        # P(y) = prod(1 + (n_j - 1) y) / prod(1 + (d_j - 1) y)
        P = [mp.mpf(0)] * (qmax + 2)
        P[0] = mp.mpf(1)
        for n in num_shifts:
            u = mp.mpf(n) - 1
            for i in range(qmax + 1, 0, -1):
                P[i] += P[i - 1] * u
        for d in den_shifts:
            u = mp.mpf(d) - 1
            # multiply by 1/(1 + u y): P <- P * sum (-u)^i y^i, in place
            for i in range(1, qmax + 2):
                P[i] -= P[i - 1] * u

        # binom(-q-rho, i) for i <= qmax+1-q, one column per q
        cols = []
        for q in range(qmax):
            x = -q - rho
            col = [mp.mpf(1)]
            for j in range(qmax + 1 - q):
                col.append(col[j] * ((x - j) / (j + 1)))
            cols.append(col)

        c = {0: mp.mpf(1)}
        for m in range(2, qmax + 2):
            acc = mp.mpf(0)
            for q in range(0, m - 1):
                acc += c[q] * (cols[q][m - q] - P[m - q])
            c[m - 1] = acc / (m - 1)
        return TailPoly(rho, {q: v for q, v in c.items() if q <= qmax})

    # -- the tail-sum operator -----------------------------------------------
    def sumtail(self, f: TailPoly, alternating: bool = False) -> TailPoly:
        """G with G(x) = sum_{m>x} f(m); requires min power of f > 1.

        With N = x+1, sum_{m>x} (m+1)**-p = sum_{n>N} n**-p is the
        Euler-Maclaurin expansion of sum_{n>=N} n**-p less its N**-p term:
        N**(1-p)/(p-1) - N**-p/2 + sum_k B_2k/(2k)! (p)_{2k-1} N**(1-p-2k).
        Coefficient c_q (p = rho+q) therefore lands directly on keys q-1, q
        and q-1+2k; keys above qmax are dropped.

        alternating: G with sum_{m>x} (-1)**m f(m) = (-1)**x G(x), for any
        min power > 0. The Boole summation formula (DLMF 24.17) gives
        -N**-p/2 + sum_k (4**k - 1) B_2k/(2k)! (p)_{2k-1} N**(1-p-2k):
        the key q-1 term is gone and key q-1+2k gains the factor 4**k - 1.
        """
        mp = self.mp
        mn = f.min_power()
        if mn is None:
            return TailPoly(f.rho, {})
        if mn <= (0 if alternating else 1):
            raise DomainError(f"tail-sum of a series with minimum power {mn} diverges")
        qmax = self.qmax
        em = _em_factors(mp, (qmax + 1 - min(f.coeffs)) // 2)
        zero = mp.mpf(0)
        out: dict = {}
        for q, cq in f.coeffs.items():
            if not cq:
                continue
            p = f.rho + q
            if q - 1 <= qmax and not alternating:
                out[q - 1] = out.get(q - 1, zero) + cq / (p - 1)
            if q <= qmax:
                out[q] = out.get(q, zero) - cq / 2
            rf = cq * p  # c_q * (p)_{2k-1}, built incrementally
            k = 1
            while q - 1 + 2 * k <= qmax:
                key = q - 1 + 2 * k
                fac = em[k - 1] * (4 ** k - 1) if alternating else em[k - 1]
                out[key] = out.get(key, zero) + rf * fac
                rf *= (p + 2 * k - 1) * (p + 2 * k)
                k += 1
        return TailPoly(f.rho, out)

    # -- evaluation ------------------------------------------------------------
    def eval_at(self, f: TailPoly, m: int):
        """Numeric value of f at integer m (valid for m well above qmax)."""
        mp = self.mp
        y = mp.mpf(1) / (m + 1)
        # Horner over (possibly sparse) integer keys
        keys = sorted(f.coeffs)
        total = mp.mpf(0)
        prev = None
        for q in reversed(keys):
            if prev is None:
                total = f.coeffs[q]
            else:
                total = total * y ** (prev - q) + f.coeffs[q]
            prev = q
        if prev is None:
            return mp.mpf(0)
        total *= y ** prev
        if f.rho:
            total *= y ** f.rho
        return total
