"""Precision contexts and the high-precision real scalar type.

Every numeric quantity in the package is an :class:`HPReal` bound to a
:class:`PrecisionContext`. A context owns a private mpmath context whose
working precision is ``digits + guard`` decimal digits; results are only
rounded down to ``digits`` when rendered as text. Mixing values from two
different contexts raises ``ContextMismatchError`` instead of silently
computing at whichever precision happens to win.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

# mpmath is unused here; perfbench/worker.py reads mzsv.context.mpmath's
# __version__ and libmp.BACKEND for its facts line
import mpmath  # noqa: F401
from mpmath.ctx_mp import MPContext

from .errors import ContextMismatchError, DomainError, ParseError
from .tailcalc import TailCalc

Real = Union["HPReal", int, float, str, Fraction]


def as_int(value, name: str, lo: int) -> int:
    """value as an int >= lo, for an integer argument of a public entry point.

    A value of any exact integer worth (2, 2.0, Fraction(4, 2)) passes; a
    bool, a non-integral value (2.5) or one below lo raises DomainError
    instead of being truncated.
    """
    if not isinstance(value, bool):
        try:
            frac = Fraction(value)
        except (TypeError, ValueError, OverflowError):
            frac = None
        if frac is not None and frac.denominator == 1 and frac >= lo:
            return int(frac)
    raise DomainError(f"{name} must be an integer >= {lo}, got {value!r}")


class PrecisionContext:
    """Working-precision policy: output digits, guard digits, loop caps, tolerance.

    digits    -- requested output decimal digits (>= 10)
    guard     -- extra working digits used internally (>= 5, default 10)
    max_terms -- hard cap on any single summation loop (default 10**8)
    tol       -- target absolute tolerance (default 10**-digits)

    A context also memoises the finished series evaluations run on it
    (``chains._run_evaluator``), so it is cheap to evaluate one series
    several times on one context. It keeps Gamma at each fractional part
    that ``numerics.gamma`` met (``gammas``), the tripled context of
    ``numerics.derivative_at`` (``tripled()``) and the chain evaluators'
    tail algebra with its factor rows (``tail_calc()``) the same way.
    """

    __slots__ = ("digits", "guard", "max_terms", "_mp", "tol", "_tol_repr",
                 "evaluations", "gammas", "_tripled", "_tail_calc")

    def __init__(self, digits: int = 30, guard: int = 10,
                 max_terms: int = 10 ** 8, tol=None):
        self.digits = as_int(digits, "digits", 10)
        self.guard = as_int(guard, "guard", 5)
        self.max_terms = as_int(max_terms, "max_terms", 10 ** 3)
        mp = MPContext()
        mp.dps = self.digits + self.guard
        self._mp = mp
        if tol is None:
            self.tol = mp.mpf(10) ** (-self.digits)
            self._tol_repr = f"1e-{self.digits}"
        else:
            self.tol = self.real(tol).mpf
            if not self.tol > 0:
                raise DomainError(f"tol must be positive, got {tol}")
            self._tol_repr = str(tol)
        self.evaluations: dict = {}
        self.gammas: dict = {}
        self._tripled = None
        self._tail_calc = None

    @property
    def working_digits(self) -> int:
        return self.digits + self.guard

    @property
    def mp(self) -> MPContext:
        """The private mpmath context (working precision)."""
        return self._mp

    def tripled(self) -> "PrecisionContext":
        """A context with three times the digits and the same guard and
        max_terms, made on the first call and kept with this one."""
        if self._tripled is None:
            self._tripled = PrecisionContext(3 * self.digits, self.guard,
                                             self.max_terms)
        return self._tripled

    def tail_calc(self) -> TailCalc:
        """The tail algebra at this precision, made on the first call and kept."""
        if self._tail_calc is None:
            self._tail_calc = TailCalc(self._mp)
        return self._tail_calc

    def real(self, x: Real) -> "HPReal":
        """Coerce a number into this context.

        Strings are parsed as exact decimals before rounding; floats are
        taken at their exact binary value. A bool or a non-finite value
        (nan, inf) raises DomainError.
        """
        if isinstance(x, HPReal):
            if x.ctx is not self:
                raise ContextMismatchError("value belongs to a different PrecisionContext")
            return x
        if isinstance(x, bool):
            raise DomainError(f"{x!r} is not a real number")
        mp = self._mp
        if isinstance(x, Fraction):
            v = mp.mpf(x.numerator) / x.denominator
        else:
            try:
                v = mp.mpf(x)
            except (TypeError, ValueError, ZeroDivisionError):
                raise ParseError(f"cannot read {x!r} as a real number") from None
            if not mp.isfinite(v):
                raise DomainError(f"{x!r} is not a finite real number")
        return HPReal(v, self)

    def zero(self) -> "HPReal":
        return HPReal(self._mp.mpf(0), self)

    def one(self) -> "HPReal":
        return HPReal(self._mp.mpf(1), self)

    def __repr__(self):
        return (f"PrecisionContext(digits={self.digits}, guard={self.guard}, "
                f"max_terms={self.max_terms}, tol={self._tol_repr})")


def _decimal_string(mp, x, sig: int) -> str:
    """Fixed-point decimal rendering with `sig` significant digits.

    Plain decimal notation for |x| < 10**6 (no exponent form, as required
    for diffable reports); falls back to mpmath's string form above that.
    """
    if mp.isnan(x) or mp.isinf(x):
        return str(x)
    if x == 0:
        return "0." + "0" * (sig - 1)
    # decimal magnitude d10: 10^d10 <= |x| < 10^(d10+1)
    d10 = int(mp.floor(mp.log10(abs(x))))
    if d10 >= 6:  # before the exact rational, which has about d10 digits
        return mp.nstr(x, sig)
    sign, man, exp, _ = x._mpf_
    # exact binary rational man * 2**exp
    num, den = man, 1
    if exp >= 0:
        num = man << exp
    else:
        den = 1 << (-exp)
    # round-half-even integer of |x| * 10^(sig-1-d10)
    shift = sig - 1 - d10
    if shift >= 0:
        num *= 10 ** shift
    else:
        den *= 10 ** (-shift)
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    digits = str(q)
    if len(digits) != sig:  # rounding bumped the magnitude (e.g. 9.99 -> 10.0)
        d10 += len(digits) - sig
        digits = digits[:sig]
    if d10 >= 6:
        return mp.nstr(x, sig)
    body: str
    if d10 >= 0:
        if d10 + 1 >= len(digits):
            body = digits + "0" * (d10 + 1 - len(digits))
        else:
            body = digits[:d10 + 1] + "." + digits[d10 + 1:]
    else:
        body = "0." + "0" * (-d10 - 1) + digits
    return ("-" if sign else "") + body


class HPReal:
    """An arbitrary-precision real tied to a PrecisionContext.

    Arithmetic is correct to within one unit in the last working digit
    (mpmath round-to-nearest at the context's working precision).
    """

    __slots__ = ("_v", "ctx")

    def __init__(self, value, ctx: PrecisionContext):
        self._v = value
        self.ctx = ctx

    @property
    def mpf(self):
        """The underlying mpmath value at working precision."""
        return self._v

    def _coerce(self, other) -> "HPReal":
        if isinstance(other, HPReal):
            if other.ctx is not self.ctx:
                raise ContextMismatchError(
                    "cannot combine HPReal values from different contexts")
            return other
        return self.ctx.real(other)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        return HPReal(self._v + self._coerce(other)._v, self.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        return HPReal(self._v - self._coerce(other)._v, self.ctx)

    def __rsub__(self, other):
        return HPReal(self._coerce(other)._v - self._v, self.ctx)

    def __mul__(self, other):
        return HPReal(self._v * self._coerce(other)._v, self.ctx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return HPReal(self._v / self._coerce(other)._v, self.ctx)

    def __rtruediv__(self, other):
        return HPReal(self._coerce(other)._v / self._v, self.ctx)

    def __pow__(self, other):
        return HPReal(self.ctx.mp.power(self._v, self._coerce(other)._v), self.ctx)

    def __rpow__(self, other):
        return HPReal(self.ctx.mp.power(self._coerce(other)._v, self._v), self.ctx)

    def __neg__(self):
        return HPReal(-self._v, self.ctx)

    def __abs__(self):
        return HPReal(abs(self._v), self.ctx)

    def ln(self) -> "HPReal":
        if self._v <= 0:
            raise DomainError("ln requires a positive argument")
        return HPReal(self.ctx.mp.ln(self._v), self.ctx)

    def exp(self) -> "HPReal":
        return HPReal(self.ctx.mp.exp(self._v), self.ctx)

    def sqrt(self) -> "HPReal":
        if self._v < 0:
            raise DomainError("sqrt requires a non-negative argument")
        return HPReal(self.ctx.mp.sqrt(self._v), self.ctx)

    # -- comparisons --------------------------------------------------------
    def _cmp_value(self, other):
        return self._coerce(other)._v

    def __eq__(self, other):
        try:
            return self._v == self._cmp_value(other)
        except ContextMismatchError:
            raise
        except (TypeError, ValueError):
            return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __lt__(self, other):
        return self._v < self._cmp_value(other)

    def __le__(self, other):
        return self._v <= self._cmp_value(other)

    def __gt__(self, other):
        return self._v > self._cmp_value(other)

    def __ge__(self, other):
        return self._v >= self._cmp_value(other)

    def __hash__(self):
        return hash((self._v, id(self.ctx)))

    # -- conversions --------------------------------------------------------
    def __float__(self):
        return float(self._v)

    def decimal(self, digits: int | None = None) -> str:
        """Decimal string rounded to the context's output digits."""
        return _decimal_string(self.ctx.mp, self._v, digits or self.ctx.digits)

    def __repr__(self):
        return f"HPReal({self.decimal()})"

    def __str__(self):
        return self.decimal()
