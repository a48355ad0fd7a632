"""Precision contexts and the high-precision real scalar type.

Every numeric quantity in the package is an :class:`HPReal` bound to a
:class:`PrecisionContext`. A context owns a private mpmath context whose
working precision is ``digits + guard`` decimal digits; results are only
rounded down to ``digits`` when rendered as text. Mixing values from two
different contexts raises ``ContextMismatchError`` instead of silently
computing at whichever precision happens to win.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from math import log10
from typing import Union

# mpmath is unused here; perfbench/worker.py reads mzsv.context.mpmath's
# __version__ and libmp.BACKEND for its facts line
import mpmath  # noqa: F401
from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_rational, round_nearest, to_str

from .errors import ContextMismatchError, DomainError, ParseError
from .tailcalc import TailCalc

Real = Union["HPReal", int, float, str, Fraction]

_LOG10_2 = log10(2)
# the largest |exponent| of a decimal string that as_fraction and
# PrecisionContext.real read: 10^e is an integer of 3.3 e bits, which takes
# about 5 ms to build at this bound and 415 MB at 10^9
EXPONENT_MAX = 10 ** 5
# an int or Fraction with a numerator or denominator of more bits than this
# prints in exponent form in an error message (``_exact_text``)
_TEXT_BITS_MAX = 1024
# outside text an error message repeats is cut after this many characters (``_echo``)
_ECHO_CHARS = 60
# a value of more binary magnitude than this prints by ``_exponent_text``:
# past it mpmath's nstr builds a power of ten with as many digits as the
# exponent has, which takes time quadratic in them
_NSTR_BITS_MAX = 3500
# ``_decimal_string`` divides by 2**k as 1 << k below this, as _EXACT.power(2, k) from it on
_SHIFT_BITS_MAX = 1000
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def as_fraction(x) -> Fraction:
    """x as an exact Fraction: the one reader of a caller's exact argument.

    It takes what Fraction takes but a bool: an int, a Fraction, a float at
    its exact binary value, a Decimal, and a decimal or a/b string. A string
    or Decimal whose exponent is past EXPONENT_MAX, or anything else, raises
    DomainError.
    """
    if not isinstance(x, bool):
        if isinstance(x, (str, Decimal)) and abs(_exponent(str(x))) > EXPONENT_MAX:
            raise DomainError(f"{_echo(x)}: exponent beyond +-{EXPONENT_MAX}")
        try:
            return Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise DomainError(f"cannot interpret {_echo(x)} as an exact real parameter")


def as_int(value, name: str, lo: int) -> int:
    """value as an int >= lo, for an integer argument of a public entry point.

    A value of any exact integer worth (2, 2.0, Fraction(4, 2)) passes; a
    bool, a non-integral value (2.5), one below lo, or one as_fraction does
    not read raises DomainError instead of being truncated.
    """
    try:
        frac = as_fraction(value)
        if frac.denominator == 1 and frac >= lo:
            return int(frac)
    except DomainError:
        pass
    raise DomainError(f"{name} must be an integer >= {lo}, got {_echo(value)}")


def _exact_text(x) -> str:
    """An exact int or Fraction as an error message prints it: str(x), or
    its exponent form at 15 significant digits once its numerator or
    denominator passes _TEXT_BITS_MAX bits (about 308 digits), as
    ``_decimal_string`` turns to exponent form for a large value. as_fraction
    reads values of up to 10^EXPONENT_MAX, and str() of an int of more than
    4 300 digits raises ValueError, so no message prints one in full."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if max(abs(num), den).bit_length() <= _TEXT_BITS_MAX:
        return str(x)
    return to_str(from_rational(num, den, 53, round_nearest), 15)


def _echo(x) -> str:
    """A caller's value as an error message repeats it: an int or Fraction
    (not a bool) by ``_exact_text``; anything else by repr, whole up to
    _ECHO_CHARS characters and else as its head and its length, so that no
    message grows with the text it quotes."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return _exact_text(x)
    text = repr(x)
    if len(text) <= _ECHO_CHARS:
        return text
    return f"{text[:_ECHO_CHARS]}... ({len(text)} characters)"


class PrecisionContext:
    """Working-precision policy: output digits, guard digits, loop caps, tolerance.

    digits    -- requested output decimal digits (>= 10)
    guard     -- extra working digits used internally (>= 5, default 10)
    max_terms -- hard cap on any single summation loop (default 10**8)
    tol       -- target absolute tolerance (default 10**-digits)

    A context also memoises the finished series evaluations run on it
    (``chains._run_evaluator``), so it is cheap to evaluate one series
    several times on one context. It keeps Gamma at each fractional part
    that ``numerics.gamma`` met (``gammas``), zeta and Gamma at each exact
    argument that ``series.zeta`` and ``numerics.gamma`` met, as raw mpfs
    under ("zeta" or "gamma", argument) (``scalars``), one context per
    digit count that ``numerics.derivative_at`` raises it to
    (``raised(digits)``) and
    the chain evaluators' tail algebra alike: one TailCalc per sign, plain
    or alternating (``tail_calc(alternating)``), each with what it built;
    the plain one also keeps each finite-sum word once, with its evaluator
    and value at infinity (``finite_sums._tail_route``).
    ``exact_floor`` holds the error, 10^-(working_digits - 2), that every
    closed-form quantity on the context reports (``series.exact_diag``; None
    until the first is asked for).

    Nothing a context keeps refers back to it, so it is freed as soon as
    the last value on it goes: a kept finite-sum evaluator holds it through
    a weak proxy (``finite_sums._tail_route``), a diagnostics record, whose
    HPReals refer to it, is built per call, and the memo and ``scalars``
    hold raw mpfs, never an HPReal.
    """

    __slots__ = ("digits", "guard", "max_terms", "_mp", "tol", "_tol_repr",
                 "evaluations", "gammas", "scalars", "_raised", "_tail_calcs",
                 "exact_floor", "__weakref__")

    def __init__(self, digits: int = 30, guard: int = 10,
                 max_terms: int = 10 ** 8, tol=None):
        self.digits = as_int(digits, "digits", 10)
        self.guard = as_int(guard, "guard", 5)
        self.max_terms = as_int(max_terms, "max_terms", 10 ** 3)
        mp = MPContext()
        try:
            mp.dps = self.working_digits
        except OverflowError:  # mpmath sizes its precision through a float
            raise DomainError("digits + guard is more than mpmath can hold") from None
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
        self.scalars: dict = {}
        self._raised: dict = {}
        self._tail_calcs: dict = {}
        self.exact_floor = None

    @property
    def working_digits(self) -> int:
        return self.digits + self.guard

    @property
    def mp(self) -> MPContext:
        """The private mpmath context (working precision)."""
        return self._mp

    def raised(self, digits: int) -> "PrecisionContext":
        """A context of `digits` digits with this one's guard and max_terms,
        made on the first call for that count and kept with this one."""
        if digits not in self._raised:
            self._raised[digits] = PrecisionContext(digits, self.guard, self.max_terms)
        return self._raised[digits]

    def tail_calc(self, alternating: bool) -> TailCalc:
        """The tail algebra of one sign at this precision, made on the first
        call for that sign and kept."""
        calc = self._tail_calcs.get(alternating)
        if calc is None:
            calc = self._tail_calcs[alternating] = TailCalc(self._mp, alternating)
        return calc

    def real(self, x: Real) -> "HPReal":
        """Coerce a number into this context.

        Strings are parsed as exact decimals before rounding; floats are
        taken at their exact binary value. A bool, a non-finite value
        (nan, inf) or a string whose exponent is past EXPONENT_MAX raises
        DomainError.
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
            if isinstance(x, str) and abs(_exponent(x)) > EXPONENT_MAX:
                raise DomainError(f"{_echo(x)}: exponent beyond +-{EXPONENT_MAX}")
            try:
                v = mp.mpf(x)
            except (TypeError, ValueError, ZeroDivisionError):
                raise ParseError(f"cannot read {_echo(x)} as a real number") from None
            if not mp.isfinite(v):
                raise DomainError(f"{_echo(x)} is not a finite real number")
        return HPReal(v, self)

    # mpmath's own constants: an mpf never changes, so every HPReal may share one
    def zero(self) -> "HPReal":
        return HPReal(self._mp.zero, self)

    def one(self) -> "HPReal":
        return HPReal(self._mp.one, self)

    def __repr__(self):
        return (f"PrecisionContext(digits={self.digits}, guard={self.guard}, "
                f"max_terms={self.max_terms}, tol={self._tol_repr})")


def _exponent(text: str) -> int:
    """The exponent of a decimal string as mpmath reads it, or 0."""
    _, e, tail = text.lower().strip().rstrip("l").partition("e")
    try:
        return int(tail) if e else 0
    except ValueError:
        return 0


def _decimal_string(mp, x, sig: int) -> str:
    """Fixed-point decimal rendering with `sig` significant digits.

    Plain decimal notation for 10**-EXPONENT_MAX <= |x| < 10**6 (no exponent
    form, as diffable reports need): the digits of one ``decimal`` division
    of man by 2**-exp, correctly rounded half to even. Outside that range,
    mpmath's string form, decided from the binary exponent so that no
    leading zeros or power of ten are built for a tiny value; past
    2**_NSTR_BITS_MAX and below 10**-EXPONENT_MAX it comes from
    ``_exponent_text``, which builds no power of ten either.
    """
    sign, man, exp, bc = x._mpf_
    if not man:  # zero, or nan and +-inf, which libmp marks by bc < 0
        return str(x) if bc else "0." + "0" * (sig - 1)
    # past 2**_NSTR_BITS_MAX, or |x| < 2**(bc+exp) <= 10**-EXPONENT_MAX (an
    # int compares with a float exactly, however large)
    if bc + exp > _NSTR_BITS_MAX or bc + exp < -EXPONENT_MAX / _LOG10_2:
        return _exponent_text(mp, x, sig)
    if bc + exp > 20:  # |x| >= 2**20 > 10**6
        return mp.nstr(x, sig)
    rounding = _rounding(sig)
    if exp >= 0:
        q = rounding.plus(man << exp)
    else:  # Decimal(1 << k) takes time quadratic in k; power(2, k) does not
        q = rounding.divide(man, 1 << -exp if -exp < _SHIFT_BITS_MAX
                            else _EXACT.power(2, -exp))
    d10 = q.adjusted()  # 10**d10 <= |x| rounded < 10**(d10 + 1)
    if d10 >= 6:
        return mp.nstr(x, sig)
    return ("-" if sign else "") + format(q, f".{max(sig - 1 - d10, 0)}f")


@lru_cache(maxsize=64)
def _rounding(sig: int) -> Context:
    """Half-even rounding to `sig` digits, kept: one costs a third of a rendering."""
    return Context(prec=sig, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _exponent_text(mp, x, sig: int) -> str:
    """mp.nstr(x, sig) for a value of any binary exponent, in time linear
    in the exponent's digits: the same digits, rounding and layout.

    The decimal exponent e10 = floor(log10|x|) and the fraction
    f = log10|x| - e10 come from one logarithm at as many bits as the
    binary exponent has plus 4 per digit; the digits are
    floor(10**(f + sig + 2)), sig + 3 of them, rounded up at digit sig + 1
    from 5 on, as nstr rounds its own sig + 3 truncated digits. An
    exponent within nstr's fixed-point range, -max(sig // 3, 5) < e10 <
    sig, is small, so that case is left to nstr. An exponent of more
    digits than Python's int-to-string limit prints as ``_exact_text``
    prints a large int."""
    sign, man, exp, bc = x._mpf_
    with mp.workprec((bc + exp).bit_length() + 4 * sig + 64):
        lg = mp.log10(abs(x))
        e10 = int(mp.floor(lg))
        frac = lg - e10
    if -max(sig // 3, 5) < e10 < sig:
        return mp.nstr(x, sig)
    with mp.workprec(4 * sig + 64):
        digits = str(int(mp.power(10, frac + (sig + 2))))
    e10 += len(digits) - (sig + 3)  # 10**f rounded up to 10
    head = digits[:sig]
    if digits[sig] in "56789":
        head = str(int(head) + 1)
        if len(head) > sig:
            head = head[:sig]
            e10 += 1
    body = (head[0] + "." + head[1:]).rstrip("0")
    if body.endswith("."):
        body += "0"
    try:
        power = str(e10)
    except ValueError:  # past Python's int-to-string digit limit
        power = _exact_text(e10)
    return ("-" if sign else "") + body + ("e+" if e10 >= 0 else "e") + power


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

    def _operand(self, other):
        """other as an operand of + - * /, ** or a comparison with this
        value's mpf.

        A plain int of at most the context's binary precision in bits goes
        to mpmath as it is: mpmath takes an int exactly and rounds the
        result once, and coercion would round nothing, so the result is the
        same mpf. Anything else (a bool, a larger int, a Fraction, a str,
        a float, an HPReal) goes through ctx.real, which also rejects an
        HPReal of another context."""
        if type(other) is int and other.bit_length() <= self.ctx._mp.prec:
            return other
        return self.ctx.real(other)._v

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        return HPReal(self._v + self._operand(other), self.ctx)

    __radd__ = __add__

    def __sub__(self, other):
        return HPReal(self._v - self._operand(other), self.ctx)

    def __rsub__(self, other):
        return HPReal(self._operand(other) - self._v, self.ctx)

    def __mul__(self, other):
        return HPReal(self._v * self._operand(other), self.ctx)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return HPReal(self._v / self._operand(other), self.ctx)

    def __rtruediv__(self, other):
        return HPReal(self._operand(other) / self._v, self.ctx)

    def __pow__(self, other):
        return HPReal(self.ctx.mp.power(self._v, self._operand(other)), self.ctx)

    def __rpow__(self, other):
        return HPReal(self.ctx.mp.power(self._operand(other), self._v), self.ctx)

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
    def __eq__(self, other):
        try:
            return self._v == self._operand(other)
        except ContextMismatchError:
            raise
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other):
        return self._v < self._operand(other)

    def __le__(self, other):
        return self._v <= self._operand(other)

    def __gt__(self, other):
        return self._v > self._operand(other)

    def __ge__(self, other):
        return self._v >= self._operand(other)

    def __hash__(self):
        # an mpf hashes as an equal int, float or Fraction, as == needs; equal
        # values of two contexts meet in __eq__, which raises for them
        return hash(self._v)

    # -- conversions --------------------------------------------------------
    def __float__(self):
        return float(self._v)

    def decimal(self, digits: int | None = None) -> str:
        """Decimal string rounded to `digits` significant digits, an integer
        >= 1 (``as_int``), or to the context's output digits if None."""
        sig = self.ctx.digits if digits is None else as_int(digits, "digits", 1)
        return _decimal_string(self.ctx.mp, self._v, sig)

    def __repr__(self):
        return f"HPReal({self.decimal()})"

    def __str__(self):
        return self.decimal()
