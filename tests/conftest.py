import pytest

from mzsv import PrecisionContext


@pytest.fixture(scope="session")
def ctx30():
    return PrecisionContext(digits=30)


@pytest.fixture(scope="session")
def ctx50():
    return PrecisionContext(digits=50)


def close(a, b, tol):
    """|a - b| <= tol over mpf/HPReal/float operands."""
    av = getattr(a, "mpf", a)
    bv = getattr(b, "mpf", b)
    return abs(av - bv) <= tol


def tail_value(mp, calc, f, m):
    """f(m) as an mpf: ``calc.eval_at(f, m)``, f(m) (m+1)**rho at scale
    2**bits, read back and multiplied by (m+1)**-rho at twice the tail
    algebra's bits, so that the readout adds no rounding of its own."""
    with mp.workprec(2 * calc.bits):
        rho = mp.mpf(f.rho.numerator) / f.rho.denominator
        return mp.ldexp(calc.eval_at(f, m), -calc.bits) * mp.mpf(m + 1) ** -rho
