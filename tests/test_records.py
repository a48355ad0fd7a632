"""The package's records: immutable, with named fields and value equality,
and light enough that importing mzsv loads no record-building machinery."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from mzsv import (DomainError, Index, KRParamsI, KRParamsII, PrecisionContext,
                  VerificationResult)
from mzsv.chains import Level, Pow, Ratio
from mzsv.identities import ParamSpec
from mzsv.series import exact_diag

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def test_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, mzsv, mzsv.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _assert_frozen(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def _assert_value_semantics(a, b, other):
    assert a == b and hash(a) == hash(b)
    assert a != other
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_index_record():
    ix = Index(parts=[1, 2])
    assert ix.parts == (1, 2) and type(ix.parts) is tuple
    assert list(ix) == [1, 2] and ix.weight == 3 and ix.depth == 2
    assert repr(ix) == "Index(parts=(1, 2))" and str(ix) == "(1,2)"
    _assert_frozen(ix, "parts")
    with pytest.raises(AttributeError):
        del ix.parts
    _assert_value_semantics(ix, Index((1, 2)), Index((2, 1)))
    assert ix != (1, 2) and ix != ((1, 2),)
    with pytest.raises(DomainError, match="at least one part"):
        Index(())
    with pytest.raises(DomainError, match=r"positive integers: \(1, 0\)"):
        Index((1, 0))
    with pytest.raises(DomainError, match=r"positive integers: \(True,\)"):
        Index((True,))


def test_chain_records():
    half = Fraction(1, 2)
    ratio = Ratio(num_shifts=(half,), den_shifts=(Fraction(1),), init=Fraction(1))
    assert ratio == Ratio((half,), (Fraction(1),), Fraction(1))
    assert repr(ratio) == ("Ratio(num_shifts=(Fraction(1, 2),), "
                           "den_shifts=(Fraction(1, 1),), init=Fraction(1, 1))")
    _assert_frozen(ratio, "init")
    _assert_value_semantics(ratio, Ratio((half,), (1,), 1), Ratio((half,), (2,), 1))
    with pytest.raises(DomainError, match="equally many numerator and denominator"):
        Ratio((half,), (), Fraction(1))
    assert Pow(2) == Pow(k=2, shift=Fraction(0)) and Pow(2).shift == 0
    assert repr(Level()) == "Level(pows=(), ratio=None)"
    _assert_frozen(Level(ratio=ratio), "ratio")


def test_kr_param_records():
    p = KRParamsI(s=1, a="2.5", b=(1, "0.5"), c=[1, 1])
    assert p == KRParamsI(1, Fraction(5, 2), (1, Fraction(1, 2)), (1, 1))
    assert (p.s, p.a, p.b, p.c) == (1, Fraction(5, 2), (1, Fraction(1, 2)), (1, 1))
    assert type(p.b) is tuple and type(p.c) is tuple
    assert repr(p).startswith("KRParamsI(s=1, a=Fraction(5, 2), b=(Fraction(1, 1), ")
    assert p.z == -1 and KRParamsI.margin_text.startswith("(2s+1)(a+1)")
    _assert_frozen(p, "a")
    _assert_value_semantics(p, KRParamsI(1, 2.5, (1, 0.5), (1, 1)),
                            KRParamsI(1, 3, (1, 0.5), (1, 1)))
    q = KRParamsII(s=1, a=2, c0="0.5", b=(1,), c=(1,))
    assert q.c0 == Fraction(1, 2) and q.z == 1 and q.wellpoised[0] == ("c_0", q.c0)
    assert repr(q).startswith("KRParamsII(s=1, a=Fraction(2, 1), c0=Fraction(1, 2), ")
    _assert_frozen(q, "c0")
    _assert_value_semantics(q, KRParamsII(1, 2, 0.5, (1,), (1,)),
                            KRParamsII(1, 2, 1, (1,), (1,)))
    with pytest.raises(DomainError, match="b and c must have length 2 at s=1"):
        KRParamsI(s=1, a=2, b=(1,), c=(1, 1))
    with pytest.raises(DomainError, match="b and c must have length 1 at s=1"):
        KRParamsII(s=1, a=2, c0=1, b=(1, 1), c=(1,))
    with pytest.raises(DomainError, match="s must be an integer >= 1"):
        KRParamsI(s=0, a=2, b=(), c=())
    with pytest.raises(DomainError, match="cannot interpret"):
        KRParamsII(s=1, a=2, c0="x", b=(1,), c=(1,))


def test_param_spec_record():
    spec = ParamSpec("s", "int", lo=Fraction(1))
    assert spec == ParamSpec(name="s", kind="int", lo=Fraction(1), hi=None,
                             lo_open=False, hi_open=False, choices=())
    assert repr(spec) == ("ParamSpec(name='s', kind='int', lo=Fraction(1, 1), hi=None, "
                          "lo_open=False, hi_open=False, choices=())")
    assert spec.describe() == "s:int [1..]" and spec.validate("3") == 3
    _assert_frozen(spec, "lo")
    _assert_value_semantics(spec, ParamSpec("s", "int", Fraction(1)), ParamSpec("s", "int"))


def test_verification_result_record():
    ctx = PrecisionContext(digits=10)
    diag = exact_diag(ctx)
    zero = ctx.zero()
    res = VerificationResult(id="eq1", params={"s": 1}, lhs_value=zero, rhs_value=zero,
                             abs_diff=zero, tolerance=ctx.real(ctx.tol), passed=True,
                             lhs_diag=diag, rhs_diag=diag, elapsed_s=0.5)
    assert res.error is None and res.passed and res.params == {"s": 1}
    assert res == VerificationResult("eq1", {"s": 1}, zero, zero, zero, res.tolerance,
                                     True, diag, diag, 0.5, None)
    assert res != res._replace(error="boom")
    assert repr(res).startswith("VerificationResult(id='eq1', params={'s': 1}, ")
    _assert_frozen(res, "passed")
