import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsv import (DomainError, Index, ParseError, PrecisionContext, admissible,
                  coarsenings, compositions, mzsv, parse_index)


def test_parse_examples():
    assert parse_index("1,2").parts == (1, 2)
    assert parse_index("2^3").parts == (2, 2, 2)
    assert parse_index("1^2,3,2^2").parts == (1, 1, 3, 2, 2)


def test_parse_zero_count_contributes_nothing():
    assert parse_index("1^0,2").parts == (2,)


def test_parse_errors():
    for bad in ("", "a,b", "1,,2", "0", "2^", "-1", "1^0"):
        with pytest.raises(ParseError):
            parse_index(bad)


def test_index_invariants():
    ix = Index((1, 3, 2))
    assert ix.weight == 6
    assert ix.depth == 3
    with pytest.raises(DomainError):
        Index(())
    with pytest.raises(DomainError):
        Index((0, 2))


def test_bool_parts_are_rejected():
    # True is an int to isinstance; as for context.as_int it is not a part
    for parts in ((True, 2), (1, False), (True,)):
        with pytest.raises(DomainError):
            Index(parts)
    with pytest.raises(DomainError):
        mzsv(Index((True, 2)), PrecisionContext(digits=30))
    assert parse_index("1,2") == Index((1, 2))
    assert type(parse_index("1^2,3").parts[0]) is int


def test_admissible():
    assert admissible(Index((1, 2)), alternating=False)
    assert not admissible(Index((2, 1)), alternating=False)
    assert admissible(Index((2, 1)), alternating=True)


def test_coarsenings_examples():
    assert [c.parts for c in coarsenings(Index((1, 2)))] == [(1, 2), (3,)]
    assert [c.parts for c in coarsenings(Index((2,)))] == [(2,)]
    assert [c.parts for c in coarsenings(Index((1, 1, 2)))] == [
        (1, 1, 2), (2, 2), (1, 3), (4,)]


def test_compositions_examples():
    assert compositions(3, 2) == [(1, 2), (2, 1)]
    assert compositions(4, 1) == [(4,)]
    assert compositions(4, 3) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_compositions_domain():
    with pytest.raises(DomainError):
        compositions(3, 4)
    with pytest.raises(DomainError):
        compositions(3, 0)


def test_composition_counting_law():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert len(compositions(n, k)) == math.comb(n - 1, k - 1)


index_strategy = st.lists(st.integers(min_value=1, max_value=9),
                          min_size=1, max_size=6).map(tuple)


@given(index_strategy)
@settings(max_examples=80, deadline=None)
def test_coarsenings_count_and_weight(parts):
    ix = Index(parts)
    cs = coarsenings(ix)
    assert len(cs) == 2 ** (ix.depth - 1)
    assert all(c.weight == ix.weight for c in cs)
    assert len({c.parts for c in cs}) >= 1


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                max_size=10).filter(lambda p: sum(p) <= 10).map(tuple))
@settings(max_examples=80, deadline=None)
def test_parse_render_roundtrip(parts):
    ix = Index(parts)
    assert parse_index(ix.render()).parts == ix.parts
