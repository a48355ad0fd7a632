"""Compositions of positive integers used as series indices.

An index (k_1, ..., k_n) is written innermost-first: k_1 weights the
smallest summation variable and k_n the outermost one, so the plain series
converges exactly when k_n >= 2. The text grammar accepts a repetition
suffix, e.g. ``"1^2,3,2^2"`` -> (1,1,3,2,2); a count of zero contributes
nothing.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Tuple

from .errors import DomainError, ParseError

_ITEM_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


class Index:
    """A non-empty composition of positive integers; a bool is not a part.
    Immutable; two indices are equal when their parts are."""

    __slots__ = ("parts",)

    def __init__(self, parts: Tuple[int, ...]):
        if not parts:
            raise DomainError("index must have at least one part")
        if any(isinstance(p, bool) or not isinstance(p, int) or p < 1 for p in parts):
            raise DomainError(f"index parts must be positive integers: {parts}")
        object.__setattr__(self, "parts", tuple(int(p) for p in parts))

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.parts == other.parts if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((self.parts,))

    def __repr__(self):
        return f"Index(parts={self.parts!r})"

    def __reduce__(self):
        return Index, (self.parts,)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    def render(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __str__(self):
        return "(" + self.render() + ")"

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)


def parse_index(text: str) -> Index:
    """Parse the comma/repetition grammar into an expanded Index."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty index text")
    parts: List[int] = []
    for item in text.strip().split(","):
        item = item.strip()
        m = _ITEM_RE.match(item)
        if not m:
            raise ParseError(f"malformed index item {item!r}")
        value = int(m.group(1))
        count = int(m.group(2)) if m.group(2) is not None else 1
        if value < 1:
            raise ParseError(f"index parts must be >= 1, got {value}")
        parts.extend([value] * count)
    if not parts:
        raise ParseError(f"index {text!r} expands to nothing")
    return Index(tuple(parts))


def admissible(ix: Index, alternating: bool = False) -> bool:
    """Convergence test: last part >= 2, except that the alternating sign
    on the outermost variable makes every index admissible."""
    if alternating:
        return True
    return ix.parts[-1] >= 2


def coarsenings(ix: Index) -> List[Index]:
    """All 2^(depth-1) merges of adjacent parts, in binary-counter order.

    Gap i (between parts i and i+1) corresponds to bit i, least significant
    first; bit 0 keeps the comma, bit 1 merges by addition. Summing the
    strict-inequality series over all coarsenings recovers the weak one.
    """
    parts = ix.parts
    gaps = len(parts) - 1
    out: List[Index] = []
    for mask in range(1 << gaps):
        merged = [parts[0]]
        for i in range(gaps):
            if (mask >> i) & 1:
                merged[-1] += parts[i + 1]
            else:
                merged.append(parts[i + 1])
        out.append(Index(tuple(merged)))
    return out


def compositions(total: int, parts: int) -> List[Tuple[int, ...]]:
    """All compositions of `total` into exactly `parts` positive integers,
    lexicographically ordered."""
    if parts < 1 or parts > total:
        raise DomainError(f"need 1 <= parts <= total, got parts={parts}, total={total}")
    out: List[Tuple[int, ...]] = []

    def rec(prefix: Tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(1, remaining - slots + 2):
            rec(prefix + (first,), remaining - first, slots - 1)

    rec((), total, parts)
    return out
