"""Integer partitions: the supports of block-parallel schedules.

A partition of ``n`` describes the multiset of o-block lengths of a
block-parallel schedule on ``n`` automata.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import Record


class Partition(Record):
    """An integer partition of ``n``, parts stored in descending order.

    ``multiplicities`` is the dense multiplicity table: entry ``j`` is m(j),
    for ``0 <= j <= d``.  Entry 0 is always 0; inner entries may be 0 (a
    missing part size).
    """

    __slots__ = ("n", "parts", "multiplicities")
    _fields = ("n", "parts")

    def __init__(self, n: int, parts: tuple[int, ...]):
        if n < 1:
            raise ValueError(f"partition total must be positive, got {n}")
        if not parts:
            raise ValueError("a partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive integers: {parts!r}")
        if sum(parts) != n:
            raise ValueError(f"parts {parts!r} do not sum to {n}")
        super().__init__(n, tuple(sorted(parts, reverse=True)))
        table = [0] * (self.d + 1)
        for p in parts:
            table[p] += 1
        object.__setattr__(self, "multiplicities", tuple(table))

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "Partition":
        parts = tuple(parts)
        return cls(sum(parts), parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the diagnostic form, e.g. ``"2+2+3"``."""
        try:
            parts = tuple(int(piece) for piece in text.split("+"))
        except ValueError as exc:
            raise ValueError(f"bad partition text {text!r}") from exc
        return cls.from_parts(parts)

    @property
    def d(self) -> int:
        """Largest part size."""
        return self.parts[0]

    def m(self, j: int) -> int:
        """Multiplicity of part size ``j`` (0 outside ``1..d``)."""
        if 1 <= j <= self.d:
            return self.multiplicities[j]
        return 0

    def part_sizes(self) -> tuple[int, ...]:
        """Distinct part sizes present, descending."""
        return tuple(j for j in range(self.d, 0, -1) if self.multiplicities[j])

    def lcm(self) -> int:
        """Least common multiple of the distinct part sizes."""
        return math.lcm(*set(self.parts))

    def label(self) -> str:
        """Diagnostic form: parts ascending, joined by ``+``."""
        return "+".join(str(p) for p in sorted(self.parts))


def lcm_of(p: Partition) -> int:
    """Least common multiple of the part sizes with nonzero multiplicity."""
    return p.lcm()


def partitions_of(n: int) -> Iterator[Partition]:
    """Yield every integer partition of ``n`` exactly once.

    Order is descending-lexicographic on the (descending) part lists, so
    ``(n,)`` comes first and ``(1,)*n`` last.  For n=4:
    [4], [3,1], [2,2], [2,1,1], [1,1,1,1].
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    for parts in rec(n, n):
        yield Partition(n, parts)
