"""Partitioned orders, their rewriting into block sequences, and schedule equivalences.

A block-parallel update schedule is a *partitioned order*: an unordered set
of ordered o-blocks covering the automata ``0..n-1``.  At substep ``t`` every
o-block contributes its element at position ``t mod len(o-block)``; one full
step consists of ``lcm`` of the o-block lengths substeps.  That rule is
written once, in :func:`_substeps`; :meth:`PartitionedOrder.substeps` walks
it over automata, ``phi`` spells a schedule out as that sequence of update
blocks, and the kernel walks it over its per-automaton slots.

Each rule is checked in one place: the :class:`PartitionedOrder` constructor
checks that the o-blocks cover ``0..n-1`` exactly once (``parse_schedule``
only decodes the text, checks its shape and infers ``n``), and
:func:`check_substeps` caps the substeps of one step for ``phi`` and the
simulator.

Two equivalences matter.  Both are decided from each automaton's place
``(j, p)``, its o-block's length and its position there, without expanding a
step.  By the rule above the automaton is updated exactly at the substeps
``t ≡ p (mod j)``, and those times determine ``(j, p)``: ``p`` is the first,
``j`` the gap to the next (the step length when there is none).

* ``equiv0``: identical block sequences -- identical dynamics for every
  network -- exactly when every automaton has the same place.
* ``equiv_star``: block sequences equal up to a circular shift -- isomorphic
  limit dynamics for every network.  A shift by ``s`` aligns them exactly
  when every automaton, at ``(j, p)`` and ``(j, p2)``, has ``p ≡ p2 + s (mod j)``.
  The Chinese remainder theorem combines these congruences, testing them for
  consistency modulo each ``gcd``; a solution is unique modulo the step
  length ``lcm``, so it is the smallest shift.
"""

from __future__ import annotations

import math
import re
from itertools import compress, cycle, filterfalse, islice
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .errors import Record, ResourceCapError, ScheduleFormatError

if TYPE_CHECKING:
    from .partitions import Partition

#: Hard ceiling on materialised substep counts; schedules built from prime
#: o-block lengths can expand to astronomically long block sequences.
DEFAULT_BLOCK_CAP = 10**6

#: The schedule classes, as ``enumeration`` and the command line name them.
CLASS_BP = "bp"
CLASS_BP0 = "bp0"
CLASS_BP_STAR = "bpstar"
CLASSES = (CLASS_BP, CLASS_BP0, CLASS_BP_STAR)


def _oblock_key(block: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (len(block), block)


def _substeps(rows, length: int) -> Iterator[tuple]:
    """Each row ``r``'s entry ``r[t mod len(r)]`` at each substep ``t < length``, lazily."""
    # Every selector is true; a range, unlike islice, counts past sys.maxsize.
    return compress(zip(*map(cycle, rows)), range(1, length + 1))


class PartitionedOrder:
    """A block-parallel update schedule (set of ordered o-blocks).

    O-blocks are kept in a canonical outer order (by length, then content)
    so that equal schedules compare and hash equal; the inner order of each
    o-block is semantic and preserved exactly.  Instances are immutable.
    """

    __slots__ = ("n", "oblocks")

    def __init__(self, n: int, oblocks: Iterable[Iterable[int]]):
        """Raises :class:`ScheduleFormatError` at the first o-block entry,
        in the order given, that breaks the cover of ``0..n-1``."""
        blocks = tuple(tuple(block) for block in oblocks)
        seen: dict[int, tuple[int, int]] = {}
        for b, block in enumerate(blocks):
            if not block:
                raise ScheduleFormatError(f"o-block {b} is empty")
            for e, idx in enumerate(block):
                if not isinstance(idx, int) or isinstance(idx, bool):
                    raise ScheduleFormatError(
                        f"o-block {b}, entry {e}: {idx!r} is not an integer"
                    )
                if idx < 0:
                    raise ScheduleFormatError(f"o-block {b}, entry {e}: negative index {idx}")
                if idx >= n:
                    raise ScheduleFormatError(
                        f"o-block {b}, entry {e}: index {idx} out of range for n={n}"
                    )
                if idx in seen:
                    pb, pe = seen[idx]
                    raise ScheduleFormatError(
                        f"o-block {b}, entry {e}: duplicate automaton {idx}"
                        f" (first seen in o-block {pb}, entry {pe})"
                    )
                seen[idx] = (b, e)
        if len(seen) != n:
            # At most ten are listed: the scan ends after len(seen) + 10 indices.
            first = list(islice(filterfalse(seen.__contains__, range(n)), 10))
            missing = n - len(seen)
            listed = (str(first) if missing == len(first)
                      else f"[{', '.join(map(str, first))}, ...] ({missing} in all)")
            raise ScheduleFormatError(f"automata missing from schedule: {listed}")
        self.n = n
        self.oblocks = tuple(sorted(blocks, key=_oblock_key))

    @classmethod
    def _from_rows(cls, n: int, rows: tuple[tuple[int, ...], ...]) -> "PartitionedOrder":
        # Fast path for enumerators: rows are already a disjoint cover of
        # 0..n-1, in canonical order.
        self = object.__new__(cls)
        self.n = n
        self.oblocks = rows
        return self

    @classmethod
    def parallel(cls, n: int) -> "PartitionedOrder":
        """The parallel schedule: every automaton in its own singleton o-block."""
        return cls._from_rows(n, tuple((i,) for i in range(n)))

    @property
    def s(self) -> int:
        """Number of o-blocks."""
        return len(self.oblocks)

    def lcm(self) -> int:
        """Number of substeps in one full step."""
        return math.lcm(*{len(block) for block in self.oblocks})

    def substeps(self) -> Iterator[tuple[int, ...]]:
        """The automata updated at each of the ``lcm`` substeps, lazily.

        At substep ``t`` every o-block contributes its element at position
        ``t mod len(o-block)``; the tuple lists them in o-block order.
        """
        return _substeps(self.oblocks, self.lcm())

    def support(self) -> Partition:
        """The integer partition given by the o-block lengths."""
        from .partitions import Partition

        return Partition.from_parts(len(block) for block in self.oblocks)

    def first_update_times(self) -> tuple[int, ...]:
        """Substep at which each automaton is first updated (its o-block position)."""
        return tuple(pos for _, pos in _places(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionedOrder):
            return NotImplemented
        return self.n == other.n and self.oblocks == other.oblocks

    def __hash__(self) -> int:
        return hash((self.n, self.oblocks))

    def __repr__(self) -> str:
        inner = ", ".join(repr(list(block)) for block in self.oblocks)
        return f"PartitionedOrder({self.n}, [{inner}])"

    def __reduce__(self):
        return (PartitionedOrder, (self.n, self.oblocks))


class BlockSequence(Record):
    """An ordered sequence of update blocks; each block is a sorted index tuple."""

    __slots__ = _fields = ("n", "blocks")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        normalised = []
        for block in blocks:
            block = tuple(sorted(block))
            if not block:
                raise ValueError("empty update block")
            if block[0] < 0 or block[-1] >= n:
                raise ValueError(f"block {block} out of range for n={n}")
            if len(set(block)) != len(block):
                raise ValueError(f"block {block} repeats an automaton")
            normalised.append(block)
        super().__init__(n, tuple(normalised))

    def __len__(self) -> int:
        return len(self.blocks)


def check_substeps(mu: PartitionedOrder, cap: Optional[int]) -> None:
    """Raise :class:`ResourceCapError` if one step of ``mu`` expands to more
    than ``cap`` substeps; ``cap=None`` means no cap."""
    length = mu.lcm()
    if cap is not None and length > cap:
        raise ResourceCapError(
            f"one step expands to {length} substeps, above the cap of {cap}"
        )


def phi(mu: PartitionedOrder, cap: Optional[int] = DEFAULT_BLOCK_CAP) -> BlockSequence:
    """Rewrite a partitioned order into its substep block sequence.

    The result has ``lcm`` of the o-block lengths blocks, each of cardinality
    equal to the number of o-blocks.  Raises :class:`ResourceCapError` when
    that length exceeds ``cap`` (pass ``cap=None`` to force materialisation).
    """
    check_substeps(mu, cap)
    return BlockSequence(mu.n, tuple(mu.substeps()))


class MatrixRepresentation(Record):
    """O-blocks grouped by length: one matrix per part size, rows are o-blocks.

    ``matrices`` holds one ``(j, rows)`` pair per part size ``j``, ascending.
    """

    __slots__ = _fields = ("n", "matrices")

    def matrix(self, j: int) -> tuple[tuple[int, ...], ...]:
        """Rows of the matrix with ``j`` columns (empty if no o-block has length j)."""
        for size, rows in self.matrices:
            if size == j:
                return rows
        return ()

    def part_sizes(self) -> tuple[int, ...]:
        return tuple(size for size, _ in self.matrices)


def matrix_repr(mu: PartitionedOrder) -> MatrixRepresentation:
    """Group the o-blocks of ``mu`` by length, canonical row order within a matrix."""
    groups: dict[int, list[tuple[int, ...]]] = {}
    for block in mu.oblocks:
        groups.setdefault(len(block), []).append(block)
    matrices = tuple((j, tuple(rows)) for j, rows in sorted(groups.items()))
    return MatrixRepresentation(mu.n, matrices)


def _require_same_n(mu: PartitionedOrder, mu2: PartitionedOrder) -> None:
    if mu.n != mu2.n:
        raise ValueError(f"schedules act on different sizes: {mu.n} vs {mu2.n}")


def _places(mu: PartitionedOrder) -> list[tuple[int, int]]:
    """``(len(o-block), position)`` of each automaton, in automaton order."""
    places = [(0, 0)] * mu.n
    for block in mu.oblocks:
        for pos, i in enumerate(block):
            places[i] = (len(block), pos)
    return places


def equiv0(mu: PartitionedOrder, mu2: PartitionedOrder) -> bool:
    """Dynamical equality: do the two schedules have identical block sequences?"""
    _require_same_n(mu, mu2)
    return _places(mu) == _places(mu2)


def equiv_star(mu: PartitionedOrder, mu2: PartitionedOrder) -> Optional[int]:
    """Limit isomorphism: smallest shift aligning the block sequences, or None.

    Shift 0 coincides with :func:`equiv0`.
    """
    _require_same_n(mu, mu2)
    residues: dict[int, int] = {}
    for (j, p), (j2, p2) in zip(_places(mu), _places(mu2)):
        if j != j2 or residues.setdefault(j, (p - p2) % j) != (p - p2) % j:
            return None
    shift, modulus = 0, 1
    for j, residue in residues.items():
        g = math.gcd(modulus, j)
        if (residue - shift) % g:
            return None
        k = j // g
        shift += modulus * ((residue - shift) // g * pow(modulus // g, -1, k) % k)
        modulus *= k
    return shift


def is_bs_intersection(seq: BlockSequence) -> bool:
    """Is this block sequence both block-sequential and a rewritten partitioned order?

    True exactly when the blocks form an ordered partition of ``0..n-1``
    (pairwise disjoint, covering) and all blocks have the same cardinality.
    """
    sizes = {len(block) for block in seq.blocks}
    if len(sizes) != 1:
        return False
    seen: set[int] = set()
    for block in seq.blocks:
        for i in block:
            if i in seen:
                return False
            seen.add(i)
    return len(seen) == seq.n


def _plain_oblocks(text: str) -> Optional[list[list[int]]]:
    """The arrays of ``text`` when it is plain: integers in arrays in one
    array, in JSON's syntax, with JSON whitespace between tokens; otherwise
    None, and ``parse_schedule`` hands the text to ``json``.

    The text is read with ``split`` and ``int``, then checked: with its
    whitespace deleted it must be the canonical text of what was read, and
    no whitespace may stand inside a number.  So every spelling that
    ``json`` reads otherwise or refuses (``01``, ``+1``, ``1.0``, ``1e3``,
    ``-0``, non-ASCII digits, ``true``, nested arrays) goes to ``json``.
    """
    compact = text
    for space in " \t\n\r":
        compact = compact.replace(space, "")
    if len(compact) < len(text) and re.search(r"[-0-9][ \t\n\r]+[-0-9]", text):
        return None
    try:
        oblocks = [list(map(int, block.split(","))) if block else []
                   for block in compact[2:-2].split("],[")]
    except ValueError:
        return None
    return oblocks if format_oblocks(oblocks) == compact else None


def parse_schedule(text: str, n: Optional[int] = None) -> PartitionedOrder:
    """Parse the schedule text format: a JSON array of arrays of automaton indices.

    Inner arrays are o-blocks whose order is significant; outer order is not.
    ``n`` defaults to one more than the largest index mentioned.  Plain
    integer arrays are read without loading ``json`` (``_plain_oblocks``);
    any other text goes to ``json.loads``, so every error is its own.
    """
    data = _plain_oblocks(text)
    if data is None:
        import json

        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScheduleFormatError(f"invalid JSON: {exc}") from exc
        except RecursionError:
            raise ScheduleFormatError("invalid JSON: arrays nested too deeply") from None
    if not isinstance(data, list) or not data:
        raise ScheduleFormatError("schedule must be a non-empty array of o-blocks")
    for b, block in enumerate(data):
        if not isinstance(block, list):
            raise ScheduleFormatError(f"o-block {b} is not an array")
    if n is None:
        n = 1 + max((i for block in data for i in block if type(i) is int), default=-1)
    return PartitionedOrder(n, data)


def format_oblocks(oblocks: Iterable[tuple[int, ...]]) -> str:
    """O-blocks in the schedule text format, e.g. ``[[0],[1,2]]``."""
    return "[[" + "],[".join([",".join(map(str, block)) for block in oblocks]) + "]]"


def serialize_schedule(mu: PartitionedOrder) -> str:
    """Render a schedule in the text format, o-blocks in canonical order."""
    return format_oblocks(mu.oblocks)
