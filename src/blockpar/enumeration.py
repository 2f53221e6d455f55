"""Streaming, duplicate-free enumeration of the three schedule classes.

Each enumerator walks the integer partitions of ``n`` in canonical order and
fills one matrix per part size, largest part first.  Matrix rows become
o-blocks.  The three classes differ only in how a matrix may be filled:

* ``bp``      -- rows are arbitrary ordered sequences, up to row permutation;
* ``bp0``     -- columns are chosen as unordered sets (written ascending), so
                 exactly one representative per dynamical-equality class comes
                 out;
* ``bpstar``  -- like ``bp0``, but the minimum element of each matrix must
                 land within its first ``a[j]`` columns, where the budgets
                 ``a[j]`` come from a gcd/lcm scan over the part sizes.  This
                 cuts each limit-isomorphism class down to one representative.

Both column classes share one filler: ``bp0`` is the ``bpstar`` filler with
every budget ``a[j] = j``, which leaves the minimum free.

Streams are lazy single-consumer generators with a deterministic order for a
fixed ``n`` and class.
"""

from __future__ import annotations

import multiprocessing
from itertools import combinations, permutations
from math import comb, factorial, gcd, lcm
from typing import Iterator, Optional

from .partitions import Partition, partitions_of
from .schedule import PartitionedOrder, serialize_schedule

CLASS_BP = "bp"
CLASS_BP0 = "bp0"
CLASS_BP_STAR = "bpstar"
CLASSES = (CLASS_BP, CLASS_BP0, CLASS_BP_STAR)

#: Largest per-matrix filling list worth materialising; bigger matrices fall
#: back to fully lazy nesting so early stream consumers never stall.
_MATERIALIZE_LIMIT = 1 << 17


def min_column_budgets(p: Partition) -> dict[int, int]:
    """Per part-size budgets ``a[j]``: the matrix minimum must sit in the
    first ``a[j]`` columns.

    Scanning part sizes from largest to smallest, ``a[j]`` is the gcd of ``j``
    with the lcm of all larger part sizes present; the product of ``a[j]/j``
    over the present sizes is exactly ``1/lcm`` of the partition, which is the
    fraction of dynamical-equality classes that survive as shift-class
    representatives.
    """
    budgets: dict[int, int] = {}
    running = 1
    for j in range(p.d, 0, -1):
        if p.m(j) > 0:
            budgets[j] = gcd(running, j)
            running = lcm(running, j)
        else:
            budgets[j] = j
    return budgets


def _without(pool: tuple[int, ...], taken) -> tuple[int, ...]:
    dropped = set(taken)
    return tuple(e for e in pool if e not in dropped)


def _fill_rows(elements: tuple[int, ...], j: int, m: int
               ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ways to split ``elements`` into ``m`` ordered rows of length ``j``,
    up to permutation of the rows.

    Rows are produced in increasing order of their smallest member, which
    picks one representative per row-set.
    """
    if j == 1:
        yield tuple((e,) for e in elements)
        return

    def rec(avail: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not avail:
            yield ()
            return
        head, rest = avail[0], avail[1:]
        for others in combinations(rest, j - 1):
            remaining = _without(rest, others)
            row_elements = (head,) + others
            for tail in rec(remaining):
                for row in permutations(row_elements):
                    yield (row,) + tail

    yield from rec(elements)


def _fill_columns_shifted(elements: tuple[int, ...], j: int, m: int, budget: int
                          ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All ways to fill a ``m x j`` matrix column by column, each column an
    unordered ``m``-subset written ascending, whose minimum lands within the
    first ``budget`` columns.  Yields the matrix as rows.

    Columns before the budget boundary are free choices; if the minimum is
    still unplaced when exactly ``j - budget + 1`` columns remain, it is
    forced into the current column.
    """
    if j == 1:
        yield tuple((e,) for e in elements)
        return
    minimum = elements[0]
    force_at = j - budget + 1

    def rec(avail: tuple[int, ...], cols_left: int,
            acc: tuple[tuple[int, ...], ...]
            ) -> Iterator[tuple[tuple[int, ...], ...]]:
        if cols_left == 1:
            yield tuple(zip(*acc, avail))
            return
        nxt = cols_left - 1
        if cols_left == force_at and avail[0] == minimum:
            rest = avail[1:]
            for others in combinations(rest, m - 1):
                col = (minimum,) + others
                yield from rec(_without(rest, others), nxt, acc + (col,))
        else:
            for col in combinations(avail, m):
                yield from rec(_without(avail, col), nxt, acc + (col,))

    yield from rec(elements, j, ())


def _fill_count(kind: str, j: int, m: int, budget: int) -> int:
    """Closed-form number of fillings of one ``m x j`` matrix."""
    if kind == CLASS_BP:
        return factorial(j * m) // factorial(m)
    total = 1
    for col in range(1, j + 1):
        total *= comb((j - col + 1) * m, m)
    return total * budget // j


def _partition_stream(n: int, p: Partition, kind: str) -> Iterator[PartitionedOrder]:
    sizes = [(j, p.m(j)) for j in p.part_sizes()]
    if kind == CLASS_BP_STAR:
        budgets = min_column_budgets(p)
    else:
        budgets = {j: j for j, _ in sizes}

    def fillings(elements, j, m):
        if kind == CLASS_BP:
            return _fill_rows(elements, j, m)
        return _fill_columns_shifted(elements, j, m, budgets[j])

    last = len(sizes) - 1
    small_enough = [
        _fill_count(kind, j, m, budgets[j]) <= _MATERIALIZE_LIMIT
        for j, m in sizes
    ]

    def rec(remaining: tuple[int, ...], idx: int
            ) -> Iterator[tuple[tuple[int, ...], ...]]:
        j, m = sizes[idx]
        if idx == last:
            yield from fillings(remaining, j, m)
            return
        nxt = idx + 1
        for chosen in combinations(remaining, j * m):
            rest = _without(remaining, chosen)
            if small_enough[idx]:
                # Materialise this matrix's fillings so the subtree below is
                # walked once per content choice, not once per filling.
                fill_list = list(fillings(chosen, j, m))
                for tail in rec(rest, nxt):
                    for rows in fill_list:
                        yield rows + tail
            else:
                for rows in fillings(chosen, j, m):
                    for tail in rec(rest, nxt):
                        yield rows + tail

    from_rows = PartitionedOrder._from_rows
    for rows in rec(tuple(range(n)), 0):
        yield from_rows(n, rows)


def _check_args(n: int, partition: Optional[Partition]) -> None:
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if partition is not None and partition.n != n:
        raise ValueError(f"partition {partition.label()} is not a partition of {n}")


def enum_class(n: int, kind: str, partition: Optional[Partition] = None
               ) -> Iterator[PartitionedOrder]:
    """Stream one schedule per class member for ``kind`` in ``bp|bp0|bpstar``.

    ``partition`` restricts the stream to schedules with that support.
    """
    if kind not in CLASSES:
        raise ValueError(f"unknown schedule class {kind!r}, expected one of {CLASSES}")
    _check_args(n, partition)
    supports = [partition] if partition is not None else partitions_of(n)
    for p in supports:
        yield from _partition_stream(n, p, kind)


def enum_bp(n: int, partition: Optional[Partition] = None) -> Iterator[PartitionedOrder]:
    """Every partitioned order on ``n`` automata, exactly once."""
    return enum_class(n, CLASS_BP, partition)


def enum_bp0(n: int, partition: Optional[Partition] = None) -> Iterator[PartitionedOrder]:
    """One representative per dynamical-equality class."""
    return enum_class(n, CLASS_BP0, partition)


def enum_bp_star(n: int, partition: Optional[Partition] = None
                 ) -> Iterator[PartitionedOrder]:
    """One representative per limit-isomorphism class."""
    return enum_class(n, CLASS_BP_STAR, partition)


# ---------------------------------------------------------------------------
# Partition-sharded parallelism

def _count_shard(task: tuple[int, str, tuple[int, ...]]) -> int:
    n, kind, parts = task
    p = Partition.from_parts(parts)
    return sum(1 for _ in _partition_stream(n, p, kind))


def class_count(n: int, kind: str, workers: int = 1) -> int:
    """Cardinality of a class stream, optionally sharded by partition.

    Sharded totals are identical to sequential ones; workers only split the
    outer loop over partitions.
    """
    if kind not in CLASSES:
        raise ValueError(f"unknown schedule class {kind!r}, expected one of {CLASSES}")
    _check_args(n, None)
    if workers <= 1:
        return sum(1 for _ in enum_class(n, kind))
    tasks = [(n, kind, p.parts) for p in partitions_of(n)]
    with multiprocessing.Pool(workers) as pool:
        return sum(pool.imap(_count_shard, tasks))


def _serialize_shard(task: tuple[int, str, tuple[int, ...]]) -> list[str]:
    n, kind, parts = task
    p = Partition.from_parts(parts)
    return [serialize_schedule(mu) for mu in _partition_stream(n, p, kind)]


def sharded_lines(n: int, kind: str, workers: int) -> Iterator[str]:
    """Serialized schedules in canonical order, partitions computed in parallel.

    Buffers one partition's worth of output per worker; intended for the CLI.
    """
    tasks = [(n, kind, p.parts) for p in partitions_of(n)]
    with multiprocessing.Pool(workers) as pool:
        for chunk in pool.imap(_serialize_shard, tasks):
            yield from chunk
