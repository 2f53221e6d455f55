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
every budget ``a[j] = j``, which leaves the minimum free.  A matrix with one
row fills the same way in every class, in lexicographic order of the
permutations of its members, keeping those whose minimum lies within the
first ``a[j]`` positions; :func:`_one_row` lists them with ``itertools``.

Streams are lazy single-consumer generators with a deterministic order for a
fixed ``n`` and class; each stream function checks its arguments when
called.  A schedule is the concatenation of one piece per matrix, smallest
part size first, which is the canonical o-block order.
Fillings commute with increasing relabelling: the fillings of a content
``chosen`` are those of the matrix indices ``0 .. j*m - 1`` with index ``k``
read as ``chosen[k]``.  So one recursion fills each matrix once per
partition, over its indices, and keeps the rendered fillings as templates;
each content choice then costs one relabel per filling and no filling
recursion.  Matrices with too many fillings to hold, and a partition's only
part size, stream their fillings instead.  :func:`enum_class` renders a
filling as its sorted rows and wraps them in a :class:`PartitionedOrder`;
:func:`class_lines` renders it as its piece of the schedule text, a
``str.format`` template when it is relabelled, so each line is already
``serialize_schedule(mu)``.  :func:`sharded_lines` spreads the partitions of
``n`` over a process pool, at most ``workers`` partitions in flight;
``multiprocessing`` is imported only when a pool starts.

A stream nests one generator per part size and a filler of a matrix with
two or more rows one more per column (per row for ``bp``); a one-row matrix
nests none.  The first schedule nests as deep as any, so a partition too
deep for the interpreter's recursion limit raises
:class:`~blockpar.errors.ResourceCapError` before the first schedule.
"""

from __future__ import annotations

import sys
from collections import deque
from itertools import chain, combinations, filterfalse, islice, permutations, repeat
from math import comb, factorial, gcd, lcm
from operator import methodcaller
from typing import Iterable, Iterator, Optional

from .errors import ResourceCapError
from .partitions import Partition, partitions_of
from .schedule import (
    CLASS_BP,
    CLASS_BP0,
    CLASS_BP_STAR,
    CLASSES,
    PartitionedOrder,
    format_oblocks,
)

#: Most fillings of one matrix held as templates; bigger matrices fall back
#: to fully lazy nesting so early stream consumers never stall.
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
    return tuple(filterfalse(set(taken).__contains__, pool))


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


def _one_row(labels: tuple, budget: int) -> Iterator[tuple]:
    """The fillings of a one-row matrix holding ``labels``, written in
    ascending order, as that row: the permutations of ``labels`` in
    lexicographic order of positions whose first label, the matrix minimum,
    lies within the first ``budget`` positions.

    These are the rows :func:`_fill_rows` and :func:`_fill_columns_shifted`
    give for ``m = 1``, in their order, built by ``itertools`` without a
    generator per column.
    """
    if budget >= len(labels):
        return permutations(labels)
    first, rest = labels[:1], labels[1:]
    leads = (map((lead,).__add__, _one_row(first + rest[:i] + rest[i + 1:], budget - 1))
             for i, lead in enumerate(rest)) if budget > 1 else ()
    return chain(map(first.__add__, permutations(rest)), chain.from_iterable(leads))


class _Field(int):
    """Matrix index ``k`` standing in for the matrix's ``k``-th smallest
    member: it orders as ``k`` and prints as the ``str.format`` field
    ``{k}``, so a filling of fields renders to a text template."""

    def __str__(self) -> str:
        return f"{{{int(self)}}}"


def _rows_piece(rows: tuple[tuple[int, ...], ...], opens: bool, closes: bool
               ) -> tuple[tuple[int, ...], ...]:
    """A matrix filling as its o-blocks in canonical order."""
    return tuple(sorted(rows))


def _rows_row(labels: tuple[int, ...], budget: int, opens: bool, closes: bool
              ) -> Iterator[tuple[tuple[int, ...]]]:
    """The fillings of a one-row matrix as their one o-block each."""
    return zip(_one_row(labels, budget))


def _rows_relabel(templates: Iterable[tuple[tuple[int, ...], ...]],
                  labels: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Each template's rows with field ``k`` replaced by ``labels[k]``, lazily."""
    get = labels.__getitem__
    return (tuple([tuple(map(get, row)) for row in rows]) for rows in templates)


def _text_piece(rows: tuple[tuple[int, ...], ...], opens: bool, closes: bool) -> str:
    """A matrix filling as its piece of the schedule text."""
    return format_oblocks(sorted(rows), opens, closes)


def _text_row(labels: tuple[int, ...], budget: int, opens: bool, closes: bool
              ) -> Iterator[str]:
    """The fillings of a one-row matrix as their pieces of the schedule text:
    each label is turned into a string once, and each piece is the opening,
    the row's strings joined by commas, and the closing."""
    rows = map(",".join, _one_row(tuple(map(str, labels)), budget))
    return map("".join, zip(repeat("[[" if opens else ",["), rows,
                            repeat("]]" if closes else "]")))


def _text_relabel(templates: Iterable[str], labels: tuple[int, ...]) -> Iterator[str]:
    """Each text template with field ``{k}`` filled by ``labels[k]``, lazily."""
    return map(methodcaller("format", *labels), templates)


#: A renderer is a triple:
#:
#: * ``piece(rows, opens, closes)`` renders one filling of a matrix;
#: * ``row(labels, budget, opens, closes)`` renders every filling of a
#:   one-row matrix holding ``labels``, as :func:`_one_row` lists them;
#: * ``relabel(templates, labels)`` turns the pieces rendered from fillings
#:   of :class:`_Field` indices into the pieces of the matrix whose ``k``-th
#:   smallest member is ``labels[k]``.
_ROWS = (_rows_piece, _rows_row, _rows_relabel)
_TEXT = (_text_piece, _text_row, _text_relabel)


def _partition_stream(n: int, p: Partition, kind: str, renderer: tuple) -> Iterator:
    """Every schedule of class ``kind`` with support ``p``, each the
    concatenation of one piece per matrix, rendered by ``renderer``.

    Pieces are concatenated smallest part size first, which is the canonical
    o-block order; ``opens`` marks the first piece and ``closes`` the last.
    A one-row matrix gets its fillings from :func:`_one_row`; the others
    from the filler of ``kind``.

    A matrix with at most ``_MATERIALIZE_LIMIT`` fillings is filled once per
    partition, over :class:`_Field` indices, and each content choice
    relabels those templates.  Above the last matrix, the relabelled pieces
    are listed per content choice, so the subtree below is walked once per
    choice, not once per filling; the last matrix is relabelled lazily.  A
    matrix with more fillings, or filled only once because it is ``p``'s only
    part size, streams its fillings.
    """
    piece, row, relabel = renderer
    sizes = [(j, p.m(j)) for j in p.part_sizes()]
    if kind == CLASS_BP_STAR:
        budgets = min_column_budgets(p)
    else:
        budgets = {j: j for j, _ in sizes}
    last = len(sizes) - 1

    def pieces(elements, j, m, opens, closes) -> Iterator:
        """Every filling of the ``m x j`` matrix holding ``elements``, rendered."""
        if m == 1:
            return row(elements, budgets[j], opens, closes)
        if kind == CLASS_BP:
            fillings = _fill_rows(elements, j, m)
        else:
            fillings = _fill_columns_shifted(elements, j, m, budgets[j])
        return map(piece, fillings, repeat(opens), repeat(closes))

    templates = [
        list(pieces(tuple(map(_Field, range(j * m))), j, m, idx == last, idx == 0))
        if last > 0 and _fill_count(kind, j, m, budgets[j]) <= _MATERIALIZE_LIMIT
        else None
        for idx, (j, m) in enumerate(sizes)
    ]

    def rec(remaining: tuple[int, ...], idx: int) -> Iterator:
        j, m = sizes[idx]
        closes = idx == 0
        if idx == last:
            if templates[idx] is None:
                yield from pieces(remaining, j, m, True, closes)
            else:
                yield from relabel(templates[idx], remaining)
            return
        nxt = idx + 1
        for chosen in combinations(remaining, j * m):
            rest = _without(remaining, chosen)
            if templates[idx] is None:
                for head in pieces(chosen, j, m, False, closes):
                    for tail in rec(rest, nxt):
                        yield tail + head
            else:
                heads = list(relabel(templates[idx], chosen))
                for tail in rec(rest, nxt):
                    yield from map(tail.__add__, heads)

    def stream() -> Iterator:
        try:
            yield from rec(tuple(range(n)), 0)
        except RecursionError:
            raise ResourceCapError(
                f"the {kind} stream of a partition of {n} nests deeper than"
                f" the recursion limit of {sys.getrecursionlimit()}"
            ) from None

    return stream()


def _supports(n: int, kind: str, partition: Optional[Partition]) -> Iterable[Partition]:
    """The partitions a class stream walks, after checking its arguments."""
    if kind not in CLASSES:
        raise ValueError(f"unknown schedule class {kind!r}, expected one of {CLASSES}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if partition is not None and partition.n != n:
        raise ValueError(f"partition {partition.label()} does not sum to n={n}")
    return [partition] if partition is not None else partitions_of(n)


def _chained(streams: Iterable[Iterable]) -> Iterator:
    """``chain.from_iterable(streams)`` as a generator, which a reader can close.

    The chain lets go of each stream once it is exhausted, before the next
    one is made.
    """
    yield from chain.from_iterable(streams)


def enum_class(n: int, kind: str, partition: Optional[Partition] = None
               ) -> Iterator[PartitionedOrder]:
    """Stream one schedule per class member for ``kind`` in ``bp|bp0|bpstar``.

    ``partition`` restricts the stream to schedules with that support.
    """
    from_rows = PartitionedOrder._from_rows
    return (from_rows(n, rows) for p in _supports(n, kind, partition)
            for rows in _partition_stream(n, p, kind, _ROWS))


def class_lines(n: int, kind: str, partition: Optional[Partition] = None
                ) -> Iterator[str]:
    """The stream of :func:`enum_class` in the schedule text format.

    Yields ``serialize_schedule(mu)`` for each ``mu`` of ``enum_class(n, kind,
    partition)``, without a newline, but builds no schedule objects: each
    line is the concatenation of the text pieces of its matrices.
    """
    return _chained(_partition_stream(n, p, kind, _TEXT)
                    for p in _supports(n, kind, partition))


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
    return sum(1 for _ in _partition_stream(n, p, kind, _ROWS))


def _ordered_pool(func, tasks: Iterable, workers: int) -> Iterator:
    """``func(task)`` for each of ``tasks``, in order, from a pool of ``workers``
    processes; the next task is submitted when the oldest result is taken,
    so at most ``workers`` are in flight."""
    import multiprocessing

    tasks = iter(tasks)
    with multiprocessing.Pool(workers) as pool:
        window = deque(pool.apply_async(func, (task,))
                       for task in islice(tasks, workers))
        while window:
            result = window.popleft().get()
            task = next(tasks, None)
            if task is not None:
                window.append(pool.apply_async(func, (task,)))
            yield result


def __getattr__(name: str):
    # ``enumeration.multiprocessing`` stays reachable, for tests that patch
    # its ``Pool``, without importing it when the module loads.
    if name == "multiprocessing":
        import multiprocessing

        return multiprocessing
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def class_count(n: int, kind: str, workers: int = 1) -> int:
    """Cardinality of a class stream, optionally sharded by partition.

    Sharded totals are identical to sequential ones; workers only split the
    outer loop over partitions.
    """
    tasks = [(n, kind, p.parts) for p in _supports(n, kind, None)]
    if workers <= 1:
        return sum(map(_count_shard, tasks))
    return sum(_ordered_pool(_count_shard, tasks, workers))


def _serialize_shard(task: tuple[int, str, tuple[int, ...]]) -> str:
    n, kind, parts = task
    return "\n".join(class_lines(n, kind, Partition.from_parts(parts)))


def sharded_lines(n: int, kind: str, workers: int) -> Iterator[str]:
    """Serialized schedules in canonical order, partitions computed in parallel.

    At most ``workers`` partitions are in flight.  Each worker still builds
    one whole partition's text before returning it; intended for the CLI.
    """
    tasks = ((n, kind, p.parts) for p in _supports(n, kind, None))
    texts = _ordered_pool(_serialize_shard, tasks, workers)
    return _chained(text.split("\n") for text in texts)
