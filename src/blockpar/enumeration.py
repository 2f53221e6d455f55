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
partition, over its indices, and keeps those fillings as templates; each
content choice then relabels them and runs no filling recursion.  Matrices
with too many fillings to hold, and a partition's only part size, stream
their fillings instead.  :func:`enum_class` wraps each schedule's sorted
rows in a :class:`PartitionedOrder`.

:func:`class_chunks` gives the schedule text, each line
``serialize_schedule(mu)`` and a newline, as ``bytes`` chunks of whole
lines, and renders a partition a block at a time where it can.  If every
matrix holds templates, the lines of one content choice are the product of
the matrices' templates: one block.  The block is rendered once per
partition with every index written as placeholder bytes, one per decimal
place of ``n - 1``, taken from the bytes schedule text never holds; each
content choice is then one ``bytes.translate`` that writes its labels'
digits and deletes the places a shorter label leaves empty.  The one matrix
of a one-size partition with two or more rows and columns streams its first
column (for ``bp``, the members of the row holding 0) as the content choice
and takes the fillings of the rest as the block.  The partitions left over
-- a matrix above ``_MATERIALIZE_LIMIT`` fillings or a block above that many
lines, a one-row or one-column matrix alone, more indices than placeholders
-- stream line by line, in chunks.  :func:`class_lines` is a line view of
the chunks.  :func:`sharded_chunks` spreads the partitions of ``n`` over a
process pool, one chunk per partition and at most ``workers`` partitions in
flight; ``multiprocessing`` is imported only when a pool starts.

A stream nests one generator per part size and a filler of a matrix with
two or more rows one more per column (per row for ``bp``); a one-row matrix
nests none.  The first schedule nests as deep as any, so a partition too
deep for the interpreter's recursion limit raises
:class:`~blockpar.errors.ResourceCapError` before the first schedule.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import deque
from itertools import (
    chain, combinations, compress, filterfalse, islice, permutations, product, repeat, starmap,
)
from math import comb, factorial, gcd, lcm, prod
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


def _matrices(p: Partition, kind: str) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """``p``'s matrices as ``(part size, multiplicity)``, largest size first,
    and the column budget of each part size under ``kind``."""
    sizes = [(j, p.m(j)) for j in p.part_sizes()]
    if kind == CLASS_BP_STAR:
        return sizes, min_column_budgets(p)
    return sizes, {j: j for j, _ in sizes}


def _fillings(kind: str, elements: tuple[int, ...], j: int, m: int, budget: int
              ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every filling of the ``m x j`` matrix holding ``elements``, as rows,
    in the order of the filler of ``kind``."""
    if m == 1:
        return zip(_one_row(elements, budget))
    if kind == CLASS_BP:
        return _fill_rows(elements, j, m)
    return _fill_columns_shifted(elements, j, m, budget)


def _rows_piece(rows: tuple[tuple[int, ...], ...], opens: bool, closes: bool
               ) -> tuple[tuple[int, ...], ...]:
    """A matrix filling as its o-blocks in canonical order."""
    return tuple(sorted(rows))


def _rows_row(labels: tuple[int, ...], budget: int, opens: bool, closes: bool
              ) -> Iterator[tuple[tuple[int, ...]]]:
    """The fillings of a one-row matrix as their one o-block each."""
    return zip(_one_row(labels, budget))


def _rows_relabel(templates: Iterable[tuple[tuple[int, ...], ...]],
                  labels: tuple[int, ...], opens: bool, closes: bool
                  ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Each template's rows with index ``k`` replaced by ``labels[k]``, lazily."""
    get = labels.__getitem__
    return (tuple([tuple(map(get, row)) for row in rows]) for rows in templates)


def _text_piece(rows: tuple[tuple[int, ...], ...], opens: bool, closes: bool) -> bytes:
    """A matrix filling as its piece of the schedule text."""
    return format_oblocks(sorted(rows), opens, closes).encode()


def _text_row(labels: tuple[int, ...], budget: int, opens: bool, closes: bool
              ) -> Iterator[bytes]:
    """The fillings of a one-row matrix as their pieces of the schedule text:
    each label is turned into bytes once, and each piece is the opening,
    the row's labels joined by commas, and the closing."""
    rows = map(b",".join, _one_row(tuple(b"%d" % label for label in labels), budget))
    return map(b"".join, zip(repeat(b"[[" if opens else b",["), rows,
                             repeat(b"]]" if closes else b"]")))


def _text_relabel_rows(templates: Iterable[tuple[tuple[int, ...], ...]],
                       labels: tuple[int, ...], opens: bool, closes: bool
                       ) -> Iterator[bytes]:
    """Each template relabelled by :func:`_rows_relabel`, as its piece of text."""
    return map(_text_piece, _rows_relabel(templates, labels, opens, closes),
               repeat(opens), repeat(closes))


#: A renderer is a triple:
#:
#: * ``piece(rows, opens, closes)`` renders one filling of a matrix;
#: * ``row(labels, budget, opens, closes)`` renders every filling of a
#:   one-row matrix holding ``labels``, as :func:`_one_row` lists them;
#: * ``relabel(templates, labels, opens, closes)`` renders the fillings of
#:   the matrix whose ``k``-th smallest member is ``labels[k]`` from the
#:   fillings of its indices, ``templates``.
_ROWS = (_rows_piece, _rows_row, _rows_relabel)
_TEXT = (_text_piece, _text_row, _text_relabel_rows)


def _partition_stream(n: int, p: Partition, kind: str, renderer: tuple) -> Iterator:
    """Every schedule of class ``kind`` with support ``p``, each the
    concatenation of one piece per matrix, rendered by ``renderer``.

    Pieces are concatenated smallest part size first, which is the canonical
    o-block order; ``opens`` marks the first piece and ``closes`` the last.
    A one-row matrix gets its fillings from :func:`_one_row`; the others
    from the filler of ``kind``.

    A matrix with at most ``_MATERIALIZE_LIMIT`` fillings is filled once per
    partition, over its indices, and each content choice relabels those
    templates.  Above the last matrix, the relabelled pieces are listed per
    content choice, so the subtree below is walked once per choice, not once
    per filling; the last matrix is relabelled once per choice of the
    matrices above it.  A matrix with more fillings, or filled only once
    because it is ``p``'s only part size, streams its fillings.
    """
    piece, row, relabel = renderer
    sizes, budgets = _matrices(p, kind)
    last = len(sizes) - 1

    def pieces(elements, j, m, opens, closes) -> Iterator:
        """Every filling of the ``m x j`` matrix holding ``elements``, rendered."""
        if m == 1:
            return row(elements, budgets[j], opens, closes)
        fillings = _fillings(kind, elements, j, m, budgets[j])
        return map(piece, fillings, repeat(opens), repeat(closes))

    templates = [
        list(map(_rows_piece, _fillings(kind, tuple(range(j * m)), j, m, budgets[j]),
                 repeat(False), repeat(False)))
        if last > 0 and _fill_count(kind, j, m, budgets[j]) <= _MATERIALIZE_LIMIT
        else None
        for j, m in sizes
    ]

    def rec(remaining: tuple[int, ...], idx: int) -> Iterator:
        j, m = sizes[idx]
        closes = idx == 0
        if idx == last:
            if templates[idx] is None:
                yield from pieces(remaining, j, m, True, closes)
            else:
                yield from relabel(templates[idx], remaining, True, closes)
            return
        nxt = idx + 1
        for chosen in combinations(remaining, j * m):
            rest = _without(remaining, chosen)
            if templates[idx] is None:
                # A templated last matrix is relabelled once, not per head.
                tails = (list(rec(rest, nxt))
                         if nxt == last and templates[nxt] is not None else None)
                for head in pieces(chosen, j, m, False, closes):
                    for tail in rec(rest, nxt) if tails is None else tails:
                        yield tail + head
            else:
                heads = list(relabel(templates[idx], chosen, False, closes))
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


# ---------------------------------------------------------------------------
# Schedule text a block at a time

def _placeholders(n: int):
    """Placeholder bytes for the indices ``0 .. n-1`` of a block of text, and
    the function that relabels such a block; ``None`` if they do not fit.

    An index takes one placeholder byte per decimal place of ``n - 1``, from
    the bytes schedule text never holds.  ``relabel(block, labels)`` is one
    ``bytes.translate``: it writes the digits of ``labels[k]`` into the
    places of index ``k`` and deletes the leading places that a label with
    fewer digits leaves empty.
    """
    alphabet = bytes(sorted(set(range(256)).difference(b"[],0123456789\n")))
    width = len(str(n - 1))
    if width * n > len(alphabet):
        return None
    places = [alphabet[i * n:(i + 1) * n] for i in range(width)]
    slots = [bytes(place[k] for place in places) for k in range(n)]
    numerals = [str(label).rjust(width) for label in range(n)]
    padding = bytes(256 - n)
    digits = [bytes(ord(numeral[i]) for numeral in numerals) + padding
              for i in range(width)]
    blanks = [bytes(numeral[i] == " " for numeral in numerals) + padding
              for i in range(width - 1)]
    source = b"".join(places)

    def relabel(block: bytes, labels: tuple[int, ...]) -> bytes:
        key = bytes(labels)
        table = bytes.maketrans(source, b"".join([key.translate(d) for d in digits]))
        empty = b"".join([bytes(compress(place, key.translate(blank)))
                          for place, blank in zip(places, blanks)])
        return block.translate(table, empty)

    return slots, relabel


def _slot_piece(rows: Iterable[tuple[int, ...]], slots: list, opens: bool, closes: bool
                ) -> bytes:
    """Rows of indices, in the given order, as text of placeholder bytes."""
    body = b"],[".join([b",".join(map(slots.__getitem__, row)) for row in rows])
    return (b"[[" if opens else b",[") + body + (b"]]" if closes else b"]")


def _product_blocks(n: int, kind: str, sizes: list, budgets: dict, slots: list):
    """(block, labels) per content choice of a partition of several part
    sizes, or ``None`` if a block would hold more than
    ``_MATERIALIZE_LIMIT`` lines.

    Matrix ``idx`` holds the indices after those of the larger matrices.
    The block is the product of the matrices' templates, smallest part size
    outermost as in :func:`_partition_stream`, and ``labels`` the members
    chosen for each matrix in turn.
    """
    counts = [_fill_count(kind, j, m, budgets[j]) for j, m in sizes]
    if prod(counts) > _MATERIALIZE_LIMIT:
        return None
    last = len(sizes) - 1
    templates, start = [], 0
    for idx, (j, m) in enumerate(sizes):
        indices = tuple(range(start, start + j * m))
        templates.append([_slot_piece(sorted(rows), slots, idx == last, idx == 0)
                          for rows in _fillings(kind, indices, j, m, budgets[j])])
        start += j * m
    block = b"".join(map(b"".join, product(*reversed(templates), [b"\n"])))

    def choices(remaining: tuple[int, ...], idx: int) -> Iterator[tuple[int, ...]]:
        if idx == last:
            yield remaining
            return
        j, m = sizes[idx]
        for chosen in combinations(remaining, j * m):
            for rest in choices(_without(remaining, chosen), idx + 1):
                yield chosen + rest

    return zip(repeat(block), choices(tuple(range(n)), 0))


def _first_column_blocks(n: int, j: int, m: int, budget: int, slots: list):
    """(block, labels) per first column of the one ``m x j`` column-class
    matrix, or ``None`` if a block would be too long.

    Indices ``0 .. m-1`` are the first column and the rest fill the other
    columns, so a block is every filling of the ``m x (j-1)`` rest.  The
    one-size budget is ``j`` (``bp0``) or 1 (``bpstar``, the minimum forced
    into the first column), so the rest is always free.
    """
    if _fill_count(CLASS_BP0, j - 1, m, j - 1) > _MATERIALIZE_LIMIT:
        return None
    block = b"".join(
        _slot_piece([(i,) + row for i, row in enumerate(rows)], slots, True, True) + b"\n"
        for rows in _fill_columns_shifted(tuple(range(m, n)), j - 1, m, j - 1))
    everyone = tuple(range(n))
    if budget > 1:
        columns = combinations(everyone, m)
    else:
        columns = map((0,).__add__, combinations(everyone[1:], m - 1))
    return ((block, column + _without(everyone, column)) for column in columns)


def _first_row_blocks(n: int, j: int, m: int, slots: list):
    """(block, labels) per set of members of the row holding 0 in the one
    ``m x j`` ``bp`` matrix, or ``None`` if its texts would be too long.

    Indices ``0 .. j-1`` are that row, and the fillings of the other rows
    are the tails.  :func:`_fill_rows` puts the row's permutations innermost,
    and a line lists rows by first member, so where a permutation's row
    goes among a tail's rows depends on the labels of its first member and
    of the tail's.  Each tail's lines are kept once per leading index and
    insertion point, and each choice joins the ones its labels select.
    """
    if _fill_count(CLASS_BP, j, m - 1, j) * factorial(j) * m > _MATERIALIZE_LIMIT:
        return None

    def bracket(row: tuple[int, ...]) -> bytes:
        return b"[" + b",".join(map(slots.__getitem__, row)) + b"]"

    tails = [sorted(rows) for rows in _fill_rows(tuple(range(j, n)), j, m - 1)]
    rows = list(map(bracket, permutations(range(j))))
    run = len(rows) // j
    leads = [rows[lead * run:(lead + 1) * run] for lead in range(j)]
    # texts[t][lead][at]: the lines of tail t with each row led by index
    # ``lead`` placed as row ``at``.
    texts = []
    for tail in tails:
        pieces = list(map(bracket, tail))
        cuts = [(b"[" + b"".join([piece + b"," for piece in pieces[:at]]),
                 b"".join([b"," + piece for piece in pieces[at:]]) + b"]\n")
                for at in range(m)]
        texts.append([[before + (after + before).join(runs) + after for before, after in cuts]
                      for runs in leads])
    firsts = [[row[0] - j for row in tail] for tail in tails]
    others = tuple(range(1, n))

    def blocks() -> Iterator[tuple[bytes, tuple[int, ...]]]:
        for chosen in combinations(others, j - 1):
            row = (0,) + chosen
            # Label ``row[lead] - lead`` has that many tail labels below it.
            block = b"".join([text[lead][bisect_left(first, label - lead)]
                              for text, first in zip(texts, firsts)
                              for lead, label in enumerate(row)])
            yield block, row + _without(others, chosen)

    return blocks()


def _partition_blocks(n: int, p: Partition, kind: str) -> Optional[Iterator[bytes]]:
    """The text of ``p``'s members, one relabelled block per content choice,
    in :func:`_partition_stream`'s order; ``None`` where ``p`` streams."""
    marks = _placeholders(n)
    if marks is None:
        return None
    slots, relabel = marks
    sizes, budgets = _matrices(p, kind)
    (j, m), *smaller = sizes
    if smaller:
        pairs = _product_blocks(n, kind, sizes, budgets, slots)
    elif j == 1 or m == 1:
        return None
    elif kind == CLASS_BP:
        pairs = _first_row_blocks(n, j, m, slots)
    else:
        pairs = _first_column_blocks(n, j, m, budgets[j], slots)
    return None if pairs is None else starmap(relabel, pairs)


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


def _batched(lines: Iterator[bytes], batch: Optional[int]) -> Iterator[bytes]:
    """``lines`` joined, each followed by a newline, ``batch`` at a time."""
    while chunk := list(islice(lines, batch)):
        yield b"\n".join(chunk) + b"\n"


def _partition_chunks(n: int, p: Partition, kind: str, batch: Optional[int]
                      ) -> Iterator[bytes]:
    blocks = _partition_blocks(n, p, kind)
    if blocks is not None:
        return blocks
    return _batched(_partition_stream(n, p, kind, _TEXT), batch)


def class_chunks(n: int, kind: str, partition: Optional[Partition] = None,
                 batch: Optional[int] = None) -> Iterator[bytes]:
    """The lines of :func:`class_lines`, each ending in a newline, as
    ``bytes`` chunks of whole lines.

    A partition rendered a block at a time gives one chunk per content
    choice; one that streams gives chunks of ``batch`` lines, or one chunk
    if ``batch`` is ``None``.
    """
    return _chained(_partition_chunks(n, p, kind, batch)
                    for p in _supports(n, kind, partition))


def _lines(chunks: Iterable[bytes]) -> Iterator[str]:
    return _chained(chunk.decode().splitlines() for chunk in chunks)


def class_lines(n: int, kind: str, partition: Optional[Partition] = None
                ) -> Iterator[str]:
    """The stream of :func:`enum_class` in the schedule text format.

    Yields ``serialize_schedule(mu)`` for each ``mu`` of ``enum_class(n, kind,
    partition)``, without a newline, but builds no schedule objects: it is
    a line view of :func:`class_chunks`.
    """
    return _lines(class_chunks(n, kind, partition, 1))


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


def _serialize_shard(task: tuple[int, str, tuple[int, ...]]) -> bytes:
    n, kind, parts = task
    return b"".join(class_chunks(n, kind, Partition.from_parts(parts)))


def sharded_chunks(n: int, kind: str, workers: int) -> Iterator[bytes]:
    """The text of :func:`class_chunks`, one chunk per partition, partitions
    computed in parallel.

    At most ``workers`` partitions are in flight, and each worker builds one
    whole partition's text before returning it; intended for the CLI.
    """
    tasks = [(n, kind, p.parts) for p in _supports(n, kind, None)]
    return _ordered_pool(_serialize_shard, tasks, workers)


def sharded_lines(n: int, kind: str, workers: int) -> Iterator[str]:
    """Serialized schedules in canonical order, partitions computed in
    parallel: a line view of :func:`sharded_chunks`."""
    return _lines(sharded_chunks(n, kind, workers))
