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

Each stream function checks its arguments when called.  Within a partition
the order is mixed-radix: each matrix but the last chooses its members (the
last takes the rest), and each matrix has a filling.  Fillings commute with
increasing relabelling, so in a partition of several part sizes a matrix
with at most ``_MATERIALIZE_LIMIT`` fillings is filled once, over its
indices, and its filling digit is innermost; any other matrix's filling
follows its members.  A schedule concatenates one piece per matrix,
smallest part size first, which is the canonical o-block order.

:func:`_walk` yields ``(block, labels)``.  The innermost filling digits, at
most ``_MATERIALIZE_LIMIT`` lines, are the block, written over the indices;
each choice of the outer digits labels the indices.  An outer filling's
labels take its matrix's indices row by row.  The digit next out may split
and put a head of its matrix's labels outer: a prefix of a one-row matrix
(the block then holds the permutations of the positions left, which the
labels left, ascending, turn into the prefix's permutations in order), or,
for a partition's only matrix, its first column (for ``bp``, the row holding
0, whose place among the other rows depends on the labels, so each head
picks its groups from a table).  A block is a tuple of groups, each the
product of its factors, which are lists of pieces of rows.

Text and rows are two views of the walk.  :func:`class_chunks` renders each
group once with every index as placeholder bytes, one per decimal place of
``n - 1``, from the bytes schedule text never holds; each block is then one
``bytes.translate`` that writes its labels' digits and deletes the places a
shorter label leaves empty.  :func:`enum_class` relabels each factor, once
per change of the labels it reads, and concatenates the pieces.  Past 100
automata the placeholders run out, and the text is the rows view passed
through :func:`~blockpar.schedule.format_oblocks`.  :func:`class_lines` is a
line view of the chunks, and :func:`class_count` counts their newlines.
Every stream runs in the calling process.

The walk nests one generator per outer matrix, and the filler of a matrix
with two or more rows one more per column (per row for ``bp``); a one-row
matrix nests none.  The first schedule nests as deep as any, so a partition
too deep for the interpreter's recursion limit raises
:class:`~blockpar.errors.ResourceCapError` before the first schedule.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from functools import partial
from itertools import (
    accumulate, chain, combinations, compress, filterfalse, permutations, product, repeat, starmap,
)
from math import comb, factorial, gcd, lcm
from operator import attrgetter, itemgetter
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

#: Most fillings of one matrix held as templates, and most lines of a block;
#: bigger matrices fill outside the block, so early consumers never stall.
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


def _group(items: Iterable) -> tuple:
    """A group's factors from ``items`` in line order: factors, lists or
    one-pass iterators of pieces, and fixed pieces, tuples of rows, each run
    of which joins into one one-piece factor."""
    group: list = []
    for item in items:
        if isinstance(item, tuple) and group and isinstance(group[-1], tuple):
            group[-1] += item
        else:
            group.append(item)
    return tuple([item] if isinstance(item, tuple) else item for item in group)


def _walk(n: int, p: Partition, kind: str) -> Iterator[tuple[tuple, tuple[int, ...]]]:
    """``(block, labels)`` for each block of ``p``'s members of class
    ``kind``, in stream order; the module docstring describes both."""
    sizes = [(j, p.m(j)) for j in p.part_sizes()]
    budgets = min_column_budgets(p) if kind == CLASS_BP_STAR else {j: j for j, _ in sizes}
    last = len(sizes) - 1
    limit = _MATERIALIZE_LIMIT
    counts = [_fill_count(kind, j, m, budgets[j]) for j, m in sizes]
    templated = [last > 0 and count <= limit for count in counts]
    starts = [0, *accumulate(j * m for j, m in sizes)]

    # The digits, outermost first, as ``(k, chooses, fills)``: whether they
    # choose matrix k's members, fill it, or both.
    plan = [(k, True, not templated[k]) for k in range(last)] + [(last, False, True)]
    plan += [(k, False, True) for k in reversed(range(last)) if templated[k]]
    lines, inside = 1, set()
    while last and not plan[-1][1] and lines * counts[plan[-1][0]] <= limit:
        k = plan.pop()[0]
        inside.add(k)
        lines *= counts[k]

    def fills(k: int, labels: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Matrix ``k``'s fillings over ``labels`` in the filler's order, as
        rows in canonical order."""
        j, m = sizes[k]
        if m == 1:
            return zip(_one_row(labels, budgets[j]))
        if kind == CLASS_BP:
            return map(tuple, map(sorted, _fill_rows(labels, j, m)))
        return _fill_columns_shifted(labels, j, m, budgets[j])

    def relabels(k: int, labels: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """Matrix ``k``'s fillings over ``labels``, each as its rows' labels."""
        return map(tuple, map(chain.from_iterable, fills(k, labels)))

    # The block holds an inside matrix's templates, and an outer matrix's
    # indices in row order, which its filling's labels take row by row.
    # Each view reads a factor once, so a factor is a one-pass iterator
    # unless groups share it.
    pieces = {}
    for k, (j, m) in enumerate(sizes):
        indices = tuple(range(starts[k], starts[k + 1]))
        pieces[k] = fills(k, indices) if k in inside else tuple(zip(*[iter(indices)] * j))
    choose = {k: partial(relabels, k) for k, _, fill in plan if fill}
    pick = None

    # A split puts a head of matrix x's labels outer: ``width`` labels, the
    # minimum within the first ``reach`` of them unless ``reach`` is 0.
    x, _, split = plan[-1]
    j, m = sizes[x]
    budget = budgets[j]
    reach = budget if budget < j else 0
    width = tail = 0
    while (split and m == 1 and tail < j - 1 and tail < j - reach
           and factorial(tail + 1) * lines * n <= limit):
        tail += 1
    if tail > 1:
        # The head is a prefix of the row, and the block the permutations
        # of the positions left, which the labels left, ascending, turn into
        # that prefix's permutations in order.
        width = j - tail
        prefix = tuple(range(starts[x], starts[x] + width))
        pieces[x] = ((prefix + perm,)
                     for perm in permutations(range(prefix[-1] + 1, starts[x + 1])))
    elif not last and j > 1 and m > 1 and kind != CLASS_BP and _fill_count(
            CLASS_BP0, j - 1, m, j - 1) <= limit:
        # The head is the first column; the other columns, always free, are
        # the block.
        width = m
        pieces[x] = (tuple((i,) + row for i, row in enumerate(rows))
                     for rows in _fill_columns_shifted(tuple(range(m, n)), j - 1, m, j - 1))
    elif not last and j > 1 and m > 1 and kind == CLASS_BP and _fill_count(
            CLASS_BP, j, m - 1, j) * factorial(j) * m <= limit:
        # The head is the row holding 0.  :func:`_fill_rows` fills the other
        # rows, then permutes that row innermost; where the row goes among
        # the others depends on the labels of its first member and of
        # theirs, so each head picks one group per other rows' filling and
        # first member.
        width, reach = j, 1
        others = [tuple(sorted(rows)) for rows in _fill_rows(tuple(range(j, n)), j, m - 1)]
        firsts = [[row[0] - j for row in rows] for rows in others]
        perms = [(perm,) for perm in permutations(range(j))]
        run = len(perms) // j
        table = [[[_group(item for item in (rows[:at], perms[lead * run:(lead + 1) * run],
                                            rows[at:]) if item)
                   for at in range(m)] for lead in range(j)] for rows in others]

        def pick(labels: tuple[int, ...]) -> list:
            # Label ``row[lead] - lead`` has that many labels of the other
            # rows below it.
            return [groups[lead][bisect_left(first, label - lead)]
                    for groups, first in zip(table, firsts)
                    for lead, label in enumerate(labels[:j])]

    def heads(labels: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """``labels`` with each head, in the filler's order, moved to the front."""
        for head in (permutations if m == 1 else combinations)(labels, width):
            if not reach or labels[0] in head[:reach]:
                yield head + _without(labels, head)

    if width:
        choose[x] = heads

    order = range(last, -1, -1)
    if width and any(k > x and counts[k] > 1 for k in inside):
        # The split matrix precedes a varying block matrix in line order.
        shared = {k: list(pieces[k]) if k in inside else pieces[k] for k in order}
        block = tuple(_group(piece if k == x else shared[k] for k in order)
                      for piece in pieces[x])
    else:
        block = (_group(pieces[k] for k in order),)
    assign = [tuple(range(starts[k], starts[k + 1])) for k in range(last + 1)]

    def walk(d: int, remaining: tuple[int, ...]) -> Iterator[tuple[tuple, tuple[int, ...]]]:
        k, chooses, fill = plan[d]
        held = assign[k]
        leaf = d + 1 == len(plan)
        for chosen in combinations(remaining, len(held)) if chooses else (held,):
            if chooses:
                assign[last] = rest = _without(remaining, chosen)
            for labels in choose[k](chosen) if fill else (chosen,):
                assign[k] = labels
                if leaf:
                    yield (block if pick is None else pick(labels),
                           tuple(chain.from_iterable(assign)))
                else:
                    yield from walk(d + 1, rest if chooses else remaining)
        assign[k] = held

    try:
        yield from walk(0, tuple(range(n)))
    except RecursionError:
        raise ResourceCapError(
            f"the {kind} stream of a partition of {n} nests deeper than"
            f" the recursion limit of {sys.getrecursionlimit()}"
        ) from None


def _joined(factors: list) -> Iterator[tuple]:
    """Each choice of one piece per factor, outermost first, concatenated."""
    first, *rest = factors
    lines: Iterator[tuple] = iter(first)
    for factor in rest:
        lines = chain.from_iterable(map(map, map(attrgetter("__add__"), lines), repeat(factor)))
    return lines


def _rows(n: int, p: Partition, kind: str) -> Iterator[tuple]:
    """The lines of :func:`_walk`'s blocks as rows of labels.

    A factor is relabelled once for each change of the labels it reads, so
    a larger matrix's templates are not relabelled again while only the
    smaller matrices' members change.
    """
    memo: dict = {}

    def relabelled(factor: list, labels: tuple[int, ...]) -> list:
        entry = memo.get(id(factor))
        if entry is None:
            # Each getter leads with index 0, so it returns a tuple even for
            # one index; the cuts skip it.
            pieces = list(factor)
            rows = [row for piece in pieces for row in piece]
            flat = list(chain.from_iterable(rows))
            ends = list(accumulate(map(len, rows), initial=1))
            entry = memo[id(factor)] = [itemgetter(0, *set(flat)), itemgetter(0, *flat),
                                        list(map(slice, ends, ends[1:])), len(pieces[0]),
                                        None, None]
        reads, getter, cuts, m, seen, done = entry
        if reads(labels) != seen:
            got = getter(labels)
            done = list(zip(*[map(got.__getitem__, cuts)] * m))
            entry[4:] = reads(labels), done
        return done

    return chain.from_iterable(_joined([relabelled(factor, labels) for factor in group])
                               for block, labels in _walk(n, p, kind) for group in block)


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


def _text_chunks(n: int, p: Partition, kind: str) -> Iterator[bytes]:
    """The text of ``p``'s members, one chunk per block of :func:`_walk`
    (per line past 100 automata)."""
    marks = _placeholders(n)
    if marks is None:
        return (f"{format_oblocks(rows)}\n".encode() for rows in _rows(n, p, kind))
    slots, relabel = marks
    texts: dict = {}

    def text(group: tuple) -> bytes:
        """The group's lines with placeholders, kept for the next block."""
        seps = chain([b"[["], repeat(b"],["))
        parts = [[sep + b"],[".join([b",".join(map(slots.__getitem__, row)) for row in piece])
                  for piece in factor] for sep, factor in zip(seps, group)]
        texts[id(group)] = b"".join(map(b"".join, product(*parts, [b"]]\n"])))
        return texts[id(group)]

    held = [None, b""]

    def render(block: tuple, labels: tuple[int, ...]) -> bytes:
        if block is not held[0]:
            held[:] = block, b"".join([texts.get(id(group)) or text(group) for group in block])
        return relabel(held[1], labels)

    return starmap(render, _walk(n, p, kind))


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
    lines = map(_rows, repeat(n), _supports(n, kind, partition), repeat(kind))
    return map(PartitionedOrder._from_rows, repeat(n), chain.from_iterable(lines))


def class_chunks(n: int, kind: str, partition: Optional[Partition] = None
                 ) -> Iterator[bytes]:
    """The lines of :func:`class_lines`, each ending in a newline, as
    ``bytes`` chunks of whole lines, one per block."""
    return _chained(_text_chunks(n, p, kind) for p in _supports(n, kind, partition))


def _lines(chunks: Iterable[bytes]) -> Iterator[str]:
    return _chained(chunk.decode().splitlines() for chunk in chunks)


def class_lines(n: int, kind: str, partition: Optional[Partition] = None
                ) -> Iterator[str]:
    """The stream of :func:`enum_class` in the schedule text format.

    Yields ``serialize_schedule(mu)`` for each ``mu`` of ``enum_class(n, kind,
    partition)``, without a newline, but builds no schedule objects: it is
    a line view of :func:`class_chunks`.
    """
    return _lines(class_chunks(n, kind, partition))


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


def class_count(n: int, kind: str) -> int:
    """Cardinality of a class stream: the newlines of :func:`class_chunks`."""
    return sum(chunk.count(b"\n") for chunk in class_chunks(n, kind))


def sharded_lines(n: int, kind: str, workers: int) -> Iterator[str]:
    """:func:`class_lines` of ``n`` and ``kind``; ``workers`` is ignored.

    Kept for callers written when this spread the partitions over a
    process pool: one process now writes the text faster than a pool.
    """
    return class_lines(n, kind)
