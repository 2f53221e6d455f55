"""Streaming, duplicate-free enumeration of the three schedule classes.

Each enumerator walks the integer partitions of ``n`` in canonical order and
fills one matrix per part size, largest part first.  Matrix rows become
o-blocks.  The three classes differ only in how a matrix may be filled, and
:mod:`blockpar.blocktext` holds one filler per class family, the rows of
``bp`` and the columns of ``bp0`` and ``bpstar``:

* ``bp``: rows are arbitrary ordered sequences, up to row permutation;
* ``bp0``: columns are chosen as unordered sets (written ascending), so
  exactly one representative per dynamical-equality class comes out;
* ``bpstar``: like ``bp0``, but the minimum element of each matrix must land
  within its first ``a[j]`` columns (:func:`min_column_budgets`), which cuts
  each limit-isomorphism class down to one representative.

Each stream function checks its arguments when called.  Within a partition
the order is mixed-radix: each matrix but the last chooses its members (the
last takes the rest), and each matrix has a filling.  Fillings commute with
increasing relabelling, so in a partition of several part sizes a matrix
with at most ``_MATERIALIZE_LIMIT`` fillings is filled once, over its
indices, and its filling digit is innermost; any other matrix's filling
follows its members.  A schedule concatenates one piece per matrix,
smallest part size first, which is the canonical o-block order.

:func:`_walk` yields ``(block, remaps, labels)``.  The innermost filling
digits, at most ``_MATERIALIZE_LIMIT`` lines, are the block, written over
the indices, and each choice of the outer digits labels them.  The block
then takes in the digits next out without changing their order: member
choices as ``remaps``, one permutation of its indices each, while it would
hold at most ``_BLOCK_LINES`` lines (``_MATERIALIZE_LIMIT`` under 64), and
then a filling digit in pieces of consecutive fillings, as its outermost
digit, at most ``_BLOCK_LINES`` lines a block.

Text and rows are two views of the walk, each in the calling process:
:func:`class_chunks` writes each block's text once (:mod:`blockpar.blocktext`),
and :func:`enum_class` relabels each factor once per change of the labels it
reads; past 100 automata the text is the rows view through
:func:`~blockpar.schedule.format_oblocks`.

The walk nests one generator per outer matrix, and the fillers as
:mod:`blockpar.blocktext` says.  The first schedule nests as deep as any,
so a partition too deep for the interpreter's recursion limit raises
:class:`~blockpar.errors.ResourceCapError` before the first schedule.
"""

from __future__ import annotations

import sys
from functools import cache
from itertools import accumulate, chain, combinations, islice, repeat, starmap
from math import comb, gcd, lcm
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Optional

from . import blocktext
from .blocktext import Run, fill_count as _fill_count, renderer, without as _without
from .errors import ResourceCapError
from .partitions import Partition, partitions_of
from .schedule import CLASS_BP, CLASS_BP0, CLASS_BP_STAR, CLASSES, PartitionedOrder, format_oblocks

#: Most fillings of one matrix held as templates, and most lines of a block;
#: bigger matrices fill outside the block, so early consumers never stall.
_MATERIALIZE_LIMIT = 1 << 17
#: Most lines of a block that takes member choices in; it decides no order.
_BLOCK_LINES = 1 << 12


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


def _walk(n: int, p: Partition, kind: str) -> Iterator[tuple[tuple, list, tuple[int, ...]]]:
    """``(block, remaps, labels)`` for each block of ``p``'s members of
    class ``kind``, in stream order; the module docstring describes them."""
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
    while plan and not plan[-1][1] and lines * counts[plan[-1][0]] <= (
            limit if last else _BLOCK_LINES):
        k = plan.pop()[0]
        inside.add(k)
        lines *= counts[k]

    # Each matrix's filler arguments; the fillers hold at most ``hold``
    # fillings at once.
    hold = max(limit, _BLOCK_LINES)
    shapes = [(kind, j, m, budgets[j]) for j, m in sizes]

    def factor(k: int, head: tuple = (), template: bytes = b"") -> Run:
        j, m = sizes[k]
        return Run(starts[k], j, m, len(head) // m if template else j, template)

    # The block holds an inside matrix's templates, and an outer matrix's
    # indices as a head, which its filling's labels take column by column.
    factors = tuple(factor(k, *next(blocktext.pieces(*shapes[k], counts[k], hold)))
                    if k in inside and counts[k] > 1 else factor(k) for k in range(last, -1, -1))
    block = [(factors, None)]

    # A choice of members is an increasing relabelling of the indices, so
    # the innermost choices join the block as remaps, one list per digit,
    # outermost first; the last matrix's labels are then the members left.
    assign = [tuple(range(starts[k], starts[k + 1])) for k in range(last + 1)]
    remaps = []
    while (plan and plan[-1][1] and not plan[-1][2] and lines * comb(
            n - starts[plan[-1][0]], len(assign[plan[-1][0]]))
           <= (limit if lines < 64 else _BLOCK_LINES)):
        k = plan.pop()[0]
        pool = tuple(range(starts[k], n))
        lines *= comb(len(pool), len(assign[k]))
        # The members left come in reverse order of the choices.
        left = reversed(list(combinations(pool, len(pool) - len(assign[k]))))
        remaps.insert(0, [(*range(starts[k]), *chosen, *rest) for chosen, rest
                          in zip(combinations(pool, len(assign[k])), left)])
        assign[k], assign[last] = (), pool

    # The digit next out, if it fills matrix x, joins the block in pieces
    # of consecutive fillings, at most ``_BLOCK_LINES`` lines with the rest
    # of the block (fewer past 32 automata); they are its outermost digit.
    most = min(_BLOCK_LINES, limit // n) // lines
    x = plan[-1][0] if plan and plan[-1][2] and most > 1 else None
    inner = factors[:last - x] + (None,) + factors[last - x + 1:] if x is not None else ()

    listed = cache(lambda k: list(blocktext.fillings(*shapes[k], hold)))

    def fill(k: int, chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """Matrix k's labels for each filling over ``chosen``; for x, one
        per piece, which sets the block."""
        j, m = sizes[k]
        if k != x:
            for filled in (listed(k) if counts[k] <= _BLOCK_LINES
                           else blocktext.fillings(*shapes[k], hold)):
                yield tuple(map(chosen.__getitem__, filled))
            return
        for head, template in blocktext.pieces(*shapes[x], most, hold):
            # A column matrix's heads share their template.
            if block[0][1] is None or block[0][1][1].template is not template:
                block[0] = inner, (last - x, factor(x, head, template))
            yield tuple(chosen[i] for i in head + _without(range(j * m), head))

    def walk(d: int, remaining: tuple[int, ...]) -> Iterator[tuple[tuple, list, tuple]]:
        k, chooses, fills = plan[d]
        held = assign[k]
        leaf = d + 1 == len(plan)
        for chosen in combinations(remaining, len(held)) if chooses else (held,):
            if chooses:
                assign[last] = rest = _without(remaining, chosen)
            for labels in fill(k, chosen) if fills else (chosen,):
                assign[k] = labels
                if leaf:
                    yield block[0], remaps, tuple(chain.from_iterable(assign))
                else:
                    yield from walk(d + 1, rest if chooses else remaining)
        assign[k] = held

    try:
        yield from walk(0, tuple(range(n))) if plan else [(block[0], remaps, assign[last])]
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
    smaller matrices' members change.  Each place in the block keeps only
    its factor of the moment.
    """
    memo: dict = {}

    def relabelled(at: int, factor: Run, labels: tuple[int, ...]) -> list:
        entry = memo.get(at)
        if entry is None or entry[0] is not factor:
            # Each getter leads with index 0, so it returns a tuple even for
            # one index; the rows skip it.
            flat = factor.indices()
            entry = memo[at] = [factor, itemgetter(0, *set(flat)), itemgetter(0, *flat),
                                        None, None]
        _, reads, getter, seen, done = entry
        if reads(labels) != seen:
            rows = zip(*[islice(getter(labels), 1, None)] * factor.j)
            done = list(zip(*[rows] * factor.m))
            entry[3:] = reads(labels), done
        return done

    def remapped(remaps: list, labels: tuple[int, ...]) -> list:
        # Each remap's labels, outer digits first: ``labels[sigma[i]]``.
        labelled = [labels]
        for level in remaps:
            labelled = [tuple(map(outer.__getitem__, sigma)) for outer in labelled
                        for sigma in level]
        return labelled

    def lines(block: tuple, labels: tuple[int, ...]) -> Iterator[tuple]:
        # The outer factor's pieces are the outermost digit.
        inner, outer = block
        pieces = [factor and relabelled(k, factor, labels) for k, factor in enumerate(inner)]
        if outer is None:
            return _joined(pieces)
        at, factor = outer
        return chain.from_iterable(_joined(pieces[:at] + [[piece]] + pieces[at + 1:])
                                   for piece in relabelled(at, factor, labels))

    return chain.from_iterable(lines(block, labels) for block, remaps, outer in _walk(n, p, kind)
                               for labels in remapped(remaps, outer))


def _text_chunks(n: int, p: Partition, kind: str) -> Iterator[bytes]:
    """The text of ``p``'s members, one chunk per block of :func:`_walk`
    (per line past 100 automata)."""
    render = renderer(n)
    if render is None:
        return (f"{format_oblocks(rows)}\n".encode() for rows in _rows(n, p, kind))
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
