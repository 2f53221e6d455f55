"""Enumeration blocks in bytes: the fillers' index bytes, and the schedule
text written over placeholder bytes.

An ``m x j`` matrix has the indices ``0 .. j*m - 1``.  A filling is a record
of ``j*m`` index bytes, its rows in canonical order, and a run of
consecutive fillings is their records one after another.  Fillings commute
with increasing relabelling, so a run over indices is a template that the
matrix's members, ascending, relabel with one ``bytes.translate``.  There is
one filler per class family, and a one-row matrix, whose fillings are
permutations, is a case of each:

* the column filler (``bp0``, ``bpstar``) chooses each column as an
  ascending ``m``-subset of the indices left, the minimum within the first
  ``budget`` columns, over the template of one column fewer;
* the row filler (``bp``) chooses the set of the row holding the minimum
  outermost, fills the other rows over the indices left, and permutes that
  row innermost: one ``bytes.translate`` per first member marks the gap
  among the other rows that it falls in, and a ``bytes.replace`` writes
  the row there.

:func:`pieces` cuts the fillings into consecutive pieces: a column matrix
keeps its first columns as a head, a tuple, over one template, and a row
matrix cuts its runs.  A matrix past the index bytes, a column of more than
255 rows or a ``bp`` matrix whose other rows hold more than 126 indices, is
all head.  The heads nest one generator per column, and a ``bp`` matrix
past the index bytes one per row; a one-row matrix's come from
``itertools``.

:mod:`blockpar.enumeration` hands over blocks ``(factors, outer)``: one
:class:`Run` per matrix in line order, of a piece or of the matrix's
indices as one head, and the place of the factor whose pieces are the
block's outermost digit, if any.  A block's text is built once over
placeholders for its indices, with no object per line: a run's indices are
laid out a column at a time into a ``bytearray``, and the product folds from
the right, each factor's pieces written where a mark stands in every line
of the factors after it (:func:`spread`).  A block's remaps, member choices
taken into it, are one ``bytes.translate`` each, and each choice of the
outer digits relabels the whole block with one more.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, lru_cache
from itertools import (
    chain, combinations, compress, cycle, filterfalse, groupby, islice, permutations, repeat,
)
from math import comb, factorial, prod
from operator import itemgetter
from typing import Iterator

from .errors import Record
from .schedule import CLASS_BP


def fill_count(kind: str, j: int, m: int, budget: int) -> int:
    """Closed-form number of fillings of one ``m x j`` matrix."""
    if kind == CLASS_BP:
        return factorial(j * m) // factorial(m)
    return prod(comb(col * m, m) for col in range(1, j + 1)) * budget // j


def without(pool, taken) -> tuple[int, ...]:
    return tuple(filterfalse(set(taken).__contains__, pool))


def split(data: bytes, size: int) -> list:
    """``data`` cut into pieces of ``size`` bytes."""
    return [data[at:at + size] for at in range(0, len(data), size)]


def interleave(runs: list, count: int) -> bytes:
    """Each run cut into ``count`` equal pieces, taken in turn: every run's
    first piece, then every run's second, and so on.  Runs of more than one
    piece are of one length; short pieces are written a byte at a time."""
    if len(runs) == 1 or count == 1:
        return b"".join(runs)
    size = len(runs[0]) // count
    if size > count:
        return b"".join(chain.from_iterable(zip(*[split(run, size) for run in runs])))
    woven, step = bytearray(len(runs) * len(runs[0])), size * len(runs)
    for at, run in enumerate(runs):
        for b in range(size):
            woven[at * size + b::step] = run[b::size]
    return bytes(woven)


class Run(Record):
    """A piece of an ``m x j`` matrix's fillings over the indices from
    ``base``: the first ``heads`` columns of each hold those indices, column
    by column, and the rest each record of ``template`` over the indices
    after them; with every column a head it is one filling."""

    __slots__ = _fields = ("base", "j", "m", "heads", "template")

    def indices(self) -> list:
        """Each filling's indices row by row, one filling after another."""
        base, j, m, heads = self.base, self.j, self.m, self.heads
        k, inner = j - heads, base + heads * m
        lead = cycle([tuple(range(base + r, inner, m)) for r in range(m)])
        rows = zip(*[iter([inner + i for i in self.template])] * k) if k else repeat((), m)
        return [i for head, row in zip(lead, rows) for i in head + row]


def _relabel(template: bytes, labels) -> bytes:
    return template.translate(bytes.maketrans(bytes(range(len(labels))), bytes(labels)))


@cache
def _columns(k: int, m: int, budget: int) -> bytes:
    """Every column filling of an ``m x k`` matrix whose minimum lies within
    the first ``budget`` columns, row-major over ``0 .. k*m - 1``."""
    if k == 1:
        return bytes(range(m))
    size, runs = k * m, []
    for column in combinations(range(size), m):
        if column[0] and budget == 1:
            break
        rest = _columns(k - 1, m, budget - 1 if column[0] else k - 1)
        rest = _relabel(rest, without(range(size), column))
        count = len(rest) // (size - m)
        run = bytearray(size * count)
        for r, index in enumerate(column):
            run[r * k::size] = bytes([index]) * count
            for c in range(1, k):
                run[r * k + c::size] = rest[r * (k - 1) + c - 1::size - m]
        runs.append(run)
    return b"".join(runs)


def _heads(size: int, width: int, m: int, budget: int) -> Iterator[tuple]:
    """The first ``width`` columns of the column fillings of ``size``
    indices, each flattened column by column, in the filler's order."""
    if m == 1:
        return (head for head in permutations(range(size), width)
                if (head + (0,)).index(0) < budget)

    def rec(avail: tuple, width: int, budget: int) -> Iterator[tuple]:
        # ``budget`` 0 once the minimum is placed.
        if not width:
            yield ()
            return
        for column in combinations(avail, m):
            if budget == 1 and column[0] != avail[0]:
                break
            after = budget - 1 if budget and column[0] != avail[0] else 0
            for rest in rec(without(avail, column), width - 1, after):
                yield column + rest

    return rec(tuple(range(size)), width, budget)


def pieces(kind: str, j: int, m: int, budget: int, most: int, limit: int
           ) -> Iterator[tuple[tuple, bytes]]:
    """The fillings of an ``m x j`` matrix of class ``kind`` in order, as
    pieces ``(head, template)`` of at most ``most`` fillings (or of one
    column): ``head`` holds the indices of the first ``len(head) // m``
    columns, column by column, and ``template`` a run over the indices after
    them, ascending.  The row filler holds at most ``limit`` at once."""
    if kind == CLASS_BP and m > 1:
        if j * (m - 1) > 126:
            # Past the row filler's index bytes each filling is a head.
            return ((tuple(chain.from_iterable(zip(*rows))), b"")
                    for rows in _row_heads(tuple(range(j * m)), j))
        size = max(most, 1) * j * m
        return (((), piece) for run in _rows(j, m, limit) for piece in split(run, size))
    # Past the index bytes, a column of more than 255 rows, the head is all.
    k = int(m < 256)
    while 0 < k < j and fill_count(kind, k + 1, m, k + 1 if k + 1 < j else budget) <= most:
        k += 1
    return ((head, _columns(k, m, k if 0 in head else budget + k - j) if k else b"")
            for head in _heads(j * m, j - k, m, budget))


def fillings(kind: str, j: int, m: int, budget: int, limit: int) -> Iterator[tuple]:
    """Each filling of an ``m x j`` matrix of class ``kind`` in order, as its
    indices column by column."""
    for head, template in pieces(kind, j, m, budget, limit, limit):
        order = head + without(range(j * m), head)
        flat = Run(0, j, m, len(head) // m, template).indices()
        for at in range(0, len(flat), j * m):
            yield tuple(order[flat[at + r * j + c]] for c in range(j) for r in range(m))


def _permutations(first: tuple, limit: int) -> Iterator[bytes]:
    """The permutations of ``first``, ascending, in order, in runs of at
    most ``limit``."""
    rows = map(bytes, permutations(first))
    while run := b"".join(islice(rows, max(limit, 1))):
        yield run


def _row_heads(avail: tuple, j: int) -> Iterator[tuple]:
    """The row fillings of ``avail`` in the row filler's order, each as its
    rows in canonical order; one generator per row."""
    if not avail:
        yield ()
        return
    for others in combinations(avail[1:], j - 1):
        first = (avail[0], *others)
        for rows in _row_heads(without(avail, first), j):
            for row in permutations(first):
                yield tuple(sorted((row, *rows)))


def _marked(chunk: bytes, j: int, rows: int) -> bytes:
    """``chunk``'s records of ``rows`` rows, each row between two gap
    bytes on either side: the first members beside the gap as ``128 + v``,
    and 254 and 255 at the record's ends."""
    width = j * rows
    count, size = len(chunk) // width, width + 2 * rows + 2
    marked = bytearray(count * size)
    marked[0::size], marked[size - 1::size] = b"\xfe" * count, b"\xff" * count
    for g in range(rows):
        at = g * (j + 2) + 1
        marked[at::size] = marked[at + j + 1::size] = chunk[g * j::width].translate(
            bytes(range(128, 256)) * 2)
        for c in range(j):
            marked[at + 1 + c::size] = chunk[g * j + c::width]
    return bytes(marked)


def _rows(j: int, m: int, limit: int):
    """The row fillings of an ``m x j`` matrix, ``m >= 2``: the kept template
    if at most ``limit``, else runs of at most ``limit``."""
    count = fill_count(CLASS_BP, j, m, j)
    return [_row_template(j, m)] if count <= limit else _row_runs(j, m, limit)


@lru_cache(maxsize=8)
def _row_template(j: int, m: int) -> bytes:
    return b"".join(_row_runs(j, m, fill_count(CLASS_BP, j, m, j)))


def _row_runs(j: int, m: int, limit: int) -> Iterator[bytes]:
    size, width = j * m, j * (m - 1)
    # Chunks of the other rows' fillings that, times the permutations of the
    # first row, hold at most ``limit``; those come in one run whenever a
    # chunk holds more than one filling.
    per = max(1, limit // factorial(j)) * width
    for others in combinations(range(1, size), j - 1):
        first = (0, *others)
        left = bytes(without(range(size), first))
        runs = _permutations(tuple(range(j)), limit) if m == 2 else _rows(j, m - 1, limit)
        for chunk in (_marked(piece, j, m - 1) for run in runs for piece in split(run, per)):
            for run in _permutations(first, limit):
                copies = []
                for lead, rows in groupby(split(run, j), itemgetter(0)):
                    # The gap with first members below ``lead`` before it and
                    # none after it reads 254, 255, and takes the row.
                    below = bisect_left(left, lead)
                    holed = chunk.translate(
                        left + bytes(128 - width) + b"\xfe" * below + b"\xff" * (width - below)
                        + bytes(126 - width) + b"\xfe\xff").replace(b"\xfe\xff", b"\xfd")
                    holed = holed.translate(None, b"\xfe\xff")
                    copies += [holed.replace(b"\xfd", row) for row in rows]
                yield interleave(copies, len(chunk) // (width + 2 * m))


@cache
def placeholders(n: int):
    """``(moves, relabel, remap, marks)`` for the indices ``0 .. n-1`` of a
    block of text; ``None`` if their placeholders do not fit.  Each ``n``'s
    are made once, for all of its partitions.

    An index takes one placeholder byte per decimal place of ``n - 1``, from
    the bytes schedule text never holds: ``moves[i]`` is the
    ``bytes.translate`` table from an index to its byte in place ``i``.
    ``relabel(block, labels)`` is one ``bytes.translate``: it writes the
    digits of ``labels[k]`` into the places of index ``k`` and deletes the
    leading places that a label with fewer digits leaves empty.
    ``remap(block, sigma)`` is one more: it writes index ``sigma[k]`` in the
    places of index ``k``.  ``marks`` are two more bytes of that kind, which
    no placeholder takes.
    """
    alphabet = bytes(sorted(set(range(256)).difference(b"[],0123456789\n")))
    width = len(str(n - 1))
    if width * n + 2 > len(alphabet):
        return None
    places = [alphabet[i * n:(i + 1) * n] for i in range(width)]
    numerals = [str(label).rjust(width) for label in range(n)]
    padding = bytes(256 - n)
    digits = [bytes(ord(numeral[i]) for numeral in numerals) + padding
              for i in range(width)]
    blanks = [bytes(numeral[i] == " " for numeral in numerals) + padding
              for i in range(width - 1)]
    source = b"".join(places)
    moves = [place + padding for place in places]

    # One place, the common case, takes one ``translate`` of the key.
    maketrans, (digit, *_), (move, *_) = bytes.maketrans, digits, moves

    def relabel(block: bytes, labels: tuple[int, ...]) -> bytes:
        key = bytes(labels)
        if width == 1:
            return block.translate(maketrans(source, key.translate(digit)))
        table = maketrans(source, b"".join([key.translate(d) for d in digits]))
        empty = b"".join([bytes(compress(place, key.translate(blank)))
                          for place, blank in zip(places, blanks)])
        return block.translate(table, empty)

    def remap(block: bytes, sigma: tuple[int, ...]) -> bytes:
        key = bytes(sigma)
        if width == 1:
            return block.translate(maketrans(source, key.translate(move)))
        return block.translate(maketrans(source, b"".join([key.translate(m) for m in moves])))

    return moves, relabel, remap, (alphabet[-2:-1], alphabet[-1:])


def _before(head: bytes, lines: bytes) -> bytes:
    """``lines`` with ``head`` written before each."""
    return head + lines.replace(b"\n", b"\n" + head)[:-len(head)]


def spread(lines: bytes, mark: bytes, pieces: bytes) -> bytes:
    """Each of ``pieces``, newline-ended, written at the one ``mark`` of each
    of ``lines``, the pieces outer: a piece at a time or a line at a time,
    whichever are fewer."""
    width = lines.index(b"\n") + 1
    count, many = len(lines) // width, pieces.count(b"\n")
    if many <= count:
        return b"".join([lines.replace(mark, piece) for piece in pieces.split(b"\n")[:-1]])
    runs = []
    for line in split(lines, width):
        head, _, tail = line.partition(mark)
        copies = head + pieces.replace(b"\n", tail + head)
        runs.append(copies[:len(copies) - len(head)])
    return interleave(runs, many)


def renderer(n: int):
    """The function that writes one partition's blocks of ``n`` automata as
    text, ``render(block, remaps, labels)``; ``None`` past 100 automata.

    A block's text is built once and kept for the blocks after it, and a
    block is relabelled with one ``bytes.translate``; a block's remaps are
    written once too, and so is each piece of its outer factor.
    """
    marks = placeholders(n)
    if marks is None:
        return None
    moves, relabel, remap, (mark, top) = marks

    def layout(factor, sep: bytes) -> bytes:
        """The factor's pieces with placeholders, each ``sep`` and its rows
        and a newline: a run's indices are written a column at a time."""
        base, j, m, heads = factor.base, factor.j, factor.m, factor.heads
        k, inner = j - heads, base + heads * m
        template = factor.template.translate(bytes(range(inner, 256)) + bytes(inner))
        count = len(template) // (k * m) if k else 1
        hole = bytes(len(moves))
        form = sep + b"],[".join([b",".join([hole] * j)] * m) + b"\n"
        line = len(form)
        text = bytearray(form * count)
        at = len(sep)
        for r in range(m):
            for c in range(j):
                column = (bytes([base + c * m + r]) * count if c < heads
                          else template[r * k + c - heads::k * m])
                for place, move in enumerate(moves):
                    text[at + place::line] = column.translate(move)
                at += len(moves) + (1 if c + 1 < j else 3)
        return bytes(text)

    def text(inner: tuple) -> bytes:
        """The lines of the block's factors but the outer one, whose place
        holds ``top``: each factor's pieces written before every line of the
        factors after it, the leftmost outermost."""
        seps = chain([b"[["], repeat(b"],["))
        *parts, lines = [top + b"\n" if factor is None else layout(factor, sep)
                         for factor, sep in zip(inner, seps)]
        for part in reversed(parts):
            lines = spread(_before(mark, lines), mark, part)
        return lines.replace(b"\n", b"]]\n")

    held = [None, b"", None, b""]

    def render(block: tuple, remaps: list, labels: tuple[int, ...]) -> bytes:
        inner, outer = block
        if inner is not held[0]:
            lines = text(inner)
            for level in reversed(remaps):
                lines = b"".join([remap(lines, sigma) for sigma in level])
            held[:] = inner, lines, None, lines
        if outer is not held[2]:
            at, factor = outer
            held[2:] = outer, spread(held[1], top, layout(factor, b"],[" if at else b"[["))
        return relabel(held[3], labels)

    return render
