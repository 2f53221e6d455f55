"""Schedule text of enumeration blocks, written with placeholder bytes.

:mod:`blockpar.enumeration` walks each partition's digits and hands over
blocks: tuples of groups, each the product of its factors, which are lists
of pieces of rows of indices, or :class:`OneRow` factors.  The text of a
group is built once, over placeholders for its indices, with no object per
line: a factor's pieces are laid out a column of indices at a time into a
``bytearray``, a one-row factor is the permutations of a shorter row moved
up past each first index by ``bytes.translate`` (kept for the partitions of
one ``n``), and the product folds from its last factor, each piece of a
factor written before every line of the factors after it by one
``bytes.replace``, or all pieces at once before a single line.  A block's
remaps, member choices taken into the block, are one ``bytes.translate``
each, and each choice of the outer digits relabels the whole block with
one more.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import chain, compress, permutations, repeat
from typing import Iterator


def one_row(labels: tuple, budget: int) -> Iterator[tuple]:
    """The fillings of a one-row matrix holding ``labels``, written in
    ascending order, as that row: the permutations of ``labels`` in
    lexicographic order of positions whose first label, the matrix minimum,
    lies within the first ``budget`` positions.

    These are the rows the row and column fillers of :mod:`blockpar.enumeration`
    give for ``m = 1``, in their order, built by ``itertools`` without a
    generator per column.
    """
    if budget >= len(labels):
        return permutations(labels)
    first, rest = labels[:1], labels[1:]
    leads = (map((lead,).__add__, one_row(first + rest[:i] + rest[i + 1:], budget - 1))
             for i, lead in enumerate(rest)) if budget > 1 else ()
    return chain(map(first.__add__, permutations(rest)), chain.from_iterable(leads))


class OneRow:
    """A one-row factor: ``head`` before each row of ``one_row(labels,
    budget)``, as pieces; the text view writes it without them."""

    __slots__ = ("head", "labels", "budget")

    def __init__(self, head: tuple, labels: tuple, budget: int):
        self.head, self.labels, self.budget = head, labels, budget

    def __iter__(self) -> Iterator[tuple]:
        return zip(map(self.head.__add__, one_row(self.labels, self.budget)))


@cache
def placeholders(n: int):
    """``(slots, moves, relabel, remap)`` for the indices ``0 .. n-1`` of a
    block of text; ``None`` if their placeholders do not fit.  Each ``n``'s
    are made once, for all of its partitions.

    An index takes one placeholder byte per decimal place of ``n - 1``, from
    the bytes schedule text never holds: ``slots[k]`` is a comma and index
    ``k``'s placeholder, and ``moves[i]`` the ``bytes.translate`` table from
    an index to its byte in place ``i``.  ``relabel(block, labels)`` is one
    ``bytes.translate``: it writes the digits of ``labels[k]`` into the
    places of index ``k`` and deletes the leading places that a label with
    fewer digits leaves empty.  ``remap(block, sigma)`` is one more: it
    writes index ``sigma[k]`` in the places of index ``k``.
    """
    alphabet = bytes(sorted(set(range(256)).difference(b"[],0123456789\n")))
    width = len(str(n - 1))
    if width * n > len(alphabet):
        return None
    places = [alphabet[i * n:(i + 1) * n] for i in range(width)]
    slots = [b"," + bytes(place[k] for place in places) for k in range(n)]
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

    return slots, moves, relabel, remap


def _before(head: bytes, lines: bytes) -> bytes:
    """``lines`` with ``head`` written before each."""
    return head + lines.replace(b"\n", b"\n" + head)[:-len(head)]


@lru_cache(maxsize=8)
def _permuted(n: int, k: int) -> bytes:
    """The permutations of the indices below ``k`` of ``n``, in
    lexicographic order, each a row: the permutations of one index fewer,
    moved up past each first index in turn.  Kept for the partitions of one
    ``n``."""
    slots, _, _, remap = placeholders(n)
    if k == 1:
        return slots[0][1:] + b"\n"
    shorter = _permuted(n, k - 1)
    moved = [remap(shorter, (*range(i), *range(i + 1, n + 1))) for i in range(k)]
    return b"".join([_before(slots[i][1:] + b",", lines) for i, lines in enumerate(moved)])


def renderer(n: int):
    """The function that writes one partition's blocks of ``n`` automata as
    text, ``render(block, remaps, labels)``; ``None`` past 100 automata.

    Each group's text is built once and kept, and a block is relabelled
    with one ``bytes.translate``; a block's remaps are written once too.
    """
    marks = placeholders(n)
    if marks is None:
        return None
    slots, moves, relabel, remap = marks
    texts: dict = {}

    def lead(label: int, lines: bytes) -> bytes:
        return _before(slots[label][1:] + b",", lines)

    def row(labels: tuple, budget: int) -> bytes:
        """The rows of ``one_row(labels, budget)``, by its recursion."""
        if budget >= len(labels):
            return remap(_permuted(n, len(labels)), (*labels, *bytes(n - len(labels))))
        first, rest = labels[:1], labels[1:]
        parts = [lead(first[0], row(rest, len(rest)))]
        if budget > 1:
            parts += [lead(label, row(first + rest[:i] + rest[i + 1:], budget - 1))
                      for i, label in enumerate(rest)]
        return b"".join(parts)

    def layout(factor, sep: bytes) -> bytes:
        """The factor's pieces with placeholders, each ``sep`` and its rows
        and a newline: the indices are written a column at a time."""
        if isinstance(factor, OneRow):
            body = row(factor.labels, factor.budget)
            for label in reversed(factor.head):
                body = lead(label, body)
            return _before(sep, body)
        pieces = list(factor)
        if len(pieces) == 1:
            return sep + b"],[".join([b"".join(map(slots.__getitem__, row))[1:]
                                      for row in pieces[0]]) + b"\n"
        hole = bytes(len(moves))
        form = sep + b"],[".join([b",".join([hole] * len(row)) for row in pieces[0]]) + b"\n"
        flat = bytes(chain.from_iterable(chain.from_iterable(pieces)))
        size, line = len(flat) // len(pieces), len(form)
        text = bytearray(form * len(pieces))
        at = len(sep) - 1
        for q in range(size):
            at += 1 + (form[at] == 93) * 2
            column = flat[q::size]
            for place, move in enumerate(moves):
                text[at + place::line] = column.translate(move)
            at += len(moves)
        return text

    def text(group: tuple) -> bytes:
        """The group's lines with placeholders, kept for the next block: the
        product folded from its last factor, each piece of a factor written
        before every line of the factors after it."""
        factors = [f if isinstance(f, OneRow) else list(f) for f in group]
        seps = chain([b"[["], repeat(b"],["))
        if all(isinstance(f, list) and len(f) == 1 for f in factors):
            rows = chain.from_iterable(factor[0] for factor in factors)
            texts[id(group)] = layout([tuple(rows)], b"[[")[:-1] + b"]]\n"
            return texts[id(group)]
        *heads, lines = [layout(factor, sep) for sep, factor in zip(seps, factors)]
        lines = lines.replace(b"\n", b"]]\n")
        for head in reversed(heads):
            if lines.count(b"\n") == 1:
                # One line after each piece: it takes the piece's newline.
                lines = bytes(head).replace(b"\n", lines)
            else:
                pieces = bytes(head).split(b"\n")[:-1]
                lines = b"".join([_before(piece, lines) for piece in pieces])
        texts[id(group)] = bytes(lines)
        return texts[id(group)]

    held = [None, b""]

    def render(block: tuple, remaps: list, labels: tuple[int, ...]) -> bytes:
        if block is not held[0]:
            lines = b"".join([texts.get(id(group)) or text(group) for group in block])
            for level in reversed(remaps):
                lines = b"".join([remap(lines, sigma) for sigma in level])
            held[:] = block, lines
        return relabel(held[1], labels)

    return render
