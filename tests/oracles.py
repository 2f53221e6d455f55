"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written with different algorithms than the
package: ascending-part recursion for partitions, set-partition expansion for
schedules, explicit rotation minimisation for shift classes.  The exception
is :func:`template_stream`, the package's earlier schedule text path: it
shares the matrix fillers but renders one ``str.format`` template per filling
and line, the reference for the text rendered a block at a time.
"""

import json
import math
from functools import lru_cache
from itertools import chain, combinations, permutations, repeat
from operator import methodcaller
from typing import Optional

from blockpar import blocktext, counting, enumeration, phi, update_block
from blockpar.partitions import Partition, partitions_of


@lru_cache(maxsize=None)
def _bounded_partition_count(n: int, largest: int) -> int:
    if n == 0:
        return 1
    if largest == 0:
        return 0
    return sum(
        _bounded_partition_count(n - take * largest, largest - 1)
        for take in range(n // largest + 1)
    )


def partition_count(n: int) -> int:
    """p(n) by the bounded-largest-part recurrence."""
    return _bounded_partition_count(n, n)


def partitions_ascending(n: int) -> set[tuple[int, ...]]:
    """All partitions of ``n`` as ascending part tuples (min-part-first walk)."""

    def rec(remaining: int, minimum: int):
        if remaining == 0:
            yield ()
            return
        for first in range(minimum, remaining + 1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return set(rec(n, 1))


def partition_sums(n: int) -> dict[str, int]:
    """The ``count`` columns of ``n`` as sums of the per-partition terms over
    :func:`partitions_ascending`; where a term has several closed forms, they
    must agree term by term."""
    sums = dict.fromkeys(("bs", "bp", "bp0", "bp_star"), 0)
    for parts in partitions_ascending(n):
        p = Partition.from_parts(parts)
        bp0 = counting.bp0_term(p)
        assert counting.bp_term(p) == counting.bp_term_product(p)
        assert bp0 == counting.bp0_term_columns(p) == counting.bp0_term_matrices(p)
        sums["bs"] += counting.bs_term(p)
        sums["bp"] += counting.bp_term(p)
        sums["bp0"] += bp0
        sums["bp_star"] += counting.bp_star_term(p)
    return sums


def set_partitions(items):
    """All unordered set partitions; blocks are tuples in insertion order."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for idx in range(len(sub)):
            yield sub[:idx] + [(first,) + sub[idx]] + sub[idx + 1:]
        yield [(first,)] + sub


def _block_arrangements(blocks):
    if not blocks:
        yield ()
        return
    head, rest = blocks[0], blocks[1:]
    for tail in _block_arrangements(rest):
        for perm in permutations(head):
            yield (perm,) + tail


def all_partitioned_orders(n: int) -> set[tuple[tuple[int, ...], ...]]:
    """Every set of ordered o-blocks covering 0..n-1, in canonical outer order."""
    found = set()
    for blocks in set_partitions(range(n)):
        for arranged in _block_arrangements(blocks):
            found.add(tuple(sorted(arranged, key=lambda b: (len(b), b))))
    return found


def ordered_set_partitions(n: int):
    """All ordered partitions of 0..n-1 (block-sequential schedules)."""

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        for size in range(1, len(remaining) + 1):
            for block in combinations(remaining, size):
                taken = set(block)
                rest = tuple(e for e in remaining if e not in taken)
                for tail in rec(rest):
                    yield (block,) + tail

    yield from rec(tuple(range(n)))


def rotation_key(blocks: tuple) -> tuple:
    """Canonical form of a block sequence under circular shifts."""
    return min(blocks[i:] + blocks[:i] for i in range(len(blocks)))


def shift_between(blocks: tuple, blocks2: tuple) -> Optional[int]:
    """Smallest ``i`` with ``blocks == sigma^i(blocks2)``, or None, by trying
    every rotation of the ``phi`` block sequences.

    ``sigma^i`` moves the element at position 0 towards position ``i``, so
    ``sigma^i(b)[k] == b[(k - i) % len(b)]``.
    """
    length = len(blocks)
    if length != len(blocks2):
        return None
    for i in range(length):
        if all(blocks[k] == blocks2[(k - i) % length] for k in range(length)):
            return i
    return None


def step_via_phi(f, mu, x: int) -> int:
    """One step as an explicit composition of block updates over phi."""
    for block in phi(mu).blocks:
        x = update_block(f, block, x)
    return x


def substep_blocks(mu) -> tuple[tuple[int, ...], ...]:
    """The update block of every substep, spelled out with explicit
    ``t mod len(o-block)`` indexing rather than ``PartitionedOrder.substeps``."""
    lengths = [len(block) for block in mu.oblocks]
    return tuple(
        tuple(sorted(block[t % len(block)] for block in mu.oblocks))
        for t in range(math.lcm(*lengths))
    )


def substep_image(f, mu, x: int) -> int:
    """One step as ``update_block`` over ``substep_blocks``, one configuration
    at a time."""
    for block in substep_blocks(mu):
        x = update_block(f, block, x)
    return x


def per_block_bijective(f, mu) -> bool:
    """Is every distinct substep block a bijective update?  ``update_block``
    on every configuration, one block at a time."""
    size = 1 << f.n
    return all(
        len({update_block(f, block, x) for x in range(size)}) == size
        for block in set(mu.substeps())
    )


def format_config_bits(x: int, n: int) -> str:
    """Configuration to bitstring, one shifted bit per character."""
    return "".join("1" if (x >> i) & 1 else "0" for i in range(n))


def schedule_json(oblocks) -> str:
    """Schedule text through ``json.dumps``, o-blocks in the order given."""
    return json.dumps([list(block) for block in oblocks], separators=(",", ":"))


_SYMBOLS = {"And": "&", "Or": "|", "Xor": "^"}


def full_source(expr, var: str, one: str) -> str:
    """An expression as Python with every negation and every binary operation
    in its own parentheses, a chain folded left to right: ``var.format(i)``
    for a variable, ``one`` for the constant 1, and negation as ``^ one``."""
    kind = type(expr).__name__
    if kind == "Var":
        return var.format(expr.index)
    if kind == "Const":
        return one if expr.value else "0"
    if kind == "Not":
        return f"({full_source(expr.operand, var, one)}^{one})"
    source, *rest = (full_source(e, var, one) for e in expr.operands)
    for operand in rest:
        source = f"({source}{_SYMBOLS[kind]}{operand})"
    return source


def orbit_decomposition(successors) -> tuple[list[tuple[int, ...]], list[int]]:
    """Cycles, in order of the first vertex reaching each, and the index of
    the cycle each vertex reaches; every orbit is followed until it repeats.

    Each orbit keeps its own positions, so no mark is shared between starts.
    Cycles are disjoint, so a cycle is named by its smallest member, where
    its least rotation starts."""
    cycles: list[tuple[int, ...]] = []
    index: dict[int, int] = {}
    basin = []
    for x in range(len(successors)):
        place: dict[int, int] = {}
        y = x
        while y not in place:
            place[y] = len(place)
            y = successors[y]
        members = list(place)[place[y]:]
        lowest = min(members)
        if lowest not in index:
            index[lowest] = len(cycles)
            at = members.index(lowest)
            cycles.append(tuple(members[at:] + members[:at]))
        basin.append(index[lowest])
    return cycles, basin


def embeds_injectively(pattern: dict, successors) -> bool:
    """Is there an injective map ``h`` from the pattern's vertices into the
    configurations with ``h(pattern[v]) == successors[h(v)]`` for every ``v``?"""
    vertices = list(pattern)
    for image in permutations(range(len(successors)), len(vertices)):
        h = dict(zip(vertices, image))
        if all(h[pattern[v]] == successors[h[v]] for v in vertices):
            return True
    return False


# ---------------------------------------------------------------------------
# The schedule text of the class streams, one ``str.format`` per filling

class _Field(int):
    """Matrix index ``k`` standing in for the matrix's ``k``-th smallest
    member: it orders as ``k`` and prints as the ``str.format`` field
    ``{k}``, so a filling of fields renders to a text template."""

    def __str__(self) -> str:
        return f"{{{int(self)}}}"


def _text_piece(rows, opens: bool, closes: bool) -> str:
    body = "],[".join([",".join(map(str, row)) for row in sorted(rows)])
    return ("[[" if opens else ",[") + body + ("]]" if closes else "]")


def _text_row(labels, budget: int, opens: bool, closes: bool):
    rows = map(",".join, blocktext.one_row(tuple(map(str, labels)), budget))
    return map("".join, zip(repeat("[[" if opens else ",["), rows,
                            repeat("]]" if closes else "]")))


def _text_relabel(templates, labels):
    return map(methodcaller("format", *labels), templates)


#: ``(piece, row, relabel)``: a filling's text, the texts of a one-row
#: matrix's fillings, and templates of :class:`_Field` indices relabelled.
TEXT = (_text_piece, _text_row, _text_relabel)


def template_stream(n: int, p: Partition, kind: str, renderer=TEXT):
    """The lines of ``p``'s members of class ``kind``, one text template per
    filling relabelled by ``str.format`` for every content choice.

    Matrices are templated, and lines ordered, by the same rule as
    ``enumeration._walk`` under the current
    ``enumeration._MATERIALIZE_LIMIT``; nothing is rendered as a block.
    """
    piece, row, relabel = renderer
    sizes = [(j, p.m(j)) for j in p.part_sizes()]
    if kind == "bpstar":
        budgets = enumeration.min_column_budgets(p)
    else:
        budgets = {j: j for j, _ in sizes}
    last = len(sizes) - 1

    def pieces(elements, j, m, opens, closes):
        if m == 1:
            return row(elements, budgets[j], opens, closes)
        if kind == "bp":
            fillings = enumeration._fill_rows(elements, j, m)
        else:
            fillings = enumeration._fill_columns_shifted(elements, j, m, budgets[j])
        return (piece(rows, opens, closes) for rows in fillings)

    limit = enumeration._MATERIALIZE_LIMIT
    templates = [
        list(pieces(tuple(map(_Field, range(j * m))), j, m, idx == last, idx == 0))
        if last > 0 and enumeration._fill_count(kind, j, m, budgets[j]) <= limit
        else None
        for idx, (j, m) in enumerate(sizes)
    ]

    def rec(remaining, idx):
        j, m = sizes[idx]
        closes = idx == 0
        if idx == last:
            if templates[idx] is None:
                yield from pieces(remaining, j, m, True, closes)
            else:
                yield from relabel(templates[idx], remaining)
            return
        for chosen in combinations(remaining, j * m):
            rest = tuple(x for x in remaining if x not in chosen)
            if templates[idx] is None:
                for head in pieces(chosen, j, m, False, closes):
                    for tail in rec(rest, idx + 1):
                        yield tail + head
            else:
                heads = list(relabel(templates[idx], chosen))
                for tail in rec(rest, idx + 1):
                    for head in heads:
                        yield tail + head

    return rec(tuple(range(n)), 0)


def template_lines(n: int, kind: str, partition: Optional[Partition] = None):
    """:func:`template_stream` over every partition of ``n``, or ``partition``."""
    supports = [partition] if partition is not None else partitions_of(n)
    return chain.from_iterable(template_stream(n, p, kind) for p in supports)
