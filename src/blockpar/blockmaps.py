"""The per-block algebra: each block update of a network as a map, checked
through its dependency components.

A block update sets every member of the block, at once, to its local's
value on the configuration before the substep, and keeps every other
automaton.  ``_components`` splits a block into dependency components
(members joined when either reads the other), and ``_blocks_bijective``
checks each component only over the configurations of its support, the
component with every automaton its locals read.  Each local is evaluated
once per assignment of the variables it reads, into a truth table of bytes
(``_truth_table``), which ``_spread`` lays out over a support; the
docstring of ``_blocks_bijective`` says why this is exact.  It is the
per-block side of :func:`blockpar.dynamics.is_bijective`'s cross-check,
and only ``check bijective`` loads this module.
"""

from __future__ import annotations

from itertools import repeat
from operator import and_, lshift, or_
from typing import Iterable

from .network import BooleanNetwork


def _components(block: tuple[int, ...], reads: list[tuple[int, ...]]) -> list[frozenset[int]]:
    """The dependency components of ``block``: members ``i`` and ``j`` are
    joined when either one's local reads the other."""
    members = set(block)
    group = {i: {i} for i in block}
    for i in block:
        for j in members.intersection(reads[i]):
            a, b = group[i], group[j]
            if a is not b:
                a |= b
                for k in b:
                    group[k] = a
    return list(dict.fromkeys(frozenset(group[i]) for i in block))


def _truth_table(local, reads: tuple[int, ...]) -> bytes:
    """``local`` at each assignment of its sorted ``reads``, every other bit
    0: entry ``a`` sets ``reads[t]`` where bit ``t`` of ``a`` is set.

    Reads ``0, 1, ..., t - 1`` at the bottom are a ``range``; each read
    above them doubles the configurations."""
    t = 0
    while t < len(reads) and reads[t] == t:
        t += 1
    configs = range(1 << t)
    for p in reads[t:]:
        configs = [*configs, *map(or_, configs, repeat(1 << p))]
    return bytes(map(local, configs))


def _spread(table: bytes, reads: tuple[int, ...], support: tuple[int, ...]) -> bytes:
    """``table`` over the sorted ``support``, a superset of ``reads``: entry
    ``a`` is the table entry at the bits of ``a`` that ``reads`` name.

    ``parts[h]`` is the column over the support bits taken so far with the
    reads not yet taken at ``h``.  A read bit joins pairs of parts; any
    other bit doubles each part.  The support's lowest bits, where they are
    the lowest reads, come as slices of ``table``.
    """
    t = 0
    while t < len(reads) and reads[t] == support[t]:
        t += 1
    width = 1 << t
    parts = [table[k:k + width] for k in range(0, len(table), width)]
    for p in support[t:]:
        if t < len(reads) and reads[t] == p:
            parts = list(map(bytes.__add__, parts[::2], parts[1::2]))
            t += 1
        else:
            parts = [part * 2 for part in parts]
    return parts[0]


def _blocks_bijective(f: BooleanNetwork, blocks: Iterable[tuple[int, ...]]) -> bool:
    """Is every block update in ``blocks`` a bijection?  Stops at the first
    block that is not.

    Each block is checked through its dependency components (``_components``,
    from ``Expr.variables()``); each component ``C`` over the ``2**|S|``
    configurations of its support ``S``, ``C`` with every automaton its
    locals read, and every other bit 0.  This is exact:

    - no local of one component reads a member of another, so for each fixed
      context outside the block the block update is a product of the
      component updates, and it is bijective iff each of them is;
    - a component's update reads only ``S``, and ``S`` meets the block in
      ``C`` alone, so the bits of ``S`` outside ``C`` are context the update
      keeps.  It is bijective iff its images over those configurations,
      context bits kept, are distinct.

    Every local in a block reads the configuration before the substep, so a
    local's value is the same in every block.  Each local is evaluated with
    the scalar lambdas once per assignment of the variables it reads, into a
    truth table of bytes: ``sum(2**|reads_i|)`` calls at most, never more
    than ``n * 2**n``.  A component's images are assembled from its members'
    tables, spread over ``S``, by C-level ``map``; its verdict is kept for
    the other blocks that hold it.
    """
    compiled = f.compiled()
    reads = [tuple(sorted(expr.variables())) for expr in f.locals]
    tables: dict[int, bytes] = {}
    verdicts: dict[frozenset[int], bool] = {}
    for block in blocks:
        for component in _components(block, reads):
            if component not in verdicts:
                support = tuple(sorted(component.union(*(reads[i] for i in component))))
                place = {p: k for k, p in enumerate(support)}
                images = map(and_, range(1 << len(support)),
                             repeat(~sum(1 << place[i] for i in component)))
                for i in component:
                    if i not in tables:
                        tables[i] = _truth_table(compiled[i], reads[i])
                    column = _spread(tables[i], reads[i], support)
                    images = map(or_, images, map(lshift, column, repeat(place[i])))
                verdicts[component] = len(set(images)) == 1 << len(support)
            if not verdicts[component]:
                return False
    return True
