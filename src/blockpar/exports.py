"""The transition graph as text: DOT, and the JSON of :func:`graph_json`.

``dot_lines`` and ``json_lines`` yield their text lazily, one edge or at
most ``_NAME_CHUNK`` members of a cycle a piece, and name the
configurations a chunk at a time, so no export holds a name for every
configuration or is built as one string.  ``json_lines`` orders the cycles
by length with a counting sort into typed arrays, so it holds no Python
object per cycle either.  DOT reads the successor table alone, so a DOT
export never decomposes the graph.  Only ``dynamics`` loads this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from .dynamics import _lengths
from .network import format_config, format_configs

if TYPE_CHECKING:
    from .dynamics import DynamicsGraph

#: Configurations named per ``format_configs`` call of an export.
_NAME_CHUNK = 1024


def _edges(graph: DynamicsGraph) -> Iterator[tuple[str, str]]:
    """The names of each configuration and its successor, in order, formatted
    a chunk at a time."""
    n, successors = graph.n, graph.successors
    for base in range(0, len(successors), _NAME_CHUNK):
        targets = successors[base:base + _NAME_CHUNK]
        sources = range(base, base + len(targets))
        yield from zip(format_configs(sources, n).split("\n"),
                       format_configs(targets, n).split("\n"))


def dot_lines(graph: DynamicsGraph) -> Iterator[str]:
    """The lines of :func:`to_dot`, without newlines, lazily."""
    yield "digraph dynamics {"
    yield from (f'  "{x}" -> "{s}";' for x, s in _edges(graph))
    yield "}"


def to_dot(graph: DynamicsGraph) -> str:
    """DOT digraph: one node per configuration bitstring, one arc per successor."""
    # The final newline is joined in, so the text is not copied once more.
    return "\n".join([*dot_lines(graph), ""])


def _with_commas(pieces: Iterable[str]) -> Iterator[str]:
    """``pieces``, each but the last followed by a comma."""
    pieces = iter(pieces)
    previous = next(pieces)
    for piece in pieces:
        yield previous + ","
        previous = piece
    yield previous


def _by_length(ends):
    """Each cycle's length, from the end offsets ``ends``, and the cycle
    indices ordered by length, ties by index, as two ``array('i')``.

    A counting sort: ``start`` holds where the next cycle of each length
    goes, so nothing holds a Python object per cycle.
    """
    from array import array
    from collections import Counter

    lengths = array("i", _lengths(ends))
    start, total = {}, 0
    for length, count in sorted(Counter(lengths).items()):
        start[length], total = total, total + count
    order = array("i", [0]) * len(lengths)
    for k, length in enumerate(lengths):
        order[start[length]] = k
        start[length] += 1
    return lengths, order


def json_lines(graph: DynamicsGraph) -> Iterator[str]:
    """The lines of ``json.dumps(graph_json(graph), indent=2)``, without
    newlines, lazily: the lines of one edge, or of at most 1,024 of a
    cycle's members, come as one piece."""
    n, (members, ends) = graph.n, graph.flat_cycles()
    lengths, order = _by_length(ends)
    yield f'{{\n  "n": {n},\n  "edges": ['
    yield from _with_commas(f'    [\n      "{x}",\n      "{s}"\n    ]' for x, s in _edges(graph))
    yield '  ],\n  "cycles": {\n    "lengths": ['
    yield from _with_commas(f"      {lengths[k]}" for k in order)
    yield '    ],\n    "members": ['
    yield from _with_commas(
        "      [\n" * (at == ends[k] - lengths[k])
        + f'        "{format_configs(members[at:min(at + _NAME_CHUNK, ends[k])], n)}"'
        .replace("\n", '",\n        "')
        + "\n      ]" * (at + _NAME_CHUNK >= ends[k])
        for k in order for at in range(ends[k] - lengths[k], ends[k], _NAME_CHUNK)
    )
    yield "    ]\n  }\n}"


def graph_json(graph: DynamicsGraph) -> dict:
    """JSON-ready edge list with a cycles summary."""
    names = [format_config(x, graph.n) for x in range(len(graph.successors))]
    cycles = sorted(graph.cycles, key=len)
    return {
        "n": graph.n,
        "edges": [[names[x], names[s]] for x, s in enumerate(graph.successors)],
        "cycles": {
            "lengths": list(map(len, cycles)),
            "members": [[names[x] for x in cycle] for cycle in cycles],
        },
    }
