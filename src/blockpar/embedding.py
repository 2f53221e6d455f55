"""Subdynamics recognition: does a small functional graph embed into the
step dynamics of a network?

A pattern maps each of its vertices to its unique successor, so each of its
components carries exactly one cycle.  :func:`subdynamics` decomposes the
pattern and the transition graph with the same chase,
:func:`blockpar.dynamics._decompose`, anchors each pattern cycle onto a
dynamics cycle of the same length (trying every rotation), and matches the
hanging trees injectively with Kuhn's augmenting paths.  The module constant
``DEFAULT_NODE_CAP``, read at each call, bounds the vertices of a pattern.
Only ``check subdynamics`` loads this module.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping, Optional, Sequence

from .dynamics import _cycles, _decompose, transition_graph
from .errors import ResourceCapError
from .network import BooleanNetwork
from .schedule import DEFAULT_BLOCK_CAP, PartitionedOrder

#: Most vertices of a ``subdynamics`` pattern (``node_cap`` in its message).
DEFAULT_NODE_CAP = 12


def _tree_children(successors, on_cycle) -> dict[int, list[int]]:
    """The predecessors not in ``on_cycle`` of each vertex that has any."""
    children: dict[int, list[int]] = {}
    for x, s in enumerate(successors):
        if x not in on_cycle:
            children.setdefault(s, []).append(x)
    return children


def _kuhn_match(left: Sequence, right: Sequence, feasible) -> bool:
    """Can every left vertex be matched to a distinct feasible right vertex?"""
    match_of: dict = {}

    def assign(u, banned: set) -> bool:
        for v in right:
            if v in banned or not feasible(u, v):
                continue
            banned.add(v)
            if v not in match_of or assign(match_of[v], banned):
                match_of[v] = u
                return True
        return False

    return all(assign(u, set()) for u in left)


def subdynamics(f: BooleanNetwork, mu: PartitionedOrder,
                graph: Mapping[object, object],
                cap: Optional[int] = DEFAULT_BLOCK_CAP) -> bool:
    """Does the functional graph ``graph`` embed into the step dynamics?

    ``graph`` maps each vertex to its unique successor.  Each of its
    components carries exactly one cycle; a component embeds by anchoring its
    cycle onto a dynamics cycle of the same length (trying every rotation) and
    then matching hanging trees injectively.
    """
    if not graph:
        raise ValueError("subdynamics graph must be non-empty")
    if len(graph) > DEFAULT_NODE_CAP:
        raise ResourceCapError(f"subdynamics graph has {len(graph)} vertices,"
                               f" above node_cap={DEFAULT_NODE_CAP}")
    # Relabel the vertices 0..k-1, in the order given.
    label = {node: k for k, node in enumerate(graph)}
    g_successors = []
    for node, succ in graph.items():
        try:
            g_successors.append(label[succ])
        except (KeyError, TypeError):
            raise ValueError(f"successor {succ!r} of {node!r} is not a vertex") from None
    g_members: list[int] = []
    g_ends = _decompose(g_successors, g_members)
    g_cycles = _cycles(g_members, g_ends)
    g_children = _tree_children(g_successors, frozenset(g_members))
    dyn = transition_graph(f, mu, cap=cap)
    dyn_cycles = dyn.cycles
    dyn_children = _tree_children(dyn.successors, dyn.limit_set)

    @cache
    def tree_embeds(u: int, w: int) -> bool:
        gus = g_children.get(u, ())
        dws = dyn_children.get(w, ())
        return len(gus) <= len(dws) and _kuhn_match(gus, list(dws), tree_embeds)

    def component_embeds(g_cycle, dyn_cycle) -> bool:
        return len(g_cycle) == len(dyn_cycle) and any(
            all(map(tree_embeds, g_cycle, dyn_cycle[r:] + dyn_cycle[:r]))
            for r in range(len(g_cycle))
        )

    return _kuhn_match(
        range(len(g_cycles)),
        range(len(dyn_cycles)),
        lambda gi, di: component_embeds(g_cycles[gi], dyn_cycles[di]),
    )
