"""Transition-graph analysis and desk-scale deciders, over the substep kernel.

One *step* of a network under a block-parallel schedule is the composition of
one block update per substep.  The scalar kernel, which runs one
configuration through one step, is :mod:`blockpar.kernel`; ``step`` and
``step_trace`` are imported from it, so a command that only simulates never
compiles this module.  The whole-space evaluator, ``_images``, is
bit-sliced: it holds all ``2**n`` configurations as ``n`` bit-planes (one
Python int per automaton, one bit per configuration), runs each substep once
over every plane, and transposes the planes back into one machine word per
configuration, read through a typed ``memoryview``.  It works through
sub-cubes of doubling size, so a decider that stops early evaluates few
configurations.  ``transition_graph`` joins the sub-cubes into one
``array`` (1 to 4 bytes a configuration up to ``n = 20``), and
``DynamicsGraph`` keeps the table it is given.  The whole-space deciders
read the sub-cubes; ``is_bijective`` marks their images in a ``bytearray``
and checks them against a scalar per-block method, ``_blocks_bijective``.
That method splits each block
into dependency components (members joined when either reads the other)
and checks each component only over the configurations of its support,
the component with every automaton its locals read; each local is
evaluated once per assignment of the variables it reads, into a truth
table of bytes (its docstring says why this is exact).  Every cycle
decomposition, of the transition graph and of a subdynamics pattern, is one
pointer chase, ``_decompose``, into ``array('i')``: the basins, and the
cycles as one flat array of members with an array of end offsets; the
graph's ``cycles`` tuples are built when read.  The exports, ``dot_lines``
and ``json_lines``, yield their text lazily, one edge or at most 1,024
members of a cycle at a time, and name the configurations a chunk at a
time, so no export holds a name for every configuration or is built as one
string.  Everything
here is exact and exhaustive, guarded by explicit resource caps.  The
``cap`` keyword bounds the substeps one step may expand to (``None`` for no
cap).  Module constants, read at each call, bound the rest:
``DEFAULT_GRAPH_N_CAP`` the automata of a whole-space operation,
``DEFAULT_NODE_CAP`` the vertices of a ``subdynamics`` pattern and
``DEFAULT_REACH_STEP_CAP`` the orbit ``reachable`` follows.  Every entry
point checks its inputs once, in this order: the sizes match, then each
configuration is in range, then (for a whole-space call) the graph cap,
then the substep cap (:func:`~blockpar.schedule.check_substeps`).
Exceeding a cap raises :class:`ResourceCapError` rather than truncating.

This module is kept under 4,096 tokens.  Past that, CPython's parser
doubles its token array and allocates a token for every new slot: about
0.25 MB more peak memory for every command that compiles the module.
"""

from __future__ import annotations

import struct
import sys
from functools import cache
from itertools import chain, permutations, repeat
from operator import and_, lshift, or_, sub
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import CrossCheckError, ResourceCapError
# ``step`` and ``step_trace`` live in the kernel; they are public here too.
from .kernel import _check_call, _check_configs, _Kernel, step, step_trace  # noqa: F401
from .network import BooleanNetwork, Or, Var, format_config, format_configs
from .schedule import DEFAULT_BLOCK_CAP, PartitionedOrder, check_substeps, equiv0

#: Most automata a whole-space operation runs on (``n_cap`` in its message).
DEFAULT_GRAPH_N_CAP = 20
#: Most vertices of a ``subdynamics`` pattern (``node_cap`` in its message).
DEFAULT_NODE_CAP = 12
#: Steps ``reachable`` may take: enough for any orbit within ``n_cap`` automata.
DEFAULT_REACH_STEP_CAP = 1 << DEFAULT_GRAPH_N_CAP
#: ``_images`` evaluates the first ``2**_FIRST_CUBE_WIDTH`` configurations
#: alone, then sub-cubes that double in size.
_FIRST_CUBE_WIDTH = 8


def _cube_planes(n: int, base: int, width: int) -> tuple[list[int], int]:
    """Bit-planes of the ``2**width`` configurations ``base, base + 1, ...``
    (``base`` a multiple of ``2**width``), and the all-lanes mask.

    Lane ``k`` holds configuration ``base + k``: plane ``i < width`` repeats
    ``2**i`` zeros then ``2**i`` ones; the planes above are constant.
    """
    mask = (1 << (1 << width)) - 1
    planes = [mask // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
              for i in range(width)]
    planes.extend(mask if base >> i & 1 else 0 for i in range(width, n))
    return planes, mask


# A plane's binary digits, one byte per lane: b"0" -> 0, b"1" -> 1.
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _transpose(planes: list[int], lanes: int) -> memoryview:
    """The configuration held in each lane of ``planes``, lane 0 first.

    Each group of eight planes becomes one byte per lane; the groups are
    interleaved into machine words, read as one typed view.
    """
    code = next(c for c in "BHIQ" if struct.calcsize(c) * 8 >= len(planes))
    word = struct.calcsize(code)
    table = bytearray(word * lanes)
    for low in range(0, len(planes), 8):
        group = 0
        for i, plane in enumerate(planes[low:low + 8]):
            digits = format(plane, f"0{lanes}b").encode().translate(_DIGIT_BYTES)
            group |= int.from_bytes(digits, "big") << i
        byte = low // 8 if sys.byteorder == "little" else word - 1 - low // 8
        table[byte::word] = group.to_bytes(lanes, "little")
    return memoryview(table).cast(code)


def _image_cubes(f: BooleanNetwork, mu: PartitionedOrder, what: str,
                 cap: Optional[int], *configs: int) -> Iterator[memoryview]:
    """The whole-space evaluator: the one-step images of every configuration,
    in order, one typed view per sub-cube.  The caps are checked at the call; the
    sub-cubes come lazily.

    Bit-sliced: a sub-cube of configurations is held as ``n`` bit-planes, one
    lane per configuration, and each substep evaluates every updated local
    once over all lanes.  The first sub-cube holds configurations below
    ``2**_FIRST_CUBE_WIDTH``, then each sub-cube ``[2**k, 2**(k+1))`` follows,
    so an early exit costs few lanes and the whole space costs ``2**n``.
    ``what`` names the operation in the ``n_cap`` error; ``configs``, the
    caller's configuration arguments, are checked first, and the substep cap
    last.
    """
    _check_configs(f, mu, *configs)
    if f.n > DEFAULT_GRAPH_N_CAP:
        raise ResourceCapError(f"{what} exceeds n_cap={DEFAULT_GRAPH_N_CAP}")
    check_substeps(mu, cap)
    return _sub_cube_images(f, mu)


def _images(f: BooleanNetwork, mu: PartitionedOrder, what: str,
            cap: Optional[int], *configs: int) -> Iterator[int]:
    """The images of ``_image_cubes``, one configuration at a time."""
    return chain.from_iterable(_image_cubes(f, mu, what, cap, *configs))


def _sub_cube_images(f: BooleanNetwork, mu: PartitionedOrder) -> Iterator[memoryview]:
    sliced = f.sliced()
    first = min(f.n, _FIRST_CUBE_WIDTH)
    for base, width in [(0, first), *((1 << k, k) for k in range(first, f.n))]:
        planes, mask = _cube_planes(f.n, base, width)
        for block in mu.substeps():
            nxt = list(planes)
            for i in block:
                nxt[i] = sliced[i](planes, mask)
            planes = nxt
        yield _transpose(planes, 1 << width)


def _decompose(successors: Sequence[int]):
    """Cycles and basins of the functional graph ``x -> successors[x]`` on
    ``0..len(successors)-1``, as three ``array('i')``: ``members``, every
    cycle rotated to start at its smallest member, one after another;
    ``ends``, where each cycle's members end; and ``basin``, where
    ``basin[x]`` is the index of the cycle the orbit of ``x`` reaches.
    """
    from array import array

    # Iterative pointer chase marked in ``basin``: -1 unseen, -2 on the path.
    basin = array("i", [-1]) * len(successors)
    members, ends = array("i"), array("i")
    for start in range(len(successors)):
        if basin[start] != -1:
            continue
        path = []
        u = start
        while basin[u] == -1:
            basin[u] = -2
            path.append(u)
            u = successors[u]
        if basin[u] == -2:
            cycle = path[path.index(u):]
            lowest = cycle.index(min(cycle))
            members.extend(cycle[lowest:] + cycle[:lowest])
            cycle_id = len(ends)
            ends.append(len(members))
        else:
            cycle_id = basin[u]
        for w in path:
            basin[w] = cycle_id
    return members, ends, basin


def _cycles(members, ends):
    """The cycles that ``_decompose`` stores flat, one tuple each."""
    return tuple(tuple(members[a:b]) for a, b in zip(chain([0], ends), ends))


def _tree_children(successors, on_cycle) -> dict[int, list[int]]:
    """The predecessors not in ``on_cycle`` of each vertex that has any."""
    children: dict[int, list[int]] = {}
    for x, s in enumerate(successors):
        if x not in on_cycle:
            children.setdefault(s, []).append(x)
    return children


class DynamicsGraph:
    """Functional graph of one full step over all ``2**n`` configurations.

    ``successors`` is the table as given, not copied (``transition_graph``
    gives an ``array``), and ``basin[x]`` the index of the cycle the orbit
    of ``x`` reaches.  The cycles are held flat, as ``_decompose`` stores
    them; ``cycles``, each cycle a tuple rotated to start at its smallest
    member, and ``limit_set``, every configuration on a cycle, are built
    when read.
    """

    __slots__ = ("n", "successors", "basin", "_members", "_ends")

    def __init__(self, n: int, successors: Sequence[int]):
        size = 1 << n
        if len(successors) != size:
            raise ValueError(f"expected {size} successors, got {len(successors)}")
        self.n = n
        self.successors = successors
        self._members, self._ends, self.basin = _decompose(successors)

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        return _cycles(self._members, self._ends)

    @property
    def limit_set(self) -> frozenset[int]:
        return frozenset(self._members)

    def cycle_lengths(self) -> tuple[int, ...]:
        """Multiset of limit-cycle lengths, as a sorted tuple."""
        return tuple(sorted(map(sub, self._ends, chain([0], self._ends))))


def transition_graph(f: BooleanNetwork, mu: PartitionedOrder,
                     cap: Optional[int] = DEFAULT_BLOCK_CAP,
                     workers: int = 1) -> DynamicsGraph:
    """Successor of every configuration, with cycle decomposition.

    ``workers`` is accepted and ignored: the sliced table is built in one
    process, which is faster than starting a pool.
    """
    # Imported where a graph is built, so the other commands never load it.
    from array import array

    cubes = _image_cubes(f, mu, f"transition graph over 2**{f.n} configurations", cap)
    first = next(cubes)
    table = array(first.format, first.tobytes())
    for cube in cubes:
        table.frombytes(cube.cast("B"))
    return DynamicsGraph(f.n, table)


# ---------------------------------------------------------------------------
# Deciders (exhaustive, desk scale)

def is_fixed_point(f: BooleanNetwork, mu: PartitionedOrder, x: int,
                   cap: Optional[int] = DEFAULT_BLOCK_CAP) -> bool:
    """Single-configuration verification: does one step map ``x`` to itself?"""
    return step(f, mu, x, cap=cap) == x


def fixed_points(f: BooleanNetwork, mu: PartitionedOrder,
                 cap: Optional[int] = DEFAULT_BLOCK_CAP) -> frozenset[int]:
    """All configurations mapped to themselves."""
    images = _images(f, mu, f"transition graph over 2**{f.n} configurations", cap)
    return frozenset(x for x, y in enumerate(images) if x == y)


def limit_cycles(f: BooleanNetwork, mu: PartitionedOrder,
                 cap: Optional[int] = DEFAULT_BLOCK_CAP) -> tuple[tuple[int, ...], ...]:
    """All limit cycles with their member configurations."""
    return transition_graph(f, mu, cap=cap).cycles


def limit_cycle_exists(f: BooleanNetwork, mu: PartitionedOrder, k: int,
                       cap: Optional[int] = DEFAULT_BLOCK_CAP) -> bool:
    """Is there a configuration returning to itself after ``k`` steps?

    Equivalent to some limit-cycle length dividing ``k``.
    """
    if k < 1:
        raise ValueError(f"cycle exponent must be positive, got {k}")
    lengths = transition_graph(f, mu, cap=cap).cycle_lengths()
    return any(k % length == 0 for length in set(lengths))


def limit_isomorphic(f: BooleanNetwork, mu: PartitionedOrder, mu2: PartitionedOrder,
                     cap: Optional[int] = DEFAULT_BLOCK_CAP) -> bool:
    """Do the two schedules give isomorphic dynamics on their limit sets?

    On a finite set the limit restriction is a permutation, so isomorphism
    reduces to equality of the cycle-length multisets.
    """
    lengths = transition_graph(f, mu, cap=cap).cycle_lengths()
    lengths2 = transition_graph(f, mu2, cap=cap).cycle_lengths()
    return lengths == lengths2


def reachable(f: BooleanNetwork, mu: PartitionedOrder, x: int, y: int,
              cap: Optional[int] = DEFAULT_BLOCK_CAP) -> bool:
    """Does the orbit of ``x`` reach ``y``?  At most ``DEFAULT_REACH_STEP_CAP``
    steps."""
    _check_call(f, mu, cap, x, y)
    kernel = _Kernel(f, mu)
    seen: set[int] = set()
    while x != y:
        if x in seen:
            return False
        if len(seen) >= DEFAULT_REACH_STEP_CAP:
            raise ResourceCapError(
                f"orbit search exceeds the step cap of {DEFAULT_REACH_STEP_CAP}")
        seen.add(x)
        x = kernel.image(x)
    return True


def has_preimage(f: BooleanNetwork, mu: PartitionedOrder, y: int,
                 cap: Optional[int] = DEFAULT_BLOCK_CAP) -> Optional[int]:
    """Some configuration mapping to ``y`` in one step, or None."""
    images = _images(f, mu, f"preimage search over 2**{f.n}", cap, y)
    return next((x for x, image in enumerate(images) if image == y), None)


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


def is_bijective(f: BooleanNetwork, mu: PartitionedOrder,
                 cap: Optional[int] = DEFAULT_BLOCK_CAP) -> bool:
    """Is one full step a bijection on configuration space?

    Decided twice: (a) the image of the step over all configurations has full
    cardinality, tested after each sub-cube, so the scan stops at the first
    sub-cube that repeats an image; (b) every substep block is itself a
    bijective update.  The two answers must agree; a composition of
    block updates is bijective exactly when every factor is.
    """
    seen = bytearray(1 << f.n)
    size = 0
    for cube in _image_cubes(f, mu, f"bijectivity check over 2**{f.n}", cap):
        size += len(cube)
        for y in cube:
            seen[y] = 1
        if seen.count(1) < size:
            break
    whole_step = seen.count(1) == len(seen)
    # No two substeps are equal (by the Chinese remainder theorem two differ
    # modulo some o-block's length), so none is deduped.
    per_block = _blocks_bijective(f, mu.substeps())
    if whole_step != per_block:
        raise CrossCheckError(
            f"bijectivity methods disagree: whole-step={whole_step},"
            f" per-block={per_block}"
        )
    return whole_step


def is_identity(f: BooleanNetwork, mu: PartitionedOrder,
                cap: Optional[int] = DEFAULT_BLOCK_CAP) -> bool:
    """Is every configuration a fixed point?"""
    images = _images(f, mu, f"identity check over 2**{f.n}", cap)
    return all(image == x for x, image in enumerate(images))


def is_constant(f: BooleanNetwork, mu: PartitionedOrder,
                cap: Optional[int] = DEFAULT_BLOCK_CAP) -> Optional[int]:
    """The common image if one step is a constant map, else None."""
    images = _images(f, mu, f"constant check over 2**{f.n}", cap)
    image = next(images)
    return image if all(other == image for other in images) else None


# ---------------------------------------------------------------------------
# Subdynamics recognition

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
    g_members, g_ends, _ = _decompose(g_successors)
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


# ---------------------------------------------------------------------------
# Equivalence witnesses

def distinguishing_network(mu: PartitionedOrder, mu2: PartitionedOrder
                           ) -> Optional[tuple[BooleanNetwork, int, int]]:
    """A network and configuration on which two inequivalent schedules differ.

    Searches for automata ``(i, j)`` whose first updates are ordered one way
    under ``mu`` and the other way under ``mu2``.  If found, the network with
    ``f_i = x_i | x_j``, ``f_j = x_i`` and identities elsewhere, started from
    ``x_i = 0, x_j = 1`` and zeros elsewhere, yields step images differing at
    automaton ``i``; returns ``(network, witness, i)``.  Returns None when no
    such pair exists (first-update orders coincide even though the block
    sequences differ).
    """
    if equiv0(mu, mu2):
        raise ValueError("schedules are dynamically equal; nothing distinguishes them")
    times, times2 = mu.first_update_times(), mu2.first_update_times()
    for i, j in permutations(range(mu.n), 2):
        if times[i] <= times[j] and times2[i] > times2[j]:
            locals_: list = [Var(k) for k in range(mu.n)]
            locals_[i], locals_[j] = Or(Var(i), Var(j)), Var(i)
            return BooleanNetwork(locals_), 1 << j, i
    return None


# ---------------------------------------------------------------------------
# Exports

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


def json_lines(graph: DynamicsGraph) -> Iterator[str]:
    """The lines of ``json.dumps(graph_json(graph), indent=2)``, without
    newlines, lazily: the lines of one edge, or of at most 1,024 of a
    cycle's members, come as one piece."""
    n, ends = graph.n, graph._ends
    lengths = list(map(sub, ends, chain([0], ends)))
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    yield f'{{\n  "n": {n},\n  "edges": ['
    yield from _with_commas(f'    [\n      "{x}",\n      "{s}"\n    ]' for x, s in _edges(graph))
    yield '  ],\n  "cycles": {\n    "lengths": ['
    yield from _with_commas(f"      {lengths[k]}" for k in order)
    yield '    ],\n    "members": ['
    yield from _with_commas(
        "      [\n" * (at == ends[k] - lengths[k])
        + f'        "{format_configs(graph._members[at:min(at + 1024, ends[k])], n)}"'
        .replace("\n", '",\n        "')
        + "\n      ]" * (at + 1024 >= ends[k])
        for k in order for at in range(ends[k] - lengths[k], ends[k], 1024)
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
