"""Whole-space analysis and desk-scale deciders, over the substep kernel.

One *step* of a network under a block-parallel schedule is the composition of
one block update per substep.  The scalar kernel, which runs one
configuration through one step, is :mod:`blockpar.kernel`; ``step`` and
``step_trace`` are imported from it, so a command that only simulates never
compiles this module.  This module holds the whole-space layer: the
evaluator, the transition graph and the deciders.  What is built on it
lives in modules of its own, which only the commands that run them load:

- :mod:`blockpar.blockmaps`, the per-block algebra behind ``is_bijective``'s
  cross-check (``check bijective``);
- :mod:`blockpar.exports`, the DOT and JSON text of a transition graph
  (``dynamics``);
- :mod:`blockpar.embedding`, subdynamics recognition (``check
  subdynamics``).

Each name that moved out is still read here, through the module's
``__getattr__``, which imports its home on first use.

The whole-space evaluator, ``_images``, is bit-sliced: it holds all
``2**n`` configurations as ``n`` bit-planes (one Python int per automaton,
one bit per configuration), runs each substep once over every plane, and
transposes the planes back into one machine word per configuration, read
through a typed ``memoryview``.  It works through sub-cubes of doubling
size, so a decider that stops early evaluates few configurations.
``transition_graph`` joins the sub-cubes into one ``array`` (1 to 4 bytes a
configuration up to ``n = 20``), and ``DynamicsGraph`` keeps the table it is
given and builds the rest when read.  The whole-space deciders read the
sub-cubes; ``is_bijective`` marks their images in a ``bytearray``.  Every
cycle decomposition, of the transition graph and of a subdynamics pattern,
is one pointer chase, ``_decompose``, over typed marks that keep no basins:
the cycles come as one flat array of members with an array of end offsets,
or as the end offsets alone where only the lengths are read
(``limit_cycle_exists``, ``limit_isomorphic``).

Everything here is exact and exhaustive, guarded by explicit resource caps.
The ``cap`` keyword bounds the substeps one step may expand to (``None``
for no cap).  Module constants, read at each call, bound the rest:
``DEFAULT_GRAPH_N_CAP`` the automata of a whole-space operation,
``DEFAULT_REACH_STEP_CAP`` the orbit ``reachable`` follows, and
``embedding.DEFAULT_NODE_CAP`` the vertices of a ``subdynamics`` pattern.
Every entry point checks its inputs once, in this order: the sizes match,
then each configuration is in range, then (for a whole-space call) the
graph cap, then the substep cap (:func:`~blockpar.schedule.check_substeps`).
Exceeding a cap raises :class:`ResourceCapError` rather than truncating.

Each module of this package is kept under 4,096 tokens.  Past that,
CPython's parser doubles its token array and allocates a token for every
new slot: about 0.25 MB more peak memory for every command that compiles
the module.
"""

from __future__ import annotations

import struct
import sys
from importlib import import_module
from itertools import chain, permutations
from operator import sub
from typing import Iterator, Optional, Sequence

from .errors import CrossCheckError, ResourceCapError
# ``step`` and ``step_trace`` live in the kernel; they are public here too.
from .kernel import _check_call, _check_configs, _Kernel, step, step_trace  # noqa: F401
from .network import BooleanNetwork, Or, Var
from .schedule import DEFAULT_BLOCK_CAP, PartitionedOrder, check_substeps, equiv0

#: Most automata a whole-space operation runs on (``n_cap`` in its message).
DEFAULT_GRAPH_N_CAP = 20
#: Steps ``reachable`` may take: enough for any orbit within ``n_cap`` automata.
DEFAULT_REACH_STEP_CAP = 1 << DEFAULT_GRAPH_N_CAP
#: ``_images`` evaluates the first ``2**_FIRST_CUBE_WIDTH`` configurations
#: alone, then sub-cubes that double in size.
_FIRST_CUBE_WIDTH = 8

#: The module each name that moved out of this one now lives in.
_HOME_OF = {name: module for module, names in {
    "blockmaps": ("_blocks_bijective", "_components", "_spread", "_truth_table"),
    "embedding": ("DEFAULT_NODE_CAP", "_kuhn_match", "_tree_children", "subdynamics"),
    "exports": ("_NAME_CHUNK", "_edges", "_with_commas", "dot_lines", "graph_json",
                "json_lines", "to_dot"),
}.items() for name in names}


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __package__), name)


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


def _decompose(successors: Sequence[int], members=None, basin=None):
    """The cycles of the functional graph ``x -> successors[x]`` on
    ``0..len(successors)-1``: ``ends``, one ``array('i')`` of where each
    cycle's members end, the cycles in the order the chase meets them.
    Given ``members``, a list or an ``array('i')``, each cycle's members are
    appended to it, rotated to start at the smallest.  Given ``basin``, an
    ``array('i')`` of -1s, ``basin[x]`` is set to the index of the cycle the
    orbit of ``x`` reaches.

    One pointer chase over typed marks: ``marks[x]`` is the step at which
    the chase first reached ``x``, 0 before.  A walk that stops on a mark it
    set itself has closed a new cycle, as long as the steps since that mark.
    """
    from array import array

    marks = array("i", [0]) * len(successors)
    ends = array("i")
    end = step = 0
    for start in range(len(successors)):
        if marks[start]:
            continue
        first = step + 1
        u = start
        while not marks[u]:
            step += 1
            marks[u] = step
            u = successors[u]
        new = marks[u] >= first
        if new:
            end += step + 1 - marks[u]
            ends.append(end)
            if members is not None:
                at = len(members)
                members.append(u)
                while (v := successors[members[-1]]) != u:
                    members.append(v)
                lowest = members.index(min(members[at:]), at)
                if lowest > at:
                    members[at:] = members[lowest:] + members[at:lowest]
        if basin is not None:
            # The walk again, to the first vertex labelled: a cycle it closed
            # is labelled all round.
            k = len(ends) - 1 if new else basin[u]
            u = start
            while basin[u] < 0:
                basin[u] = k
                u = successors[u]
    return ends


def _lengths(ends) -> Iterator[int]:
    """The length of each cycle, from the end offsets of ``_decompose``."""
    return map(sub, ends, chain([0], ends))


def _cycles(members, ends):
    """The cycles that ``_decompose`` stores flat, one tuple each."""
    return tuple(tuple(members[a:b]) for a, b in zip(chain([0], ends), ends))


class DynamicsGraph:
    """Functional graph of one full step over all ``2**n`` configurations.

    ``successors`` is the table as given, not copied (``transition_graph``
    gives an ``array``).  The rest is built when read.  The graph is
    decomposed the first time its cycles are read, and they are held flat,
    as :meth:`flat_cycles` gives them.  ``cycles``, each cycle a tuple
    rotated to start at its smallest member, and ``limit_set``, every
    configuration on a cycle, are built at each read.  ``basin[x]``, the
    index of the cycle the orbit of ``x`` reaches, is built at the first.
    """

    __slots__ = ("n", "successors", "_flat", "_basin")

    def __init__(self, n: int, successors: Sequence[int]):
        size = 1 << n
        if len(successors) != size:
            raise ValueError(f"expected {size} successors, got {len(successors)}")
        self.n = n
        self.successors = successors
        self._flat = self._basin = None

    def flat_cycles(self):
        """``(members, ends)``: every cycle's members, one after another in
        one ``array('i')``, and where each cycle ends, as ``_decompose``
        gives them."""
        if self._flat is None:
            from array import array

            members = array("i")
            self._flat = members, _decompose(self.successors, members)
        return self._flat

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        return _cycles(*self.flat_cycles())

    @property
    def limit_set(self) -> frozenset[int]:
        return frozenset(self.flat_cycles()[0])

    @property
    def basin(self):
        if self._basin is None:
            from array import array

            self._basin = array("i", [-1]) * len(self.successors)
            _decompose(self.successors, basin=self._basin)
        return self._basin

    def cycle_lengths(self) -> tuple[int, ...]:
        """Multiset of limit-cycle lengths, as a sorted tuple."""
        return tuple(sorted(_lengths(self.flat_cycles()[1])))


def transition_graph(f: BooleanNetwork, mu: PartitionedOrder,
                     cap: Optional[int] = DEFAULT_BLOCK_CAP,
                     workers: int = 1) -> DynamicsGraph:
    """Successor of every configuration; the cycles are found when read.

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
    lengths = _lengths(_decompose(transition_graph(f, mu, cap=cap).successors))
    return any(k % length == 0 for length in set(lengths))


def limit_isomorphic(f: BooleanNetwork, mu: PartitionedOrder, mu2: PartitionedOrder,
                     cap: Optional[int] = DEFAULT_BLOCK_CAP) -> bool:
    """Do the two schedules give isomorphic dynamics on their limit sets?

    On a finite set the limit restriction is a permutation, so isomorphism
    reduces to equality of the cycle-length multisets, which the chase gives
    without basins.
    """
    lengths = [sorted(_lengths(_decompose(transition_graph(f, m, cap=cap).successors)))
               for m in (mu, mu2)]
    return lengths[0] == lengths[1]


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


def is_bijective(f: BooleanNetwork, mu: PartitionedOrder,
                 cap: Optional[int] = DEFAULT_BLOCK_CAP) -> bool:
    """Is one full step a bijection on configuration space?

    Decided twice: (a) the image of the step over all configurations has full
    cardinality, tested after each sub-cube, so the scan stops at the first
    sub-cube that repeats an image; (b) every substep block is itself a
    bijective update.  The two answers must agree; a composition of
    block updates is bijective exactly when every factor is.
    """
    from .blockmaps import _blocks_bijective

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
