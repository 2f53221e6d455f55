"""Seeded inputs for the ``space`` and ``orbit`` workloads, and an evaluator
that checks the program's answers without calling it.

Networks are built here rather than with ``blockpar.random_network``, so a
change to the program cannot change what the program is measured on. Every
local function of one network has the same shape, so the cost of a workload
hardly depends on the seed.

Expressions are nested tuples: ``("x", i)``, ``("c", 0 | 1)``, ``("!", e)``
and ``(op, a, b)`` with ``op`` one of ``&``, ``|``, ``^``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

BINARY = ("&", "|", "^")

#: O-block lengths of the whole-space schedule (14 automata, 12 substeps).
SPACE_LENGTHS = (4, 3, 3, 2, 1, 1)
#: O-block lengths of the traced orbit (40 automata, 27,720 substeps).
TRACE_LENGTHS = (5, 7, 8, 9, 11)
#: Padding o-block lengths of the prime counter gadget (510,510 substeps).
GADGET_PRIMES = (2, 3, 5, 7, 11, 13, 17)
GADGET_COUNTER_BITS = 5


# ---------------------------------------------------------------------------
# Expressions

def render(e) -> str:
    """Network text format, every binary node parenthesised."""
    kind = e[0]
    if kind == "x":
        return f"x{e[1]}"
    if kind == "c":
        return str(e[1])
    if kind == "!":
        return "!" + render(e[1])
    return f"({render(e[1])} {kind} {render(e[2])})"


def _python(e) -> str:
    kind = e[0]
    if kind == "x":
        return f"p[{e[1]}]"
    if kind == "c":
        return "m" if e[1] else "0"
    if kind == "!":
        return f"(m ^ {_python(e[1])})"
    return f"({_python(e[1])} {kind} {_python(e[2])})"


def compile_expr(e):
    """``lambda p, m`` evaluating ``e`` lane-wise over bit-planes ``p``.

    Bit ``k`` of plane ``p[i]`` is automaton ``i`` in lane ``k``; ``m`` has
    every lane bit set.
    """
    return eval(f"lambda p, m: {_python(e)}")


def and_chain(terms):
    result = terms[0]
    for term in terms[1:]:
        result = ("&", result, term)
    return result


def _four_leaves(rng: random.Random, pool, negate_first: bool = False):
    a, b, c, d = (("x", rng.choice(pool)) for _ in range(4))
    if negate_first:
        a = ("!", a)
    return (rng.choice(BINARY), (rng.choice(BINARY), a, b), (rng.choice(BINARY), c, d))


def _zero(rng: random.Random, n: int):
    """An expression that reads a variable and is always 0."""
    v = ("x", rng.randrange(n))
    return ("&", v, ("!", v))


# ---------------------------------------------------------------------------
# Networks and schedules

@dataclass
class Network:
    locals: list

    @property
    def n(self) -> int:
        return len(self.locals)

    def text(self) -> str:
        lines = [f"n={self.n}"]
        lines.extend(f"x{i} = {render(e)}" for i, e in enumerate(self.locals))
        return "\n".join(lines) + "\n"


def contracting_network(n: int, rng: random.Random) -> Network:
    """Random locals with two facts known by construction.

    ``x0`` is always 0, so any configuration with ``x0 = 1`` has no
    preimage. Every other local combines plain variables with ``& | ^``, so
    it is 0 at the all-zero configuration, which is therefore a fixed point.
    """
    pool = range(n)
    return Network([_zero(rng, n)] + [_four_leaves(rng, pool) for _ in range(1, n)])


def bijective_network(n: int, rng: random.Random) -> Network:
    """``x_i = x_i ^ h_i(x_<i)``: every block update is invertible."""
    locals_ = [("!", ("x", 0))]
    for i in range(1, n):
        pool = range(i)
        h = (rng.choice(BINARY),
             (rng.choice(BINARY), ("x", rng.choice(pool)), ("x", rng.choice(pool))),
             ("x", rng.choice(pool)))
        locals_.append(("^", ("x", i), h))
    return Network(locals_)


def identity_network(n: int, rng: random.Random) -> Network:
    """``x_i = x_i ^ 0``, where the 0 is computed from another automaton."""
    return Network([("^", ("x", i), _zero(rng, n)) for i in range(n)])


def constant_network(n: int, rng: random.Random) -> tuple[Network, int]:
    """``x_i = c_i ^ 0``; one step maps every configuration onto ``c``."""
    image = rng.getrandbits(n)
    return Network([("^", ("c", (image >> i) & 1), _zero(rng, n)) for i in range(n)]), image


def orbit_network(n: int, rng: random.Random) -> Network:
    return Network([_four_leaves(rng, range(n), negate_first=True) for _ in range(n)])


def gadget_network() -> tuple[Network, list[list[int]], int]:
    """The prime counter gadget: padding automata held at 0 in prime-length
    o-blocks, and a saturating little-endian counter updated every substep.

    One step has ``prod(GADGET_PRIMES)`` substeps, more than
    ``2**GADGET_COUNTER_BITS``, so every configuration maps onto
    ``0^q 1^GADGET_COUNTER_BITS``. Returns the network, its o-blocks and
    that image.
    """
    q = sum(GADGET_PRIMES)
    bits = [("x", q + i) for i in range(GADGET_COUNTER_BITS)]
    all_ones = and_chain(bits)
    locals_ = [("c", 0)] * q
    for i, bit in enumerate(bits):
        carry = and_chain(bits[:i]) if i else ("c", 1)
        locals_.append(("|", all_ones, ("^", bit, carry)))
    oblocks, start = [], 0
    for p in GADGET_PRIMES:
        oblocks.append(list(range(start, start + p)))
        start += p
    oblocks.extend([q + i] for i in range(GADGET_COUNTER_BITS))
    image = ((1 << GADGET_COUNTER_BITS) - 1) << q
    return Network(locals_), oblocks, image


def random_schedule(n: int, lengths, rng: random.Random) -> list[list[int]]:
    """Automata shuffled into o-blocks of the given lengths."""
    if sum(lengths) != n:
        raise ValueError(f"o-block lengths {lengths} do not sum to {n}")
    order = list(range(n))
    rng.shuffle(order)
    oblocks, start = [], 0
    for length in lengths:
        oblocks.append(order[start:start + length])
        start += length
    return oblocks


def schedule_text(oblocks) -> str:
    return json.dumps(oblocks, separators=(",", ":")) + "\n"


def fmt(x: int, n: int) -> str:
    """Configuration as a bitstring, automaton 0 leftmost."""
    return format(x, f"0{n}b")[::-1]


# ---------------------------------------------------------------------------
# Independent evaluator (never calls the program)

def _substeps(oblocks):
    length = math.lcm(*(len(b) for b in oblocks))
    for t in range(length):
        yield [b[t % len(b)] for b in oblocks]


def successor_table(net: Network, oblocks) -> list[int]:
    """Successor of every configuration, all ``2**n`` evaluated as lanes."""
    n = net.n
    size = 1 << n
    mask = (1 << size) - 1
    planes = []
    for i in range(n):
        pattern, width = ((1 << (1 << i)) - 1) << (1 << i), 1 << (i + 1)
        while width < size:
            pattern |= pattern << width
            width <<= 1
        planes.append(pattern)
    funcs = [compile_expr(e) for e in net.locals]
    for updated in _substeps(oblocks):
        nxt = list(planes)
        for i in updated:
            nxt[i] = funcs[i](planes, mask)
        planes = nxt
    table = [0] * size
    for i, plane in enumerate(planes):
        bit = 1 << i
        for x, c in enumerate(format(plane, f"0{size}b")[::-1]):
            if c == "1":
                table[x] |= bit
    return table


def orbit(net: Network, oblocks, x: int) -> list[int]:
    """``x`` and the configuration after each substep, one lane."""
    planes = [(x >> i) & 1 for i in range(net.n)]
    funcs = [compile_expr(e) for e in net.locals]
    out = [x]
    for updated in _substeps(oblocks):
        nxt = list(planes)
        for i in updated:
            nxt[i] = funcs[i](planes, 1)
        planes = nxt
        out.append(sum(bit << i for i, bit in enumerate(planes)))
    return out


def cycles(table: list[int]) -> list[tuple[int, ...]]:
    """Limit cycles of a functional graph, each starting at its smallest member."""
    state = bytearray(len(table))
    found = []
    for start in range(len(table)):
        path = []
        u = start
        while not state[u]:
            state[u] = 1
            path.append(u)
            u = table[u]
        if state[u] == 1:
            members = path[path.index(u):]
            low = members.index(min(members))
            found.append(tuple(members[low:] + members[:low]))
        for w in path:
            state[w] = 2
    return found


# ---------------------------------------------------------------------------
# Workload inputs

@dataclass
class SpaceInputs:
    n: int
    lcm: int
    files: dict                      # name -> path
    tables: dict                     # net name -> successor table
    constant_image: int
    goe_target: int                  # has no preimage under "contracting"
    cycle_k: int                     # some cycle of "bijective" has this length
    digests: dict = field(default_factory=dict)


@dataclass
class OrbitInputs:
    files: dict
    gadget_n: int
    gadget_start: int
    gadget_image: int
    gadget_lcm: int
    gadget_oblocks: int
    trace_n: int
    trace_start: int
    trace_lcm: int
    trace_oblocks: int
    trace_expected: bytes
    digests: dict = field(default_factory=dict)


def _write(directory: str, name: str, text: str, files: dict, digests: dict) -> None:
    path = os.path.join(directory, name)
    data = text.encode()
    with open(path, "wb") as handle:
        handle.write(data)
    files[name] = path
    digests[name] = hashlib.sha256(data).hexdigest()


def space_inputs(seed: int, directory: str) -> SpaceInputs:
    n = sum(SPACE_LENGTHS)
    rng = random.Random(f"space-{seed}")
    oblocks = random_schedule(n, SPACE_LENGTHS, rng)
    nets = {
        "contracting": contracting_network(n, rng),
        "bijective": bijective_network(n, rng),
        "identity": identity_network(n, rng),
    }
    nets["constant"], constant_image = constant_network(n, rng)
    files, digests = {}, {}
    _write(directory, "space.schedule", schedule_text(oblocks), files, digests)
    for name, net in nets.items():
        _write(directory, f"{name}.bn", net.text(), files, digests)

    tables = {name: successor_table(nets[name], oblocks) for name in ("contracting", "bijective")}
    contracting, bijective = tables["contracting"], tables["bijective"]
    goe_target = (rng.getrandbits(n) | 1)
    # The constructions promise these; a failure is a bug in this file.
    if contracting[0] != 0 or any(s & 1 for s in contracting):
        raise AssertionError("contracting network lost its fixed point or its Garden of Eden")
    if sorted(bijective) != list(range(1 << n)):
        raise AssertionError("bijective network is not a bijection")
    x = rng.randrange(1 << n)
    cycle_k, y = 1, bijective[x]
    while y != x:
        y, cycle_k = bijective[y], cycle_k + 1
    return SpaceInputs(n, math.lcm(*SPACE_LENGTHS), files, tables, constant_image,
                       goe_target, cycle_k, digests)


def orbit_inputs(seed: int, directory: str) -> OrbitInputs:
    trace_n = sum(TRACE_LENGTHS)
    rng = random.Random(f"orbit-{seed}")
    files, digests = {}, {}
    gadget, gadget_blocks, gadget_image = gadget_network()
    _write(directory, "gadget.bn", gadget.text(), files, digests)
    _write(directory, "gadget.schedule", schedule_text(gadget_blocks), files, digests)
    net = orbit_network(trace_n, rng)
    oblocks = random_schedule(trace_n, TRACE_LENGTHS, rng)
    _write(directory, "trace.bn", net.text(), files, digests)
    _write(directory, "trace.schedule", schedule_text(oblocks), files, digests)
    trace_start = rng.getrandbits(trace_n)
    expected = "".join(fmt(c, trace_n) + "\n" for c in orbit(net, oblocks, trace_start))
    return OrbitInputs(
        files=files,
        gadget_n=gadget.n,
        gadget_start=rng.getrandbits(gadget.n),
        gadget_image=gadget_image,
        gadget_lcm=math.prod(GADGET_PRIMES),
        gadget_oblocks=len(gadget_blocks),
        trace_n=trace_n,
        trace_start=trace_start,
        trace_lcm=math.lcm(*TRACE_LENGTHS),
        trace_oblocks=len(oblocks),
        trace_expected=expected.encode(),
        digests=digests,
    )
