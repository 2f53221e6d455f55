"""The scalar substep kernel: one configuration through one step.

One *step* of a network under a block-parallel schedule is the composition of
one block update per substep; an automaton in a short o-block is updated many
times per step.  The kernel walks the substeps of
:meth:`PartitionedOrder.substeps`, by the same rule over its own slots,
from one configuration; ``step`` and ``step_trace`` read it, and it is the
oracle for the whole-space evaluator of :mod:`blockpar.dynamics`.  The paper
shows that computing one image is PSPACE-complete, so no shortcut holds in
general; the two below only skip work whose result is already known.

- **The quiet window.**  The kernel stops once the configuration has stood
  still for ``L`` substeps in a row, ``L`` the length of the longest
  o-block.  An o-block of length ``j <= L`` updates each of its members once
  in any ``j`` consecutive substeps, so in those ``L`` substeps every local
  agreed with the configuration, and every substep left is the identity.
  ``step_trace`` repeats the settled configuration to its full length.
- **The memo.**  Each local has a table keyed by the configuration masked
  to the variables its expression reads (``Expr.variables()``), holding the
  bit the update sets (``1 << i`` or 0).  This is exact: a local is a
  function of the bits it reads, so equal masked configurations give equal
  values.  A step that never settles still revisits few masked inputs, and
  a table hit costs a dict lookup where a miss calls the local's lambda.

The tables of one call share ``_MEMO_CAP`` entries, about 100 bytes each,
so they hold at most a few megabytes whatever the network; past the cap a
miss is evaluated and not stored.  ``dynamics.reachable`` builds one kernel
per call, so its steps share the tables.

Every entry point checks its inputs once, in this order: the network and
schedule sizes match, then each configuration is in range, then the substep
cap (:func:`~blockpar.schedule.check_substeps`); ``dynamics`` checks its
graph cap between the last two.
"""

from __future__ import annotations

import sys
from collections import deque
from itertools import repeat
from typing import Iterator, Optional

from .errors import ResourceCapError
from .network import BooleanNetwork
from .schedule import DEFAULT_BLOCK_CAP, PartitionedOrder, _substeps, check_substeps

#: Most entries the memo tables of one call hold together.
_MEMO_CAP = 1 << 16


def _check_configs(f: BooleanNetwork, mu: PartitionedOrder, *configs: int) -> None:
    """``f`` and ``mu`` act on the same automata, and each of ``configs`` is
    a configuration of them."""
    if f.n != mu.n:
        raise ValueError(f"network has {f.n} automata but schedule has {mu.n}")
    for x in configs:
        if not 0 <= x < (1 << f.n):
            raise ValueError(f"configuration {x} out of range for n={f.n}")


def _check_call(f: BooleanNetwork, mu: PartitionedOrder, cap: Optional[int],
                *configs: int) -> None:
    _check_configs(f, mu, *configs)
    check_substeps(mu, cap)


class _Kernel:
    """The memo tables of one call, and one slot per automaton, grouped by
    o-block: ``(table, local, reads mask, clear mask, bit)``."""

    __slots__ = ("oblocks", "window", "lcm", "room")

    def __init__(self, f: BooleanNetwork, mu: PartitionedOrder):
        compiled = f.compiled()
        slot = [({}, compiled[i], sum(1 << v for v in expr.variables()), ~(1 << i), 1 << i)
                for i, expr in enumerate(f.locals)]
        self.oblocks = [[slot[i] for i in block] for block in mu.oblocks]
        self.window = max(map(len, mu.oblocks))
        self.lcm = mu.lcm()
        self.room = _MEMO_CAP

    def trajectory(self, x: int) -> Iterator[int]:
        """The configuration after each substep of one step from ``x``, until
        it has stood still for one longest o-block."""
        window, room, quiet = self.window, self.room, 0
        try:
            for slots in _substeps(self.oblocks, self.lcm):
                nxt = x
                for table, local, mask, clear, bit in slots:
                    key = x & mask
                    value = table.get(key)
                    if value is None:
                        value = bit if local(x) else 0
                        if room:
                            table[key] = value
                            room -= 1
                    nxt = nxt & clear | value
                quiet = quiet + 1 if nxt == x else 0
                x = nxt
                yield x
                if quiet == window:
                    return
        finally:
            self.room = room

    def image(self, x: int) -> int:
        # A deque of length one keeps only the last configuration: a step that
        # never settles may run hundreds of thousands of substeps.
        return deque(self.trajectory(x), maxlen=1)[0]


def step(f: BooleanNetwork, mu: PartitionedOrder, x: int,
         cap: Optional[int] = DEFAULT_BLOCK_CAP) -> int:
    """Image of ``x`` after one full step: all substep block updates in order."""
    _check_call(f, mu, cap, x)
    return _Kernel(f, mu).image(x)


def trajectory(f: BooleanNetwork, mu: PartitionedOrder, x: int,
               cap: Optional[int] = DEFAULT_BLOCK_CAP) -> tuple[Iterator[int], int]:
    """The configurations after each substep from ``x``, lazily, until the
    kernel stops, and the length of the whole trace (``lcm + 1``, which may
    exceed ``sys.maxsize``).

    The inputs are checked at the call."""
    _check_call(f, mu, cap, x)
    return _Kernel(f, mu).trajectory(x), mu.lcm() + 1


def step_trace(f: BooleanNetwork, mu: PartitionedOrder, x: int,
               cap: Optional[int] = DEFAULT_BLOCK_CAP) -> list[int]:
    """``x`` followed by the configuration after each substep (length lcm+1).

    Once the kernel stops, the settled configuration fills the rest.  A trace
    longer than ``sys.maxsize`` does not fit in a list and raises
    :class:`ResourceCapError`."""
    configs, length = trajectory(f, mu, x, cap)
    if length > sys.maxsize:
        raise ResourceCapError(f"a trace of {length} configurations does not fit in a list")
    trace = [x, *configs]
    trace.extend(repeat(trace[-1], length - len(trace)))
    return trace
