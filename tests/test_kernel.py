"""The memoised substep kernel against the oracle trajectory, and its bounds.

Each local's table is keyed by the configuration masked to the variables
the local reads, so a table hit must give what the local would.  The oracle,
``test_substep_rule.oracle_trace``, applies ``update_block`` block by block
and never memoises.  Every comparison runs with the tables' shared cap at 0
(nothing stored), 1 (one entry in all) and its default.
"""

import os
import resource
import subprocess
import sys
import tracemalloc
from itertools import accumulate
from pathlib import Path

import pytest

from blockpar import kernel
from blockpar.cli import EXIT_OK, main
from blockpar.dynamics import reachable, step, step_trace
from blockpar.enumeration import enum_bp
from blockpar.network import And, BooleanNetwork, Const, Not, Or, Var, Xor
from blockpar.schedule import PartitionedOrder

import oracles
from test_substep_rule import oracle_trace

DEFAULT_CAP = kernel._MEMO_CAP
CAPS = [0, 1, DEFAULT_CAP]


@pytest.fixture(params=CAPS, ids=lambda cap: f"cap{cap}")
def memo_cap(request, monkeypatch):
    monkeypatch.setattr(kernel, "_MEMO_CAP", request.param)
    return request.param


def oblocks(lengths):
    """Consecutive o-blocks of the given lengths over ``0..sum(lengths)-1``."""
    bounds = [0, *accumulate(lengths)]
    return [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])]


#: Small networks, n = 4, each checked on every ``bp`` schedule.
SMALL = {
    # Every local reads its own automaton.
    "self-reading": BooleanNetwork([
        Not(Var(0)), Xor(Var(1), Var(0)), And(Var(2), Or(Var(3), Var(1))), Xor(Var(3), Const(1)),
    ]),
    # Constant locals have an empty mask: one entry serves every configuration.
    "constant": BooleanNetwork([Const(1), Xor(Var(0), Var(2)), Const(0), Or(Var(1), Var(3))]),
    # Each local reads the automata its o-block siblings may share a substep with.
    "mutual": BooleanNetwork([Var(3), Not(Var(2)), Xor(Var(1), Var(0)), And(Var(0), Var(2))]),
}


def orbit_of(f, mu, x):
    seen = []
    while x not in seen:
        seen.append(x)
        x = oracle_trace(f, mu, x)[-1]
    return seen


@pytest.mark.parametrize("name", SMALL)
def test_small_networks_match_the_oracle(name, memo_cap):
    f = SMALL[name]
    for mu in enum_bp(4):
        for x in range(16):
            trace = oracle_trace(f, mu, x)
            assert step_trace(f, mu, x) == trace
            assert step(f, mu, x) == trace[-1]
            visited = orbit_of(f, mu, x)
            assert [reachable(f, mu, x, y) for y in range(16)] \
                == [y in visited for y in range(16)]


def test_parallel_block_members_read_each_other(memo_cap):
    # One block holds every automaton, and each local reads its neighbours.
    n = 6
    f = BooleanNetwork(Xor(Var((i - 1) % n), And(Var(i), Var((i + 1) % n))) for i in range(n))
    mu = PartitionedOrder.parallel(n)
    for x in range(1 << n):
        assert step_trace(f, mu, x) == oracle_trace(f, mu, x)


#: O-blocks of lengths 5, 7, 8 and 9 (lcm 2,520) and a singleton that flips
#: its automaton at every substep, so no step ever settles.
LARGE_LENGTHS = (5, 7, 8, 9)
LARGE_N = sum(LARGE_LENGTHS) + 1
LARGE = BooleanNetwork([
    *(Or(And(Var(i), Not(Var((i + 3) % LARGE_N))), Xor(Var((i + 7) % LARGE_N), Var(LARGE_N - 1)))
      for i in range(LARGE_N - 1)),
    Not(Var(LARGE_N - 1)),
])
LARGE_MU = PartitionedOrder(LARGE_N, [*oblocks(LARGE_LENGTHS), (LARGE_N - 1,)])


@pytest.mark.parametrize("x", [0, 0b1011_0110_0101, (1 << LARGE_N) - 1])
def test_never_settling_large_lcm_matches_the_oracle(x, memo_cap):
    trace = oracle_trace(LARGE, LARGE_MU, x)
    assert len(trace) == LARGE_MU.lcm() + 1 == 2521
    # The toggle changes every substep: the kernel runs every one of them.
    assert sum(1 for _ in kernel._Kernel(LARGE, LARGE_MU).trajectory(x)) == 2520
    assert step_trace(LARGE, LARGE_MU, x) == trace
    assert step(LARGE, LARGE_MU, x) == trace[-1]
    image = trace[-1]
    second = oracle_trace(LARGE, LARGE_MU, image)[-1]
    assert reachable(LARGE, LARGE_MU, x, image)
    assert reachable(LARGE, LARGE_MU, x, second)


def test_the_cap_bounds_what_the_tables_hold(memo_cap, monkeypatch):
    calls = [0]

    def counted(local):
        def evaluate(x):
            calls[0] += 1
            return local(x)
        return evaluate

    f = BooleanNetwork(LARGE.locals)
    monkeypatch.setattr(f, "_compiled", tuple(map(counted, f.compiled())))
    k = kernel._Kernel(f, LARGE_MU)
    assert k.image(0b1011) == step(LARGE, LARGE_MU, 0b1011)
    updates = LARGE_MU.lcm() * LARGE_MU.s
    held = sum(len(slot[0]) for block in k.oblocks for slot in block)
    assert held == min(memo_cap, distinct_inputs(LARGE, LARGE_MU, 0b1011))
    assert k.room == memo_cap - held
    # A miss calls the local once; without room every update is a miss.
    if memo_cap == 0:
        assert calls[0] == updates
    if memo_cap == DEFAULT_CAP:
        assert calls[0] == held < updates // 10


def distinct_inputs(f, mu, x):
    """How many distinct (automaton, masked configuration) pairs the updates
    of one step from ``x`` see, read off the oracle trajectory."""
    masks = [sum(1 << v for v in expr.variables()) for expr in f.locals]
    pairs = set()
    for before, block in zip(oracle_trace(f, mu, x), oracles.substep_blocks(mu)):
        pairs.update((i, before & masks[i]) for i in block)
    return len(pairs)


def test_tables_stay_under_a_fixed_bound_at_the_default_cap(monkeypatch):
    # 40 automata in o-blocks of 5, 7, 8, 9 and 11 (lcm 27,720) plus a
    # toggle: 166,320 updates, every local the parity of 30 variables.
    # Uncapped, the tables hold 138,601 entries and peak at about 10 MB;
    # at the default cap of 65,536 about 4.6 MB.
    lengths = (5, 7, 8, 9, 11)
    n = sum(lengths)
    reads = [[i, *((i + k) % n for k in range(1, 30))] for i in range(n)]
    f = BooleanNetwork([*(Xor(*map(Var, r)) for r in reads), Not(Var(n))])
    mu = PartitionedOrder(n + 1, [*oblocks(lengths), (n,)])
    # The same parities, with one allocation each, so that tracing stays fast.
    parities = tuple(eval(f"lambda x: (x & {sum(1 << v for v in r)}).bit_count() & 1")
                     for r in reads)
    monkeypatch.setattr(f, "_compiled", parities + f.compiled()[n:])
    tracemalloc.start()
    try:
        step(f, mu, 0b1011, cap=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


def _limit_memory():
    # Enough for the interpreter and a 135-automaton gadget, far too little
    # for a list of billions of configurations.
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))


def test_trace_stops_when_its_reader_goes_away(tmp_path):
    prefix = str(tmp_path / "g6")
    assert main(["gadget", "counter", "6", "--out-prefix", prefix]) == EXIT_OK
    source = str(Path(kernel.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": source}
    argv = [sys.executable, "-m", "blockpar", "trace", "--network", prefix + ".bn",
            "--schedule", prefix + ".schedule", "--cap-substeps", "10000000000",
            "--config", "0" * 135]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                          preexec_fn=_limit_memory) as process:
        lines = [process.stdout.readline() for _ in range(3)]
        process.stdout.close()
        try:
            status = process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            raise
        err = process.stderr.read()
    assert lines == [b"0" * 135 + b"\n", b"0" * 129 + b"100000\n", b"0" * 129 + b"010000\n"]
    assert (status, err) == (0, b"")
