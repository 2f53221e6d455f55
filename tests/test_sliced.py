"""The bit-sliced whole-space evaluator against the scalar substep oracle,
plus the caps and formats that sit next to it.

``transition_graph`` and the whole-space deciders read the sliced evaluator;
``oracles.substep_image`` applies ``update_block`` one configuration at a
time, and ``is_bijective``'s per-block method never touches the planes.
"""

import hashlib
import json
import random
import tracemalloc

import pytest

from blockpar import dynamics
from blockpar.cli import EXIT_RESOURCE_CAP, main
from blockpar.dynamics import is_bijective, reachable, transition_graph
from blockpar.errors import CrossCheckError, ResourceCapError
from blockpar.network import (
    And,
    BooleanNetwork,
    Const,
    Not,
    Or,
    Var,
    Xor,
    and_chain,
    format_config,
    random_network,
    serialize_network,
)
from blockpar.schedule import PartitionedOrder, serialize_schedule

import oracles


def random_order(n: int, rng: random.Random) -> PartitionedOrder:
    """A uniformly shuffled order of the automata cut into random o-blocks."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(n))) if n > 1 else []
    bounds = [0, *cuts, n]
    return PartitionedOrder(n, [order[a:b] for a, b in zip(bounds, bounds[1:])])


def increment_network(n: int) -> BooleanNetwork:
    """``x -> x + 1 mod 2**n`` under the parallel schedule: one cycle of
    length ``2**n``."""
    return BooleanNetwork(
        Xor(Var(i), and_chain(Var(j) for j in range(i))) for i in range(n)
    )


@pytest.mark.parametrize("n", range(1, 13))
def test_sliced_matches_scalar_oracle(n):
    rng = random.Random(0x511CE + n)
    for _ in range(3 if n <= 10 else 1):
        f = random_network(n, rng)
        mu = random_order(n, rng)
        expected = tuple(oracles.substep_image(f, mu, x) for x in range(1 << n))
        assert tuple(transition_graph(f, mu).successors) == expected


def test_workers_match_sequential():
    rng = random.Random(0x511CE)
    for n in (1, 2, 5):
        f = random_network(n, rng)
        mu = random_order(n, rng)
        graph = transition_graph(f, mu)
        with_workers = transition_graph(f, mu, workers=3)
        assert with_workers.successors == graph.successors
        assert with_workers.cycles == graph.cycles


def test_workers_keep_the_caps(monkeypatch):
    f = random_network(6, random.Random(1))
    monkeypatch.setattr(dynamics, "DEFAULT_GRAPH_N_CAP", 5)
    with pytest.raises(ResourceCapError, match="n_cap=5"):
        transition_graph(f, PartitionedOrder.parallel(6), workers=2)


def test_caps_raised_at_the_call(monkeypatch):
    # The images come lazily, but a cap error must not wait for the first one.
    f = random_network(6, random.Random(1))
    monkeypatch.setattr(dynamics, "DEFAULT_GRAPH_N_CAP", 5)
    with pytest.raises(ResourceCapError, match="n_cap=5"):
        dynamics._images(f, PartitionedOrder.parallel(6), "test", 10)


def test_sub_cubes_stop_at_an_early_exit(monkeypatch):
    lanes = []
    transpose = dynamics._transpose

    def counting(planes, width):
        lanes.append(width)
        return transpose(planes, width)

    monkeypatch.setattr(dynamics, "_transpose", counting)
    n = 16
    f = increment_network(n)
    mu = PartitionedOrder.parallel(n)
    assert not dynamics.is_identity(f, mu)
    assert dynamics.is_constant(f, mu) is None
    assert dynamics.has_preimage(f, mu, 5) == 4
    first = 1 << dynamics._FIRST_CUBE_WIDTH
    assert lanes == [first] * 3
    lanes.clear()
    # Only the all-ones configuration moves: the scan reaches the last lane.
    last_moves = BooleanNetwork(
        [Xor(Var(0), and_chain(Var(i) for i in range(n))),
         *(Var(i) for i in range(1, n))]
    )
    assert not dynamics.is_identity(last_moves, mu)
    assert sum(lanes) == 1 << n
    assert lanes == [first, *(1 << k for k in range(dynamics._FIRST_CUBE_WIDTH, n))]


def test_transition_graph_holds_each_table_once():
    # One 65,536-cycle: the successor table, the basin marks and the cycle,
    # each held once (copies of them peaked at 9.6 MiB).
    f = increment_network(16)
    mu = PartitionedOrder.parallel(16)
    f.sliced()  # compiled before tracing: only the graph is measured
    tracemalloc.start()
    try:
        graph = transition_graph(f, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.cycle_lengths() == (1 << 16,)
    assert peak < 6.5 * 2**20


@pytest.mark.parametrize("n", range(1, 17))
def test_the_successor_table_is_one_typed_array(n):
    # A buffer of machine words, at most 4 bytes a configuration up to n = 20.
    f = random_network(n, random.Random(n))
    table = memoryview(transition_graph(f, random_order(n, random.Random(n))).successors)
    assert table.itemsize <= 4
    assert table.itemsize * 8 >= n


def test_dot_export_names_configurations_a_chunk_at_a_time():
    # A name per configuration held at once peaked at 4.6 MiB.
    graph = transition_graph(increment_network(16), PartitionedOrder.parallel(16))
    tracemalloc.start()
    try:
        lines = 0
        for _ in dynamics.dot_lines(graph):
            lines += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines == (1 << 16) + 2
    assert peak < 2**20


def test_json_export_names_cycle_members_a_chunk_at_a_time():
    # The members of the one 65,536-cycle named in one piece peaked at 5.9 MiB.
    graph = transition_graph(increment_network(16), PartitionedOrder.parallel(16))
    tracemalloc.start()
    try:
        text = hashlib.sha256()
        for line in dynamics.json_lines(graph):
            text.update(line.encode() + b"\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = json.dumps(dynamics.graph_json(graph), indent=2) + "\n"
    assert text.hexdigest() == hashlib.sha256(expected.encode()).hexdigest()
    assert peak < 2**20


def test_wrong_planes_fail_the_bijectivity_cross_check(monkeypatch):
    f = increment_network(4)
    mu = PartitionedOrder.parallel(4)
    assert is_bijective(f, mu)
    # Every lane of automaton 0 forced to 0: the whole step is no longer
    # onto, while the per-block method still sees the true network.
    monkeypatch.setattr(f, "_sliced", (lambda p, m: 0,) + f.sliced()[1:])
    with pytest.raises(CrossCheckError):
        is_bijective(f, mu)


@pytest.mark.parametrize("x", [0, 1, 2, 0x5A5A, -1, -2, -(1 << 63), (1 << 64) - 1,
                               1 << 64, (1 << 100) + 7])
def test_format_config_matches_bit_oracle(x):
    for n in range(1, 65):
        assert format_config(x, n) == oracles.format_config_bits(x, n)


class TestReachStepCap:
    def test_long_cycle_exceeds_small_cap(self, monkeypatch):
        monkeypatch.setattr(dynamics, "DEFAULT_REACH_STEP_CAP", 16)
        f = increment_network(8)
        mu = PartitionedOrder.parallel(8)
        with pytest.raises(ResourceCapError, match="step cap of 16"):
            reachable(f, mu, 0, 255)

    def test_within_cap(self, monkeypatch):
        f = increment_network(8)
        mu = PartitionedOrder.parallel(8)
        monkeypatch.setattr(dynamics, "DEFAULT_REACH_STEP_CAP", 255)
        assert reachable(f, mu, 0, 255)
        monkeypatch.setattr(dynamics, "DEFAULT_REACH_STEP_CAP", 17)
        assert reachable(f, mu, 0, 17)

    def test_cli_exit_code(self, monkeypatch, tmp_path, capsys):
        net = tmp_path / "inc.bn"
        net.write_text(serialize_network(increment_network(8)))
        monkeypatch.setattr(dynamics, "DEFAULT_REACH_STEP_CAP", 16)
        status = main(["check", "reach", "--network", str(net),
                       "--schedule", serialize_schedule(PartitionedOrder.parallel(8)),
                       "--config", "0" * 8, "--target", "1" * 8])
        assert status == EXIT_RESOURCE_CAP
        assert "step cap of 16" in capsys.readouterr().err


def expressions(n: int):
    from hypothesis import strategies as st

    leaves = st.one_of(
        st.builds(Var, st.integers(0, n - 1)), st.builds(Const, st.integers(0, 1))
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Xor, sub, sub),
        ),
        max_leaves=12,
    )


def test_sliced_matches_scalar_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(st.data())
    @hypothesis.settings(max_examples=100, deadline=None)
    def check(data):
        n = data.draw(st.integers(1, 6), label="n")
        f = BooleanNetwork(data.draw(st.lists(expressions(n), min_size=n, max_size=n)))
        order = data.draw(st.permutations(range(n)), label="order")
        cuts = data.draw(st.sets(st.integers(1, n - 1)), label="cuts") if n > 1 else set()
        bounds = [0, *sorted(cuts), n]
        mu = PartitionedOrder(n, [order[a:b] for a, b in zip(bounds, bounds[1:])])
        expected = tuple(oracles.substep_image(f, mu, x) for x in range(1 << n))
        assert tuple(transition_graph(f, mu).successors) == expected

    check()
