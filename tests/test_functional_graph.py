"""Every cycle decomposition goes through one chase; subdynamics against brute force."""

import random

import pytest

from blockpar.cli import EXIT_BAD_INPUT, main
from blockpar.dynamics import DynamicsGraph, subdynamics, transition_graph
from blockpar.network import random_network
from blockpar.schedule import PartitionedOrder

import oracles


@pytest.mark.parametrize("n", range(7))
def test_cycles_and_basins_match_orbit_oracle(n):
    rng = random.Random(n)
    size = 1 << n
    for _ in range(40):
        # Few distinct targets give long trees; many give many cycles.
        targets = rng.randint(1, size)
        successors = [rng.randrange(targets) for _ in range(size)]
        graph = DynamicsGraph(n, successors)
        cycles, basin = oracles.orbit_decomposition(successors)
        assert list(graph.cycles) == cycles
        assert list(graph.basin) == basin
        assert graph.cycle_lengths() == tuple(sorted(map(len, cycles)))
        assert graph.limit_set == {x for cycle in cycles for x in cycle}


def test_a_successor_tuple_is_kept():
    successors = (1, 0, 3, 3)
    graph = DynamicsGraph(2, successors)
    assert graph.successors is successors
    assert graph.cycles == ((0, 1), (3,))
    assert list(graph.basin) == [0, 0, 1, 1]
    assert graph.limit_set == {0, 1, 3}


def _single_cycle(size: int, rng: random.Random) -> list[int]:
    order = list(range(size))
    rng.shuffle(order)
    successors = [0] * size
    for a, b in zip(order, order[1:] + order[:1]):
        successors[a] = b
    return successors


def _long_tail(size: int, rng: random.Random) -> list[int]:
    """One path through every vertex into a cycle of three at its end."""
    order = list(range(size))
    rng.shuffle(order)
    successors = [0] * size
    for a, b in zip(order, order[1:]):
        successors[a] = b
    successors[order[-1]] = order[-3]
    return successors


@pytest.mark.parametrize("table", [_single_cycle, _long_tail])
def test_long_orbits_match_orbit_oracle(table):
    successors = table(1 << 12, random.Random(12))
    graph = DynamicsGraph(12, successors)
    cycles, basin = oracles.orbit_decomposition(successors)
    assert (list(graph.cycles), list(graph.basin)) == (cycles, basin)
    assert graph.cycle_lengths() == tuple(sorted(map(len, cycles)))
    assert graph.limit_set == {x for cycle in cycles for x in cycle}


def _random_schedule(n: int, rng: random.Random) -> PartitionedOrder:
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
    bounds = [0, *cuts, n]
    return PartitionedOrder(n, [order[a:b] for a, b in zip(bounds, bounds[1:])])


def test_subdynamics_matches_injective_homomorphism_search():
    rng = random.Random(5)
    answers = set()
    for _ in range(60):
        n = rng.randint(1, 3)
        f = random_network(n, rng, depth=rng.randint(1, 3))
        mu = _random_schedule(n, rng)
        successors = transition_graph(f, mu).successors
        for _ in range(8):
            k = rng.randint(1, 4)
            pattern = {f"v{i}": f"v{rng.randrange(k)}" for i in range(k)}
            expected = oracles.embeds_injectively(pattern, successors)
            assert subdynamics(f, mu, pattern) == expected, (pattern, successors)
            answers.add(expected)
    assert answers == {True, False}


def test_unhashable_successor_is_not_a_vertex(tmp_path, capsys):
    f = random_network(1, random.Random(0))
    mu = PartitionedOrder(1, [[0]])
    with pytest.raises(ValueError, match=r"successor \['b'\] of 'a' is not a vertex"):
        subdynamics(f, mu, {"a": ["b"], "b": "a"})
    network = tmp_path / "one.bn"
    network.write_text("x0 = x0\n")
    graph = tmp_path / "g.json"
    graph.write_text('{"a": ["b"]}')
    argv = ["check", "subdynamics", "--network", str(network), "--schedule", "[[0]]",
            "--graph", str(graph)]
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.err == "error: successor ['b'] of 'a' is not a vertex\n"
