"""The substep rule, checked against ``oracles.substep_blocks``.

``phi``, the simulator and the whole-space deciders all run the one rule of
``schedule._substeps``, over automata or the kernel's slots; the oracle spells it out independently, and
the oracle trajectory applies ``update_block`` block by block.  The oracle
runs every substep, while the simulator stops once the configuration has
settled, so the single-configuration calls are checked here too.
"""

import random

import pytest

from blockpar.dynamics import (
    has_preimage,
    is_constant,
    is_fixed_point,
    is_identity,
    reachable,
    step,
    step_trace,
    transition_graph,
)
from blockpar.enumeration import enum_bp
from blockpar.network import BooleanNetwork, Const, identity_network, random_network, update_block
from blockpar.schedule import PartitionedOrder, phi

import oracles
from test_sliced import expressions


def oracle_trace(f, mu, x: int) -> list[int]:
    trace = [x]
    for block in oracles.substep_blocks(mu):
        x = update_block(f, block, x)
        trace.append(x)
    return trace


def orbit(successor, x: int) -> set[int]:
    """Every configuration the orbit of ``x`` visits, ``x`` included."""
    seen = set()
    while x not in seen:
        seen.add(x)
        x = successor(x)
    return seen


def networks(n: int, rng: random.Random) -> list[BooleanNetwork]:
    """A random network plus an identity and a constant one, so every decider
    sees both answers."""
    constant = BooleanNetwork(Const(rng.randint(0, 1)) for _ in range(n))
    return [random_network(n, rng), identity_network(n), constant]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phi_matches_oracle(n):
    for mu in enum_bp(n):
        assert phi(mu).blocks == oracles.substep_blocks(mu)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simulation_and_deciders_match_oracle(n):
    rng = random.Random(0x5AB + n)
    size = 1 << n
    for mu in enum_bp(n):
        for f in networks(n, rng):
            traces = [oracle_trace(f, mu, x) for x in range(size)]
            images = [trace[-1] for trace in traces]
            for x, trace in enumerate(traces):
                assert step_trace(f, mu, x) == trace
                assert step(f, mu, x) == trace[-1]
                assert is_fixed_point(f, mu, x) == (trace[-1] == x)
                visited = orbit(images.__getitem__, x)
                for y in range(size):
                    assert reachable(f, mu, x, y) == (y in visited)
            assert tuple(transition_graph(f, mu).successors) == tuple(images)
            assert is_identity(f, mu) == (images == list(range(size)))
            assert is_constant(f, mu) == (images[0] if len(set(images)) == 1 else None)
            for y in range(size):
                expected = images.index(y) if y in images else None
                assert has_preimage(f, mu, y) == expected


def test_single_configuration_calls_match_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(st.data())
    @hypothesis.settings(max_examples=60, deadline=None)
    def check(data):
        n = data.draw(st.integers(1, 8), label="n")
        f = BooleanNetwork(data.draw(st.lists(expressions(n), min_size=n, max_size=n)))
        order = data.draw(st.permutations(range(n)), label="order")
        cuts = data.draw(st.sets(st.integers(1, n - 1)), label="cuts") if n > 1 else set()
        bounds = [0, *sorted(cuts), n]
        mu = PartitionedOrder(n, [order[a:b] for a, b in zip(bounds, bounds[1:])])
        x = data.draw(st.integers(0, (1 << n) - 1), label="x")
        y = data.draw(st.integers(0, (1 << n) - 1), label="y")
        trace = oracle_trace(f, mu, x)
        assert step_trace(f, mu, x) == trace
        assert step(f, mu, x) == trace[-1]
        assert is_fixed_point(f, mu, x) == (trace[-1] == x)
        visited = orbit(lambda c: oracles.substep_image(f, mu, c), x)
        assert reachable(f, mu, x, y) == (y in visited)

    check()


def test_sharded_transition_graph_matches_oracle():
    rng = random.Random(0x5AB)
    mu = next(mu for mu in enum_bp(4) if mu.lcm() == 3)
    f = random_network(4, rng)
    images = tuple(oracle_trace(f, mu, x)[-1] for x in range(16))
    assert tuple(transition_graph(f, mu, workers=2).successors) == images
