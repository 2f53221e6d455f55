"""The substep rule, checked against ``oracles.substep_blocks``.

``phi``, the simulator and the whole-space deciders all run the one rule in
``PartitionedOrder.substeps``; the oracle spells it out independently, and
the oracle trajectory applies ``update_block`` block by block.
"""

import random

import pytest

from blockpar.dynamics import (
    has_preimage,
    is_constant,
    is_identity,
    step,
    step_trace,
    transition_graph,
)
from blockpar.enumeration import enum_bp
from blockpar.network import BooleanNetwork, Const, identity_network, random_network, update_block
from blockpar.schedule import phi

import oracles


def oracle_trace(f, mu, x: int) -> list[int]:
    trace = [x]
    for block in oracles.substep_blocks(mu):
        x = update_block(f, block, x)
        trace.append(x)
    return trace


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
            assert transition_graph(f, mu).successors == tuple(images)
            assert is_identity(f, mu) == (images == list(range(size)))
            assert is_constant(f, mu) == (images[0] if len(set(images)) == 1 else None)
            for y in range(size):
                expected = images.index(y) if y in images else None
                assert has_preimage(f, mu, y) == expected


def test_sharded_transition_graph_matches_oracle():
    rng = random.Random(0x5AB)
    mu = next(mu for mu in enum_bp(4) if mu.lcm() == 3)
    f = random_network(4, rng)
    images = tuple(oracle_trace(f, mu, x)[-1] for x in range(16))
    assert transition_graph(f, mu, workers=2).successors == images
