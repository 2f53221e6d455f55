"""The per-block half of ``is_bijective``: columns of the scalar locals,
checked against ``update_block`` on every configuration."""

import random

import pytest

from blockpar import dynamics
from blockpar.dynamics import is_bijective
from blockpar.enumeration import enum_bp
from blockpar.errors import CrossCheckError
from blockpar.network import BooleanNetwork, Var, Xor, and_chain, random_expression, random_network
from blockpar.schedule import PartitionedOrder

import oracles


def random_schedule(n: int, rng: random.Random) -> PartitionedOrder:
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(n))) if n > 1 else []
    return PartitionedOrder(n, [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])])


def triangular_network(n: int, rng: random.Random, broken: int) -> BooleanNetwork:
    """``x_i ^ h_i(x_<i)``, every block update a bijection, except ``broken``
    automata whose locals are random expressions."""
    locals_ = [Xor(Var(i), random_expression(i, rng, 2)) if i else Var(0) for i in range(n)]
    for i in rng.sample(range(n), broken):
        locals_[i] = random_expression(n, rng, 2)
    return BooleanNetwork(locals_)


def agrees(f, mu) -> bool:
    answer = dynamics._blocks_bijective(f, set(mu.substeps()))
    assert answer == oracles.per_block_bijective(f, mu)
    return answer


@pytest.mark.parametrize("n", range(1, 9))
def test_columns_match_update_block_on_random_networks(n):
    rng = random.Random(0xC0105 + n)
    for _ in range(6):
        agrees(random_network(n, rng), random_schedule(n, rng))


@pytest.mark.parametrize("n", range(1, 5))
def test_columns_match_update_block_on_every_bp_schedule(n):
    rng = random.Random(0xB10C + n)
    networks = [random_network(n, rng), triangular_network(n, rng, 0),
                triangular_network(n, rng, 1)]
    answers = {agrees(f, mu) for f in networks for mu in enum_bp(n)}
    assert True in answers
    assert n == 1 or False in answers


def test_some_blocks_bijective_and_some_not():
    # x0 = x1 and x1 = x0 swap when updated together; alone, each loses a bit.
    f = BooleanNetwork([Var(1), Var(0), Var(2)])
    parallel = PartitionedOrder.parallel(3)
    sequential = PartitionedOrder(3, [(0, 1, 2)])
    assert agrees(f, parallel)
    assert not agrees(f, sequential)
    assert [dynamics._blocks_bijective(f, [block]) for block in sequential.substeps()] \
        == [False, False, True]
    rng = random.Random(0x3B)
    mixed = 0
    for n in range(3, 8):
        for _ in range(8):
            f, mu = triangular_network(n, rng, 2), random_schedule(n, rng)
            answers = {dynamics._blocks_bijective(f, [block]) for block in mu.substeps()}
            mixed += answers == {False, True}
            agrees(f, mu)
    assert mixed


def test_columns_read_only_the_scalar_lambdas(monkeypatch):
    f = BooleanNetwork(Xor(Var(i), and_chain(Var(j) for j in range(i))) for i in range(5))
    mu = PartitionedOrder(5, [(0, 1), (2, 3, 4)])

    def unused(*args):
        raise AssertionError("the per-block method read the sliced evaluator")

    monkeypatch.setattr(f, "_sliced", (unused,) * 5)
    monkeypatch.setattr(dynamics, "_images", unused)
    monkeypatch.setattr(dynamics, "_transpose", unused)
    assert dynamics._blocks_bijective(f, set(mu.substeps()))


def test_a_wrong_column_fails_the_cross_check(monkeypatch):
    f = BooleanNetwork(Xor(Var(i), and_chain(Var(j) for j in range(i))) for i in range(4))
    mu = PartitionedOrder.parallel(4)
    assert is_bijective(f, mu)
    # Automaton 0's column all zeros: its blocks are no longer onto, while the
    # whole-step method still reads the true bit-planes.
    monkeypatch.setattr(f, "_compiled", (lambda x: 0,) + f.compiled()[1:])
    with pytest.raises(CrossCheckError):
        is_bijective(f, mu)
