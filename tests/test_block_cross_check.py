"""The per-block half of ``is_bijective``: each block checked through its
dependency components, over each component's support, from truth tables of
the scalar locals; checked against ``update_block`` on every configuration,
against the whole-step answer, and for the scalar calls it makes."""

import os
import random

import pytest

from blockpar import blockmaps, dynamics
from blockpar.dynamics import is_bijective
from blockpar.enumeration import enum_bp
from blockpar.errors import CrossCheckError
from blockpar.network import (
    And,
    BooleanNetwork,
    Not,
    Var,
    Xor,
    and_chain,
    parse_network,
    random_expression,
    random_network,
)
from blockpar.schedule import PartitionedOrder, parse_schedule

import oracles
from test_sliced import expressions

DATA = os.path.join(os.path.dirname(__file__), "data")


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
    answer = blockmaps._blocks_bijective(f, set(mu.substeps()))
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
    assert [blockmaps._blocks_bijective(f, [block]) for block in sequential.substeps()] \
        == [False, False, True]
    rng = random.Random(0x3B)
    mixed = 0
    for n in range(3, 8):
        for _ in range(8):
            f, mu = triangular_network(n, rng, 2), random_schedule(n, rng)
            answers = {blockmaps._blocks_bijective(f, [block]) for block in mu.substeps()}
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
    assert blockmaps._blocks_bijective(f, set(mu.substeps()))


def test_a_wrong_column_fails_the_cross_check(monkeypatch):
    f = BooleanNetwork(Xor(Var(i), and_chain(Var(j) for j in range(i))) for i in range(4))
    mu = PartitionedOrder.parallel(4)
    assert is_bijective(f, mu)
    # Automaton 0's column all zeros: its blocks are no longer onto, while the
    # whole-step method still reads the true bit-planes.
    monkeypatch.setattr(f, "_compiled", (lambda x: 0,) + f.compiled()[1:])
    with pytest.raises(CrossCheckError):
        is_bijective(f, mu)


def test_a_block_that_splits_into_two_components():
    # Block (0, 1, 2, 3): the swap {0, 1} and the pair {2, 3}, which reads
    # automaton 4 outside the block as context.  In the parallel block,
    # automaton 4 (the identity) joins {2, 3}.
    reads = [(1,), (0,), (3,), (2, 4), (4,)]
    assert blockmaps._components((0, 1, 2, 3), reads) == [{0, 1}, {2, 3}]
    assert blockmaps._components((0, 1, 2, 3, 4), reads) == [{0, 1}, {2, 3, 4}]
    mu = PartitionedOrder.parallel(5)
    swap = [Var(1), Var(0)]
    for pair, bijective in [([Var(3), Xor(Var(2), Var(4))], True),
                            ([Var(3), Not(Var(2))], True),
                            ([Var(3), And(Var(2), Var(4))], False),
                            ([Var(3), Var(3)], False)]:
        f = BooleanNetwork([*swap, *pair, Var(4)])
        assert blockmaps._blocks_bijective(f, [(0, 1, 2, 3)]) is bijective
        assert agrees(f, mu) is bijective
        assert is_bijective(f, mu) is bijective


def test_a_component_joined_only_through_a_one_way_read():
    # x0 reads x1; x1 reads only itself.  One component, {0, 1}.
    assert blockmaps._components((0, 1), [(0, 1), (1,)]) == [{0, 1}]
    mu = PartitionedOrder.parallel(3)
    for pair, bijective in [([Xor(Var(0), Var(1)), Not(Var(1))], True),
                            ([Var(1), Not(Var(1))], False),
                            ([Xor(Var(0), Var(1), Var(2)), Var(1)], True),
                            ([And(Var(0), Var(1)), Var(1)], False)]:
        f = BooleanNetwork([*pair, Var(2)])
        assert blockmaps._blocks_bijective(f, [(0, 1)]) is bijective
        assert agrees(f, mu) is bijective
        assert is_bijective(f, mu) is bijective


def test_scalar_calls_at_the_graph_cap(monkeypatch):
    """One scalar call per automaton and assignment of the variables it
    reads, on a sparse 20-automaton network from perfbench's bijective
    generator; full-space columns would make 20 * 2**20."""
    with open(os.path.join(DATA, "bijective-20.bn")) as handle:
        f = parse_network(handle.read())
    with open(os.path.join(DATA, "bijective-20.schedule")) as handle:
        mu = parse_schedule(handle.read(), n=f.n)
    budget = sum(1 << len(expr.variables()) for expr in f.locals)
    assert f.n == dynamics.DEFAULT_GRAPH_N_CAP and budget * 1000 < f.n << f.n
    calls = 0

    def counting(local):
        def call(x):
            nonlocal calls
            calls += 1
            if calls > budget:
                raise AssertionError(f"more than {budget} scalar calls")
            return local(x)
        return call

    monkeypatch.setattr(f, "_compiled", tuple(map(counting, f.compiled())))
    assert blockmaps._blocks_bijective(f, set(mu.substeps()))
    assert calls <= budget


def test_per_block_equals_the_oracle_and_the_whole_step_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(st.data())
    @hypothesis.settings(max_examples=150, deadline=None)
    def check(data):
        n = data.draw(st.integers(1, 8), label="n")
        # ``x_i ^ h`` locals make bijective blocks common.
        locals_ = [Xor(Var(i), expr) if data.draw(st.booleans()) else expr
                   for i, expr in enumerate(data.draw(
                       st.lists(expressions(n), min_size=n, max_size=n), label="locals"))]
        order = data.draw(st.permutations(range(n)), label="order")
        cuts = data.draw(st.sets(st.integers(1, n - 1)), label="cuts") if n > 1 else set()
        bounds = [0, *sorted(cuts), n]
        mu = PartitionedOrder(n, [order[a:b] for a, b in zip(bounds, bounds[1:])])
        # Swap pairs ``x_i = x_j, x_j = x_i`` of o-block heads, which the
        # first substep updates together: a bijective block only if its
        # dependency components join the pair.
        heads = data.draw(st.permutations([block[0] for block in mu.oblocks]), label="heads")
        for i, j in zip(heads[::2], heads[1::2]):
            if data.draw(st.booleans(), label=f"swap {i} {j}"):
                locals_[i], locals_[j] = Var(j), Var(i)
        f = BooleanNetwork(locals_)
        answer = blockmaps._blocks_bijective(f, set(mu.substeps()))
        assert answer == oracles.per_block_bijective(f, mu) == is_bijective(f, mu)

    check()
