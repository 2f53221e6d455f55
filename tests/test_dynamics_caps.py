"""The resource caps of ``dynamics`` are module constants read at the call,
and every entry point checks its inputs once, in one order.

The order is: the network and schedule sizes match, each configuration is in
range, a whole-space call fits ``DEFAULT_GRAPH_N_CAP``, one step fits the
substep cap.  A call with two faults raises the first one's exception; the
texts below are pinned.
"""

import importlib
import inspect
import random

import pytest

from blockpar import dynamics, embedding
from blockpar.errors import ResourceCapError
from blockpar.network import identity_network, random_network
from blockpar.schedule import PartitionedOrder

#: A 21-automaton network (one past the graph cap) whose schedule expands to
#: two substeps, above a substep cap of 1.
BIG = identity_network(21)
BIG_MU = PartitionedOrder(21, [(0, 1), *((i,) for i in range(2, 21))])

#: Each whole-space function, called on ``(f, mu, cap)``.
WHOLE_SPACE = {
    "transition_graph": lambda f, mu, cap: dynamics.transition_graph(f, mu, cap=cap),
    "fixed_points": lambda f, mu, cap: dynamics.fixed_points(f, mu, cap=cap),
    "limit_cycles": lambda f, mu, cap: dynamics.limit_cycles(f, mu, cap=cap),
    "limit_cycle_exists":
        lambda f, mu, cap: dynamics.limit_cycle_exists(f, mu, 2, cap=cap),
    "limit_isomorphic": lambda f, mu, cap: dynamics.limit_isomorphic(f, mu, mu, cap=cap),
    "has_preimage": lambda f, mu, cap: dynamics.has_preimage(f, mu, 0, cap=cap),
    "is_bijective": lambda f, mu, cap: dynamics.is_bijective(f, mu, cap=cap),
    "is_identity": lambda f, mu, cap: dynamics.is_identity(f, mu, cap=cap),
    "is_constant": lambda f, mu, cap: dynamics.is_constant(f, mu, cap=cap),
    "subdynamics": lambda f, mu, cap: dynamics.subdynamics(f, mu, {0: 0}, cap=cap),
}

#: The operation each whole-space function names in its graph-cap message.
WHAT = {
    **dict.fromkeys(WHOLE_SPACE, "transition graph over 2**{n} configurations"),
    "has_preimage": "preimage search over 2**{n}",
    "is_bijective": "bijectivity check over 2**{n}",
    "is_identity": "identity check over 2**{n}",
    "is_constant": "constant check over 2**{n}",
}


def _no_images(*args):
    raise AssertionError("an image was computed before the caps were checked")


@pytest.mark.parametrize("name", WHOLE_SPACE)
def test_graph_cap_is_read_at_the_call(name, monkeypatch):
    monkeypatch.setattr(dynamics, "DEFAULT_GRAPH_N_CAP", 5)
    monkeypatch.setattr(dynamics, "_sub_cube_images", _no_images)
    f = random_network(6, random.Random(6))
    with pytest.raises(ResourceCapError, match="n_cap=5") as error:
        WHOLE_SPACE[name](f, PartitionedOrder.parallel(6), 10)
    assert str(error.value) == WHAT[name].format(n=6) + " exceeds n_cap=5"


def test_node_cap_is_read_at_the_call(monkeypatch):
    monkeypatch.setattr(embedding, "DEFAULT_NODE_CAP", 2)
    f = identity_network(2)
    with pytest.raises(ResourceCapError) as error:
        dynamics.subdynamics(f, PartitionedOrder.parallel(2), {0: 1, 1: 2, 2: 2})
    assert str(error.value) == "subdynamics graph has 3 vertices, above node_cap=2"
    assert dynamics.subdynamics(f, PartitionedOrder.parallel(2), {0: 0, 1: 1})


def test_default_node_cap_message():
    pattern = {k: k for k in range(13)}
    with pytest.raises(ResourceCapError) as error:
        dynamics.subdynamics(identity_network(2), PartitionedOrder.parallel(2), pattern)
    assert str(error.value) == "subdynamics graph has 13 vertices, above node_cap=12"


@pytest.mark.parametrize("name", WHOLE_SPACE)
def test_graph_cap_before_substep_cap(name):
    with pytest.raises(ResourceCapError) as error:
        WHOLE_SPACE[name](BIG, BIG_MU, 1)
    assert str(error.value) == WHAT[name].format(n=21) + " exceeds n_cap=20"


@pytest.mark.parametrize("name", WHOLE_SPACE)
def test_size_match_before_graph_cap(name):
    mu = PartitionedOrder.parallel(22)
    with pytest.raises(ValueError) as error:
        WHOLE_SPACE[name](BIG, mu, 1)
    assert str(error.value) == "network has 21 automata but schedule has 22"


#: Two-fault calls of the configuration-taking entry points: (call, type, text).
NET3 = identity_network(3)
MU3_LCM2 = PartitionedOrder(3, [(0, 1), (2,)])
TWO_FAULTS = {
    "step: config, substeps": (
        lambda: dynamics.step(NET3, MU3_LCM2, 8, cap=1),
        ValueError, "configuration 8 out of range for n=3"),
    "step_trace: config, substeps": (
        lambda: dynamics.step_trace(NET3, MU3_LCM2, -1, cap=1),
        ValueError, "configuration -1 out of range for n=3"),
    "reachable: source, substeps": (
        lambda: dynamics.reachable(NET3, MU3_LCM2, 9, 0, cap=1),
        ValueError, "configuration 9 out of range for n=3"),
    "reachable: target, substeps": (
        lambda: dynamics.reachable(NET3, MU3_LCM2, 0, 9, cap=1),
        ValueError, "configuration 9 out of range for n=3"),
    "reachable: source, target": (
        lambda: dynamics.reachable(NET3, MU3_LCM2, 10, 9),
        ValueError, "configuration 10 out of range for n=3"),
    "reachable: equal, out of range": (
        lambda: dynamics.reachable(NET3, MU3_LCM2, 9, 9),
        ValueError, "configuration 9 out of range for n=3"),
    "step: sizes, config": (
        lambda: dynamics.step(NET3, PartitionedOrder.parallel(4), 99),
        ValueError, "network has 3 automata but schedule has 4"),
    "has_preimage: sizes, target": (
        lambda: dynamics.has_preimage(NET3, PartitionedOrder.parallel(4), 99),
        ValueError, "network has 3 automata but schedule has 4"),
    "has_preimage: target, substeps": (
        lambda: dynamics.has_preimage(NET3, MU3_LCM2, 99, cap=1),
        ValueError, "configuration 99 out of range for n=3"),
    "has_preimage: target, graph cap": (
        lambda: dynamics.has_preimage(BIG, BIG_MU, 1 << 21, cap=1),
        ValueError, "configuration 2097152 out of range for n=21"),
    "is_fixed_point: config, substeps": (
        lambda: dynamics.is_fixed_point(NET3, MU3_LCM2, 8, cap=1),
        ValueError, "configuration 8 out of range for n=3"),
    "step: substeps": (
        lambda: dynamics.step(NET3, MU3_LCM2, 0, cap=1),
        ResourceCapError, "one step expands to 2 substeps, above the cap of 1"),
    "distinguishing_network: sizes": (
        lambda: dynamics.distinguishing_network(
            PartitionedOrder.parallel(2), PartitionedOrder.parallel(3)),
        ValueError, "schedules act on different sizes: 2 vs 3"),
}


@pytest.mark.parametrize("case", TWO_FAULTS)
def test_first_fault_wins(case):
    call, kind, text = TWO_FAULTS[case]
    with pytest.raises(kind) as error:
        call()
    assert type(error.value) is kind
    assert str(error.value) == text


def _public_functions():
    for module in ("blockmaps", "cli", "counting", "dynamics", "embedding", "enumeration",
                   "exports", "network", "partitions", "schedule"):
        home = importlib.import_module(f"blockpar.{module}")
        for name, value in vars(home).items():
            if not name.startswith("_") and inspect.isfunction(value) \
                    and value.__module__ == home.__name__:
                yield f"{module}.{name}", value


def test_no_function_takes_a_size_or_node_cap():
    names = dict(_public_functions())
    assert "dynamics.transition_graph" in names and "embedding.subdynamics" in names
    for name, function in names.items():
        parameters = inspect.signature(function).parameters
        assert not {"n_cap", "node_cap"} & set(parameters), name
    assert not hasattr(dynamics, "DEFAULT_SUBSTEP_CAP")


def test_substep_cap_default_is_the_schedule_cap():
    from blockpar.schedule import DEFAULT_BLOCK_CAP

    for name, function in _public_functions():
        parameter = inspect.signature(function).parameters.get("cap")
        if parameter is not None and name.startswith(("dynamics.", "embedding.")):
            assert parameter.default is DEFAULT_BLOCK_CAP, name
