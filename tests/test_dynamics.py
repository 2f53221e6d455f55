import random

import pytest

from blockpar.dynamics import (
    distinguishing_network,
    fixed_points,
    graph_json,
    has_preimage,
    is_bijective,
    is_constant,
    is_fixed_point,
    is_identity,
    limit_cycle_exists,
    limit_cycles,
    limit_isomorphic,
    reachable,
    step,
    step_trace,
    subdynamics,
    to_dot,
    transition_graph,
)
from blockpar.errors import ResourceCapError
from blockpar.gadget import counter_gadget, counter_value
from blockpar.network import (
    BooleanNetwork,
    Const,
    format_config,
    identity_network,
    parse_config,
    parse_network,
    random_network,
)
from blockpar.schedule import PartitionedOrder, parse_schedule

import oracles

DEMO_NET = parse_network("x0 = x1\nx1 = !x0\nx2 = x0 & x2\n")
DEMO_MU = parse_schedule("[[0],[1,2]]", n=3)
SWAP2 = parse_network("x0 = x1\nx1 = x0\n")
NEG1 = parse_network("n=1\nx0 = !x0\n")
PAR1 = PartitionedOrder.parallel(1)
PAR2 = PartitionedOrder.parallel(2)
PAR3 = PartitionedOrder.parallel(3)


class TestStep:
    def test_three_automaton_example_step(self):
        assert format_config(step(DEMO_NET, DEMO_MU, parse_config("111")), 3) == "001"

    def test_three_automaton_example_trace(self):
        trace = step_trace(DEMO_NET, DEMO_MU, parse_config("111"))
        assert [format_config(c, 3) for c in trace] == ["111", "101", "001"]

    def test_identity_network_fixed(self):
        f = identity_network(3)
        for mu in (PAR3, DEMO_MU, PartitionedOrder(3, [(2, 1, 0)])):
            for x in range(8):
                assert step(f, mu, x) == x

    def test_trace_ends_at_step(self):
        for x in range(8):
            trace = step_trace(DEMO_NET, DEMO_MU, x)
            assert len(trace) == DEMO_MU.lcm() + 1
            assert trace[-1] == step(DEMO_NET, DEMO_MU, x)
            assert trace[0] == x

    def test_matches_explicit_block_composition(self):
        rng = random.Random(0xA11CE)
        from blockpar.enumeration import enum_bp

        for mu in enum_bp(3):
            f = random_network(3, rng)
            for x in range(8):
                assert step(f, mu, x) == oracles.step_via_phi(f, mu, x)

    def test_identity_trace_under_parallel(self):
        f = identity_network(2)
        assert step_trace(f, PAR2, 3) == [3, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            step(DEMO_NET, PAR2, 0)
        with pytest.raises(ValueError):
            step(DEMO_NET, DEMO_MU, 8)

    def test_substep_cap(self):
        bundle = counter_gadget(7)
        with pytest.raises(ResourceCapError):
            step(bundle.network, bundle.schedule, 0)


class TestTransitionGraph:
    def test_negation_single_two_cycle(self):
        graph = transition_graph(NEG1, PAR1)
        assert graph.cycles == ((0, 1),)
        assert graph.limit_set == {0, 1}

    def test_swap_network(self):
        graph = transition_graph(SWAP2, PAR2)
        assert graph.cycle_lengths() == (1, 1, 2)
        assert graph.limit_set == {0, 1, 2, 3}
        assert fixed_points(SWAP2, PAR2) == {0, 3}

    def test_basins(self):
        f = parse_network("x0 = 0\nx1 = x0\n")
        graph = transition_graph(f, PAR2)
        assert graph.cycles == ((0,),)
        assert all(graph.basin[x] == 0 for x in range(4))

    def test_limit_set_is_permuted(self):
        rng = random.Random(2024)
        from collections import Counter

        from blockpar.enumeration import enum_bp

        for mu in enum_bp(3):
            f = random_network(3, rng)
            graph = transition_graph(f, mu)
            omega = graph.limit_set
            image_counts = Counter(graph.successors[x] for x in omega)
            assert set(image_counts) == omega
            # the restriction is a permutation: one preimage inside omega each
            assert all(count == 1 for count in image_counts.values())

    def test_parallel_workers_match(self):
        graph_seq = transition_graph(DEMO_NET, DEMO_MU)
        graph_par = transition_graph(DEMO_NET, DEMO_MU, workers=2)
        assert graph_seq.successors == graph_par.successors
        assert graph_seq.cycles == graph_par.cycles

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr("blockpar.dynamics.DEFAULT_GRAPH_N_CAP", 5)
        with pytest.raises(ResourceCapError):
            transition_graph(identity_network(6), PartitionedOrder.parallel(6))


class TestFixedPoints:
    def test_identity_all(self):
        assert fixed_points(identity_network(2), PAR2) == {0, 1, 2, 3}

    def test_negation_none(self):
        assert fixed_points(NEG1, PAR1) == frozenset()

    def test_single_verification(self):
        assert is_fixed_point(SWAP2, PAR2, 0)
        assert not is_fixed_point(SWAP2, PAR2, 1)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_the_one_cycles_of_the_graph(self, n):
        from blockpar.enumeration import enum_bp

        rng = random.Random(0xF1 + n)
        networks = [random_network(n, rng), identity_network(n),
                    BooleanNetwork(Const(rng.randrange(2)) for _ in range(n))]
        for f in networks:
            for mu in enum_bp(n):
                graph = transition_graph(f, mu)
                expected = frozenset(c[0] for c in graph.cycles if len(c) == 1)
                assert fixed_points(f, mu) == expected


class TestLimitCycles:
    def test_swap_multiset(self):
        cycles = limit_cycles(SWAP2, PAR2)
        assert sorted(len(c) for c in cycles) == [1, 1, 2]
        assert limit_cycle_exists(SWAP2, PAR2, 2)

    def test_identity_k1(self):
        assert limit_cycle_exists(identity_network(2), PAR2, 1)

    def test_negation(self):
        assert not limit_cycle_exists(NEG1, PAR1, 1)
        assert limit_cycle_exists(NEG1, PAR1, 2)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            limit_cycle_exists(NEG1, PAR1, 0)

    def test_divisibility_consistency(self):
        rng = random.Random(5150)
        for _ in range(10):
            f = random_network(3, rng)
            lengths = [len(c) for c in limit_cycles(f, PAR3)]
            for k in range(1, 7):
                expected = any(k % length == 0 for length in lengths)
                assert limit_cycle_exists(f, PAR3, k) == expected


class TestDynamicalEquality:
    def test_equal_phi_pairs_share_dynamics_at_n4(self):
        # Swapping elements within a column of the matrix representation
        # preserves the block sequence, hence the dynamics for any network.
        from blockpar.schedule import equiv0

        a = PartitionedOrder(4, [(0, 1), (2, 3)])
        b = PartitionedOrder(4, [(0, 3), (2, 1)])
        assert a != b
        assert equiv0(a, b)
        rng = random.Random(0xD1CE)
        for _ in range(20):
            f = random_network(4, rng)
            assert transition_graph(f, a).successors == transition_graph(f, b).successors


class TestLimitIsomorphic:
    def test_reversed_oblock_over_random_networks(self):
        rng = random.Random(0x5EED)
        a, b = PartitionedOrder(2, [(0, 1)]), PartitionedOrder(2, [(1, 0)])
        for _ in range(50):
            f = random_network(2, rng)
            assert limit_isomorphic(f, a, b)

    def test_same_schedule(self):
        assert limit_isomorphic(DEMO_NET, DEMO_MU, DEMO_MU)

    def test_distinguishing_pair_may_differ(self):
        # Non shift-equivalent schedules can have non-isomorphic limit sets.
        a = PartitionedOrder(2, [(0,), (1,)])
        b = PartitionedOrder(2, [(0, 1)])
        found = False
        rng = random.Random(31337)
        for _ in range(100):
            f = random_network(2, rng)
            if not limit_isomorphic(f, a, b):
                found = True
                break
        assert found


class TestReachable:
    def test_self(self):
        assert reachable(DEMO_NET, DEMO_MU, 5, 5)

    def test_negation(self):
        assert reachable(NEG1, PAR1, 0, 1)

    def test_unreachable(self):
        assert not reachable(identity_network(2), PAR2, 0, 1)

    def test_gadget_reaches_frozen_state(self):
        bundle = counter_gadget(2)
        target = parse_config("0000011")
        assert reachable(bundle.network, bundle.schedule, parse_config("0101010"), target)

    def test_validates_before_comparing_the_configurations(self):
        with pytest.raises(ValueError, match="network has 2 automata but schedule has 3"):
            reachable(identity_network(2), PAR3, 0, 0)
        with pytest.raises(ValueError, match="configuration 8 out of range"):
            reachable(DEMO_NET, DEMO_MU, 8, 8)

    def test_substep_cap_applies_when_the_configurations_are_equal(self):
        mu = PartitionedOrder(5, [(0, 1), (2, 3, 4)])
        with pytest.raises(ResourceCapError):
            reachable(identity_network(5), mu, 0, 0, cap=5)


class TestPreimage:
    def test_bijective_unique_preimages(self):
        f = parse_network("x0 = !x0\nx1 = !x1\nx2 = !x2\n")
        for y in range(8):
            preimages = [x for x in range(8) if step(f, PAR3, x) == y]
            assert len(preimages) == 1
            assert has_preimage(f, PAR3, y) == preimages[0]

    def test_gadget_constant_image(self):
        bundle = counter_gadget(2)
        frozen = parse_config("0000011")
        assert has_preimage(bundle.network, bundle.schedule, frozen) == 0
        assert has_preimage(bundle.network, bundle.schedule, 0) is None


class TestBijective:
    def test_involution(self):
        f = parse_network("x0 = !x0\nx1 = !x1\n")
        assert is_bijective(f, PAR2)

    def test_constant_not(self):
        f = parse_network("x0 = 0\nx1 = 0\n")
        assert not is_bijective(f, PAR2)

    def test_swap_under_oblock_pair(self):
        # The substep block {0,2} maps (x0,x1,x2) to (x1,x1,x2), which
        # collapses configurations, so the whole step cannot be bijective.
        f = parse_network("x0 = x1\nx1 = x0\nx2 = x2\n")
        mu = PartitionedOrder(3, [(0,), (1, 2)])
        assert not is_bijective(f, mu)

    def test_methods_agree_over_sweep(self):
        rng = random.Random(404)
        from blockpar.enumeration import enum_bp0

        schedules = list(enum_bp0(3))
        for _ in range(20):
            f = random_network(3, rng)
            for mu in schedules:
                is_bijective(f, mu)  # raises CrossCheckError on disagreement


class TestIdentityConstant:
    def test_identity_network(self):
        assert is_identity(identity_network(3), DEMO_MU)
        assert is_identity(identity_network(3), PAR3)

    def test_double_negation(self):
        f = parse_network("n=3\nx0 = !x0\n")
        mu = PartitionedOrder(3, [(0,), (1, 2)])
        assert is_identity(f, mu)
        assert not is_identity(f, PAR3)

    def test_constant_zero(self):
        f = parse_network("x0 = 0\nx1 = 0\n")
        assert is_constant(f, PAR2) == 0

    def test_identity_not_constant(self):
        assert is_constant(identity_network(2), PAR2) is None


class TestSubdynamics:
    def test_self_loop_iff_fixed_point(self):
        loop = {"v": "v"}
        assert subdynamics(SWAP2, PAR2, loop) == bool(fixed_points(SWAP2, PAR2))
        assert subdynamics(NEG1, PAR1, loop) == bool(fixed_points(NEG1, PAR1))

    def test_two_cycle(self):
        assert subdynamics(SWAP2, PAR2, {"a": "b", "b": "a"})

    def test_three_cycle_absent_from_identity(self):
        assert not subdynamics(identity_network(2), PAR2, {0: 1, 1: 2, 2: 0})

    def test_hanging_tree(self):
        zero = parse_network("x0 = 0\nx1 = 0\n")
        assert subdynamics(zero, PAR2, {"r": "r", "u": "r", "w": "r"})
        # identity dynamics has fixed points but no in-trees
        assert not subdynamics(identity_network(2), PAR2, {"r": "r", "u": "r"})

    def test_too_many_fixed_points(self):
        assert not subdynamics(NEG1, PAR1, {0: 0, 1: 1, 2: 2})
        assert subdynamics(identity_network(2), PAR2, {0: 0, 1: 1, 2: 2})

    def test_bad_graphs(self):
        with pytest.raises(ValueError):
            subdynamics(SWAP2, PAR2, {})
        with pytest.raises(ValueError):
            subdynamics(SWAP2, PAR2, {"a": "b"})
        with pytest.raises(ResourceCapError):
            subdynamics(SWAP2, PAR2, {i: i for i in range(13)})

    def test_matches_exhaustive_search_on_chains(self):
        rng = random.Random(777)
        chain = {0: 1, 1: 2, 2: 2}  # two-step tail into a fixed point
        for _ in range(10):
            f = random_network(3, rng)
            graph = transition_graph(f, PAR3)
            expected = any(
                graph.successors[a] == b and graph.successors[b] == b and a != b
                and any(graph.successors[c] == a for c in range(8) if c not in (a, b))
                for a in range(8)
                for b in range(8)
            )
            assert subdynamics(f, PAR3, chain) == expected


class TestDistinguishingNetwork:
    def test_parallel_vs_reversed_pair(self):
        a = PartitionedOrder(2, [(0,), (1,)])
        b = PartitionedOrder(2, [(1, 0)])
        f, witness, index = distinguishing_network(a, b)
        assert (step(f, a, witness) >> index) & 1 != (step(f, b, witness) >> index) & 1

    def test_oblock_vs_reversed(self):
        a = PartitionedOrder(2, [(0, 1)])
        b = PartitionedOrder(2, [(1, 0)])
        f, witness, index = distinguishing_network(a, b)
        assert index == 0
        assert witness == parse_config("01")
        assert (step(f, a, witness) >> index) & 1 == 1
        assert (step(f, b, witness) >> index) & 1 == 0

    def test_equivalent_inputs_rejected(self):
        mu = PartitionedOrder(2, [(0,), (1,)])
        with pytest.raises(ValueError):
            distinguishing_network(mu, mu)

    def test_none_when_first_update_orders_coincide(self):
        a = PartitionedOrder(3, [(0, 1), (2,)])
        b = PartitionedOrder(3, [(0,), (2, 1)])
        assert distinguishing_network(a, b) is None
        # still distinguishable by some network, found by randomised search
        rng = random.Random(808)
        assert any(
            step(f, a, x) != step(f, b, x)
            for f in (random_network(3, rng) for _ in range(50))
            for x in range(8)
        )


class TestCounterGadget:
    def test_layout_and_sizes(self):
        bundle = counter_gadget(3)
        assert bundle.n_automata == 20
        assert bundle.padding == range(0, 17)
        assert bundle.counter == range(17, 20)
        assert sorted(len(b) for b in bundle.schedule.oblocks) == [1, 1, 1, 2, 3, 5, 7]
        assert bundle.schedule.lcm() == 210

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            counter_gadget(1)

    def test_step_from_counter_two(self):
        bundle = counter_gadget(3)
        start = parse_config("0" * 17 + "010")
        image = step(bundle.network, bundle.schedule, start)
        assert format_config(image, 20) == "0" * 17 + "111"

    def test_trace_counts_up_then_freezes(self):
        bundle = counter_gadget(3)
        start = parse_config("0" * 17 + "010")
        trace = step_trace(bundle.network, bundle.schedule, start)
        assert len(trace) == 211
        values = [counter_value(bundle, c) for c in trace]
        assert values == [min(2 + t, 7) for t in range(211)]

    def test_constant_map_exact_at_n2(self):
        bundle = counter_gadget(2)
        frozen = parse_config("0000011")
        assert is_constant(bundle.network, bundle.schedule) == frozen
        assert fixed_points(bundle.network, bundle.schedule) == {frozen}
        graph = transition_graph(bundle.network, bundle.schedule)
        assert set(graph.successors) == {frozen}

    def test_random_sample_at_n3(self):
        bundle = counter_gadget(3)
        target = parse_config("0" * 17 + "111")
        rng = random.Random(0xC0DE)
        for _ in range(50):
            x = rng.randrange(1 << 20)
            assert step(bundle.network, bundle.schedule, x) == target


class TestExports:
    def test_dot(self):
        text = to_dot(transition_graph(NEG1, PAR1))
        assert text.startswith("digraph dynamics {")
        assert '"0" -> "1";' in text and '"1" -> "0";' in text

    def test_json(self):
        payload = graph_json(transition_graph(SWAP2, PAR2))
        assert payload["n"] == 2
        assert payload["cycles"]["lengths"] == [1, 1, 2]
        assert len(payload["edges"]) == 4
