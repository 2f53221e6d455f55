"""``dynamics.json_lines``: the text of ``json.dumps(graph_json(g), indent=2)``,
streamed, and written by ``dynamics --format json`` in bounded writes."""

import json
import random

from blockpar import cli, dynamics
from blockpar.cli import EXIT_OK, WRITE_CHUNK, main
from blockpar.network import parse_network, random_network
from blockpar.schedule import PartitionedOrder, parse_schedule

from test_block_cross_check import random_schedule
from test_cli import CountingStream

#: An 11-bit counter under one sequential o-block: 2,048 arcs.
COUNTER = "\n".join(
    ["x0 = !x0"] + [f"x{i} = x{i} ^ ({' & '.join(f'x{k}' for k in range(i))})"
                    for i in range(1, 11)]
) + "\n"
COUNTER_SCHEDULE = "[[" + ",".join(map(str, range(10, -1, -1))) + "]]"


def test_matches_the_json_module_on_random_graphs():
    rng = random.Random(0x15_0E)
    for k in range(40):
        n = k % 10 + 1
        f, mu = random_network(n, rng), random_schedule(n, rng)
        graph = dynamics.transition_graph(f, mu)
        expected = json.dumps(dynamics.graph_json(graph), indent=2)
        assert "\n".join(dynamics.json_lines(graph)) == expected


def test_matches_the_json_module_on_long_cycles():
    graph = dynamics.transition_graph(parse_network(COUNTER),
                                      parse_schedule(COUNTER_SCHEDULE, n=11))
    assert graph.cycle_lengths() == (2048,)
    expected = json.dumps(dynamics.graph_json(graph), indent=2)
    assert "\n".join(dynamics.json_lines(graph)) == expected
    # Cycles of several lengths, fixed points among them.
    f = parse_network("x0 = x1\nx1 = x0\nx2 = x2\nx3 = !x3\n")
    graph = dynamics.transition_graph(f, PartitionedOrder.parallel(4))
    assert set(graph.cycle_lengths()) == {2}
    assert "\n".join(dynamics.json_lines(graph)) == json.dumps(dynamics.graph_json(graph), indent=2)


def test_command_writes_in_bounded_chunks(monkeypatch, tmp_path):
    network = tmp_path / "counter.bn"
    network.write_text(COUNTER)
    stream = CountingStream()
    monkeypatch.setattr(cli.sys, "stdout", stream)
    argv = ["dynamics", "--network", str(network), "--schedule", COUNTER_SCHEDULE,
            "--format", "json"]
    assert main(argv) == EXIT_OK
    graph = dynamics.transition_graph(parse_network(COUNTER),
                                      parse_schedule(COUNTER_SCHEDULE, n=11))
    assert stream.getvalue() == json.dumps(dynamics.graph_json(graph), indent=2) + "\n"
    pieces = len(list(dynamics.json_lines(graph)))
    assert pieces > 2048
    assert stream.writes <= -(-pieces // WRITE_CHUNK) + 1


def test_cycle_members_come_a_name_chunk_a_piece(monkeypatch):
    # A 4-bit counter: one 16-cycle, named 4 configurations a piece.
    counter = "x0 = !x0\nx1 = x1 ^ x0\nx2 = x2 ^ (x0 & x1)\nx3 = x3 ^ (x0 & x1 & x2)\n"
    graph = dynamics.transition_graph(parse_network(counter), parse_schedule("[[3,2,1,0]]", n=4))
    assert graph.cycle_lengths() == (16,)
    monkeypatch.setattr(dynamics, "_NAME_CHUNK", 4)
    pieces = list(dynamics.json_lines(graph))
    assert "\n".join(pieces) == json.dumps(dynamics.graph_json(graph), indent=2)
    members = pieces.index('    ],\n    "members": [')
    assert len(pieces[members + 1:-1]) == 4
