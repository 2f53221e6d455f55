import hashlib
import io
import json
from itertools import islice

import pytest

from blockpar import cli, dynamics
from blockpar.cli import (
    EXIT_BAD_INPUT, EXIT_MISSING_FILE, EXIT_OK, EXIT_RESOURCE_CAP, WRITE_CHUNK, main,
)
from blockpar.counting import count_bp
from blockpar.enumeration import class_lines
from blockpar.network import format_config, parse_network
from blockpar.schedule import parse_schedule

DEMO_NET = "x0 = x1\nx1 = !x0\nx2 = x0 & x2\n"


@pytest.fixture
def demo_network(tmp_path):
    path = tmp_path / "demo.bn"
    path.write_text(DEMO_NET)
    return str(path)


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestCount:
    def test_csv_rows(self, capsys):
        status, out, _ = run(capsys, "count", "7")
        assert status == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,bs,bp,bp0,bp_star,bs_inter_bp"
        assert lines[1] == "1,1,1,1,1,1"
        assert lines[7] == "7,47293,37633,33573,5565,5041"

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run(capsys, "count", "6")
        _, second, _ = run(capsys, "count", "6")
        assert first == second

    def test_json_format(self, capsys):
        status, out, _ = run(capsys, "count", "3", "--format", "json")
        assert status == EXIT_OK
        rows = json.loads(out)
        assert rows[2] == {"n": 3, "bs": 13, "bp": 13, "bp0": 13, "bp_star": 6, "bs_inter_bp": 7}


class TestEnum:
    def test_bpstar_two_lines(self, capsys):
        status, out, err = run(capsys, "enum", "2", "--class", "bpstar")
        assert status == EXIT_OK
        assert out.splitlines() == ["[[0,1]]", "[[0],[1]]"]
        assert "count=2" in err

    def test_limit(self, capsys):
        status, out, err = run(capsys, "enum", "4", "--class", "bp", "--limit", "5")
        assert status == EXIT_OK
        assert len(out.splitlines()) == 5
        assert "count=5" in err

    def test_lines_parse_back(self, capsys):
        _, out, _ = run(capsys, "enum", "3", "--class", "bp0")
        schedules = [parse_schedule(line, n=3) for line in out.splitlines()]
        assert len(set(schedules)) == 13

    def test_partition_filter(self, capsys):
        status, out, _ = run(capsys, "enum", "4", "--class", "bp0", "--partition", "2+2")
        assert status == EXIT_OK
        assert len(out.splitlines()) == 6

    def test_partition_mismatch(self, capsys):
        status, _, err = run(capsys, "enum", "4", "--partition", "2+1")
        assert status == EXIT_BAD_INPUT
        assert "sum" in err

    def test_threads_same_output(self, capsys):
        _, sequential, _ = run(capsys, "enum", "5", "--class", "bpstar")
        _, sharded, _ = run(capsys, "enum", "5", "--class", "bpstar", "--threads", "2")
        assert sequential == sharded

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "enum.txt"
        status, out, err = run(capsys, "enum", "2", "--out", str(target))
        assert status == EXIT_OK
        assert out == ""
        assert len(target.read_text().splitlines()) == 3


class TestSimulation:
    def test_step(self, capsys, demo_network):
        status, out, _ = run(
            capsys, "step", "--network", demo_network,
            "--schedule", "[[0],[1,2]]", "--config", "111",
        )
        assert status == EXIT_OK
        assert out.strip() == "001"

    def test_trace(self, capsys, demo_network):
        status, out, _ = run(
            capsys, "trace", "--network", demo_network,
            "--schedule", "[[0],[1,2]]", "--config", "111",
        )
        assert status == EXIT_OK
        assert out.splitlines() == ["111", "101", "001"]

    def test_schedule_from_file(self, capsys, demo_network, tmp_path):
        sched = tmp_path / "mu.json"
        sched.write_text("[[0],[1,2]]\n")
        status, out, _ = run(
            capsys, "step", "--network", demo_network,
            "--schedule", str(sched), "--config", "111",
        )
        assert status == EXIT_OK
        assert out.strip() == "001"

    def test_dynamics_dot(self, capsys, demo_network):
        status, out, _ = run(
            capsys, "dynamics", "--network", demo_network,
            "--schedule", "[[0],[1,2]]", "--format", "dot",
        )
        assert status == EXIT_OK
        assert out.startswith("digraph dynamics {")
        assert out.count("->") == 8

    def test_dynamics_json(self, capsys, demo_network):
        status, out, _ = run(
            capsys, "dynamics", "--network", demo_network,
            "--schedule", "[[0],[1,2]]",
        )
        payload = json.loads(out)
        assert payload["n"] == 3
        assert len(payload["edges"]) == 8
        assert "lengths" in payload["cycles"]


class TestCheck:
    def test_bijective_false_is_exit_zero(self, capsys, tmp_path):
        net = tmp_path / "const.bn"
        net.write_text("x0 = 0\nx1 = 0\n")
        status, out, _ = run(
            capsys, "check", "bijective", "--network", str(net),
            "--schedule", "[[0],[1]]",
        )
        assert status == EXIT_OK
        assert out.strip() == "false"

    def test_identity_true(self, capsys, tmp_path):
        net = tmp_path / "dneg.bn"
        net.write_text("n=3\nx0 = !x0\n")
        status, out, _ = run(
            capsys, "check", "identity", "--network", str(net),
            "--schedule", "[[0],[1,2]]",
        )
        assert status == EXIT_OK
        assert out.strip() == "true"

    def test_constant_prints_image(self, capsys, tmp_path):
        net = tmp_path / "zero.bn"
        net.write_text("x0 = 0\nx1 = 0\n")
        status, out, _ = run(
            capsys, "check", "constant", "--network", str(net),
            "--schedule", "[[0],[1]]",
        )
        assert status == EXIT_OK
        assert out.splitlines() == ["true", "00"]

    def test_fixed_point_with_config(self, capsys, demo_network):
        status, out, _ = run(
            capsys, "check", "fixed-point", "--network", demo_network,
            "--schedule", "[[0],[1,2]]", "--config", "111",
        )
        assert status == EXIT_OK
        assert out.strip() == "false"

    def test_limit_cycle_k(self, capsys, tmp_path):
        net = tmp_path / "neg.bn"
        net.write_text("n=1\nx0 = !x0\n")
        status, out, _ = run(
            capsys, "check", "limit-cycle:2", "--network", str(net),
            "--schedule", "[[0]]",
        )
        assert out.strip() == "true"
        status, out, _ = run(
            capsys, "check", "limit-cycle:1", "--network", str(net),
            "--schedule", "[[0]]",
        )
        assert out.strip() == "false"

    def test_reach(self, capsys, tmp_path):
        net = tmp_path / "neg.bn"
        net.write_text("n=1\nx0 = !x0\n")
        status, out, _ = run(
            capsys, "check", "reach", "--network", str(net),
            "--schedule", "[[0]]", "--config", "0", "--target", "1",
        )
        assert out.strip() == "true"

    def test_preimage(self, capsys, tmp_path):
        net = tmp_path / "zero.bn"
        net.write_text("x0 = 0\nx1 = 0\n")
        status, out, _ = run(
            capsys, "check", "preimage", "--network", str(net),
            "--schedule", "[[0],[1]]", "--target", "10",
        )
        assert out.strip() == "false"

    def test_subdynamics(self, capsys, tmp_path):
        net = tmp_path / "swap.bn"
        net.write_text("x0 = x1\nx1 = x0\n")
        graph = tmp_path / "g.json"
        graph.write_text('{"a": "b", "b": "a"}')
        status, out, _ = run(
            capsys, "check", "subdynamics", "--network", str(net),
            "--schedule", "[[0],[1]]", "--graph", str(graph),
        )
        assert status == EXIT_OK
        assert out.strip() == "true"

    def test_unknown_property(self, capsys, demo_network):
        status, _, err = run(
            capsys, "check", "sorcery", "--network", demo_network,
            "--schedule", "[[0],[1,2]]",
        )
        assert status == EXIT_BAD_INPUT
        assert "unknown property" in err


class TestGadget:
    def test_writes_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "g3")
        status, out, _ = run(capsys, "gadget", "counter", "3", "--out-prefix", prefix)
        assert status == EXIT_OK
        network = parse_network((tmp_path / "g3.bn").read_text())
        schedule = parse_schedule((tmp_path / "g3.schedule").read_text(), n=20)
        assert network.n == 20
        assert schedule.lcm() == 210

    def test_stdout_json(self, capsys):
        status, out, _ = run(capsys, "gadget", "counter", "2")
        payload = json.loads(out)
        assert payload["automata"] == 7
        assert payload["primes"] == [2, 3]
        assert payload["substeps"] == 6


class TestErrorsAndReport:
    def test_missing_network(self, capsys):
        status, _, err = run(
            capsys, "step", "--network", "/definitely/not/here.bn",
            "--schedule", "[[0]]", "--config", "0",
        )
        assert status == EXIT_MISSING_FILE
        assert "file not found" in err

    def test_bad_schedule(self, capsys, demo_network):
        status, _, err = run(
            capsys, "step", "--network", demo_network,
            "--schedule", "[[0,0],[1,2]]", "--config", "111",
        )
        assert status == EXIT_BAD_INPUT
        assert "duplicate automaton" in err

    def test_resource_cap_exit(self, capsys, tmp_path):
        prefix = str(tmp_path / "g8")
        run(capsys, "gadget", "counter", "8", "--out-prefix", prefix)
        status, _, err = run(
            capsys, "step", "--network", prefix + ".bn",
            "--schedule", prefix + ".schedule",
            "--config", "0" * parse_network((tmp_path / "g8.bn").read_text()).n,
        )
        assert status == EXIT_RESOURCE_CAP
        assert "substeps" in err

    def test_report_written(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        status, _, _ = run(capsys, "--report", str(report), "count", "3")
        assert status == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["command"] == "count"
        assert payload["exit_status"] == 0
        assert payload["parameters"]["n_max"] == 3
        assert payload["result"] == {"rows": 3}
        assert payload["duration_s"] >= 0

    def test_report_written_on_failure(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        status, _, _ = run(
            capsys, "--report", str(report), "step",
            "--network", "/missing.bn", "--schedule", "[[0]]", "--config", "0",
        )
        assert status == EXIT_MISSING_FILE
        payload = json.loads(report.read_text())
        assert payload["exit_status"] == EXIT_MISSING_FILE

    def test_report_stable_modulo_duration(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        run(capsys, "--report", str(first), "count", "4")
        run(capsys, "--report", str(second), "count", "4")
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        a.pop("duration_s")
        b.pop("duration_s")
        assert a == b


class TestBench:
    def test_small_bench(self, capsys):
        status, out, _ = run(
            capsys, "bench", "3", "--classes", "bpstar", "--repeats", "1",
        )
        assert status == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "class,n,count,median_s,reference_s,ratio"
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert counts == [1, 2, 6]


class CountingBuffer(io.BytesIO):
    """The bytes layer of a :class:`CountingStream`, counting into it."""

    def __init__(self, stream):
        super().__init__()
        self.stream = stream

    def write(self, data):
        self.stream.writes += 1
        return super().write(data)


class CountingStream(io.StringIO):
    """An in-memory stdout that counts ``write`` calls, text or bytes."""

    def __init__(self):
        super().__init__()
        self.writes = 0
        self.buffer = CountingBuffer(self)

    def write(self, text):
        self.writes += 1
        return super().write(text)

    def getvalue(self):
        return super().getvalue() + self.buffer.getvalue().decode()


def chunks(pieces: int) -> int:
    return -(-pieces // WRITE_CHUNK)


def counting_stdout(monkeypatch) -> CountingStream:
    # Patched in the test body: output capture resets sys.stdout after
    # fixture set-up.
    stream = CountingStream()
    monkeypatch.setattr(cli.sys, "stdout", stream)
    return stream


class TestChunkedWrites:
    def test_enum_bp_8(self, monkeypatch, capsys):
        stdout = counting_stdout(monkeypatch)
        assert main(["enum", "8", "--class", "bp"]) == EXIT_OK
        lines = count_bp(8)
        assert stdout.writes <= chunks(lines) + 1
        expected = hashlib.sha256()
        for line in class_lines(8, "bp"):
            expected.update(line.encode() + b"\n")
        assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == expected.hexdigest()
        assert capsys.readouterr().err == f"count={lines}\n"

    @pytest.mark.parametrize("limit", [WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1])
    def test_limit_at_chunk_edges(self, monkeypatch, capsys, limit):
        # Past 100 automata the text comes one chunk per line, so the writes
        # fall on the chunk edges; smaller n comes a block at a time.
        stdout = counting_stdout(monkeypatch)
        assert main(["enum", "101", "--class", "bp", "--limit", str(limit)]) == EXIT_OK
        assert stdout.getvalue().splitlines() == list(islice(class_lines(101, "bp"), limit))
        assert stdout.getvalue().endswith("\n")
        assert stdout.writes == chunks(limit)
        assert capsys.readouterr().err == f"count={limit}\n"

    def test_trace(self, monkeypatch, tmp_path):
        # O-blocks of lengths 5, 7, 8 and 9: 2,520 substeps, one line each.
        stdout = counting_stdout(monkeypatch)
        network = tmp_path / "flip.bn"
        network.write_text("n=29\nx0 = !x0\nx12 = x0 ^ x12\n")
        blocks = [list(range(0, 5)), list(range(5, 12)), list(range(12, 20)),
                  list(range(20, 29))]
        schedule = json.dumps(blocks)
        f = parse_network(network.read_text())
        trace = dynamics.step_trace(f, parse_schedule(schedule, n=29), 0)
        argv = ["trace", "--network", str(network), "--schedule", schedule,
                "--config", "0" * 29]
        assert main(argv) == EXIT_OK
        assert len(trace) == 2521
        assert stdout.getvalue() == "".join(format_config(x, 29) + "\n" for x in trace)
        assert stdout.writes <= chunks(len(trace)) + 1

    @pytest.fixture
    def counter(self, tmp_path):
        # An 11-bit counter: 2,048 configurations, one arc each.
        lines = ["x0 = !x0"]
        lines += [f"x{i} = x{i} ^ ({' & '.join(f'x{k}' for k in range(i))})"
                  for i in range(1, 11)]
        network = tmp_path / "counter.bn"
        network.write_text("\n".join(lines) + "\n")
        schedule = "[[" + ",".join(map(str, range(10, -1, -1))) + "]]"
        graph = dynamics.transition_graph(parse_network(network.read_text()),
                                          parse_schedule(schedule, n=11))
        return ["--network", str(network), "--schedule", schedule], graph

    def test_dynamics_json(self, monkeypatch, counter):
        stdout = counting_stdout(monkeypatch)
        argv, graph = counter
        assert main(["dynamics", *argv, "--format", "json"]) == EXIT_OK
        document = dynamics.graph_json(graph)
        assert stdout.getvalue() == json.dumps(document, indent=2) + "\n"
        pieces = len(list(json.JSONEncoder(indent=2).iterencode(document))) + 1
        assert pieces > 2 * WRITE_CHUNK
        assert stdout.writes <= chunks(pieces) + 1

    def test_dynamics_dot(self, monkeypatch, counter):
        stdout = counting_stdout(monkeypatch)
        argv, graph = counter
        assert main(["dynamics", *argv, "--format", "dot"]) == EXIT_OK
        assert stdout.getvalue() == dynamics.to_dot(graph)
        assert stdout.writes <= chunks(2048 + 2) + 1

    def test_count_table(self, monkeypatch):
        stdout = counting_stdout(monkeypatch)
        assert main(["count", "24"]) == EXIT_OK
        assert stdout.getvalue().count("\n") == 25
        assert stdout.writes == 1
