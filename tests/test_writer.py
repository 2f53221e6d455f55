"""Every command's output leaves through one writer: the bytes layer of
stdout, or the ``--out`` file, which holds the same bytes."""

import argparse
import io
import random

import pytest

from blockpar import cli
from blockpar.cli import EXIT_OK, main
from blockpar.network import random_network, serialize_network
from blockpar.schedule import serialize_schedule

from test_block_cross_check import random_schedule

NETWORKS = {
    "demo": "x0 = x1\nx1 = !x0\nx2 = x0 & x2\n",
    "identity": "x0 = x0\nx1 = x1\n",
    "constant": "x0 = 0\nx1 = 1\n",
}
SEQUENTIAL = {"demo": "[[0],[1],[2]]", "identity": "[[0],[1]]", "constant": "[[0],[1]]"}


class BytesOnlyStdout(io.TextIOBase):
    """A stdout whose text layer refuses every write; ``buffer`` keeps the
    bytes written to it."""

    def __init__(self):
        self.buffer = io.BytesIO()

    def write(self, text):
        raise AssertionError(f"text written to stdout: {text!r}")


@pytest.fixture
def files(tmp_path):
    for name, text in NETWORKS.items():
        (tmp_path / f"{name}.bn").write_text(text)
    (tmp_path / "pair.json").write_text('{"a": "b", "b": "a"}')
    (tmp_path / "loop.json").write_text('{"a": "a"}')
    return tmp_path


def check(prop, net, *extra, expected):
    argv = ["check", prop, "--network", f"{{dir}}/{net}.bn", "--schedule", SEQUENTIAL[net],
            *extra]
    return pytest.param(argv, expected, id=" ".join(["check", prop, net, *extra[:1]]))


CHECKS = [
    check("bijective", "identity", expected="true\n"),
    check("bijective", "demo", expected="false\n"),
    check("identity", "identity", expected="true\n"),
    check("identity", "demo", expected="false\n"),
    check("constant", "constant", expected="true\n01\n"),
    check("constant", "demo", expected="false\n"),
    check("fixed-point", "identity", expected="true\n"),
    check("fixed-point", "demo", expected="false\n"),
    check("fixed-point", "identity", "--config", "00", expected="true\n"),
    check("fixed-point", "demo", "--config", "000", expected="false\n"),
    check("limit-cycle:2", "identity", expected="true\n"),
    check("limit-cycle:2", "demo", expected="false\n"),
    check("reach", "demo", "--config", "000", "--target", "110", expected="true\n"),
    check("reach", "identity", "--config", "00", "--target", "11", expected="false\n"),
    check("preimage", "demo", "--target", "110", expected="true\n010\n"),
    check("preimage", "constant", "--target", "11", expected="false\n"),
    check("subdynamics", "identity", "--graph", "{dir}/loop.json", expected="true\n"),
    check("subdynamics", "demo", "--graph", "{dir}/pair.json", expected="false\n"),
]

COMMANDS = [
    pytest.param(["count", "3"], "n,bs,bp,bp0,bp_star,bs_inter_bp\n1,1,1,1,1,1\n"
                 "2,3,3,3,2,3\n3,13,13,13,6,7\n", id="count"),
    pytest.param(["enum", "2", "--class", "bpstar"], "[[0,1]]\n[[0],[1]]\n", id="enum"),
    pytest.param(["step", "--network", "{dir}/demo.bn", "--schedule", "[[0],[1,2]]",
                  "--config", "101"], "000\n", id="step"),
    pytest.param(["trace", "--network", "{dir}/demo.bn", "--schedule", "[[0],[1,2]]",
                  "--config", "101"], "101\n001\n000\n", id="trace"),
    pytest.param(["gadget", "counter", "3", "--out-prefix", "{dir}/g"],
                 "{dir}/g.bn\n{dir}/g.schedule\n", id="gadget --out-prefix"),
    *CHECKS,
]


@pytest.mark.parametrize("argv, expected", COMMANDS)
def test_commands_write_the_bytes_layer_only(argv, expected, files, monkeypatch, capsys):
    stdout = BytesOnlyStdout()
    monkeypatch.setattr(cli.sys, "stdout", stdout)
    assert main([arg.format(dir=files) for arg in argv]) == EXIT_OK
    assert capsys.readouterr().err in ("", "count=2\n")
    assert stdout.buffer.getvalue().decode() == expected.format(dir=files)


@pytest.mark.parametrize("argv, last", [
    (["dynamics", "--network", "{dir}/demo.bn", "--schedule", "[[0,1,2]]"], "}"),
    (["dynamics", "--network", "{dir}/demo.bn", "--schedule", "[[0,1,2]]", "--format", "dot"],
     "}"),
    (["gadget", "counter", "3"], "}"),
    (["bench", "2", "--repeats", "1"], "bpstar,2,2,"),
], ids=["dynamics-json", "dynamics-dot", "gadget-json", "bench"])
def test_documents_write_the_bytes_layer_only(argv, last, files, monkeypatch, capsys):
    stdout = BytesOnlyStdout()
    monkeypatch.setattr(cli.sys, "stdout", stdout)
    assert main([arg.format(dir=files) for arg in argv]) == EXIT_OK
    assert capsys.readouterr().err == ""
    text = stdout.buffer.getvalue().decode()
    assert text.endswith("\n")
    assert text.splitlines()[-1].startswith(last)


@pytest.fixture
def seeded(tmp_path):
    rng = random.Random(0x0_07)
    network, schedule = tmp_path / "seeded.bn", tmp_path / "seeded.schedule"
    network.write_text(serialize_network(random_network(9, rng)))
    schedule.write_text(serialize_schedule(random_schedule(9, rng)))
    return ["--network", str(network), "--schedule", str(schedule)]


@pytest.mark.parametrize("argv", [
    ["enum", "7", "--class", "bp0"],
    ["count", "12"],
    ["count", "12", "--format", "json"],
    ["dynamics", "--format", "dot"],
    ["dynamics", "--format", "json"],
], ids=["enum", "count-csv", "count-json", "dynamics-dot", "dynamics-json"])
def test_out_file_equals_stdout(argv, seeded, tmp_path, capsysbinary):
    if argv[0] == "dynamics":
        argv = [*argv, *seeded]
    assert main(argv) == EXIT_OK
    stdout = capsysbinary.readouterr().out
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == stdout
    assert stdout.count(b"\n") > 12


def test_a_last_piece_without_a_newline_is_written(tmp_path):
    out = tmp_path / "out"
    args = argparse.Namespace(out=str(out))
    assert cli._write(args, ["a\nb", b"\nc"]) == 2
    assert out.read_bytes() == b"a\nb\nc"
    assert cli._write(args, ["a\nb", b"\nc\n", "d"], limit=2) == 2
    assert out.read_bytes() == b"a\nb\n"
