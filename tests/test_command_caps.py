"""Every way a command ends has a documented exit code: deep enumeration
partitions and oversized gadgets exit 5, an unexpected exception exits 6,
and a serial ``enum`` never loads the process pool."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import blockpar
from blockpar import dynamics, enumeration
from blockpar.cli import EXIT_BAD_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_RESOURCE_CAP, main
from blockpar.errors import ResourceCapError
from blockpar.partitions import Partition, gadget_primes

SRC = str(Path(blockpar.__file__).resolve().parent.parent)
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
TWOS = "+".join(["2"] * 1000)


def _run(*argv):
    return subprocess.run([sys.executable, "-m", "blockpar", *argv], env=ENV,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["enum", "990", "--class", "bp0", "--limit", "1"],
    ["enum", "1200", "--class", "bpstar", "--limit", "1"],
    ["enum", "2000", "--class", "bp", "--partition", TWOS, "--limit", "1"],
], ids=["bp0-990", "bpstar-1200", "bp-1000-twos"])
def test_deep_partition_exits_on_the_cap(argv):
    result = _run(*argv)
    assert result.returncode == EXIT_RESOURCE_CAP
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line == (f"error: the {argv[3]} stream of a partition of {argv[1]} nests"
                    f" deeper than the recursion limit of {sys.getrecursionlimit()}")


def test_wide_one_row_partition_still_streams():
    result = _run("enum", "1200", "--class", "bp", "--limit", "1")
    assert result.returncode == EXIT_OK
    assert result.stdout == "[[" + ",".join(map(str, range(1200))) + "]]\n"


@pytest.mark.parametrize("kind, parts", [
    ("bp", (2,) * 1500), ("bp0", (3000,)), ("bpstar", (3000,)),
])
def test_deep_stream_raises_before_the_first_schedule(kind, parts):
    partition = Partition.from_parts(parts)
    for stream in (enumeration.class_lines, enumeration.enum_class):
        with pytest.raises(ResourceCapError, match="recursion limit"):
            next(stream(3000, kind, partition))


@pytest.mark.parametrize("cap", [3, 10, 100, 5000, dynamics.GADGET_AUTOMATA_CAP])
def test_gadget_cap_is_exact(cap, monkeypatch):
    monkeypatch.setattr(dynamics, "GADGET_AUTOMATA_CAP", cap)
    for n in range(2, 80):
        assert dynamics._gadget_fits(n) == (n + gadget_primes(n).total <= cap), n


@pytest.mark.parametrize("n", [200, 10**6])
def test_oversized_gadget_is_refused_cheaply(n):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError) as error:
            dynamics.counter_gadget(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(error.value) == f"counter gadget for n={n} has more than 1048576 automata"
    assert peak < 50 * 2**20


def test_gadget_command_below_and_above_the_cap(tmp_path, capsys):
    assert main(["gadget", "counter", "50", "--out-prefix", str(tmp_path / "g")]) == EXIT_OK
    assert (tmp_path / "g.bn").read_text().startswith("n=310074\n")
    capsys.readouterr()
    assert main(["gadget", "counter", "200"]) == EXIT_RESOURCE_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: counter gadget for n=200 has more than 1048576 automata\n"


def test_unexpected_exception_is_an_internal_error(monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(dynamics, "step", broken)
    network = tmp_path / "swap.bn"
    network.write_text("x0 = x1\nx1 = x0\n")
    report = tmp_path / "report.json"
    status = main(["--report", str(report), "step", "--network", str(network),
                   "--schedule", "[[0],[1]]", "--config", "01"])
    assert status == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"
    assert json.loads(report.read_text())["exit_status"] == EXIT_INTERNAL


@pytest.mark.parametrize("argv, message", [
    (["count", "3", "--out", "/"], "error: [Errno 21] Is a directory: '/'"),
    (["--report", "/", "count", "3"],
     "error: cannot write report: [Errno 21] Is a directory: '/'"),
], ids=["out", "report"])
def test_unwritable_output_is_bad_input(argv, message, capsys):
    assert main(argv) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.splitlines()[-1] == message


PROBE = """
import sys
from blockpar.cli import main
status = main(["enum", "6"])
print(status, "multiprocessing" in sys.modules, file=sys.stderr)
"""


def test_serial_enum_loads_no_pool():
    result = subprocess.run([sys.executable, "-c", PROBE], env=ENV,
                            capture_output=True, text=True, check=True)
    assert result.stdout.count("\n") == 4051
    assert result.stderr.splitlines() == ["count=4051", "0 False"]


def test_pool_module_stays_patchable():
    import multiprocessing

    assert enumeration.multiprocessing is multiprocessing
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        enumeration.nope  # noqa: B018
