"""Every way a command ends has a documented exit code: deep enumeration
partitions, oversized gadgets and oversized count tables exit 5, an unexpected exception exits 6,
and a serial ``enum`` never loads the process pool."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import blockpar
from blockpar import cli, counting, enumeration, gadget, kernel
from blockpar.cli import EXIT_BAD_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_RESOURCE_CAP, main
from blockpar.errors import ResourceCapError
from blockpar.gadget import counter_gadget, gadget_primes, prime_count_for, sieve_primes_below
from blockpar.partitions import Partition

SRC = str(Path(blockpar.__file__).resolve().parent.parent)
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
TWOS = "+".join(["2"] * 1000)


def _run(*argv):
    return subprocess.run([sys.executable, "-m", "blockpar", *argv], env=ENV,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["enum", "2000", "--class", "bp0", "--partition", "1000+1000", "--limit", "1"],
    ["enum", "3000", "--class", "bpstar", "--partition", "1500+1500", "--limit", "1"],
    ["enum", "2000", "--class", "bp", "--partition", TWOS, "--limit", "1"],
], ids=["bp0-1000+1000", "bpstar-1500+1500", "bp-1000-twos"])
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


@pytest.mark.parametrize("argv", [
    ["enum", "990", "--class", "bp0", "--limit", "1"],
    ["enum", "1200", "--class", "bpstar", "--limit", "1"],
], ids=["bp0-990", "bpstar-1200"])
def test_one_row_partition_streams(argv):
    # The first partition, (n,), is one row: its fillings are permutations,
    # which nest no generator per column.
    result = _run(*argv)
    assert result.returncode == EXIT_OK
    assert result.stdout == "[[" + ",".join(map(str, range(int(argv[1])))) + "]]\n"


@pytest.mark.parametrize("kind, parts", [
    ("bp", (2,) * 1500), ("bp0", (1500, 1500)), ("bpstar", (1500, 1500)),
])
def test_deep_stream_raises_before_the_first_schedule(kind, parts):
    partition = Partition.from_parts(parts)
    for stream in (enumeration.class_lines, enumeration.enum_class):
        with pytest.raises(ResourceCapError, match="recursion limit"):
            next(stream(3000, kind, partition))


@pytest.mark.parametrize("kind", ["bp", "bp0", "bpstar"])
def test_one_row_stream_yields_its_first_schedule(kind):
    partition = Partition.from_parts((3000,))
    first = tuple(range(3000))
    assert next(enumeration.class_lines(3000, kind, partition)) \
        == "[[" + ",".join(map(str, first)) + "]]"
    assert next(enumeration.enum_class(3000, kind, partition)).oblocks == (first,)


@pytest.mark.parametrize("cap", [3, 10, 100, 5000, gadget.GADGET_AUTOMATA_CAP])
def test_gadget_cap_is_exact(cap, monkeypatch):
    monkeypatch.setattr(gadget, "GADGET_AUTOMATA_CAP", cap)
    for n in range(2, 80):
        primes = tuple(sieve_primes_below(n * n)[:prime_count_for(n)])
        if n + sum(primes) > cap:
            for build in (gadget_primes, counter_gadget):
                with pytest.raises(ResourceCapError,
                                   match=f"^counter gadget for n={n} has more than {cap} "):
                    build(n)
            continue
        assert gadget_primes(n).primes == primes, n
        # Only small gadgets are built: every one up to n = 68 takes about 20 s.
        if n + sum(primes) <= 5000:
            assert counter_gadget(n).basis.primes == primes, n


@pytest.mark.parametrize("build, n", [
    (counter_gadget, 200), (counter_gadget, 10**6), (gadget_primes, 2000),
], ids=["200", "1000000", "gadget_primes-2000"])
def test_oversized_gadget_is_refused_cheaply(build, n):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError) as error:
            build(n)
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


def test_count_cap(monkeypatch, capsys):
    assert counting.COUNT_N_CAP >= 60
    assert main(["count", str(counting.COUNT_N_CAP + 1)]) == EXIT_RESOURCE_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: count table up to n={counting.COUNT_N_CAP + 1}"
                            f" is above the cap of n={counting.COUNT_N_CAP}\n")
    monkeypatch.setattr(counting, "COUNT_N_CAP", 4)
    assert main(["count", "4"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "4,75,73,67,24,31"
    assert main(["count", "5"]) == EXIT_RESOURCE_CAP
    assert capsys.readouterr().out == ""


def test_bench_refuses_a_drain_above_the_cap(monkeypatch, capsys):
    drains = []
    monkeypatch.setattr(enumeration, "class_count",
                        lambda n, kind: drains.append(kind) or 0)
    # bench 3 drains 17 bp, 17 bp0 and 9 bpstar schedules per repeat.
    monkeypatch.setattr(cli, "BENCH_DRAIN_CAP", 86)
    assert main(["bench", "3", "--repeats", "2"]) == EXIT_OK
    assert len(drains) == 18
    capsys.readouterr()
    monkeypatch.setattr(cli, "BENCH_DRAIN_CAP", 85)
    assert main(["bench", "3", "--repeats", "2"]) == EXIT_RESOURCE_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bench up to n=3 drains 86 schedules, above the cap of 85\n"
    assert main(["bench", "3", "--classes", "bpstar", "--repeats", "9"]) == EXIT_OK
    assert main(["bench", "3", "--classes", "bpstar", "--repeats", "10"]) \
        == EXIT_RESOURCE_CAP
    assert len(drains) == 18 + 27


@pytest.mark.parametrize("argv", [["bench", "10"], ["bench", "1000", "--classes", "bpstar"]])
def test_bench_above_the_default_caps_exits_before_draining(argv):
    result = _run(*argv)
    assert result.returncode == EXIT_RESOURCE_CAP
    assert result.stdout == ""
    assert "above the cap" in result.stderr


def test_unexpected_exception_is_an_internal_error(monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(kernel, "step", broken)
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


@pytest.mark.parametrize("argv, opened", [
    (["enum", "3", "--out", "{missing}/x"], "{missing}/x"),
    (["gadget", "counter", "3", "--out-prefix", "{missing}/g"], "{missing}/g.bn"),
], ids=["enum-out", "gadget-out-prefix"])
def test_output_in_a_missing_directory_is_bad_input(argv, opened, tmp_path, capsys):
    # Exit 3 is for a missing input; an output that cannot be opened is exit 4.
    missing = tmp_path / "missing"
    assert main([arg.format(missing=missing) for arg in argv]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: [Errno 2] No such file or directory:"
                            f" '{opened.format(missing=missing)}'\n")


def test_gadget_leaves_no_lone_network_file(tmp_path, monkeypatch, capsys):
    # Both files are opened before either is written: when the second cannot
    # be opened, the first is removed again.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pp.schedule").mkdir()
    assert main(["gadget", "counter", "3", "--out-prefix", "pp"]) == EXIT_BAD_INPUT
    assert capsys.readouterr() == ("", "error: [Errno 21] Is a directory: 'pp.schedule'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pp.schedule"]


PROBE = """
import sys
from blockpar.cli import main
status = main(sys.argv[1:])
print(status, "multiprocessing" in sys.modules, file=sys.stderr)
"""


def _enum_6_loads_no_pool(*options):
    result = subprocess.run([sys.executable, "-c", PROBE, "enum", "6", *options], env=ENV,
                            capture_output=True, text=True, check=True)
    assert result.stdout.count("\n") == 4051
    assert result.stderr.splitlines() == ["count=4051", "0 False"]


def test_serial_enum_loads_no_pool():
    _enum_6_loads_no_pool()


def test_enum_threads_2_loads_no_pool():
    # --threads is parsed and ignored: the stream stays in this process.
    _enum_6_loads_no_pool("--threads", "2")
