"""``python -m blockpar`` freezes the objects of its import once ``main`` has
returned, so the interpreter's last collections skip them.  That is safe
because every command closes each file it opens, and flushes stdout, before
``main`` returns: no file is left for the collector to close."""

import gc
import json
import os
import random
import subprocess
import sys
import warnings

import pytest

import blockpar
from blockpar.cli import EXIT_OK, EXIT_USAGE, main
from blockpar.network import random_network, serialize_network

from test_writer import COMMANDS, files  # noqa: F401  (``files`` is a fixture)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(blockpar.__file__)))

#: Commands that write to ``--out``, with the text of a network in ``{dir}``.
OUT_FILES = [
    pytest.param(["count", "3", "--out", "{dir}/out"], id="count --out"),
    pytest.param(["enum", "3", "--out", "{dir}/out"], id="enum --out"),
    pytest.param(["dynamics", "--network", "{dir}/demo.bn", "--schedule", "[[0,1,2]]",
                  "--out", "{dir}/out"], id="dynamics --out"),
    pytest.param(["dynamics", "--network", "{dir}/demo.bn", "--schedule", "[[0,1,2]]",
                  "--format", "dot", "--out", "{dir}/out"], id="dynamics dot --out"),
]


def _leaves_no_file(argv: list[str], directory, monkeypatch) -> None:
    """Run ``argv`` with a report, ``ResourceWarning`` an error, and collect
    after it: a file closed by its finaliser reaches the unraisable hook."""
    gc.collect()
    leaks: list = []
    monkeypatch.setattr(sys, "unraisablehook", leaks.append)
    report = directory / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        status = main(["--report", str(report), *(a.format(dir=directory) for a in argv)])
        gc.collect()
    assert [leak.exc_value for leak in leaks] == []
    assert status == EXIT_OK
    assert json.loads(report.read_text())["exit_status"] == EXIT_OK


@pytest.mark.parametrize("argv, expected", COMMANDS)
def test_no_file_is_left_for_the_collector(argv, expected, files, monkeypatch, capsysbinary):
    _leaves_no_file(argv, files, monkeypatch)
    assert capsysbinary.readouterr().out == expected.format(dir=files).encode()


@pytest.mark.parametrize("argv", OUT_FILES)
def test_no_output_file_is_left_for_the_collector(argv, files, monkeypatch, capsysbinary):
    _leaves_no_file(argv, files, monkeypatch)
    assert capsysbinary.readouterr().out == b""
    assert (files / "out").stat().st_size > 0


def _launch(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "blockpar", *argv], capture_output=True,
                          env=env, timeout=60)


@pytest.mark.parametrize("form", ["json", "dot"])
def test_a_launch_writes_its_files_before_it_exits(form, tmp_path, capsysbinary):
    network = tmp_path / "seeded.bn"
    network.write_text(serialize_network(random_network(10, random.Random(0x5D))))
    schedule = "[[0,1,2],[3,4],[5],[6,7,8,9]]"
    argv = ["dynamics", "--network", str(network), "--schedule", schedule, "--format", form]
    assert main(argv) == EXIT_OK
    expected = capsysbinary.readouterr().out
    out, report = tmp_path / "out", tmp_path / "report.json"
    run = _launch("--report", str(report), *argv, "--out", str(out))
    assert (run.returncode, run.stdout, run.stderr) == (EXIT_OK, b"", b"")
    assert out.read_bytes() == expected
    assert expected.count(b"\n") > 1024
    document = json.loads(report.read_text())
    assert document["exit_status"] == EXIT_OK
    assert document["result"]["cycles"]


def test_a_usage_error_still_exits_2():
    run = _launch("check")
    assert run.returncode == EXIT_USAGE
    assert run.stdout == b""
    assert run.stderr.startswith(b"usage: blockpar check")
