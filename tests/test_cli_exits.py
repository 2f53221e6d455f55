"""How commands end: a closed stdout, ``--limit`` bounds and internal errors."""

import os
import subprocess
import sys

import pytest

import blockpar
from blockpar import dynamics
from blockpar.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from blockpar.errors import CrossCheckError

SRC = os.path.dirname(os.path.dirname(os.path.abspath(blockpar.__file__)))


@pytest.mark.parametrize(
    "argv",
    [["enum", "12", "--class", "bp0"], ["enum", "8", "--class", "bp", "--threads", "2"]],
    ids=["single-process", "threads-2"],
)
def test_closed_stdout_ends_quietly(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "blockpar", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    n = int(argv[1])
    assert first.decode() == "[[" + ",".join(map(str, range(n))) + "]]\n"
    assert proc.returncode == EXIT_OK
    assert err == b""


@pytest.mark.parametrize("argv", [["enum", "12", "--class", "bp0"],
                                  ["enum", "9", "--class", "bpstar"]],
                         ids=["bp0-12", "bpstar-9"])
def test_reader_closing_after_1000_lines_ends_quietly(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "blockpar", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        lines = [proc.stdout.readline() for _ in range(1000)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert all(line.startswith(b"[[") and line.endswith(b"]]\n") for line in lines)
    assert proc.returncode == EXIT_OK
    assert err == b""


def test_limit_zero_prints_nothing(capsys):
    assert main(["enum", "5", "--limit", "0"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "count=0" in captured.err


def test_negative_limit_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enum", "5", "--limit", "-1"])
    assert exc.value.code == EXIT_USAGE
    assert "--limit" in capsys.readouterr().err


def test_unknown_gadget_kind_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gadget", "foo", "3"])
    assert exc.value.code == EXIT_USAGE
    assert "invalid choice: 'foo'" in capsys.readouterr().err


def test_cross_check_failure_is_internal_error(capsys, monkeypatch, tmp_path):
    def disagree(*args, **kwargs):
        raise CrossCheckError("bijectivity methods disagree")

    monkeypatch.setattr(dynamics, "is_bijective", disagree)
    network = tmp_path / "swap.bn"
    network.write_text("x0 = x1\nx1 = x0\n")
    status = main(["check", "bijective", "--network", str(network), "--schedule", "[[0],[1]]"])
    assert status == EXIT_INTERNAL
    assert "internal error: bijectivity methods disagree" in capsys.readouterr().err
