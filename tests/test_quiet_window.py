"""The substep kernel's early exit: the window it needs, the work it saves,
and command output pinned before it existed.

The kernel's trajectory stops once the configuration has stood still for one
longest o-block; ``step_trace`` repeats the settled configuration to its full length.
``test_substep_rule`` checks the single-configuration calls against the
oracles, which never stop early.  The pinned outputs come from the
benchmark's ``orbit`` inputs for seeds 0 and 1 (the trace networks are in
``data/``; its gadget is ``gadget counter 5``).
"""

import hashlib
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from blockpar import kernel
from blockpar.cli import EXIT_OK, EXIT_RESOURCE_CAP, main
from blockpar.dynamics import step, step_trace
from blockpar.errors import ResourceCapError
from blockpar.gadget import counter_gadget
from blockpar.network import BooleanNetwork, Not, Var, format_config, parse_network
from blockpar.schedule import DEFAULT_BLOCK_CAP, PartitionedOrder, parse_schedule

from test_substep_rule import oracle_trace

DATA = Path(__file__).parent / "data"


def test_window_of_one_longest_oblock_is_needed():
    # Substeps 0 and 1 update x0 with x1, then x0 with x2, and change
    # nothing; substep 2 updates x3 and flips it.  A window one substep
    # short would stop after substep 1.
    f = BooleanNetwork([Var(0), Var(1), Var(2), Not(Var(3))])
    mu = PartitionedOrder(4, [[0], [1, 2, 3]])
    for x in range(16):
        trace = oracle_trace(f, mu, x)
        assert trace[:3] == [x, x, x]
        assert step(f, mu, x) == x ^ 0b1000 == trace[-1]
        assert step_trace(f, mu, x) == trace


@pytest.mark.parametrize("n", [5, 6])
def test_settled_gadget_step_evaluates_few_substeps(n):
    bundle = counter_gadget(n)
    f, mu = bundle.network, bundle.schedule
    # Each substep evaluates one local per o-block: at most 200 substeps.
    # Past that the count raises, so a step that runs in full fails at once.
    budget = [200 * mu.s]

    def counted(local):
        def evaluate(x):
            budget[0] -= 1
            assert budget[0] >= 0, "the step ran past 200 substeps"
            return local(x)
        return evaluate

    f._compiled = tuple(map(counted, f.compiled()))
    assert step(f, mu, 0, cap=None) == ((1 << n) - 1) << bundle.counter.start


def test_substeps_count_past_sys_maxsize():
    mu = counter_gadget(10).schedule
    assert mu.lcm() > 2**64
    assert len(next(mu.substeps())) == mu.s


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def gadget5(tmp_path_factory):
    prefix = str(tmp_path_factory.mktemp("gadget") / "g5")
    assert main(["gadget", "counter", "5", "--out-prefix", prefix]) == EXIT_OK
    return ["--network", prefix + ".bn", "--schedule", prefix + ".schedule"]


def run(capsys, *argv):
    status = main(list(argv))
    return status, capsys.readouterr().out


G5_ZERO = "0" * 63
G5_IMAGE = "0" * 58 + "1" * 5
SEED_STARTS = {
    0: ("100000010110111111110001000101000101101001101101010101000101111",
        "1001000001101110110101110001110100010000"),
    1: ("001110110010001110011011101010101111110010011011001100001100001",
        "0000111110010110100111101001011010000111"),
}


@pytest.mark.parametrize("config, digest", [
    pytest.param(G5_ZERO, "d68238b8a06d0fb386179cf26e4a867920cef844250518abc13d5c469a21b77d",
                 id="zero"),
    pytest.param(SEED_STARTS[0][0],
                 "da068d98841c0c48e00f9835a41a40bc0b117e52dcbf3829850319493e050d27", id="seed0"),
    pytest.param(SEED_STARTS[1][0],
                 "684a8e3a0abc2a8d2bb94a5883cf3c8d2c43fe41e201fd6cf13b5e0f0580dce0", id="seed1"),
])
def test_gadget_trace_output_pinned(capsys, gadget5, config, digest):
    status, out = run(capsys, "trace", *gadget5, "--config", config)
    assert status == EXIT_OK
    assert out.count("\n") == 510_511
    assert out.endswith("\n" + G5_IMAGE + "\n")
    assert sha256(out) == digest


@pytest.mark.parametrize("seed", [0, 1])
def test_gadget_step_output_pinned(capsys, gadget5, seed):
    assert run(capsys, "step", *gadget5, "--config", SEED_STARTS[seed][0]) \
        == (EXIT_OK, G5_IMAGE + "\n")


@pytest.mark.parametrize("seed, image, digest", [
    pytest.param(0, "0000000001001101000110011000000111011011",
                 "728b5668571246e0f568b146addd18956c7727a5b781d94fbdd02e79fcab0de7", id="seed0"),
    pytest.param(1, "0000001111000110000110101000011110000011",
                 "daac72149eee1a6e7e56a266982c8d5cfa2cfa9eff6771595ee8a24c512693e7", id="seed1"),
])
def test_unsettled_trace_output_pinned(capsys, seed, image, digest):
    files = ["--network", str(DATA / f"orbit-trace-{seed}.bn"),
             "--schedule", str(DATA / f"orbit-trace-{seed}.schedule"),
             "--config", SEED_STARTS[seed][1]]
    assert run(capsys, "step", *files) == (EXIT_OK, image + "\n")
    status, out = run(capsys, "trace", *files)
    assert status == EXIT_OK
    assert out.count("\n") == 27_721
    assert sha256(out) == digest


@pytest.mark.parametrize("command, expected", [
    pytest.param(["check", "fixed-point", "--config", G5_ZERO], "false\n", id="fixed-zero"),
    pytest.param(["check", "fixed-point", "--config", G5_IMAGE], "true\n", id="fixed-image"),
    pytest.param(["check", "reach", "--config", G5_ZERO, "--target", G5_IMAGE], "true\n",
                 id="reach-image"),
    pytest.param(["check", "reach", "--config", G5_ZERO, "--target", ("10" * 32)[:63]],
                 "false\n", id="reach-unreachable"),
])
def test_gadget_checks_pinned(capsys, gadget5, command, expected):
    assert run(capsys, *command[:2], *gadget5, *command[2:]) == (EXIT_OK, expected)


def test_reach_on_a_gadget_of_billions_of_substeps(capsys, tmp_path):
    prefix = str(tmp_path / "g6")
    assert main(["gadget", "counter", "6", "--out-prefix", prefix]) == EXIT_OK
    capsys.readouterr()
    files = ["--network", prefix + ".bn", "--schedule", prefix + ".schedule",
             "--cap-substeps", "10000000000", "--config", "0" * 135]
    image, unreachable = "0" * 129 + "1" * 6, "1" + "0" * 134
    assert run(capsys, "check", "reach", *files, "--target", image) == (EXIT_OK, "true\n")
    assert run(capsys, "check", "reach", *files, "--target", unreachable) \
        == (EXIT_OK, "false\n")


def test_large_gadget_step_settles_and_cap_still_applies(capsys, tmp_path):
    prefix = str(tmp_path / "g10")
    assert main(["gadget", "counter", "10", "--out-prefix", prefix]) == EXIT_OK
    capsys.readouterr()
    files = ["--network", prefix + ".bn", "--schedule", prefix + ".schedule",
             "--config", "0" * 722]
    assert run(capsys, "step", *files, "--cap-substeps", str(10**30)) \
        == (EXIT_OK, "0" * 712 + "1" * 10 + "\n")
    assert main(["step", *files, "--cap-substeps", str(DEFAULT_BLOCK_CAP)]) \
        == EXIT_RESOURCE_CAP
    assert capsys.readouterr().err == (
        "error: one step expands to 40729680599249024150621323470 substeps,"
        " above the cap of 1000000\n"
    )
    # trace streams past sys.maxsize lines; only step_trace's list is bounded.
    source = str(Path(kernel.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "blockpar", "trace", *files, "--cap-substeps", str(10**30)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": source}) as process:
        lines = [process.stdout.readline() for _ in range(3)]
        process.stdout.close()
        try:
            status = process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            raise
        err = process.stderr.read()
    f = parse_network(Path(prefix + ".bn").read_text())
    mu = parse_schedule(Path(prefix + ".schedule").read_text())
    configs, _ = kernel.trajectory(f, mu, 0, cap=10**30)
    expected = [format_config(x, 722).encode() + b"\n" for x in [0, *islice(configs, 2)]]
    assert (status, err, lines) == (0, b"", expected)
    with pytest.raises(ResourceCapError, match="^a trace of 40729680599249024150621323471"
                       " configurations does not fit in a list$"):
        step_trace(f, mu, 0, cap=10**30)
