"""Each input rule is checked once, with one message, wherever it enters.

The schedule table pins the exact text and CLI exit code of every
single-fault schedule; the other tests hold the library entry points and
the command line to the same checks, made at the call, before any stream
starts.
"""

import random
import re

import pytest

from blockpar.cli import EXIT_BAD_INPUT, EXIT_USAGE, main
from blockpar.dynamics import reachable, step, step_trace
from blockpar.enumeration import class_lines, enum_class, sharded_lines
from blockpar.errors import ResourceCapError, ScheduleFormatError
from blockpar.network import identity_network, random_network
from blockpar.partitions import Partition
from blockpar.schedule import PartitionedOrder, parse_schedule, phi

import oracles

DEEP = "[" * 5000 + "]" * 5000

#: (schedule text, n given to the parser, the error's exact text)
SINGLE_FAULTS = [
    ("[[0,0],[1]]", None,
     "o-block 0, entry 1: duplicate automaton 0 (first seen in o-block 0, entry 0)"),
    ("[[0],[2]]", None, "automata missing from schedule: [1]"),
    ("[[0],[1,3]]", 3, "o-block 1, entry 1: index 3 out of range for n=3"),
    ("[[0],[]]", None, "o-block 1 is empty"),
    ('[["a"]]', None, "o-block 0, entry 0: 'a' is not an integer"),
    ("[[true]]", None, "o-block 0, entry 0: True is not an integer"),
    ("[[-1]]", None, "o-block 0, entry 0: negative index -1"),
    ("[]", None, "schedule must be a non-empty array of o-blocks"),
    ("{}", None, "schedule must be a non-empty array of o-blocks"),
    ("[0]", None, "o-block 0 is not an array"),
    ("[[0],", None, "invalid JSON: Expecting value: line 1 column 6 (char 5)"),
    (DEEP, None, "invalid JSON: arrays nested too deeply"),
]
FAULT_IDS = [text if len(text) < 20 else "deep" for text, _, _ in SINGLE_FAULTS]


@pytest.mark.parametrize("text, n, message", SINGLE_FAULTS, ids=FAULT_IDS)
def test_single_fault_schedule_message(text, n, message):
    with pytest.raises(ScheduleFormatError) as error:
        parse_schedule(text, n=n)
    assert str(error.value) == message


@pytest.mark.parametrize("text, n, message", SINGLE_FAULTS, ids=FAULT_IDS)
def test_single_fault_schedule_on_the_command_line(text, n, message, tmp_path, capsys):
    network = tmp_path / "cycle.bn"
    network.write_text("x0 = x1\nx1 = x2\nx2 = x0\n")
    schedule = tmp_path / "schedule.json"
    schedule.write_text(text)
    status = main(["step", "--network", str(network), "--schedule", str(schedule),
                   "--config", "000"])
    captured = capsys.readouterr()
    assert status == EXIT_BAD_INPUT
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("oblocks, text", [
    ([(0, 0), (1, 2)], "[[0,0],[1,2]]"),
    ([(0,), (1, 3), (2,)], "[[0],[1,3],[2]]"),
    ([(0,), (-1, 1), (2,)], "[[0],[-1,1],[2]]"),
    ([(0,), (), (1, 2)], "[[0],[],[1,2]]"),
    ([(0,), (1,)], "[[0],[1]]"),
    ([(0, 1.0), (2,)], "[[0,1.0],[2]]"),
])
def test_constructor_and_parser_share_one_validator(oblocks, text):
    with pytest.raises(ScheduleFormatError) as constructed:
        PartitionedOrder(3, oblocks)
    with pytest.raises(ScheduleFormatError) as parsed:
        parse_schedule(text, n=3)
    assert str(constructed.value) == str(parsed.value)


def test_constructor_names_the_duplicate_position():
    with pytest.raises(ScheduleFormatError, match=r"^o-block 0, entry 1: duplicate automaton 0"
                       r" \(first seen in o-block 0, entry 0\)$"):
        PartitionedOrder(3, [(0, 0), (1, 2)])


def test_every_substep_cap_has_one_message():
    mu = PartitionedOrder(5, [(0, 1), (2, 3, 4)])
    f = identity_network(5)
    expected = "one step expands to 6 substeps, above the cap of 5"
    calls = [
        lambda: phi(mu, cap=5),
        lambda: step(f, mu, 0, cap=5),
        lambda: step_trace(f, mu, 0, cap=5),
        lambda: reachable(f, mu, 0, 1, cap=5),
    ]
    for call in calls:
        with pytest.raises(ResourceCapError) as error:
            call()
        assert str(error.value) == expected


def test_no_cap_expands_in_full():
    mu = PartitionedOrder(5, [(0, 1), (2, 3, 4)])
    f = identity_network(5)
    assert len(phi(mu, cap=None)) == 6
    assert step(f, mu, 0b10110, cap=None) == 0b10110
    assert len(step_trace(f, mu, 3, cap=None)) == 7


def _random_schedule(n, rng):
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(n))) if n > 1 else []
    bounds = [0, *cuts, n]
    return PartitionedOrder(n, [order[a:b] for a, b in zip(bounds, bounds[1:])])


def _oracle_reachable(f, mu, x, y):
    seen = set()
    while x not in seen:
        if x == y:
            return True
        seen.add(x)
        x = oracles.substep_image(f, mu, x)
    return False


def test_reachable_matches_a_plain_orbit_loop():
    rng = random.Random(0x5EED)
    for n in range(1, 7):
        for _ in range(6):
            f = random_network(n, rng)
            mu = _random_schedule(n, rng)
            for _ in range(6):
                x, y = rng.randrange(1 << n), rng.randrange(1 << n)
                assert reachable(f, mu, x, y) == _oracle_reachable(f, mu, x, y)


@pytest.mark.parametrize("args, message", [
    ((0, "bp"), "n must be a positive integer, got 0"),
    ((3, "nope"), "unknown schedule class 'nope'"),
    ((4, "bp", Partition.from_parts((2, 1))), "partition 1+2 does not sum to n=4"),
])
def test_streams_check_their_arguments_at_the_call(args, message):
    for stream in (enum_class, class_lines):
        with pytest.raises(ValueError, match=re.escape(message)):
            stream(*args)
    if len(args) == 2:
        with pytest.raises(ValueError, match=re.escape(message)):
            sharded_lines(*args, 2)


def test_enum_checks_arguments_before_opening_out(tmp_path, capsys):
    out = tmp_path / "schedules.txt"
    assert main(["enum", "0", "--out", str(out)]) == EXIT_BAD_INPUT
    assert "n must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["bench", "2", "--repeats", "0"], "--repeats"),
    (["enum", "3", "--threads", "0"], "--threads"),
    (["enum", "3", "--threads", "-1"], "--threads"),
    (["enum", "3", "--threads", "-2"], "--threads"),
    (["dynamics", "--network", "n.bn", "--schedule", "[[0]]", "--threads", "0"], "--threads"),
    (["bench", "2", "--repeats", "x"], "--repeats"),
])
def test_count_options_below_their_minimum_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err


def test_bench_has_no_threads_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "2", "--threads", "0"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --threads 0" in captured.err


def test_empty_partition_text_is_refused(capsys):
    assert main(["enum", "3", "--partition", ""]) == EXIT_BAD_INPUT
    assert capsys.readouterr() == ("", "error: bad partition text ''\n")


@pytest.mark.parametrize("classes", ["", ",", " , "])
def test_bench_needs_a_class(classes, capsys):
    assert main(["bench", "3", "--classes", classes]) == EXIT_BAD_INPUT
    assert capsys.readouterr() == (
        "", f"error: --classes names no schedule class: {classes!r}\n")


@pytest.mark.parametrize("k", ["abc", "", "1.5"])
def test_limit_cycle_needs_an_integer_length(k, tmp_path, capsys):
    network = tmp_path / "net.bn"
    network.write_text("x0 = x1\nx1 = x0\n")
    argv = ["check", f"limit-cycle:{k}", "--network", str(network), "--schedule", "[[0],[1]]"]
    assert main(argv) == EXIT_BAD_INPUT
    assert capsys.readouterr() == (
        "", f"error: limit-cycle:K needs an integer cycle length K, got {k!r}\n")
