"""Counts on the command line are at least 1, and a schedule that leaves
out millions of automata says so in a short message."""

import tracemalloc

import pytest

from blockpar.cli import EXIT_USAGE, main
from blockpar.errors import ScheduleFormatError
from blockpar.schedule import parse_schedule


@pytest.mark.parametrize("argv, name", [
    (["count", "0"], "n_max"),
    (["count", "-2"], "n_max"),
    (["bench", "0"], "n_max"),
    (["step", "--network", "n.bn", "--schedule", "[[0]]", "--config", "0",
      "--cap-substeps", "0"], "--cap-substeps"),
    (["check", "identity", "--network", "n.bn", "--schedule", "[[0]]",
      "--cap-substeps", "-3"], "--cap-substeps"),
    (["dynamics", "--network", "n.bn", "--schedule", "[[0]]", "--cap-substeps", "x"],
     "--cap-substeps"),
])
def test_counts_below_one_are_usage_errors(argv, name, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {name}:" in captured.err


def test_cap_of_one_substep_is_accepted(tmp_path, capsys):
    network = tmp_path / "flip.bn"
    network.write_text("x0 = !x0\n")
    assert main(["step", "--network", str(network), "--schedule", "[[0]]",
                 "--config", "0", "--cap-substeps", "1"]) == 0
    assert capsys.readouterr().out == "1\n"


@pytest.mark.parametrize("text, message", [
    ("[[3000000]]", "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...] (3000000 in all)"),
    ("[[0],[12],[14]]", "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (12 in all)"),
    ("[[10]]", "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]"),
    ("[[2],[0]]", "[1]"),
])
def test_missing_automata_are_listed_up_to_ten(text, message):
    tracemalloc.start()
    try:
        with pytest.raises(ScheduleFormatError) as error:
            parse_schedule(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(error.value) == f"automata missing from schedule: {message}"
    assert len(str(error.value)) < 200
    assert peak < 50 * 2**20
