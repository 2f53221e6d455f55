"""One render walk writes the network text and both kinds of compiled locals."""

import ast
import hashlib
import inspect
import pickle
import random
import sys

import pytest

from blockpar.cli import EXIT_BAD_INPUT, EXIT_OK, main
from blockpar.dynamics import _cube_planes
from blockpar.errors import NetworkSyntaxError, ScheduleFormatError
from blockpar.network import (
    PLANE,
    SCALAR,
    TEXT,
    And,
    BooleanNetwork,
    Not,
    Or,
    Var,
    and_chain,
    parse_network,
    random_network,
    serialize_network,
)
from blockpar.schedule import parse_schedule

import oracles

#: sha256 of the concatenated ``serialize_network`` text of the networks of
#: ``_seeded_networks``, taken before the three spellings became one walk.
TEXT_DIGEST = "ef6ae4822d54d7ac233e17e2bbb4cde81310b3354d312f9c59cebe587ca56f73"


def _seeded_networks():
    for seed in range(2000):
        rng = random.Random(seed)
        yield random_network(rng.randint(1, 6), rng, depth=rng.randint(0, 6))


def _tree(source: str) -> str:
    return ast.dump(ast.parse(source, mode="eval"))


def test_text_is_unchanged_on_seeded_networks():
    digest = hashlib.sha256()
    for f in _seeded_networks():
        text = serialize_network(f)
        assert parse_network(text) == f
        digest.update(text.encode())
    assert digest.hexdigest() == TEXT_DIGEST


def test_lambda_sources_parse_like_the_fully_parenthesised_oracle():
    for f in _seeded_networks():
        for expr in f.locals:
            assert _tree(expr.render(SCALAR)) == _tree(
                oracles.full_source(expr, "(x>>{}&1)", "1"))
            assert _tree(expr.render(PLANE)) == _tree(
                oracles.full_source(expr, "p[{}]", "m"))


def test_minimal_parentheses():
    expr = Or(And(Var(0), Not(Or(Var(1), Var(2)))), Not(Var(1)))
    assert expr.render(TEXT) == "x0 & !(x1 | x2) | !x1"
    assert expr.render(PLANE) == "p[0] & ((p[1] | p[2]) ^ m) | p[1] ^ m"
    assert Not(Not(Var(0))).render(SCALAR) == "(x>>0&1) ^ 1 ^ 1"


def _long_locals():
    rng = random.Random(7)
    conjunction = and_chain([Var(i % 3) for i in range(300)])
    clauses = [
        and_chain([Var(i) if rng.random() < 0.5 else Not(Var(i)) for i in range(3)])
        for _ in range(300)
    ]
    dnf = clauses[0]
    for clause in clauses[1:]:
        dnf = Or(dnf, clause)
    negations = Var(2)
    for _ in range(300):
        negations = Not(negations)
    return {"conjunction": conjunction, "dnf": dnf, "negations": negations,
            "repeated": and_chain([Var(0)] * 300),
            "long-chain": and_chain([Var(i % 3) for i in range(1500)])}


@pytest.mark.parametrize("name", ["conjunction", "dnf", "negations", "long-chain"])
def test_long_locals_compile_and_agree_with_evaluate(name):
    expr = _long_locals()[name]
    f = BooleanNetwork([expr, Var(1), Var(2)])
    planes, mask = _cube_planes(3, 0, 3)
    lanes = f.sliced()[0](planes, mask)
    for x in range(8):
        assert f.compiled()[0](x) == expr.evaluate(x)
        assert lanes >> x & 1 == expr.evaluate(x)


@pytest.mark.parametrize("name", ["conjunction", "dnf", "repeated", "long-chain"])
def test_long_locals_through_the_cli(name, tmp_path, capsys):
    expr = _long_locals()[name]
    network = tmp_path / f"{name}.bn"
    network.write_text(f"n=3\nx0 = {expr.render(TEXT)}\n")
    simulation = ["--network", str(network), "--schedule", "[[0],[1],[2]]"]
    assert main(["step", *simulation, "--config", "111"]) == EXIT_OK
    assert capsys.readouterr().out == f"{expr.evaluate(0b111)}11\n"
    assert main(["check", "identity", *simulation]) == EXIT_OK
    identity = all(expr.evaluate(x) == x & 1 for x in range(8))
    assert capsys.readouterr().out == ("true\n" if identity else "false\n")


def test_recursion_while_compiling_is_a_value_error():
    f = parse_network("x0 = " + " & ".join(["x0"] * 300) + "\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(ValueError, match="a local function is nested too deeply to compile"):
            f.compiled()
    finally:
        sys.setrecursionlimit(limit)
    assert f.compiled()[0](1) == 1


def _chain_text(terms: int) -> str:
    return "n=3\nx0 = " + " & ".join(f"x{i % 3}" for i in range(terms)) + "\n"


@pytest.mark.parametrize("terms", [3000, 10000])
def test_long_chain_compares_hashes_and_pickles(terms):
    f = parse_network(_chain_text(terms))
    g = parse_network(_chain_text(terms))
    assert f == g and hash(f) == hash(g)
    assert pickle.loads(pickle.dumps(f)) == f
    assert len(f.locals[0].operands) == terms
    assert f.locals[0].variables() == {0, 1, 2}
    assert f != parse_network(_chain_text(terms - 1))


DEEP_NETWORKS = {
    "parentheses": "x1 = 1\nx0 = " + "(" * 2000 + "x0" + ")" * 2000 + "\n",
    "chain": "x1 = 1\nx0 = " + " & ".join(["x0"] * 3000) + "\n",
}


@pytest.mark.parametrize("name", ["parentheses"])
def test_deep_network_is_a_syntax_error(name):
    with pytest.raises(NetworkSyntaxError, match="^line 2: expression nested too deeply"):
        parse_network(DEEP_NETWORKS[name])


def test_deep_schedule_is_a_format_error():
    with pytest.raises(ScheduleFormatError, match="nested too deeply"):
        parse_schedule("[" * 5000 + "]" * 5000)


def _exits_bad_input(argv, capsys):
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("name", sorted(DEEP_NETWORKS))
def test_deep_network_exits_bad_input(name, tmp_path, capsys):
    network = tmp_path / "deep.bn"
    network.write_text(DEEP_NETWORKS[name])
    argv = ["step", "--network", str(network), "--schedule", "[[0],[1]]", "--config", "01"]
    _exits_bad_input(argv, capsys)


def test_uncompilable_local_is_named(tmp_path, capsys):
    network = tmp_path / "deep.bn"
    network.write_text("n=6\nx5 = " + " & ".join(["x0"] * 3000) + "\n")
    argv = ["step", "--network", str(network), "--schedule", "[[0],[1],[2],[3],[4],[5]]",
            "--config", "000000"]
    err = _exits_bad_input(argv, capsys)
    assert "nested too deeply" in err
    assert "local function 5" in err


def test_deep_schedule_exits_bad_input(tmp_path, capsys):
    network = tmp_path / "one.bn"
    network.write_text("x0 = x0\n")
    schedule = tmp_path / "deep.schedule"
    schedule.write_text("[" * 5000 + "]" * 5000)
    argv = ["step", "--network", str(network), "--schedule", str(schedule), "--config", "1"]
    _exits_bad_input(argv, capsys)


def test_deep_subdynamics_graph_exits_bad_input(tmp_path, capsys):
    network = tmp_path / "one.bn"
    network.write_text("x0 = x0\n")
    graph = tmp_path / "g.json"
    graph.write_text('{"a": ' + "[" * 5000 + "]" * 5000 + "}")
    argv = ["check", "subdynamics", "--network", str(network), "--schedule", "[[0]]",
            "--graph", str(graph)]
    _exits_bad_input(argv, capsys)
