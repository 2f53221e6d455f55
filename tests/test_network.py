import random

import pytest

from blockpar.errors import NetworkSyntaxError
from blockpar.network import (
    And,
    BooleanNetwork,
    Const,
    Not,
    Or,
    Var,
    Xor,
    and_chain,
    eval_local,
    format_config,
    identity_network,
    parse_config,
    parse_network,
    random_network,
    serialize_network,
    update_block,
)

DEMO_NET = "x0 = x1\nx1 = !x0\nx2 = x0 & x2\n"


class TestParse:
    def test_basic(self):
        f = parse_network(DEMO_NET)
        assert f.n == 3
        assert f.locals[0] == Var(1)
        assert f.locals[1] == Not(Var(0))
        assert f.locals[2] == And(Var(0), Var(2))

    def test_identity_default_with_header(self):
        f = parse_network("n=3\nx0 = x0 | x1\nx1 = x0\n")
        assert f.n == 3
        assert f.locals[2] == Var(2)

    def test_size_inferred_from_rhs(self):
        f = parse_network("x0 = x4\n")
        assert f.n == 5

    def test_syntax_error_at_end_of_line(self):
        with pytest.raises(NetworkSyntaxError, match=r"line 1, column 10: expected expression"):
            parse_network("x0 = x0 &")

    def test_error_positions(self):
        with pytest.raises(NetworkSyntaxError, match=r"line 2"):
            parse_network("x0 = 1\nx1 = )\n")

    def test_duplicate_assignment(self):
        with pytest.raises(NetworkSyntaxError, match="duplicate assignment to x0"):
            parse_network("x0 = 1\nx0 = 0\n")

    def test_out_of_declared_range(self):
        with pytest.raises(NetworkSyntaxError, match="out of range"):
            parse_network("n=2\nx0 = x5\n")
        with pytest.raises(NetworkSyntaxError, match="out of range"):
            parse_network("n=2\nx3 = 1\n")

    def test_header_after_assignment(self):
        with pytest.raises(NetworkSyntaxError, match="before assignments"):
            parse_network("x0 = 1\nn=2\n")

    def test_comments_and_blanks(self):
        f = parse_network("# a comment\n\nx0 = x1  # trailing\nx1 = x0\n")
        assert f.n == 2

    def test_empty_input(self):
        with pytest.raises(NetworkSyntaxError):
            parse_network("# nothing\n")

    def test_header_only(self):
        f = parse_network("n=2\n")
        assert f == identity_network(2)

    def test_precedence(self):
        f = parse_network("x0 = x0 | x1 & x2 ^ 1\n")
        # '&' binds tighter than '^' binds tighter than '|'
        assert f.locals[0] == Or(Var(0), Xor(And(Var(1), Var(2)), Const(1)))

    def test_parentheses_and_not(self):
        f = parse_network("x0 = !(x0 | x1) & !!x1\n")
        assert f.locals[0] == And(Not(Or(Var(0), Var(1))), Not(Not(Var(1))))

    def test_unexpected_character(self):
        with pytest.raises(NetworkSyntaxError, match="unexpected character"):
            parse_network("x0 = x1 + x2\n")


class TestEval:
    def test_examples(self):
        f = parse_network(DEMO_NET)
        x = parse_config("111")
        assert eval_local(f, 1, x) == 0
        assert eval_local(f, 0, x) == 1
        zero = parse_network("n=1\nx0 = 0\n")
        assert all(eval_local(zero, 0, x) == 0 for x in (0, 1))

    def test_index_out_of_range(self):
        f = parse_network(DEMO_NET)
        with pytest.raises(IndexError):
            eval_local(f, 3, 0)

    def test_compiled_matches_tree_walk(self):
        rng = random.Random(0xB10C)
        for _ in range(25):
            f = random_network(4, rng)
            compiled = f.compiled()
            for x in range(16):
                for i in range(4):
                    assert compiled[i](x) == f.locals[i].evaluate(x)

    def test_evaluation_total(self):
        rng = random.Random(3)
        f = random_network(3, rng)
        for x in range(8):
            for i in range(3):
                assert eval_local(f, i, x) in (0, 1)


class TestUpdateBlock:
    def test_first_substep_of_demo(self):
        f = parse_network(DEMO_NET)
        x = parse_config("111")
        assert format_config(update_block(f, (0, 1), x), 3) == "101"

    def test_second_substep_of_demo(self):
        f = parse_network(DEMO_NET)
        assert format_config(update_block(f, (0, 2), parse_config("101")), 3) == "001"

    def test_full_block_is_parallel_image(self):
        f = parse_network(DEMO_NET)
        for x in range(8):
            image = update_block(f, range(3), x)
            expected = sum(eval_local(f, i, x) << i for i in range(3))
            assert image == expected

    def test_agrees_outside_block(self):
        rng = random.Random(17)
        for _ in range(20):
            f = random_network(5, rng)
            x = rng.randrange(32)
            block = [0, 3]
            image = update_block(f, block, x)
            for i in (1, 2, 4):
                assert (image >> i) & 1 == (x >> i) & 1

    def test_order_independent(self):
        f = parse_network(DEMO_NET)
        for x in range(8):
            assert update_block(f, (0, 1), x) == update_block(f, (1, 0), x)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            update_block(parse_network(DEMO_NET), (), 0)


class TestConfigText:
    def test_leftmost_is_automaton_zero(self):
        x = parse_config("110")
        assert (x >> 0) & 1 == 1
        assert (x >> 1) & 1 == 1
        assert (x >> 2) & 1 == 0

    def test_roundtrip(self):
        for x in range(16):
            assert parse_config(format_config(x, 4)) == x

    def test_validation(self):
        with pytest.raises(ValueError):
            parse_config("10a")
        with pytest.raises(ValueError):
            parse_config("10", n=3)
        with pytest.raises(ValueError):
            parse_config("")


class TestSerialize:
    def test_roundtrip_identity(self):
        rng = random.Random(0xFEED)
        nets = [parse_network(DEMO_NET), identity_network(4)]
        nets += [random_network(3, rng) for _ in range(20)]
        for f in nets:
            assert parse_network(serialize_network(f)) == f

    def test_minimal_parentheses(self):
        f = parse_network("x0 = (x0 | x1) & x2\nx1 = x0 ^ (x1 ^ x2)\nx2 = !x0 & x1\n")
        text = serialize_network(f)
        assert "x0 = (x0 | x1) & x2" in text
        assert "x1 = x0 ^ (x1 ^ x2)" in text
        assert "x2 = !x0 & x1" in text


def test_and_chain():
    assert and_chain([]) == Const(1)
    assert and_chain([Var(0)]) == Var(0)
    assert and_chain([Var(0), Var(1), Var(2)]) == And(And(Var(0), Var(1)), Var(2))


def test_chain_absorbs_only_a_first_operand_of_its_own_kind():
    a, b, c = Var(0), Var(1), Var(2)
    assert And(And(a, b), c) == And(a, b, c)
    assert And(And(a, b), c).operands == (a, b, c)
    assert And(a, And(b, c)) != And(a, b, c)
    assert And(Or(a, b), c).operands == (Or(a, b), c)
    assert Xor(a, b) != Or(a, b)
    assert parse_network("x0 = (x0 & x1) & x2\n") == parse_network("x0 = x0 & x1 & x2\n")
    assert parse_network("x0 = x0 & (x1 & x2)\n").locals[0] == And(a, And(b, c))


def test_network_validation():
    with pytest.raises(ValueError):
        BooleanNetwork([Var(1)])
    with pytest.raises(ValueError):
        BooleanNetwork([])


def test_random_network_deterministic():
    a = random_network(4, random.Random(99))
    b = random_network(4, random.Random(99))
    assert a == b


def test_variables_bound_what_the_scalar_lambda_reads():
    """Flipping a bit outside ``variables()`` never changes the compiled
    scalar lambda.  The per-block bijectivity check splits blocks and bounds
    supports by ``variables()``."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from test_sliced import expressions

    @hypothesis.given(st.data())
    @hypothesis.settings(max_examples=200, deadline=None)
    def check(data):
        n = data.draw(st.integers(1, 6), label="n")
        expr = data.draw(expressions(n), label="expr")
        local = BooleanNetwork([expr] * n).compiled()[0]
        outside = [i for i in range(n) if i not in expr.variables()]
        for x in range(1 << n):
            assert all(local(x ^ 1 << i) == local(x) for i in outside)

    check()
