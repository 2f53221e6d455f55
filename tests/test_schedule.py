import random

import pytest

from blockpar.enumeration import enum_bp
from blockpar.errors import ResourceCapError, ScheduleFormatError
from blockpar.gadget import counter_gadget
from blockpar.schedule import (
    BlockSequence,
    PartitionedOrder,
    equiv0,
    equiv_star,
    is_bs_intersection,
    matrix_repr,
    parse_schedule,
    phi,
    serialize_schedule,
)

import oracles
from test_input_checks import _random_schedule


def PO(n, blocks):
    return PartitionedOrder(n, blocks)


class TestPhi:
    def test_mixed_oblock_lengths(self):
        assert phi(PO(3, [(1, 2), (0,)])).blocks == ((0, 1), (0, 2))

    def test_parallel_is_single_block(self):
        assert phi(PartitionedOrder.parallel(4)).blocks == ((0, 1, 2, 3),)

    def test_two_pairs(self):
        assert phi(PO(4, [(0, 1), (2, 3)])).blocks == ((0, 2), (1, 3))

    def test_block_cardinality_and_length(self):
        # Every block has one element per o-block; length is the lcm of sizes.
        for n in range(1, 6):
            for mu in enum_bp(n):
                seq = phi(mu)
                assert len(seq) == mu.lcm()
                assert all(len(block) == mu.s for block in seq.blocks)

    def test_no_two_substeps_are_equal(self):
        # Two substeps below the lcm differ modulo some o-block's length.
        for n in range(1, 7):
            for mu in enum_bp(n):
                assert len(set(mu.substeps())) == mu.lcm()

    def test_cap(self):
        mu = PO(5, [(0, 1), (2, 3, 4)])
        with pytest.raises(ResourceCapError):
            phi(mu, cap=5)
        assert len(phi(mu, cap=6)) == 6


class TestPartitionedOrder:
    def test_validation(self):
        with pytest.raises(ValueError):
            PO(3, [(0, 0), (1, 2)])
        with pytest.raises(ValueError):
            PO(3, [(0,), (1,)])
        with pytest.raises(ValueError):
            PO(3, [(0,), (1, 2), ()])
        with pytest.raises(ValueError):
            PO(2, [(0, 1, 2)])

    def test_outer_order_canonical(self):
        assert PO(3, [(1, 2), (0,)]) == PO(3, [(0,), (1, 2)])
        assert hash(PO(3, [(1, 2), (0,)])) == hash(PO(3, [(0,), (1, 2)]))

    def test_inner_order_semantic(self):
        assert PO(2, [(0, 1)]) != PO(2, [(1, 0)])

    def test_support_and_times(self):
        mu = PO(5, [(3,), (0, 2), (1, 4)])
        assert mu.support().parts == (2, 2, 1)
        assert mu.first_update_times() == (0, 0, 1, 0, 1)


class TestMatrixRepr:
    def test_three_matrices_at_n31(self):
        oblocks = [
            (0, 1), (2, 3),
            (4, 5, 6), (7, 8, 9), (10, 11, 12), (13, 14, 15),
            (16, 17, 18, 19, 20), (21, 22, 23, 24, 25), (26, 27, 28, 29, 30),
        ]
        rep = matrix_repr(PO(31, oblocks))
        assert rep.part_sizes() == (2, 3, 5)
        assert rep.matrix(2) == ((0, 1), (2, 3))
        assert len(rep.matrix(3)) == 4 and all(len(r) == 3 for r in rep.matrix(3))
        assert len(rep.matrix(5)) == 3 and all(len(r) == 5 for r in rep.matrix(5))
        assert rep.matrix(4) == ()

    def test_singletons(self):
        assert matrix_repr(PO(2, [(0,), (1,)])).matrix(1) == ((0,), (1,))

    def test_single_oblock(self):
        assert matrix_repr(PO(3, [(2, 0, 1)])).matrix(3) == ((2, 0, 1),)


class TestEquivalences:
    def test_equiv0_reflexive(self):
        mu = PO(2, [(0,), (1,)])
        assert equiv0(mu, mu)

    def test_equiv0_inner_order_matters(self):
        assert not equiv0(PO(2, [(0, 1)]), PO(2, [(1, 0)]))

    def test_equiv0_vs_star_shift(self):
        a, b = PO(3, [(0,), (1, 2)]), PO(3, [(0,), (2, 1)])
        assert not equiv0(a, b)
        assert equiv_star(a, b) == 1

    def test_star_shift_one(self):
        assert equiv_star(PO(2, [(0, 1)]), PO(2, [(1, 0)])) == 1

    def test_star_length_mismatch(self):
        assert equiv_star(PO(2, [(0,), (1,)]), PO(2, [(0, 1)])) is None

    def test_star_reflexive_shift_zero(self):
        for n in range(1, 5):
            for mu in enum_bp(n):
                assert equiv_star(mu, mu) == 0

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            equiv0(PO(1, [(0,)]), PO(2, [(0, 1)]))
        with pytest.raises(ValueError):
            equiv_star(PO(1, [(0,)]), PO(2, [(0, 1)]))

    def test_bp2_collapses_to_two_star_classes(self):
        keys = {
            oracles.rotation_key(phi(mu).blocks) for mu in enum_bp(2)
        }
        assert sum(1 for _ in enum_bp(2)) == 3
        assert len(keys) == 2

    def test_equivalence_relation_axioms_exhaustively(self):
        # On BP_n for n <= 5, compare against the phi oracle: equiv0 must
        # match plain block equality, equiv_star the smallest rotation that
        # aligns the blocks, which makes both genuine equivalences.
        for n in range(1, 6):
            mus = list(enum_bp(n))
            blocks = [phi(mu).blocks for mu in mus]
            rot_keys = [oracles.rotation_key(b) for b in blocks]
            for i, a in enumerate(mus):
                for k, b in enumerate(mus):
                    expected0 = blocks[i] == blocks[k]
                    assert equiv0(a, b) is expected0
                    shift = equiv_star(a, b)
                    if rot_keys[i] != rot_keys[k]:
                        assert shift is None
                    else:
                        assert shift == oracles.shift_between(blocks[i], blocks[k])
                    if expected0:
                        assert shift == 0

    def test_rotated_random_schedules_match_the_oracle(self):
        rng = random.Random(24)
        for _ in range(300):
            n = rng.randrange(6, 13)
            mu = _random_schedule(n, rng)
            s = rng.randrange(mu.lcm())
            mu2 = PO(n, [_rotate(block, s if rng.random() < 0.75 else rng.randrange(len(block)))
                         for block in mu.oblocks])
            blocks, blocks2 = phi(mu, cap=None).blocks, phi(mu2, cap=None).blocks
            assert equiv0(mu, mu2) is (blocks == blocks2), (mu, mu2)
            assert equiv_star(mu, mu2) == oracles.shift_between(blocks, blocks2), (mu, mu2)

    def test_counter_gadget_6_rotation(self):
        # 6,469,693,230 substeps a step: phi cannot spell it out.
        mu = counter_gadget(6).schedule
        s = 123457
        rotated = PO(mu.n, [_rotate(block, s) for block in mu.oblocks])
        assert equiv_star(mu, rotated) == s
        assert equiv_star(rotated, mu) == mu.lcm() - s
        assert not equiv0(mu, rotated)
        reversed_ = PO(mu.n, [block[::-1] for block in mu.oblocks])
        assert equiv_star(mu, reversed_) is None
        assert not equiv0(mu, reversed_)

    def test_star_shift_symmetry(self):
        mus = list(enum_bp(4))
        for i, a in enumerate(mus):
            for b in mus[i + 1:]:
                shift, back = equiv_star(a, b), equiv_star(b, a)
                if shift is None:
                    assert back is None
                else:
                    assert back is not None
                    assert (shift + back) % a.lcm() == 0


def _rotate(block, s):
    """``block`` moved ``s`` places towards its front: the element at
    position ``p`` lands at ``p - s``."""
    s %= len(block)
    return block[s:] + block[:s]


class TestBsIntersection:
    def test_examples(self):
        assert is_bs_intersection(BlockSequence(4, ((0, 1), (2, 3))))
        assert not is_bs_intersection(BlockSequence(3, ((0, 1), (2,))))
        assert not is_bs_intersection(BlockSequence(3, ((0, 1), (0, 2))))

    def test_matches_equal_length_criterion(self):
        # phi(mu) lands in the intersection exactly when all o-blocks of mu
        # have the same length.
        for n in range(1, 6):
            for mu in enum_bp(n):
                lengths = {len(block) for block in mu.oblocks}
                assert is_bs_intersection(phi(mu)) == (len(lengths) == 1)


class TestText:
    def test_parse_basic(self):
        mu = parse_schedule("[[0],[1,2]]")
        assert mu.n == 3
        assert mu.oblocks == ((0,), (1, 2))

    def test_outer_order_is_a_set(self):
        assert parse_schedule("[[1,2],[0]]") == parse_schedule("[[0],[1,2]]")

    def test_duplicate_automaton(self):
        with pytest.raises(ScheduleFormatError, match="duplicate automaton 0"):
            parse_schedule("[[0,0],[1]]")

    def test_missing_automaton(self):
        with pytest.raises(ScheduleFormatError, match="missing"):
            parse_schedule("[[0],[2]]")

    def test_index_out_of_range(self):
        with pytest.raises(ScheduleFormatError, match="out of range"):
            parse_schedule("[[0],[1,3]]", n=3)

    def test_empty_oblock(self):
        with pytest.raises(ScheduleFormatError, match="o-block 1 is empty"):
            parse_schedule("[[0],[]]")

    def test_bad_json(self):
        with pytest.raises(ScheduleFormatError, match="invalid JSON"):
            parse_schedule("[[0],")

    def test_non_integer(self):
        with pytest.raises(ScheduleFormatError, match="not an integer"):
            parse_schedule('[["a"]]')

    def test_roundtrip(self):
        for n in range(1, 5):
            for mu in enum_bp(n):
                assert parse_schedule(serialize_schedule(mu), n=n) == mu

    def test_serialize_canonical(self):
        assert serialize_schedule(parse_schedule("[[1,2],[0]]")) == "[[0],[1,2]]"


def test_equivalences_answer_past_the_substep_cap():
    # Nine distinct prime lengths: lcm 223092870, far above the default cap,
    # which the equivalences neither take nor need.
    sizes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    oblocks, start = [], 0
    for size in sizes:
        oblocks.append(tuple(range(start, start + size)))
        start += size
    mu = PO(start, oblocks)
    assert equiv_star(mu, mu) == 0
    assert equiv0(mu, mu)
    with pytest.raises(TypeError):
        equiv0(mu, mu, cap=5)
    with pytest.raises(TypeError):
        equiv_star(mu, mu, cap=None)
