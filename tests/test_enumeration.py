import time
from itertools import islice

import pytest

from blockpar import enumeration
from blockpar.counting import bp0_term, bp_star_term, bp_term
from blockpar.enumeration import (
    CLASSES,
    class_count,
    enum_bp,
    enum_bp0,
    enum_bp_star,
    enum_class,
    min_column_budgets,
    sharded_lines,
)
from blockpar.counting import count_bp, count_bp0, count_bp_star
from blockpar.partitions import Partition, partitions_of
from blockpar.schedule import phi, serialize_schedule

import oracles


def test_bp2_exact_set():
    got = {mu.oblocks for mu in enum_bp(2)}
    assert got == {((0,), (1,)), ((0, 1),), ((1, 0),)}


def test_bp1():
    assert [mu.oblocks for mu in enum_bp(1)] == [((0,),)]


def test_bp_matches_bruteforce_cover_enumeration():
    for n in range(1, 6):
        ours = {mu.oblocks for mu in enum_bp(n)}
        assert ours == oracles.all_partitioned_orders(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_cardinalities_match_formulas(n):
    assert sum(1 for _ in enum_bp(n)) == count_bp(n)
    assert sum(1 for _ in enum_bp0(n)) == count_bp0(n)
    assert sum(1 for _ in enum_bp_star(n)) == count_bp_star(n)


def test_no_duplicates():
    for n in range(1, 6):
        for stream in (enum_bp, enum_bp0, enum_bp_star):
            mus = list(stream(n))
            assert len(set(mus)) == len(mus)


def test_bp0_representatives_are_pairwise_inequivalent():
    for n in range(1, 6):
        keys = [phi(mu).blocks for mu in enum_bp0(n)]
        assert len(set(keys)) == len(keys)


def test_bp0_covers_every_dynamics():
    # Every schedule's block sequence appears among the representatives.
    for n in range(1, 6):
        rep_keys = {phi(mu).blocks for mu in enum_bp0(n)}
        all_keys = {phi(mu).blocks for mu in enum_bp(n)}
        assert rep_keys == all_keys


def test_bp_star_representatives_are_pairwise_inequivalent():
    for n in range(1, 6):
        keys = [oracles.rotation_key(phi(mu).blocks) for mu in enum_bp_star(n)]
        assert len(set(keys)) == len(keys)


def test_bp_star_covers_every_shift_class():
    for n in range(1, 6):
        rep_keys = {oracles.rotation_key(phi(mu).blocks) for mu in enum_bp_star(n)}
        all_keys = {oracles.rotation_key(phi(mu).blocks) for mu in enum_bp(n)}
        assert rep_keys == all_keys


def test_bp_star_n2_representatives():
    got = {mu.oblocks for mu in enum_bp_star(2)}
    assert got == {((0,), (1,)), ((0, 1),)}


def test_representatives_are_class_members():
    for n in range(1, 6):
        population = set(enum_bp(n))
        assert set(enum_bp0(n)) <= population
        assert set(enum_bp_star(n)) <= population


def test_shift_class_sizes_equal_lcm_of_support():
    # Among dynamical-equality representatives, each shift class has exactly
    # lcm(support) members; this is what makes the quotient count an exact
    # division per partition.
    from collections import defaultdict

    for n in range(1, 7):
        groups = defaultdict(list)
        for mu in enum_bp0(n):
            groups[oracles.rotation_key(phi(mu).blocks)].append(mu)
        for members in groups.values():
            lcms = {mu.lcm() for mu in members}
            assert len(lcms) == 1
            assert len(members) == lcms.pop()
        assert len(groups) == count_bp_star(n)


def test_per_partition_subcounts_match_counting_terms():
    for n in range(1, 8):
        for p in partitions_of(n):
            assert sum(1 for _ in enum_bp(n, p)) == bp_term(p)
            assert sum(1 for _ in enum_bp0(n, p)) == bp0_term(p)
            assert sum(1 for _ in enum_bp_star(n, p)) == bp_star_term(p)


def test_min_column_budgets():
    p = Partition.from_parts((3, 2, 1))
    budgets = min_column_budgets(p)
    # Scanning 3, 2, 1: gcd(1,3)=1 then lcm 3; gcd(3,2)=1 then lcm 6; gcd(6,1)=1.
    assert budgets == {3: 1, 2: 1, 1: 1}
    p = Partition.from_parts((4, 2))
    assert min_column_budgets(p) == {4: 1, 3: 3, 2: 2, 1: 1}


def test_deterministic_order():
    first = list(enum_bp0(5))
    second = list(enum_bp0(5))
    assert first == second
    # Largest-part support comes first: the single o-block on all automata.
    assert first[0].oblocks == ((0, 1, 2, 3, 4),)


def test_partition_filter_validation():
    with pytest.raises(ValueError):
        list(enum_bp(4, Partition.from_parts((2, 1))))
    with pytest.raises(ValueError):
        list(enum_class(3, "nope"))
    with pytest.raises(ValueError):
        list(enum_bp(0))


def test_streams_are_lazy():
    started = time.perf_counter()
    first_ten = list(islice(enum_bp_star(12), 10))
    assert len(first_ten) == 10
    assert time.perf_counter() - started < 5.0


def test_class_count_matches_closed_forms(monkeypatch):
    # A batch of 7 lines cuts the streamed partitions mid-chunk.
    monkeypatch.setattr(enumeration, "_COUNT_BATCH", 7)
    closed = {"bp": count_bp, "bp0": count_bp0, "bpstar": count_bp_star}
    for n in range(1, 9):
        for kind in CLASSES:
            assert class_count(n, kind) == closed[kind](n)


def test_sharded_lines_match_sequential():
    sequential = [serialize_schedule(mu) for mu in enum_bp0(5)]
    assert list(sharded_lines(5, "bp0", 2)) == sequential


def test_class_count_validation():
    with pytest.raises(ValueError):
        class_count(3, "bogus")
