import pytest

from blockpar import counting
from blockpar.counting import (
    bp0_term,
    bp0_term_columns,
    bp0_term_matrices,
    bp_star_term,
    bp_term,
    bp_term_product,
    bs_term,
    count_bp,
    count_bp0,
    count_bp0_via_egf,
    count_bp_star,
    count_bs,
    count_bs_inter_bp,
    count_table,
    egf_coefficients,
)
from blockpar.errors import CrossCheckError
from blockpar.partitions import partitions_of
from blockpar.schedule import BlockSequence, is_bs_intersection

import oracles

BS = [1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261, 102247563]
BP = [1, 3, 13, 73, 501, 4051, 37633, 394353, 4596553, 58941091]
BP0 = [1, 3, 13, 67, 471, 3591, 33573, 329043, 3919387, 47827093]
BP_STAR = [1, 2, 6, 24, 120, 795, 5565, 46060, 454860, 4727835]


def test_count_bs_sequence():
    assert [count_bs(n) for n in range(1, 11)] == BS


def test_count_bp_sequence():
    assert [count_bp(n) for n in range(1, 11)] == BP
    assert count_bp(12) == 12470162233


def test_count_bp0_sequence():
    assert [count_bp0(n) for n in range(1, 11)] == BP0
    assert count_bp0(12) == 9764977399


def test_count_bp_star_sequence():
    assert [count_bp_star(n) for n in range(1, 11)] == BP_STAR
    assert count_bp_star(11) == 54223785
    assert count_bp_star(12) == 734932121


def test_count_bs_inter_bp_values():
    assert count_bs_inter_bp(1) == 1
    assert count_bs_inter_bp(2) == 3
    assert count_bs_inter_bp(4) == 31


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_count_bs_inter_bp_against_bruteforce(n):
    # Enumerate every ordered set partition and test membership directly;
    # the total doubles as a brute-force check of count_bs.
    total = 0
    hits = 0
    for blocks in oracles.ordered_set_partitions(n):
        total += 1
        if is_bs_intersection(BlockSequence(n, blocks)):
            hits += 1
    assert total == count_bs(n)
    assert count_bs_inter_bp(n) == hits


def test_bad_arguments():
    for fn in (count_bs_inter_bp, count_bp0_via_egf):
        with pytest.raises(ValueError):
            fn(0)


def test_formula_redundancy_terms():
    # The per-partition variants must agree term by term, not just in total.
    for n in range(1, 16):
        for p in partitions_of(n):
            assert bp_term(p) == bp_term_product(p)
            assert bp0_term(p) == bp0_term_columns(p) == bp0_term_matrices(p)
            assert bp0_term(p) % p.lcm() == 0
            assert bp_star_term(p) * p.lcm() == bp0_term(p)


def test_egf_route():
    assert count_bp0_via_egf(1) == 1
    assert count_bp0_via_egf(4) == 67
    assert count_bp0_via_egf(7) == 33573
    for n in range(1, 16):
        assert count_bp0_via_egf(n) == count_bp0(n)


def test_egf_series_prefix_stable():
    # Truncating at a higher degree must not change lower coefficients.
    short = egf_coefficients(6)
    long = egf_coefficients(12)
    assert long[: len(short)] == short


def test_quotients_shrink():
    for n in range(1, 21):
        assert count_bp_star(n) <= count_bp0(n) <= count_bp(n)


def test_bs_term_sums():
    for n in range(1, 11):
        assert sum(bs_term(p) for p in partitions_of(n)) == BS[n - 1]


def test_exact_at_larger_sizes():
    # Everything stays an exact integer well past machine-word sizes.
    value = count_bp(40)
    assert value > 2**128
    assert isinstance(value, int)
    assert count_bp_star(40) <= count_bp0(40) <= value


def test_count_table_matches_the_partition_sums():
    for n, bs, bp, bp0, bp_star, bs_inter_bp in count_table(30):
        assert oracles.partition_sums(n) == {"bs": bs, "bp": bp, "bp0": bp0,
                                             "bp_star": bp_star}, n
        assert bs_inter_bp == count_bs_inter_bp(n)
        if n in (1, 2, 7, 19, 30):
            assert (count_bs(n), count_bp(n), count_bp0(n), count_bp_star(n),
                    count_bp0_via_egf(n)) == (bs, bp, bp0, bp_star, bp0)


def _off_by_one(counts):
    """``counts`` with its last entry, or one state of its last size, plus one."""
    counts = list(counts)
    last = counts[-1]
    if isinstance(last, dict):
        last = dict(last)
        key = next(iter(last))
        last[key] += 1
        counts[-1] = last
    else:
        counts[-1] = last + 1
    return counts


ROUTES = {
    "_bs_recurrence": count_bs,
    "_bs_stirling": count_bs,
    "_bp_recurrence": count_bp,
    "_bp_knapsack": count_bp,
    "_lcm_states_direct": count_bp_star,
    "_lcm_states_columns": count_bp_star,
    "_bp0_via_egf": count_bp0,
}


@pytest.mark.parametrize("route", ROUTES)
def test_a_route_off_by_one_is_a_cross_check_error(route, monkeypatch):
    original = getattr(counting, route)
    monkeypatch.setattr(counting, route, lambda n_max: _off_by_one(original(n_max)))
    with pytest.raises(CrossCheckError, match="routes disagree"):
        count_table(12)
    with pytest.raises(CrossCheckError, match="routes disagree"):
        ROUTES[route](12)


def test_bp_star_state_not_divisible_by_its_lcm(monkeypatch):
    # Both routes agree on a state that its lcm does not divide, and the
    # bp0 total still matches the generating function.
    states = counting._lcm_states_direct(4)
    states[4] = {**states[4], 1: states[4][1] - 1, 2: states[4][2] + 1}
    for route in ("_lcm_states_direct", "_lcm_states_columns"):
        monkeypatch.setattr(counting, route, lambda n_max: states)
    with pytest.raises(CrossCheckError, match="bp_star term"):
        count_bp_star(4)
