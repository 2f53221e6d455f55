"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
Criteria 1-4 and 6-8 assert exact values and their stated time budgets;
criterion 5 is a soft performance target that records the ratio against a
published reference timing and never fails on time alone.
"""

import random
import time

from blockpar.cli import REFERENCE_SECONDS, main
from blockpar.counting import (
    bp0_term,
    bp0_term_columns,
    bp0_term_matrices,
    bp_term,
    bp_term_product,
    count_bp,
    count_bp0,
    count_bp0_via_egf,
    count_bp_star,
)
from blockpar.dynamics import (
    distinguishing_network,
    is_bijective,
    step,
    step_trace,
    transition_graph,
)
from blockpar.enumeration import enum_bp, enum_bp0, enum_bp_star
from blockpar.gadget import counter_gadget, counter_value
from blockpar.network import format_config, parse_config, parse_network, random_network
from blockpar.partitions import partitions_of
from blockpar.schedule import parse_schedule, phi

import oracles

BP_SEQUENCE = [1, 3, 13, 73, 501, 4051, 37633, 394353, 4596553, 58941091,
               824073141, 12470162233]
BP0_SEQUENCE = [1, 3, 13, 67, 471, 3591, 33573, 329043, 3919387, 47827093,
                663429603, 9764977399]
BP_STAR_SEQUENCE = [1, 2, 6, 24, 120, 795, 5565, 46060, 454860, 4727835,
                    54223785, 734932121]
BS_SEQUENCE = [1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261, 102247563]


def _report(number: int, label: str, elapsed: float, note: str = "") -> None:
    suffix = f"  [{note}]" if note else ""
    print(f"ACCEPTANCE {number} PASS  {label}  ({elapsed:.2f}s){suffix}")


def test_criterion_1_count_reproduction(tmp_path, capsys):
    started = time.perf_counter()
    out = tmp_path / "counts.csv"
    assert main(["count", "12", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    table = [list(map(int, row.split(","))) for row in rows]
    assert [row[2] for row in table] == BP_SEQUENCE
    assert [row[3] for row in table] == BP0_SEQUENCE
    assert [row[4] for row in table] == BP_STAR_SEQUENCE
    assert [row[1] for row in table[:10]] == BS_SEQUENCE
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(1, "count table n<=12 exact", elapsed)
    assert elapsed < 1.0


def test_criterion_2_formula_redundancy(capsys):
    started = time.perf_counter()
    for n in range(1, 31):
        per_partition_bp = 0
        per_partition_bp0 = 0
        for p in partitions_of(n):
            assert bp_term(p) == bp_term_product(p)
            assert bp0_term(p) == bp0_term_columns(p) == bp0_term_matrices(p)
            per_partition_bp += bp_term(p)
            per_partition_bp0 += bp0_term(p)
        assert per_partition_bp == count_bp(n)
        assert per_partition_bp0 == count_bp0(n)
        assert count_bp0_via_egf(n) == count_bp0(n)
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(2, "all redundant formulas agree for n<=30", elapsed)
    assert elapsed < 10.0


def test_criterion_3_enumeration_matches_counting(capsys):
    started = time.perf_counter()
    for n in range(1, 9):
        assert sum(1 for _ in enum_bp(n)) == count_bp(n)
        assert sum(1 for _ in enum_bp0(n)) == count_bp0(n)
        assert sum(1 for _ in enum_bp_star(n)) == count_bp_star(n)
    assert count_bp(8) == 394353
    assert count_bp0(8) == 329043
    assert count_bp_star(8) == 46060
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(3, "stream cardinalities equal formulas for n<=8", elapsed)
    assert elapsed < 60.0


def test_criterion_4_shift_class_soundness_sweep(capsys):
    started = time.perf_counter()
    representatives = list(enum_bp_star(6))
    assert len(representatives) == 795
    blocks = [phi(mu).blocks for mu in representatives]
    # all C(795,2) pairs pairwise inequivalent under circular shifts
    for i in range(len(blocks)):
        for k in range(i + 1, len(blocks)):
            assert oracles.shift_between(blocks[i], blocks[k]) is None, (i, k)
    # every schedule belongs to exactly one representative's class
    key_to_rep = {}
    for idx, b in enumerate(blocks):
        key = oracles.rotation_key(b)
        assert key not in key_to_rep
        key_to_rep[key] = idx
    population = list(enum_bp(6))
    assert len(population) == 4051
    hits = [0] * len(representatives)
    for mu in population:
        key = oracles.rotation_key(phi(mu).blocks)
        assert key in key_to_rep
        hits[key_to_rep[key]] += 1
    assert all(count >= 1 for count in hits)
    assert sum(hits) == 4051
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(4, "795 shift-class reps pairwise distinct; 4051 schedules covered", elapsed)
    assert elapsed < 120.0


def test_criterion_5_enumeration_performance(capsys):
    reference = REFERENCE_SECONDS[("bpstar", 10)]
    started = time.perf_counter()
    count = sum(1 for _ in enum_bp_star(10))
    elapsed = time.perf_counter() - started
    assert count == 4727835
    ratio = elapsed / reference
    note = f"ratio {ratio:.2f} vs {reference}s reference"
    if ratio >= 1.0:
        note += "  REGRESSION FLAG: slower than reference"
    with capsys.disabled():
        _report(5, "shift-class stream at n=10 (soft target)", elapsed, note)


def test_criterion_6_dynamics_correctness(capsys):
    started = time.perf_counter()
    f = parse_network("x0 = x1\nx1 = !x0\nx2 = x0 & x2\n")
    mu = parse_schedule("[[0],[1,2]]", n=3)
    trace = step_trace(f, mu, parse_config("111"))
    assert [format_config(c, 3) for c in trace] == ["111", "101", "001"]

    bundle = counter_gadget(3)
    assert bundle.n_automata == 20
    target = parse_config("0" * 17 + "111")
    rng = random.Random(0xBAC0)
    for _ in range(1000):
        x = rng.randrange(1 << 20)
        assert step(bundle.network, bundle.schedule, x) == target
    gadget_trace = step_trace(
        bundle.network, bundle.schedule, parse_config("0" * 17 + "010")
    )
    values = [counter_value(bundle, c) for c in gadget_trace]
    assert values == [min(2 + t, 7) for t in range(len(gadget_trace))]
    assert gadget_trace[-1] == target
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(6, "substep trace and counter gadget exact", elapsed)
    assert elapsed < 10.0


def test_criterion_7_per_block_bijectivity_equivalence(capsys):
    started = time.perf_counter()
    schedules = list(enum_bp0(4))
    assert len(schedules) == 67
    rng = random.Random(0x1E3A)
    networks = [random_network(4, rng) for _ in range(100)]
    # Random deep expressions are almost never permutations; add contrasting
    # networks so both outcomes of the equivalence are exercised.
    networks.append(parse_network("n=4\nx0 = !x0\nx1 = !x1\nx2 = !x2\nx3 = !x3\n"))
    networks.append(parse_network("n=4\nx0 = x1\nx1 = x0\nx2 = x3\nx3 = x2\n"))
    networks.append(parse_network("n=4\nx0 = x0\nx1 = x1\nx2 = x2\nx3 = x3\n"))
    bijective_count = 0
    checks = 0
    for f in networks:
        for mu in schedules:
            # raises CrossCheckError if whole-step and per-block disagree
            checks += 1
            if is_bijective(f, mu):
                bijective_count += 1
    assert bijective_count > 0
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(
            7,
            f"bijectivity methods agree on {checks} pairs ({bijective_count} bijective)",
            elapsed,
        )
    assert elapsed < 60.0


def test_criterion_8_equivalence_semantics(capsys):
    started = time.perf_counter()
    witnesses_checked = 0
    fallback_confirmed = 0
    for n in range(1, 4):
        schedules = list(enum_bp(n))
        blocks = [phi(mu).blocks for mu in schedules]
        for i in range(len(schedules)):
            for k in range(i, len(schedules)):
                a, b = schedules[i], schedules[k]
                equal0 = blocks[i] == blocks[k]
                shift = oracles.shift_between(blocks[i], blocks[k])
                rng = random.Random((n << 16) | (i << 8) | k)
                nets = [random_network(n, rng) for _ in range(20)]
                if equal0:
                    for f in nets:
                        ga = transition_graph(f, a)
                        gb = transition_graph(f, b)
                        assert ga.successors == gb.successors
                if shift is not None:
                    for f in nets:
                        la = transition_graph(f, a).cycle_lengths()
                        lb = transition_graph(f, b).cycle_lengths()
                        assert la == lb
                if not equal0:
                    found = distinguishing_network(a, b)
                    if found is not None:
                        f, witness, index = found
                        image_a = step(f, a, witness)
                        image_b = step(f, b, witness)
                        assert (image_a >> index) & 1 != (image_b >> index) & 1
                        witnesses_checked += 1
                    else:
                        # fall back to a randomised search; confirmation only
                        if any(
                            step(f, a, x) != step(f, b, x)
                            for f in nets
                            for x in range(1 << n)
                        ):
                            fallback_confirmed += 1
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report(
            8,
            f"equivalence semantics over all pairs, n<=3"
            f" ({witnesses_checked} witnesses, {fallback_confirmed} randomised)",
            elapsed,
        )
    assert elapsed < 120.0
