"""The text stream of the enumerators: ``class_lines`` against ``enum_class``
plus ``serialize_schedule`` and against the per-filling template oracle,
blocks relabelled by ``bytes.translate``, and the bytes ``blockpar enum``
writes, under ``--threads`` too.

The n = 7 digests were taken from the CLI before schedule lines were built
from text pieces, when every line went through ``json.dumps``; the n = 9 and
10 digests and the ``count`` digests before one-row matrices took their
fillings from permutations and before the count table was built in one pass
over part sizes.
"""

import hashlib
from functools import lru_cache
from itertools import islice, zip_longest
from math import prod

import pytest

from blockpar import blocktext, enumeration
from blockpar.cli import EXIT_OK, main
from blockpar.counting import count_bp, count_bp0, count_bp_star
from blockpar.enumeration import CLASSES, class_lines, enum_class
from blockpar.partitions import Partition, partitions_of
from blockpar.schedule import (
    PartitionedOrder, parse_schedule, phi, serialize_schedule,
)

import oracles

ENUM_7 = {
    "bp": "deed779dddccb978bd271e5c52492b27905b5a636a75f8bb835873a3d18a29c7",
    "bp0": "7f4fa573c776a144b48a30f0bed62a95c1cdabc21c5fdd8d981dc18714c3e282",
    "bpstar": "4fa65b4cb6a05d0ad49bde6e12a0583fd434265198bb98f846cd141b8a9d9444",
}


def stdout_sha256(capsys, argv) -> str:
    assert main(argv) == EXIT_OK
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kind", CLASSES)
def test_enum_7_bytes_pinned(capsys, kind, threads):
    argv = ["enum", "7", "--class", kind, "--threads", threads]
    assert stdout_sha256(capsys, argv) == ENUM_7[kind]


def test_enum_partition_limit_bytes_pinned(capsys):
    argv = ["enum", "9", "--class", "bp0", "--partition", "2+3+4", "--limit", "500"]
    assert stdout_sha256(capsys, argv) == (
        "fd7f7ca38233faf96dd5beb9df13a15d069e1b7972c567c52c8bef0c2ee38c56"
    )


#: ``blockpar enum N --class K``: in each, the single matrix of ``(N,)``
#: streams its one-row fillings, and other partitions hold one-row templates.
ENUM_LARGE = {
    ("10", "bpstar"): "c9a50d5caeb5d0ad8b2469732d0be6a6bb38144df4556ad5082471d65984b547",
    ("9", "bp0"): "9993362d26c2cf0489c1dc9dd65bb48ce6e5095f887a50cee2b885ab9137e811",
    ("9", "bp"): "81142c9df9a42ee95930a5ee8df2d42cdba7ca57b9ebf125a7bc8c385233acdd",
}


@pytest.mark.parametrize("n, kind", ENUM_LARGE)
def test_enum_large_bytes_pinned(n, kind):
    # ``blockpar enum`` writes each line of ``class_lines`` and a newline;
    # hashing them in chunks holds no whole output.
    lines = class_lines(int(n), kind)
    digest = hashlib.sha256()
    while chunk := list(islice(lines, 4096)):
        digest.update(("\n".join(chunk) + "\n").encode())
    assert digest.hexdigest() == ENUM_LARGE[n, kind]


def test_limit_inside_a_block(capsys):
    # (9,) streams 40,320 lines; (8,1) follows in blocks of 5,040 lines, one
    # per member left out of the 8-row, and the cut falls inside its second.
    limit = 40320 + 5040 + 17
    assert main(["enum", "9", "--class", "bpstar", "--limit", str(limit)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines() == list(islice(oracles.template_lines(9, "bpstar"), limit))
    assert captured.out.endswith("\n")
    assert captured.err == f"count={limit}\n"


@pytest.mark.parametrize("argv", [
    ["enum", "8", "--class", "bp0"],
    ["enum", "8", "--class", "bp", "--threads", "2"],
    ["enum", "9", "--class", "bpstar", "--partition", "2+3+4", "--limit", "700"],
], ids=["bp0-8", "bp-8-threads-2", "bpstar-9-partition-limit"])
def test_out_file_holds_the_stdout_bytes(capsysbinary, tmp_path, argv):
    assert main(argv) == EXIT_OK
    captured = capsysbinary.readouterr()
    out = tmp_path / "schedules.txt"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == captured.out
    assert capsysbinary.readouterr() == (b"", captured.err)
    assert captured.err == b"count=%d\n" % captured.out.count(b"\n")


@pytest.mark.parametrize("argv, digest", [
    (["count", "40"], "f872af68d8d5db8ed1a9a1093c8c0130f72e378be04562091dc2f98f7f54daae"),
    (["count", "12", "--format", "json"],
     "8c7d9c4001ae432ed902658c708cb1e8e59f24dfff36df094ede0c7b7290ff3d"),
], ids=["count-40-csv", "count-12-json"])
def test_count_bytes_pinned(capsys, argv, digest):
    assert stdout_sha256(capsys, argv) == digest


def _filled_one_row(renderer: tuple, kind: str) -> tuple:
    """``renderer`` with its one-row path replaced by the filler of ``kind``
    and the per-filling ``piece``, the way every matrix was rendered before
    one-row matrices took their fillings from permutations."""
    piece, _, relabel = renderer

    def row(labels, budget, opens, closes):
        if kind == "bp":
            fillings = oracles.fill_rows(labels, len(labels), 1)
        else:
            fillings = oracles.fill_columns_shifted(labels, len(labels), 1, budget)
        return (piece(rows, opens, closes) for rows in fillings)

    return piece, row, relabel


LIMITS = [0, 6, 90, enumeration._MATERIALIZE_LIMIT]


def drain_against_the_oracle(kind: str, limit: int, one_row: bool, monkeypatch) -> None:
    """Every partition of n <= 8 with a one-row matrix (or without one),
    drained once per stream: class_lines, enum_class serialised, and the
    template oracle, whose one-row matrices also take their fillings from
    the fillers where the partition has one.  Under these limits the blocks
    hold products of templates, pieces of a matrix's fillings, member
    choices and single lines."""
    monkeypatch.setattr(enumeration, "_MATERIALIZE_LIMIT", limit)
    filled = _filled_one_row(oracles.TEXT, kind)
    for n in range(1, 9):
        for p in partitions_of(n):
            if (1 in map(p.m, p.part_sizes())) != one_row:
                continue
            streams = [class_lines(n, kind, p), map(serialize_schedule, enum_class(n, kind, p)),
                       oracles.template_stream(n, p, kind)]
            if one_row:
                streams.append(oracles.template_stream(n, p, kind, filled))
            assert all(len(set(lines)) == 1 for lines in zip_longest(*streams)), (p, limit)


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("kind", CLASSES)
def test_one_row_fillings_match_the_fillers(kind, limit, monkeypatch):
    drain_against_the_oracle(kind, limit, True, monkeypatch)


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("kind", CLASSES)
def test_class_lines_match_the_template_oracle(kind, limit, monkeypatch):
    drain_against_the_oracle(kind, limit, False, monkeypatch)


#: The first lines of ``blockpar enum 12 --class bp|bp0 --partition 3+9``
#: and ``blockpar enum 12 --class bp0``, whose one-row matrices too large to
#: template stream in pieces of consecutive permutations.
#: Digests copied from ``perfbench/expected.json``.
PREFIXES = {
    ("bp", "3+9", 100000): "e52c646646609dc4f6e1984abe8eb7c0e3376003c6aa1cfa678315dbed293665",
    ("bp0", "3+9", 100000): "e52c646646609dc4f6e1984abe8eb7c0e3376003c6aa1cfa678315dbed293665",
    ("bp0", None, 1000): "a45623de9ec38a8a110c800d1ae51a674265d26cb34ec8d500999b0fd9bfecc2",
}


@pytest.mark.parametrize("kind, parts, limit", PREFIXES)
def test_prefix_bytes_pinned(capsysbinary, kind, parts, limit):
    argv = ["enum", "12", "--class", kind, "--limit", str(limit)]
    if parts is not None:
        argv += ["--partition", parts]
    assert main(argv) == EXIT_OK
    out = capsysbinary.readouterr().out
    assert out.count(b"\n") == limit
    assert hashlib.sha256(out).hexdigest() == PREFIXES[kind, parts, limit]


#: sha256 of the first 20,000 lines of each partition of 12, one partition
#: after another in canonical order, taken before the fillers wrote index
#: bytes, when large bp matrices split off their first row or column.
TWELVE = {
    "bp": "20e51cfab30c967d75a4e94a411a4ac25c05c31dc95a97ffb6b211c734e7d27e",
    "bp0": "7b4af323b27e9bcae106c77e660ba9228e881099ebae9daa82ac488d4a21741b",
    "bpstar": "b6186a1417acf51807d69fc84141f2b8565cb1ed461e6ced5b8d7294fab3bb0e",
}


@pytest.mark.parametrize("kind", CLASSES)
def test_first_lines_of_every_partition_of_12_pinned(kind):
    digest = hashlib.sha256()
    for p in partitions_of(12):
        lines = islice(class_lines(12, kind, p), 20000)
        digest.update("".join(line + "\n" for line in lines).encode())
    assert digest.hexdigest() == TWELVE[kind]


#: Prefixes at two-digit labels: several part sizes, one size with two or
#: more rows, and a one-row matrix too large to template, which streams.
#: One-matrix partitions past ``_BLOCK_LINES`` fillings and the (9,) of
#: 1+2+9 stream in pieces; 10,000 lines cross two piece joins of 6+6,
#: 2+2+2+2+2+2, 3+3+3+3 and 2+5+5 (its (5,5) pieces hold 2,048 fillings).
#: The 3,000-line prefixes of three of them came first and keep their ids.
TWO_DIGIT = [("11", "1+2+3+5", 3000), ("11", "2+9", 3000), ("11", "1+1+1+4+4", 3000),
             ("12", "4+4+4", 20000), ("12", "6+6", 3000), ("12", "2+2+2+2+2+2", 3000),
             ("12", "3+9", 3000), ("12", "2+3+3+4", 3000), ("11", "1+5+5", 20000),
             ("12", "2+5+5", 3000), ("12", "1+1+5+5", 20000), ("12", "6+6", 10000),
             ("12", "2+2+2+2+2+2", 10000), ("12", "2+5+5", 10000), ("12", "3+3+3+3", 10000),
             ("12", "1+2+9", 10000)]


@pytest.mark.parametrize("kind", CLASSES)
@pytest.mark.parametrize("n, parts, limit", TWO_DIGIT)
def test_two_digit_labels_match_the_template_oracle(capsys, kind, n, parts, limit):
    argv = ["enum", n, "--class", kind, "--partition", parts, "--limit", str(limit)]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    expected = list(islice(oracles.template_stream(int(n), Partition.parse(parts), kind),
                           limit))
    assert captured.out.splitlines() == expected
    assert captured.err == f"count={len(expected)}\n"


def test_two_digit_first_row_blocks(capsys, monkeypatch):
    # 2+2+2+2+2+2 takes 60,480 lines for each first row, the row holding
    # automaton 0, as pieces of at most _BLOCK_LINES, and the prefix crosses
    # into the second first row.  Under a limit of 2^10 a piece holds 85.
    p = Partition.parse("2+2+2+2+2+2")
    chunks = islice(enumeration._text_chunks(12, p, "bp"), 16)
    assert [chunk.count(b"\n") for chunk in chunks] == [4096] * 14 + [3136, 4096]
    argv = ["enum", "12", "--class", "bp", "--partition", "2+2+2+2+2+2", "--limit", "70000"]
    expected = list(islice(oracles.template_stream(12, p, "bp"), 70000))
    for limit in [enumeration._MATERIALIZE_LIMIT, 1 << 10]:
        monkeypatch.setattr(enumeration, "_MATERIALIZE_LIMIT", limit)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("kind", CLASSES)
def test_blocks_hold_64_lines_or_the_whole_partition(kind):
    # The first blocks of a partition hold as many lines as any but the
    # last piece of a run; under 64 lines a block costs more than its lines.
    for n in range(1, 13):
        for p in partitions_of(n):
            chunks = islice(enumeration._text_chunks(n, p, kind), 3)
            sizes = [chunk.count(b"\n") for chunk in chunks]
            assert min(sizes[:-1], default=64) >= 64, (n, p.label(), sizes)


@pytest.mark.parametrize("kind", CLASSES)
@pytest.mark.parametrize("parts", [(4,) + (1,) * 36, (3, 3) + (1,) * 34, (2, 2) + (1,) * 36])
def test_member_choices_keep_blocks_within_the_materialize_limit(kind, parts):
    # Few lines a block let member choices in only up to the limit: 24
    # fillings of (4,1) over comb(40, 4) choices would be 2,193,360 lines.
    p = Partition.from_parts(parts)
    render = blocktext.renderer(p.n)
    for block, remaps, labels in islice(enumeration._walk(p.n, p, kind), 3):
        lines = render(block, [], labels).count(b"\n")
        assert lines * prod(map(len, remaps)) <= enumeration._MATERIALIZE_LIMIT


@pytest.mark.parametrize("kind", CLASSES)
@pytest.mark.parametrize("n", [100, 101])
def test_placeholder_alphabet_edge(kind, n):
    # 100 automata take two placeholder bytes each; 101 would take three,
    # more than the 242 bytes schedule text never holds, so that text is
    # the rows of enum_class, formatted.
    p = Partition.from_parts((1,) * (n - 2) + (2,))
    assert (blocktext.placeholders(n) is None) == (n == 101)
    lines = islice(class_lines(n, kind, p), 300)
    assert list(lines) == list(islice(oracles.template_stream(n, p, kind), 300))


@pytest.mark.parametrize("length", range(1, 7))
def test_one_row_is_the_column_filler_with_one_row(length):
    labels = tuple(range(3, 3 + 2 * length, 2))
    for budget in range(1, length + 1):
        expected = [rows[0] for rows in oracles.fill_columns_shifted(labels, length, 1, budget)]
        assert list(oracles.one_row(labels, budget)) == expected
        for limit in [0, 6, enumeration._MATERIALIZE_LIMIT]:
            filled = blocktext.fillings("bp0", length, 1, budget, limit)
            assert [tuple(labels[i] for i in row) for row in filled] == expected
    assert list(oracles.one_row(labels, length)) \
        == [rows[0] for rows in oracles.fill_rows(labels, length, 1)]


@pytest.mark.parametrize("kind", CLASSES)
def test_fillers_match_the_tuple_fillers(kind):
    # Every matrix of at most 8 automata, the first, middle and last budget,
    # whole and in pieces of a few fillings, with the row filler holding few
    # at a time.
    for j, m in [(j, m) for j in range(1, 9) for m in range(1, 9) if j * m <= 8]:
        elements = tuple(range(j * m))
        for budget in sorted({1, (j + 1) // 2, j}) if kind == "bpstar" else [j]:
            if kind == "bp":
                expected = [sum(sorted(rows), ()) for rows in oracles.fill_rows(elements, j, m)]
            else:
                expected = [sum(rows, ()) for rows in
                            oracles.fill_columns_shifted(elements, j, m, budget)]
            for limit in [0, 6, enumeration._MATERIALIZE_LIMIT]:
                # The fillings come column by column.
                assert [tuple(filled[c * m + r] for r in range(m) for c in range(j)) for filled
                        in blocktext.fillings(kind, j, m, budget, limit)] == expected
                got = []
                for head, template in blocktext.pieces(kind, j, m, budget, 7, limit):
                    order = head + tuple(i for i in elements if i not in head)
                    flat = blocktext.Run(0, j, m, len(head) // m, template).indices()
                    assert len(flat) <= 7 * j * m
                    got += [tuple(order[i] for i in flat[at:at + j * m])
                            for at in range(0, len(flat), j * m)]
                assert got == expected, (j, m, budget, limit)


@pytest.mark.parametrize("kind, j, m, budget", [
    ("bp", 2, 65, 2), ("bp", 130, 2, 130), ("bp0", 2, 256, 2), ("bpstar", 3, 256, 1),
])
def test_fillers_past_the_index_bytes(kind, j, m, budget):
    # A bp matrix whose other rows hold more than 126 indices, or a column
    # of more than 255 rows, is past the fillers' index bytes: its fillings
    # come as heads, in the same order.
    elements = tuple(range(j * m))
    if kind == "bp":
        expected = (sum(sorted(rows), ()) for rows in oracles.fill_rows(elements, j, m))
    else:
        expected = (sum(rows, ()) for rows in
                    oracles.fill_columns_shifted(elements, j, m, budget))
    got = (tuple(filled[c * m + r] for r in range(m) for c in range(j))
           for filled in blocktext.fillings(kind, j, m, budget, enumeration._MATERIALIZE_LIMIT))
    assert list(islice(got, 2000)) == list(islice(expected, 2000))


@pytest.mark.parametrize("kind", CLASSES)
def test_class_lines_match_enum_class(kind):
    for n in range(1, 7):
        expected = [oracles.schedule_json(mu.oblocks) for mu in enum_class(n, kind)]
        assert list(class_lines(n, kind)) == expected


@pytest.mark.parametrize("kind", CLASSES)
def test_unmaterialised_matrices_give_the_same_members(kind, monkeypatch):
    # Without materialised pieces the fillings of a matrix are the outer
    # loop, so the order changes but the members do not.
    materialised = [serialize_schedule(mu) for mu in enum_class(6, kind)]
    monkeypatch.setattr(enumeration, "_MATERIALIZE_LIMIT", 0)
    lines = list(class_lines(6, kind))
    assert lines == [serialize_schedule(mu) for mu in enum_class(6, kind)]
    assert lines != materialised
    assert sorted(lines) == sorted(materialised)


@lru_cache(maxsize=None)
def class_keys(n: int, kind: str) -> frozenset:
    """What identifies a class member of ``kind``, over every partitioned
    order on ``n`` automata: the order itself, its block sequence (dynamical
    equality), or that sequence up to rotation (limit isomorphism)."""
    orders = (PartitionedOrder._from_rows(n, o) for o in oracles.all_partitioned_orders(n))
    return frozenset(member_key(mu, kind) for mu in orders)


def member_key(mu: PartitionedOrder, kind: str):
    if kind == "bp":
        return mu.oblocks
    if kind == "bp0":
        return phi(mu).blocks
    return oracles.rotation_key(phi(mu).blocks)


COUNTS = {"bp": count_bp, "bp0": count_bp0, "bpstar": count_bp_star}


@pytest.mark.parametrize("limit", [6, 90])
@pytest.mark.parametrize("kind", CLASSES)
def test_templates_mixed_with_streamed_matrices(kind, limit, monkeypatch):
    # Under a small limit one partition mixes templated matrices, matrices
    # that stream their fillings, and single-size partitions that stream.
    monkeypatch.setattr(enumeration, "_MATERIALIZE_LIMIT", limit)
    for n in range(1, 8):
        schedules = list(enum_class(n, kind))
        assert list(class_lines(n, kind)) == [oracles.schedule_json(mu.oblocks)
                                              for mu in schedules]
        assert len(schedules) == COUNTS[kind](n)
        assert {mu.oblocks for mu in schedules} <= oracles.all_partitioned_orders(n)
        keys = [member_key(mu, kind) for mu in schedules]
        assert len(set(keys)) == len(keys)
        assert set(keys) == class_keys(n, kind)


def test_class_lines_share_argument_checks():
    for args in [(3, "nope"), (0, "bp"), (4, "bp", Partition.from_parts((2, 1)))]:
        with pytest.raises(ValueError) as lines_error:
            list(class_lines(*args))
        with pytest.raises(ValueError) as schedules_error:
            list(enum_class(*args))
        assert str(lines_error.value) == str(schedules_error.value)


@lru_cache(maxsize=None)
def bp_oracle(n: int) -> frozenset:
    return frozenset(oracles.all_partitioned_orders(n))


def test_restricted_streams_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(st.data())
    @hypothesis.settings(max_examples=60, deadline=None)
    def check(data):
        n = data.draw(st.integers(1, 7), label="n")
        kind = data.draw(st.sampled_from(CLASSES), label="kind")
        p = data.draw(st.sampled_from(list(partitions_of(n))), label="p")
        schedules = list(enum_class(n, kind, p))
        lines = list(class_lines(n, kind, p))
        assert lines == [serialize_schedule(mu) for mu in schedules]
        for line, mu in zip(lines, schedules):
            assert mu.support() == p
            assert parse_schedule(line, n=n) == mu
            assert oracles.schedule_json(mu.oblocks) == line
        if kind == "bp":
            parts = sorted(p.parts)
            expected = {o for o in bp_oracle(n) if sorted(map(len, o)) == parts}
            assert {mu.oblocks for mu in schedules} == expected
            assert len(schedules) == len(expected)

    check()
