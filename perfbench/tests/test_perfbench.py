"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import random
import re

import pytest

import inputs
import metrics
import run
import workloads
from metrics import Result
from spans import Recorder, self_times
from workloads import Op, exact, graph_json, lines_and_digest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ---------------------------------------------------------------------------
# Failures are counted, never crashes and never passes

@pytest.fixture
def runner(tmp_path):
    return run.Runner(str(tmp_path))


def test_corrupted_digest_is_a_failure(runner):
    op = Op("count-2", ["count", "2"], lines_and_digest(3, "0" * 64), "count")
    result = runner.run(op)
    assert result.status == 0
    assert result.error.startswith("sha256 ")
    assert not result.ok


def test_wrong_line_count_is_a_failure():
    assert lines_and_digest(4, "0" * 64)(b"a\nb\n") == "2 lines, expected 4"


def test_wrong_answer_is_a_failure(runner, tmp_path):
    network = tmp_path / "swap.bn"
    network.write_text("x0 = x1\nx1 = x0\n")
    # A swap is not the identity: the program answers false.
    op = Op("identity", ["check", "identity", "--network", str(network),
                         "--schedule", "[[0],[1]]"], exact(b"true\n"), "decide")
    result = runner.run(op)
    assert result.status == 0
    assert "expected b'true\\n'" in result.error
    assert not result.ok


def test_malformed_output_is_a_failure_not_a_crash(runner):
    op = Op("count-2", ["count", "2"], graph_json([0, 1], 1), "export")
    result = runner.run(op)
    assert result.error.startswith("check raised JSONDecodeError")
    assert not result.ok


def test_non_zero_exit_fails_even_with_right_output(runner):
    op = Op("bad-class", ["enum", "3", "--class", "nope"], exact(b""), "drain")
    result = runner.run(op)
    assert result.error is None
    assert result.status == 2
    assert not result.ok


def test_end_to_end_counts_failures_and_takes_medians():
    ok = Op("a", [], None, "drain", work=10)
    bad = Op("b", [], None, "drain")
    passes = [
        [Result(ok, 0, 1.0, 1000, None), Result(bad, 1, 2.0, 3000, None)],
        [Result(ok, 0, 3.0, 1000, None), Result(bad, 1, 2.0, 1000, None)],
        [Result(ok, 0, 2.0, 2000, None), Result(bad, 1, 9.0, 1000, None)],
    ]
    values = metrics.end_to_end(passes, [0.3, 0.1, 0.2])
    assert values["wall_s"] == 2.0 + 2.0
    assert values["work_per_s"] == 10 / 2.0
    assert values["ok_ratio"] == 0.5
    assert values["setup_s"] == 0.2
    assert values["peak_rss_mb"] == 1000 / 1024 * 1.0


# ---------------------------------------------------------------------------
# Spans

def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "r"}


def test_self_time_is_span_minus_covered_child_time():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),     # overlaps a: 1..5 covered once
        _span("c", 8.0, 12.0, parent=0),    # runs past the parent: 8..10 covered
        _span("leaf", 1.5, 2.5, parent=1),
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 2, 2 - 1, 3, 4, 1])


def test_recorder_nests_and_wraps():
    rec = Recorder("run-1")
    with rec.span("outer"):
        rec.wrap("inner", lambda: None)()
    assert [(s["name"], s["parent"], s["run"]) for s in rec.spans] == [
        ("outer", None, "run-1"), ("inner", 0, "run-1")]
    assert all(s["end"] >= s["start"] for s in rec.spans)


# ---------------------------------------------------------------------------
# Metric names

def test_metric_names_are_well_formed_and_unique():
    names = [m[0] for m in metrics.END_TO_END] + [m[0] for m in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_benchmark_json_declares_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metrics.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


#: Span names the replay records for each kind of invocation.
SPANS_BY_KIND = {
    "drain": ["cli.import", "cli.argparse", "enumeration.stream", "schedule.serialize", "cli.write"],
    "prefix": ["cli.import", "cli.argparse", "enumeration.stream", "schedule.serialize", "cli.write"],
    "sharded": ["cli.import", "cli.argparse", "enumeration.sharded", "cli.write"],
    "count": ["cli.import", "cli.argparse", "counting.count", "cli.write"],
    "export": ["network.parse", "schedule.parse", "network.compile",
               "dynamics.transition_graph", "dynamics.cycles", "dynamics.export"],
    "decide": ["network.parse", "schedule.parse", "dynamics.decide",
               "dynamics.transition_graph", "dynamics.cycles", "schedule.phi"],
    "step": ["network.parse", "dynamics.step", "network.format"],
    "trace": ["network.parse", "dynamics.trace", "network.format"],
    "phi": ["schedule.parse", "schedule.phi"],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_layer_metric_a_workload_produces_is_declared(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, str(tmp_path))

    def results(ops):
        return [Result(op, 0, 1.0, 1, None, 10, 2,
                       [_span(s, 0.0, 0.5) for s in SPANS_BY_KIND[op.kind]]) for op in ops]

    values = metrics.per_layer(results(workload.ops), results(workload.ops),
                               results(workload.probes), 0.1)
    assert list(values) == [m[0] for m in metrics.PER_LAYER]


# ---------------------------------------------------------------------------
# Inputs

#: sha256 of every input file at seed 0. A change here changes what the
#: benchmark measures, and needs a new baseline.
SEED_0_INPUTS = {
    "space.schedule": "f960276693f51059cde1c08d8c8edbc4ce4eb82bd3ffc403bbc9898d201f0498",
    "contracting.bn": "d4fedd6caa257e8af033833dc678d10dcf6fb738160c71eda0dc723de18cd069",
    "bijective.bn": "d19cddcebd187e21c4fa6244519edeb8690fa235e280d5dda6bc7b1be780db70",
    "identity.bn": "520de9961d2757c0524014921216b772b91200a578c6a8f8ca7304a31fe08b3b",
    "constant.bn": "d097afa4974226812cf0529edf08dba07db9f2321bac612974fef280bbd28f36",
    "gadget.bn": "cc22402e949f2f9e943bc52c43082a9273d0b417d4d332a74dd3b52d88691fea",
    "gadget.schedule": "f30d313ed612b5e7383ffd9826362a5be3ed941998cd7938342dfa8421147d6d",
    "trace.bn": "f0207e20113f2f5e78f334b1b0bd2fd990461ec4a972548b122446b9a9c46399",
    "trace.schedule": "49721b162ed9deecc9e1dab58bc1bd9c9b5717dd1b354dec401609ee7142b09e",
}


def test_inputs_at_seed_0_are_pinned(tmp_path):
    digests = {**inputs.space_inputs(0, str(tmp_path)).digests,
               **inputs.orbit_inputs(0, str(tmp_path)).digests}
    assert digests == SEED_0_INPUTS


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = inputs.space_inputs(7, str(a)).digests
    assert inputs.space_inputs(7, str(b)).digests == first
    assert inputs.space_inputs(8, str(c)).digests != first
    assert inputs.orbit_inputs(7, str(a)).digests == inputs.orbit_inputs(7, str(b)).digests


def test_sliced_table_agrees_with_single_lane_orbits():
    rng = random.Random(5)
    for _ in range(5):
        n = rng.randrange(2, 7)
        lengths = []
        while sum(lengths) < n:
            lengths.append(rng.randrange(1, n - sum(lengths) + 1))
        net = inputs.orbit_network(n, rng)
        oblocks = inputs.random_schedule(n, lengths, rng)
        table = inputs.successor_table(net, oblocks)
        assert table == [inputs.orbit(net, oblocks, x)[-1] for x in range(1 << n)]


def test_constructions_hold(tmp_path):
    s = inputs.space_inputs(3, str(tmp_path))
    assert s.tables["contracting"][0] == 0
    assert not any(y & 1 for y in s.tables["contracting"])
    assert sorted(s.tables["bijective"]) == list(range(1 << s.n))
    net, _, image = inputs.gadget_network()
    assert inputs.fmt(image, net.n) == "0" * 58 + "1" * 5
