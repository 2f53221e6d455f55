"""The four workloads: each a closed loop of ``blockpar`` invocations, one
fresh process at a time, with a check for every output.

A check takes the bytes an invocation wrote to stdout and returns None when
they are right, or a one-line reason when they are not.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))

#: Published class sizes (the ``blockpar count`` table): every full drain
#: must write exactly this many lines.
COUNTS = {("bpstar", 9): 454860, ("bp0", 8): 329043, ("bp", 8): 394353}

#: Lines read before the early-close reader closes its pipe.
CLOSE_AFTER = 1000


@dataclass
class Op:
    """One invocation, ``blockpar ARGV``."""

    name: str
    argv: list[str]
    check: Callable[[bytes], Optional[str]]
    kind: str                 # drain, prefix, count, sharded, export, decide, step, trace, phi
    subject: str = ""         # schedule class, network or gadget worked on
    tag: str = ""             # export format or decider name
    work: int = 0             # units credited to work_per_s
    counts: dict = field(default_factory=dict)
    read_lines: Optional[int] = None   # close stdout after this many lines


@dataclass
class Workload:
    ops: list[Op]
    probes: list[Op]          # traced run only: layer timings outside the pass
    setup_files: list[str]    # parsed by every set-up spawn
    work_unit: str
    input_digests: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Checks

def _pinned() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)["sha256"]


def lines_and_digest(lines: int, sha256: str):
    def check(out: bytes) -> Optional[str]:
        got = out.count(b"\n")
        if got != lines:
            return f"{got} lines, expected {lines}"
        digest = hashlib.sha256(out).hexdigest()
        if digest != sha256:
            return f"sha256 {digest[:16]}, expected {sha256[:16]}"
        return None
    return check


def exact(expected: bytes):
    def check(out: bytes) -> Optional[str]:
        if out == expected:
            return None
        return f"wrote {out[:80]!r}, expected {expected[:80]!r}"
    return check


def graph_json(table: list[int], n: int):
    """Every edge and every cycle of ``dynamics --format json`` against the
    successor table computed by :mod:`inputs`."""
    def check(out: bytes) -> Optional[str]:
        doc = json.loads(out)
        if doc["n"] != n:
            return f"n={doc['n']}, expected {n}"
        expected = [[inputs.fmt(x, n), inputs.fmt(s, n)] for x, s in enumerate(table)]
        if doc["edges"] != expected:
            return f"edges differ from the independent successor table ({len(doc['edges'])} edges)"
        lengths = sorted(len(c) for c in inputs.cycles(table))
        if sorted(doc["cycles"]["lengths"]) != lengths:
            return f"cycle lengths {sorted(doc['cycles']['lengths'])}, expected {lengths}"
        for members in doc["cycles"]["members"]:
            configs = [int(bits[::-1], 2) for bits in members]
            if any(table[c] != configs[(k + 1) % len(configs)] for k, c in enumerate(configs)):
                return f"listed cycle {members[:3]}... is not a cycle"
        return None
    return check


_DOT_EDGE = re.compile(rb'"([01]+)" -> "([01]+)";')


def graph_dot(table: list[int], n: int):
    """Every arc of ``dynamics --format dot`` against the successor table."""
    expected = [(inputs.fmt(x, n).encode(), inputs.fmt(s, n).encode())
                for x, s in enumerate(table)]

    def check(out: bytes) -> Optional[str]:
        arcs = _DOT_EDGE.findall(out)
        if arcs != expected:
            return f"{len(arcs)} arcs differ from the independent successor table"
        return None
    return check


# ---------------------------------------------------------------------------
# Workloads

def partitions_up_to(n_max: int) -> int:
    """Sum of p(n) for n = 1..n_max: the partitions one counting table walks."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            p[total] += p[total - part]
    return sum(p[1:])


def _drain(klass: str, n: int, pinned: dict, threads: int = 1) -> Op:
    argv = ["enum", str(n), "--class", klass]
    check = lines_and_digest(COUNTS[klass, n], pinned[" ".join(argv)])
    count = COUNTS[klass, n]
    if threads > 1:
        return Op(f"sharded-{klass}-{n}", argv + ["--threads", str(threads)], check,
                  "sharded", klass, work=count, counts={"schedules": count})
    return Op(f"drain-{klass}-{n}", argv, check, "drain", klass,
              work=count, counts={"schedules": count})


def _prefix(klass: str, limit: int, pinned: dict) -> Op:
    argv = ["enum", "12", "--class", klass, "--partition", "3+9", "--limit", str(limit)]
    return Op(f"prefix-{klass}-12", argv, lines_and_digest(limit, pinned[" ".join(argv)]),
              "prefix", klass)


def enum(seed: int, directory: str) -> Workload:
    pinned = _pinned()
    ops = [
        _drain("bpstar", 9, pinned),
        _drain("bp0", 8, pinned),
        _drain("bp", 8, pinned),
        Op("count-24", ["count", "24"], lines_and_digest(25, pinned["count 24"]),
           "count", counts={"partitions": partitions_up_to(24)}),
        _prefix("bp", 100000, pinned),
        _prefix("bp0", 100000, pinned),
        # Reads CLOSE_AFTER lines, then closes the pipe, as `| head` does.
        Op("close-bp0-12", ["enum", "12", "--class", "bp0"],
           lines_and_digest(CLOSE_AFTER, pinned["enum 12 --class bp0 | first 1000 lines"]),
           "prefix", "bp0", read_lines=CLOSE_AFTER),
    ]
    return Workload(ops, [], [], "schedules")


def enum_sharded(seed: int, directory: str) -> Workload:
    pinned = _pinned()
    ops = [_drain("bpstar", 9, pinned, threads=2), _drain("bp", 8, pinned, threads=2)]
    # The single-process drains of the same classes: the base of shard_speedup.
    probes = [_drain("bpstar", 9, pinned), _drain("bp", 8, pinned)]
    return Workload(ops, probes, [], "schedules")


def space(seed: int, directory: str) -> Workload:
    s = inputs.space_inputs(seed, directory)
    n, files = s.n, s.files
    work = (1 << n) * s.lcm

    def args(net: str) -> list[str]:
        return ["--network", files[f"{net}.bn"], "--schedule", files["space.schedule"]]

    def op(name, argv, check, kind, subject, tag):
        return Op(name, argv, check, kind, subject, tag, work=work,
                  counts={"config_substeps": work})

    true, false = exact(b"true\n"), exact(b"false\n")
    ops = [
        op("json-contracting", ["dynamics", *args("contracting"), "--format", "json"],
           graph_json(s.tables["contracting"], n), "export", "contracting", "json"),
        op("dot-bijective", ["dynamics", *args("bijective"), "--format", "dot"],
           graph_dot(s.tables["bijective"], n), "export", "bijective", "dot"),
        op("bijective-contracting", ["check", "bijective", *args("contracting")],
           false, "decide", "contracting", "is_bijective"),
        op("bijective-bijective", ["check", "bijective", *args("bijective")],
           true, "decide", "bijective", "is_bijective"),
        op("fixed-point-contracting", ["check", "fixed-point", *args("contracting")],
           true, "decide", "contracting", "fixed_points"),
        op("limit-cycle-bijective", ["check", f"limit-cycle:{s.cycle_k}", *args("bijective")],
           true, "decide", "bijective", "limit_cycle_exists"),
        op("preimage-contracting",
           ["check", "preimage", *args("contracting"), "--target", inputs.fmt(s.goe_target, n)],
           false, "decide", "contracting", "has_preimage"),
        op("identity", ["check", "identity", *args("identity")],
           true, "decide", "identity", "is_identity"),
        op("constant", ["check", "constant", *args("constant")],
           exact(f"true\n{inputs.fmt(s.constant_image, n)}\n".encode()),
           "decide", "constant", "is_constant"),
    ]
    return Workload(ops, [], [files["contracting.bn"], files["space.schedule"]],
                    "configuration-substeps", s.digests)


def orbit(seed: int, directory: str) -> Workload:
    o = inputs.orbit_inputs(seed, directory)
    files = o.files
    ops = [
        Op("step-gadget",
           ["step", "--network", files["gadget.bn"], "--schedule", files["gadget.schedule"],
            "--config", inputs.fmt(o.gadget_start, o.gadget_n)],
           exact((inputs.fmt(o.gadget_image, o.gadget_n) + "\n").encode()),
           "step", "gadget", work=o.gadget_lcm,
           counts={"local_evals": o.gadget_lcm * o.gadget_oblocks}),
        Op("trace-random",
           ["trace", "--network", files["trace.bn"], "--schedule", files["trace.schedule"],
            "--config", inputs.fmt(o.trace_start, o.trace_n)],
           exact(o.trace_expected), "trace", "random", work=o.trace_lcm,
           counts={"local_evals": o.trace_lcm * o.trace_oblocks}),
    ]
    probes = [Op("phi-trace", ["phi", "--schedule", files["trace.schedule"]],
                 exact(f"{o.trace_lcm}\n".encode()), "phi")]
    return Workload(ops, probes, [files["gadget.bn"], files["gadget.schedule"]],
                    "substeps", o.digests)


WORKLOADS = {
    "enum": enum,
    "enum-sharded": enum_sharded,
    "space": space,
    "orbit": orbit,
}
