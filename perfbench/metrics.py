"""Metric names, units and how each is computed from one run's results.

End-to-end metrics come from untraced passes. Per-layer metrics come from one
traced pass (see ``replay.py``) set against one untraced pass of the same
operations. A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Optional

from spans import self_times

#: (name, unit, better, bound): bound is the share of the parent's median by
#: which a change may worsen the metric.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_ratio", "ratio", "higher", 0.05),
    ("work_per_s", "1/s", "higher", 0.25),
]

CLASSES = ("bp", "bp0", "bpstar")
NETS = ("contracting", "bijective", "identity", "constant")
DECISIONS = (
    ("is_bijective", "contracting"),
    ("is_bijective", "bijective"),
    ("fixed_points", "contracting"),
    ("limit_cycle_exists", "bijective"),
    ("has_preimage", "contracting"),
    ("is_identity", "identity"),
    ("is_constant", "constant"),
)

#: (name, unit, better)
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.argparse_s", "s", "lower"),
    ("network.parse_s", "s", "lower"),
    ("schedule.parse_s", "s", "lower"),
    ("network.compile_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.other_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("counting.count_s", "s", "lower"),
    ("counting.partitions", "count", "higher"),
    *((f"enumeration.stream_s.{c}", "s", "lower") for c in CLASSES),
    *((f"enumeration.schedules.{c}", "count", "higher") for c in CLASSES),
    *((f"enumeration.rate.{c}", "1/s", "higher") for c in CLASSES),
    ("enumeration.prefix_s.bp", "s", "lower"),
    ("enumeration.prefix_s.bp0", "s", "lower"),
    ("enumeration.sharded_s.bp", "s", "lower"),
    ("enumeration.sharded_s.bpstar", "s", "lower"),
    ("enumeration.shard_speedup", "ratio", "higher"),
    ("enumeration.ref_ratio.bpstar", "ratio", "lower"),
    *((f"schedule.serialize_s.{c}", "s", "lower") for c in CLASSES),
    *((f"schedule.serialize_bytes.{c}", "bytes", "higher") for c in CLASSES),
    ("schedule.phi_s", "s", "lower"),
    *((f"dynamics.transition_graph_s.{g}", "s", "lower") for g in NETS),
    *((f"dynamics.table_s.{g}", "s", "lower") for g in NETS),
    *((f"dynamics.cycles_s.{g}", "s", "lower") for g in NETS),
    ("dynamics.config_substeps", "count", "higher"),
    *((f"dynamics.decide_s.{d}.{g}", "s", "lower") for d, g in DECISIONS),
    ("dynamics.cross_checks", "count", "higher"),
    ("dynamics.export_s.json", "s", "lower"),
    ("dynamics.export_s.dot", "s", "lower"),
    ("dynamics.step_s.gadget", "s", "lower"),
    ("dynamics.trace_s", "s", "lower"),
    ("dynamics.local_evals", "count", "higher"),
    ("dynamics.local_evals_per_s", "1/s", "higher"),
    ("network.format_s", "s", "lower"),
]

#: Spans that the set-up spawns also pay, so ``setup_s`` already covers them.
SETUP_SPANS = ("cli.import", "network.parse", "schedule.parse")
#: Spans reported as a median per invocation rather than a sum over the pass.
PER_INVOCATION = {
    "cli.import": "cli.import_s",
    "cli.argparse": "cli.argparse_s",
    "network.parse": "network.parse_s",
    "schedule.parse": "schedule.parse_s",
    "network.compile": "network.compile_s",
}
#: ``enum 9 --class bpstar`` in ``blockpar.cli.REFERENCE_SECONDS``.
REFERENCE_BPSTAR_9_S = 1.51


@dataclass
class Result:
    """One finished invocation."""

    op: object                      # workloads.Op
    status: int
    wall: float
    rss_kb: int
    error: Optional[str]            # None when every output check passed
    out_bytes: int = 0
    out_lines: int = 0
    spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == 0 and self.error is None


def end_to_end(passes: list[list[Result]], setup: list[float]) -> dict:
    """Each invocation's median over the passes: walls summed over the
    workload, peak RSS the largest."""
    same_op = list(zip(*passes))
    walls = [statistics.median(r.wall for r in results) for results in same_op]
    rss = [statistics.median(r.rss_kb for r in results) for results in same_op]
    working = [(results[0].op.work, wall) for results, wall in zip(same_op, walls)
               if results[0].op.work]
    oks = [sum(r.ok for r in results) / len(results) for results in passes]
    return {
        "wall_s": sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss) / 1024,
        "ok_ratio": statistics.median(oks),
        "work_per_s": sum(w for w, _ in working) / sum(t for _, t in working),
    }


def per_layer(untraced: list[Result], traced: list[Result], probes: list[Result],
              setup_s: float) -> dict:
    m = {name: 0.0 for name, _, _ in PER_LAYER}

    def add(name: str, value: float) -> None:
        if name not in m:
            raise KeyError(f"undeclared per-layer metric {name!r}")
        m[name] += value

    per_call: dict[str, list[float]] = {}
    work_self = 0.0
    for r in traced:
        op = r.op
        for span, own in zip(r.spans, self_times(r.spans)):
            name, total = span["name"], span["end"] - span["start"]
            if name in PER_INVOCATION:
                per_call.setdefault(PER_INVOCATION[name], []).append(total)
            if name not in SETUP_SPANS:
                work_self += own
            if name == "counting.count":
                add("counting.count_s", own)
            elif name == "enumeration.stream" and op.kind == "drain":
                add(f"enumeration.stream_s.{op.subject}", own)
                if op.subject == "bpstar":
                    add("enumeration.ref_ratio.bpstar", own / REFERENCE_BPSTAR_9_S)
            elif name == "enumeration.stream" and op.kind == "prefix":
                add(f"enumeration.prefix_s.{op.subject}", total)
            elif name == "enumeration.sharded":
                add(f"enumeration.sharded_s.{op.subject}", total)
            elif name == "schedule.serialize":
                add(f"schedule.serialize_s.{op.subject}", total)
            elif name == "cli.write":
                add("cli.write_s", own)
            elif name == "dynamics.transition_graph":
                add(f"dynamics.transition_graph_s.{op.subject}", total)
                add(f"dynamics.table_s.{op.subject}", own)
            elif name == "dynamics.cycles":
                add(f"dynamics.cycles_s.{op.subject}", total)
            elif name == "dynamics.decide":
                add(f"dynamics.decide_s.{op.tag}.{op.subject}", total)
            elif name == "dynamics.export":
                add(f"dynamics.export_s.{op.tag}", total)
            elif name == "dynamics.step":
                add(f"dynamics.step_s.{op.subject}", total)
            elif name == "dynamics.trace":
                add("dynamics.trace_s", total)
            elif name == "schedule.phi":
                add("schedule.phi_s", total)
            elif name == "network.format":
                add("network.format_s", total)
        if not r.ok:
            continue
        if op.kind in ("drain", "prefix"):
            add(f"schedule.serialize_bytes.{op.subject}", r.out_bytes - r.out_lines)
        if op.kind == "drain":
            add(f"enumeration.schedules.{op.subject}", op.counts["schedules"])
        if op.kind in ("export", "decide"):
            add("dynamics.cross_checks", 1)
        for counter, metric in (("partitions", "counting.partitions"),
                                ("config_substeps", "dynamics.config_substeps"),
                                ("local_evals", "dynamics.local_evals")):
            if counter in op.counts:
                add(metric, op.counts[counter])
    for metric, values in per_call.items():
        m[metric] = statistics.median(values)

    base = 0.0
    for r in probes:
        for span in r.spans:
            duration = span["end"] - span["start"]
            if span["name"] == "enumeration.stream":
                base += duration
            elif span["name"] == "schedule.phi":
                add("schedule.phi_s", duration)
    sharded = sum(m[f"enumeration.sharded_s.{c}"] for c in ("bp", "bpstar"))
    if base and sharded:
        m["enumeration.shard_speedup"] = base / sharded
    for c in CLASSES:
        if m[f"enumeration.stream_s.{c}"]:
            m[f"enumeration.rate.{c}"] = (m[f"enumeration.schedules.{c}"]
                                          / m[f"enumeration.stream_s.{c}"])
    busy = m["dynamics.step_s.gadget"] + m["dynamics.trace_s"]
    if busy:
        m["dynamics.local_evals_per_s"] = m["dynamics.local_evals"] / busy

    untraced_wall = sum(r.wall for r in untraced)
    m["cli.other_s"] = untraced_wall - len(untraced) * setup_s - work_self
    m["trace.overhead_s"] = sum(r.wall for r in traced) - untraced_wall
    return m
