"""Command-line interface: counting tables, enumeration streams, simulation,
analysis, gadget generation, and a benchmark harness.

Decision answers are printed as ``true``/``false`` on stdout; exit codes only
distinguish *how* a command ended: 0 completed (also when the reader closes
stdout early), 2 usage error, 3 missing file, 4 malformed input, 5 resource
cap exceeded, 6 internal error (a failed cross-check or any other unexpected
exception: always a bug).

Each command imports the modules it runs on, so a command loads no module
it does not use: ``enum`` and ``count`` never load the network code, and
``json`` loads only where a command reads or writes JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import closing, contextmanager
from itertools import chain, islice
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, Optional, TextIO

from .errors import BlockparError, CrossCheckError, ResourceCapError, ScheduleFormatError

if TYPE_CHECKING:
    from .network import BooleanNetwork
    from .schedule import PartitionedOrder

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_INPUT = 4
EXIT_RESOURCE_CAP = 5
EXIT_INTERNAL = 6

#: Pieces joined into one ``write`` call by :func:`_write_chunks`.  Under
#: ``PYTHONUNBUFFERED=1`` every ``write`` is a system call, so writing line
#: by line costs one call per line; a chunk bounds both the calls and the
#: memory held.
WRITE_CHUNK = 1024

#: ``--threads`` is parsed but starts no process, since one process writes
#: every stream faster than a pool did; the benchmark still passes it.
THREADS_HELP = "accepted and ignored: every command runs in one process"

#: The columns of the ``count`` table, and the column of each schedule class.
COUNT_HEADER = ("n", "bs", "bp", "bp0", "bp_star", "bs_inter_bp")
CLASS_COLUMN = {"bp": "bp", "bp0": "bp0", "bpstar": "bp_star"}

#: Most schedules ``bench`` drains in all (its class counts times
#: ``--repeats``): about 75 s at the 1.3 million schedules/s of a 2-vCPU
#: Xeon host (Python 3.11).
BENCH_DRAIN_CAP = 10**8

#: Single-run timings (seconds) reported for an earlier pure-Python
#: implementation of the same enumerations on a 2.80 GHz laptop; shown in
#: benchmark output purely as context.
REFERENCE_SECONDS = {
    ("bp", 8): 0.523,
    ("bp", 9): 6.17,
    ("bp", 10): 84.0,
    ("bp", 11): 1272.0,
    ("bp", 12): 19658.0,
    ("bp0", 7): 0.103,
    ("bp0", 8): 0.996,
    ("bp0", 9): 12.2,
    ("bp0", 10): 160.0,
    ("bp0", 11): 2311.0,
    ("bp0", 12): 35366.0,
    ("bpstar", 8): 0.161,
    ("bpstar", 9): 1.51,
    ("bpstar", 10): 16.3,
    ("bpstar", 11): 193.0,
    ("bpstar", 12): 2709.0,
}


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise BlockparError(f"cannot read {path}: {exc}") from exc


def _load_network(path: str) -> BooleanNetwork:
    from .network import parse_network

    return parse_network(_read_file(path))


def _load_schedule(source: str, n: Optional[int] = None) -> PartitionedOrder:
    """Inline JSON when the argument starts with '['; otherwise a file path."""
    from .schedule import parse_schedule

    text = source if source.lstrip().startswith("[") else _read_file(source)
    return parse_schedule(text, n=n)


@contextmanager
def _out_stream(args, binary: bool = False) -> Iterator:
    """The command's output: the ``--out`` file, closed afterwards, or stdout;
    with ``binary``, their bytes layers."""
    if getattr(args, "out", None):
        with open(args.out, "wb" if binary else "w",
                  encoding=None if binary else "utf-8") as handle:
            yield handle
    elif binary:
        sys.stdout.flush()
        yield sys.stdout.buffer
    else:
        yield sys.stdout


def _write_chunks(stream: TextIO, pieces: Iterable[str], end: str = "") -> int:
    """Write ``pieces``, each followed by ``end``, joining up to
    ``WRITE_CHUNK`` of them into one ``write``; return how many were written."""
    pieces = iter(pieces)
    written = 0
    while chunk := list(islice(pieces, WRITE_CHUNK)):
        stream.write(end.join(chunk) + end)
        written += len(chunk)
    return written


def _write_lines(stream: BinaryIO, chunks: Iterable[bytes], limit: Optional[int] = None
                 ) -> int:
    """Write the newline-terminated lines of ``chunks``, up to ``limit`` of
    them, joining chunks until a ``write`` holds at least ``WRITE_CHUNK``
    lines; return how many were written."""
    left = sys.maxsize if limit is None else limit
    written = held = 0
    pending: list[bytes] = []
    for chunk in chunks:
        lines = chunk.count(b"\n")
        if lines >= left - held:
            keep = left - held
            pending.append(chunk[:len(chunk) - len(chunk.split(b"\n", keep)[-1])])
            held += keep
            break
        pending.append(chunk)
        held += lines
        if held >= WRITE_CHUNK:
            stream.write(b"".join(pending))
            written, left, held, pending = written + held, left - held, 0, []
    if held:
        stream.write(b"".join(pending))
    return written + held


def _write_json(stream: TextIO, document) -> None:
    """``document`` as indented JSON and a newline, streamed in chunks."""
    import json

    encoder = json.JSONEncoder(indent=2)
    _write_chunks(stream, chain(encoder.iterencode(document), ["\n"]))


def _count_arg(low: int) -> Callable[[str], int]:
    """The argparse type of a count option: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            least = "must be positive" if low else "must not be negative"
            raise argparse.ArgumentTypeError(f"{least}, got {value}")
        return value

    return parse


# ---------------------------------------------------------------------------
# Commands

def _write_table(args, header: tuple[str, ...], rows: list[tuple]) -> None:
    """``rows`` under ``header``: a JSON list of objects or CSV, per ``--format``.

    ``None`` is JSON ``null`` and an empty CSV field.
    """
    with _out_stream(args) as stream:
        if args.format == "json":
            _write_json(stream, [dict(zip(header, row)) for row in rows])
        else:
            lines = (",".join("" if v is None else str(v) for v in row) for row in rows)
            _write_chunks(stream, chain([",".join(header)], lines), "\n")


def cmd_count(args) -> dict:
    from . import counting

    rows = counting.count_table(args.n_max)
    _write_table(args, COUNT_HEADER, rows)
    return {"rows": len(rows)}


def cmd_enum(args) -> dict:
    from . import enumeration
    from .partitions import Partition

    partition = None if args.partition is None else Partition.parse(args.partition)
    chunks = enumeration.class_chunks(args.n, args.klass, partition, WRITE_CHUNK)
    with _out_stream(args, binary=True) as stream, closing(chunks):
        emitted = _write_lines(stream, chunks, args.limit)
    print(f"count={emitted}", file=sys.stderr)
    return {"count": emitted}


def cmd_step(args) -> dict:
    from . import dynamics
    from .network import format_config, parse_config

    f = _load_network(args.network)
    mu = _load_schedule(args.schedule, n=f.n)
    x = parse_config(args.config, n=f.n)
    image = dynamics.step(f, mu, x, cap=args.cap_substeps)
    print(format_config(image, f.n))
    return {"image": format_config(image, f.n)}


def cmd_trace(args) -> dict:
    from . import dynamics
    from .network import format_config, parse_config

    f = _load_network(args.network)
    mu = _load_schedule(args.schedule, n=f.n)
    x = parse_config(args.config, n=f.n)
    trace = dynamics.step_trace(f, mu, x, cap=args.cap_substeps)
    _write_chunks(sys.stdout, (format_config(c, f.n) for c in trace), "\n")
    return {"substeps": len(trace) - 1, "image": format_config(trace[-1], f.n)}


def cmd_dynamics(args) -> dict:
    from . import dynamics

    f = _load_network(args.network)
    mu = _load_schedule(args.schedule, n=f.n)
    graph = dynamics.transition_graph(f, mu, cap=args.cap_substeps)
    with _out_stream(args) as stream:
        if args.format == "dot":
            _write_chunks(stream, dynamics.dot_lines(graph), "\n")
        else:
            _write_chunks(stream, dynamics.json_lines(graph), "\n")
    return {"cycles": list(graph.cycle_lengths())}


def _answer(value: bool) -> dict:
    print("true" if value else "false")
    return {"answer": value}


def cmd_check(args) -> dict:
    from . import dynamics
    from .network import format_config, parse_config

    f = _load_network(args.network)
    mu = _load_schedule(args.schedule, n=f.n)
    prop = args.property
    cap = args.cap_substeps
    if prop == "bijective":
        return _answer(dynamics.is_bijective(f, mu, cap=cap))
    if prop == "identity":
        return _answer(dynamics.is_identity(f, mu, cap=cap))
    if prop == "constant":
        image = dynamics.is_constant(f, mu, cap=cap)
        result = _answer(image is not None)
        if image is not None:
            print(format_config(image, f.n))
            result["image"] = format_config(image, f.n)
        return result
    if prop == "fixed-point":
        if args.config:
            x = parse_config(args.config, n=f.n)
            return _answer(dynamics.is_fixed_point(f, mu, x, cap=cap))
        points = dynamics.fixed_points(f, mu, cap=cap)
        result = _answer(bool(points))
        result["count"] = len(points)
        return result
    if prop.startswith("limit-cycle:"):
        text = prop.split(":", 1)[1]
        try:
            k = int(text)
        except ValueError:
            raise ScheduleFormatError(
                f"limit-cycle:K needs an integer cycle length K, got {text!r}") from None
        return _answer(dynamics.limit_cycle_exists(f, mu, k, cap=cap))
    if prop == "reach":
        if not args.config or not args.target:
            raise ScheduleFormatError("reach requires --config and --target")
        x = parse_config(args.config, n=f.n)
        y = parse_config(args.target, n=f.n)
        return _answer(dynamics.reachable(f, mu, x, y, cap=cap))
    if prop == "preimage":
        if not args.target:
            raise ScheduleFormatError("preimage requires --target")
        y = parse_config(args.target, n=f.n)
        witness = dynamics.has_preimage(f, mu, y, cap=cap)
        result = _answer(witness is not None)
        if witness is not None:
            print(format_config(witness, f.n))
            result["witness"] = format_config(witness, f.n)
        return result
    if prop == "subdynamics":
        if not args.graph:
            raise ScheduleFormatError("subdynamics requires --graph")
        import json

        try:
            graph = json.loads(_read_file(args.graph))
        except json.JSONDecodeError as exc:
            raise ScheduleFormatError(f"bad subdynamics graph JSON: {exc}") from exc
        except RecursionError:
            raise ScheduleFormatError("bad subdynamics graph JSON: nested too deeply") from None
        if not isinstance(graph, dict):
            raise ScheduleFormatError("subdynamics graph must be a JSON object")
        return _answer(dynamics.subdynamics(f, mu, graph, cap=cap))
    raise ScheduleFormatError(f"unknown property {prop!r}")


def cmd_gadget(args) -> dict:
    from . import dynamics
    from .network import serialize_network
    from .schedule import serialize_schedule

    if args.kind != "counter":
        raise ScheduleFormatError(f"unknown gadget kind {args.kind!r}")
    bundle = dynamics.counter_gadget(args.n)
    network_text = serialize_network(bundle.network)
    schedule_text = serialize_schedule(bundle.schedule)
    summary = {
        "automata": bundle.n_automata,
        "padding": [bundle.padding.start, bundle.padding.stop],
        "counter": [bundle.counter.start, bundle.counter.stop],
        "primes": list(bundle.basis.primes),
        "substeps": bundle.schedule.lcm(),
    }
    if args.out_prefix:
        network_path = args.out_prefix + ".bn"
        schedule_path = args.out_prefix + ".schedule"
        with open(network_path, "w", encoding="utf-8") as handle:
            handle.write(network_text)
        with open(schedule_path, "w", encoding="utf-8") as handle:
            handle.write(schedule_text + "\n")
        print(network_path)
        print(schedule_path)
        summary["files"] = [network_path, schedule_path]
    else:
        _write_json(sys.stdout, {"network": network_text, "schedule": schedule_text, **summary})
    return summary


def cmd_bench(args) -> dict:
    import statistics

    from . import counting, enumeration
    from .schedule import CLASSES

    klasses = [k.strip() for k in args.classes.split(",") if k.strip()]
    if not klasses:
        raise ScheduleFormatError(f"--classes names no schedule class: {args.classes!r}")
    rows = []
    for klass in klasses:
        if klass not in CLASSES:
            raise ScheduleFormatError(f"unknown schedule class {klass!r}")
    columns = [COUNT_HEADER.index(CLASS_COLUMN[klass]) for klass in klasses]
    drain = args.repeats * sum(row[c] for row in counting.count_table(args.n_max)
                               for c in columns)
    if drain > BENCH_DRAIN_CAP:
        raise ResourceCapError(
            f"bench up to n={args.n_max} drains {drain} schedules,"
            f" above the cap of {BENCH_DRAIN_CAP}"
        )
    for n in range(1, args.n_max + 1):
        for klass in klasses:
            timings = []
            count = None
            for _ in range(args.repeats):
                started = time.perf_counter()
                count = enumeration.class_count(n, klass)
                timings.append(time.perf_counter() - started)
            median = statistics.median(timings)
            reference = REFERENCE_SECONDS.get((klass, n))
            ratio = round(median / reference, 4) if reference else None
            rows.append((klass, n, count, round(median, 4), reference, ratio))
    header = ("class", "n", "count", "median_s", "reference_s", "ratio")
    _write_table(args, header, rows)
    return {"rows": len(rows)}


# ---------------------------------------------------------------------------
# Wiring

def build_parser() -> argparse.ArgumentParser:
    from .schedule import CLASSES, DEFAULT_BLOCK_CAP

    parser = argparse.ArgumentParser(
        prog="blockpar",
        description="Block-parallel update schedules: count, enumerate, simulate, analyse.",
    )
    parser.add_argument("--report", metavar="FILE", help="write a JSON run report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact counts of all schedule classes")
    p.add_argument("n_max", type=_count_arg(1))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("enum", help="stream one schedule per class member")
    p.add_argument("n", type=int)
    p.add_argument("--class", dest="klass", choices=CLASSES, default="bp")
    p.add_argument("--limit", type=_count_arg(0), default=None,
                   help="stop after this many schedules")
    p.add_argument("--partition", help='restrict to one support, e.g. "2+2+3"')
    p.add_argument("--threads", type=_count_arg(1), default=1, help=THREADS_HELP)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=cmd_enum)

    def add_simulation_args(p, config=True, config_required=False):
        p.add_argument("--network", required=True, metavar="FILE")
        p.add_argument("--schedule", required=True, metavar="FILE|JSON")
        if config:
            p.add_argument("--config", metavar="BITS", required=config_required)
        p.add_argument("--cap-substeps", type=_count_arg(1), default=DEFAULT_BLOCK_CAP)

    p = sub.add_parser("step", help="image of a configuration after one step")
    add_simulation_args(p, config_required=True)
    p.set_defaults(handler=cmd_step)

    p = sub.add_parser("trace", help="configuration after every substep")
    add_simulation_args(p, config_required=True)
    p.set_defaults(handler=cmd_trace)

    p = sub.add_parser("dynamics", help="full transition graph with cycle summary")
    add_simulation_args(p, config=False)
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--threads", type=_count_arg(1), default=1, help=THREADS_HELP)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=cmd_dynamics)

    p = sub.add_parser("check", help="decide a dynamical property (prints true/false)")
    p.add_argument(
        "property",
        help="bijective | identity | constant | fixed-point | limit-cycle:K"
        " | reach | preimage | subdynamics",
    )
    add_simulation_args(p)
    p.add_argument("--target", metavar="BITS", help="target configuration (reach/preimage)")
    p.add_argument("--graph", metavar="FILE", help="functional graph JSON (subdynamics)")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("gadget", help="emit a gadget network/schedule pair")
    p.add_argument("kind", choices=("counter",))
    p.add_argument("n", type=int)
    p.add_argument("--out-prefix", metavar="PATH")
    p.set_defaults(handler=cmd_gadget)

    p = sub.add_parser("bench", help="enumeration timings next to reference timings")
    p.add_argument("n_max", type=_count_arg(1))
    p.add_argument("--classes", default="bp,bp0,bpstar")
    p.add_argument("--repeats", type=_count_arg(1), default=3)
    p.add_argument("--threads", type=_count_arg(1), default=1, help=THREADS_HELP)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(handler=cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    status = EXIT_OK
    result: dict = {}
    try:
        result = args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: the command ends quietly, as if complete.
        # Point stdout at devnull so the interpreter's last flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        status = EXIT_MISSING_FILE
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = EXIT_RESOURCE_CAP
    except CrossCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        status = EXIT_INTERNAL
    except (BlockparError, ValueError, OSError) as exc:
        # OSError here is an output path that cannot be written (``--out /``).
        print(f"error: {exc}", file=sys.stderr)
        status = EXIT_BAD_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        status = EXIT_INTERNAL
    if args.report:
        import json

        parameters = {
            k: v
            for k, v in vars(args).items()
            if k not in {"handler", "report"} and not callable(v)
        }
        report = {
            "command": args.command,
            "parameters": parameters,
            "duration_s": round(time.perf_counter() - started, 6),
            "result": result,
            "exit_status": status,
        }
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, default=str)
                handle.write("\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            status = status or EXIT_BAD_INPUT
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
