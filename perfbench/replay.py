"""Replay one ``blockpar`` invocation in-process, with a span around each layer.

    python3 replay.py --setup [NETWORK_FILE SCHEDULE_FILE]
        Import the CLI and parse the given input files, then exit: the set-up
        that every invocation pays before it does any work.

    python3 replay.py SPANS_FILE RUN_ID ARGS...
        Do what ``blockpar ARGS`` does, through the same public functions and
        with the same output, and write the spans to SPANS_FILE at the end.
        ``phi --schedule FILE`` is one extra command: it expands the schedule
        into its block sequence and prints the number of blocks.

Inner calls are spanned by replacing ``dynamics.transition_graph``,
``dynamics.DynamicsGraph`` and ``dynamics.phi`` with wrappers in this process
only, so the successor table and the cycle decomposition inside
``transition_graph`` and the deciders are timed apart without touching the
program's source.
"""

import sys

#: Schedules pulled from a stream before they are serialised and written.
CHUNK = 4096


def setup(paths: list[str]) -> None:
    import blockpar.cli  # noqa: F401  (the import is the set-up being timed)
    from blockpar import parse_network, parse_schedule

    for path in paths:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if path.endswith(".bn"):
            parse_network(text)
        else:
            parse_schedule(text)


class Replay:
    def __init__(self, rec):
        self.rec = rec
        span = rec.span
        with span("cli.import"):
            from blockpar import cli, counting, dynamics, enumeration, network, schedule
            from blockpar.partitions import Partition
        self.cli, self.counting, self.dynamics = cli, counting, dynamics
        self.enumeration, self.network, self.schedule = enumeration, network, schedule
        self.Partition = Partition
        for attr, name in (("transition_graph", "dynamics.transition_graph"),
                           ("DynamicsGraph", "dynamics.cycles"),
                           ("phi", "schedule.phi")):
            original = getattr(dynamics, attr, None)
            if original is not None:
                setattr(dynamics, attr, rec.wrap(name, original))

    def run(self, argv: list[str]) -> None:
        if argv[:1] == ["phi"]:
            self.phi(argv[1:])
            return
        with self.rec.span("cli.argparse"):
            args = self.cli.build_parser().parse_args(argv)
        getattr(self, "cmd_" + args.command)(args)

    # -- set-up of the simulation commands ---------------------------------

    def load(self, args):
        span = self.rec.span
        with span("network.parse"):
            with open(args.network, encoding="utf-8") as handle:
                f = self.network.parse_network(handle.read())
        with span("schedule.parse"):
            mu = self.load_schedule(args.schedule, f.n)
        with span("network.compile"):
            f.compiled()
        return f, mu

    def load_schedule(self, source: str, n=None):
        if source.lstrip().startswith("["):
            text = source
        else:
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
        return self.schedule.parse_schedule(text, n=n)

    # -- commands ------------------------------------------------------------

    def cmd_count(self, args) -> None:
        c = self.counting
        with self.rec.span("counting.count"):
            rows = [
                (n, c.count_bs(n), c.count_bp(n), c.count_bp0(n),
                 c.count_bp_star(n), c.count_bs_inter_bp(n))
                for n in range(1, args.n_max + 1)
            ]
        with self.rec.span("cli.write"):
            out = sys.stdout
            out.write("n,bs,bp,bp0,bp_star,bs_inter_bp\n")
            for row in rows:
                out.write(",".join(map(str, row)) + "\n")

    def cmd_enum(self, args) -> None:
        from itertools import islice

        span, out = self.rec.span, sys.stdout
        partition = self.Partition.parse(args.partition) if args.partition else None
        emitted = 0
        if args.threads > 1 and partition is None and args.limit is None:
            lines = self.enumeration.sharded_lines(args.n, args.klass, args.threads)
            with span("enumeration.sharded"):
                while chunk := list(islice(lines, CHUNK)):
                    with span("cli.write"):
                        for line in chunk:
                            out.write(line + "\n")
                    emitted += len(chunk)
        else:
            stream = self.enumeration.enum_class(args.n, args.klass, partition)
            if args.limit is not None:
                stream = islice(stream, args.limit)
            serialize = self.schedule.serialize_schedule
            with span("enumeration.stream"):
                while chunk := list(islice(stream, CHUNK)):
                    with span("schedule.serialize"):
                        lines = [serialize(mu) for mu in chunk]
                    with span("cli.write"):
                        for line in lines:
                            out.write(line + "\n")
                    emitted += len(chunk)
        print(f"count={emitted}", file=sys.stderr)

    def cmd_dynamics(self, args) -> None:
        import json

        f, mu = self.load(args)
        d = self.dynamics
        graph = d.transition_graph(f, mu, cap=args.cap_substeps, workers=args.threads)
        with self.rec.span("dynamics.export"):
            if args.format == "dot":
                sys.stdout.write(d.to_dot(graph))
            else:
                json.dump(d.graph_json(graph), sys.stdout, indent=2)
                sys.stdout.write("\n")

    def cmd_check(self, args) -> None:
        f, mu = self.load(args)
        d, prop, cap = self.dynamics, args.property, args.cap_substeps
        lines = []
        with self.rec.span("dynamics.decide"):
            if prop == "bijective":
                lines.append(d.is_bijective(f, mu, cap=cap))
            elif prop == "identity":
                lines.append(d.is_identity(f, mu, cap=cap))
            elif prop == "constant":
                image = d.is_constant(f, mu, cap=cap)
                lines.append(image is not None)
                if image is not None:
                    lines.append(self.network.format_config(image, f.n))
            elif prop == "fixed-point" and not args.config:
                lines.append(bool(d.fixed_points(f, mu, cap=cap)))
            elif prop.startswith("limit-cycle:"):
                lines.append(d.limit_cycle_exists(f, mu, int(prop.split(":", 1)[1]), cap=cap))
            elif prop == "preimage":
                y = self.network.parse_config(args.target, n=f.n)
                witness = d.has_preimage(f, mu, y, cap=cap)
                lines.append(witness is not None)
                if witness is not None:
                    lines.append(self.network.format_config(witness, f.n))
            else:
                raise SystemExit(f"replay does not cover check {prop!r}")
        for line in lines:
            print(("true" if line else "false") if isinstance(line, bool) else line)

    def cmd_step(self, args) -> None:
        f, mu = self.load(args)
        x = self.network.parse_config(args.config, n=f.n)
        with self.rec.span("dynamics.step"):
            image = self.dynamics.step(f, mu, x, cap=args.cap_substeps)
        with self.rec.span("network.format"):
            print(self.network.format_config(image, f.n))

    def cmd_trace(self, args) -> None:
        f, mu = self.load(args)
        x = self.network.parse_config(args.config, n=f.n)
        with self.rec.span("dynamics.trace"):
            trace = self.dynamics.step_trace(f, mu, x, cap=args.cap_substeps)
        with self.rec.span("network.format"):
            for configuration in trace:
                print(self.network.format_config(configuration, f.n))

    def phi(self, argv: list[str]) -> None:
        if argv[:1] != ["--schedule"] or len(argv) != 2:
            raise SystemExit("usage: phi --schedule FILE")
        with self.rec.span("schedule.parse"):
            mu = self.load_schedule(argv[1])
        with self.rec.span("schedule.phi"):
            blocks = self.schedule.phi(mu)
        print(len(blocks))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--setup"]:
        setup(argv[1:])
        return 0
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    from spans import Recorder

    spans_path, run_id, command = argv[0], argv[1], argv[2:]
    rec = Recorder(run_id)
    try:
        Replay(rec).run(command)
    finally:
        rec.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
