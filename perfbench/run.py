"""The blockpar benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from the root of a source checkout
against ``src/blockpar``, each invocation a fresh ``python3 -m blockpar``
process, one at a time. Every output is checked.

With ``--trace 0`` it repeats whole passes over the workload for about S
seconds and reports the end-to-end metrics: medians over the passes. With
``--trace 1`` it makes each invocation once untraced and once replayed with
spans around its layers (``replay.py``), and reports the per-layer metrics.

The last line of stdout is one JSON object: ``correct`` (no output was
wrong), ``attempted`` and ``failed`` (invocations that exited non-zero or
wrote a wrong output), and ``metrics``. The line before it holds the
environment fingerprint, the input digests and the sample counts. Spans and
per-invocation results are written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from metrics import Result  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PYTHON = sys.executable
LAUNCH = os.path.join(HERE, "launch.py")
REPLAY = os.path.join(HERE, "replay.py")
#: Fewest set-up spawns whose median is reported, after one warm-up spawn.
SETUP_SPAWNS = 9
#: A run that has not finished by then is stopped and fails.
DEADLINE_S = 170


class Runner:
    """Starts invocations one at a time and checks what they write."""

    def __init__(self, workdir: str):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.report = os.path.join(workdir, "launch.report")
        self.stderr = os.path.join(workdir, "stderr.txt")
        self.spans = os.path.join(workdir, "spans.json")
        self.records: list[dict] = []

    def _spawn(self, argv: list[str], read_lines=None) -> tuple[int, float, int, bytes]:
        with open(self.stderr, "wb") as err:
            proc = subprocess.Popen([PYTHON, "-I", "-S", LAUNCH, self.report, *argv],
                                    stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=ROOT, start_new_session=True)
            try:
                if read_lines is None:
                    out = proc.stdout.read()
                else:
                    out = b"".join(proc.stdout.readline() for _ in range(read_lines))
                proc.stdout.close()
                proc.wait()
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        with open(self.report, encoding="utf-8") as handle:
            status, wall, rss = handle.read().split()
        return int(status), float(wall), int(rss), out

    def setup(self, files: list[str]) -> tuple[float, int]:
        status, wall, rss, _ = self._spawn([PYTHON, REPLAY, "--setup", *files])
        if status != 0:
            with open(self.stderr, encoding="utf-8", errors="replace") as handle:
                raise RuntimeError(f"set-up spawn exited {status}: {handle.read()[-2000:]}")
        return wall, rss

    def run(self, op, traced: bool = False, run_id: str = "") -> Result:
        if traced:
            argv = [PYTHON, REPLAY, self.spans, run_id, *op.argv]
            if os.path.exists(self.spans):
                os.remove(self.spans)
        else:
            argv = [PYTHON, "-m", "blockpar", *op.argv]
        status, wall, rss, out = self._spawn(argv, op.read_lines)
        try:
            error = op.check(out)
        except Exception as exc:  # a malformed output is a wrong output, not a crash
            error = f"check raised {type(exc).__name__}: {exc}"
        spans = []
        if traced and os.path.exists(self.spans):
            with open(self.spans, encoding="utf-8") as handle:
                spans = json.load(handle)
        result = Result(op, status, wall, rss, error, len(out), out.count(b"\n"), spans)
        record = {"op": op.name, "traced": traced, "status": status, "wall_s": wall,
                  "rss_kb": rss, "error": error}
        if status != 0:
            with open(self.stderr, encoding="utf-8", errors="replace") as handle:
                record["stderr_tail"] = handle.read()[-400:]
        if traced:
            record["spans"] = spans
        self.records.append(record)
        return result


def fingerprint(seed: int) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "git_sha": git_sha(ROOT),
        "seed": seed,
    }


def git_sha(root: str):
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(args, runner: Runner, workload) -> tuple[dict, dict, list[Result]]:
    files = workload.setup_files
    runner.setup(files)  # warm-up: byte-code caches, file cache
    if args.trace:
        spawns = [runner.setup(files) for _ in range(SETUP_SPAWNS)]
        setup_s = statistics.median(wall for wall, _ in spawns)
        # Each invocation untraced and then traced, so that both see the
        # same machine state and their difference is the tracing overhead.
        untraced, traced = [], []
        for op in workload.ops:
            untraced.append(runner.run(op, run_id=f"untraced/{op.name}"))
            traced.append(runner.run(op, traced=True, run_id=f"traced/{op.name}"))
        probes = [runner.run(op, traced=True, run_id=f"probe/{op.name}")
                  for op in workload.probes]
        values = metrics.per_layer(untraced, traced, probes, setup_s)
        samples = {"setup_spawns": len(spawns), "untraced_passes": 1, "traced_passes": 1}
        return values, samples, untraced + traced + probes
    # A set-up spawn before each invocation, so that their median samples the
    # same machine state as the passes do.
    setup: list[float] = []
    passes: list[list[Result]] = []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        results = []
        for op in workload.ops:
            setup.append(runner.setup(files)[0])
            results.append(runner.run(op, run_id=f"pass{len(passes)}/{op.name}"))
        passes.append(results)
        now = time.perf_counter()
        if now - started + (now - began) > args.seconds:
            break
    while len(setup) < SETUP_SPAWNS:
        setup.append(runner.setup(files)[0])
    values = metrics.end_to_end(passes, setup)
    samples = {"setup_spawns": len(setup), "passes": len(passes)}
    return values, samples, [r for results in passes for r in results]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "blockpar", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/blockpar is missing", file=sys.stderr)
        return 2

    def expire(signum, frame):
        raise TimeoutError(f"run did not finish within {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    workdir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    runner = Runner(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        values, samples, results = measure(args, runner, workload)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)

    declared = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    output = {
        "correct": all(r.error is None for r in results),
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, *_ in declared},
    }
    info = {
        "workload": args.workload,
        "work_unit": workload.work_unit,
        "fingerprint": fingerprint(args.seed),
        "inputs_sha256": workload.input_digests,
        "samples": samples,
        "failures": [{"op": r.op.name, "status": r.status, "error": r.error}
                     for r in results if not r.ok],
    }
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({**info, "result": output, "invocations": runner.records}, handle, indent=1)
    print(json.dumps(info))
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
