"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scenario-sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  Every run checks
its rows exactly against a reference (``reference.json`` for the shipped
seeds, a serial-path recomputation otherwise) and exits 1 on a mismatch.
The last line of standard output is the result; the line before it records
the host and the ``REPRO_*`` knobs the run used.  A record of the run is
appended to ``.perfbench/results.jsonl`` (or ``--results``) for
``compare.py``.  Exit code 2: usage error or no program source.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("scenario-sweep", "session-follower", "tournament-pool", "network-mesh")

#: Extra set-up measurements per run, each in a fresh process.
SETUP_PROBES = 4


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(OUT, "results.jsonl"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


@dataclass
class Loop:
    """The rounds of one timed loop."""

    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    traced_wall: float = 0.0
    attempted: int = 0
    failed: int = 0


def timed_rounds(bench, seconds: float, tracer=None) -> Loop:
    """Closed-loop rounds for about ``seconds`` (at least one round).

    The loop stops once another round would end more than half a round past
    ``seconds``, so runs overshoot by half a round at most.  With a tracer,
    rounds alternate untraced and traced, so the traced run measures its own
    overhead against the same work.
    """
    from repro.runtime import TaskFailure

    loop = Loop()
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        for with_trace in (False, True) if tracer is not None else (False,):
            loop.attempted += bench.points
            turn = time.perf_counter()
            if with_trace:
                tracer.install()
            try:
                rnd = bench.run_round(tracer.span if with_trace else None)
            except TaskFailure as exc:
                print(f"perfbench: round failed: {exc!r}", file=sys.stderr)
                loop.failed += bench.points
                continue
            finally:
                if with_trace:
                    tracer.uninstall()
                    loop.traced_wall += time.perf_counter() - turn
            (loop.traced if with_trace else loop.untraced).append(rnd)
        now = time.perf_counter()
        if now - start + 0.5 * (now - begun) >= seconds:
            return loop


def load_reference() -> dict:
    """``{workload: {seed: digest}}`` recorded from the serial path."""
    with open(os.path.join(ROOT, "perfbench", "reference.json")) as fh:
        return json.load(fh)


def check(bench, rounds: list, reference: dict) -> list[str]:
    """Exact-equality problems of the rounds' rows against the reference.

    Every round must give the same rows.  For a seed in ``reference`` they
    must hash to the recorded digest; otherwise one grid point is recomputed
    through the serial path.  ``tournament-pool`` always recomputes every
    cell serially, so pooled rows are compared with serial rows.
    """
    from perfbench.workloads import digest

    if not rounds:
        return []
    problems = []
    digests = {digest(r.rows) for r in rounds}
    if len(digests) > 1:
        problems.append(f"{len(digests)} different results over {len(rounds)} identical rounds")
    rows = rounds[0].rows
    expected = reference.get(bench.name, {}).get(str(bench.seed))
    if expected is not None and digest(rows) != expected:
        problems.append(f"rows differ from the recorded serial-path digest {expected[:12]}")
    if expected is None or bench.name == "tournament-pool":
        index = bench.seed % bench.points
        ref = bench.serial_rows([index])
        got = rows if bench.name == "tournament-pool" else [rows[index]]
        if digest(got) != digest(ref):
            problems.append(f"rows differ from the serial path at grid point {index}: {got} != {ref}")
    return problems


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child (pool worker) so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_probe(args: argparse.Namespace) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--setup-probe"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def measure(args: argparse.Namespace, bench, setup_s: float) -> tuple[dict, list[str], int, int]:
    """The end-to-end metrics, untraced."""
    loop = timed_rounds(bench, args.seconds)
    rounds = loop.untraced
    peak = peak_rss_mb()
    problems = check(bench, rounds, load_reference())
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    rates = [r.packets / r.seconds for r in rounds]
    metrics = {
        "packets_per_s": (statistics.median(rates) if rates else 0.0, "packets/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return metrics, problems, loop.attempted, loop.failed


def measure_traced(args: argparse.Namespace, bench, workdir: str) -> tuple[dict, list[str], int, int]:
    """The per-layer metrics, from traced rounds interleaved with untraced ones."""
    from perfbench import spans
    from perfbench.workloads import MOVERS

    units = per_layer_units()
    speedup, identical = bench.batch_speedup()
    problems = [] if identical else ["run_packets_batched differs from run_packets"]
    tracer = spans.Tracer(workdir)
    loop = timed_rounds(bench, args.seconds, tracer)
    untraced, traced = loop.untraced, loop.traced
    tracer.merge_workers()
    tracer.export(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"))
    problems += check(bench, untraced + traced, load_reference())
    metrics: dict = {}
    if traced and untraced:
        totals = spans.LayerTotals.of(tracer.spans, tracer.pid)
        layer = spans.layer_metrics(totals, len(traced), loop.traced_wall)
        metrics = {name: (value, units[name]) for name, value in layer.items()}
        overhead = statistics.median(r.seconds for r in traced) / statistics.median(
            r.seconds for r in untraced
        )
        metrics["trace.overhead_ratio"] = (overhead, units["trace.overhead_ratio"])
    metrics["link.batch_speedup"] = (speedup, units["link.batch_speedup"])
    metrics["failed_ratio"] = (loop.failed / loop.attempted, units["failed_ratio"])
    problems += [
        f"layer metric {name} reads zero on the workload that should move it"
        for name in MOVERS[args.workload]
        if traced and not metrics[name][0]
    ]
    return metrics, problems, loop.attempted, loop.failed


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source at src/repro in this checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import hostenv

    knobs = hostenv.pin_knobs(hostenv.WORKERS.get(args.workload, 0))
    load_before = list(os.getloadavg())
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    # Keep scratch files of the program (atomic-rename temp files) in the checkout.
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = None
    try:
        from perfbench.workloads import Workload

        bench = Workload(args.workload, args.seed, workdir)
        bench.warm()
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, problems, attempted, failed = measure_traced(args, bench, workdir)
        else:
            metrics, problems, attempted, failed = measure(args, bench, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host = hostenv.host_record(ROOT, load_before)
    for problem in problems:
        print(f"perfbench: {args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "knobs": knobs,
        "result": result,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"host": host, "knobs": knobs}))
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
