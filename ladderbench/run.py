"""Layer-ladder benchmark: one workload, every rung, checked outputs.

Usage (from the repository root)::

    python3 ladderbench/run.py --workload homolog-square --seed 1 \\
        --seconds 40 --trace 0

Builds the workload's inputs from ``--seed``, scores every pair with the
independent reference scorer, measures set-up, then spends ``--seconds``
on ladder rounds (every rung once per round) followed by the serve
phase.  ``--trace 1`` records spans around each call, adds the
single-layer probes, and reports per-layer metrics, the self time of
each layer and the cost of the spans recorded instead of the end-to-end
metrics.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".ladderbench"
#: ``setup_s`` is the median of three batches of pool set-ups (about
#: 15 ms each): at set-up, after the ladder phase and after the serve
#: phase, so that one slow stretch of a run does not set them all.
SETUPS_PER_BATCH = 20
#: Recoveries per run, at the start of the ladder phase (its time barely
#: varies, so one call per run is enough).
RECOVERIES = 1


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("homolog-square", "tall-strip"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics() -> dict[str, dict[str, str]]:
    """name -> {"unit", "kind"} from BENCHMARK.json, the one list of
    metric names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: {"unit": m["unit"], "kind": "end_to_end"}
           for m in spec["end_to_end"]}
    out.update({m["name"]: {"unit": m["unit"], "kind": "per_layer"}
                for m in spec["per_layer"]})
    return out


def environment(start_method: str) -> dict:
    from repro.sw import numba_available

    import numpy

    return {"numba": numba_available(),
            "cupy": importlib.util.find_spec("cupy") is not None,
            "nproc": os.cpu_count(), "start_method": start_method,
            "python": sys.version.split()[0], "numpy": numpy.__version__}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    waited-for child: the pool and chain workers.  Read before the
    serve daemon is stopped, so the daemon is not among them."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host so far, from ``/proc/stat``;
    the steal share over a run says how much a shared host took away."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split()[1:9]]
    return fields[7], sum(fields)


def pool_setup(tiny) -> float:
    """Seconds from constructing a 2-worker pool to its first tiny
    comparison returning."""
    from repro.multigpu import WorkerPool
    from repro.seq import DNA_DEFAULT

    t0 = time.perf_counter()
    pool = WorkerPool(2)
    try:
        pool.align(tiny.a, tiny.b, DNA_DEFAULT)
        return time.perf_counter() - t0
    finally:
        pool.close()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import inputs
    import reference
    from checks import Checks
    from ladder import Ladder
    from repro.seq import DNA_DEFAULT
    from serving import Daemon, ServePhase
    from spans import Spans

    declared = declared_metrics()
    scheme = reference.DNA
    if (scheme.match, scheme.mismatch, scheme.gap_open, scheme.gap_extend) != (
            DNA_DEFAULT.match, DNA_DEFAULT.mismatch, DNA_DEFAULT.gap_open,
            DNA_DEFAULT.gap_extend):
        print("error: the program's default scoring changed; update "
              "reference.DNA", file=sys.stderr)
        return 2

    start = time.perf_counter()
    steal0, total0 = cpu_ticks()
    wl = inputs.build(args.workload, args.seed)
    checks, spans = Checks(), Spans(bool(args.trace))
    ladder = daemon = serve = None
    try:
        ladder = Ladder(wl, spans, checks)
        for pair in [*wl.pairs(), ladder.tiny, ladder.dispatch_pair]:
            pair.ref = reference.sw_reference(pair.a, pair.b)
        print("env " + json.dumps(environment(ladder.pool.start_method)))

        daemon = Daemon(ROOT, OUT / f"serve-{os.getpid()}.log")
        setups = [pool_setup(ladder.tiny) for _ in range(SETUPS_PER_BATCH)]
        daemon.start(ladder.tiny)
        serve = ServePhase(daemon, wl, spans, checks)
        serve.warm()
        ladder.warm()

        rounds: list[float] = []
        ladder_s = args.seconds * wl.ladder_share
        t0 = time.perf_counter()
        print(f"set-up took {t0 - start:.1f} s")
        with spans.span("bench", "recoveries"):
            for _ in range(RECOVERIES):
                ladder.recover()
        while not rounds or time.perf_counter() - t0 < ladder_s:
            with spans.span("bench", "round"):
                r0 = time.perf_counter()
                ladder.round()
                rounds.append(time.perf_counter() - r0)
        setups += [pool_setup(ladder.tiny) for _ in range(SETUPS_PER_BATCH)]
        serve.run(args.seconds - (time.perf_counter() - t0))
        setups += [pool_setup(ladder.tiny) for _ in range(SETUPS_PER_BATCH)]
        print(f"ladder and serve phases took {time.perf_counter() - t0:.1f} s")

        extra: dict[str, float] = {}
        if args.trace:
            with spans.span("bench", "probes"):
                extra = ladder.probes()
        ladder.close()
        rss_mb, daemon_rss_mb = peak_rss_mb(), daemon.peak_rss_mb()
    finally:
        if ladder is not None:
            ladder.close()
        if daemon is not None:
            daemon.stop()
        # Shared memory started multiprocessing's resource tracker; every
        # process holding its pipe has ended, so it exits: wait for it.
        resource_tracker._resource_tracker._stop()

    med = {k: statistics.median(v) for k, v in ladder.samples.items()}
    if args.trace:
        metrics = {**extra, **serve.per_layer(),
                   "daemon_peak_rss_mb": daemon_rss_mb}
        for key in ("restarts", "rows_recomputed",
                    "sim_wall_s", "sim_virtual_gcups"):
            metrics[key] = med[key]
        for layer, secs in spans.self_times().items():
            metrics[f"{layer}.self_s"] = secs
        metrics["tracing_overhead_s"] = spans.overhead_s()
        spans.write(OUT / f"spans-{wl.name}-seed{args.seed}.json")
    else:
        metrics = {k: med[k] for k in ("exact_gcups", "sim_gcups",
                                        "auto_gcups", "traceback_s",
                                        "recover_s")}
        metrics.update(serve.end_to_end())
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = rss_mb

    kind = "per_layer" if args.trace else "end_to_end"
    wanted = {n for n, d in declared.items() if d["kind"] == kind}
    for name in sorted(wanted - metrics.keys()):
        checks.expect(False, f"metric {name} was not measured")
    for name in sorted(metrics.keys() - wanted):
        checks.expect(False, f"metric {name} is not declared")
    for f in checks.failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:14.6g} "
              f"{declared.get(name, {}).get('unit', '?')}")
    steal1, total1 = cpu_ticks()
    print(f"{len(rounds)} ladder rounds, {len(serve.jobs)} serve jobs, "
          f"{checks.passed} checks passed, {len(checks.failures)} failed, "
          f"host steal {100 * (steal1 - steal0) / max(1, total1 - total0):.1f}%")
    result = {
        "correct": checks.ok,
        "attempted": len(setups) + ladder.ops + serve.ops,
        "failed": serve.failed,
        "metrics": {n: {"value": float(v), "unit": declared[n]["unit"]}
                    for n, v in sorted(metrics.items()) if n in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
