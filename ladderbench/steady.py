"""Steadiness check: run one workload over ten seeds and print each
end-to-end metric's median and spread against its bound in BENCHMARK.json.

Usage (from the repository root)::

    python3 ladderbench/steady.py --workload tall-strip --first-seed 1
    python3 ladderbench/steady.py --workload tall-strip --first-seed 11 \\
        --against 1

Every run lasts BENCHMARK.json's ``run_seconds``.  The spread is the
distance between the first and third quartiles of the per-run values
(``statistics.quantiles(values, n=4)``) as a share of their median.  A
metric is steady when its spread is within its bound; ``margin`` flags
spreads above a third of the bound.  With ``--against``, each median is
also compared with that of the earlier set that started at that seed: a
median worse by more than the bound is a regression between two sets of
the same code.  The exit code is 1 if any run failed a check, if the
failed share of operations differs between runs or sets, or if any
spread or median comparison breaks its bound.  Every run's result line
goes to ``.ladderbench/steady-<workload>-<first seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
_COUNTS = re.compile(r"(\d+) ladder rounds, (\d+) serve jobs")


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def log_path(workload: str, first_seed: int) -> Path:
    return ROOT / ".ladderbench" / f"steady-{workload}-{first_seed}.jsonl"


def run_set(spec: dict, workload: str, first_seed: int) -> list[dict] | None:
    """Ten runs; each result line, plus its ladder rounds and serve jobs."""
    log = log_path(workload, first_seed)
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text("")
    results = []
    for seed in range(first_seed, first_seed + RUNS):
        cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-3000:]}",
                  file=sys.stderr)
            return None
        res = json.loads(lines[-1])
        counts = _COUNTS.search(done.stdout)
        res["seed"] = seed
        res["rounds"], res["serve_jobs"] = (
            map(int, counts.groups()) if counts else (None, None))
        results.append(res)
        with log.open("a") as fh:
            fh.write(json.dumps(res) + "\n")
        print(f"seed {seed}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} "
              f"rounds={res['rounds']} serve_jobs={res['serve_jobs']}",
              flush=True)
    return results


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse *after* is than *before*, as a share of *before*."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--against", type=int, default=None, metavar="SEED",
                   help="first seed of an earlier set to compare medians with")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    earlier = None
    if args.against is not None:
        earlier = [json.loads(line) for line in
                   log_path(args.workload, args.against).read_text().split("\n")
                   if line]

    results = run_set(spec, args.workload, args.first_seed)
    if results is None:
        return 1
    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    if earlier is not None:
        shares |= {r["failed"] / r["attempted"] for r in earlier}
    ok &= len(shares) == 1
    print(f"\n{args.workload}: {len(results)} runs of {spec['run_seconds']} s, "
          f"failed shares {sorted(shares)}, all correct: "
          f"{all(r['correct'] for r in results)}")
    head = f"{'metric':18s} {'median':>11s} {'q1':>11s} {'q3':>11s} " \
           f"{'spread':>7s} {'bound':>6s}"
    print(head + ("  earlier median  worse by" if earlier else ""))
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        s = spread(vals)
        flag = ("OVER" if s > m["bound"]
                else "margin" if s > m["bound"] / 3 else "ok")
        ok &= s <= m["bound"]
        line = (f"{m['name']:18s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                f"{s:7.3f} {m['bound']:6.2f}")
        if earlier:
            before = statistics.median(
                r["metrics"][m["name"]]["value"] for r in earlier)
            w = worse_by(m, before, med)
            ok &= w <= m["bound"]
            line += f"  {before:14.5g} {w:+9.3f}"
            flag += " REGRESSED" if w > m["bound"] else ""
        print(f"{line}  {flag}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
