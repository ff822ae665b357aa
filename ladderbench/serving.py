"""The serve rung: an ``mgsw serve`` daemon in its own process, driven by
two closed-loop clients that run as threads of the benchmark process.

Client L sends cold long jobs; client S alternates cold short jobs with
bursts of repeats of one hot pair, which the daemon answers from its
result cache.  Before the load, one longer burst of repeats goes to the
idle daemon.
Each client has one job outstanding at a time.  Cold jobs bypass the
cache (``use_cache: false``); every answer is checked against the
reference scorer, every cache hit against the hot pair's cold result.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.errors import ServeError
from repro.serve import ServeClient

HOST = "127.0.0.1"
START_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 120.0
#: Client S sends this many hot-pair repeats after each cold short job.
HITS_PER_SHORT = 3
#: Hot-pair repeats sent to the idle daemon before the load: the front
#: door's own cost, apart from the CPU the busy pool leaves it.  Before
#: the load, the daemon holds the same few job records in every run.
IDLE_HITS = 100
FINISHED = ("done", "failed", "cancelled")
_LISTENING = re.compile(r"serve listening on [\d.]+:(\d+)")


class Refused(Exception):
    """The daemon answered a submission with ``ok: false``."""


def submit_wait(client: ServeClient, pair, **fields) -> tuple[dict, float]:
    """Submit *pair*, wait for its end; ``(job record, client latency)``."""
    a, b = pair.strings()
    t0 = time.perf_counter()
    resp = client.submit(seq_a=a, seq_b=b, **fields)
    if not resp.get("ok"):
        raise Refused(f"{resp.get('code')}: {resp.get('error')}")
    job = resp["job"]
    if job["state"] not in FINISHED:
        job = client.check(client.wait(job["id"],
                                       timeout_s=JOB_TIMEOUT_S))["job"]
    return job, time.perf_counter() - t0


class Daemon:
    """One ``python -m repro.cli serve`` process with serve's defaults
    (one pool of two workers); its log goes to *log_path*."""

    def __init__(self, root: Path, log_path: Path) -> None:
        self.root, self.log_path = root, log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self, tiny) -> float:
        """Seconds from spawning the process to its first tiny
        comparison returning to a client."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--host", HOST,
                 "--port", "0", "--status-port", "-1"],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT)
        self.port = self._wait_for_port(t0)
        with ServeClient(HOST, self.port) as client:
            job, _ = submit_wait(client, tiny, use_cache=False)
        elapsed = time.perf_counter() - t0
        if job["state"] != "done":
            raise ServeError(f"tiny set-up job ended {job['state']}: "
                             f"{job.get('error')}")
        return elapsed

    def _wait_for_port(self, t0: float) -> int:
        while time.perf_counter() - t0 < START_TIMEOUT_S:
            match = _LISTENING.search(self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise ServeError(f"mgsw serve did not start; log:\n"
                         f"{self.log_path.read_text()[-2000:]}")

    def peak_rss_mb(self) -> float:
        """The daemon process's own peak resident set (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(kb.group(1)) / 1024.0

    def stop(self) -> None:
        """Drain the daemon and wait for its process to end."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                with ServeClient(HOST, self.port, timeout_s=30) as client:
                    client.shutdown()
            self.proc.wait(timeout=60)
        except (ServeError, OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        if self.proc.returncode == 0:
            self.log_path.unlink(missing_ok=True)   # kept only on failure
        self.proc = None


class ServePhase:
    """Closed-loop load on a running daemon; collects per-job samples."""

    def __init__(self, daemon: Daemon, wl, spans, checks) -> None:
        self.daemon, self.wl, self.spans, self.checks = daemon, wl, spans, checks
        self.hot_result: dict | None = None
        self.jobs: list[dict] = []      # one entry per answered job
        self.failed = self.refused = 0
        self._lock = threading.Lock()
        self._phase: int | None = None   # span of the phase, for the clients
        self.elapsed = 0.0

    def warm(self) -> None:
        """Compute the hot pair once (filling the cache) and run one cold
        job of each size, so the phase starts on a warm pool."""
        wl = self.wl
        with ServeClient(HOST, self.daemon.port) as client:
            job, _ = submit_wait(client, wl.hot, tenant="warm")
            self._check_cold(wl.hot, job, "hot pair first run")
            self.checks.expect(not job["cached"],
                               "hot pair's first run came from the cache")
            self.hot_result = job.get("result")
            for pair in (wl.main, wl.short_jobs[0]):
                job, _ = submit_wait(client, pair, tenant="warm",
                                     use_cache=False)
                self._check_cold(pair, job, "warm-up job")

    def _check_cold(self, pair, job: dict, what: str) -> None:
        res = job.get("result") or {}
        got = (job["state"], res.get("score"), res.get("row"), res.get("col"))
        self.checks.expect(got == ("done", *pair.ref),
                           f"serve {what} on {pair.name}: got {got}, "
                           f"reference {pair.ref}")

    def _one(self, client, kind: str, pair, **fields) -> None:
        try:
            with self.spans.span("serve", kind, self._phase) as sid:
                job, latency = submit_wait(client, pair, **fields)
        except (Refused, ServeError, OSError) as exc:
            print(f"serve {kind} job failed: {exc!r}", file=sys.stderr)
            with self._lock:
                self.failed += 1
                self.refused += isinstance(exc, Refused)
            return
        if kind.endswith("hit"):
            self.checks.expect(
                job["cached"] and job.get("result") == self.hot_result,
                f"cache hit differs from the cold result: {job.get('result')}"
                f" against {self.hot_result}")
        else:
            self._check_cold(pair, job, kind)
        run_s = job.get("run_s", 0.0)
        if sid is not None and run_s:
            end = self.spans.records[sid]["end"]
            self.spans.add("multigpu.pool", "job_run", end - run_s, end, sid)
        with self._lock:
            self.jobs.append({"kind": kind, "latency": latency,
                              "wait": job["wait_s"], "run": run_s})

    def run(self, seconds: float) -> None:
        """The idle hits, then the closed-loop load for *seconds*."""
        t0 = time.perf_counter()
        with self.spans.span("bench", "serve_phase") as self._phase:
            with ServeClient(HOST, self.daemon.port) as client:
                for _ in range(IDLE_HITS):
                    self._one(client, "idle_hit", self.wl.hot, tenant="S")
            self._load(seconds - (time.perf_counter() - t0))

    def _load(self, seconds: float) -> None:
        """Both clients loop until *seconds* have passed (each sends at
        least one cycle); in-flight jobs finish before the load ends."""
        wl = self.wl
        t0 = time.perf_counter()
        deadline = time.monotonic() + seconds

        def client_long() -> None:
            with ServeClient(HOST, self.daemon.port) as client:
                k = 0
                while not k or time.monotonic() < deadline:
                    self._one(client, "cold_long", wl.main, tenant="L",
                              use_cache=False)
                    k += 1

        def client_short() -> None:
            with ServeClient(HOST, self.daemon.port) as client:
                k = 0
                while not k or time.monotonic() < deadline:
                    self._one(client, "cold_short",
                              wl.short_jobs[k % len(wl.short_jobs)],
                              tenant="S", use_cache=False)
                    for _ in range(HITS_PER_SHORT):
                        self._one(client, "hit", wl.hot, tenant="S")
                    k += 1

        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(client_long), pool.submit(client_short)]
            for future in futures:
                future.result()
        self.elapsed = time.perf_counter() - t0

    @property
    def ops(self) -> int:
        return len(self.jobs) + self.failed

    def _ms(self, kinds: tuple[str, ...], key: str = "latency") -> float:
        vals = [j[key] for j in self.jobs if j["kind"] in kinds]
        return 1e3 * statistics.median(vals)

    def end_to_end(self) -> dict[str, float]:
        cold = sum(1 for j in self.jobs if j["kind"].startswith("cold"))
        return {"serve_jobs_per_s": cold / self.elapsed,
                "short_p50_ms": self._ms(("cold_short",)),
                "long_p50_ms": self._ms(("cold_long",)),
                "hit_p50_ms": self._ms(("idle_hit",))}

    def per_layer(self) -> dict[str, float]:
        cold = ("cold_short", "cold_long")
        front = [j["latency"] - j["wait"] - j["run"] for j in self.jobs
                 if j["kind"] in cold]
        return {"queue_wait_ms": self._ms(cold, "wait"),
                "job_run_ms": self._ms(cold, "run"),
                "front_door_ms": 1e3 * statistics.median(front),
                "loaded_hit_p50_ms": self._ms(("hit",)),
                "cache_hits": sum(1 for j in self.jobs
                                  if j["kind"].endswith("hit")),
                "cold_jobs": sum(1 for j in self.jobs if j["kind"] in cold),
                "refused": self.refused}
