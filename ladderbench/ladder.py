"""The ladder's direct rungs: timed calls into each layer's public API.

End-to-end rungs (one of each per round, CLI and serve defaults unless
stated): warm 2-worker ``WorkerPool.align`` exact and auto, the simulated
chain ``align_multi_gpu`` on ``ENV1_HETEROGENEOUS`` and the full
traceback ``align_local``.  A
recovered ``WorkerPool.align``, with worker 1 killed at a fixed block
row, runs a fixed number of times per run instead: it is slow and its
time barely varies.

The per-layer probes (traced runs only) call one layer at a time: the
monolithic kernel, the block executor, the adaptive band, the traceback
stages, the one-shot process chain ``align_multi_process`` at 2 and 1
workers, pool start and dispatch,
the banded pool tier and the pool with all telemetry armed.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from repro.device import ENV1_HETEROGENEOUS
from repro.multigpu import (ChainConfig, WorkerPool, align_multi_gpu,
                            align_multi_process)
from repro.obs import (DEFAULT_STALL_AFTER_S, EventJournal, MetricsRegistry,
                       TimeSeriesSampler)
from repro.seq import DNA_DEFAULT
from repro.sw import (DEFAULT_BAND_WIDTH, adaptive_banded_score, align_local,
                      compute_blocked, stage1_score, stage2_start,
                      stage3_align, sw_score)

from inputs import Pair

#: ``mgsw align`` / ``mgsw serve`` defaults.
WORKERS = 2
BLOCK_ROWS = 512
#: Stated border timeout of the recovery rung's pool: the survivor of a
#: killed neighbour waits this long on the full ring before it fails.
RECOVERY_BORDER_TIMEOUT_S = 1.0
#: Ring slot header (rows, corner) plus H and E as int32 per row.
RING_HEADER_BYTES = 16
DISPATCH_CALLS = 20
#: One-shot chain calls per traced run; ``procchain_w2_gcups`` is their
#: median.
ONESHOT_CALLS = 5


def rate(cells: int, seconds: float) -> float:
    """GCUPS: billions of cells per second."""
    return cells / seconds / 1e9


class Ladder:
    """Runs the rungs on one workload; ``samples`` holds every measured
    value by metric name, ``ops`` counts operations attempted."""

    def __init__(self, wl, spans, checks) -> None:
        self.wl, self.spans, self.checks = wl, spans, checks
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.ops = 0
        main = wl.main
        self.tiny = Pair("tiny", main.a[:64], main.b[:64])
        self.dispatch_pair = Pair("dispatch", main.a[:256], main.b[:256])
        self.pool = WorkerPool(WORKERS)

    def close(self) -> None:
        self.pool.close()

    def call(self, layer: str, name: str, fn):
        """One timed call into *layer*: ``(result, seconds)``."""
        self.ops += 1
        with self.spans.span(layer, name):
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0

    def warm(self) -> None:
        """First calls on a fresh pool pay page faults and profile
        builds; users of a warm pool do not."""
        m = self.wl.main
        res = self.pool.align(m.a, m.b, DNA_DEFAULT)
        self.checks.exact(m, res.score, res.best.row, res.best.col,
                          "warm-up pool align")
        self.pool.align(m.a, m.b, DNA_DEFAULT, mode="auto")

    # -- end-to-end rungs ---------------------------------------------------
    def round(self) -> None:
        """One call of each rung except recovery."""
        m, s, c = self.wl.main, self.wl.sub, self.checks
        res, dt = self.call("multigpu.pool", "exact", lambda: self.pool.align(
            m.a, m.b, DNA_DEFAULT, block_rows=BLOCK_ROWS))
        c.exact(m, res.score, res.best.row, res.best.col, "pool exact")
        self.samples["exact_gcups"].append(rate(m.cells, dt))

        res, dt = self.call("multigpu.chain", "sim", lambda: align_multi_gpu(
            m.a, m.b, DNA_DEFAULT, ENV1_HETEROGENEOUS,
            config=ChainConfig(block_rows=BLOCK_ROWS)))
        c.exact(m, res.score, res.best.row, res.best.col, "simulated chain")
        self.samples["sim_gcups"].append(rate(m.cells, dt))
        self.samples["sim_wall_s"].append(dt)
        self.samples["sim_virtual_gcups"].append(res.gcups)

        res, dt = self.call("multigpu.pool", "auto", lambda: self.pool.align(
            m.a, m.b, DNA_DEFAULT, block_rows=BLOCK_ROWS, mode="auto"))
        c.heuristic(m, res.score, self.wl.banded_exact, "pool auto")
        self.samples["auto_gcups"].append(rate(m.cells, dt))

        aln, dt = self.call("sw.stages", "align_local",
                            lambda: align_local(s.a, s.b, DNA_DEFAULT))
        c.alignment(s, aln, "align_local")
        self.samples["traceback_s"].append(dt)

    def recover(self) -> None:
        """Worker 1 dies before block row ``fault_row``; the pool resumes
        from its checkpoints on the survivor.  ``_rebuild`` leaves a pool
        one worker short for good, so each recovery gets a pool of its
        own, started and warmed outside the timed call."""
        m = self.wl.main
        with self.spans.span("multigpu.pool", "recovery_pool_start"):
            pool = WorkerPool(WORKERS,
                              border_timeout_s=RECOVERY_BORDER_TIMEOUT_S)
        with pool:
            pool.align(self.tiny.a, self.tiny.b, DNA_DEFAULT)
            res, dt = self.call(
                "multigpu.checkpoint", "recover", lambda: pool.align(
                    m.a, m.b, DNA_DEFAULT, block_rows=BLOCK_ROWS,
                    max_restarts=1, _fault=(1, self.wl.fault_row)))
        self.checks.exact(m, res.score, res.best.row, res.best.col,
                          "recovered pool align")
        self.checks.expect(res.restarts >= 1,
                           f"recovered run reports {res.restarts} restarts")
        self.samples["recover_s"].append(dt)
        self.samples["restarts"].append(res.restarts)
        self.samples["rows_recomputed"].append(res.rows_recomputed)

    # -- per-layer probes ---------------------------------------------------
    def probes(self) -> dict[str, float]:
        """One pass over the single-layer probes; returns their metrics."""
        m, s, c, out = self.wl.main, self.wl.sub, self.checks, {}

        best, dt = self.call("sw.kernel", "sw_score",
                             lambda: sw_score(m.a, m.b, DNA_DEFAULT))
        c.exact(m, best.score, best.row, best.col, "sw_score")
        out["kernel_gcups"] = rate(m.cells, dt)
        for kernel in ("scalar", "batched"):
            res, dt = self.call("sw.blocks", kernel, lambda: compute_blocked(
                m.a, m.b, DNA_DEFAULT, kernel=kernel))
            c.exact(m, res.best.score, res.best.row, res.best.col,
                    f"compute_blocked {kernel}")
            out[f"blocks_{kernel}_gcups"] = rate(m.cells, dt)
        out["blocks_over_kernel"] = (out["blocks_scalar_gcups"]
                                     / out["kernel_gcups"])

        res, dt = self.call("sw.xdrop", "adaptive_band",
                            lambda: adaptive_banded_score(m.a, m.b,
                                                          DNA_DEFAULT))
        c.heuristic(m, res.score, self.wl.banded_exact, "adaptive band")
        out["band_gcups"] = rate(m.cells, dt)
        out["band_cells"] = res.cells_computed

        s1, dt1 = self.call("sw.stages", "stage1",
                            lambda: stage1_score(s.a, s.b, DNA_DEFAULT))
        c.exact(s, s1.score, s1.end_i, s1.end_j, "stage1_score")
        aln, dt23 = self.call("sw.stages", "stage23", lambda: stage3_align(
            s.a, s.b, DNA_DEFAULT, s1.score,
            stage2_start(s.a, s.b, DNA_DEFAULT, s1.score, s1.end_i, s1.end_j),
            (s1.end_i, s1.end_j)))
        c.alignment(s, aln, "stages 2+3")
        out["stage1_s"], out["stage23_s"] = dt1, dt23

        laps = []
        for _ in range(ONESHOT_CALLS):
            res, dt = self.call("multigpu.procchain", "oneshot",
                                lambda: align_multi_process(
                                    m.a, m.b, DNA_DEFAULT, workers=WORKERS,
                                    block_rows=BLOCK_ROWS))
            c.exact(m, res.score, res.best.row, res.best.col,
                    "one-shot chain")
            laps.append(dt)
        out["procchain_w2_gcups"] = rate(m.cells, statistics.median(laps))
        res, dt = self.call("multigpu.procchain", "w1",
                            lambda: align_multi_process(
                                m.a, m.b, DNA_DEFAULT, workers=1))
        c.exact(m, res.score, res.best.row, res.best.col, "one-shot chain w=1")
        out["procchain_w1_gcups"] = rate(m.cells, dt)
        t = self.tiny
        res, out["spawn_s"] = self.call(
            "multigpu.procchain", "spawn",
            lambda: align_multi_process(t.a, t.b, DNA_DEFAULT, workers=WORKERS))
        c.exact(t, res.score, res.best.row, res.best.col, "tiny one-shot")

        pool, out["pool_start_s"] = self.call(
            "multigpu.pool", "start", lambda: WorkerPool(WORKERS))
        pool.close()
        with WorkerPool(1) as pool1:
            pool1.align(t.a, t.b, DNA_DEFAULT)
            res, dt = self.call("multigpu.pool", "w1", lambda: pool1.align(
                m.a, m.b, DNA_DEFAULT))
        c.exact(m, res.score, res.best.row, res.best.col, "1-worker pool")
        out["pool_w1_gcups"] = rate(m.cells, dt)
        out["pool_w2_over_w1"] = (statistics.median(self.samples["exact_gcups"])
                                  / out["pool_w1_gcups"])

        d, laps = self.dispatch_pair, []
        for _ in range(DISPATCH_CALLS):
            res, dt = self.call("multigpu.pool", "dispatch",
                                lambda: self.pool.align(d.a, d.b, DNA_DEFAULT))
            c.exact(d, res.score, res.best.row, res.best.col, "pool dispatch")
            laps.append(dt)
        out["pool_dispatch_ms"] = 1e3 * statistics.median(laps)

        res, out["pool_banded_s"] = self.call(
            "multigpu.pool", "banded", lambda: self.pool.align(
                m.a, m.b, DNA_DEFAULT, mode="banded"))
        c.heuristic(m, res.score, self.wl.banded_exact, "pool banded")
        blocks, cells = skipped_band(res.partition, m.a.size, BLOCK_ROWS,
                                     DEFAULT_BAND_WIDTH)
        c.expect(blocks == res.blocks_skipped_band,
                 f"pool banded skipped {res.blocks_skipped_band} blocks, "
                 f"band geometry says {blocks}")
        out["cells_skipped_band"] = cells

        out["ring_msgs"], out["ring_mb"] = ring_traffic(m.a.size)
        out["telemetry_overhead_s"] = self.telemetry_overhead()
        return out

    def telemetry_overhead(self, pairs: int = 3) -> float:
        """Median over alternating pairs of (pool align with a metrics
        registry, heartbeat watchdog, event journal and timeline sampler)
        minus (the same align on the bare pool)."""
        m, diffs = self.wl.main, []
        journal = EventJournal(None)
        try:
            with WorkerPool(WORKERS, events=journal) as pool:
                pool.align(self.tiny.a, self.tiny.b, DNA_DEFAULT)
                for _ in range(pairs):
                    registry = MetricsRegistry()
                    sampler = TimeSeriesSampler(registry=registry)
                    try:
                        res, dt = self.call("obs", "telemetry_align",
                                            lambda: pool.align(
                                                m.a, m.b, DNA_DEFAULT,
                                                metrics=registry,
                                                heartbeat_s=DEFAULT_STALL_AFTER_S,
                                                timeline=sampler))
                    finally:
                        sampler.close()
                    self.checks.exact(m, res.score, res.best.row,
                                      res.best.col, "telemetry pool align")
                    _, bare = self.call("multigpu.pool", "bare_align",
                                        lambda: self.pool.align(
                                            m.a, m.b, DNA_DEFAULT))
                    diffs.append(dt - bare)
        finally:
            journal.close()
        return statistics.median(diffs)


def skipped_band(partition, rows: int, block_rows: int,
                 half_width: int) -> tuple[int, int]:
    """Slab blocks (and their cells) lying wholly outside the band
    ``|j - i| <= half_width``, from the block geometry alone."""
    blocks = cells = 0
    for slab in partition:
        for r0 in range(0, rows, block_rows):
            r1 = min(rows, r0 + block_rows)
            if (slab.col0 - (r1 - 1) > half_width
                    or r0 - (slab.col1 - 1) > half_width):
                blocks += 1
                cells += (r1 - r0) * (slab.col1 - slab.col0)
    return blocks, cells


def ring_traffic(rows: int, workers: int = WORKERS,
                 block_rows: int = BLOCK_ROWS) -> tuple[int, float]:
    """Border messages and megabytes one exact pool align moves through
    its shared-memory rings (computed from the block geometry)."""
    msgs = nbytes = 0
    for r0 in range(0, rows, block_rows):
        height = min(block_rows, rows - r0)
        msgs += workers - 1
        nbytes += (workers - 1) * (RING_HEADER_BYTES + 2 * 4 * height)
    return msgs, nbytes / 1e6
