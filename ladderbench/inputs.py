"""Seeded inputs of the ladder benchmark's two workloads.

Every pair is a human/chimp-like homolog built with ``repro.workloads``:
random DNA, then a copy mutated with 3% SNPs and short indels.  The
program under test only ever receives the generated code arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import workloads

#: 3% SNPs plus the human/chimp indel rate (geometric lengths, mean 3).
HOMOLOG = workloads.MutationProfile(snp_rate=0.03, indel_rate=0.0008,
                                    indel_mean_len=3.0)

HOT_COLS = 524288

#: Per-workload salt, so one seed gives unrelated inputs per workload.
_SALT = {"homolog-square": 1, "tall-strip": 2}


@dataclass
class Pair:
    """One comparison input; ``ref`` is filled by the reference scorer."""

    name: str
    a: np.ndarray
    b: np.ndarray
    ref: tuple[int, int, int] | None = None
    text: tuple[str, str] | None = field(default=None, repr=False)

    @property
    def cells(self) -> int:
        return int(self.a.size) * int(self.b.size)

    def strings(self) -> tuple[str, str]:
        """The pair as ``ACGTN`` text (what a serve client sends)."""
        if self.text is None:
            table = np.frombuffer(b"ACGTN", dtype=np.uint8)
            self.text = (table[self.a].tobytes().decode(),
                         table[self.b].tobytes().decode())
        return self.text


@dataclass
class Workload:
    """Inputs plus the few knobs that differ between workloads.

    ``main`` runs through every ladder rung and is also the serve
    phase's cold long job; ``sub`` is the traceback sub-pair;
    ``short_jobs`` are the serve phase's cold short jobs and ``hot`` its
    cache-hit pair.  ``fault_row`` is the block row
    before which worker 1 dies in the recovery rung, and
    ``ladder_share`` the share of the run spent on the ladder phase (the
    rest is the serve phase).
    """

    name: str
    main: Pair
    sub: Pair
    short_jobs: list[Pair]
    hot: Pair
    fault_row: int
    ladder_share: float
    banded_exact: bool  #: the band must find the exact score on ``main``

    def pairs(self) -> list[Pair]:
        """Every distinct pair, each once."""
        seen: dict[int, Pair] = {}
        for p in [self.main, self.sub, *self.short_jobs, self.hot]:
            seen.setdefault(id(p), p)
        return list(seen.values())


def homolog(rng: np.random.Generator, rows: int, cols: int, name: str,
            offset: int = 0) -> Pair:
    """``a`` is random DNA of *rows* bases; ``b`` is ``a[offset:]``
    mutated and cut (or padded) to *cols* bases."""
    a = workloads.random_dna(rows, rng=rng)
    span = min(rows - offset, cols + cols // 16 + 16)
    b = workloads.mutate(a[offset:offset + span], HOMOLOG, rng=rng)[:cols]
    if b.size < cols:
        b = np.concatenate([b, workloads.random_dna(cols - b.size, rng=rng)])
    return Pair(name, a, b)


def build(name: str, seed: int) -> Workload:
    """The inputs of workload *name* for *seed* (same seed, same inputs)."""
    if name not in _SALT:
        raise ValueError(f"unknown workload {name!r}; have {sorted(_SALT)}")
    rng = np.random.default_rng([seed, _SALT[name]])
    shorts = [homolog(rng, 1024, 1024, f"short{k}") for k in range(4)]
    # A long side of a few hundred kbp makes a cache hit cost real
    # front-door work (JSON, encoding, SHA-256), not just a round trip.
    # The long side goes in b: one block row over two wide slabs keeps
    # the pair's one cold run at set-up short.
    hot = homolog(rng, HOT_COLS, 64, "hot",
                  offset=int(rng.integers(0, HOT_COLS - 128)))
    hot.a, hot.b = hot.b, hot.a
    if name == "homolog-square":
        main = homolog(rng, 8192, 8192, "square")
        sub = Pair("square-sub", main.a[:2048], main.b[:2048])
        return Workload(name, main, sub, shorts, hot, fault_row=4,
                        ladder_share=0.7, banded_exact=True)
    rows = 32768
    offset = int(rng.integers(rows // 4, rows // 2))
    main = homolog(rng, rows, 1024, "strip", offset=offset)
    lo = offset - 4096
    sub = Pair("strip-sub", main.a[lo:lo + 8192], main.b)
    return Workload(name, main, sub, shorts, hot, fault_row=16,
                    ladder_share=0.6, banded_exact=False)
