"""Independent reference scorer for the ladder benchmark.

A plain affine-gap local Smith-Waterman (Gotoh) in int64 NumPy.  It
imports nothing from the package under test: the benchmark checks every
exact score the program reports against :func:`sw_reference`, and every
alignment it reports against :func:`rescore_alignment`.

Scoring follows the program's DNA convention: codes 0-3 are A, C, G, T;
any other code (N) mismatches everything, itself included; a gap of
length ``L`` costs ``gap_open + L * gap_extend``.

The sweep runs along the shorter sequence: one NumPy step per base of the
shorter sequence, vectorised over the longer one.  Gaps along the vector
are resolved with a running maximum (``max_k H[k] + k*ext``), so one
step is a handful of array operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Scheme:
    """Affine-gap DNA scoring: match > 0, mismatch <= 0, open >= 0, extend > 0."""

    match: int = 1
    mismatch: int = -3
    gap_open: int = 3
    gap_extend: int = 2

    def pair(self, x: int, y: int) -> int:
        return self.match if x == y and x < 4 else self.mismatch


DNA = Scheme()


def _sweep(outer: np.ndarray, inner: np.ndarray, s: Scheme):
    """Per outer base: the best H in that outer line and its first inner
    index.  Returns two arrays of length ``outer.size``."""
    n = inner.size
    ext, open_ = np.int64(s.gap_extend), np.int64(s.gap_open)
    ramp = np.arange(n + 1, dtype=np.int64) * ext   # k * ext, k = 0..n
    # One score row per outer base value (codes >= 4 mismatch everything).
    profile = [np.where((inner == x) & (inner < 4), s.match, s.mismatch)
               .astype(np.int64) for x in range(4)]
    profile.append(np.full(n, s.mismatch, dtype=np.int64))
    h_prev = np.zeros(n + 1, dtype=np.int64)         # H of the previous line
    f = np.full(n + 1, np.iinfo(np.int64).min // 4, dtype=np.int64)
    best = np.zeros(outer.size, dtype=np.int64)
    where = np.zeros(outer.size, dtype=np.int64)
    hat = np.zeros(n + 1, dtype=np.int64)
    for k, x in enumerate(outer):
        sub = profile[min(int(x), 4)]
        f = np.maximum(f, h_prev - open_) - ext       # gap across lines
        hat[1:] = np.maximum(np.maximum(h_prev[:-1] + sub, f[1:]), 0)
        # Gap along the line: E[j] = max_{q<j} hat[q] - open - (j-q)*ext.
        run = np.maximum.accumulate(hat + ramp)
        e = run[:-1] - ramp[1:] - open_
        h = hat.copy()
        h[1:] = np.maximum(hat[1:], e)
        j = int(np.argmax(h[1:]))
        best[k], where[k] = h[1 + j], j
        h_prev = h
    return best, where


def sw_reference(a: np.ndarray, b: np.ndarray, s: Scheme = DNA) -> tuple[int, int, int]:
    """Best local score and its end cell ``(score, i, j)``, 0-based.

    The end cell is the first best cell in row-major order of the
    ``a x b`` matrix (rows follow *a*); ``(0, -1, -1)`` when no pair of
    substrings scores above zero.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.size == 0 or b.size == 0:
        return 0, -1, -1
    if a.size <= b.size:
        best, where = _sweep(a, b, s)               # outer lines are rows
        score = int(best.max())
        if score <= 0:
            return 0, -1, -1
        i = int(np.argmax(best))                   # first row holding it
        return score, i, int(where[i])
    best, where = _sweep(b, a, s)                   # outer lines are columns
    score = int(best.max())
    if score <= 0:
        return 0, -1, -1
    cols = np.flatnonzero(best == score)
    rows = where[cols]
    first = int(np.argmin(rows))                   # lowest row, then column
    return score, int(rows[first]), int(cols[first])


def rescore_alignment(a: np.ndarray, b: np.ndarray, ops: str, start_i: int,
                      start_j: int, s: Scheme = DNA) -> tuple[int, int, int]:
    """Score an alignment given as ``M``/``D``/``I`` ops from its start.

    ``D`` consumes a base of *a*, ``I`` one of *b*.  Returns
    ``(score, end_i, end_j)`` with end-exclusive coordinates.
    """
    score = 0
    i, j = start_i, start_j
    prev = ""
    for op in ops:
        if op == "M":
            score += s.pair(int(a[i]), int(b[j]))
            i += 1
            j += 1
        elif op in "DI":
            score -= s.gap_extend + (s.gap_open if op != prev else 0)
            if op == "D":
                i += 1
            else:
                j += 1
        else:
            raise ValueError(f"unknown alignment op {op!r}")
        prev = op
    return score, i, j
