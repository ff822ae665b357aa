"""Pins the benchmark's reference scorer and span arithmetic.

Run from the repository root::

    python3 -m pytest ladderbench/test_reference.py -q

The brute-force scorer below is a direct transcription of the Gotoh
recurrences over Python lists; the vectorised reference must agree with
it on score and end cell for every pair.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from reference import DNA, Scheme, rescore_alignment, sw_reference
from spans import Spans

NEG = -(10 ** 9)


def brute(a, b, s: Scheme):
    """Full H/E/F matrices; returns (score, i, j, H, E, F) with the end
    cell first in row-major order, (0, -1, -1) when nothing scores."""
    m, n = len(a), len(b)
    H = [[0] * (n + 1) for _ in range(m + 1)]
    E = [[NEG] * (n + 1) for _ in range(m + 1)]
    F = [[NEG] * (n + 1) for _ in range(m + 1)]
    best = (0, -1, -1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            E[i][j] = max(E[i][j - 1], H[i][j - 1] - s.gap_open) - s.gap_extend
            F[i][j] = max(F[i - 1][j], H[i - 1][j] - s.gap_open) - s.gap_extend
            H[i][j] = max(0, E[i][j], F[i][j],
                          H[i - 1][j - 1] + s.pair(a[i - 1], b[j - 1]))
            if H[i][j] > best[0]:
                best = (H[i][j], i - 1, j - 1)
    return (*best, H, E, F)


def brute_ops(a, b, s: Scheme):
    """One optimal local alignment: (score, ops, start_i, start_j)."""
    score, i, j, H, E, F = brute(a, b, s)
    if score == 0:
        return 0, "", 0, 0
    i, j, state, ops = i + 1, j + 1, "H", []
    while True:
        if state == "H":
            if H[i][j] == 0:
                break
            if H[i][j] == H[i - 1][j - 1] + s.pair(a[i - 1], b[j - 1]):
                ops.append("M")
                i, j = i - 1, j - 1
            elif H[i][j] == F[i][j]:
                state = "F"
            else:
                state = "E"
        elif state == "F":                 # gap in b: consumes a[i-1]
            ops.append("D")
            opened = F[i][j] == H[i - 1][j] - s.gap_open - s.gap_extend
            i -= 1
            state = "H" if opened else "F"
        else:                              # gap in a: consumes b[j-1]
            ops.append("I")
            opened = E[i][j] == H[i][j - 1] - s.gap_open - s.gap_extend
            j -= 1
            state = "H" if opened else "E"
    return score, "".join(reversed(ops)), i, j


SCHEMES = [DNA, Scheme(2, -1, 0, 1), Scheme(1, -1, 5, 1), Scheme(3, 0, 2, 3)]


def random_pair(rng: random.Random, similar: bool):
    m, n = rng.randint(1, 24), rng.randint(1, 24)
    a = [rng.choice([0, 1, 2, 3, 3, 2, 1, 0, 4]) for _ in range(m)]
    if similar:
        b = [x if rng.random() > 0.2 else rng.randint(0, 4) for x in a]
        b = b[rng.randint(0, m - 1):][:n] or [0]
    else:
        b = [rng.randint(0, 4) for _ in range(n)]
    return a, b


@pytest.mark.parametrize("scheme", SCHEMES)
def test_reference_matches_brute_force(scheme):
    rng = random.Random(hash(scheme) & 0xFFFF)
    for k in range(300):
        a, b = random_pair(rng, similar=k % 2 == 0)
        want = brute(a, b, scheme)[:3]
        got = sw_reference(np.array(a, np.uint8), np.array(b, np.uint8),
                           scheme)
        assert got == want, (a, b)


def test_orientation_does_not_change_the_score():
    rng = random.Random(7)
    for _ in range(100):
        a, b = random_pair(rng, similar=True)
        a, b = np.array(a, np.uint8), np.array(b, np.uint8)
        assert sw_reference(a, b)[0] == sw_reference(b, a)[0]


def test_ties_resolve_to_first_cell_in_row_major_order():
    # Every matching base scores 1: the first match in row-major order
    # wins, whichever sequence is the shorter one.
    a = np.array([0, 1, 0], np.uint8)
    b = np.array([2, 0, 3, 0, 2, 1, 1], np.uint8)
    assert sw_reference(a, b) == brute(list(a), list(b), DNA)[:3]
    assert sw_reference(b, a) == brute(list(b), list(a), DNA)[:3]


def test_n_never_matches_and_empty_inputs_score_zero():
    n4 = np.array([4, 4, 4], np.uint8)
    assert sw_reference(n4, n4) == (0, -1, -1)
    assert sw_reference(np.array([], np.uint8), n4) == (0, -1, -1)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_rescore_recovers_brute_force_alignments(scheme):
    rng = random.Random(11)
    for _ in range(200):
        a, b = random_pair(rng, similar=True)
        score, ops, si, sj = brute_ops(a, b, scheme)
        got, ei, ej = rescore_alignment(a, b, ops, si, sj, scheme)
        assert got == score
        assert (ei - si, ej - sj) == (ops.count("M") + ops.count("D"),
                                      ops.count("M") + ops.count("I"))


def test_rescore_charges_one_open_per_gap_run():
    a, b = [0, 1, 2, 3, 0], [0, 3, 0]
    # M D D M M: one gap of length 2 costs open + 2 * extend.
    assert rescore_alignment(a, b, "MDDMM", 0, 0)[0] == 3 - (3 + 2 * 2)
    # A D right after an I opens a new gap.
    assert rescore_alignment([0, 1], [2, 0], "IDM", 0, 0)[0] == -10 - 3


def test_self_time_subtracts_the_union_of_children():
    spans = Spans(True)
    root = spans.add("bench", "round", 0.0, 10.0)
    spans.add("sw.kernel", "a", 1.0, 4.0, root)
    spans.add("sw.kernel", "b", 3.0, 5.0, root)   # overlaps a
    child = spans.add("multigpu.pool", "c", 6.0, 9.0, root)
    spans.add("serve", "d", 7.0, 8.0, child)
    assert spans.self_times() == {"bench": 3.0, "sw.kernel": 5.0,
                                  "multigpu.pool": 2.0, "serve": 1.0}


def test_disabled_spans_record_nothing():
    spans = Spans(False)
    with spans.span("bench", "x") as sid:
        assert sid is None
    assert spans.records == []
