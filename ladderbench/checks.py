"""Output checks: every result is compared with the reference scorer or
with a property that must hold, never with a stored copy of an output."""

from __future__ import annotations

import threading

from reference import rescore_alignment


class Checks:
    """Collects failed checks; ``ok`` is the run's ``correct`` field."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed = 0
        self._lock = threading.Lock()

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, cond: bool, what: str) -> None:
        with self._lock:
            if cond:
                self.passed += 1
            else:
                self.failures.append(what)

    def exact(self, pair, score: int, row: int, col: int, what: str) -> None:
        """Score and end cell equal the reference scorer's."""
        got = (int(score), int(row), int(col))
        self.expect(got == pair.ref,
                    f"{what} on {pair.name}: got {got}, reference {pair.ref}")

    def heuristic(self, pair, score: int, must_equal: bool, what: str) -> None:
        """A banded or auto score never exceeds the exact one."""
        exact = pair.ref[0]
        ok = score == exact if must_equal else score <= exact
        self.expect(ok, f"{what} on {pair.name}: score {score} against "
                        f"exact {exact}")

    def alignment(self, pair, aln, what: str) -> None:
        """The alignment re-scores to its reported score, which is the
        exact score, and its spans match its ops."""
        score, end_i, end_j = rescore_alignment(
            pair.a, pair.b, aln.ops, aln.start_i, aln.start_j)
        self.expect(
            (score, end_i, end_j) == (aln.score, aln.end_i, aln.end_j)
            and aln.score == pair.ref[0],
            f"{what} on {pair.name}: re-scored {(score, end_i, end_j)}, "
            f"reported {(aln.score, aln.end_i, aln.end_j)}, "
            f"exact {pair.ref[0]}")
