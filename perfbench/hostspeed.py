"""How fast the shared host runs Python right now.

The host the benchmark was tuned on is shared, and its speed flips between
two levels almost 2x apart every second or so, alike for every kind of
Python work. ``factor()`` times a fixed reference task, none of it the
package's code, and returns by how much a time measured now must be scaled
to read as it would when the task takes ``REFERENCE_S`` (its time on that
host when fast).
"""

from __future__ import annotations

import gc
import re
import time
from dataclasses import dataclass

REFERENCE_S = 0.0045

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|<-|[(),.]")
_TEXT = " ".join(f"R{i % 5}(x{i},y{i % 7}), S(y{i % 7},z{i % 3})." for i in range(200))


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str


def _queens(n: int, row: int = 0, cols: tuple = (), d1=frozenset(), d2=frozenset()) -> int:
    if row == n:
        return 1
    return sum(
        _queens(n, row + 1, cols + (c,), d1 | {row + c}, d2 | {row - c})
        for c in range(n)
        if c not in cols and row + c not in d1 and row - c not in d2
    )


def reference_task() -> int:
    """Fixed work in the program's style: tokenizing into frozen records,
    hashing tuples and frozensets, sorting, and a backtracking search."""
    tokens = [_Token(m.group()[0], m.group()) for m in _TOKEN.finditer(_TEXT)]
    table: dict = {}
    for i, token in enumerate(tokens):
        table.setdefault((token.text, i % 7), []).append(frozenset((i, i % 11)))
    return _queens(6) + len(sorted(table, key=lambda k: (k[1], k[0]))) + len(set(tokens))


def factor() -> float:
    """REFERENCE_S over the reference task's time now (best of two, so one
    preemption does not count)."""
    best = float("inf")
    gc.disable()  # time the host, not a collection of the program's heap
    try:
        for _ in range(2):
            start = time.perf_counter()
            reference_task()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return REFERENCE_S / best
