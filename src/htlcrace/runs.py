"""Run maps: a sorted list of runs (lo, hi, item), each holding `item` at
the indices lo .. hi - 1.

Runs are never empty and never overlap.  put and restate join a run with a
neighbour it meets whose item is equal, so a map written only through them
holds one run per stretch of alike items, and its cost follows the
stretches, not the indices.  Nothing here knows what the items are.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

_lo_of = itemgetter(0)


def overlap(runs: list, lo: int, hi: int) -> list:
    """(a, b, item) for each run holding indices a .. b - 1 of lo .. hi - 1,
    in order; none for an empty or inverted range."""
    if lo >= hi:
        return []
    k = bisect_right(runs, lo, key=_lo_of)
    if k and lo < runs[k - 1][1]:
        k -= 1
    out = []
    for a, b, x in runs[k:]:
        if a >= hi:
            break
        out.append((max(a, lo), min(b, hi), x))
    return out


def cut(runs: list, at: int) -> int:
    """Split the run holding index `at` so that one starts there; the
    position of the first run from `at` on."""
    k = bisect_left(runs, at, key=_lo_of)
    if k and at < runs[k - 1][1]:
        a, b, x = runs[k - 1]
        runs[k - 1:k] = (a, at, x), (at, b, x)
    return k


def take(runs: list, lo: int, hi: int) -> list:
    """Remove what the map holds of indices lo .. hi - 1; the runs removed."""
    if lo >= hi:
        return []
    if not runs or lo <= runs[0][0] and runs[-1][1] <= hi:  # the whole map
        taken = runs[:]
        runs.clear()
        return taken
    i, j = cut(runs, lo), cut(runs, hi)
    taken = runs[i:j]
    del runs[i:j]
    return taken


def put(runs: list, lo: int, hi: int, x) -> None:
    """Hold `x` at indices lo .. hi - 1, none of which the map holds yet."""
    if lo >= hi:
        return
    if not runs:
        runs.append((lo, hi, x))
        return
    i = j = bisect_left(runs, lo, key=_lo_of)
    if i and runs[i - 1][1] == lo and runs[i - 1][2] == x:
        i -= 1
        lo = runs[i][0]
    if j < len(runs) and runs[j][0] == hi and runs[j][2] == x:
        hi = runs[j][1]
        j += 1
    runs[i:j] = ((lo, hi, x),)


def restate(runs: list, lo: int, hi: int, f) -> None:
    """Replace the item x the map holds at each index of lo .. hi - 1 by
    f(x)."""
    for a, b, x in take(runs, lo, hi):
        put(runs, a, b, f(x))
