"""Contiguous sharding of a fault sample across evaluation workers.

A *shard* is a contiguous run of the sampled fault list: the unit of
work shipped to one pool worker, which scores every candidate against
it with the population pass.  Every fault's observables are computed
in its own slot, independently of its neighbours, so the shards'
per-candidate sums equal the serial pass over the whole sample bit for
bit.
"""

from __future__ import annotations

from typing import List, Tuple


def plan_shards(n_items: int, jobs: int) -> List[Tuple[int, int]]:
    """Split ``n_items`` sample faults into at most ``jobs`` contiguous shards.

    Returns ``(start, stop)`` half-open index ranges, in order, covering
    ``range(n_items)`` exactly once.  Shard sizes differ by at most one
    item (the first ``n_items % jobs`` shards get the extra), so worker
    loads stay balanced.  Fewer than ``jobs`` shards are returned when
    there are fewer items than workers.

    >>> plan_shards(5, 2)
    [(0, 3), (3, 5)]
    >>> plan_shards(2, 4)
    [(0, 1), (1, 2)]
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if n_items < 0:
        raise ValueError("n_items must be >= 0")
    if n_items == 0:
        return []
    n_shards = min(jobs, n_items)
    base, extra = divmod(n_items, n_shards)
    shards: List[Tuple[int, int]] = []
    start = 0
    for i in range(n_shards):
        stop = start + base + (1 if i < extra else 0)
        shards.append((start, stop))
        start = stop
    return shards
