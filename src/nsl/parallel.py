"""Deterministic parallel reduction over row blocks.

All pairwise energies in this package reduce a function of (row block) to a
scalar or an array. The contract that makes results independent of the worker
count:

  * rows are partitioned into fixed-size blocks, the partition depends only
    on n (never on the worker count);
  * each block partial is computed by the same vectorized code path;
  * partials are combined pairwise in block-index order (tree reduction).

The block partition is the numeric contract; the tile height is not. The row
route of the pair sums and the ball windows form a block a tile at a time
(tiles: runs of rows, or of columns, of at most TILE entries), so their block
temporaries do not grow with n. Each row, or column, is reduced whole inside
one tile, so no value depends on where the tiles fall, except verify's
segment integrals, one per tile, in their last bits.

Workers are threads: the heavy lifting is numpy code that releases the GIL.
``NSL_WORKERS`` (or :func:`set_workers`) sets the ambient worker count; every
computation yields bit-identical results for any value of it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

# Rows per block. Fixed: changing it changes the partial-sum association and
# therefore the exact float result, so it is part of the numeric contract.
BLOCK_ROWS = 128

# Entries of one tile (256 KiB of float64): the bound on a block's temporaries, whatever n is.
TILE = 2**15

_workers = 1


def set_workers(count: int) -> None:
    """Set the ambient worker count (>= 1)."""
    global _workers
    if count < 1:
        raise ValueError(f"worker count must be >= 1, got {count}")
    _workers = int(count)


def get_workers() -> int:
    """Ambient worker count; NSL_WORKERS overrides :func:`set_workers`."""
    env = os.environ.get("NSL_WORKERS")
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"NSL_WORKERS must be an integer, got {env!r}") from exc
        if value < 1:
            raise ValueError(f"NSL_WORKERS must be >= 1, got {value}")
        return value
    return _workers


def row_blocks(n: int) -> list[tuple[int, int]]:
    """Fixed partition of range(n) into [start, stop) blocks."""
    return [(a, min(a + BLOCK_ROWS, n)) for a in range(0, n, BLOCK_ROWS)]


def tiles(a: int, b: int, size: int, least: int = 1) -> list[tuple[int, int]]:
    """[start, stop) runs that split a..b, each of max(least, TILE // size) steps of size
    entries; a last run shorter than least joins the one before it."""
    starts = list(range(a, b, max(least, TILE // size)))
    if len(starts) > 1 and b - starts[-1] < least:
        starts.pop()
    return list(zip(starts, starts[1:] + [b]))


def tree_sum(parts: Sequence[T]) -> T:
    """Sum a sequence pairwise in index order.

    The association is a balanced binary tree over the given order, so the
    result is a pure function of the sequence (not of scheduling).
    """
    items = list(parts)
    if not items:
        raise ValueError("tree_sum of an empty sequence")
    while len(items) > 1:
        items = [
            items[i] + items[i + 1] if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


def map_blocks(n: int, fn: Callable[[int, int], T], workers: int | None = None) -> list[T]:
    """Evaluate ``fn(start, stop)`` on every row block, in block order."""
    blocks = row_blocks(n)
    count = get_workers() if workers is None else workers
    if count <= 1 or len(blocks) <= 1:
        return [fn(a, b) for a, b in blocks]
    with ThreadPoolExecutor(max_workers=count) as pool:
        return list(pool.map(lambda ab: fn(*ab), blocks))


def block_reduce(n: int, fn: Callable[[int, int], T], workers: int | None = None) -> T:
    """Tree-reduce block partials of ``fn`` over a fixed row partition."""
    return tree_sum(map_blocks(n, fn, workers))
