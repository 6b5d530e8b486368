"""Optional thread dispatch for independent work items.

Quadrature-fallback rows of a number table and the click numbers of the
squeezed direct route are independent; when SNSPD_THREADS is set above 1
they run on a thread pool (numpy releases the GIL for the heavy array
work) and are collected in index order, so results are identical to the
serial path.  Renewal rows come from one pass and never reach the pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    raw = os.environ.get("SNSPD_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map_indexed(fn, items):
    """Apply fn to each item, preserving order; threaded if configured."""
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
