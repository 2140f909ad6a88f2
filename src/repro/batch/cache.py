"""Batch-facing view of the process-local compilation caches.

Thin re-exports over :mod:`repro._telemetry` plus the per-site accessors,
so batch users have one import for "what is cached and how well is it
hitting".  The sites:

* ``distance_matrix`` — BFS all-pairs matrices, keyed by
  ``(kind, n_qubits, edge set)`` (:mod:`repro.arch.coupling`).
* ``pattern`` — constructed ATA pattern objects, keyed by
  ``(kind, n_qubits, frozen metadata)`` (:mod:`repro.ata.registry`).

Caches are per-process: each pool worker warms its own copy (and, under
the ``fork`` start method, inherits the parent's entries for free).

Per-request attribution uses :func:`measure_cache_delta` — a
thread-scoped tally that only sees events raised on the opening thread,
so concurrent requests in one process (thread executor, the serve
daemon) never absorb each other's hits the way subtracting two global
:func:`cache_info` snapshots would.
"""

from __future__ import annotations

from .._telemetry import (CacheDeltaScope, cache_info, clear_caches,
                          measure_cache_delta)
from ..arch.coupling import clear_distance_cache, distance_cache_info
from ..ata.registry import (clear_pattern_cache, pattern_cache_info,
                            pattern_cache_key)

__all__ = [
    "cache_info",
    "CacheDeltaScope",
    "measure_cache_delta",
    "clear_caches",
    "distance_cache_info",
    "clear_distance_cache",
    "pattern_cache_info",
    "clear_pattern_cache",
    "pattern_cache_key",
]
