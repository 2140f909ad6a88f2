"""Append-only, schema-versioned benchmark trajectories.

A trajectory file is a JSON document::

    {
      "schema": 1,
      "benchmark": "compiler",            # stamped by the first append
      "runs": [ {run record}, ... ]       # chronological, append-only
    }

Run records are free-form dictionaries produced by the bench scripts;
:func:`append_run` stamps each with the schema version, a monotonically
increasing ``run_id``, a UTC timestamp, and the recording interpreter /
platform so records from different machines are distinguishable.
"""

from __future__ import annotations

import datetime
import json
import platform
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..exceptions import SpecificationError

SCHEMA_VERSION = 1

PathLike = Union[str, Path]
Run = Dict[str, Any]
Trajectory = Dict[str, Any]


def _empty_trajectory(benchmark: str) -> Trajectory:
    return {"schema": SCHEMA_VERSION, "benchmark": benchmark, "runs": []}


def read_trajectory(path: PathLike, benchmark: str = "") -> Trajectory:
    """Load the trajectory at ``path``.

    A missing file yields an empty trajectory.  A document without a
    ``schema`` key, or with an unknown *newer* schema, raises
    :class:`SpecificationError` so stale tooling fails loudly instead of
    clobbering records it does not understand.
    """
    path = Path(path)
    if not path.exists():
        return _empty_trajectory(benchmark)
    document = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(document, dict) or "schema" not in document:
        raise SpecificationError(
            f"{path} is not a benchmark trajectory (no 'schema' key)")
    if document["schema"] > SCHEMA_VERSION:
        raise SpecificationError(
            f"{path} has trajectory schema {document['schema']}; this "
            f"tool understands <= {SCHEMA_VERSION}")
    document.setdefault("benchmark", benchmark)
    document.setdefault("runs", [])
    return document


def append_run(path: PathLike, run: Run, benchmark: str = "") -> Trajectory:
    """Append one run record to the trajectory at ``path`` and write it.

    The record is stamped with ``schema``, ``run_id``, ``recorded_at``
    (UTC ISO-8601) and ``environment``; caller-provided keys win on
    conflict (pinned timestamps in tests, for example).  Returns the
    full, freshly written trajectory.
    """
    path = Path(path)
    trajectory = read_trajectory(path, benchmark=benchmark)
    stamped: Run = {
        "schema": SCHEMA_VERSION,
        "run_id": len(trajectory["runs"]) + 1,
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
    }
    stamped.update(run)
    trajectory["runs"].append(stamped)
    path.write_text(json.dumps(trajectory, indent=2) + "\n",
                    encoding="utf-8")
    return trajectory


def latest_run(trajectory: Trajectory,
               mode: Optional[str] = None) -> Optional[Run]:
    """The most recent run (optionally restricted to ``mode``)."""
    runs: List[Run] = trajectory.get("runs", [])
    for run in reversed(runs):
        if mode is None or run.get("mode") == mode:
            return run
    return None


def baseline_run(trajectory: Trajectory,
                 mode: Optional[str] = None) -> Optional[Run]:
    """The earliest run labelled ``baseline`` (optionally by ``mode``).

    Falls back to the earliest run of the requested mode when no run
    carries the explicit label — the first record of a trajectory *is*
    the baseline by construction.
    """
    runs: List[Run] = trajectory.get("runs", [])
    for run in runs:
        if mode is not None and run.get("mode") != mode:
            continue
        if run.get("label") == "baseline":
            return run
    for run in runs:
        if mode is None or run.get("mode") == mode:
            return run
    return None
