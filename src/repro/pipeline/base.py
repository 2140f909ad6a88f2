"""Pass and Pipeline: the compiler's composable spine.

A :class:`Pass` is one stage of Fig 18's workflow — placement, pattern
selection, greedy processing, ATA-suffix prediction, cost-F selection —
expressed as a stateless object with a ``run(context)`` method.  A
:class:`Pipeline` runs an ordered list of passes over one
:class:`~repro.pipeline.context.CompilationContext` and owns all the
cross-cutting plumbing the passes themselves should not care about:

* **per-pass timing** — each pass's wall-clock seconds, recorded both in
  ``extra["passes"]`` (one entry per pass run) and aggregated into the
  legacy ``extra["timings"]`` stage buckets;
* **cache-delta capture** — the hit/miss deltas of the process-local
  distance-matrix/pattern caches (:mod:`repro._telemetry`) per pass and
  for the compilation as a whole;
* **observability** — an optional ``on_pass_end(pass_, context, record)``
  callback fired after every pass, the seam for progress reporting,
  tracing, or future async execution.

A pass that had nothing to do (e.g. placement when an initial mapping was
supplied) returns ``False`` from ``run``; it still appears in
``extra["passes"]`` with ``skipped: True`` but does not contribute a
stage-timings bucket, which keeps ``extra["timings"]`` key-compatible
with the pre-pipeline compiler.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional

from .._deadline import check_deadline
from .._telemetry import measure_cache_delta
from ..compiler.result import CompiledResult
from ..resilience.faults import fault_point
from .context import CompilationContext

#: Signature of the ``on_pass_end`` observability callback.
PassObserver = Callable[["Pass", CompilationContext, Dict], None]


class Pass:
    """One composable compilation stage.

    Subclasses set :attr:`name` (unique within a pipeline run, used in
    ``extra["passes"]``) and optionally :attr:`stage` (the
    ``extra["timings"]`` bucket; several passes may share one bucket, as
    the two prediction passes do) and implement :meth:`run`.
    """

    #: Identity in ``extra["passes"]`` records.
    name: str = "pass"
    #: Timings bucket; ``None`` means "same as :attr:`name`".
    stage: Optional[str] = None

    @property
    def stage_name(self) -> str:
        return self.stage or self.name

    def run(self, context: CompilationContext) -> Optional[bool]:
        """Do this stage's work by mutating ``context``.

        Return ``False`` to mark the pass as skipped (recorded, but no
        stage-timings contribution); any other return value means the
        pass did real work.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class Pipeline:
    """An ordered list of passes plus the telemetry plumbing around them."""

    def __init__(
        self,
        passes: Iterable[Pass],
        name: str = "",
        on_pass_end: Optional[PassObserver] = None,
    ) -> None:
        self.passes: List[Pass] = list(passes)
        self.name = name
        self.on_pass_end = on_pass_end

    def run(self, context: CompilationContext) -> CompilationContext:
        """Run every pass in order, recording per-pass telemetry.

        Appends one record per pass to ``context.extras["passes"]``
        (``name`` / ``wall_s`` / ``cache`` / ``skipped``) and accumulates
        non-skipped wall time into ``context.extras["timings"]`` under
        each pass's stage bucket.
        """
        records = context.extras.setdefault("passes", [])
        timings = context.extras.setdefault("timings", {})
        for pass_ in self.passes:
            check_deadline()
            fault_point("pipeline.pass", pass_.name)
            started = time.perf_counter()
            with measure_cache_delta() as scope:
                outcome = pass_.run(context)
            wall_s = time.perf_counter() - started
            skipped = outcome is False
            record = {
                "name": pass_.name,
                "wall_s": wall_s,
                "cache": scope.delta(),
                "skipped": skipped,
            }
            records.append(record)
            if not skipped:
                bucket = pass_.stage_name
                timings[bucket] = timings.get(bucket, 0.0) + wall_s
            if self.on_pass_end is not None:
                self.on_pass_end(pass_, context, record)
        return context

    def compile(self, context: CompilationContext) -> CompiledResult:
        """Run the pipeline and package the context as a result.

        The whole-compilation cache delta lands in ``extra["cache"]``
        (the pre-pipeline compiler's field); per-pass deltas are inside
        ``extra["passes"]``.
        """
        started = time.perf_counter()
        with measure_cache_delta() as scope:
            self.run(context)
        context.extras["cache"] = scope.delta()
        return context.to_result(time.perf_counter() - started)

    def __repr__(self) -> str:
        stages = ", ".join(p.name for p in self.passes)
        return f"Pipeline({self.name!r}: {stages})"
