"""Spans recorded from outside the program, around calls into each layer.

A :class:`Tracer` replaces public entry points of the ``repro`` layers
with thin wrappers that record one span per call: name, start, end,
parent span and request id.  The parent and request id travel in
``contextvars`` so that coroutines interleaved on one event loop (the
two serve clients) each keep their own span stack.  Spans stay in
memory; self time and the Chrome trace-event file are computed after
the run.  Uninstalling restores every patched attribute.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

_parent: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_parent", default=None)
_request: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "perfbench_request", default=None)

#: Index of each field in a span record.
NAME, START, END, PARENT, REQUEST = range(5)


def set_request(request_id: Optional[str]) -> None:
    """Tag every span opened from here on (in this context) with an id."""
    _request.set(request_id)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, request_id]`` per span.
        self.spans: List[list] = []
        self._undo: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, nest: bool = True):
        """Start a span; with ``nest`` it becomes the parent of later ones."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, _parent.get(),
                           _request.get()])
        return index, (_parent.set(index) if nest else None)

    def close(self, index: int, token=None) -> None:
        self.spans[index][END] = time.perf_counter()
        if token is not None:
            _parent.reset(token)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span around every call (coroutines included)."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                index, token = self.open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.close(index, token)
            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index, token = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index, token)
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_call(self, owner: Any, attr: str, name: str) -> None:
        """Wrap the function or method ``owner.attr`` in a span."""
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def request_spans(self, request_id: str) -> List[int]:
        return [i for i, span in enumerate(self.spans)
                if span[REQUEST] == request_id]

    def totals(self, indices: List[int]) -> Dict[str, Dict[str, float]]:
        """Per span name: ``wall`` (inclusive), ``self`` and ``calls``.

        Self time is a span's duration minus the part of its interval
        that its child spans cover.
        """
        children: Dict[int, List[int]] = defaultdict(list)
        for i in indices:
            parent = self.spans[i][PARENT]
            if parent is not None:
                children[parent].append(i)
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"wall": 0.0, "self": 0.0, "calls": 0})
        for i in indices:
            name, start, end = self.spans[i][:3]
            if end is None:
                continue
            covered, reach = 0.0, start
            for c_start, c_end in sorted(
                    (self.spans[c][START], self.spans[c][END])
                    for c in children.get(i, ())
                    if self.spans[c][END] is not None):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            entry = out[name]
            entry["wall"] += end - start
            entry["self"] += end - start - covered
            entry["calls"] += 1
        return dict(out)

    def write_chrome_trace(self, path: str) -> None:
        """All spans as Chrome trace-event JSON (Perfetto loads it)."""
        pid = os.getpid()
        lanes: Dict[Optional[str], int] = {}
        events = []
        for index, (name, start, end, parent, request) in enumerate(
                self.spans):
            if end is None:
                continue
            events.append({
                "name": name, "ph": "X", "pid": pid,
                "tid": lanes.setdefault(request, len(lanes)),
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent,
                         "request": request},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


def install_compile_layers(tracer: Tracer) -> None:
    """Spans around the pipeline passes and the compile-layer calls.

    The passes bind ``greedy_compile``, ``quadratic_placement``,
    ``get_pattern``, ``candidate_metrics``, ``ata_suffix`` and
    ``score_candidates`` by ``from``-import, so the names are wrapped
    where the passes look them up.  ``distance_matrix`` is a property
    read on every distance lookup; only reads that compute (the
    instance has no matrix yet) open a span.
    """
    import repro.pipeline as pipeline
    from repro.arch.coupling import CouplingGraph
    from repro.pipeline import greedy, placement, prediction, selection

    for cls in (pipeline.PlacementPass, pipeline.PatternPass,
                pipeline.PredictionPass, pipeline.GreedyPass,
                pipeline.CandidatePass, pipeline.SelectionPass,
                pipeline.AssemblyPass):
        tracer.patch_call(cls, "run", f"pipeline.{cls.name}")
    tracer.patch_call(greedy, "greedy_compile", "compiler.greedy_compile")
    tracer.patch_call(placement, "quadratic_placement",
                      "compiler.quadratic_placement")
    tracer.patch_call(placement, "get_pattern", "ata.get_pattern")
    tracer.patch_call(prediction, "candidate_metrics",
                      "ata.candidate_metrics")
    tracer.patch_call(prediction, "ata_suffix", "compiler.ata_suffix")
    tracer.patch_call(selection, "score_candidates",
                      "compiler.score_candidates")

    prop = CouplingGraph.__dict__["distance_matrix"]
    timed = tracer.wrap("arch.distance_matrix", prop.fget)

    def distance_matrix(coupling: CouplingGraph):
        if coupling._distances is not None:
            return coupling._distances
        return timed(coupling)

    tracer.patch(CouplingGraph, "distance_matrix",
                 property(distance_matrix, doc=prop.__doc__))


def install_serve_layers(tracer: Tracer) -> None:
    """Spans around the serve request path, the store and the pool.

    ``batch.pool.wait`` runs from submit until the worker's result
    arrives: pickling, queueing and the worker's compile.  It is a leaf
    whose end is stamped by the future's done-callback.
    """
    from repro.batch.pool import PersistentPool
    from repro.serve import service
    from repro.serve.store import ResultStore

    tracer.patch_call(service.CompileService, "handle", "serve.handle")
    tracer.patch_call(service, "normalize_request",
                      "serve.normalize_request")
    tracer.patch_call(service, "spec_fingerprint",
                      "resilience.spec_fingerprint")
    tracer.patch_call(service, "result_response", "serve.result_response")
    tracer.patch_call(ResultStore, "get", "serve.store.get")
    tracer.patch_call(ResultStore, "put", "serve.store.put")

    submit = PersistentPool.submit

    @functools.wraps(submit)
    def traced_submit(pool: PersistentPool, job):
        index, _ = tracer.open("batch.pool.wait", nest=False)
        future = submit(pool, job)
        future.add_done_callback(lambda _future: tracer.close(index))
        return future

    tracer.patch(PersistentPool, "submit", traced_submit)
