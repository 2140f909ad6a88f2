"""The serve mix: ``CompileService.handle`` driven in-process.

One process-pool worker compiles (``timeout_s`` armed), two clients run
a closed loop on one event loop, and every pass starts from a fresh
``ResultStore``.  A pass is the fixed request list of
:func:`workloads.serve_mix`; passes repeat while the fastest pass so far
still fits in the time left.  The measured passes are all but the first,
which warms the worker's caches; ``run.py`` turns them into the
end-to-end figures.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

from check import canonical
from sweep import compile_counts, pass_walls
from tracer import REQUEST, Tracer, install_serve_layers, set_request
from workloads import serve_mix

#: The worker's per-job deadline; far above any request in the mix.
TIMEOUT_S = 120.0

EXPECTED = {"new": "compiled", "repeat": "store"}


class ServeState:
    """Imports, request lists and a warm one-worker pool."""

    def __init__(self, seed: int, limit: Optional[int],
                 tracer: Optional[Tracer], out_dir: Path) -> None:
        from repro.batch import BatchJob
        from repro.batch.pool import PersistentPool
        from repro.serve.service import CompileService
        from repro.serve.store import ResultStore

        self.service_type = CompileService
        self.store_type = ResultStore
        self.clients = [slots[:limit] for slots in serve_mix(seed)]
        self.out_dir = out_dir
        self.pool = PersistentPool(workers=1, executor="process",
                                   timeout_s=TIMEOUT_S)
        # The worker imports the compiler on its first job.
        self.pool.submit(BatchJob(arch="grid", n_qubits=16, workload="reg",
                                  density=0.2, layers=3)).result()

    def close(self) -> None:
        self.pool.close()


def worker_peak_rss_mb() -> float:
    """Largest peak RSS among this process's live children (the worker)."""
    peak = 0.0
    me = str(os.getpid())
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            status = (entry / "status").read_text()
        except OSError:
            continue
        fields = dict(line.split(":", 1) for line in status.splitlines()
                      if ":" in line)
        if fields.get("PPid", "").strip() == me and "VmHWM" in fields:
            peak = max(peak, int(fields["VmHWM"].split()[0]) / 1024.0)
    return peak


async def _one_pass(service, clients, pass_no: int) -> List[Dict]:
    barrier = asyncio.Barrier(len(clients))
    records: List[Dict] = []

    async def client(cid: int, slots) -> None:
        for k, slot in enumerate(slots):
            if slot.kind == "pair":
                await barrier.wait()
            rid = f"p{pass_no}-c{cid}-{k}"
            set_request(rid)
            t0 = time.perf_counter()
            response = await service.handle(slot.request(rid))
            records.append({"rid": rid, "kind": slot.kind,
                            "spec": slot.payload,
                            "latency_s": time.perf_counter() - t0,
                            "response": response})

    await asyncio.gather(*(client(cid, slots)
                           for cid, slots in enumerate(clients)))
    return records


def _check_pass(records: List[Dict], reference: Dict) -> List[str]:
    """Failures in one pass; fills ``reference`` (spec -> counts) on the
    first pass and holds later passes to it."""
    failures = []
    produced: Dict[tuple, str] = {}
    for record in records:
        response = record["response"]
        if response.get("served_from") == "compiled" and response.get("ok"):
            produced[record["spec"]] = canonical(response["result"])
    pair_sources: Dict[tuple, Counter] = {}
    for record in records:
        response, spec = record["response"], record["spec"]
        where = response.get("served_from")
        if not response.get("ok"):
            failures.append(f"{record['rid']}: {response.get('error_type')}"
                            f" {response.get('error')}")
            continue
        if record["kind"] == "pair":
            pair_sources.setdefault(spec, Counter())[where] += 1
        elif where != EXPECTED[record["kind"]]:
            failures.append(f"{record['rid']}: {record['kind']} request "
                            f"served from {where}")
            continue
        if where != "compiled" and canonical(
                response["result"]) != produced.get(spec):
            failures.append(f"{record['rid']}: {where} payload differs from "
                            "the compile that produced it")
            continue
        result = response["result"]["record"]
        counts = (result["depth"], result["cx"], result["swaps"])
        if reference.setdefault(spec, counts) != counts:
            failures.append(f"{record['rid']}: counts differ between passes")
    for spec, sources in pair_sources.items():
        if sources != Counter({"compiled": 1, "inflight": 1}):
            failures.append(f"pair {dict(spec)} served as {dict(sources)}")
    return failures


def run(state: ServeState, seconds: float,
        tracer: Optional[Tracer]) -> Dict:
    """Whole passes while the fastest one so far fits in ``seconds``.

    Pass 0 fills the worker's caches: it is checked, but its times are
    left out of the figures.  At least one measured pass follows; when
    traced, measured passes alternate traced and untraced, and at least
    one of each runs.
    """
    return asyncio.run(_run(state, seconds, tracer))


async def _run(state: ServeState, seconds: float,
               tracer: Optional[Tracer]) -> Dict:
    passes: List[Dict] = []
    reference: Dict[tuple, tuple] = {}
    min_passes = 3 if tracer is not None else 2
    started = time.perf_counter()
    fastest = float("inf")
    while (len(passes) < min_passes
           or time.perf_counter() - started + fastest <= seconds):
        pass_no = len(passes)
        traced = tracer is not None and pass_no % 2 == 1
        store_dir = state.out_dir / f"store-{os.getpid()}-{pass_no}"
        service = state.service_type(state.pool,
                                     state.store_type(store_dir))
        submitted = state.pool.submitted
        if traced:
            install_serve_layers(tracer)
        t0 = time.perf_counter()
        try:
            records = await _one_pass(service, state.clients, pass_no)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            shutil.rmtree(store_dir, ignore_errors=True)
        if pass_no:
            fastest = min(fastest, wall)
        failures = _check_pass(records, reference)
        summary = {"warmup": pass_no == 0, "traced": traced, "wall_s": wall,
                   "records": records, "failures": failures,
                   "submitted": state.pool.submitted - submitted}
        if traced:
            summary["layers"] = _layer_values(tracer, records)
        passes.append(summary)
    return {"passes": passes, "peak_rss_children_mb": worker_peak_rss_mb()}


def _layer_values(tracer: Tracer, records: List[Dict]) -> Dict[str, float]:
    """Per-layer totals of one traced pass.

    Spans cover the serve side.  The compile layers run in the worker,
    where no span is visible; their pass times and counts come from the
    worker's own ``extra`` and cache deltas in each compiled payload.
    """
    rids = {r["rid"] for r in records}
    followers = {r["rid"] for r in records
                 if r["response"].get("served_from") == "inflight"}
    spans = [i for i, span in enumerate(tracer.spans)
             if span[REQUEST] in rids]
    totals = tracer.totals(spans)
    # A follower's handle span is mostly waiting on its leader.
    handle = tracer.totals([i for i in spans
                            if tracer.spans[i][REQUEST] not in followers])
    out: Dict[str, float] = {
        f"{name}.self_s": totals.get(name, {"self": 0.0})["self"]
        for name in ("serve.normalize_request",
                     "resilience.spec_fingerprint", "serve.store.get",
                     "serve.store.put", "serve.result_response")}
    out["serve.handle.self_s"] = handle.get("serve.handle",
                                            {"self": 0.0})["self"]
    out["batch.pool.wait_s"] = totals.get("batch.pool.wait",
                                          {"wall": 0.0})["wall"]
    served = Counter(r["response"].get("served_from") for r in records)
    out["serve.store.hit_ratio"] = served["store"] / len(records)
    out["serve.inflight_dedupe.count"] = served["inflight"]
    compiled = [r["response"]["result"] for r in records
                if r["response"].get("served_from") == "compiled"
                and r["response"].get("ok")]
    for result in compiled:
        extra = result["record"].get("extra", {})
        for name, wall_s in pass_walls(extra).items():
            key = f"pipeline.{name}.wall_s"
            out[key] = out.get(key, 0.0) + wall_s
        for name, value in compile_counts(extra).items():
            out[name] = out.get(name, 0) + value
        for cache, name in (("distance_matrix", "arch.distance_cache.misses"),
                            ("pattern", "ata.pattern_cache.misses")):
            out[name] = out.get(name, 0) + result["cache"].get(
                cache, {}).get("misses", 0)
    return out
