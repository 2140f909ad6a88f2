"""The compile sweep: serial in-process hybrid compiles.

Each request is a cold single compile: the distance-matrix and pattern
caches are cleared and the device is rebuilt before it, outside the
timer.  The request list is compiled once in full, then again from the
top while time remains; each request's time is the fastest of its
samples (the README says why).  The first pass is checked and gives the
exact counts; later passes must reproduce its counts.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Optional

from check import check_compiled
from tracer import Tracer, install_compile_layers, set_request
from workloads import build_problem, sparse_sweep

#: Functions whose self time is reported, keyed by span name.
SELF_TIMED = ("ata.candidate_metrics", "compiler.greedy_compile",
              "compiler.quadratic_placement", "compiler.ata_suffix",
              "compiler.score_candidates", "arch.distance_matrix",
              "ata.get_pattern")


def compile_counts(extra: Dict) -> Dict[str, float]:
    """Work counts the program reports about one hybrid compile."""
    candidates = extra.get("candidates", {})
    return {
        "compiler.greedy.cycles": extra.get("greedy_cycles", 0),
        "compiler.greedy.snapshots": candidates.get("snapshots_total", 0),
        "snapshots_sampled": candidates.get("snapshots_sampled", 0),
        "n_candidates": extra.get("n_candidates", 0),
    }


def pass_walls(extra: Dict) -> Dict[str, float]:
    return {record["name"]: record["wall_s"]
            for record in extra.get("passes", [])}


class SweepState:
    """Imports, inputs and warm-up: everything before the first timer."""

    def __init__(self, seed: int, limit: Optional[int],
                 tracer: Optional[Tracer]) -> None:
        from repro.arch import architecture_for
        from repro.arch.coupling import (clear_distance_cache,
                                         distance_cache_info)
        from repro.ata.registry import clear_pattern_cache, pattern_cache_info
        from repro.compiler import compile_qaoa
        from repro.problems import regular_problem_graph

        self.architecture_for = architecture_for
        self.compile_qaoa = compile_qaoa
        self.clear = (clear_distance_cache, clear_pattern_cache)
        self.cache_info = (distance_cache_info, pattern_cache_info)
        self.requests = sparse_sweep(seed)[:limit]
        generate_problem = build_problem if tracer is None \
            else tracer.wrap("problems.generate", build_problem)
        self.problems = [generate_problem(r) for r in self.requests]
        # Pull in every lazily imported module on a small compile.
        compile_qaoa(architecture_for("grid", 16),
                     regular_problem_graph(16, 3, seed=0), method="hybrid",
                     layers=3)

    def close(self) -> None:
        pass


def run(state: SweepState, seconds: float,
        tracer: Optional[Tracer]) -> Dict:
    """Measure for ``seconds`` (at least one full pass; two when traced,
    alternating traced and untraced passes).  After those, a request is
    started only if its fastest time so far still fits in ``seconds``."""
    requests = state.requests
    n = len(requests)
    times: List[Dict[bool, List[float]]] = [{True: [], False: []}
                                            for _ in requests]
    layers: List[List[Dict[str, float]]] = [[] for _ in requests]
    first: List[Optional[Dict]] = [None] * n
    failures: List[str] = []
    sanity = {"pass_agreement_max_rel": 0.0, "coverage_min": 1.0}
    attempted = 0
    fastest = [float("inf")] * n
    min_passes = 2 if tracer is not None else 1
    started = time.perf_counter()

    def schedule():
        pass_no = 0
        while True:
            for i in range(n):
                if (pass_no >= min_passes and time.perf_counter() - started
                        + fastest[i] > seconds):
                    return
                yield pass_no, i
            pass_no += 1

    for pass_no, i in schedule():
        request = requests[i]
        traced = tracer is not None and pass_no % 2 == 0
        for clear in state.clear:
            clear()
        gc.collect()  # start each compile from the same heap state
        coupling = state.architecture_for(request.arch, request.n_qubits)
        rid = f"p{pass_no}-r{i}"
        if traced:
            install_compile_layers(tracer)
            set_request(rid)
        attempted += 1
        t0 = time.perf_counter()
        try:
            result = state.compile_qaoa(coupling, state.problems[i],
                                        method="hybrid",
                                        layers=request.layers)
        except Exception as exc:  # a failed compile is a failed request
            failures.append(f"{request.label}: {type(exc).__name__}: {exc}")
            continue
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                set_request(None)
                tracer.uninstall()
        times[i][traced].append(elapsed)
        fastest[i] = min(fastest[i], elapsed)
        record = {
            "label": request.label,
            "depth": result.depth(),
            "cx": result.gate_count,
            "swaps": result.swap_count,
            **compile_counts(result.extra),
            "arch.distance_cache.misses": state.cache_info[0]()["misses"],
            "ata.pattern_cache.misses": state.cache_info[1]()["misses"],
        }
        if first[i] is None:
            record["problems"] = check_compiled(
                coupling, state.problems[i], result, request.layers)
            first[i] = record
        elif any(record[k] != first[i][k] for k in ("depth", "cx", "swaps")):
            record["problems"] = ["counts differ between passes"]
        problems = record.get("problems") or first[i]["problems"]
        if problems:
            failures.append(f"{request.label}: {problems[0]}")
        if traced:
            layers[i].append(_layer_times(tracer, rid, result.extra, elapsed,
                                          sanity))
    done = [i for i in range(n) if first[i] is not None]
    return {
        "requests": [first[i] for i in done],
        "times": times,
        "layers": layers,
        "attempted": attempted,
        "failures": failures,
        "samples": sum(len(t[True]) + len(t[False]) for t in times),
        "sanity": sanity,
    }


def _layer_times(tracer: Tracer, rid: str, extra: Dict, elapsed: float,
                 sanity: Dict) -> Dict[str, float]:
    """Per-layer seconds of one traced compile, plus the sanity figures:
    do the pass spans agree with the program's own ``extra["passes"]``,
    and how much of the compile do named spans cover."""
    totals = tracer.totals(tracer.request_spans(rid))
    out: Dict[str, float] = {}
    covered = 0.0
    for name, wall_s in pass_walls(extra).items():
        span = totals.get(f"pipeline.{name}", {"wall": 0.0})["wall"]
        out[f"pipeline.{name}.wall_s"] = span
        covered += span
        sanity["pass_agreement_max_rel"] = max(
            sanity["pass_agreement_max_rel"],
            abs(span - wall_s) / max(wall_s, 1e-2))
    sanity["coverage_min"] = min(sanity["coverage_min"], covered / elapsed)
    for name in SELF_TIMED:
        entry = totals.get(name, {"self": 0.0, "calls": 0})
        out[f"{name}.self_s"] = entry["self"]
    out["ata.candidate_metrics.calls"] = totals.get(
        "ata.candidate_metrics", {"calls": 0})["calls"]
    return out
