"""Benchmark entry point for the repro compiler.

Run from the repository root::

    python3 perfbench/run.py --workload sparse-sweep --seed 1 --seconds 56 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records
spans around the layers and reports the per-layer metrics and the
tracing overhead, and writes a Chrome trace-event file under
``.perfbench_out/``.  The metric names and units are read from
``BENCHMARK.json``.  The last line of standard output is the result
object; the line before it holds the raw figures behind it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracer import NAME, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("sparse-sweep", "serve-mix")
#: Set-up runs per measurement: this process plus fresh interpreters.
SETUP_SAMPLES = 7
#: Iterations of the calibration loop (0.1-0.3 s).
CALIBRATION_LOOPS = 2_000_000
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; recorded, never applied."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - started


def tail(samples: List[float]) -> Tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, as
    ``(value, percentile)``.  With fewer than ``2 * TAIL_BEYOND + 1``
    samples no percentile above the median qualifies, so the median is
    returned with percentile 50."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="use only the first N requests (self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def make_state(args: argparse.Namespace, tracer):
    if args.workload == "serve-mix":
        import serve_mix

        return serve_mix, serve_mix.ServeState(args.seed, args.limit, tracer,
                                               OUT_DIR)
    import sweep

    return sweep, sweep.SweepState(args.seed, args.limit, tracer)


def setup_in_fresh_interpreter(args: argparse.Namespace) -> float:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    if args.limit is not None:
        command += ["--limit", str(args.limit)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# -- summaries ---------------------------------------------------------------

def _ratio_counts(counts: Dict[str, float], winners: int) -> None:
    """Add the two ratios derived from summed work counts."""
    snapshots = counts.get("compiler.greedy.snapshots", 0)
    counts["compiler.snapshots.sampled_ratio"] = (
        counts.get("snapshots_sampled", 0) / snapshots if snapshots else 0.0)
    scored = counts.get("n_candidates", 0)
    counts["ata.candidates.useful_ratio"] = winners / scored if scored else 0.0


def _sum(records: List[Dict], keys) -> Dict[str, float]:
    return {key: sum(record[key] for record in records) for key in keys}


def summarize_sweep(outcome: Dict, tracer) -> Tuple[Dict, Dict]:
    records = outcome["requests"]
    times = outcome["times"]
    values = _sum(records, ("depth", "cx", "swaps"))
    values = {f"{key}.total": value for key, value in values.items()}
    raw: Dict = {"requests": [
        {key: record[key] for key in ("label", "depth", "cx", "swaps")}
        for record in records]}
    untraced = [min(t[False]) for t in times if t[False]]
    if untraced:
        values["requests_per_s"] = len(untraced) / sum(untraced)
        values["request_s.p50"] = statistics.median(untraced)
        values["request_s.tail"], raw["tail_percentile"] = tail(untraced)
    raw["timing_samples"] = {"requests": len(untraced),
                             "request_samples": outcome["samples"]}
    raw["request_best_s"] = untraced
    raw["request_samples_s"] = [t[False] for t in times]
    if tracer is None:
        return values, raw
    traced = [min(t[True]) for t in times if t[True]]
    if traced and untraced:
        values["trace.requests_per_s"] = len(traced) / sum(traced)
        values["trace.untraced_requests_per_s"] = values["requests_per_s"]
    layer_keys = {key for per in outcome["layers"] for sample in per
                  for key in sample}
    for key in layer_keys:
        values[key] = sum(statistics.median(sample[key] for sample in per)
                          for per in outcome["layers"] if per)
    counts = _sum(records, ("compiler.greedy.cycles",
                            "compiler.greedy.snapshots", "snapshots_sampled",
                            "n_candidates", "arch.distance_cache.misses",
                            "ata.pattern_cache.misses"))
    _ratio_counts(counts, len(records))
    values.update(counts)
    generate = tracer.totals([i for i, span in enumerate(tracer.spans)
                              if span[NAME] == "problems.generate"])
    values["problems.generate.self_s"] = generate.get(
        "problems.generate", {"self": 0.0})["self"]
    raw["sanity"] = outcome["sanity"]
    return values, raw


def summarize_serve(outcome: Dict, tracer) -> Tuple[Dict, Dict]:
    passes = outcome["passes"]
    first = passes[0]["records"]
    values: Dict[str, float] = {}
    # Summed over the distinct specs compiled: store hits and dedupes
    # return byte-identical copies of these payloads.
    for key in ("depth", "cx", "swaps"):
        values[f"{key}.total"] = sum(
            r["response"]["result"]["record"][key] for r in first
            if r["response"].get("served_from") == "compiled"
            and r["response"].get("ok"))
    per_pass = []
    for summary in passes:
        latencies = [r["latency_s"] for r in summary["records"]]
        ok = sum(1 for r in summary["records"] if r["response"].get("ok"))
        tail_s, tail_q = tail(latencies)
        per_pass.append({"warmup": summary["warmup"],
                         "traced": summary["traced"],
                         "requests_per_s": ok / summary["wall_s"],
                         "request_s.p50": statistics.median(latencies),
                         "request_s.tail": tail_s, "tail_percentile": tail_q,
                         "samples": len(latencies)})
    raw: Dict = {"passes": per_pass, "served_from": dict(
        Counter(r["response"].get("served_from") for r in first))}

    def measured(traced: bool) -> List[int]:
        return [k for k, p in enumerate(per_pass)
                if p["traced"] == traced and not p["warmup"]]

    untraced = measured(False)
    values["requests_per_s"] = max(per_pass[k]["requests_per_s"]
                                   for k in untraced)
    # A slot is one position of one client's list, the same request on
    # every pass; its time is the fastest over the measured passes.
    slots: Dict[str, List[float]] = {}
    for k in untraced:
        for record in passes[k]["records"]:
            slots.setdefault(record["rid"].split("-", 1)[1], []).append(
                record["latency_s"])
    best = [min(samples) for samples in slots.values()]
    values["request_s.p50"] = statistics.median(best)
    values["request_s.tail"], raw["tail_percentile"] = tail(best)
    raw["timing_samples"] = {"passes": len(untraced),
                             "requests_per_pass": per_pass[0]["samples"]}
    if tracer is None:
        return values, raw
    values["trace.requests_per_s"] = max(per_pass[k]["requests_per_s"]
                                         for k in measured(True))
    values["trace.untraced_requests_per_s"] = values["requests_per_s"]
    layered = [p["layers"] for p in passes if p["traced"]]
    submitted = [p["submitted"] for p in passes if p["traced"]]
    winners = sum(1 for r in first
                  if r["response"].get("served_from") == "compiled")
    for sample in layered:
        _ratio_counts(sample, winners)
    for key in {key for sample in layered for key in sample}:
        values[key] = statistics.median(s.get(key, 0) for s in layered)
    values["batch.pool.submitted"] = statistics.median(submitted)
    return values, raw


# -- entry point -------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or \
            not spec_path.is_file():
        print(f"perfbench: needs src/repro and BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())
    OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
    module, state = make_state(args, tracer)
    setup_s = [time.perf_counter() - started]
    if args.setup_only:
        state.close()
        print(json.dumps({"setup_s": setup_s[0]}))
        return 0
    try:
        if tracer is None:
            setup_s += [setup_in_fresh_interpreter(args)
                        for _ in range(SETUP_SAMPLES - 1)]
        calibration = [calibrate()]
        outcome = module.run(state, args.seconds, tracer)
        calibration.append(calibrate())
    finally:
        state.close()
    peak_mb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  outcome.get("peak_rss_children_mb", 0.0))
    summarize = summarize_serve if args.workload == "serve-mix" \
        else summarize_sweep
    values, raw = summarize(outcome, tracer)

    if args.workload == "serve-mix":
        attempted = sum(len(p["records"]) for p in outcome["passes"])
        failures = [f for p in outcome["passes"] for f in p["failures"]]
    else:
        attempted, failures = outcome["attempted"], outcome["failures"]
    failed = min(attempted, len(failures))
    values["setup_s"] = statistics.median(setup_s)
    values["peak_rss_mb"] = peak_mb
    values["success_rate"] = (attempted - failed) / attempted if attempted \
        else 0.0
    raw.update({"workload": args.workload, "seed": args.seed,
                "trace": args.trace, "seconds": args.seconds,
                "calibration_s": calibration, "setup_samples_s": setup_s,
                "failures": failures[:20]})

    wanted = spec["per_layer"] if tracer is not None else spec["end_to_end"]
    metrics = {}
    raw["unobserved"] = []
    if "trace.requests_per_s" in values:
        values["trace.overhead.requests_per_s"] = (
            values["trace.requests_per_s"]
            - values["trace.untraced_requests_per_s"])
    if tracer is not None:
        trace_path = OUT_DIR / f"trace-{args.workload}-s{args.seed}.json"
        tracer.write_chrome_trace(str(trace_path))
        raw["chrome_trace"] = str(trace_path.relative_to(ROOT))
        raw["spans"] = len(tracer.spans)
    for entry in wanted:
        if entry["name"] not in values:
            raw["unobserved"].append(entry["name"])
        metrics[entry["name"]] = {"value": values.get(entry["name"], 0.0),
                                  "unit": entry["unit"]}
    print(json.dumps({"raw": raw}, default=str))
    print(json.dumps({"correct": not failures and bool(attempted),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
