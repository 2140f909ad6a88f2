"""Self-test of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

1. Determinism: a short ``sparse-sweep`` runs twice in separate
   processes under different ``PYTHONHASHSEED`` values; every
   per-request count and the totals must be identical, which is what
   lets ``depth.total``, ``cx.total`` and ``swaps.total`` be claimed as
   exact counts.
2. Traced-run sanity on the sweep: the per-pass spans agree with the
   program's own ``extra["passes"]`` wall times, named spans cover at
   least 90% of every compile, every per-layer metric is emitted and
   the Chrome trace file loads.
3. Outside a checkout (only ``BENCHMARK.json`` and this directory) the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Largest relative gap between a pass span and the pipeline's record
#: (for passes under 10 ms the gap is taken relative to 10 ms).
PASS_AGREEMENT = 0.05
COVERAGE = 0.90


def result_of(args, env=None):
    """The raw figures and the result object of one benchmark run."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, env={**os.environ, **(env or {})},
                          capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"run {args} failed with {done.returncode}:\n"
                         f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["raw"], json.loads(lines[-1])


def main() -> int:
    failures = []
    base = ["--seed", "7", "--seconds", "0", "--limit", "4"]

    runs = [result_of(["--workload", "sparse-sweep", "--trace", "0", *base],
                      env={"PYTHONHASHSEED": hash_seed})
            for hash_seed in ("1", "2")]
    (raw_a, res_a), (raw_b, res_b) = runs
    if raw_a["requests"] != raw_b["requests"]:
        failures.append("per-request counts differ across hash seeds")
    for name in ("depth.total", "cx.total", "swaps.total"):
        if res_a["metrics"][name] != res_b["metrics"][name]:
            failures.append(f"{name} differs across hash seeds")
    print(f"determinism: {len(raw_a['requests'])} requests compared")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("sparse-sweep",):
        raw, result = result_of(["--workload", workload, "--trace", "1",
                                 "--seed", "7", "--seconds", "0",
                                 "--limit", "3"])
        sanity = raw["sanity"]
        print(f"{workload} traced: {sanity}")
        if sanity["pass_agreement_max_rel"] > PASS_AGREEMENT:
            failures.append(f"{workload}: pass spans disagree with "
                            f"extra['passes'] by {sanity}")
        if sanity["coverage_min"] < COVERAGE:
            failures.append(f"{workload}: named spans cover only "
                            f"{sanity['coverage_min']:.1%} of a compile")
        missing = {m["name"] for m in spec["per_layer"]} - set(
            result["metrics"])
        if missing:
            failures.append(f"{workload}: per-layer metrics missing: "
                            f"{sorted(missing)}")
        events = json.loads((ROOT / raw["chrome_trace"]).read_text())
        if not events["traceEvents"]:
            failures.append(f"{workload}: empty Chrome trace")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
         "sparse-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        failures.append("benchmark ran outside a checkout")
    print(f"outside a checkout: exit {done.returncode}")

    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
