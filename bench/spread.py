"""Run the benchmark on several seeds and record the run-to-run spread.

usage: python3 bench/spread.py

A set runs ``run.py`` once per seed 1..10 on every workload, with the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it reports
the median, the quartiles and the spread (third minus first quartile, as
a share of the median) next to the metric's bound.  Two sets run one after
the other, and the second reports how far each median moved from the
first.  Two traced runs on seed 1 per workload follow, with whether their
counts agree.  The machine, the seeds, every run's metrics and the
outcome of each command of one run per workload go to
``bench/RESULTS.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))
SETS = 2
TRACE_RUNS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    doc = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version()},
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {name: {"sets": []} for name in names},
    }
    for number in range(1, SETS + 1):
        for workload in names:
            entry = doc["workloads"][workload]
            runs = []
            for seed in doc["seeds"]:
                result, lines = run(workload, seed, seconds, 0)
                runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                entry.setdefault("first_run_commands", lines)
                print(f"set {number}", workload, json.dumps(runs[-1]), flush=True)
            spread = {}
            for name, bound in bounds.items():
                values = [r["metrics"][name] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                mid = statistics.median(values)
                spread[name] = {"median": mid, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / mid, "bound": bound}
                change = mid / entry["sets"][0]["spread"][name]["median"] - 1 if entry["sets"] else 0.0
                spread[name]["median_change"] = change
                print(f"  {name}: median {mid:.6g} spread {(q3 - q1) / mid:.4f} "
                      f"change from set 1 {change:+.4f} (bound {bound})")
            entry["sets"].append({"spread": spread, "runs": runs})

    for workload in names:
        traced = []
        for _ in range(TRACE_RUNS):
            result, _ = run(workload, 1, seconds, 1)
            traced.append({k: v["value"] for k, v in result["metrics"].items()})
        counts = [{k: v for k, v in t.items() if not k.endswith("_s")} for t in traced]
        same = all(c == counts[0] for c in counts)
        print(f"  {workload}: {len(traced)} traced runs on seed 1, counts identical: {same}")
        doc["workloads"][workload].update(traced_seed_1=traced, traced_counts_identical=same)
    (BENCH / "RESULTS.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
