"""Run every workload on two sets of seeds and summarise each metric.

    python3 perfbench/baseline.py [--seeds 10] [--trace] [--out perfbench/baseline.json]

The workloads and run_seconds come from BENCHMARK.json.  Each run is a
fresh `run.py` process, one after another.  The first set runs seeds
1..n, the second n+1..2n.  For every workload and end-to-end metric it
prints, per set, the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, and how much worse the second median
is than the first; both are held against the metric's bound.  --trace
adds one traced run per workload and reports where its time went.
--out writes the whole summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LAYER_PREDICTION = {
    "sieve": ["curves.count_points"],
    "heights": ["analysis.canonical_height"],
    "catalog": ["quad.search_quads_range", "torsion.torsion_subgroup"],
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def worsening(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    change = (second - first) / first
    return change if better == "lower" else -change


def resolved(entry: dict) -> bool:
    """Whether two sets of the same code agree within the metric's bound:
    each set's spread and the second median's worsening stay within it.
    An unresolved metric cannot tell a change from the host's noise."""
    bound = entry["bound"]
    return all(st["spread"] <= bound for st in entry["sets"]) and entry["second_worse_by"] <= bound


def dominant(metrics: dict) -> list[tuple[str, float]]:
    """Functions ranked by self time per request."""
    own = [(name[: -len(".self_s")], m["value"]) for name, m in metrics.items()
           if name.endswith(".self_s") and name.count(".") == 2]
    return sorted(own, key=lambda item: -item[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds per set")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [list(range(1, args.seeds + 1)), list(range(args.seeds + 1, 2 * args.seeds + 1))]
    summary = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "machine": platform.machine(), "run_seconds": seconds, "workloads": {}}
    for workload in spec["workloads"]:
        name_w = workload["name"]
        runs = [[run_once(name_w, seed, seconds, 0) for seed in seeds] for seeds in sets]
        every = runs[0] + runs[1]
        entry = {"why": workload["why"], "seeds": sets,
                 "failed": sum(r["failed"] for r in every), "attempted": sum(r["attempted"] for r in every),
                 "correct": all(r["correct"] for r in every), "metrics": {}}
        print(f"{name_w}: {entry['attempted']} requests, {entry['failed']} failed")
        for name, metric in metrics.items():
            bound = metric["bound"]
            stats = [summarise([r["metrics"][name]["value"] for r in set_runs]) for set_runs in runs]
            worse = worsening(stats[0]["median"], stats[1]["median"], metric["better"])
            entry["metrics"][name] = {"unit": metric["unit"], "bound": bound, "sets": stats,
                                      "second_worse_by": worse}
            entry["metrics"][name]["resolved"] = resolved(entry["metrics"][name])
            for i, st in enumerate(stats):
                flag = "ok" if st["spread"] < bound / 3 else ("within bound" if st["spread"] <= bound else "WIDE")
                print(f"  {name:14s} set {i + 1} median {st['median']:12.6g} {metric['unit']:4s} "
                      f"q1 {st['q1']:12.6g} q3 {st['q3']:12.6g} "
                      f"spread {st['spread']:.4f} bound {bound} {flag}")
            print(f"  {name:14s} second median worse by {worse:+.4f} "
                  f"({'resolved' if entry['metrics'][name]['resolved'] else 'UNRESOLVED'})")
        if args.trace:
            traced = run_once(name_w, 1, seconds, 1)
            ranked = dominant(traced["metrics"])
            predicted = LAYER_PREDICTION[name_w]
            top = [name for name, _ in ranked[: len(predicted)]]
            entry["trace"] = {"self_s_per_request": dict(ranked[:8]), "predicted": predicted,
                              "prediction_holds": sorted(top) == sorted(predicted),
                              "overhead_ratio": traced["metrics"]["trace.overhead_ratio"]["value"]}
            print(f"  top self time: {ranked[:4]}; predicted {predicted}: "
                  f"{'holds' if entry['trace']['prediction_holds'] else 'DOES NOT HOLD'}")
        summary["workloads"][name_w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
