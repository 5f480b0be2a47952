"""Record a baseline: two sets of ten seeded runs per workload, plus one
traced run per set.

For every workload, each set runs ``run.py --trace 0`` once per seed (set k
uses seeds ``10k + 1 .. 10k + 10``), and reports each end-to-end metric's
median and quartile spread (``statistics.quantiles(n=4)``, as a share of
the median).  It also compares the set medians, and runs one ``--trace 1``
run at seed 0 per set for the per-layer table and the reference digest; the
digest and the exact counts must repeat between sets.

Each invocation is appended to ``baseline.json`` as a new attempt, and the
file is rewritten after every workload, so no set that was run is lost:

    python3 e2ebench/baseline.py
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import cells  # noqa: E402


SETS = 2
RUNS = 10
OUT = os.path.join(HERE, "baseline.json")
#: per-layer counts that must repeat exactly between sets at one seed
EXACT_COUNTS = ("sim.events", "mpi.wildcard_recvs", "mpi.control_sends", "ckpt.completed")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next((line.split()[1] for line in lines
                             if line.startswith("digest: ")), None)
    result["failed_cells"] = [line.strip()[len("FAILED "):] for line in lines
                              if line.strip().startswith("FAILED ")]
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / median if median else 0.0}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    attempts = []
    if os.path.exists(OUT):
        with open(OUT) as fh:
            attempts = json.load(fh)["attempts"]
    out = {"recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "run_seconds": seconds, "workloads": {}}
    attempts.append(out)

    def save() -> None:
        with open(OUT, "w") as fh:
            json.dump({"attempts": attempts}, fh, indent=1)

    for workload in cells.WORKLOADS:
        entry = out["workloads"][workload] = {"sets": []}
        for k in range(SETS):
            seeds = range(k * RUNS + 1, (k + 1) * RUNS + 1)
            runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
            for seed, r in zip(seeds, runs):
                print(f"{workload} set {k} seed {seed} correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} " + " ".join(
                          f"{n}={m['value']:.4g}" for n, m in r["metrics"].items()),
                      flush=True)
            entry["sets"].append({
                "seeds": list(seeds),
                "correct": all(r["correct"] for r in runs),
                "metrics": {name: spread([r["metrics"][name]["value"] for r in runs])
                            for name in bounds},
                "values": {name: [r["metrics"][name]["value"] for r in runs]
                           for name in bounds},
            })
            save()
        checks = {}
        for name, bound in bounds.items():
            first = entry["sets"][0]["metrics"][name]
            worst_iqr = max(s["metrics"][name]["iqr_frac"] for s in entry["sets"])
            drift = [abs(s["metrics"][name]["median"] / first["median"] - 1.0)
                     for s in entry["sets"][1:]]
            checks[name] = {"bound": bound, "worst_iqr_frac": worst_iqr,
                            "median_drift": max(drift, default=0.0),
                            "iqr_within_third": worst_iqr < bound / 3}
        entry["checks"] = checks
        entry["seed0_traced"] = []
        for _ in range(SETS):
            traced = run_once(workload, 0, seconds, 1)
            entry["seed0_traced"].append({
                "correct": traced["correct"], "digest": traced["digest"],
                "failed_cells": traced["failed_cells"],
                "per_layer": {n: m["value"] for n, m in traced["metrics"].items()}})
        first = entry["seed0_traced"][0]
        entry["seed0_counts_repeat"] = all(
            t["digest"] == first["digest"]
            and all(t["per_layer"][n] == first["per_layer"][n] for n in EXACT_COUNTS)
            for t in entry["seed0_traced"])
        save()
        print(f"{workload}: seed-0 digest {first['digest']}, exact counts repeat: "
              f"{entry['seed0_counts_repeat']}", flush=True)
        for name, c in checks.items():
            print(f"{workload:15s} {name:14s} bound {c['bound']:.2f} "
                  f"worst IQR {c['worst_iqr_frac']:.4f} drift {c['median_drift']:.4f}"
                  f"{'' if c['iqr_within_third'] else '  (IQR above a third of the bound)'}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
