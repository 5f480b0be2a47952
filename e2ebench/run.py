"""Paper-scale end-to-end benchmark of the checkpoint/restart simulator.

Runs one workload of FULL-scale campaign cells (see ``cells.py``) as cold,
isolated repetitions, each in its own process (``rep.py``), checks that every
repetition produced the same simulated outputs, and prints one JSON line:

    python3 e2ebench/run.py --workload figure-sweep --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics (set-up time, wall time, median
cell time, peak memory, share of cells that did not fail).  Every timing is
CPU time divided by the host factor ``calib.py`` measured while it ran, so
it reads as CPU seconds on the reference host.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics: sampled self time per ``repro`` package, spans around the layer
entry points, the layers' work counts and the tracing overhead.
``METRICS.md`` lists every metric.

As many whole repetitions run as fit in ``--seconds`` (at least one; one
untraced/traced pair when tracing).  Scratch stores and run records live
under ``.e2ebench/`` in the checkout.  When two repetitions disagree on a
cell's outputs, the JSON line says ``"correct": false`` and the run exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import cells  # noqa: E402
import layers  # noqa: E402

#: the run must end within this many seconds; a repetition is cut short here
RUN_LIMIT_S = 170.0
#: set-up-only processes per untraced run, on top of one set-up per repetition
SETUP_PROBES = 5

#: environment variables that select program behaviour; the run records them
ENV_VARS = ("REPRO_SIM_FASTPATH", "REPRO_TELEMETRY", "REPRO_TELEMETRY_SAMPLE_BIN",
            "REPRO_CAMPAIGN_DB", "REPRO_CAMPAIGN_WORKERS")


def env_problems() -> List[str]:
    """Why the environment would change the program being measured, read
    with the program's own parsers."""
    from repro.cluster.network import fast_path_default
    from repro.obs import sampling_bin_from_env, tracing_enabled_from_env

    problems = []
    if not fast_path_default():
        problems.append("REPRO_SIM_FASTPATH=0 turns the network fast path off")
    if tracing_enabled_from_env():
        problems.append("REPRO_TELEMETRY turns span tracing on")
    if sampling_bin_from_env() is not None:
        problems.append("REPRO_TELEMETRY_SAMPLE_BIN turns state sampling on")
    # as get_default_campaign reads them
    if os.environ.get("REPRO_CAMPAIGN_DB", ":memory:") != ":memory:":
        problems.append("REPRO_CAMPAIGN_DB selects a persistent result store")
    try:
        workers = int(os.environ.get("REPRO_CAMPAIGN_WORKERS", "1"))
    except ValueError:
        problems.append("REPRO_CAMPAIGN_WORKERS is not an integer, so the default "
                        "campaign would raise")
    else:
        if workers > 1:
            problems.append("REPRO_CAMPAIGN_WORKERS asks for parallel workers")
    return problems


# ---------------------------------------------------------------------- repetitions
class RepFailed(RuntimeError):
    """A repetition process failed or overran."""


def spawn_rep(workload: str, seed: int, traced: bool, work_dir: str, env: Dict[str, str],
              timeout_s: float, setup_only: bool = False) -> dict:
    """Run one repetition process; returns its record with the raw set-up
    wall time ``setup_s`` added."""
    fd, out = tempfile.mkstemp(prefix="rep-", suffix=".json", dir=work_dir)
    os.close(fd)
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--tmp", work_dir,
           "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    try:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(1.0, timeout_s))
        except subprocess.TimeoutExpired as exc:
            raise RepFailed(f"repetition overran the {timeout_s:.0f} s left") from exc
        if proc.returncode != 0:
            raise RepFailed(f"repetition exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(out) as fh:
            record = json.load(fh)
    finally:
        os.remove(out)
    record["setup_s"] = record["first_launch_monotonic"] - spawned
    return record


def digest_rows(record: dict) -> List[list]:
    return [cells.cell_digest_row(c["label"], c) for c in record["cells"]]


# -------------------------------------------------------------------------- metrics
def _ratio(num, den) -> float:
    return num / den if den else 0.0


def end_to_end(reps: List[dict], setups: List[float]) -> Dict[str, dict]:
    """End-to-end metrics from untraced repetitions and normalized set-up times."""
    attempted = sum(len(r["cells"]) for r in reps)
    failed = sum(1 for r in reps for c in r["cells"] if c["reason"])
    return {
        "setup_s": {"value": median(setups), "unit": "s"},
        "norm_cpu_s": {"value": median([r["norm_cpu_s"] for r in reps]), "unit": "s"},
        "norm_cell_cpu_p50_s": {"value": median([c["norm_cpu_s"] for r in reps
                                                 for c in r["cells"]]), "unit": "s"},
        "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in reps]), "unit": "MB"},
        "ok_cell_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
    }


def layer_values(traced: dict, untraced_cpu_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition; times are host-normalized
    like the end-to-end ones."""
    cs = traced["cells"]
    total = lambda key: sum(c.get(key) or 0 for c in cs)  # noqa: E731
    cpu = traced["norm_cpu_s"]
    scale = cpu / traced["wall_s"]  # span wall seconds -> normalized CPU seconds
    samples = traced["samples"]
    share = {layer: _ratio(n, samples) for layer, n in traced["layer_samples"].items()}
    out = {f"{layer}.self_s": share[layer] * cpu for layer in layers.LAYERS}
    events, elided = total("all_sim_events"), total("all_events_elided")
    requested, completed = total("checkpoints_requested"), total("checkpoints_completed")
    with_failure = [c for c in cs if c.get("failure")]
    out.update({
        "sim.events": events,
        "sim.events_elided": elided,
        "sim.elided_frac": _ratio(elided, events + elided),
        "sim.us_per_event": _ratio(out["sim.self_s"] * 1e6, events),
        "cluster.messages": total("all_messages"),
        "cluster.bytes": total("all_bytes"),
        "cluster.fastpath_frac": _ratio(total("all_fastpath_tx"), total("all_messages")),
        "mpi.wildcard_recvs": total("wildcard_recvs"),
        "mpi.wildcard_s": _ratio(traced["wildcard_samples"], samples) * cpu,
        "mpi.control_sends": total("control_sends"),
        "mpi.trace_run_s": traced["spans"]["mpi.trace_run_s"] * scale,
        "ckpt.requested": requested,
        "ckpt.completed": completed,
        "ckpt.completion_frac": _ratio(completed, requested),
        "ckpt.resend_bytes": total("resend_bytes"),
        "core.formation_s": traced["spans"]["core.formation_s"] * scale,
        "core.restart_s": traced["spans"]["core.restart_s"] * scale,
        "storage.bytes_written": total("storage_bytes_written"),
        "storage.bytes_read": total("storage_bytes_read"),
        "storage.replication_stalls": total("replication_stalls"),
        "recovery.recoveries": total("recoveries"),
        "recovery.aborted_frac": _ratio(sum(1 for c in with_failure if not c.get("survived", 1)),
                                        len(with_failure)),
        "obs.harvest_s": traced["spans"]["obs.harvest_s"] * scale,
        "campaign.store_s": traced["spans"]["campaign.store_s"] * scale,
        "trace.overhead_frac": cpu / untraced_cpu_s - 1.0,
        "trace.unattributed_frac": share[layers.UNATTRIBUTED],
    })
    return out


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    leaf = name.split(".", 1)[1]
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_frac"):
        return "frac"
    if leaf == "us_per_event":
        return "us"
    if "bytes" in leaf.split("_"):
        return "bytes"
    return "count"


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, dict]:
    base = median([r["norm_cpu_s"] for r in untraced])
    rows = [layer_values(t, base) for t in traced]
    return {name: {"value": median([r[name] for r in rows]), "unit": layer_unit(name)}
            for name in rows[0]}


# -------------------------------------------------------------------------- report
def print_report(workload: str, seed: int, reps: List[dict], failed_cells: List[dict],
                 digest_value: str, mismatches: List[str], metrics: Dict[str, dict],
                 env_values: Dict[str, Optional[str]]) -> None:
    print(f"e2ebench {workload} seed={seed} repetitions={len(reps)} "
          f"({sum(1 for r in reps if r['traced'])} traced)")
    print("env: " + " ".join(f"{k}={v if v is not None else '<unset>'}"
                             for k, v in env_values.items()))
    for i, r in enumerate(reps):
        factors = [c["host_factor"] for c in r["cells"]]
        print(f"repetition {i}{' (traced)' if r['traced'] else ''}: wall {r['wall_s']:.3f} s, "
              f"cpu {r['cpu_s']:.3f} s, normalized cpu {r['norm_cpu_s']:.3f} s, host factor "
              f"{min(factors):.3f}-{max(factors):.3f}")
    print(f"{'cell':44s} {'wall_s':>7s} {'cpu_s':>7s} {'norm_s':>7s} {'makespan':>9s} "
          f"{'ckpt':>4s} {'req':>4s} {'resend_B':>10s} {'sim.events':>10s} {'messages':>9s}")
    for c in reps[0]["cells"]:
        print(f"{c['label']:44s} {c['wall_s']:7.2f} {c['cpu_s']:7.2f} {c['norm_cpu_s']:7.2f} "
              f"{c.get('makespan') or 0:9.1f} "
              f"{c.get('checkpoints_completed') or 0:4d} "
              f"{c.get('checkpoints_requested') or 0:4d} "
              f"{c.get('resend_bytes') or 0:10d} {c.get('sim_events') or 0:10d} "
              f"{c.get('cluster_messages') or 0:9d}")
    traced = [r for r in reps if r["traced"]]
    if traced:
        print(f"{'traced cell':44s} {'control_sends':>13s} {'wildcard_recvs':>14s} "
              f"{'all_events':>10s}")
        for c in traced[0]["cells"]:
            print(f"{c['label']:44s} {c['control_sends']:13d} {c['wildcard_recvs']:14d} "
                  f"{c['all_sim_events']:10d}")
    n = len(reps[0]["cells"])
    print(f"failed cells: {len(failed_cells)} of {n} "
          f"(failed_cell_frac={len(failed_cells) / n:.4f})")
    for c in failed_cells:
        print(f"  FAILED {c['label']}: {c['reason']}")
    if mismatches:
        print("DIGEST MISMATCH between repetitions:")
        for line in mismatches:
            print("  " + line)
    else:
        print(f"digest: {digest_value} (identical across {len(reps)} repetitions)")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(cells.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to the figure code's seeds (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring budget; whole repetitions only, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"e2ebench: no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    env_values = {name: os.environ.get(name) for name in ENV_VARS}
    problems = env_problems()
    if problems:
        print("e2ebench: refusing to run, the environment changes the measured "
              "program: " + "; ".join(problems), file=sys.stderr)
        return 2

    # a terminated run must still stop its repetition process: SystemExit
    # makes subprocess.run kill and reap the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    state_dir = os.path.join(ROOT, ".e2ebench")
    os.makedirs(state_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=state_dir)
    env = {k: v for k, v in os.environ.items() if k not in ENV_VARS}
    env["TMPDIR"] = work_dir
    traced = bool(args.trace)
    left = lambda: RUN_LIMIT_S - (time.monotonic() - started)  # noqa: E731
    reps: List[dict] = []
    setups: List[float] = []
    try:
        if not traced:
            for _ in range(SETUP_PROBES):
                setups.append(spawn_rep(args.workload, args.seed, False, work_dir, env,
                                        left(), setup_only=True)["norm_setup_s"])
        window = time.monotonic()
        while True:
            unit = time.monotonic()
            reps.append(spawn_rep(args.workload, args.seed, False, work_dir, env, left()))
            if traced:
                reps.append(spawn_rep(args.workload, args.seed, True, work_dir, env, left()))
            now = time.monotonic()
            if now + (now - unit) > window + args.seconds:
                break
    except RepFailed as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = [r for r in reps if not r["traced"]]
    setups += [r["norm_setup_s"] for r in untraced]
    all_rows = [digest_rows(r) for r in reps]
    mismatches = cells.digest_mismatches(all_rows)
    digest_value = cells.digest(all_rows[0])
    failed_cells = [c for c in reps[0]["cells"] if c["reason"]]
    if traced:
        metrics = per_layer([r for r in reps if r["traced"]], untraced)
    else:
        metrics = end_to_end(untraced, setups)
    attempted = sum(len(r["cells"]) for r in reps)
    # an operation failed when its cell raised; a cell that ran but completed
    # none of its checkpoints is a model defect, counted in ok_cell_frac
    failed = sum(1 for r in reps for c in r["cells"] if c.get("error"))
    print_report(args.workload, args.seed, reps, failed_cells, digest_value, mismatches,
                 metrics, env_values)

    results_dir = os.path.join(state_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}-{stamp}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "env": env_values, "digest": digest_value,
                   "digest_rows": all_rows[0], "mismatches": mismatches,
                   "failed_cells": [{"label": c["label"], "reason": c["reason"]}
                                    for c in failed_cells],
                   "setups_s": setups, "metrics": metrics,
                   "repetitions": reps}, fh, indent=1)
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
