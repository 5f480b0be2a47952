"""One cold repetition of a benchmark workload, in a process of its own.

``run.py`` starts this script once per repetition, so every repetition pays
its own imports, starts with cold trace/group caches and a fresh campaign
store, and its peak resident memory is its own.  The cells run one at a
time through ``Campaign.run`` with ``n_workers=1`` (inline, a closed loop).
A :class:`calib.SpeedProbe` runs from the start of ``main`` on, so set-up
and every cell get the host factor measured while they ran.  The record is
written as JSON to ``--out``.

    python3 e2ebench/rep.py --workload figure-sweep --seed 0 --trace 0 \
        --tmp .e2ebench/tmp --out rec.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calib  # noqa: E402


def run_cells(workload: str, seed: int, traced: bool, tmp_dir: str,
              speed: calib.SpeedProbe, setup_only: bool = False) -> dict:
    from repro.campaign import Campaign, CampaignStore, reset_default_campaign
    from repro.experiments.runner import clear_caches

    import cells
    import layers

    cell_list = cells.workload_cells(workload, seed)
    clear_caches()
    reset_default_campaign()
    record = {"workload": workload, "seed": seed, "traced": traced, "cells": []}
    with tempfile.TemporaryDirectory(prefix="store-", dir=tmp_dir) as store_dir:
        campaign = Campaign(CampaignStore(os.path.join(store_dir, "cells.sqlite")),
                            n_workers=1)
        probe = layers.CellProbe(traced).install()
        try:
            record["first_launch_monotonic"] = time.monotonic()
            # the main thread's CPU time since the process started
            record["setup_cpu_s"] = time.thread_time()
            record["setup_factor"] = calib.split(speed, [(0, speed.mark())])[0]
            record["norm_setup_s"] = record["setup_cpu_s"] / record["setup_factor"]
            if setup_only:
                return record
            sampler = layers.StackSampler() if traced else contextlib.nullcontext()
            marks = []
            with sampler:
                for label, config in cell_list:
                    mark = speed.mark()
                    record["cells"].append(_run_cell(campaign, probe, label, config))
                    marks.append((mark, speed.mark()))
        finally:
            probe.remove()
            campaign.store.close()
    record["speed_chunks_s"] = list(speed.chunks)
    for cell, mark, factor in zip(record["cells"], marks, calib.split(speed, marks)):
        cell["chunk_window"] = mark
        cell["host_factor"] = factor
        cell["norm_cpu_s"] = cell["cpu_s"] / factor
    for key in ("wall_s", "cpu_s", "norm_cpu_s"):
        record[key] = sum(c[key] for c in record["cells"])
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        import repro

        repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
        record["samples"] = sampler.samples
        record["layer_samples"] = layers.aggregate_self_time(sampler.by_function, repro_dir)
        record["wildcard_samples"] = sum(
            n for (filename, name), n in sampler.by_function.items()
            if name == "_pop_wildcard" and layers.layer_of(filename, repro_dir) == "mpi")
        record["spans"] = dict(probe.spans)
    return record


def _run_cell(campaign, probe, label: str, config) -> dict:
    import cells

    probe.begin_cell()
    start, start_cpu = time.perf_counter(), time.thread_time()
    result = campaign.run([config], strict=False)[0]
    cpu = time.thread_time() - start_cpu
    wall = time.perf_counter() - start
    counts = probe.end_cell()
    cell = {"label": label, "wall_s": wall, "cpu_s": cpu,
            "failure": config.failure is not None, **counts}
    if result is None:
        row = campaign.store.get(config)
        cell["error"] = row.error if row is not None else "no result stored"
        cell["reason"] = cells.failure_reason(config.schedule, None, None, cell["error"])
        return cell
    m = result.metrics
    cell.update(
        makespan=result.makespan,
        checkpoints_completed=result.checkpoints_completed,
        checkpoints_requested=cells.requested_checkpoints(config.schedule, result.makespan),
        resend_bytes=result.resend_bytes,
        storage_bytes_written=sum(m.get("tier_bytes_written", {}).values()),
        storage_bytes_read=sum(m.get("tier_bytes_read", {}).values()),
        replication_stalls=m.get("replication_stalls", 0),
        recoveries=m.get("failures_injected", 0),
        survived=m.get("survived", 1),
        reason=cells.failure_reason(config.schedule, result.makespan,
                                    result.checkpoints_completed, None),
    )
    return cell


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first cell would launch")
    parser.add_argument("--tmp", required=True, help="directory for the throwaway store")
    parser.add_argument("--out", required=True, help="where to write the JSON record")
    args = parser.parse_args(argv)
    calib.pin_to_current_cpu()
    speed = calib.SpeedProbe()
    speed.start()
    try:
        record = run_cells(args.workload, args.seed, bool(args.trace), args.tmp, speed,
                           setup_only=args.setup_only)
    finally:
        speed.stop()
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
