#!/usr/bin/env python
"""FULL-scale fast-path oracle: every benchmark cell under both kernel modes.

Runs each cell of the end-to-end benchmark's workloads (read through
``e2ebench/cells.py``'s ``workload_cells``; nothing there is modified) once
on the default fast path and once with ``REPRO_SIM_FASTPATH=0`` (the full
coroutine model), and prints per cell:

* the makespan (exact ``repr``), checkpoints completed, resend bytes and
  network messages of each mode,
* the event-conservation residual of the main application run,
  ``fast.processed + fast.elided - coroutine.processed`` (0 when every
  event the fast paths skipped is accounted for).

Exits 1 when any simulated output differs between the modes.  A non-zero
residual with equal outputs means the two modes processed some same-instant
events in a different order (for example a delivery and the receive that
consumes it); it is reported, and counted in the summary, but does not fail
the run.  The QUICK-scale parity tests cannot see defects that only appear
at the paper's scale; this is where they show.  A full pass over
the three workloads takes several minutes (the coroutine model is the slow
half), so it runs on a schedule, not on every push.

Usage::

    PYTHONPATH=src python tools/fastpath_oracle.py                      # all workloads
    PYTHONPATH=src python tools/fastpath_oracle.py --workload tiers-failures \\
        --seed 9001 --cell NORM
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "e2ebench"))

import cells  # noqa: E402  (e2ebench/cells.py)
from repro.cluster.network import FAST_PATH_ENV  # noqa: E402
from repro.experiments import runner  # noqa: E402
from repro.mpi.runtime import MpiRuntime  # noqa: E402

#: simulated outputs that must agree between the kernel modes
COMPARED = ("makespan", "checkpoints", "resend_bytes", "messages")


def run_cell(config, fast: bool) -> Dict[str, object]:
    """Run one cell in one kernel mode; return its outputs and event counts."""
    main_run: List[int] = []
    original = MpiRuntime.run_to_completion

    def capturing(runtime, *args, **kwargs):
        app = original(runtime, *args, **kwargs)
        if runtime.tracer is None:  # the application run, not a trace run
            main_run[:] = [runtime.sim.processed_events,
                           runtime.sim.stats.events_elided,
                           runtime.cluster.network.total_messages]
        return app

    previous = os.environ.get(FAST_PATH_ENV)
    os.environ[FAST_PATH_ENV] = "1" if fast else "0"
    MpiRuntime.run_to_completion = capturing
    try:
        runner.clear_caches()
        result = runner.run_scenario(config)
    finally:
        MpiRuntime.run_to_completion = original
        runner.clear_caches()
        if previous is None:
            os.environ.pop(FAST_PATH_ENV, None)
        else:
            os.environ[FAST_PATH_ENV] = previous
    processed, elided, messages = main_run
    return {
        "makespan": result.makespan,
        "checkpoints": result.checkpoints_completed,
        "resend_bytes": result.resend_bytes,
        "messages": messages,
        "processed": processed,
        "elided": elided,
    }


def check_workload(workload: str, seed: int,
                   cell_filter: Optional[str]) -> Tuple[int, int]:
    """Print one line per cell; return (mismatching cells, cells with a residual)."""
    failures = residuals = 0
    for label, config in cells.workload_cells(workload, seed):
        if cell_filter and cell_filter not in label:
            continue
        fast = run_cell(config, fast=True)
        slow = run_cell(config, fast=False)
        residual = fast["processed"] + fast["elided"] - slow["processed"]
        diff = [key for key in COMPARED if fast[key] != slow[key]]
        failures += bool(diff)
        residuals += residual != 0
        print(f"{'FAIL' if diff else 'ok  '} {workload} seed={seed} {label}: "
              f"makespan={fast['makespan']!r} ckpts={fast['checkpoints']} "
              f"resend_bytes={fast['resend_bytes']} messages={fast['messages']} "
              f"events={fast['processed']}+{fast['elided']} elided "
              f"(coroutine {slow['processed']}) residual={residual}", flush=True)
        for key in diff:
            print(f"     {key}: fast {fast[key]!r} != coroutine {slow[key]!r}", flush=True)
    return failures, residuals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(cells.WORKLOADS),
                        help="workload to check (repeatable; default: all)")
    parser.add_argument("--seed", type=int, action="append",
                        help="seed offset, as e2ebench's --seed (repeatable; default: 0)")
    parser.add_argument("--cell", help="only cells whose label contains this text")
    args = parser.parse_args(argv)
    failures = residuals = 0
    for seed in args.seed or [0]:
        for workload in args.workload or sorted(cells.WORKLOADS):
            mismatched, with_residual = check_workload(workload, seed, args.cell)
            failures += mismatched
            residuals += with_residual
    print(f"{failures} cell(s) with mismatching outputs, "
          f"{residuals} with a non-zero event residual")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
