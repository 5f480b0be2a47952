#!/usr/bin/env python
"""Regenerate the determinism-parity golden files.

Writes two files:

* ``tests/data/quick_parity_golden.json`` — the simulated metrics of every
  scenario of :func:`repro.experiments.parity.quick_parity_configs` on the
  current kernel.  The committed file was produced by the pre-fast-path
  kernel.
* ``tests/data/recovery_parity_golden.json`` — the outcome of every
  live-recovery scenario of :func:`recovery_parity_scenarios` (defined
  here, and imported by ``tests/test_recovery_parity.py``), run once per
  ``REPRO_SIM_FASTPATH`` mode (event counts differ between the modes, the
  simulated results do not).

Regenerate them only when a change is *meant* to alter simulated results
(and say so in the commit message).

Usage::

    PYTHONPATH=src python tools/make_parity_golden.py [--out PATH]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.ckpt.scheduler import periodic
from repro.cluster.failure import FailureEvent, FailureInjector, TraceFailureModel
from repro.cluster.network import FAST_PATH_ENV
from repro.cluster.topology import GIDEON_300, Cluster
from repro.core.coordinator import CheckpointCoordinator
from repro.experiments.config import FailureSpec, ScenarioConfig
from repro.experiments.parity import parity_metrics, quick_parity_configs, scenario_label
from repro.experiments.runner import build_family, build_workload, clear_caches, run_scenario
from repro.experiments.storage_tiers import DEFAULT_WORKLOAD_OPTIONS
from repro.mpi.runtime import MpiRuntime
from repro.recovery import SparePool
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.storage.policy import local_only, partner_replicated

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "data")

#: halo2d size/length of the shrink scenarios: several checkpoint waves land
#: before the kill at 1.7 s, and a 4 MB image wave fits in the 0.4 s period
SHRINK_OPTIONS = {"iterations": 60, "memory_bytes": 4 * 1024 * 1024}


def _run_failures(method: str = "GP4", kills: Sequence[Tuple[int, float]] = (),
                  n_spares: int = 0, reboot_delay_s: float = 0.0,
                  elastic: Optional[str] = None):
    """Run halo2d with node failures at ``(rank, time)``; return the app result.

    The group scenarios run 16 ranks with waves every 0.3 s on local disks.
    ``elastic`` ("remote" or "local" checkpoint storage) runs the shrink
    setup instead: 8 ranks, 0.4 s waves, shrink restart on spare exhaustion.
    """
    n, interval, options, spec = 16, 0.3, {}, GIDEON_300
    if elastic is not None:
        n, interval, options = 8, 0.4, dict(SHRINK_OPTIONS)
        spec = dataclasses.replace(GIDEON_300, checkpoint_storage=elastic)
    wl = build_workload("halo2d", n, options)
    family = build_family(method, n, "halo2d", spec, {}, None, None)
    sim = Simulator()
    cluster = Cluster(sim, spec)
    runtime = MpiRuntime(sim, cluster, n, protocol_family=family,
                         rng=RandomStreams(7))
    runtime.set_memory(wl.memory_map())
    runtime.workload = wl
    CheckpointCoordinator(runtime, family, periodic(interval)).start()
    if kills:
        events = [FailureEvent(t, runtime.ctx(rank).node_id) for rank, t in kills]
        pool = SparePool(cluster, n_spares) if n_spares else None
        FailureInjector(runtime, TraceFailureModel(events), spare_pool=pool,
                        reboot_delay_s=reboot_delay_s,
                        elastic=elastic is not None).start()
    runtime.launch(wl.program_factory())
    return runtime.run_to_completion(limit_s=1e6)


def _tier_outage(policy) -> ScenarioConfig:
    """GP1 on 16 ranks behind 4-node switches; switch 0 dies at 12 s."""
    cluster = dataclasses.replace(GIDEON_300, n_nodes=18, nodes_per_switch=4,
                                  storage_policy=policy, name="storage-tiers")
    return ScenarioConfig(
        workload="halo2d", n_ranks=16, method="GP1", schedule=periodic(2.0),
        cluster=cluster, seed=0, workload_options=dict(DEFAULT_WORKLOAD_OPTIONS),
        max_group_size=8, do_restart=False,
        failure=FailureSpec(switch_outage_at_s=12.0, outage_switch=0,
                            n_spares=2, reboot_delay_s=5.0))


def recovery_parity_scenarios() -> Dict[str, Callable[[], object]]:
    """Live-recovery scenarios whose outcome the recovery golden freezes.

    Each value runs one scenario and returns its ``ApplicationResult``.
    Together they cover every recovery path: concurrent, serialised and
    merged group recoveries, spare migration, in-place reboot after a
    reboot delay, a tier-degraded and an unsurvivable switch outage, a
    global (NORM) rollback without replay, and elastic shrink with and
    without an image ship.  Group kills land at 60% of the failure-free
    makespan.
    """
    def at60(method, *offsets):
        base = _run_failures(method).makespan * 0.6
        return [(rank, base + dt) for rank, dt in offsets]

    return {
        "gp4/concurrent-pair": lambda: _run_failures(
            kills=at60("GP4", (0, 0.0), (8, 0.0))),
        "gp4/channel-coupled-serialise": lambda: _run_failures(
            kills=at60("GP4", (0, 0.0), (4, 0.0))),
        "gp4/merged-superseded": lambda: _run_failures(
            kills=at60("GP4", (0, 0.0), (1, 0.3))),
        "gp4/spare-migration": lambda: _run_failures(
            kills=at60("GP4", (0, 0.0)), n_spares=2, reboot_delay_s=20.0),
        "gp4/inplace-reboot": lambda: _run_failures(
            kills=at60("GP4", (0, 0.0)), reboot_delay_s=20.0),
        "gp1/l1l2-switch-outage-degraded": lambda: run_scenario(
            _tier_outage(partner_replicated())).app,
        "gp1/l1-switch-outage-unsurvivable": lambda: run_scenario(
            _tier_outage(local_only())).app,
        "norm/no-replay": lambda: _run_failures(
            "NORM", kills=at60("NORM", (0, 0.0))),
        "elastic/image-ship-remote": lambda: _run_failures(
            kills=[(1, 1.7)], elastic="remote"),
        "elastic/from-scratch-local": lambda: _run_failures(
            kills=[(1, 1.7)], elastic="local"),
    }


def recovery_parity_metrics(app) -> Dict[str, object]:
    """Every simulated quantity of one recovery run the golden pins exactly."""
    reports = []
    for r in app.recovery:
        reports.append({
            "failure_time": r.failure_time,
            "node": r.node,
            "victims": list(r.victims),
            "cause": r.cause,
            "superseded_attempts": r.superseded_attempts,
            "detected_at": r.detected_at,
            "completed_at": r.completed_at,
            "rollback_ranks": list(r.rollback_ranks),
            "target_ckpt_id": r.target_ckpt_id,
            "restore_tiers": {str(k): v for k, v in sorted(r.restore_tiers.items())},
            "channels": [[c.src, c.dst, c.nbytes, c.n_messages] for c in r.channels],
            "ranks": [dataclasses.asdict(rr) for rr in r.ranks],
            "placements": [list(p) for p in r.placements],
            "inplace_reboots": r.inplace_reboots,
            "same_switch_placements": r.same_switch_placements,
            "unsurvivable": r.unsurvivable,
            "shrink": r.shrink,
            "ranks_after": r.ranks_after,
            "units_migrated": r.units_migrated,
            "repartition_bytes_shipped": r.repartition_bytes_shipped,
        })
    channels = []
    for ctx in app.contexts:
        acc = ctx.account
        for peer in sorted(acc.peers()):
            channels.append([ctx.rank, peer, acc.sent_to(peer),
                             acc.messages_sent_to(peer), acc.received_from(peer),
                             acc.messages_received_from(peer)])
    sim = app.contexts[0].sim
    return {
        "makespan": app.makespan,
        "processed_events": sim.processed_events,
        "events_elided": sim.stats.events_elided,
        "channel_totals": channels,
        "reports": reports,
    }


def recovery_golden() -> dict:
    """Recovery-scenario metrics under both ``REPRO_SIM_FASTPATH`` modes."""
    golden: dict = {}
    previous = os.environ.get(FAST_PATH_ENV)
    try:
        for mode in ("1", "0"):
            os.environ[FAST_PATH_ENV] = mode
            clear_caches()
            for label, run in recovery_parity_scenarios().items():
                metrics = recovery_parity_metrics(run())
                golden.setdefault(label, {})[f"fastpath={mode}"] = metrics
                print(f"{label} fastpath={mode}: "
                      f"makespan={metrics['makespan']:.6f} "
                      f"events={metrics['processed_events']} "
                      f"reports={len(metrics['reports'])}")
    finally:
        if previous is None:
            os.environ.pop(FAST_PATH_ENV, None)
        else:
            os.environ[FAST_PATH_ENV] = previous
        clear_caches()
    return golden


def _write(path: str, golden: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {len(golden)} scenarios to {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=os.path.join(DATA_DIR, "quick_parity_golden.json"),
        help="output JSON path of the QUICK-scenario golden (the recovery "
             "golden is written next to it)",
    )
    args = parser.parse_args()

    golden = {}
    for config in quick_parity_configs():
        label = scenario_label(config)
        result = run_scenario(config)
        metrics = parity_metrics(result)
        sim = result.app.contexts[0].sim
        golden[label] = {
            "metrics": metrics,
            # informational: heap events processed by the *app* simulation
            # (restart runs its own simulator); not asserted bit-exactly
            # across kernel generations, only within one.
            "processed_events": sim.processed_events,
        }
        print(f"{label}: makespan={metrics['makespan']:.6f} "
              f"ckpts={metrics['checkpoints_completed']} "
              f"events={sim.processed_events}")
    _write(args.out, golden)
    _write(os.path.join(os.path.dirname(os.path.abspath(args.out)),
                        "recovery_parity_golden.json"), recovery_golden())


if __name__ == "__main__":
    main()
