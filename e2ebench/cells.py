"""The benchmark's workloads: which campaign cells each one runs, and how a
cell is judged.

Every workload is a fixed list of paper-scale (``FULL``) scenario configs,
built through the same public grid/config helpers the figure code uses, so
the cells are the figure cells themselves and not look-alikes.  The only
input that varies between runs is the seed: ``--seed n`` adds ``n`` to the
figure code's own seeds (7 for figure cells, 0 for the storage-tier cells),
so seed 0 reproduces the figures exactly.

A cell *fails* when it raised, or when it completed zero of the checkpoints
it requested.  Explicit request times (one-shot and Figure 13-style
schedules) always count as requested, because a request at or after the
makespan is itself the defect; periodic ticks count only when they fall
before the makespan.  Failed cells are reported with their reason and are
never dropped: a checkpoint that never happened is an error, not "0.0 s".
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: seeds the figure code uses; ``--seed n`` offsets both
FIGURE_SEED = 7
TIERS_SEED = 0
#: a seed offset never used while the benchmark was written: check a claimed
#: gain on it as well as on the seeds it was developed on
HELD_OUT_SEED = 9001

#: Figure 10's intervals; the 60 s cell is left out because it alone costs
#: about three times the rest of the workload
FIG10_INTERVALS_S = (120.0, 180.0)
FIG10_PROBLEM_SIZE = 56000


def _schedule_label(schedule) -> str:
    if schedule is None:
        return "no-ckpt"
    if schedule.interval_s is not None:
        return f"every-{schedule.interval_s:g}s"
    return "at-" + ",".join(f"{t:g}" for t in schedule.times) + "s"


def _fig10_waves(seed: int):
    from repro.ckpt.scheduler import periodic
    from repro.experiments.config import FULL, ScenarioConfig
    from repro.experiments.figures import HPL_MAX_GROUP_SIZE

    options = dict(FULL.hpl_options, problem_size=FIG10_PROBLEM_SIZE)
    n = FULL.hpl_scales[-1]
    for interval in FIG10_INTERVALS_S:
        for method in ("GP", "NORM"):
            config = ScenarioConfig(
                workload="hpl", n_ranks=n, method=method,
                schedule=periodic(interval), workload_options=dict(options),
                max_group_size=HPL_MAX_GROUP_SIZE, do_restart=False,
                seed=FIGURE_SEED + seed)
            yield f"hpl-{n}/{method}/{_schedule_label(config.schedule)}", config


def _figure_sweep(seed: int):
    from repro.ckpt.scheduler import periodic
    from repro.cluster.topology import GIDEON_300
    from repro.experiments.config import FULL, ScenarioConfig
    from repro.experiments.figures import cg_grid, hpl_grid, sp_grid

    picks = ((hpl_grid, (64, 128)), (cg_grid, (128,)), (sp_grid, (81, 121)))
    for grid, scales in picks:
        for config in grid(FULL).expand():
            if config.n_ranks in scales:
                config = config.with_seed(FIGURE_SEED + seed)
                yield (f"{config.workload}-{config.n_ranks}/{config.method}/"
                       f"{_schedule_label(config.schedule)}"), config
    # Figure 2's large-scale MPICH-VCL cell on remote storage
    config = ScenarioConfig(
        workload="cg", n_ranks=FULL.cg_scales[-1], method="VCL",
        schedule=periodic(FULL.vcl_interval_s),
        cluster=GIDEON_300.with_remote_checkpointing(4),
        workload_options=dict(FULL.cg_options), do_restart=False,
        seed=FIGURE_SEED + seed)
    yield (f"cg-{config.n_ranks}/VCL/{_schedule_label(config.schedule)}/remote"), config


def _tiers_failures(seed: int):
    from repro.experiments.storage_tiers import (
        failure_label, policy_label, storage_tier_configs)

    for config in storage_tier_configs(n_ranks=64, seeds=(TIERS_SEED + seed,)):
        yield (f"halo2d-64/{config.method}/{policy_label(config)}/"
               f"{failure_label(config)}"), config


#: workload name -> cell builder
WORKLOADS: Dict[str, Callable[[int], object]] = {
    "fig10-waves": _fig10_waves,
    "figure-sweep": _figure_sweep,
    "tiers-failures": _tiers_failures,
}


def workload_cells(name: str, seed: int) -> List[Tuple[str, object]]:
    """``(label, ScenarioConfig)`` for every cell of workload ``name``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    cells = list(WORKLOADS[name](seed))
    labels = [label for label, _ in cells]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate cell labels in workload {name!r}")
    return cells


# ------------------------------------------------------------------ failed-cell rule
def requested_checkpoints(schedule, makespan: float) -> int:
    """Checkpoints a cell asked for: every explicit time, plus periodic ticks
    strictly before the makespan."""
    if schedule is None:
        return 0
    ticks = dataclasses.replace(schedule, times=()).request_times(makespan)
    return len(schedule.times) + len(ticks)


def failure_reason(schedule, makespan: Optional[float], completed: Optional[int],
                   error: Optional[str]) -> Optional[str]:
    """Why a cell failed, or None when it did not.

    ``error`` is the traceback of a cell that raised (its other arguments
    are then ignored).
    """
    if error is not None:
        last = [line for line in error.strip().splitlines() if line.strip()]
        return "raised: " + (last[-1].strip() if last else "unknown error")
    requested = requested_checkpoints(schedule, makespan)
    if requested and not completed:
        late = [t for t in schedule.times if t >= makespan]
        why = f"completed 0 of {requested} requested checkpoints"
        if late:
            why += (f" (request at {late[0]:g} s is at or after the "
                    f"{makespan:.1f} s makespan)")
        return why
    return None


# ------------------------------------------------------------------------- digest
#: the simulated outputs of one cell that the digest covers
DIGEST_FIELDS = ("makespan", "checkpoints_completed", "resend_bytes",
                 "sim_events", "cluster_messages")


def cell_digest_row(label: str, outputs: Mapping[str, object]) -> List[object]:
    """One cell's digest entry; floats are kept exactly via ``repr``."""
    row: List[object] = [label]
    for key in DIGEST_FIELDS:
        value = outputs.get(key)
        row.append(repr(value) if isinstance(value, float) else value)
    return row


def digest(rows: Sequence[Sequence[object]]) -> str:
    """Stable hash of a repetition's per-cell digest rows."""
    blob = json.dumps([list(r) for r in rows], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def digest_mismatches(reps: Sequence[Sequence[Sequence[object]]]) -> List[str]:
    """Cells whose digest rows differ between repetitions (first rep is the
    reference); a differing cell set is reported as a mismatch too."""
    if not reps:
        return []
    ref = {row[0]: list(row) for row in reps[0]}
    out: List[str] = []
    for i, rows in enumerate(reps[1:], start=1):
        got = {row[0]: list(row) for row in rows}
        if got.keys() != ref.keys():
            out.append(f"repetition {i}: cell set differs from repetition 0")
            continue
        for label, row in ref.items():
            if got[label] != row:
                out.append(f"repetition {i}: {label}: {got[label][1:]} != {row[1:]}")
    return out
