"""repro — reproduction of "Scalable Group-based Checkpoint/Restart for
Large-Scale Message-passing Systems" (Ho, Wang, Lau — IPDPS 2008).

The package is organised bottom-up:

* :mod:`repro.sim` — a generator-based discrete-event simulation kernel,
* :mod:`repro.cluster` — nodes, network, storage and failure models,
* :mod:`repro.mpi` — an MPI-like runtime, collectives, and the trace/tracer,
* :mod:`repro.ckpt` — checkpoint substrates (BLCR model, sender logs) and the
  baseline protocols (blocking coordinated / Chandy–Lamport),
* :mod:`repro.core` — the paper's contribution: the group-based protocol,
  trace-assisted group formation, the checkpoint coordinator and restart,
* :mod:`repro.recovery` — recovery orchestration: concurrent group
  recoveries, failure-during-recovery supersession, spare-node placement,
* :mod:`repro.workloads` — HPL / NPB CG / NPB SP communication patterns,
* :mod:`repro.analysis` — metrics and report builders,
* :mod:`repro.experiments` — one entry point per paper figure/table,
* :mod:`repro.campaign` — persistent, parallel, resumable experiment sweeps
  (parameter grids → sqlite store → worker pool → exports).
"""

from repro.sim import Simulator, RandomStreams
from repro.cluster import Cluster, ClusterSpec, GIDEON_300
from repro.mpi import MpiRuntime, Tracer, TraceLog
from repro.ckpt import ProtocolConfig, CheckpointSchedule, one_shot, periodic
from repro.ckpt.presets import (
    norm_family,
    gp1_family,
    gp4_family,
    gp_family,
    vcl_family,
)
from repro.core import (
    GroupSet,
    GroupProtocolFamily,
    form_groups,
    CheckpointCoordinator,
    simulate_restart,
)
from repro.recovery import RecoveryManager, SparePool
from repro.workloads import HplWorkload, CgWorkload, SpWorkload
from repro.campaign import Campaign, CampaignStore, ParameterGrid

__version__ = "1.2.0"

__all__ = [
    "Simulator",
    "RandomStreams",
    "Cluster",
    "ClusterSpec",
    "GIDEON_300",
    "MpiRuntime",
    "Tracer",
    "TraceLog",
    "ProtocolConfig",
    "CheckpointSchedule",
    "one_shot",
    "periodic",
    "norm_family",
    "gp1_family",
    "gp4_family",
    "gp_family",
    "vcl_family",
    "GroupSet",
    "GroupProtocolFamily",
    "form_groups",
    "CheckpointCoordinator",
    "simulate_restart",
    "RecoveryManager",
    "SparePool",
    "HplWorkload",
    "CgWorkload",
    "SpWorkload",
    "Campaign",
    "CampaignStore",
    "ParameterGrid",
    "__version__",
]
