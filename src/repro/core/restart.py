"""Restart orchestration — Algorithm 1, restart part.

The paper measures restart time per process "from the recreation of the
process to its return to normal execution".  Under the group-based scheme a
restarting process must:

1. load its checkpoint image (BLCR restore),
2. rebuild the MPI library's internal structures,
3. for every out-of-group process, exchange the recorded ``R``/``S`` volumes
   to decide what to *replay* (messages the peer logged that this process had
   not yet received at its checkpoint) and what to *skip* (messages this
   process had already delivered to the peer before the peer's checkpoint),
4. replay the required logged messages over the network, and
5. wait until all group members finish preparing the restart.

Because checkpoints within a group are coordinated, intra-group channels never
need replay; under NORM nothing needs replay at all; under GP1 every channel
may need replay — which is exactly the ordering of Figures 6b, 7 and 8.

Two entry points run that stage sequence and share its stage code (the
rebuild and R/S-exchange stages, and the :class:`ReplayJoin` a rank waits on
for the replay it is owed):

* :func:`simulate_restart` — the *post-hoc* whole-application restart used by
  the paper's Figures 6b/7/8 (a fresh simulator, every rank restarts from its
  latest checkpoint), and
* :class:`LiveRecovery` — the one *in-flight* recovery engine, run inside the
  original simulation when a failure injector kills a rank mid-run.  It owns
  detection, rollback, lost-work measurement, the per-rank restart pipeline,
  the barrier, the relaunch and the report; a *scope policy* makes the only
  decisions that differ — the recovery line, the participating ranks and
  each rank's image restore.  **Group rollback** rolls only the victims'
  groups back while peers replay their logs over the live network and
  out-of-group ranks keep executing (the measured counterpart of the
  analytic ``expected_lost_work`` model); **elastic shrink** resets the whole
  job and repartitions it onto the survivors (:func:`plan_repartition`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Iterable, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.ckpt.base import CheckpointSnapshot, ProtocolConfig, RestartRecord
from repro.ckpt.blcr import BlcrModel
from repro.cluster.topology import Cluster, ClusterSpec
from repro.mpi.runtime import ApplicationResult
from repro.sim.engine import Interrupt, Simulator
from repro.sim.primitives import Event
from repro.workloads.domain import RepartitionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.runtime import MpiRuntime
    from repro.workloads.base import Workload


@dataclass(frozen=True)
class ReplayChannel:
    """One inter-group channel that needs log replay during restart."""

    src: int
    dst: int
    nbytes: int
    n_messages: int

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ValueError("ranks must be non-negative")
        if self.nbytes < 0 or self.n_messages < 0:
            raise ValueError("volumes must be non-negative")


@dataclass
class RestartResult:
    """Outcome of a simulated whole-application restart."""

    records: List[RestartRecord] = field(default_factory=list)
    channels: List[ReplayChannel] = field(default_factory=list)

    @property
    def aggregate_restart_time(self) -> float:
        """Sum of per-process restart times (Figure 6b / 11b / 12b metric)."""
        return sum(rec.duration for rec in self.records)

    @property
    def total_replay_bytes(self) -> int:
        """Total data volume resent during the restart (Figure 7 metric)."""
        return sum(ch.nbytes for ch in self.channels)

    @property
    def total_resend_operations(self) -> int:
        """Total number of resend operations performed (Figure 8 metric)."""
        return sum(ch.n_messages for ch in self.channels)


def replay_volumes(result: ApplicationResult) -> List[ReplayChannel]:
    """Compute, per directed inter-group channel, the volume to replay.

    For sender ``q`` and receiver ``p`` in different groups the replayed bytes
    are the part of ``q``'s log that ``p`` had not yet received at its own
    checkpoint and that ``q`` had already sent (hence logged) by *its*
    checkpoint: ``max(0, SS_q[p] − RR_p[q])``, realised from the retained log
    entries when the sender's log is available.
    """
    snapshots = result.snapshots()
    channels: List[ReplayChannel] = []
    for q, snap_q in snapshots.items():
        ctx_q = result.contexts[q]
        log = getattr(ctx_q.protocol, "log", None)
        for p, sent_at_ckpt in snap_q.ss.items():
            if p == q or p in snap_q.group_members:
                continue
            snap_p = snapshots.get(p)
            received_at_ckpt = snap_p.rr.get(q, 0) if snap_p is not None else 0
            volume = max(0, sent_at_ckpt - received_at_ckpt)
            if volume <= 0:
                continue
            if log is not None:
                entries = [
                    e
                    for e in log.entries_for(p)
                    if received_at_ckpt < e.end_offset <= sent_at_ckpt
                ]
                nbytes = sum(e.nbytes for e in entries)
                n_messages = len(entries)
                # The log may retain *more* than strictly required if garbage
                # collection lagged; the replay only covers the required range.
                if nbytes < volume:
                    nbytes = volume
                    n_messages = max(n_messages, 1)
            else:
                avg = snap_q.logged_bytes.get(p, 0) / max(1, snap_q.logged_messages.get(p, 0))
                n_messages = max(1, math.ceil(volume / max(avg, 1.0)))
                nbytes = volume
            channels.append(ReplayChannel(src=q, dst=p, nbytes=nbytes, n_messages=n_messages))
    return channels


def skip_volumes(result: ApplicationResult) -> Dict[Tuple[int, int], int]:
    """Bytes that restarting senders must *skip* resending on each channel.

    ``p`` had received ``RR_p[q]`` bytes from ``q`` before ``p``'s checkpoint;
    if ``q`` rolls back to a point where it had sent only ``SS_q[p]`` of them,
    the re-executed sends up to ``RR_p[q]`` would be duplicates and are
    suppressed.  The skip volume is ``max(0, RR_p[q] − SS_q[p])`` — non-zero
    when the receiver checkpointed *after* the sender.
    """
    snapshots = result.snapshots()
    out: Dict[Tuple[int, int], int] = {}
    for q, snap_q in snapshots.items():
        for p, sent_at_ckpt in snap_q.ss.items():
            if p == q or p in snap_q.group_members:
                continue
            snap_p = snapshots.get(p)
            if snap_p is None:
                continue
            received_at_ckpt = snap_p.rr.get(q, 0)
            skip = max(0, received_at_ckpt - sent_at_ckpt)
            if skip > 0:
                out[(q, p)] = skip
    return out


class ReplayJoin:
    """Per-rank join on incoming log replay.

    Counts, for each rank in ``ranks``, the replay channels still owed to it
    and holds one event per rank that fires once the last of them landed
    (immediately, for a rank owed nothing).  A restarting rank yields its
    event before it may pass the replay stage.
    """

    def __init__(self, sim: Simulator, ranks: Iterable[int],
                 channel_dsts: Iterable[int]) -> None:
        self.sim = sim
        self.remaining: Dict[int, int] = dict.fromkeys(ranks, 0)
        for dst in channel_dsts:
            if dst in self.remaining:
                self.remaining[dst] += 1
        self.done: Dict[int, Event] = {}
        for rank, owed in self.remaining.items():
            self.done[rank] = event = Event(sim, name="replayed")
            if owed == 0:
                event.succeed(0)

    def landed(self, dst: int) -> None:
        """One channel into ``dst`` finished replaying."""
        owed = self.remaining.get(dst)
        if owed is None:
            return
        self.remaining[dst] = owed - 1
        if owed == 1 and not self.done[dst].triggered:
            self.done[dst].succeed(self.sim.now)


Marks = List[Tuple[str, float, float]]


def rebuild_stage(sim: Simulator, rebuild_s: float,
                  marks: Marks) -> Generator[Event, None, None]:
    """Restart stage 2: rebuild the MPI library's internal structures."""
    t0 = sim.now
    yield sim.timeout(rebuild_s)
    marks.append(("rebuild", t0, sim.now))


def exchange_stage(sim: Simulator, network_spec: Any, n_peers: int,
                   marks: Marks) -> Generator[Event, None, None]:
    """Restart stage 3: one R/S round trip with each out-of-group peer."""
    t0 = sim.now
    if n_peers:
        rtt = 2 * (network_spec.latency_s + network_spec.per_message_overhead_s)
        yield sim.timeout(n_peers * rtt)
    marks.append(("exchange", t0, sim.now))


def simulate_restart(
    result: ApplicationResult,
    cluster_spec: ClusterSpec,
    blcr: Optional[BlcrModel] = None,
    config: Optional[ProtocolConfig] = None,
    barrier_cost_s: float = 0.02,
) -> RestartResult:
    """Simulate restarting the whole application from its latest checkpoints.

    A fresh simulator and cluster (same spec as the original run) are used, so
    restart I/O and replay traffic see the same storage and network contention
    the original system would.
    """
    if barrier_cost_s < 0:
        raise ValueError("barrier_cost_s must be non-negative")
    blcr = blcr if blcr is not None else BlcrModel()
    config = config if config is not None else ProtocolConfig()
    n_ranks = result.n_ranks
    snapshots = result.snapshots()
    if not snapshots:
        raise ValueError("no checkpoints were taken; nothing to restart from")

    sim = Simulator()
    cluster = Cluster(sim, cluster_spec)
    placement = cluster.place_ranks(n_ranks)
    network = cluster.network
    # All restart I/O goes through the storage hierarchy's tier API; for
    # single-tier specs it delegates verbatim to the configured storage.
    storage = cluster.hierarchy

    channels = replay_volumes(result)
    outgoing: Dict[int, List[ReplayChannel]] = {}
    for ch in channels:
        outgoing.setdefault(ch.src, []).append(ch)

    prepared_time: Dict[int, float] = {}
    join = ReplayJoin(sim, range(n_ranks), (ch.dst for ch in channels))
    stage_marks: Dict[int, Marks] = {r: [] for r in range(n_ranks)}
    replay_received: Dict[int, int] = {r: 0 for r in range(n_ranks)}
    replay_sent: Dict[int, int] = {r: 0 for r in range(n_ranks)}
    resend_ops: Dict[int, int] = {r: 0 for r in range(n_ranks)}
    skip_by_sender: Dict[int, int] = {}
    for (q, _p), nbytes in skip_volumes(result).items():
        skip_by_sender[q] = skip_by_sender.get(q, 0) + nbytes

    def rank_restart(rank: int):
        node = placement[rank]
        snap = snapshots.get(rank)
        ctx = result.contexts[rank]
        image_bytes = snap.image_bytes if snap is not None else blcr.image_bytes(ctx.memory_bytes)
        marks = stage_marks[rank]

        # 1. restore the process image
        t0 = sim.now
        yield from storage.read(node, image_bytes)
        yield sim.timeout(blcr.restore_exec_s)
        marks.append(("image", t0, sim.now))

        # 2. rebuild MPI internal structures
        yield from rebuild_stage(sim, config.restart_rebuild_s, marks)

        # 3. exchange R/S volumes with out-of-group peers (one round trip each)
        out_peers: set[int] = set()
        if snap is not None:
            out_peers = {
                p
                for p in (set(snap.ss) | set(snap.rr))
                if p != rank and p not in snap.group_members
            }
        yield from exchange_stage(sim, network.spec, len(out_peers), marks)

        # 4. replay logged messages this rank owes to out-of-group peers
        t0 = sim.now
        for ch in outgoing.get(rank, []):
            # the flushed log is read back from checkpoint storage, then resent
            yield from storage.read(node, ch.nbytes)
            yield from network.transfer(node, placement[ch.dst], ch.nbytes)
            replay_sent[rank] += ch.nbytes
            resend_ops[rank] += ch.n_messages
            replay_received[ch.dst] += ch.nbytes
            join.landed(ch.dst)
        # ... and wait for every replay destined to this rank
        yield join.done[rank]
        marks.append(("replay", t0, sim.now))

        prepared_time[rank] = sim.now

    for rank in range(n_ranks):
        sim.process(rank_restart(rank), name=f"restart:{rank}")
    sim.run()

    if len(prepared_time) != n_ranks:
        missing = sorted(set(range(n_ranks)) - set(prepared_time))
        raise RuntimeError(f"restart deadlocked; ranks never prepared: {missing[:8]}")

    # 5. wait until all group members finish preparing (computed post-hoc)
    out = RestartResult(channels=channels)
    for rank in range(n_ranks):
        snap = snapshots.get(rank)
        members = snap.group_members if snap is not None else (rank,)
        group_ready = max(prepared_time.get(m, prepared_time[rank]) for m in members)
        end = group_ready + barrier_cost_s
        stages = {name: t1 - t0 for name, t0, t1 in stage_marks[rank]}
        stages["barrier"] = end - prepared_time[rank]
        image_bytes = snap.image_bytes if snap is not None else 0
        out.records.append(
            RestartRecord(
                rank=rank,
                start=0.0,
                end=end,
                image_bytes=image_bytes,
                replay_bytes_sent=replay_sent[rank],
                replay_bytes_received=replay_received[rank],
                resend_operations=resend_ops[rank],
                skip_bytes=skip_by_sender.get(rank, 0),
                stages=stages,
            )
        )
    return out


# --------------------------------------------------------------------- live recovery
@dataclass
class RankRecovery:
    """Measured outcome of one rank's in-flight rollback and restart."""

    rank: int
    #: work discarded by the rollback: time from the restored checkpoint's
    #: completion (or process start) to the instant the script last executed
    lost_work_s: float
    #: simulation time at which the re-created script resumed execution
    resumed_at: float
    #: failure instant → resumption (detection, restore, replay, barrier)
    recovery_time_s: float
    resume_op_index: int
    image_bytes: int
    #: node the rank resumed on (== its original node unless migrated)
    restart_node: int = -1
    #: node the rank ran on before a spare-pool migration (None = in place)
    migrated_from: Optional[int] = None


@dataclass
class RecoveryReport:
    """Everything measured about one injected failure's recovery."""

    failure_time: float
    node: int
    victims: Tuple[int, ...]
    rollback_ranks: Tuple[int, ...]
    #: checkpoint id the group rolled back to (None = restart from scratch)
    target_ckpt_id: Optional[int]
    #: end of the detection delay (None while the failure is undetected)
    detected_at: Optional[float] = None
    #: resumption, or the unsurvivable verdict (None while in flight)
    completed_at: Optional[float] = None
    ranks: List[RankRecovery] = field(default_factory=list)
    #: channels actually replayed, with measured bytes/messages
    channels: List[ReplayChannel] = field(default_factory=list)
    #: (rank, from_node, to_node) spare-pool migrations performed
    placements: List[Tuple[int, int, int]] = field(default_factory=list)
    #: victim ranks that restarted in place on a rebooted dead node
    inplace_reboots: int = 0
    #: migrations that landed on the victim's own edge switch
    same_switch_placements: int = 0
    #: earlier recovery attempts of this scope aborted by a failure landing
    #: mid-recovery (this report covers the attempt that converged)
    superseded_attempts: int = 0
    #: failure cause ("crash" node death, "switch-outage" correlated event)
    cause: str = "crash"
    #: True when no surviving storage tier held a required image — the run
    #: was declared failed instead of restored
    unsurvivable: bool = False
    #: storage level each rank's image was actually restored from
    #: (rank → "L1"/"L2"/"L3"; empty for from-scratch restarts)
    restore_tiers: Dict[int, str] = field(default_factory=dict)
    #: True when this recovery shrank the job onto the survivors (elastic
    #: restart) instead of restoring the original rank count
    shrink: bool = False
    #: ranks actively computing after this recovery (None = unchanged)
    ranks_after: Optional[int] = None
    #: work units that changed owner under the shrink's repartition
    units_migrated: int = 0
    #: checkpoint-image bytes shipped dead rank → adopter over the network
    repartition_bytes_shipped: int = 0

    @property
    def replayed_bytes(self) -> int:
        """Total bytes resent from sender logs during this recovery."""
        return sum(ch.nbytes for ch in self.channels)

    @property
    def replayed_messages(self) -> int:
        """Total log entries resent during this recovery."""
        return sum(ch.n_messages for ch in self.channels)

    @property
    def total_lost_work_s(self) -> float:
        """Sum of per-rank discarded work (the measured Figure-10 quantity)."""
        return sum(r.lost_work_s for r in self.ranks)

    @property
    def max_recovery_time_s(self) -> float:
        """Slowest rank's failure-to-resumption time."""
        return max((r.recovery_time_s for r in self.ranks), default=0.0)

    @property
    def recovery_rank_seconds(self) -> float:
        """Sum of per-rank failure-to-resumption times (unavailability cost)."""
        return sum(r.recovery_time_s for r in self.ranks)


def rollback_scope(runtime: "MpiRuntime", victims: Sequence[int]) -> Set[int]:
    """Ranks that must roll back when ``victims`` die: their whole groups.

    Group membership is the protocol's static definition (finished ranks
    included — a finished group member whose peer rolls back must re-execute
    its tail so re-generated intra-group traffic lines up).
    """
    out: Set[int] = set()
    for victim in victims:
        proto = runtime.ctx(victim).protocol
        members = getattr(proto, "group_members", None)
        if members is None:
            # VCL (and any global protocol): every rank coordinates together.
            members = range(runtime.n_ranks)
        out.update(members)
        out.add(victim)
    return out


def common_checkpoint_ids(runtime: "MpiRuntime", members: Sequence[int]) -> List[int]:
    """Checkpoint ids *every* member holds a snapshot for, newest first.

    A failure can hit mid-wave, leaving some members with a newer snapshot
    than others; a recovery line must be a checkpoint all of them completed
    dumping.  Empty means at least one member never checkpointed — the group
    can only restart from scratch.
    """
    common: Optional[Set[int]] = None
    for rank in members:
        proto = runtime.ctx(rank).protocol
        ids = {snap.ckpt_id for snap in proto.snapshot_history()} if proto else set()
        common = ids if common is None else (common & ids)
        if not common:
            return []
    return sorted(common or (), reverse=True)


def snapshot_at(runtime: "MpiRuntime", rank: int,
                ckpt_id: int) -> Optional[CheckpointSnapshot]:
    """``rank``'s snapshot of checkpoint ``ckpt_id`` (None if it holds none)."""
    proto = runtime.ctx(rank).protocol
    if proto is None:
        return None
    return next((s for s in proto.snapshot_history() if s.ckpt_id == ckpt_id),
                None)


def _lost_work(ctx: Any, snap: Optional[CheckpointSnapshot], t_attempt: float) -> float:
    """Work a rank loses by rolling back to ``snap`` (None = process start).

    Counted from the snapshot's completion up to the instant the script
    last executed: the attempt start, or earlier if the rank had already
    halted (killed, or rolled back by a superseded attempt — no work was
    done, hence none lost, between the halt and now) or finished.
    """
    since = snap.time if snap is not None else ctx.stats.started_at
    horizon = t_attempt
    if ctx.halted_at is not None and ctx.halted_at < horizon:
        horizon = ctx.halted_at
    if ctx.stats.finished_at is not None and ctx.stats.finished_at < horizon:
        horizon = ctx.stats.finished_at
    return max(horizon - since, 0.0)


#: recovery line: each rolled-back rank → its snapshot at the line (None =
#: process start), in rollback order
Line = Dict[int, Optional[CheckpointSnapshot]]

# A scope policy (one per LiveRecovery) provides:
#   shrink                 the report's flag; a shrink replays nothing
#   choose_line(report)    the Line, or None once it declared the failure
#                          unsurvivable; also sets ``participants``, the ranks
#                          that restart and relaunch
#   roll_back(line)        roll the line back; each rank's resume op index
#   restore_image(rank, marks)
#                          restart stages 0-1 (a generator returning False
#                          when the failure turned unsurvivable)
#   program(rank)          the script to relaunch (None = the launch script)


class LiveRecovery:
    """The in-flight recovery engine: rollback, restore, replay, relaunch.

    Runs *inside* the application's simulation (unlike
    :func:`simulate_restart`).  After the detection delay a scope policy
    picks the recovery line (which ranks roll back, and to which snapshot)
    and the participants that restart; each rolled-back rank's lost work is
    measured before it rolls back.  Each participant then runs the staged
    pipeline — image restore, rebuild, R/S exchange and the replay of logged
    messages over the live (contended) network — and all of them resume
    together after the barrier.  Produces a :class:`RecoveryReport`
    appended to ``runtime.recovery_reports``.

    The policy is a group rollback by default (``placements``,
    ``dead_nodes``, ``reboot_delay_s`` and ``spare_pool`` describe where the
    victims restart); passing a partitionable ``workload`` makes it an
    elastic shrink onto the survivors instead, which reserves no spare and
    waits for no reboot.
    """

    def __init__(
        self,
        runtime: "MpiRuntime",
        victims: Sequence[int],
        detection_delay_s: float = 0.25,
        barrier_cost_s: float = 0.02,
        blcr: Optional[BlcrModel] = None,
        config: Optional[ProtocolConfig] = None,
        node: int = -1,
        placements: Optional[Dict[int, int]] = None,
        dead_nodes: Sequence[int] = (),
        reboot_delay_s: float = 0.0,
        superseded_attempts: int = 0,
        origin_time: Optional[float] = None,
        cause: str = "crash",
        spare_pool: Optional[Any] = None,
        workload: Optional["Workload"] = None,
    ) -> None:
        if detection_delay_s < 0:
            raise ValueError("detection_delay_s must be non-negative")
        if barrier_cost_s < 0:
            raise ValueError("barrier_cost_s must be non-negative")
        if reboot_delay_s < 0:
            raise ValueError("reboot_delay_s must be non-negative")
        self.runtime = runtime
        self.victims = tuple(sorted(victims))
        if not self.victims:
            raise ValueError("victims must not be empty")
        self.detection_delay_s = detection_delay_s
        self.barrier_cost_s = barrier_cost_s
        family = runtime.protocol_family
        self.blcr = blcr if blcr is not None else getattr(family, "blcr", None) or BlcrModel()
        self.config = config if config is not None else getattr(family, "config", None) or ProtocolConfig()
        self.node = node
        #: rank → replacement node decided by the spare pool (empty = in place)
        self.placements: Dict[int, int] = dict(placements or {})
        #: crashed nodes: a rank restarting in place on one must wait out the
        #: node reboot before its image can be restored (tier selection may
        #: add to this set when it cancels a spare placement)
        self.dead_nodes = set(dead_nodes)
        self.reboot_delay_s = reboot_delay_s
        self.superseded_attempts = superseded_attempts
        self.cause = cause
        #: pool to hand a reserved spare back to when tier selection cancels
        #: a placement (the only surviving image copy is on the dead node)
        self.spare_pool = spare_pool
        #: time of the earliest failure this recovery covers.  A merged or
        #: queued recovery starts later than the failure that triggered it;
        #: the *measured* recovery time must span from the original failure
        #: (the group was already dead/recovering in between), not from this
        #: attempt's start.  None = this attempt starts at the failure.
        self.origin_time = origin_time
        self.scope = (_ElasticShrink(self, workload) if workload is not None
                      else _GroupRollback(self))
        #: processes spawned by :meth:`run` (restart + replay coroutines);
        #: an abort interrupts them alongside the orchestration itself
        self._children: List["Event"] = []
        #: what the restart stages measured, folded into the report once
        #: every rank resumed
        self.migrated_from: Dict[int, int] = {}
        self.restored_bytes: Dict[int, int] = {}
        self.inplace_reboots = 0
        self.bytes_shipped = 0
        self._replayed: List[ReplayChannel] = []
        #: log replay of a group rollback (a shrink replays nothing): the
        #: join on incoming channels, and each rolled-back sender's channels
        self._join: Optional[ReplayJoin] = None
        self._outgoing: Dict[int, List[Tuple[int, List]]] = {}
        #: the in-progress report plus per-rank restart windows and stage
        #: marks, so the span tree can be emitted from the *report* itself —
        #: the exported trace matches the RecoveryReport by construction
        self.report: Optional[RecoveryReport] = None
        self._rank_windows: Dict[int, Tuple[float, float]] = {}
        self._stage_marks: Dict[int, Marks] = {}
        self._trace_emitted = False

    # -- orchestration --------------------------------------------------------
    def abort(self) -> None:
        """Cancel this in-flight recovery (a newer failure superseded it).

        Interrupts the restart/replay coroutines it spawned; the orchestration
        process itself is interrupted by the caller (the recovery manager).
        In-flight replayed messages die by rollback-epoch mismatch once the
        superseding recovery re-rolls the group, so channel accounting stays
        exact.
        """
        for child in self._children:
            if child.is_alive:
                child.interrupt("recovery-superseded")
        del self._children[:]

    def run(self) -> Generator[Event, None, Optional[RecoveryReport]]:
        """The recovery coroutine (registered as a process by the manager).

        Returns the completed :class:`RecoveryReport`, or None when the
        recovery was aborted mid-flight by a superseding failure (the
        manager restarts the affected scope from its new rollback target).
        """
        try:
            report = yield from self._run_body()
        except Interrupt:
            self.abort()
            # a superseding failure cut this attempt short: close its trace
            # as an aborted recovery span so the timeline shows the attempt
            self._emit_trace(aborted=True)
            return None
        self._emit_trace()
        return report

    def declare_unsurvivable(self, reason: str) -> None:
        """Declare the run failed: no surviving copy of a required image."""
        report = self.report
        report.unsurvivable = True
        report.completed_at = self.runtime.sim.now
        self.runtime.recovery_reports.append(report)
        self.runtime.abort_application(reason)

    def _emit_trace(self, aborted: bool = False) -> None:
        """Retro-emit this recovery's span tree from its report (once).

        The root ``recovery`` span carries the report's measured window
        (failure → resumption, or → the abort instant for an aborted
        attempt) and rollback ranks as attributes; children are the
        detection delay (once it elapsed), one ``rank_restart`` span per
        recovered rank (with reboot/image_restore/rebuild/exchange/replay
        stage sub-spans timed live), and the resume barrier.  Because
        everything is derived from the :class:`RecoveryReport` and
        timestamps captured alongside it, the exported tree cannot disagree
        with the report.
        """
        runtime = self.runtime
        report = self.report
        if not runtime.telemetry_tracing or report is None or self._trace_emitted:
            return
        self._trace_emitted = True
        tracer = runtime.telemetry.tracer
        end = report.completed_at if report.completed_at is not None else runtime.sim.now
        root = tracer.add(
            "recovery", start=report.failure_time, end=end,
            track="recovery", category="recovery",
            aborted=aborted or report.unsurvivable,
            node=report.node, cause=report.cause,
            victims=list(report.victims),
            rollback_ranks=list(report.rollback_ranks),
            target_ckpt_id=report.target_ckpt_id,
            unsurvivable=report.unsurvivable,
            shrink=report.shrink,
            ranks_after=report.ranks_after,
            units_migrated=report.units_migrated,
        )
        if report.detected_at is not None:
            tracer.add("detection", start=report.failure_time,
                       end=report.detected_at, track="recovery",
                       category="recovery", parent=root)
        for rr in report.ranks:
            window = self._rank_windows.get(rr.rank)
            if window is None:
                continue
            rspan = tracer.add(
                "rank_restart", start=window[0], end=window[1],
                track="recovery", category="recovery", parent=root,
                rank=rr.rank, restart_node=rr.restart_node,
                migrated_from=rr.migrated_from, image_bytes=rr.image_bytes)
            for name, t0, t1 in self._stage_marks.get(rr.rank, ()):
                tracer.add(name, start=t0, end=t1, track="recovery",
                           category="recovery.stage", parent=rspan)
        if report.ranks and report.completed_at is not None:
            windows = [self._rank_windows[rr.rank] for rr in report.ranks
                       if rr.rank in self._rank_windows]
            if windows:
                tracer.add("barrier", start=max(w[1] for w in windows),
                           end=report.completed_at, track="recovery",
                           category="recovery", parent=root)

    def _run_body(self) -> Generator[Event, None, RecoveryReport]:
        runtime = self.runtime
        sim = runtime.sim
        scope = self.scope
        #: this attempt's start (bounds lost-work horizons: work executed up
        #: to the instant each rank actually halted, never past this attempt)
        t_attempt = sim.now
        #: the original failure instant — recovery time is measured from here,
        #: so superseded attempts and queue waits count as recovery time
        t_fail = self.origin_time if self.origin_time is not None else t_attempt
        report = self.report = RecoveryReport(
            failure_time=t_fail, node=self.node, victims=self.victims,
            rollback_ranks=(), target_ckpt_id=None,
            superseded_attempts=self.superseded_attempts,
            cause=self.cause, shrink=scope.shrink,
        )

        # mpirun notices the dead node only after the detection delay; the
        # victim's processes stopped at t_fail, everyone else keeps running.
        if self.detection_delay_s > 0:
            yield sim.timeout(self.detection_delay_s)
        report.detected_at = sim.now

        line = scope.choose_line(report)
        if line is None:
            return report  # unsurvivable
        lost_work = {rank: _lost_work(runtime.ctx(rank), snap, t_attempt)
                     for rank, snap in line.items()}
        resume_index = scope.roll_back(line)
        participants = scope.participants

        alive: List[Tuple[int, int, List]] = []
        if not scope.shrink:
            alive = self._plan_replay(line)
        prepared = [sim.process(self._rank_restart(rank), name=f"recover:{rank}")
                    for rank in participants]
        self._children.extend(prepared)
        for src, dst, entries in alive:
            self._children.append(sim.process(
                self._alive_replay(src, dst, entries), name="replay"))

        yield sim.all_of(prepared)
        # 5. everyone resumes together
        if self.barrier_cost_s > 0:
            yield sim.timeout(self.barrier_cost_s)

        resumed_at = sim.now
        for rank in participants:
            runtime.relaunch_rank(rank, resume_index[rank],
                                  program=scope.program(rank))
        for rank in line:
            report.ranks.append(RankRecovery(
                rank=rank,
                lost_work_s=lost_work[rank],
                resumed_at=resumed_at,
                recovery_time_s=resumed_at - t_fail,
                resume_op_index=resume_index[rank],
                image_bytes=self.restored_bytes.get(rank, 0),
                restart_node=runtime.ctx(rank).node_id,
                migrated_from=self.migrated_from.get(rank),
            ))
        report.completed_at = resumed_at
        report.channels = self._replayed
        report.placements = [(rank, old, runtime.ctx(rank).node_id)
                             for rank, old in sorted(self.migrated_from.items())]
        report.same_switch_placements = sum(
            1 for _rank, old, new in report.placements
            if runtime.cluster.network.same_switch(old, new))
        report.inplace_reboots = self.inplace_reboots
        report.repartition_bytes_shipped = self.bytes_shipped
        runtime.recovery_reports.append(report)
        del self._children[:]
        return report

    def _plan_replay(self, line: Line) -> List[Tuple[int, int, List]]:
        """Plan log replay into and out of the rolled-back ranks.

        Runs after every rollback, so truncated logs and restored R counters
        are in effect.  A channel needs replay when an endpoint rolled back:
        data beyond the receiver's restored R was on connections the failure
        reset (or was logged before the sender's own rollback) and will not
        be re-sent live.  A rolled-back sender replays from its restart
        pipeline; the channels of out-of-scope senders are returned — a
        survivor serves them from its in-memory log in the background while
        its own script keeps running.
        """
        runtime = self.runtime
        plans: List[Tuple[int, int, List]] = []
        for ctx in runtime.contexts:
            log = getattr(ctx.protocol, "log", None)
            if log is None:
                continue
            src = ctx.rank
            for dst in log.destinations():
                if src not in line and dst not in line:
                    continue
                received = runtime.ctx(dst).account.received_from(src)
                entries = log.replay_plan(dst, received)
                if entries:
                    plans.append((src, dst, entries))
        self._join = ReplayJoin(runtime.sim, line, (dst for _src, dst, _e in plans))
        alive = []
        for src, dst, entries in plans:
            if src in line:
                self._outgoing.setdefault(src, []).append((dst, entries))
            else:
                alive.append((src, dst, entries))
        return alive

    def _replay_done(self, src: int, dst: int, nbytes: int, count: int) -> None:
        self._replayed.append(ReplayChannel(src=src, dst=dst, nbytes=nbytes,
                                            n_messages=count))
        self._join.landed(dst)

    def _alive_replay(self, src: int, dst: int, entries: List):
        try:
            nbytes, count = yield from self.runtime.replay_channel(src, dst, entries, False)
        except Interrupt:
            return  # recovery superseded; accounting is epoch-protected
        self._replay_done(src, dst, nbytes, count)

    def _rank_restart(self, rank: int):
        """One participant's restart pipeline (stages 0/1 from the policy)."""
        runtime = self.runtime
        sim = runtime.sim
        marks = self._stage_marks.setdefault(rank, [])
        entered_at = sim.now
        try:
            if not (yield from self.scope.restore_image(rank, marks)):
                return  # unsurvivable: the run was aborted
            # 2. rebuild MPI internal structures
            yield from rebuild_stage(sim, self.config.restart_rebuild_s, marks)
            join = self._join
            if join is not None:
                # 3. R/S exchange with peers outside the rollback set (the
                # ranks the replay join covers)
                out_peers = {p for p in runtime.ctx(rank).account.peers()
                             if p not in join.remaining}
                yield from exchange_stage(sim, runtime.cluster.network.spec,
                                          len(out_peers), marks)
                # 4. replay this rank's own logged messages (flushed log read
                # back) ...
                t0 = sim.now
                for dst, entries in self._outgoing.get(rank, []):
                    nbytes, count = yield from runtime.replay_channel(rank, dst, entries, True)
                    self._replay_done(rank, dst, nbytes, count)
                # ... and wait for everything owed to this rank
                yield join.done[rank]
                marks.append(("replay", t0, sim.now))
            self._rank_windows[rank] = (entered_at, sim.now)
        except Interrupt:
            return  # recovery superseded; the new attempt re-rolls us


# --------------------------------------------------------------------- scope policies
class _GroupRollback:
    """Scope policy: roll the victims' checkpoint groups back in place.

    Chooses, per group, the newest common checkpoint whose images survive
    on some storage tier (cancelling a spare placement that cannot reach
    the only surviving copy), rolls exactly those ranks back to it, and
    restores each image after relaunching the rank on its spare or waiting
    out its node's reboot.  Out-of-scope ranks keep executing and serve the
    replay the rolled-back ranks are owed.
    """

    shrink = False

    def __init__(self, rec: "LiveRecovery") -> None:
        self.rec = rec
        self.line: Line = {}
        self.participants: Sequence[int] = ()

    def choose_line(self, report: RecoveryReport) -> Optional[Line]:
        rec = self.rec
        runtime = rec.runtime
        rollback = sorted(rollback_scope(runtime, rec.victims))
        report.rollback_ranks = tuple(rollback)

        # Where each rank will restart, and which dead nodes come back in
        # place — the storage-tier selection needs both.
        hierarchy = runtime.cluster.hierarchy
        final_node: Dict[int, int] = {
            rank: rec.placements.get(rank, runtime.ctx(rank).node_id)
            for rank in rollback
        }
        assume_rebooted = set(rec.dead_nodes)

        # Partition the rollback set into its checkpoint groups and pick each
        # group's recovery line (they are usually one and the same group).
        # With a storage hierarchy configured, the recovery line is the newest
        # common checkpoint whose every image still has a *surviving* copy on
        # some tier; losing the newest one degrades to an older checkpoint,
        # and losing them all makes the failure unsurvivable.  Legacy mode
        # keeps the pre-hierarchy rule (newest common checkpoint, dead nodes'
        # disks assumed readable) bit-for-bit.
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for rank in rollback:
            proto = runtime.ctx(rank).protocol
            members = tuple(sorted(getattr(proto, "group_members", None)
                                   or range(runtime.n_ranks)))
            groups.setdefault(members, []).append(rank)
        target_by_rank: Line = {}
        target_ids: List[int] = []
        scope_set = set(rollback)

        def replay_covered(rank: int, cid: int) -> bool:
            """Do the out-of-scope senders' logs still cover ``cid``'s gap?

            Rolling ``rank`` back to checkpoint ``cid`` re-opens the byte
            range between its recorded R counters and the live frontier;
            bytes from senders outside the rollback scope must come from
            their retained logs (in-scope senders re-execute instead).  The
            deferred GC-point rule makes this hold for every *safe*
            checkpoint, but a copy destroyed after adoption can force an
            older target — this check turns that into an explicit
            unsurvivable verdict instead of a blocked receive.
            """
            snap = snapshot_at(runtime, rank, cid)
            resume = snap.resume if snap is not None else None
            if resume is None:
                return True
            for src_ctx in runtime.contexts:
                q = src_ctx.rank
                if q == rank or q in scope_set:
                    continue
                restored = resume.rr.get(q, 0)
                if src_ctx.account.sent_to(rank) <= restored:
                    continue
                log = getattr(src_ctx.protocol, "log", None)
                if log is None:
                    return False
                entries = log.entries_for(rank)
                if not entries:
                    return False
                first = entries[0]
                if first.end_offset - first.nbytes > restored:
                    return False
            return True

        def feasible(ranks: List[int], cid: int) -> Optional[Set[int]]:
            """Can every rank restore checkpoint ``cid``?

            Returns the set of spare placements that must be *cancelled* for
            it (the only surviving copy sits on the dead node's intact disk,
            so the rank reboots in place instead of migrating), or None when
            some rank has no surviving copy anywhere or some replay byte is
            no longer retained.
            """
            cancels: Set[int] = set()
            for rank in ranks:
                plan = hierarchy.restore_plan(
                    rank, cid, final_node[rank], assume_rebooted)
                if plan is None and rank in rec.placements:
                    home = runtime.ctx(rank).node_id
                    plan = hierarchy.restore_plan(
                        rank, cid, home, assume_rebooted | {home})
                    if plan is not None:
                        cancels.add(rank)
                if plan is None or not replay_covered(rank, cid):
                    return None
            return cancels

        for members, ranks in groups.items():
            candidates = common_checkpoint_ids(runtime, members)
            if hierarchy.legacy:
                target_id = candidates[0] if candidates else None
            else:
                target_id = None
                for cid in candidates:
                    cancels = feasible(ranks, cid)
                    if cancels is None:
                        continue
                    target_id = cid
                    for rank in cancels:
                        # The spare cannot reach the image; restart in place
                        # on the (rebooting) dead node and return the spare.
                        spare = rec.placements.pop(rank)
                        home = runtime.ctx(rank).node_id
                        rec.dead_nodes.add(home)
                        assume_rebooted.add(home)
                        final_node[rank] = home
                        if rec.spare_pool is not None:
                            rec.spare_pool.release(spare, rank)
                    break
                if target_id is None and candidates:
                    # Checkpoints exist but no retrievable set survives: a
                    # real restart has nothing to restore these ranks from.
                    rec.declare_unsurvivable(
                        f"no surviving copy of checkpoint images for "
                        f"ranks {sorted(ranks)[:8]} "
                        f"({rec.cause} at t={report.failure_time:.3f})")
                    return None
            if target_id is not None:
                target_ids.append(target_id)
            for rank in ranks:
                target_by_rank[rank] = (snapshot_at(runtime, rank, target_id)
                                        if target_id is not None else None)
        report.target_ckpt_id = max(target_ids) if target_ids else None
        self.participants = rollback
        self.line = {rank: target_by_rank[rank] for rank in rollback}
        return self.line

    def roll_back(self, line: Line) -> Dict[int, int]:
        # Scripts interrupted, accounting and sender logs restored to the
        # line, inboxes replaced (stale in-flight messages die by epoch
        # mismatch at delivery).
        runtime = self.rec.runtime
        return {rank: runtime.rollback_rank(rank, snap)
                for rank, snap in line.items()}

    def program(self, rank: int) -> None:
        return None  # the launch-time script, resumed at its rollback point

    def restore_image(self, rank: int, marks: Marks) -> Generator[Event, None, bool]:
        rec = self.rec
        runtime = rec.runtime
        sim = runtime.sim
        hierarchy = runtime.cluster.hierarchy
        ctx = runtime.ctx(rank)
        snap = self.line[rank]
        new_node = rec.placements.get(rank)
        t0 = sim.now
        if new_node is not None and new_node != ctx.node_id:
            # 0. relaunch on a spare node: every later step (image fetch,
            # replay, application traffic) uses the spare's NIC
            rec.migrated_from[rank] = runtime.migrate_rank(rank, new_node)
        elif ctx.node_id in rec.dead_nodes:
            # in-place restart on the crashed node: wait out its reboot
            rec.inplace_reboots += 1
            if rec.reboot_delay_s > 0:
                yield sim.timeout(rec.reboot_delay_s)
            runtime.cluster.nodes[ctx.node_id].mark_rebooted()
            marks.append(("reboot", t0, sim.now))
        # 1. re-create the process and restore its image
        image_bytes = snap.image_bytes if snap is not None else 0
        t0 = sim.now
        if image_bytes > 0:
            if hierarchy.legacy:
                old = rec.migrated_from.get(rank)
                if old is not None and runtime.cluster.spec.checkpoint_storage != "remote":
                    # legacy local storage: the image sits on the dead node's
                    # (surviving) disk — read it there and ship it to the
                    # spare over the network
                    yield from hierarchy.read(old, image_bytes)
                    yield from runtime.cluster.network.transfer(
                        old, ctx.node_id, image_bytes)
                else:
                    # local disk in place, or checkpoint servers that stream
                    # the image straight to wherever the rank is
                    yield from hierarchy.read(ctx.node_id, image_bytes)
            else:
                # tier selection: cheapest copy that *still* survives
                # (re-resolved here — a correlated failure may have taken the
                # planned source since the target was picked; an in-place
                # node has rebooted by now)
                plan = hierarchy.restore_plan(rank, snap.ckpt_id, ctx.node_id)
                if plan is None:
                    rec.declare_unsurvivable(
                        f"image of rank {rank} ckpt {snap.ckpt_id} lost "
                        f"mid-recovery ({rec.cause})")
                    return False
                rec.report.restore_tiers[rank] = plan.level
                yield from hierarchy.perform_restore(plan, ctx.node_id, image_bytes)
            rec.restored_bytes[rank] = image_bytes
            yield sim.timeout(rec.blcr.restore_exec_s)
        marks.append(("image_restore", t0, sim.now))
        return True


# --------------------------------------------------------------------- elastic restart
def plan_repartition(
    runtime: "MpiRuntime",
    workload: "Workload",
    failed_ranks: Sequence[int],
) -> RepartitionPlan:
    """Decide how the survivors absorb the failed ranks' work units.

    Permanently dead ranks are ``failed_ranks`` plus every rank currently
    placed on a failed node (a previously retired rank must never adopt new
    units).  The orphaned units go to the least compute-loaded survivors;
    the recovery line is the newest checkpoint id held by every unit-owning
    rank whose images are *all* still reachable — the survivors' own copies
    from their own nodes, the dead ranks' copies from their adopters' nodes
    (the image has to ship over the live network; a copy stranded on a dead
    node's local disk does not qualify).  ``resume_step`` is the minimum
    per-unit domain progress recorded with those images; when no retrievable
    line exists the plan restarts from scratch (``target_ckpt_id=None``,
    ``resume_step=0``) — always survivable because the scripts simply
    re-execute everything.

    Raises ``ValueError`` when every rank is dead (nothing can adopt).
    """
    part = workload.partition
    nodes = runtime.cluster.nodes
    dead = set(failed_ranks)
    dead.update(r for r in range(runtime.n_ranks)
                if nodes[runtime.ctx(r).node_id].failed)
    new_part = part.reassign(sorted(dead), workload.domain().weights())
    adoptions = tuple(
        (u, part.owner[u], new_part.owner[u])
        for u in range(part.n_units)
        if part.owner[u] != new_part.owner[u]
    )

    hierarchy = runtime.cluster.hierarchy
    owners = sorted(part.active_ranks())
    candidates = common_checkpoint_ids(runtime, owners) if owners else []

    def feasible(cid: int) -> bool:
        for rank in owners:
            if rank in dead:
                record = hierarchy.catalog.get((rank, cid))
                if record is None:
                    return False
                adopters = {dst for u, src, dst in adoptions if src == rank}
                for adopter in adopters:
                    reader = runtime.ctx(adopter).node_id
                    if hierarchy.restore_plan(rank, cid, reader) is None:
                        return False
            else:
                reader = runtime.ctx(rank).node_id
                if hierarchy.restore_plan(rank, cid, reader) is None:
                    return False
        return True

    for cid in candidates:
        if not feasible(cid):
            continue
        progress: List[int] = []
        for u in range(part.n_units):
            old_owner = part.owner[u]
            if old_owner in dead:
                record = hierarchy.catalog.get((old_owner, cid))
                state = record.domain_state if record is not None else None
            else:
                snap = snapshot_at(runtime, old_owner, cid)
                state = (snap.resume.domain_state
                         if snap is not None and snap.resume is not None
                         else None)
            progress.append(state.get(u, 0) if state else 0)
        return RepartitionPlan(
            failed_ranks=tuple(sorted(dead)),
            new_partition=new_part,
            resume_step=min(progress) if progress else 0,
            target_ckpt_id=cid,
            adoptions=adoptions,
        )
    return RepartitionPlan(
        failed_ranks=tuple(sorted(dead)),
        new_partition=new_part,
        resume_step=0,
        target_ckpt_id=None,
        adoptions=adoptions,
    )


class _ElasticShrink:
    """Scope policy: shrink the job onto the surviving ranks.

    The whole application resets to a *globally consistent* line: every
    rank rolls back to process start (channel accounting zeroed on both
    sides, so exactly-once delivery holds by construction), the dead ranks'
    work units are redistributed over the survivors
    (:func:`plan_repartition`), each survivor restores its own image and the
    dead ranks' newest retrievable images are shipped to their adopters over
    the live network, and the survivors relaunch with *repartitioned*
    scripts that resume at the line's common domain step.  Dead ranks keep
    their rank ids but own nothing and are marked finished — no rank
    renumbering, no further traffic touches them.  A shrink restarts on a
    clean communicator, so there is nothing to exchange or replay.
    """

    shrink = True

    def __init__(self, rec: "LiveRecovery", workload: "Workload") -> None:
        self.rec = rec
        self.workload = workload
        self.plan: Optional[RepartitionPlan] = None
        self.participants: Sequence[int] = ()
        self.ships_to: Dict[int, List[int]] = {}

    def choose_line(self, report: RecoveryReport) -> Optional[Line]:
        rec = self.rec
        runtime = rec.runtime
        try:
            plan = plan_repartition(runtime, self.workload, rec.victims)
        except ValueError:
            rec.declare_unsurvivable(
                f"elastic restart impossible: every rank is dead "
                f"({rec.cause} at t={report.failure_time:.3f})")
            return None
        self.plan = plan
        self.participants = plan.new_partition.active_ranks()
        cid = plan.target_ckpt_id
        report.rollback_ranks = tuple(range(runtime.n_ranks))
        report.target_ckpt_id = cid
        report.ranks_after = plan.ranks_after
        report.units_migrated = plan.units_migrated
        for src, dst in plan.image_ships():
            self.ships_to.setdefault(dst, []).append(src)
        # Lost work is measured against the snapshot each rank's state comes
        # from, read *before* the global reset clears the histories.
        return {rank: snapshot_at(runtime, rank, cid) if cid is not None else None
                for rank in range(runtime.n_ranks)}

    def roll_back(self, line: Line) -> Dict[int, int]:
        # Global reset: every rank (survivor, victim, already-retired) rolls
        # back to process start.  Every in-flight message dies by
        # rollback-epoch mismatch, so the relaunched repartitioned scripts
        # see exactly-once delivery on a clean communicator.
        runtime = self.rec.runtime
        sim = runtime.sim
        resume = {rank: runtime.rollback_rank(rank, None) for rank in line}
        # Retire the dead ranks: they keep their ids, own nothing under the
        # new partition, and count as finished from here on (the coordinator
        # skips finished ranks, so no further checkpoint requests reach them).
        for rank in self.plan.failed_ranks:
            ctx = runtime.ctx(rank)
            ctx.in_recovery = False
            ctx.finished = True
            ctx.stats.finished_at = sim.now
            if runtime.sampler is not None:
                runtime.sampler.note_phase(rank, "finished", sim.now)
        # Install the new layout: derived programs and memory re-derive from
        # the repartitioned domain, resuming at the recovery line's step.
        self.workload.set_partition(self.plan.new_partition,
                                    start_step=self.plan.resume_step)
        for rank in line:
            runtime.ctx(rank).memory_bytes = self.workload.memory_bytes(rank)
        return resume

    def program(self, rank: int) -> Any:
        return self.workload.program(rank)

    def restore_image(self, rank: int, marks: Marks) -> Generator[Event, None, bool]:
        rec = self.rec
        runtime = rec.runtime
        sim = runtime.sim
        hierarchy = runtime.cluster.hierarchy
        ctx = runtime.ctx(rank)
        cid = self.plan.target_ckpt_id
        t0 = sim.now
        if cid is not None:
            # 1. restore this survivor's own image from its cheapest
            # surviving tier
            own = hierarchy.catalog.get((rank, cid))
            if own is not None:
                rplan = hierarchy.restore_plan(rank, cid, ctx.node_id)
                if rplan is not None:
                    rec.report.restore_tiers[rank] = rplan.level
                    yield from hierarchy.perform_restore(rplan, ctx.node_id, own.nbytes)
                    rec.restored_bytes[rank] = own.nbytes
            # ... and adopt: ship each dead donor's newest image here over
            # the live network (the adopted units' progress)
            for src in self.ships_to.get(rank, ()):
                record = hierarchy.catalog.get((src, cid))
                if record is None:
                    continue
                splan = hierarchy.restore_plan(src, cid, ctx.node_id)
                if splan is None:
                    rec.declare_unsurvivable(
                        f"image of dead rank {src} ckpt {cid} lost "
                        f"mid-shrink ({rec.cause})")
                    return False
                yield from hierarchy.perform_restore(splan, ctx.node_id, record.nbytes)
                rec.bytes_shipped += record.nbytes
            yield sim.timeout(rec.blcr.restore_exec_s)
        marks.append(("image_restore", t0, sim.now))
        return True
