"""The counted bookmark fan-in of :meth:`MpiRuntime.exchange_bookmarks`.

On the NIC timelines a group checkpoint's bookmarks are planned with no
delivery event, and each receiver resumes once: on one calendar event pushed
under its last bookmark's reserved key, or through one immediate hop per
bookmark when all of them were in before it started collecting.  These tests
hold it to the inbox path it replaces:

* against the coroutine model (``REPRO_SIM_FASTPATH=0``): equal outputs and
  exact event conservation, ``coroutine == fast.processed + fast.elided``;
* against the inbox path on the same timelines (the fan-in switched off):
  the same completion order, instant for instant;
* in each collection case — every bookmark already in, the last one still
  in flight, a tie at the collection instant on either side of the current
  calendar entry — plus co-located ranks (which keep the inbox path), the
  loud drain check and a sampled run's inbox-depth series.

The satellite fixes ride along: a blocked receive no longer leaves its wake
condition on the checkpoint signal, and the per-channel stall coins are drawn
in one batch with the same values.
"""

import dataclasses

import pytest

from repro.ckpt.scheduler import one_shot
from repro.cluster.network import FAST_PATH_ENV, NetworkSpec
from repro.cluster.topology import GIDEON_300, Cluster
from repro.experiments import runner
from repro.experiments.config import QUICK, ScenarioConfig
from repro.experiments.parity import parity_metrics
from repro.mpi.ops import Compute, Recv, Send
from repro.mpi.runtime import MpiRuntime
from repro.obs import Telemetry
from repro.sim.engine import SimulationError, Simulator
from repro.sim.primitives import Event, Timeout
from repro.sim.rng import RandomStreams

TAG = 2_000_001

#: exactly representable timings: 64-byte bookmarks serialise in 1 s
EXACT_NET = NetworkSpec(latency_s=0.5, bandwidth_bytes_per_s=64.0,
                        per_message_overhead_s=0.25, name="exact")


def _runtime(n_ranks, network=EXACT_NET, cores=1):
    sim = Simulator()
    spec = dataclasses.replace(GIDEON_300.with_nodes(max(n_ranks // cores, 1)),
                               network=network,
                               node=dataclasses.replace(GIDEON_300.node, cores=cores))
    return MpiRuntime(sim, Cluster(sim, spec), n_ranks, rng=RandomStreams(0))


def _exchange(runtime, rank, peers, start, quiesce, log, app_bytes=0):
    """One rank's bookmark exchange, after an optional application send."""
    sim = runtime.sim
    ctx = runtime.contexts[rank]
    if app_bytes:
        yield from runtime.app_send(ctx, peers[0], app_bytes, blocking=False)
    if start > sim.now:
        yield Timeout(sim, start - sim.now)
    ctx.in_checkpoint = True
    yield from runtime.exchange_bookmarks(ctx, peers, TAG, lambda: quiesce)
    log.append((rank, sim.now))


def _run_exchange(monkeypatch, mode, plan, app_bytes=0, groups=None, cores=1):
    """Run the ranks of ``plan`` (``(start, quiesce)`` each) in one mode.

    ``mode`` is ``"fan-in"`` (the default fast path), ``"inbox"`` (fast path
    with the fan-in switched off) or ``"coroutine"``.  Each rank exchanges
    with the other members of its group in ``groups`` (default: one group of
    all ranks).  Returns the completion log, processed and elided events,
    the receivers the fan-in woke with an event, and the fan-in's choices.
    """
    monkeypatch.setenv(FAST_PATH_ENV, "0" if mode == "coroutine" else "1")
    wakes, choices = [], []
    original_wake = MpiRuntime._wake_collector
    original_choice = MpiRuntime._counted_fan_in

    def counting(self, key, board):
        wakes.append(key)
        return original_wake(self, key, board)

    def choosing(self, ctx, peers):
        choices.append(mode != "inbox" and original_choice(self, ctx, peers))
        return choices[-1]

    monkeypatch.setattr(MpiRuntime, "_wake_collector", counting)
    monkeypatch.setattr(MpiRuntime, "_counted_fan_in", choosing)
    runtime = _runtime(len(plan), cores=cores)
    sim = runtime.sim
    log = []
    for group in groups or [list(range(len(plan)))]:
        for rank in group:
            start, quiesce = plan[rank]
            peers = [p for p in group if p != rank]
            sim.process(_exchange(runtime, rank, peers, start, quiesce, log, app_bytes))
    sim.run()
    monkeypatch.undo()
    return log, sim.processed_events, sim.stats.events_elided, wakes, choices


def _check_against_oracles(monkeypatch, plan, app_bytes=0, **kwargs):
    fan_in = _run_exchange(monkeypatch, "fan-in", plan, app_bytes, **kwargs)
    inbox = _run_exchange(monkeypatch, "inbox", plan, app_bytes, **kwargs)
    coroutine = _run_exchange(monkeypatch, "coroutine", plan, app_bytes, **kwargs)
    log, processed, elided, wakes, choices = fan_in
    # the inbox path on the same timelines: same order, same instants
    assert log == inbox[0]
    assert processed + elided == inbox[1] + inbox[2]
    # the coroutine model: same instants, exact conservation
    assert sorted(log) == sorted(coroutine[0])
    assert coroutine[2] == 0
    assert processed + elided == coroutine[1]
    # nobody was resumed on more than one event, and the coroutine model
    # never takes the fan-in
    assert len(set(wakes)) == len(wakes)
    assert not inbox[3] and not any(coroutine[4])
    if any(choices):
        assert processed <= inbox[1]
    return fan_in


def test_every_bookmark_already_in_replays_immediate_hops(monkeypatch):
    """A long quiesce: all bookmarks land before anyone collects."""
    log, _, _, wakes, choices = _check_against_oracles(
        monkeypatch, [(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)], app_bytes=256)
    assert choices == [True] * 3 and wakes == []
    assert [t for _, t in log] == [10.75] * 3


def test_last_bookmark_in_flight_resumes_on_one_event(monkeypatch):
    """Rank 2 starts late: ranks 0 and 1 wait for its bookmark."""
    log, _, _, wakes, choices = _check_against_oracles(
        monkeypatch, [(0.0, 0.0), (0.0, 0.0), (3.0, 0.0)], app_bytes=256)
    assert choices == [True] * 3
    assert {(0, TAG), (1, TAG)} <= set(wakes)
    assert min(t for _, t in log) > 3.0


def test_tie_at_the_collection_instant_follows_the_reserved_sequence(monkeypatch):
    """Both bookmarks end exactly when their receivers start collecting.

    Both ranks send at 0.25 s; each bookmark ends at 0.25 + 0.5 + 1.0 =
    1.75 s, and each rank starts collecting after a 1.5 s quiesce, at
    1.75 s.  Rank 0's send came first, so its bookmark's reserved sequence
    precedes rank 1's quiesce timeout (rank 1 finds it delivered: an
    immediate hop), while rank 1's bookmark follows rank 0's quiesce
    timeout (rank 0 waits for its end event).
    """
    log, _, _, wakes, _ = _check_against_oracles(monkeypatch, [(0.0, 1.5), (0.0, 1.5)])
    assert wakes == [(0, TAG)]
    assert log == [(0, 1.75), (1, 1.75)]


def test_drain_that_would_wait_is_a_loud_model_error(monkeypatch):
    """An announced byte that never arrives breaks the FIFO argument."""
    monkeypatch.setenv(FAST_PATH_ENV, "1")
    runtime = _runtime(2)
    runtime.contexts[0].account.add_sent(1, 100)  # announced, never sent
    log = []
    for rank in range(2):
        runtime.sim.process(_exchange(runtime, rank, [1 - rank], 0.0, 0.0, log))
    with pytest.raises(SimulationError, match="announced 100 bytes"):
        runtime.sim.run()


def test_co_located_participants_keep_the_inbox_path(monkeypatch):
    """Two ranks per node: the fan-in only takes waves on distinct nodes."""
    monkeypatch.setenv(FAST_PATH_ENV, "1")
    runtime = _runtime(4, network=GIDEON_300.network, cores=2)
    nodes = [ctx.node_id for ctx in runtime.contexts]
    assert nodes == [0, 1, 0, 1]
    ctx0 = runtime.contexts[0]
    assert runtime._counted_fan_in(ctx0, [1]) is True
    assert runtime._counted_fan_in(ctx0, [1, 2, 3]) is False
    monkeypatch.setenv(FAST_PATH_ENV, "0")
    assert _runtime(2)._counted_fan_in(ctx0, [1]) is False
    failing = _runtime(2)
    failing.attach_failure_source()
    monkeypatch.setenv(FAST_PATH_ENV, "1")
    assert failing._counted_fan_in(failing.contexts[0], [1]) is False


@pytest.mark.parametrize("groups, fan_in", [
    ([[0, 1], [2, 3]], True),        # each group spans both nodes
    ([[0, 2], [1, 3]], False),       # each group shares one node
    ([[0, 1, 2, 3]], False),
], ids=["distinct-nodes", "same-node", "whole-job"])
def test_co_located_ranks_match_the_coroutine_model(groups, fan_in, monkeypatch):
    """Four ranks on two two-core nodes (ranks 0, 2 on node 0; 1, 3 on node 1)."""
    plan = [(0.0, 0.0), (0.5, 0.0), (1.0, 2.0), (0.0, 0.25)]
    _, _, _, _, choices = _check_against_oracles(
        monkeypatch, plan, app_bytes=256, groups=groups, cores=2)
    assert choices == [fan_in] * 4


def _sampled_norm_run(monkeypatch, mode):
    monkeypatch.setenv(FAST_PATH_ENV, "0" if mode == "coroutine" else "1")
    if mode == "inbox":
        monkeypatch.setattr(MpiRuntime, "_counted_fan_in", lambda *args: False)
    seen = []
    original = MpiRuntime.uncollected_bookmarks

    def recording(self, at):
        out = original(self, at)
        seen.append(sum(out.values()))
        return out

    monkeypatch.setattr(MpiRuntime, "uncollected_bookmarks", recording)
    config = ScenarioConfig("halo2d", 16, "NORM", one_shot(0.3), seed=3)
    runner.clear_caches()
    result = runner.run_scenario(
        config, telemetry=Telemetry(trace=False, sample_bin_s=0.002))
    runner.clear_caches()
    monkeypatch.undo()
    sampler = result.telemetry.sampler
    return ([list(a) for a in sampler.inbox_depths], sampler.edges,
            parity_metrics(result), seen)


def test_sampled_inbox_depth_counts_uncollected_bookmarks(monkeypatch):
    """Delivered but uncollected bookmarks count in the inbox depth exactly
    as when they sat in the inbox, bin for bin."""
    depths, edges, metrics, seen = _sampled_norm_run(monkeypatch, "fan-in")
    inbox = _sampled_norm_run(monkeypatch, "inbox")
    coroutine = _sampled_norm_run(monkeypatch, "coroutine")
    assert max(seen) > 0  # some bin edge fell between delivery and collection
    assert (depths, edges, metrics) == inbox[:3]
    assert (depths, edges, metrics) == coroutine[:3]


# --------------------------------------------------------------- the kernel
def test_reserved_key_orders_like_fire_at():
    sim = Simulator()
    order = []
    first = sim.fire_at(1.0)
    seq = sim.reserve_seq()
    last = sim.fire_at(1.0)
    reserved = Event(sim)
    reserved._triggered = True
    for name, ev in (("first", first), ("reserved", reserved), ("last", last)):
        ev.callbacks.append(lambda _ev, name=name: order.append(name))
    sim.push_reserved(1.0, seq, reserved)
    sim.run()
    assert order == ["first", "reserved", "last"]
    with pytest.raises(ValueError):
        sim.push_reserved(0.5, sim.reserve_seq(), Event(sim))


@pytest.mark.parametrize("loop", ["run", "step", "run_until_event"])
def test_every_run_loop_records_the_current_entry(loop):
    sim = Simulator()
    before = sim.fire_at(1.0)
    seq = sim.reserve_seq()
    current = sim.fire_at(1.0)
    seen = []
    current.callbacks.append(
        lambda _ev: seen.append((sim.passed(1.0, seq), sim.passed(1.0, seq + 2),
                                 sim.passed(0.5, seq + 9))))
    if loop == "run":
        sim.run()
    elif loop == "step":
        sim.step()
        sim.step()
    else:
        sim.run_until_event(current)
    assert before._processed
    assert seen == [(True, False, True)]


# ------------------------------------------------------------- satellites
def test_blocked_receives_do_not_pile_up_on_the_signal_event():
    """A message that wins the race detaches its wake condition."""
    def run(checkpoints):
        sim = Simulator()
        runtime = MpiRuntime(sim, Cluster(sim, GIDEON_300.with_nodes(2)), 2,
                             rng=RandomStreams(0))
        if checkpoints:
            runtime.attach_checkpoint_source()

        def program(rank):
            ops = []
            for _ in range(200):
                if rank == 0:
                    ops += [Compute(0.001), Send(dst=1, nbytes=1000)]
                else:
                    ops.append(Recv(src=0))
            return ops

        runtime.launch(program)
        result = runtime.run_to_completion(limit_s=100.0)
        return runtime, result.per_rank_finish_times()

    runtime, finish = run(checkpoints=True)
    signal = runtime.contexts[1].signal_event
    assert not signal.triggered
    assert len(signal.callbacks) <= 1
    assert runtime.sim.stats.conditions > 200  # the receives did block
    assert finish == run(checkpoints=False)[1]


def test_batched_stall_coins_equal_the_scalar_sequence():
    batched, scalar = RandomStreams(5), RandomStreams(5)
    for n, p in ((127, 0.02), (31, 0.5), (1, 1.0), (0, 0.3), (64, 0.0)):
        hits = batched.bernoulli_count("ckpt-stall:rank3", p, n)
        assert hits == sum(scalar.bernoulli("ckpt-stall:rank3", p) for _ in range(n))
    # the streams advanced by exactly the same draws
    assert batched.uniform("ckpt-stall:rank3") == scalar.uniform("ckpt-stall:rank3")
    with pytest.raises(ValueError):
        batched.bernoulli_count("x", 1.5, 3)
