"""Determinism parity for the kernel fast path.

The fast-path refactor must be invisible in simulated results:

* every QUICK parity scenario, run on the (default) fast path, reproduces the
  committed golden metrics bit-for-bit — the golden file was generated by the
  pre-refactor seed kernel (``tools/make_parity_golden.py``),
* forcing the full coroutine model (``REPRO_SIM_FASTPATH=0``) yields the same
  metrics *and* an exactly accounted event count:
  ``slow.processed_events == fast.processed_events + fast.stats.events_elided``,
* the closed-form ``Network.transfer`` equals the coroutine model's completion
  time exactly when uncontended, the NIC timelines preserve queue times under
  contention and cancel interrupted legs exactly like the coroutine model,
* one FULL-scale (64-rank) cell, whose contention smaller runs never show,
  agrees bit for bit and event for event.
"""

import json
import os

import pytest

from repro.cluster.network import FAST_ETHERNET, FAST_PATH_ENV, Network
from repro.experiments import runner
from repro.experiments.parity import parity_metrics, quick_parity_configs, scenario_label
from repro.sim.engine import Interrupt, Simulator

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "quick_parity_golden.json")
CONFIGS = quick_parity_configs()

#: per-label cache of (metrics, processed_events, events_elided) per path so
#: each scenario is simulated at most once per path across the whole module
_RUNS = {}


def _run(config, fast: bool):
    label = (scenario_label(config), fast)
    if label in _RUNS:
        return _RUNS[label]
    previous = os.environ.get(FAST_PATH_ENV)
    os.environ[FAST_PATH_ENV] = "1" if fast else "0"
    try:
        # fresh trace/group caches so the toggle also covers the trace runs
        runner.clear_caches()
        result = runner.run_scenario(config)
    finally:
        if previous is None:
            os.environ.pop(FAST_PATH_ENV, None)
        else:
            os.environ[FAST_PATH_ENV] = previous
    sim = result.app.contexts[0].sim
    _RUNS[label] = (
        parity_metrics(result),
        sim.processed_events,
        sim.stats.events_elided,
        sim.stats.as_dict(),
    )
    return _RUNS[label]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("config", CONFIGS, ids=scenario_label)
def test_fast_path_matches_pre_refactor_golden(config, golden):
    """Default (fast) runs reproduce the seed kernel's metrics bit-for-bit."""
    metrics, _, elided, stats = _run(config, fast=True)
    expected = golden[scenario_label(config)]["metrics"]
    assert metrics == expected
    # the fast path must actually engage, not vacuously agree
    assert elided > 0
    assert stats["fastpath_tx"] + stats["fastpath_rx"] + stats["fastpath_local"] > 0


@pytest.mark.parametrize("config", CONFIGS, ids=scenario_label)
def test_slow_path_matches_golden_and_event_accounting(config, golden):
    """The forced coroutine model agrees bit-for-bit, event-for-event."""
    slow_metrics, slow_events, slow_elided, _ = _run(config, fast=False)
    fast_metrics, fast_events, fast_elided, _ = _run(config, fast=True)
    assert slow_metrics == golden[scenario_label(config)]["metrics"]
    assert slow_metrics == fast_metrics
    # the slow path elides nothing, and every event the fast path skipped is
    # accounted for exactly
    assert slow_elided == 0
    assert slow_events == fast_events + fast_elided


def _transfer_elapsed(fast: bool, nbytes: int = 500_000) -> float:
    sim = Simulator()
    net = Network(sim, FAST_ETHERNET, 2, fast_path=fast)

    def proc():
        yield from net.transfer(0, 1, nbytes)
        return sim.now

    return sim.run_until_complete(sim.process(proc()))


def test_transfer_closed_form_equals_coroutine_uncontended():
    """Contention-free closed-form time == coroutine time, bit-for-bit."""
    for nbytes in (0, 1, 1000, 500_000, 10_000_000):
        assert _transfer_elapsed(True, nbytes) == _transfer_elapsed(False, nbytes)


def _storm(fast: bool, legs, interrupt=None):
    """Run a NIC contention storm; return completions and event accounting.

    ``legs`` are ``(kind, src, dst, nbytes, delay)``: ``"transfer"`` runs a
    waited :meth:`Network.transfer`, ``"post"`` a background send from
    ``src``.  ``interrupt=(i, at)`` interrupts the ``i``-th transfer at
    ``at``.  Returns ``(completions, processed, elided, nic samples)``.
    """
    sim = Simulator()
    net = Network(sim, FAST_ETHERNET, 4, fast_path=fast)
    done = []
    procs = {}

    def sender(i, src, dst, nbytes, delay):
        yield sim.timeout(delay)
        try:
            yield from net.transfer(src, dst, nbytes)
            done.append((i, "done", sim.now))
        except Interrupt:
            done.append((i, "interrupted", sim.now))

    def poster(src, nbytes, delay):
        yield sim.timeout(delay)
        net.post_tx(src, nbytes)

    samples = []

    def sampler():
        # off-grid instants: NIC occupancy between events, both models
        for t in (0.0031, 0.0101, 0.0213, 0.0351, 0.0457, 0.0555, 0.0601,
                  0.0702, 0.0731, 0.1003, 0.1501):
            yield sim.timeout(t - sim.now)
            samples.append(net.nic_inflight(t))

    for i, (kind, src, dst, nbytes, delay) in enumerate(legs):
        if kind == "transfer":
            procs[i] = sim.process(sender(i, src, dst, nbytes, delay))
        else:
            sim.process(poster(src, nbytes, delay))
    sim.process(sampler())
    if interrupt is not None:
        index, at = interrupt

        def killer():
            yield sim.timeout(at)
            procs[index].interrupt("kill")

        sim.process(killer())
    sim.run()
    return sorted(done), sim.processed_events, sim.stats.events_elided, samples


#: overlapping transfers from node 0 (TX contention) into nodes 1 and 2 (RX
#: contention, also from node 3), background sends interleaved on node 0
STORM = [
    ("transfer", 0, 1, 400_000, 0.0),
    ("post", 0, None, 60_000, 0.0005),
    ("transfer", 0, 2, 100_000, 0.001),
    ("transfer", 0, 1, 50_000, 0.001),
    ("post", 0, None, 20_000, 0.001),
    ("transfer", 3, 1, 115_000, 0.002),
    ("transfer", 0, 2, 800_000, 0.002),
    ("post", 0, None, 115_000, 0.004),
    ("transfer", 3, 1, 50_000, 0.05),
]


def test_transfer_contended_equal_times_under_both_paths():
    """A NIC contention storm with background sends mixed in resolves to
    identical completion times and NIC occupancy, event for event."""
    fast, slow = _storm(True, STORM), _storm(False, STORM)
    assert fast[0] == slow[0]
    assert fast[3] == slow[3]
    assert slow[1] == fast[1] + fast[2]


#: interrupt instants landing in each phase of a leg with queued successors:
#: leg 2's TX leg reaches node 0's NIC at 1.02 ms and serialises from ~40.0
#: to ~48.7 ms; leg 3's RX leg reaches node 1's NIC at ~53.2 ms and
#: serialises from ~69.7 to ~74.1 ms, with leg 8 queued behind it
PHASES = {
    "tx-overhead": (2, 0.00101),
    "tx-queued": (2, 0.005),
    "tx-serialising": (2, 0.045),
    "rx-latency": (3, 0.0531),
    "rx-queued": (3, 0.06),
    "rx-serialising": (3, 0.072),
}


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_interrupted_leg_matches_coroutine_model(phase):
    """Cancelling a leg in any phase frees the NIC and re-plans its queued
    successors exactly like the coroutine model's ``finally`` release."""
    interrupt = PHASES[phase]
    fast, slow = _storm(True, STORM, interrupt), _storm(False, STORM, interrupt)
    index, at = interrupt
    assert (index, "interrupted", at) in slow[0]
    assert fast[0] == slow[0]
    assert fast[3] == slow[3]
    assert slow[1] == fast[1] + fast[2]


def test_full_scale_tier_cell_matches_coroutine_model():
    """A 64-rank cell where NIC contention only appears at the paper's scale.

    NORM with partner replication (L1+L2) on 64 ranks: partner copies
    overlap the application's all-pairs flush.  Smaller runs of the same
    cell (16, 32 ranks) never contend this way, so only the FULL scale shows
    whether the fast path still agrees with its oracle — bit for bit, and
    event for event.
    """
    from repro.experiments.storage_tiers import storage_tier_configs

    config = storage_tier_configs(n_ranks=64, methods=("NORM",), policies=("L1+L2",),
                                  failures=("none",), seeds=(0,))[0]
    fast_metrics, fast_events, fast_elided, _ = _run(config, fast=True)
    slow_metrics, slow_events, _, _ = _run(config, fast=False)
    assert fast_metrics == slow_metrics
    assert slow_events == fast_events + fast_elided


def test_fast_path_env_toggle_controls_network_default(monkeypatch):
    sim = Simulator()
    monkeypatch.setenv(FAST_PATH_ENV, "0")
    assert Network(sim, FAST_ETHERNET, 1).fast_path is False
    monkeypatch.delenv(FAST_PATH_ENV)
    assert Network(sim, FAST_ETHERNET, 1).fast_path is True
    assert Network(sim, FAST_ETHERNET, 1, fast_path=False).fast_path is False
