"""Recovery oracle: live recovery reproduces its golden outcome exactly.

``tests/data/recovery_parity_golden.json`` freezes, for every scenario of
``recovery_parity_scenarios`` in ``tools/make_parity_golden.py``, the makespan,
the kernel's event counts, every channel's cumulative S/R totals and every
:class:`~repro.core.restart.RecoveryReport` field that a recovery measures
(recovery line, per-rank rows, replayed channels, restore tiers, spare
placements, shrink outcome).  The scenarios cover each recovery path:
concurrent, serialised and merged group recoveries, spare migration,
in-place reboot, tier-degraded and unsurvivable switch outages, a global
rollback with no replay, and elastic shrink with and without an image ship.

Each scenario runs under both ``REPRO_SIM_FASTPATH`` modes and must match
that mode's golden entry bit-for-bit, event counts included — a refactor of
the recovery engine may not add, drop or reorder a single simulator event.
The two modes' entries must also account for each other exactly: the fast
path's processed plus elided events equal the coroutine model's.
Regenerate the golden only for an intended change of simulated results:
``PYTHONPATH=src python tools/make_parity_golden.py``.
"""

import json
import os
import sys

import pytest

from repro.cluster.network import FAST_PATH_ENV
from repro.experiments import runner

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
try:
    from tools.make_parity_golden import recovery_parity_metrics, recovery_parity_scenarios
finally:
    sys.path.pop(0)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "recovery_parity_golden.json")
SCENARIOS = recovery_parity_scenarios()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("mode", ["1", "0"], ids=["fastpath", "coroutine"])
@pytest.mark.parametrize("label", sorted(SCENARIOS))
def test_recovery_matches_golden(label, mode, golden, monkeypatch):
    monkeypatch.setenv(FAST_PATH_ENV, mode)
    runner.clear_caches()
    try:
        metrics = recovery_parity_metrics(SCENARIOS[label]())
    finally:
        runner.clear_caches()
    expected = golden[label][f"fastpath={mode}"]
    # compare the report list field by field first for a readable failure
    assert len(metrics["reports"]) == len(expected["reports"])
    for got, want in zip(metrics["reports"], expected["reports"]):
        assert got == want
    assert metrics == expected


@pytest.mark.parametrize("label", sorted(SCENARIOS))
def test_fast_path_events_are_exactly_accounted(label, golden):
    """Every coroutine event the fast path skips — including those of legs
    interrupted by a failure and of legs still in flight when the run
    stops — is counted as elided: ``fast + elided == coroutine``."""
    fast, slow = golden[label]["fastpath=1"], golden[label]["fastpath=0"]
    assert slow["events_elided"] == 0
    assert fast["processed_events"] + fast["events_elided"] == slow["processed_events"]
