"""Self-tests of the benchmark's own logic (no FULL-scale cell is run).

    python3 -m pytest -q e2ebench
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import cells  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from repro.ckpt.scheduler import CheckpointSchedule, one_shot, periodic  # noqa: E402


# --------------------------------------------------------------------- failed-cell rule
def test_one_shot_after_makespan_fails_with_the_late_request_named():
    reason = cells.failure_reason(one_shot(60.0), 43.7, 0, None)
    assert reason == ("completed 0 of 1 requested checkpoints "
                      "(request at 60 s is at or after the 43.7 s makespan)")


def test_zero_of_explicit_requests_fails():
    schedule = CheckpointSchedule(times=(2.0, 5.0, 8.0))
    assert cells.failure_reason(schedule, 24.6, 0, None) == \
        "completed 0 of 3 requested checkpoints"


def test_partial_completion_and_full_completion_pass():
    schedule = CheckpointSchedule(times=(2.0, 5.0, 8.0))
    assert cells.failure_reason(schedule, 25.7, 1, None) is None
    assert cells.failure_reason(periodic(120.0), 1779.2, 14, None) is None


def test_periodic_ticks_count_only_before_the_makespan():
    assert cells.requested_checkpoints(periodic(120.0), 1779.2) == 14
    assert cells.requested_checkpoints(periodic(120.0), 100.0) == 0
    # no tick fell inside the run, so nothing was requested and nothing failed
    assert cells.failure_reason(periodic(120.0), 100.0, 0, None) is None
    assert cells.failure_reason(periodic(30.0), 100.0, 0, None) == \
        "completed 0 of 3 requested checkpoints"
    assert cells.requested_checkpoints(None, 10.0) == 0


def test_a_cell_that_raised_fails_with_the_exception_line():
    tb = "Traceback (most recent call last):\n  File x\nValueError: boom\n"
    assert cells.failure_reason(one_shot(1.0), None, None, tb) == "raised: ValueError: boom"


# ----------------------------------------------------------------------------- digest
def _rows(makespan=12.5, events=100):
    return [cells.cell_digest_row("a", {"makespan": makespan, "checkpoints_completed": 3,
                                        "resend_bytes": 0, "sim_events": events,
                                        "cluster_messages": 7}),
            cells.cell_digest_row("b", {"makespan": 2.0, "checkpoints_completed": 1,
                                        "resend_bytes": 5, "sim_events": 9,
                                        "cluster_messages": 1})]


def test_identical_repetitions_have_no_mismatch_and_equal_digests():
    assert cells.digest_mismatches([_rows(), _rows(), _rows()]) == []
    assert cells.digest(_rows()) == cells.digest(_rows())


def test_a_changed_output_is_a_mismatch_naming_the_cell():
    found = cells.digest_mismatches([_rows(), _rows(), _rows(events=101)])
    assert len(found) == 1 and found[0].startswith("repetition 2: a:")
    assert cells.digest(_rows()) != cells.digest(_rows(events=101))


def test_the_last_bit_of_a_float_output_counts():
    nudged = 12.5 + 12.5 * 2 ** -52
    assert cells.digest_mismatches([_rows(), _rows(makespan=nudged)])


def test_a_different_cell_set_is_a_mismatch():
    assert cells.digest_mismatches([_rows(), _rows()[:1]]) == [
        "repetition 1: cell set differs from repetition 0"]


# ------------------------------------------------------------------- self-time layers
REPRO = os.path.join(os.sep, "x", "src", "repro")


def test_layer_of_maps_package_files_and_leaves_the_rest_unattributed():
    assert layers.layer_of(os.path.join(REPRO, "mpi", "runtime.py"), REPRO) == "mpi"
    assert layers.layer_of(os.path.join(REPRO, "sim", "sub", "deep.py"), REPRO) == "sim"
    assert layers.layer_of(os.path.join(REPRO, "__init__.py"), REPRO) == "unattributed"
    assert layers.layer_of("/usr/lib/python3.11/heapq.py", REPRO) == "unattributed"
    assert layers.layer_of("<frozen importlib._bootstrap>", REPRO) == "unattributed"


def test_aggregate_self_time_sums_files_per_layer():
    counts = {
        (os.path.join(REPRO, "mpi", "runtime.py"), "_pop_wildcard"): 40,
        (os.path.join(REPRO, "mpi", "runtime.py"), "control_send"): 10,
        (os.path.join(REPRO, "mpi", "messages.py"), "match"): 5,
        (os.path.join(REPRO, "sim", "engine.py"), "run"): 30,
        ("/usr/lib/python3.11/sqlite3/dbapi2.py", "execute"): 4,
    }
    out = layers.aggregate_self_time(counts, REPRO)
    assert out["mpi"] == 55 and out["sim"] == 30 and out["unattributed"] == 4
    assert set(out) == set(layers.LAYERS) | {"unattributed"}
    assert sum(out.values()) == sum(counts.values())


def test_sampler_attributes_a_busy_loop_to_its_package(tmp_path):
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "spin.py").write_text(
        "def spin(seconds, clock):\n"
        "    end = clock() + seconds\n"
        "    n = 0\n"
        "    while clock() < end:\n"
        "        n += 1\n"
        "    return n\n")
    spec = importlib.util.spec_from_file_location("spin_under_test", pkg / "spin.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with layers.StackSampler() as sampler:
        module.spin(0.3, time.perf_counter)
    out = layers.aggregate_self_time(sampler.by_function, str(tmp_path / "repro"))
    assert sampler.samples >= 10
    assert out["sim"] / sampler.samples > 0.8
    spin = str(pkg / "spin.py")
    assert sum(n for (f, name), n in sampler.by_function.items()
               if f == spin and name == "spin") == out["sim"]


# ----------------------------------------------------------------- workloads and seeds
@pytest.mark.parametrize("name,n_cells", [("fig10-waves", 4), ("figure-sweep", 19),
                                          ("tiers-failures", 27)])
def test_workload_sizes(name, n_cells):
    assert len(cells.workload_cells(name, 0)) == n_cells


def test_seed_offsets_the_figure_and_tier_seeds():
    assert {c.seed for _, c in cells.workload_cells("figure-sweep", 0)} == {cells.FIGURE_SEED}
    assert {c.seed for _, c in cells.workload_cells("fig10-waves", 3)} == {cells.FIGURE_SEED + 3}
    tiers = cells.workload_cells("tiers-failures", 5)
    assert {c.seed for _, c in tiers} == {cells.TIERS_SEED + 5}
    assert {c.failure.seed for _, c in tiers if c.failure is not None} == {cells.TIERS_SEED + 5}


def test_unknown_workload_and_negative_seed_are_refused():
    with pytest.raises(ValueError):
        cells.workload_cells("nope", 0)
    with pytest.raises(ValueError):
        cells.workload_cells("fig10-waves", -1)


# --------------------------------------------------------------------- run.py helpers
ENV_VARS_SET = {"REPRO_SIM_FASTPATH": "0", "REPRO_TELEMETRY": "on",
                "REPRO_TELEMETRY_SAMPLE_BIN": "0.25", "REPRO_CAMPAIGN_DB": "x.sqlite",
                "REPRO_CAMPAIGN_WORKERS": "2"}


def _set_env(monkeypatch, values):
    for name in run.ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in values.items():
        monkeypatch.setenv(name, value)


def test_env_that_leaves_the_program_as_it_is_is_accepted(monkeypatch):
    _set_env(monkeypatch, {})
    assert run.env_problems() == []
    _set_env(monkeypatch, {"REPRO_SIM_FASTPATH": "1", "REPRO_TELEMETRY": "0",
                           "REPRO_TELEMETRY_SAMPLE_BIN": "0",
                           "REPRO_CAMPAIGN_WORKERS": "1", "REPRO_CAMPAIGN_DB": ":memory:"})
    assert run.env_problems() == []


@pytest.mark.parametrize("name", sorted(ENV_VARS_SET))
def test_env_that_changes_the_program_is_refused(monkeypatch, name):
    _set_env(monkeypatch, {name: ENV_VARS_SET[name]})
    (problem,) = run.env_problems()
    assert problem.startswith(name)


def test_a_worker_count_the_program_cannot_parse_is_refused(monkeypatch):
    _set_env(monkeypatch, {"REPRO_CAMPAIGN_WORKERS": "two"})
    (problem,) = run.env_problems()
    assert "not an integer" in problem


def _rep(norm_cpus, reasons, rss=100.0, norm_cpu=10.0):
    return {"wall_s": 3 * norm_cpu, "cpu_s": 2 * norm_cpu, "norm_cpu_s": norm_cpu,
            "peak_rss_mb": rss,
            "cells": [{"label": str(i), "wall_s": 3 * c, "cpu_s": 2 * c, "norm_cpu_s": c,
                       "reason": r} for i, (c, r) in enumerate(zip(norm_cpus, reasons))]}


def test_end_to_end_counts_failed_cells_against_attempted():
    reps = [_rep([1.0, 2.0, 9.0, 4.0], [None, "x", None, None], norm_cpu=16.0),
            _rep([1.0, 3.0, 9.0, 4.0], [None, "x", None, None], norm_cpu=17.0)]
    m = run.end_to_end(reps, [0.5, 0.7, 0.6])
    assert m["ok_cell_frac"]["value"] == 6 / 8
    # timings are the normalized ones, never the raw wall or CPU times
    assert m["norm_cpu_s"]["value"] == 16.5
    # the median over every cell of every repetition
    assert m["norm_cell_cpu_p50_s"]["value"] == 3.5
    assert m["setup_s"]["value"] == 0.6


def test_calibration_kernel_does_fixed_work():
    assert calib.kernel() == calib._CHECKSUM
    assert calib.chunk_cpu_s() > 0


def test_host_factor_is_the_mean_chunk_between_marks(monkeypatch):
    probe = calib.SpeedProbe()
    probe.chunks = [calib.REF_CHUNK_S * k for k in (1, 2, 3, 5, 5, 5)]
    assert probe.factor(0, 3) == pytest.approx(2.0)
    assert probe.factor(3, 6) == pytest.approx(5.0)
    assert probe.factor(6, 6) is None
    monkeypatch.setattr(calib, "MIN_CHUNKS", 3)
    # windows shorter than MIN_CHUNKS widen around their middle, within the series
    assert calib.split(probe, [(0, 4), (1, 2), (6, 6)]) == pytest.approx([2.75, 2.0, 5.0])


def test_layer_units():
    assert run.layer_unit("mpi.self_s") == "s"
    assert run.layer_unit("sim.elided_frac") == "frac"
    assert run.layer_unit("sim.us_per_event") == "us"
    assert run.layer_unit("cluster.bytes") == "bytes"
    assert run.layer_unit("storage.bytes_read") == "bytes"
    assert run.layer_unit("mpi.wildcard_recvs") == "count"
    assert run.layer_unit("storage.replication_stalls") == "count"


def _fake_cell(label, makespan=5.0, completed=1, error=None):
    return {"label": label, "wall_s": 1.0, "cpu_s": 0.9, "norm_cpu_s": 0.45,
            "host_factor": 2.0,
            "makespan": makespan, "checkpoints_completed": completed,
            "checkpoints_requested": 1, "resend_bytes": 0, "sim_events": 10,
            "cluster_messages": 2, "error": error,
            "reason": cells.failure_reason(periodic(1.0), makespan, completed, error)}


def _fake_rep(makespan, extra=()):
    return {"traced": False, "setup_s": 0.3, "norm_setup_s": 0.15, "wall_s": 1.0,
            "cpu_s": 0.9, "norm_cpu_s": 0.45, "peak_rss_mb": 50.0,
            "cells": [_fake_cell("a", makespan), *extra]}


class _Clock:
    """Stands in for ``run.time``: every repetition takes 20 s."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now

    def strftime(self, fmt):
        return time.strftime(fmt)


def _main_with_fake_reps(monkeypatch, tmp_path, reps):
    """Run ``run.main`` for 50 s with ``spawn_rep`` replaced: every repetition
    takes 20 s, so two fit after the set-up probes."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    monkeypatch.setattr(run.signal, "signal", lambda *args: None)
    _set_env(monkeypatch, {})
    clock = _Clock()
    monkeypatch.setattr(run, "time", clock)
    reps = iter([_fake_rep(5.0)] * run.SETUP_PROBES + list(reps))

    def spawn_rep(*args, **kwargs):
        clock.now += 20.0
        return next(reps)

    monkeypatch.setattr(run, "spawn_rep", spawn_rep)
    return run.main(["--workload", "fig10-waves", "--seconds", "50", "--trace", "0"])


@pytest.mark.parametrize("makespans,code", [((5.0, 5.0), 0), ((5.0, 5.5), 1)])
def test_a_digest_mismatch_fails_the_run(monkeypatch, tmp_path, capsys, makespans, code):
    assert _main_with_fake_reps(monkeypatch, tmp_path,
                                [_fake_rep(m) for m in makespans]) == code
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is (code == 0)
    assert result["attempted"] == 2


def test_only_cells_that_raised_are_failed_operations(monkeypatch, tmp_path, capsys):
    extra = (_fake_cell("no-ckpt", completed=0), _fake_cell("raised", error="E: boom"))
    assert _main_with_fake_reps(monkeypatch, tmp_path,
                                [_fake_rep(5.0, extra), _fake_rep(5.0, extra)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert (result["attempted"], result["failed"]) == (6, 2)
    # the zero-checkpoint cell still counts against ok_cell_frac and is named
    assert result["metrics"]["ok_cell_frac"]["value"] == 2 / 6
    assert any("FAILED no-ckpt: completed 0 of " in line for line in out)
    assert any("FAILED raised: raised: E: boom" in line for line in out)
