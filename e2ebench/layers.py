"""Per-layer measurement from outside the program.

Nothing under ``src/`` is edited.  The benchmark wraps the public entry
points it calls the layers through (class attributes or the runner's module
globals), and restores them afterwards:

* :class:`CellProbe` always records each cell's scenario-run work counts
  (``sim.processed_events`` and ``cluster.network.total_messages`` of the
  run without a tracer), which feed the correctness digest;
* with ``traced=True`` it also times spans around the layer entry points
  (trace run, formation, restart, harvest, store calls), counts control
  sends and wildcard receives, and collects every simulator and network the
  cell created;
* :class:`StackSampler` estimates self time per ``repro.<package>`` from
  periodic samples of the main thread's innermost frame.  A sample is
  attributed to the file that holds the code, so builtins count towards
  their Python caller; frames outside ``repro`` (stdlib, the benchmark) are
  unattributed.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: the ``repro`` packages reported as layers, in report order
LAYERS: Tuple[str, ...] = (
    "sim", "cluster", "mpi", "ckpt", "core", "storage", "recovery",
    "workloads", "obs", "campaign", "experiments", "analysis",
)
UNATTRIBUTED = "unattributed"


def layer_of(filename: str, repro_dir: str) -> str:
    """The layer a code object's file belongs to (``UNATTRIBUTED`` if none)."""
    rel = os.path.relpath(os.path.abspath(filename), repro_dir)
    head = rel.split(os.sep, 1)[0]
    if rel.startswith("..") or head == rel or head not in LAYERS:
        return UNATTRIBUTED
    return head


def aggregate_self_time(samples: Mapping[Tuple[str, str], int],
                        repro_dir: str) -> Dict[str, int]:
    """Sum per-``(file, function)`` sample counts into per-layer counts
    (every layer present)."""
    out = {layer: 0 for layer in LAYERS + (UNATTRIBUTED,)}
    for (filename, _), count in samples.items():
        out[layer_of(filename, repro_dir)] += count
    return out


#: how often the sampler thread asks for a sample; the interpreter's switch
#: interval limits the rate it gets to about one sample per 5 ms
SAMPLE_PERIOD_S = 0.001


class StackSampler:
    """Samples the innermost frame of the thread that constructed it.

    Counts samples per ``(file, function)``.  The sampler thread only reads
    frames; the sampled thread is interrupted no more than the interpreter's
    switch interval allows.
    """

    def __init__(self) -> None:
        self.thread_id = threading.get_ident()
        self.by_function: Counter = Counter()
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="e2ebench-sampler",
                                        daemon=True)

    def _run(self) -> None:
        current_frames = sys._current_frames
        tid = self.thread_id
        while not self._stop.wait(SAMPLE_PERIOD_S):
            frame = current_frames().get(tid)
            if frame is None:
                continue
            code = frame.f_code
            self.by_function[(code.co_filename, code.co_name)] += 1
            self.samples += 1

    def __enter__(self) -> "StackSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


#: span name -> the ``repro.experiments.runner`` global it wraps
SPANS = {
    "mpi.trace_run_s": "obtain_trace",
    "core.formation_s": "form_groups",
    "core.restart_s": "simulate_restart",
    "obs.harvest_s": "harvest_scenario",
}

#: CampaignStore methods ``Campaign.run`` and its inline drain call
STORE_METHODS = ("add_many", "set_priority", "reset", "reclaim_expired",
                 "stale_done_keys", "counts", "claim",
                 "mark_done", "mark_failed", "get")


class CellProbe:
    """Installs the wrappers for one repetition; read per-cell results with
    :meth:`begin_cell` / :meth:`end_cell`."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self._patches = _Patches()
        self._main_run: Optional[Tuple[int, int]] = None
        self.spans: Dict[str, float] = {name: 0.0 for name in SPANS}
        self.spans["campaign.store_s"] = 0.0
        self.control_sends = 0
        self.wildcard_recvs = 0
        self._sims: List[object] = []
        self._networks: List[object] = []

    # -- install / remove ---------------------------------------------------------
    def install(self) -> "CellProbe":
        from repro.mpi.runtime import MpiRuntime

        probe = self

        def run_to_completion(original):
            def wrapper(runtime, *args, **kwargs):
                app = original(runtime, *args, **kwargs)
                if runtime.tracer is None:
                    probe._main_run = (runtime.sim.processed_events,
                                       runtime.cluster.network.total_messages)
                return app
            return wrapper

        self._patches.wrap(MpiRuntime, "run_to_completion", run_to_completion)
        if self.traced:
            self._install_traced()
        return self

    def _install_traced(self) -> None:
        from repro.campaign.store import CampaignStore
        from repro.cluster.network import Network
        from repro.experiments import runner
        from repro.mpi.runtime import Inbox, MpiRuntime
        from repro.sim.engine import Simulator

        probe = self
        perf = time.perf_counter

        def span(name):
            def make(original):
                def wrapper(*args, **kwargs):
                    start = perf()
                    try:
                        return original(*args, **kwargs)
                    finally:
                        probe.spans[name] += perf() - start
                return wrapper
            return make

        for name, attr in SPANS.items():
            self._patches.wrap(runner, attr, span(name))

        depth = [0]

        def store_span(original):
            def wrapper(*args, **kwargs):
                depth[0] += 1
                start = perf()
                try:
                    return original(*args, **kwargs)
                finally:
                    depth[0] -= 1
                    if depth[0] == 0:
                        probe.spans["campaign.store_s"] += perf() - start
            return wrapper

        for method in STORE_METHODS:
            self._patches.wrap(CampaignStore, method, store_span)

        def control_send(original):
            def wrapper(*args, **kwargs):
                probe.control_sends += 1
                return original(*args, **kwargs)
            return wrapper

        def inbox_get(original):
            def wrapper(inbox, kind, src, tag):
                # the buffered-wildcard path: an ANY field and a non-empty inbox
                if len(inbox) and (kind is None or src is None or tag is None):
                    probe.wildcard_recvs += 1
                return original(inbox, kind, src, tag)
            return wrapper

        def collect(into):
            def make(original):
                def wrapper(obj, *args, **kwargs):
                    original(obj, *args, **kwargs)
                    into.append(obj)
                return wrapper
            return make

        self._patches.wrap(MpiRuntime, "control_send", control_send)
        self._patches.wrap(Inbox, "get", inbox_get)
        self._patches.wrap(Simulator, "__init__", collect(self._sims))
        self._patches.wrap(Network, "__init__", collect(self._networks))

    def remove(self) -> None:
        self._patches.undo()

    # -- per cell -------------------------------------------------------------------
    def begin_cell(self) -> None:
        self._main_run = None

    def end_cell(self) -> Dict[str, int]:
        """Work counts of the cell just run (main run only, plus all of its
        simulators and networks when traced)."""
        out: Dict[str, int] = {}
        if self._main_run is not None:
            out["sim_events"], out["cluster_messages"] = self._main_run
        if self.traced:
            sims, nets = list(self._sims), list(self._networks)
            self._sims.clear()
            self._networks.clear()
            out["all_sim_events"] = sum(s.processed_events for s in sims)
            out["all_events_elided"] = sum(s.stats.events_elided for s in sims)
            out["all_fastpath_tx"] = sum(s.stats.fastpath_tx for s in sims)
            out["all_messages"] = sum(n.total_messages for n in nets)
            out["all_bytes"] = sum(n.total_bytes for n in nets)
            out["control_sends"], out["wildcard_recvs"] = self.control_sends, self.wildcard_recvs
            self.control_sends = self.wildcard_recvs = 0
        return out
