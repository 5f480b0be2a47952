"""Switched-network model with per-NIC serialisation.

The Gideon 300 cluster uses switched Fast Ethernet.  For the protocol
measurements the relevant effects are:

* a fixed per-message latency (software stack + switch),
* a bandwidth-proportional transfer time,
* serialisation at each node's NIC: a node sending (or receiving) several
  messages at once shares its link, which is what makes "clearing in-transit
  messages" and "replaying logs to many peers" expensive at scale.

A message is two *legs*.  The sender leg pays the per-message overhead and
then holds the sender's TX NIC for the serialisation time; the receiver leg
pays the latency and then holds the receiver's RX NIC for the serialisation
time.  :meth:`Network.transfer` yields simulation events until a message
has been delivered; :meth:`Network.transfer_time` is the closed-form
uncontended estimate used by analytic helper code.

The coroutine model
-------------------
:meth:`Network.tx` and :meth:`Network.rx_path` model each NIC as a
capacity-1 FIFO :class:`~repro.sim.primitives.Resource`: an overhead (or
latency) timeout, a NIC grant, a serialisation timeout, a release.  It is
the reference the fast path is checked against: setting the environment
variable ``REPRO_SIM_FASTPATH=0`` (or constructing ``Network(...,
fast_path=False)``) runs it for every leg, and the determinism-parity tests
run both and assert bit-identical results.  A configured
``switch_capacity`` couples every transfer through a shared fabric
resource, so a network with a fabric always runs the coroutine model too.

FIFO timelines (the fast path)
------------------------------
Every leg reaches its NIC a network constant after it starts
(``per_message_overhead_s`` for TX, ``latency_s`` for RX).  A constant
offset preserves order, so legs reach a NIC in the order they start, the
FIFO queue serves them in that order, and a leg's whole schedule is fixed
the moment it starts::

    start = now + offset;  if prev_end > start: start = prev_end
    end = start + nbytes / bandwidth

where ``prev_end`` is the end of the NIC's previous leg.  These are the
float operations the coroutine model performs through its chain of
relative timeouts and grants, so completion times agree bit for bit.  A
background send therefore schedules nothing (:meth:`Network.post_tx`); a
delivery (:meth:`Network.plan_rx`) and a waited-for leg (:meth:`Network.tx`,
:meth:`Network.rx_path`, so also :meth:`Network.transfer`) schedule exactly
one event, at the leg's end.  A delivery whose receiver only needs to know
when it lands (a bookmark of the runtime's counted fan-in) schedules none:
:meth:`Network.reserve_rx` reserves its end event's calendar key instead.
The events the coroutine model would have processed instead are counted in
``sim.stats.events_elided`` (:meth:`Network.settle_elided` takes back those
of legs still in flight when a run stops).  One thing is not reproduced: among events due at the
very same instant, an end event is ordered by when its leg was planned,
whereas the coroutine model orders it by when the NIC was granted.  The
simulated outputs of every FULL-scale benchmark cell still agree
(``tools/fastpath_oracle.py``); a few such ties show as a small event
residual.

Cancellation.  A waited-for leg is interrupted only by failure handling (a
rank killed in a blocking send, an aborted recovery's transfer).  The leg is
then withdrawn exactly where the coroutine model's ``finally`` releases its
NIC request: a leg still in its overhead/latency phase, or queued, vanishes;
a serialising leg frees the NIC at the interrupt instant.  The NIC's later
legs are re-planned, and an end event that moves is fired again at its new
time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.primitives import Event, Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.topology import NodeTopology
    from repro.sim.engine import Simulator

#: environment switch forcing the full coroutine model (determinism parity)
FAST_PATH_ENV = "REPRO_SIM_FASTPATH"


def fast_path_default() -> bool:
    """Whether new networks use the fast paths (env-controlled)."""
    return os.environ.get(FAST_PATH_ENV, "1") != "0"


#: one planned leg: ``(arrival at the NIC, serialisation time, end, end event
#: or None when nothing is scheduled, coroutine events elided at the end)``
_Leg = Tuple[float, float, float, Optional[Event], int]


@dataclass(frozen=True)
class NetworkSpec:
    """Static description of the interconnect.

    Parameters
    ----------
    latency_s:
        One-way latency per message (seconds).
    bandwidth_bytes_per_s:
        Point-to-point bandwidth of a single NIC/link.
    per_message_overhead_s:
        Fixed CPU cost charged to the sender for every message (protocol
        stack, memory copies).  This is where message-logging overhead adds
        its extra copy cost.
    switch_capacity:
        Number of simultaneous transfers the switch fabric supports before
        backpressure; ``None`` means non-blocking fabric (only NICs contend).
    name:
        Human-readable label.
    """

    latency_s: float = 100e-6
    bandwidth_bytes_per_s: float = 11.5e6
    per_message_overhead_s: float = 15e-6
    switch_capacity: Optional[int] = None
    name: str = "network"

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth_bytes_per_s must be positive")
        if self.per_message_overhead_s < 0:
            raise ValueError("per_message_overhead_s must be non-negative")
        if self.switch_capacity is not None and self.switch_capacity < 1:
            raise ValueError("switch_capacity must be >= 1 or None")

    def serialization_time(self, nbytes: int) -> float:
        """Time to push ``nbytes`` through one link."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return nbytes / self.bandwidth_bytes_per_s


#: 100 Mbit/s Fast Ethernet as used by the Gideon 300 cluster in the paper.
FAST_ETHERNET = NetworkSpec(
    latency_s=120e-6,
    bandwidth_bytes_per_s=11.5e6,
    per_message_overhead_s=20e-6,
    name="fast-ethernet",
)

#: Gigabit Ethernet — used for the "faster network, larger groups" discussion.
GIGABIT_ETHERNET = NetworkSpec(
    latency_s=45e-6,
    bandwidth_bytes_per_s=112e6,
    per_message_overhead_s=10e-6,
    name="gigabit-ethernet",
)

#: Single-data-rate InfiniBand, a stand-in for "high speed networks".
INFINIBAND_SDR = NetworkSpec(
    latency_s=5e-6,
    bandwidth_bytes_per_s=900e6,
    per_message_overhead_s=2e-6,
    name="infiniband-sdr",
)


class Network:
    """A switched network connecting the nodes of a :class:`~repro.cluster.topology.Cluster`.

    Each node gets an independent transmit NIC and receive NIC; a message
    holds the sender's TX NIC for its serialisation time and the receiver's
    RX NIC for its serialisation time, separated by the propagation latency.
    With :attr:`timelines` on, every NIC is a closed-form FIFO timeline;
    otherwise every NIC is a :class:`~repro.sim.primitives.Resource` driven
    by the coroutine model (see the module docstring).
    """

    def __init__(self, sim: "Simulator", spec: NetworkSpec, n_nodes: int,
                 fast_path: Optional[bool] = None,
                 topology: Optional["NodeTopology"] = None) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.sim = sim
        self.spec = spec
        self.n_nodes = n_nodes
        #: physical switch layout (informational: drives *placement* choices
        #: like restart-on-spare, not link timing — see NodeTopology)
        self.topology = topology
        #: fast paths enabled (see module docstring)
        self.fast_path = fast_path_default() if fast_path is None else fast_path
        # hot-path constants hoisted out of the (frozen) spec
        self._overhead_s = spec.per_message_overhead_s
        self._latency_s = spec.latency_s
        self._bandwidth = spec.bandwidth_bytes_per_s
        self._fabric: Optional[Resource] = None
        if spec.switch_capacity is not None:
            self._fabric = Resource(sim, capacity=spec.switch_capacity, name="fabric")
        #: NIC legs are planned on closed-form FIFO timelines (fast path
        #: without a fabric); False runs the coroutine model
        self.timelines = self.fast_path and self._fabric is None
        # -- timeline state: end of each NIC's last planned leg, and the legs
        # of its current busy period (``_Leg`` tuples) in FIFO order, so
        # their ends are non-decreasing
        self._tx_free: List[float] = [0.0] * n_nodes
        self._rx_free: List[float] = [0.0] * n_nodes
        self._tx_legs: List[List[_Leg]] = [[] for _ in range(n_nodes)]
        self._rx_legs: List[List[_Leg]] = [[] for _ in range(n_nodes)]
        #: ``(time, delta)`` elided-count corrections of cancelled legs whose
        #: coroutine (+1) or stale fast (-1) event lies at ``time``
        self._stale: List[Tuple[float, int]] = []
        #: elided events taken back by the last :meth:`settle_elided`
        self._unsettled = 0
        # -- coroutine-model state
        self._tx: List[Resource] = [
            Resource(sim, capacity=1, name=f"tx:{i}") for i in range(n_nodes)
        ]
        self._rx: List[Resource] = [
            Resource(sim, capacity=1, name=f"rx:{i}") for i in range(n_nodes)
        ]
        #: coroutine legs started but not yet finished, per NIC
        self._tx_inflight: List[int] = [0] * n_nodes
        self._rx_inflight: List[int] = [0] * n_nodes
        # accounting
        self.total_bytes = 0
        self.total_messages = 0

    # -- closed-form estimate -------------------------------------------
    def transfer_time(self, nbytes: int) -> float:
        """Uncontended end-to-end time for a message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return (
            self.spec.per_message_overhead_s
            + self.spec.latency_s
            + self.spec.serialization_time(nbytes)
        )

    # -- FIFO timelines ----------------------------------------------------
    def _plan(self, free: List[float], legs: List[List[_Leg]], node: int,
              offset: float, nbytes: int, tail: int, with_event: bool,
              value: Any = None) -> Optional[Event]:
        """Plan one leg on a NIC timeline; return its end event if asked.

        The leg reaches the NIC ``offset`` after now and is served after the
        NIC's previous leg: the same float operations as the coroutine
        model's overhead/latency timeout, grant and serialisation timeout.
        Elides that timeout and the grant, plus ``tail`` coroutine events
        at the leg's end.
        """
        sim = self.sim
        now = sim.now
        start = arrival = now + offset
        ser = nbytes / self._bandwidth
        nic = legs[node]
        prev_end = free[node]
        if prev_end <= now:
            nic.clear()  # the NIC is idle: every recorded leg has ended
        elif prev_end > start:
            start = prev_end
        end = start + ser
        free[node] = end
        sim.stats.events_elided += 2 + tail
        ev = sim.fire_at(end, value) if with_event else None
        nic.append((arrival, ser, end, ev, tail))
        return ev

    def post_tx(self, src_node: int, nbytes: int) -> None:
        """Sender leg of a background send, in either model.

        The coroutine model spawns a process running :meth:`tx`.  On the
        timelines nobody waits for the leg, so it is planned but schedules
        nothing: the overhead timeout, NIC grant, serialisation timeout and
        process completion all elide, and the leg only delays later legs of
        the same NIC.
        """
        if not self.timelines:
            self.sim.process(self.tx(src_node, nbytes), name="tx")
            return
        self.total_bytes += nbytes
        self.total_messages += 1
        self.sim.stats.fastpath_tx += 1
        self._plan(self._tx_free, self._tx_legs, src_node, self._overhead_s,
                   nbytes, 2, False)

    def plan_rx(self, dst_node: int, nbytes: int, value: Any = None) -> Event:
        """Receiver leg of a background delivery; returns its end event.

        The event fires with ``value`` at the delivery-completion instant.
        It stands in for the latency timeout, RX grant and serialisation
        timeout of the coroutine model, and for the completion event of the
        process the coroutine model spawns for the delivery.
        """
        self.sim.stats.fastpath_rx += 1
        return self._plan(self._rx_free, self._rx_legs, dst_node,
                          self._latency_s, nbytes, 1, True, value)

    def reserve_rx(self, dst_node: int, nbytes: int) -> Tuple[float, int]:
        """Receiver leg of a delivery with no end event; returns its end key.

        Plans the leg like :meth:`plan_rx` but schedules nothing: the
        serialisation timeout is elided too.  It only reserves the calendar
        key ``(end, seq)`` :meth:`plan_rx`'s end event would have had, so a
        caller that later does need the event can push it there
        (:meth:`~repro.sim.engine.Simulator.push_reserved`; it then counts
        one elided event less) and one that does not can still tell when it
        would have fired (:meth:`~repro.sim.engine.Simulator.passed`).
        """
        self.sim.stats.fastpath_rx += 1
        self._plan(self._rx_free, self._rx_legs, dst_node, self._latency_s,
                   nbytes, 2, False)
        return self._rx_free[dst_node], self.sim.reserve_seq()

    def _cancel(self, free: List[float], legs: List[List[_Leg]], node: int,
                done: Event) -> None:
        """Cancel the waited-for leg ending with ``done`` at the current instant.

        Mirrors the coroutine model's ``finally`` release: a leg still in
        its overhead/latency phase or queued vanishes (only its first
        timeout still fires; its grant and serialisation never happen), a
        serialising leg frees the NIC now.  The NIC's later legs are
        re-planned; an end event that moves earlier is fired again at its
        new time.  ``done`` and every moved event keep their original
        calendar entry, which still pops as an empty event: each one is one
        processed event the coroutine model does not have.
        """
        nic = legs[node]
        for i, leg in enumerate(nic):
            if leg[3] is done:
                break
        else:
            return  # ended at this very instant and already pruned
        sim = self.sim
        stats = sim.stats
        now = sim.now
        arrival, _ser, old_end, _ev, _tail = leg
        prev_end = nic[i - 1][2] if i else 0.0
        del nic[i]
        if now < (prev_end if prev_end > arrival else arrival):
            # vanished: the first timeout (at ``arrival``) stays a coroutine
            # event, the stale pop of ``done`` is a fast one
            stats.events_elided -= 2
            self._stale += ((arrival, 1), (old_end, -1))
        else:
            prev_end = now
        for j in range(i, len(nic)):
            arrival, ser, old_end, ev, tail = nic[j]
            start = arrival
            if prev_end > start:
                start = prev_end
            end = start + ser
            if end != old_end:
                nic[j] = (arrival, ser, end, ev, tail)
                if ev is not None:
                    sim.refire_at(ev, end)
                    stats.events_elided -= 1
                    self._stale.append((old_end, -1))
            prev_end = end
        free[node] = prev_end

    def settle_elided(self) -> None:
        """Bring ``sim.stats.events_elided`` in line with the current instant.

        Legs count their elided events when planned, but a run can stop
        (every rank finished) while legs are still in flight — typically a
        background send's NIC occupancy outlasting its sender.  The
        coroutine model never processes the events such legs would still
        have had after the stop, so they are taken back here: every
        coroutine event later than now, and every correction of a
        cancellation that lies later than now.  Calling it again after the
        simulation continued re-settles against the new instant.
        """
        now = self.sim.now
        pending = 0
        for legs in (self._tx_legs, self._rx_legs):
            for nic in legs:
                prev_end = 0.0
                for arrival, _ser, end, _ev, tail in nic:
                    if end > now:
                        start = prev_end if prev_end > arrival else arrival
                        pending += (arrival > now) + (start > now) + tail
                    prev_end = end
        self._stale = [(t, d) for t, d in self._stale if t > now]
        pending += sum(d for _t, d in self._stale)
        self.sim.stats.events_elided += self._unsettled - pending
        self._unsettled = pending

    def _wait(self, free: List[float], legs: List[List[_Leg]], node: int,
              offset: float, nbytes: int) -> Generator[Event, None, float]:
        """Plan a leg the caller waits for; wait for its end event.

        The one event stands in for the offset timeout, NIC grant and
        serialisation timeout.  An interrupted caller withdraws its leg
        exactly where the coroutine model's ``finally`` releases its NIC.
        Returns the elapsed time.
        """
        start = self.sim.now
        done = self._plan(free, legs, node, offset, nbytes, 0, True)
        try:
            yield done
        except BaseException:
            self._cancel(free, legs, node, done)
            raise
        return self.sim.now - start

    # -- waited legs (either model) -----------------------------------------
    def tx(self, src_node: int, nbytes: int) -> Generator[Event, None, float]:
        """Sender-side portion of a transfer: per-message overhead + TX NIC hold.

        This is the part of a blocking send the *sender* is occupied for.
        Returns the elapsed sender time.
        """
        self._check_node(src_node)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.timelines:
            self.total_bytes += nbytes
            self.total_messages += 1
            self.sim.stats.fastpath_tx += 1
            return (yield from self._wait(self._tx_free, self._tx_legs, src_node,
                                          self._overhead_s, nbytes))
        self._tx_inflight[src_node] += 1
        try:
            result = yield from self._tx_body(src_node, nbytes)
        finally:
            self._tx_inflight[src_node] -= 1
        return result

    def _tx_body(self, src_node: int, nbytes: int) -> Generator[Event, None, float]:
        self.total_bytes += nbytes
        self.total_messages += 1
        start = self.sim.now
        yield self.sim.timeout(self.spec.per_message_overhead_s)
        ser = self.spec.serialization_time(nbytes)
        # The grant waits sit inside try/finally so that an interrupted
        # process (live failure injection kills ranks mid-transfer) cancels
        # its queued request instead of leaking a NIC slot forever.
        tx_req = self._tx[src_node].request()
        try:
            yield tx_req
            if self._fabric is not None:
                fb_req = self._fabric.request()
                try:
                    yield fb_req
                    yield self.sim.timeout(ser)
                finally:
                    self._fabric.release(fb_req)
            else:
                yield self.sim.timeout(ser)
        finally:
            self._tx[src_node].release(tx_req)
        return self.sim.now - start

    def rx_path(self, dst_node: int, nbytes: int) -> Generator[Event, None, float]:
        """Network-and-receiver portion of a transfer: latency + RX NIC serialisation."""
        self._check_node(dst_node)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.timelines:
            self.sim.stats.fastpath_rx += 1
            return (yield from self._wait(self._rx_free, self._rx_legs, dst_node,
                                          self._latency_s, nbytes))
        self._rx_inflight[dst_node] += 1
        try:
            result = yield from self._rx_body(dst_node, nbytes)
        finally:
            self._rx_inflight[dst_node] -= 1
        return result

    def _rx_body(self, dst_node: int, nbytes: int) -> Generator[Event, None, float]:
        start = self.sim.now
        yield self.sim.timeout(self.spec.latency_s)
        rx_req = self._rx[dst_node].request()
        try:
            yield rx_req
            yield self.sim.timeout(self.spec.serialization_time(nbytes))
        finally:
            self._rx[dst_node].release(rx_req)
        return self.sim.now - start

    # -- simulated transfer ----------------------------------------------
    def transfer(
        self, src_node: int, dst_node: int, nbytes: int
    ) -> Generator[Event, None, float]:
        """Simulate moving ``nbytes`` from ``src_node`` to ``dst_node``.

        Yields simulation events; returns the completion time.  Local (same
        node) transfers only pay the per-message overhead.  The receiver leg
        starts when the sender leg ends.
        """
        self._check_node(src_node)
        self._check_node(dst_node)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")

        if src_node == dst_node:
            self.total_bytes += nbytes
            self.total_messages += 1
            yield self.sim.timeout(self.spec.per_message_overhead_s)
            return self.sim.now

        yield from self.tx(src_node, nbytes)
        yield from self.rx_path(dst_node, nbytes)
        return self.sim.now

    # -- introspection -----------------------------------------------------
    def nic_inflight(self, at: float) -> List[int]:
        """Legs in flight on each node's NICs (TX + RX) at instant ``at``.

        A leg counts from the event that started it until its end (or
        cancellation) inclusive.  ``at`` must lie after every leg planned so
        far — the state sampler asks for the bin edges it has just crossed.
        """
        if not self.timelines:
            return [t + r for t, r in zip(self._tx_inflight, self._rx_inflight)]
        return [_live_legs(tx, at) + _live_legs(rx, at)
                for tx, rx in zip(self._tx_legs, self._rx_legs)]

    def same_switch(self, a: int, b: int) -> bool:
        """Whether two nodes share an edge switch (True without a topology).

        A cluster without an attached :class:`NodeTopology` behaves as one
        flat switch — every pair is local, which is also the conservative
        answer for spare-placement preferences.
        """
        self._check_node(a)
        self._check_node(b)
        if self.topology is None:
            return True
        return self.topology.same_switch(a, b)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Network {self.spec.name} nodes={self.n_nodes} msgs={self.total_messages}>"


def _live_legs(legs: List[_Leg], at: float) -> int:
    """Number of trailing legs (ends are non-decreasing) still running at ``at``."""
    n = 0
    for leg in reversed(legs):
        if leg[2] < at:
            break
        n += 1
    return n
