"""Bucket reclaim and the source-wildcard index of :class:`repro.mpi.runtime.Inbox`.

The inbox deletes a ``(kind, src, tag)`` bucket the moment it empties and
serves ``(kind, ANY_SOURCE, tag)`` receives from an arrival-ordered
per-``(kind, tag)`` index with lazily skipped, periodically compacted stale
entries.  These tests check it three ways:

* against a reference list-scan matcher (the seed ``Store`` semantics) on
  random mixes of puts, exact and wildcard gets, blocked waiters, capture
  and restore — matched messages, wake order and capture order must agree;
* on the structural invariants after every operation (no empty bucket, the
  index holds every buffered message and at most ``_STALE_SLACK`` + the
  buffer stale ones, nothing at all once the inbox is empty);
* on the work a multi-wave NORM run does: wildcard receives inspect a small
  constant number of index entries each, however many waves have run.
"""

import random
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.ckpt.scheduler import periodic
from repro.experiments import runner
from repro.experiments.config import QUICK, ScenarioConfig
from repro.mpi.messages import MessageKind, fast_message
from repro.cluster.network import FAST_PATH_ENV
from repro.mpi.runtime import _STALE_SLACK, CONTROL_TAG_BASE, Inbox, MpiRuntime
from repro.sim.engine import Simulator

KINDS = (MessageKind.APP, MessageKind.CONTROL, MessageKind.MARKER)


def _matches(msg, kind, src, tag):
    return ((kind is None or msg.kind is kind)
            and (src is None or msg.src == src)
            and (tag is None or msg.tag == tag))


class ReferenceInbox:
    """The seed semantics: one delivery-ordered list, first match wins."""

    def __init__(self, items=()):
        self.items = list(items)
        self.waiters = []           # (getter id, kind, src, tag) in registration order

    def put(self, msg):
        """Return the id of the woken getter, or None if ``msg`` is buffered."""
        for i, (gid, kind, src, tag) in enumerate(self.waiters):
            if _matches(msg, kind, src, tag):
                del self.waiters[i]
                return gid
        self.items.append(msg)
        return None

    def get(self, gid, kind, src, tag):
        """Return the matched message, or None after registering a waiter."""
        for i, msg in enumerate(self.items):
            if _matches(msg, kind, src, tag):
                del self.items[i]
                return msg
        self.waiters.append((gid, kind, src, tag))
        return None


def check_structure(inbox):
    """Reclaim and index invariants that must hold between operations."""
    buffered = []
    for (kind, src, tag), bucket in inbox._buckets.items():
        assert bucket, "an empty bucket was not reclaimed"
        assert all(m.kind is kind and m.src == src and m.tag == tag for m in bucket)
        buffered.extend(bucket)
    assert len(buffered) == len(inbox)
    live = {id(m) for m in buffered}
    n_entries = 0
    indexed = defaultdict(list)
    for (kind, tag), entries in inbox._index.items():
        assert entries, "an empty index deque was kept"
        n_entries += len(entries)
        for msg in entries:
            assert msg.kind is kind and msg.tag == tag
            if id(msg) in live:
                indexed[(kind, tag)].append(msg)
    assert n_entries == len(inbox) + inbox._n_stale
    assert inbox._n_stale <= len(inbox) + _STALE_SLACK
    if not len(inbox):
        assert not inbox._index and inbox._n_stale == 0
    # every buffered message is indexed once, in delivery order
    expected = defaultdict(list)
    for msg in sorted(buffered, key=lambda m: m._arrival):
        expected[(msg.kind, msg.tag)].append(msg)
    assert indexed == expected


class Harness:
    """Drives an :class:`Inbox` and the reference side by side."""

    def __init__(self):
        self.sim = Simulator()
        self.inbox = Inbox(self.sim, 0)
        self.ref = ReferenceInbox()
        self.events = []            # get events by getter id
        self.fired = []             # getter ids in the order the reference fires them
        self.seq = 0

    def put(self, kind, src, tag):
        self.seq += 1
        msg = fast_message(src, 0, self.seq, tag, kind, None, None, 0.0)
        woken = self.ref.put(msg)
        self.inbox.put(msg)
        if woken is not None:
            self.fired.append(woken)
            assert self.events[woken]._value is msg
        self.check()

    def get(self, kind, src, tag):
        gid = len(self.events)
        ev = self.inbox.get(kind, src, tag)
        self.events.append(ev)
        msg = self.ref.get(gid, kind, src, tag)
        if msg is None:
            assert not ev._triggered
        else:
            self.fired.append(gid)
            assert ev._triggered and ev._value is msg
        self.check()

    def capture(self):
        assert self.inbox.items_in_order() == self.ref.items

    def restore(self):
        """Roll back: a fresh inbox re-deposits the capture (waiters are lost)."""
        captured = self.inbox.items_in_order()
        self.inbox = Inbox(self.sim, 0)
        self.inbox.restore(captured)
        self.ref = ReferenceInbox(captured)
        self.check()

    def check(self):
        check_structure(self.inbox)
        # wake order: the immediate queue holds the fired get events in order
        assert [ev for _, ev in self.sim._immediate] == [self.events[g] for g in self.fired]

    def apply(self, op):
        name, *args = op
        getattr(self, name)(*args)


_kind = st.sampled_from(KINDS)
_src = st.integers(min_value=0, max_value=3)
_tag = st.integers(min_value=0, max_value=2)
_put = st.tuples(st.just("put"), _kind, _src, _tag)
_exact_get = st.tuples(st.just("get"), _kind, _src, _tag)
_wildcard_get = st.tuples(st.just("get"), st.none() | _kind, st.none() | _src, st.none() | _tag)
_any_source_get = st.tuples(st.just("get"), _kind, st.none(), _tag)
_ops = st.lists(
    st.one_of(_put, _put, _put, _exact_get, _wildcard_get, _any_source_get,
              st.just(("capture",)), st.just(("restore",))),
    max_size=250,
)


@given(ops=_ops)
@settings(max_examples=150, deadline=None)
def test_inbox_matches_reference_list_scan(ops):
    harness = Harness()
    for op in ops:
        harness.apply(op)
    harness.capture()


def test_inbox_matches_reference_on_seeded_bursts():
    """Bursts drained in random order strand stale entries and compact often."""
    for seed in range(4):
        rng = random.Random(seed)
        harness = Harness()
        for _ in range(40):
            for _ in range(rng.randrange(10, 80)):
                harness.put(rng.choice(KINDS[:2]), rng.randrange(8), rng.randrange(2))
            while len(harness.inbox) > rng.randrange(4):
                target = rng.choice(harness.ref.items)
                roll = rng.random()
                if roll < 0.7:
                    harness.get(target.kind, target.src, target.tag)
                elif roll < 0.9:
                    harness.get(target.kind, None, target.tag)
                elif roll < 0.95:
                    harness.get(target.kind, target.src, None)
                else:
                    # may block: the next burst's puts then wake it
                    harness.get(rng.choice(KINDS), rng.randrange(8), None)
            if rng.random() < 0.1:
                harness.restore()
        harness.capture()


def test_out_of_order_exact_receives_compact_the_index():
    harness = Harness()
    n = _STALE_SLACK + 8
    for src in range(n):
        harness.put(MessageKind.APP, src, 0)
    # exact receives in reverse delivery order each strand a stale entry
    # behind the index head until the index is compacted
    peak = 0
    for src in reversed(range(3, n)):
        harness.get(MessageKind.APP, src, 0)
        peak = max(peak, harness.inbox._n_stale)
    assert peak > _STALE_SLACK
    assert harness.inbox._n_stale == 0
    assert sum(map(len, harness.inbox._index.values())) == len(harness.inbox) == 3
    # the earliest delivery still wins the ANY_SOURCE receive
    harness.get(MessageKind.APP, None, 0)
    assert harness.events[-1]._value.src == 0
    harness.get(MessageKind.APP, 2, 0)
    harness.get(MessageKind.APP, None, None)
    assert len(harness.inbox) == 0 and not harness.inbox._index


def test_any_source_receive_skips_stale_entries_once():
    sim = Simulator()
    inbox = Inbox(sim, 0)
    msgs = [fast_message(src, 0, 1, 5, MessageKind.CONTROL, None, None, 0.0) for src in range(4)]
    for m in msgs:
        inbox.put(m)
    # exact receives take the two earliest out from under the index head
    assert inbox.get(MessageKind.CONTROL, 0, 5)._value is msgs[0]
    assert inbox.get(MessageKind.CONTROL, 1, 5)._value is msgs[1]
    # ...in index order, so nothing is stale yet; now strand one behind
    assert inbox.get(MessageKind.CONTROL, 3, 5)._value is msgs[3]
    assert inbox._n_stale == 1
    before = sim.stats.inbox_scan_steps
    assert inbox.get(MessageKind.CONTROL, None, 5)._value is msgs[2]
    assert sim.stats.inbox_scan_steps - before == 1
    assert not inbox._buckets and not inbox._index and inbox._n_stale == 0


# -- work gate on a multi-wave NORM run ---------------------------------------

def _multi_wave_norm_config():
    return ScenarioConfig("hpl", 32, "NORM", periodic(4.0),
                          workload_options=dict(QUICK.hpl_options), do_restart=False)


def test_multi_wave_norm_wildcard_work_is_constant_per_receive(monkeypatch):
    """Scan steps stay within a small constant of the wildcard receives.

    Before buckets were reclaimed, each bookmark/barrier wildcard receive
    swept every channel its rank had ever used, so the steps per receive
    grew with every wave.  Runs the coroutine model, where bookmarks still
    pass through the inbox (the fast path collects them on a counted
    fan-in; see the next test).
    """
    monkeypatch.setenv(FAST_PATH_ENV, "0")
    calls = defaultdict(int)
    original = Inbox._pop_wildcard

    def counting(self, kind, src, tag):
        calls[id(self.sim)] += 1
        return original(self, kind, src, tag)

    monkeypatch.setattr(Inbox, "_pop_wildcard", counting)
    result = runner.run_scenario(_multi_wave_norm_config())
    sim = result.app.contexts[0].sim
    wildcard_recvs = calls[id(sim)]
    assert result.checkpoints_completed >= 4
    # at least a wave's worth of bookmarks was already buffered when collected
    assert wildcard_recvs >= 32 * 31
    assert sim.stats.inbox_scan_steps <= 2 * wildcard_recvs
    for ctx in result.app.contexts:
        check_structure(ctx.inbox)


def test_multi_wave_norm_fast_path_collects_bookmarks_on_one_event(monkeypatch):
    """The fast path's bookmark collection costs one calendar event per receiver.

    Every bookmark is planned with no delivery event; a receiver still
    waiting when it starts collecting resumes on one event (its last
    bookmark's), one that is not resumes through immediate hops only.  The
    coroutine model processes 53,729 events on this run; the fast path
    processes 9,094 (13,041 while every bookmark had its own delivery
    event) and elides the rest, exactly.
    """
    wakes = defaultdict(int)
    bookmark_deliveries = [0]
    original_wake = MpiRuntime._wake_collector
    original_delivered = MpiRuntime._on_delivered

    def counting_wake(self, key, board):
        wakes[key] += 1
        return original_wake(self, key, board)

    def counting_delivered(self, ev):
        msg = ev._value
        if msg.kind is MessageKind.CONTROL and (msg.tag - CONTROL_TAG_BASE) % 8 == 1:
            bookmark_deliveries[0] += 1
        return original_delivered(self, ev)

    monkeypatch.setenv(FAST_PATH_ENV, "1")
    monkeypatch.setattr(MpiRuntime, "_wake_collector", counting_wake)
    monkeypatch.setattr(MpiRuntime, "_on_delivered", counting_delivered)
    result = runner.run_scenario(_multi_wave_norm_config())
    sim = result.app.contexts[0].sim
    waves = result.checkpoints_completed
    assert waves >= 4
    assert bookmark_deliveries[0] == 0
    assert wakes and max(wakes.values()) == 1
    assert len(wakes) <= 32 * waves
    assert sim.processed_events + sim.stats.events_elided == 53_729
    assert sim.processed_events <= 9_094
