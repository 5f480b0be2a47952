"""Message records and per-channel byte accounting.

The group-based protocol (Algorithm 1 of the paper) is driven entirely by
per-channel byte counters:

* ``S_X`` — bytes this process has sent to process X,
* ``R_X`` — bytes this process has received from process X,
* ``RR_X`` — the recorded value of ``R_X`` at the latest checkpoint,

plus piggybacked ``RR`` values used to garbage-collect sender-side logs.
:class:`ChannelAccount` implements that bookkeeping; :class:`Message` is the
unit travelling through the network.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, Optional


class MessageKind(enum.Enum):
    """Classes of traffic the runtime distinguishes.

    Only ``APP`` messages count towards the S/R channel accounting and the
    communication trace; ``CONTROL`` carries protocol coordination
    (bookmarks, barrier tokens, restart negotiation) and ``MARKER`` carries
    Chandy–Lamport markers.
    """

    APP = "app"
    CONTROL = "control"
    MARKER = "marker"

    #: members are singletons compared by identity, so the C identity hash
    #: serves; ``Enum.__hash__`` is a Python-level call, and every inbox
    #: channel key hashes a kind
    __hash__ = object.__hash__


_message_counter = itertools.count()


class Message:
    """One message in flight (or delivered).

    Hand-written ``__slots__`` class (millions are allocated per simulated
    run): no instance ``__dict__``, no dataclass machinery, and the
    ``piggyback`` dictionary is **lazy** — ``None`` until a protocol actually
    stamps metadata onto the message, so control/marker traffic and
    steady-state in-group sends never allocate it.

    Attributes
    ----------
    src, dst:
        Sender and receiver ranks.
    nbytes:
        Payload size in bytes (application payload, excluding piggyback).
    tag:
        MPI-style tag used for matching.
    kind:
        Traffic class (:class:`MessageKind`).
    piggyback:
        Small dictionary of protocol metadata carried with the message
        (e.g. the ``RR`` value used for log garbage collection), or ``None``
        when the message carries no metadata (the common case).
    payload:
        Optional opaque payload used by control messages.
    sent_at / arrived_at:
        Simulation timestamps filled in by the runtime.
    src_epoch / dst_epoch:
        Rollback epochs of the two endpoints at send time.  Only stamped when
        live failure injection is active; a message whose stamp no longer
        matches an endpoint's current epoch was carried by a connection that a
        process kill has since reset, and is dropped at delivery.  The
        defaults mean failure-free runs never pay for the stamps.
    end_offset / msg_index:
        Cumulative channel position (bytes, message count) of this message on
        its (src, dst) application channel, used by re-executed senders to
        skip duplicates after a rollback.  Stamped only under failure
        injection.
    seq:
        Globally unique, monotonically increasing id (tie-breaker and
        debugging aid).
    """

    __slots__ = (
        "src", "dst", "nbytes", "tag", "kind", "piggyback", "payload",
        "sent_at", "arrived_at", "src_epoch", "dst_epoch",
        "end_offset", "msg_index", "seq", "_arrival",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        nbytes: int,
        tag: int = 0,
        kind: MessageKind = MessageKind.APP,
        piggyback: Optional[Dict[str, Any]] = None,
        payload: Any = None,
        sent_at: float = -1.0,
        arrived_at: float = -1.0,
        src_epoch: int = 0,
        dst_epoch: int = 0,
        end_offset: int = -1,
        msg_index: int = -1,
    ) -> None:
        if src < 0 or dst < 0:
            raise ValueError("ranks must be non-negative")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.tag = tag
        self.kind = kind
        self.piggyback = piggyback
        self.payload = payload
        self.sent_at = sent_at
        self.arrived_at = arrived_at
        self.src_epoch = src_epoch
        self.dst_epoch = dst_epoch
        self.end_offset = end_offset
        self.msg_index = msg_index
        self.seq = next(_message_counter)
        #: inbox delivery-order stamp (set by the receiving Inbox on put)
        self._arrival = -1

    @property
    def is_app(self) -> bool:
        """True for application traffic (counts towards S/R accounting)."""
        return self.kind is MessageKind.APP

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Msg #{self.seq} {self.kind.value} {self.src}->{self.dst} "
            f"tag={self.tag} {self.nbytes}B>"
        )


def fast_message(src: int, dst: int, nbytes: int, tag: int, kind: MessageKind,
                 piggyback: Optional[Dict[str, Any]], payload: Any,
                 sent_at: float) -> Message:
    """Allocate a :class:`Message` without constructor validation.

    The runtime creates one message per simulated send — this skips the
    ``__init__`` re-validation for arguments the runtime has already checked.
    Behaviourally identical to calling ``Message(...)`` with the same fields.
    """
    msg = object.__new__(Message)
    msg.src = src
    msg.dst = dst
    msg.nbytes = nbytes
    msg.tag = tag
    msg.kind = kind
    msg.piggyback = piggyback
    msg.payload = payload
    msg.sent_at = sent_at
    msg.arrived_at = -1.0
    msg.src_epoch = 0
    msg.dst_epoch = 0
    msg.end_offset = -1
    msg.msg_index = -1
    msg.seq = next(_message_counter)
    msg._arrival = -1
    return msg


class ChannelAccount:
    """Per-rank S/R byte counters over all peers.

    This is the data structure behind the paper's ``RX``/``SX`` definitions.
    Counters are monotonically non-decreasing; ``snapshot`` captures the
    values used as ``RR``/``SS`` at checkpoint time.
    """

    def __init__(self, rank: int) -> None:
        if rank < 0:
            raise ValueError("rank must be non-negative")
        self.rank = rank
        self._sent: Dict[int, int] = {}
        self._received: Dict[int, int] = {}
        self._sent_msgs: Dict[int, int] = {}
        self._received_msgs: Dict[int, int] = {}

    # -- updates -----------------------------------------------------------
    def record_send(self, dst: int, nbytes: int) -> None:
        """Account an application send of ``nbytes`` to ``dst`` (updates S_dst)."""
        if dst < 0:
            raise ValueError("dst must be non-negative")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._sent[dst] = self._sent.get(dst, 0) + nbytes
        self._sent_msgs[dst] = self._sent_msgs.get(dst, 0) + 1

    def record_receive(self, src: int, nbytes: int) -> None:
        """Account an application receive of ``nbytes`` from ``src`` (updates R_src)."""
        if src < 0:
            raise ValueError("src must be non-negative")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._received[src] = self._received.get(src, 0) + nbytes
        self._received_msgs[src] = self._received_msgs.get(src, 0) + 1

    def add_sent(self, dst: int, nbytes: int) -> None:
        """Unchecked :meth:`record_send` for the runtime hot path (pre-validated args)."""
        sent = self._sent
        sent[dst] = sent.get(dst, 0) + nbytes
        msgs = self._sent_msgs
        msgs[dst] = msgs.get(dst, 0) + 1

    def add_received(self, src: int, nbytes: int) -> None:
        """Unchecked :meth:`record_receive` for the runtime hot path (pre-validated args)."""
        received = self._received
        received[src] = received.get(src, 0) + nbytes
        msgs = self._received_msgs
        msgs[src] = msgs.get(src, 0) + 1

    # -- queries ----------------------------------------------------------
    def sent_to(self, dst: int) -> int:
        """S_dst: total application bytes sent to ``dst``."""
        return self._sent.get(dst, 0)

    def received_from(self, src: int) -> int:
        """R_src: total application bytes received from ``src``."""
        return self._received.get(src, 0)

    def messages_sent_to(self, dst: int) -> int:
        """Number of application messages sent to ``dst``."""
        return self._sent_msgs.get(dst, 0)

    def messages_received_from(self, src: int) -> int:
        """Number of application messages received from ``src``."""
        return self._received_msgs.get(src, 0)

    def peers(self) -> set[int]:
        """Every rank this process has exchanged application data with."""
        return set(self._sent) | set(self._received)

    @property
    def total_sent(self) -> int:
        """Total application bytes sent to all peers."""
        return sum(self._sent.values())

    @property
    def total_received(self) -> int:
        """Total application bytes received from all peers."""
        return sum(self._received.values())

    def messages_sent_by_destination(self) -> Dict[int, int]:
        """Copy of the per-peer sent-message counters."""
        return dict(self._sent_msgs)

    def messages_received_by_source(self) -> Dict[int, int]:
        """Copy of the per-peer received-message counters."""
        return dict(self._received_msgs)

    def restore(
        self,
        sent: Dict[int, int],
        received: Dict[int, int],
        sent_msgs: Optional[Dict[int, int]] = None,
        received_msgs: Optional[Dict[int, int]] = None,
    ) -> None:
        """Reset every counter to a previously captured state (rollback).

        Used when a process is rolled back to its last checkpoint during live
        failure recovery: the counters must return to exactly the values the
        checkpointed process would have had, so the byte offsets of
        re-executed sends line up with what peers already received.
        """
        self._sent = dict(sent)
        self._received = dict(received)
        self._sent_msgs = dict(sent_msgs) if sent_msgs is not None else {}
        self._received_msgs = dict(received_msgs) if received_msgs is not None else {}

    # -- snapshots ----------------------------------------------------------
    def snapshot_sent(self) -> Dict[int, int]:
        """Copy of the S counters (used as ``SS`` at checkpoint time)."""
        return dict(self._sent)

    def snapshot_received(self) -> Dict[int, int]:
        """Copy of the R counters (used as ``RR`` at checkpoint time)."""
        return dict(self._received)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ChannelAccount rank={self.rank} "
            f"sent={self.total_sent}B recv={self.total_received}B>"
        )


def in_transit_bytes(
    sender_sent: Dict[int, int],
    receiver_received: Dict[int, int],
    sender: int,
    receiver: int,
) -> int:
    """Bytes sent by ``sender`` to ``receiver`` but not yet received.

    Helper used by drain logic and by the restart replay-volume computation:
    ``max(0, SS_sender→receiver − RR_receiver←sender)``.
    """
    sent = sender_sent.get(receiver, 0)
    received = receiver_received.get(sender, 0)
    return max(0, sent - received)
