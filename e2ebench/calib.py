"""Host-speed calibration: a fixed pure-Python kernel timed beside the cells.

The benchmark runs on shared virtual machines whose speed drifts by up to
2.5x over minutes, and changes within a second: the same repetition took
13 s in one period and 36 s in another.  Raw times from such a host cannot
resolve a 24% change.  Two measures take the host out of the timings:

* cells are timed in the CPU time of the thread that runs them
  (``time.thread_time``), which leaves out the time the thread waits for a
  CPU, inside the guest or on the host;
* a :class:`SpeedProbe` thread in the same process, pinned to the same CPU,
  runs a short chunk of :func:`kernel` every ``PERIOD_S`` and times it in
  its own CPU time.  The chunks run in the same moments as the cell, so
  their mean CPU time tells how fast the host executed Python meanwhile::

      factor = (mean chunk CPU time) / REF_CHUNK_S
      normalized = cell CPU time / factor

``REF_CHUNK_S`` is a constant, a chunk's CPU time on the reference host, so
a normalized value reads as CPU seconds on that host.  The kernel is the
benchmark's own code, never the program's, so a change to the program
cannot move it.  It does what the simulator's event loop does: a heap of
event objects ordered by a Python ``__lt__``, attribute and dict updates,
random access to a few MB of state.  Of the kernels tried on a slowed
host, this one tracked the simulator's own slowdown best (log-log slope
0.86-0.98 over three kinds of cell, against 0.59-0.77 for an integer-only
event loop).  It allocates no object in its loop, so it never triggers a
garbage collection that the program's heap would make expensive, and the
mean over its chunks is not thrown by such outliers.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from typing import List, Optional, Tuple

#: about a chunk's thread CPU time on the reference host (2-vCPU KVM guest,
#: Xeon, Python 3.11) when it runs fast; only scales the normalized values
REF_CHUNK_S = 0.00134
#: wall time between the starts of two chunks
PERIOD_S = 0.05
#: a cell's factor is the mean of at least this many chunks (about a
#: second): a window around a shorter cell is widened to this size
MIN_CHUNKS = 20
#: events one chunk processes
_EVENTS = 1500
#: the kernel's result; a different value means the kernel did other work
_CHECKSUM = 31222
_RANKS = 16
_POOL = 40000


class _Event:
    __slots__ = ("time", "src", "dst", "size")

    def __init__(self) -> None:
        self.time, self.src, self.dst, self.size = 0.0, 0, 0, 0

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


class _Counter:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


#: reused on every chunk, so the kernel allocates no object in its loop
_CALENDAR = [_Event() for _ in range(_RANKS)]
#: a working set of a few MB, touched at random like the simulator's state
_STATE = [_Counter() for _ in range(_POOL)]


def kernel(events: int = _EVENTS) -> int:
    """A small discrete-event run: events ordered by a Python ``__lt__`` in a
    heap, each one updating an inbox, a random state object and its own
    fields before it is pushed back.  Returns a checksum of the run."""
    calendar = _CALENDAR
    for rank, event in enumerate(calendar):
        event.time, event.src, event.dst, event.size = float(rank), rank, (rank + 1) % _RANKS, 64
    heapq.heapify(calendar)
    push, pop = heapq.heappush, heapq.heappop
    inbox: dict = {}
    x = 1
    for _ in range(events):
        event = pop(calendar)
        key = event.dst * 4 + (event.src & 3)
        inbox[key] = inbox.get(key, 0) + event.size
        x = (x * 1103515245 + 12345) & 0x7fffffff
        _STATE[x % _POOL].count += 1
        event.time += 1e-6 * (1 + x % 97)
        event.src, event.dst = event.dst, x & (_RANKS - 1)
        event.size += 1
        push(calendar, event)
    return (x ^ sum(inbox.values())) % 100003


def chunk_cpu_s() -> float:
    """Thread CPU time of one kernel chunk."""
    start = time.thread_time()
    result = kernel()
    elapsed = time.thread_time() - start
    if result != _CHECKSUM:
        raise RuntimeError(f"calibration kernel gave {result}, expected {_CHECKSUM}")
    return elapsed


def pin_to_current_cpu() -> None:
    """Keep the calling thread, and the threads it starts afterwards, on the
    CPU it runs on now.  Left unpinned, the probe thread wakes on whichever
    CPU is idle, and another virtual CPU of a shared host can run at a
    different speed than the one the cells run on."""
    with open("/proc/self/stat") as fh:
        # field 39 is the CPU the task last ran on; the name in field 2 may
        # hold spaces, so count from its closing parenthesis
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


class SpeedProbe:
    """Times a kernel chunk every ``PERIOD_S`` on a thread of its own.

    ``mark()`` returns a position in the series of chunks; ``factor(a, b)``
    is the host factor over the chunks between two marks (their mean CPU
    time over ``REF_CHUNK_S``), or ``None`` if no chunk ran between them.
    """

    def __init__(self) -> None:
        self.chunks: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="e2ebench-speed",
                                        daemon=True)

    def _run(self) -> None:
        while True:
            self.chunks.append(chunk_cpu_s())
            if self._stop.wait(PERIOD_S):
                return

    def mark(self) -> int:
        return len(self.chunks)

    def factor(self, start: int, end: int) -> Optional[float]:
        window = self.chunks[start:end]
        return sum(window) / len(window) / REF_CHUNK_S if window else None

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)


def split(probe: SpeedProbe, marks: List[Tuple[int, int]]) -> List[float]:
    """Host factor per ``(start, end)`` mark pair.  A pair holding fewer than
    ``MIN_CHUNKS`` chunks is widened around its middle to that many (or to
    every chunk there is)."""
    n = probe.mark()
    out = []
    for a, b in marks:
        if b - a < MIN_CHUNKS:
            a = max(0, min((a + b - MIN_CHUNKS) // 2, n - MIN_CHUNKS))
            b = a + MIN_CHUNKS
        out.append(probe.factor(a, b))
    return out


if __name__ == "__main__":
    print(kernel(), [round(chunk_cpu_s() * 1000, 3) for _ in range(10)])
