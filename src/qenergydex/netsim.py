"""Deterministic discrete-event network model.

Single-threaded event loop over a virtual clock in integer microseconds
(float timestamps would make event ordering platform-dependent). Links
carry a baseline round-trip delay d0 plus bounded jitter; one-way delay is
half the RTT with per-direction jitter U(0, jitter_max/2), which preserves
the RTT bound d0 <= RTT <= d0 + jitter_max. ``LinkModel`` is the one
place that formula is written; every caller draws its delays from it.

An event is either a message from ``send``, handed to its destination's
handler, or a timer from ``call_at``, whose callable runs at its time;
``Event.kind`` tells the two apart. Events are delivered in (time,
sequence) order, so a run is a pure function of the seed and the
registered handlers.

There is no server queue: a message is delivered its one-way delay plus
the fixed processing cost ``DEFAULT_PROCESSING_MS`` after it is sent,
however many others are in flight or arrive at the same node at once. So
load moves no delay.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .rng import substream

__all__ = ["LinkModel", "Event", "Network", "UnknownNode"]

# per-message handling cost (lightweight MAC/VRF-class work), added to
# every message's delay; the closed forms in qsah and porlite add the same
DEFAULT_PROCESSING_MS = 1.0


class UnknownNode(KeyError):
    """Raised when sending to or from an unregistered node."""


@dataclass(frozen=True)
class LinkModel:
    """Round-trip delay model: RTT = d0 + U(0, jitter_max).

    ``rtt`` and ``one_way`` draw one uniform per delay, so a call with
    ``size=k`` makes the same draws as k scalar calls on the same stream.
    """

    d0_ms: float = 20.0
    jitter_max_ms: float = 15.0

    def __post_init__(self):
        # NaN fails both comparisons; an infinite delay has no microsecond
        if not all(0 <= v < math.inf for v in (self.d0_ms, self.jitter_max_ms)):
            raise ValueError("delays must be finite and non-negative")

    def rtt(self, rng: np.random.Generator, size=None):
        """Round-trip time(s) in ms: d0 + U(0, jitter_max)."""
        return self.d0_ms + rng.uniform(0.0, self.jitter_max_ms, size)

    def one_way(self, rng: np.random.Generator, size=None):
        """One-way delay(s) in ms: d0/2 + U(0, jitter_max/2)."""
        return self.d0_ms / 2.0 + rng.uniform(0.0, self.jitter_max_ms / 2.0, size)


@dataclass
class Event:
    deliver_at_us: int
    seq: int
    src: str = field(compare=False)
    dst: str = field(compare=False)
    payload: object = field(compare=False)
    kind: str = field(compare=False, default="msg")   # "msg" or "timer"


class Network:
    """Event-driven message fabric between named nodes.

    Handlers have signature handler(network, event); they run at delivery
    time and may call ``send`` to schedule replies.
    """

    def __init__(self, seed: int = 0, default_link: LinkModel | None = None):
        self.default_link = default_link or LinkModel()
        self._rng = substream(seed, "net")
        self._handlers: dict[str, Callable] = {}
        self._down: set[frozenset] = set()
        # (deliver_at_us, seq, event): tuples order by time, then send order
        self._queue: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._now_us = 0

    # -- topology ----------------------------------------------------------

    def register_node(self, name: str, handler: Callable | None = None) -> None:
        self._handlers[name] = handler or (lambda net, ev: None)

    def set_link_down(self, a: str, b: str, down: bool = True) -> None:
        key = frozenset((a, b))
        if down:
            self._down.add(key)
        else:
            self._down.discard(key)

    # -- clock and scheduling ----------------------------------------------

    @property
    def now_ms(self) -> float:
        return self._now_us / 1000.0

    def send(self, src: str, dst: str, payload) -> Event:
        """Schedule delivery of ``payload`` after one-way delay plus processing."""
        if src not in self._handlers:
            raise UnknownNode(src)
        if dst not in self._handlers:
            raise UnknownNode(dst)
        if self._down and frozenset((src, dst)) in self._down:
            # partitioned link: message silently dropped
            return Event(deliver_at_us=-1, seq=-1, src=src, dst=dst, payload=payload)
        one_way = self.default_link.one_way(self._rng)
        delay_us = int(round((one_way + DEFAULT_PROCESSING_MS) * 1000.0))
        ev = Event(
            deliver_at_us=self._now_us + delay_us,
            seq=self._seq,
            src=src,
            dst=dst,
            payload=payload,
        )
        self._seq += 1
        heapq.heappush(self._queue, (ev.deliver_at_us, ev.seq, ev))
        return ev

    def call_at(self, t_ms: float, fn: Callable) -> Event:
        """Schedule ``fn()`` at an absolute virtual time."""
        ev = Event(
            deliver_at_us=max(self._now_us, int(round(t_ms * 1000.0))),
            seq=self._seq,
            src="",
            dst="",
            payload=fn,
            kind="timer",
        )
        self._seq += 1
        heapq.heappush(self._queue, (ev.deliver_at_us, ev.seq, ev))
        return ev

    # -- execution -----------------------------------------------------------

    def run_until(self, t_ms: float) -> list[Event]:
        """Process events up to and including virtual time ``t_ms``.

        The clock then reads the later of its time and ``t_ms``: a time in
        the past delivers nothing and leaves the clock where it is, as
        ``call_at`` does. Returns the delivered events in delivery order.
        """
        limit_us = int(round(t_ms * 1000.0))
        delivered: list[Event] = []
        queue = self._queue
        while queue and queue[0][0] <= limit_us:
            t_us, _seq, ev = heapq.heappop(queue)
            self._now_us = t_us
            if ev.kind == "timer":
                ev.payload()
            else:
                self._handlers[ev.dst](self, ev)
            delivered.append(ev)
        self._now_us = max(self._now_us, limit_us)
        return delivered

    def run_to_quiescence(self) -> int:
        """Deliver events until none remain; return how many.

        The run goes in waves: each is one ``run_until`` up to the latest
        time in the queue, and what a wave schedules after that time makes
        the next wave. The heap's (time, sequence) keys alone fix the
        delivery order, so each handler sees the same events at the same
        clock readings as a run stepped one event time at a time.
        """
        delivered = 0
        while self._queue:
            last_us = max(t_us for t_us, _, _ in self._queue)
            delivered += len(self.run_until(last_us / 1000.0))
        return delivered
