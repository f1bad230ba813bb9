"""Message tracing.

The trace is the reproduction's instrument for the paper's protocol figures
(Figures 1, 2, 3, 7): every message a transport delivers is recorded with a
global sequence number and the virtual timestamp at which it was sent.
Benches then assert on, and pretty-print, the causal message sequences.

Two recording paths share one sequence, so ``len(trace)`` and the index of
every :meth:`MessageTrace.events` entry agree whichever path recorded it:

* **Compact** — the caller passes the frame's measured size (the TCP data
  plane's receive and reply paths, and the in-process bypass).  Only the
  event's own fields are kept; the :class:`Message` and its payload are
  never retained, so a long TCP run's trace costs a few small tuples per
  frame, not every frame's bytes.
* **Full** — no size is passed (:class:`~repro.net.simnet.SimNetwork`).
  The message is kept until the first read, when :func:`payload_nbytes`
  sizes it; that is the figure-stable accounting the figure traces are
  pinned to.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.net.message import Message, MessageKind, payload_nbytes


@dataclass(frozen=True)
class TraceEvent:
    """One delivered message, as observed by the transport."""

    seq: int
    time_ms: float
    kind: str          # e.g. "INVOKE" or "REPLY(INVOKE)"
    src: str
    dst: str
    msg_id: str
    local: bool        # src == dst (in-namespace interaction)
    dropped: bool      # the loss model ate this transmission attempt
    nbytes: int        # approximate payload size on the wire

    def arrow(self) -> str:
        """Render as ``src -> dst: KIND`` (with a ✗ suffix for drops)."""
        suffix = "  [LOST]" if self.dropped else ""
        return f"{self.src} -> {self.dst}: {self.kind}{suffix}"


class MessageTrace:
    """Thread-safe, append-only record of transport activity."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        #: Recorded-but-not-yet-materialized entries: (seq, time_ms, kind,
        #: in_reply_to, src, dst, msg_id, local, dropped, size), where
        #: ``size`` is the measured byte count or, on the full path, the
        #: message to size at first read.  The hot path only builds this
        #: tuple; the kind string and payload sizing (a pickle!) are
        #: deferred to the first read, off the transport's critical path.
        self._pending: list[tuple[
            int, float, MessageKind, MessageKind | None, str, str, str,
            bool, bool, int | Message,
        ]] = []
        self._lock = threading.Lock()
        self._seq = 0

    def record(self, message: Message, time_ms: float, dropped: bool = False,
               nbytes: int | None = None) -> None:
        """Append an event for ``message`` (lazily materialized).

        ``nbytes`` lets a transport that already knows the frame's
        *measured* on-wire size (the TCP data plane, the bypass) thread it
        through; the trace then keeps only the event's fields and drops
        its reference to ``message``.  ``None`` keeps the message for the
        :func:`payload_nbytes` estimate at first read (the simulated
        network's figure-stable accounting).
        """
        size = message if nbytes is None else nbytes
        with self._lock:
            self._seq += 1
            self._pending.append((
                self._seq, time_ms, message.kind, message.in_reply_to,
                message.src, message.dst, message.msg_id, message.is_local,
                dropped, size,
            ))

    def _materialize_locked(self) -> None:
        for (seq, time_ms, kind, in_reply_to, src, dst, msg_id, local,
                dropped, size) in self._pending:
            label = kind.value
            if kind is MessageKind.REPLY and in_reply_to is not None:
                label = f"REPLY({in_reply_to.value})"
            self._events.append(TraceEvent(
                seq=seq,
                time_ms=time_ms,
                kind=label,
                src=src,
                dst=dst,
                msg_id=msg_id,
                local=local,
                dropped=dropped,
                nbytes=size if isinstance(size, int) else payload_nbytes(size),
            ))
        self._pending.clear()

    def events(self) -> list[TraceEvent]:
        """Snapshot of all events in sequence order."""
        with self._lock:
            if self._pending:
                self._materialize_locked()
            return list(self._events)

    def clear(self) -> None:
        """Forget all recorded events."""
        with self._lock:
            self._events.clear()
            self._pending.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events) + len(self._pending)

    # -- queries used by tests and figure benches ---------------------------

    def filtered(
        self,
        kinds: Iterable[str] | None = None,
        remote_only: bool = False,
        include_dropped: bool = False,
    ) -> list[TraceEvent]:
        """Events restricted by kind / locality / drop status."""
        wanted = set(kinds) if kinds is not None else None
        result = []
        for event in self.events():
            if event.dropped and not include_dropped:
                continue
            if remote_only and event.local:
                continue
            if wanted is not None and event.kind not in wanted:
                continue
            result.append(event)
        return result

    def kinds(self, remote_only: bool = False) -> list[str]:
        """The sequence of message kinds, in order."""
        return [e.kind for e in self.filtered(remote_only=remote_only)]

    def summary(self) -> Counter:
        """Counter of delivered (non-dropped) message kinds."""
        return Counter(e.kind for e in self.events() if not e.dropped)

    def remote_message_count(self) -> int:
        """Messages that actually crossed the network (the paper's RMI cost)."""
        return sum(1 for e in self.events() if not e.local and not e.dropped)

    def remote_bytes(self) -> int:
        """Approximate payload bytes that crossed the network."""
        return sum(
            e.nbytes for e in self.events() if not e.local and not e.dropped
        )

    def arrows(self, remote_only: bool = False) -> list[str]:
        """The trace rendered as ``src -> dst: KIND`` lines (figure format)."""
        return [e.arrow() for e in self.filtered(remote_only=remote_only)]
