"""Real TCP transport, cross-host capable, with one pipelined data path.

The simulated network answers "does the model behave as the paper says";
this transport answers "does the stack actually run over sockets".  Each
registered node owns a listening socket on the configured ``bind``
interface (``127.0.0.1`` by default; ephemeral port unless pinned via
``ports``).

Peers fall in two classes.  Nodes *registered on this transport* are
served in process.  Nodes hosted by **other processes/machines** are
reached through the transport's address book
(:meth:`~repro.net.transport.Transport.connect` records
``node_id -> Endpoint``); the cluster layer's membership service fills
the book from a seed list and JOIN/ANNOUNCE propagation.

**One wire.**  Every connection opens with a **HELLO exchange**
(:mod:`repro.net.endpoint`): the client writes its HELLO and waits,
inside ``connect_timeout_s``, for the server's before any request frame
is written.  HELLO carries the protocol version, the node id, the frame
codecs the sender decodes, and ``settings["wire"]``, the binary
envelope's schema digest (:data:`repro.net.wirecodec.WIRE_FORMAT`).
Every later frame is a :mod:`~repro.net.wirecodec` binary envelope, so
the HELLO is the only frame on a connection that is unpickled whole
(inside an envelope, only values the codec does not compile take its
pickle tag).  There is no fallback dialect, so a mismatch fails loudly:

* a peer HELLO with another protocol version or another wire digest
  raises :class:`~repro.errors.ConfigurationError` at the caller, naming
  both values (the server answers with its own HELLO, so the client can
  tell why, then closes the connection without dispatching anything);
* no HELLO within ``connect_timeout_s`` raises
  :class:`~repro.errors.NodeUnreachableError` — the request frame was
  never written, so at-most-once holds;
* a connection whose first frame is not a HELLO, or any later frame
  that is not a binary envelope (a second HELLO included), is closed
  with :class:`~repro.errors.MarshalError`.  Only that connection dies;
  others on the same reactor loop are untouched.

HELLO frames are wire-level only: they are not ``Message`` envelopes and
are invisible to traces.

**Pipelining.**  One persistent connection per (src, dst) pair carries
many concurrent exchanges at once: submission enqueues the frame on the
reactor's per-connection write queue, and incoming reply frames are
demultiplexed to waiting callers by ``Message.reply_to_id``.  N threads
calling into one destination share one socket and one round-trip
pipeline.  The same mechanism implements ``call_async`` natively:
submission writes the frame and parks a
:class:`~repro.net.transport.CallFuture` that the reactor resolves, so
one caller can scatter N requests (to one node or to N nodes) and
overlap every round trip without extra threads.  ``CallFuture.cancel()``
and deadline expiry both *abandon* an in-flight exchange the same way a
timed-out waiter does: the pending reply slot is released, the late
reply is dropped, and other waiters sharing the connection are
untouched.  A request's deadline also caps every reply wait (io timeout
or less) and is enforced server-side: a frame whose deadline expired in
the worker queue is dropped at dequeue.  With ``auto_batch`` on (the
default), calls that queue up behind an in-flight exchange coalesce into
one AUTO_BATCH frame; every build decodes AUTO_BATCH, so the switch is
sender-side only.

**Data plane.**  All sockets — client channels, server-accepted
connections, and listeners — are owned by a shared
:class:`~repro.net.reactor.Reactor`: a small pool of ``selectors`` event
loops (one by default, ``reactor_threads=`` scales it) doing
non-blocking reads through per-connection receive state machines and
coalescing queued writes into large sends
(``coalesce_max_bytes=``/``coalesce_max_delay_ms=`` shape the batching;
see the reactor module docstring).

Handler execution never runs on a reactor loop (apart from handlers
declared ``inline_safe``): frames are dispatched to a bounded worker
pool, and *bulk* kinds (streamed migration: OBJECT_TRANSFER and the
PREPARE/CHUNK/COMMIT/ABORT family) go to a separate background pool so
staging writes and marshalled-state applies cannot queue behind — or
starve — latency-sensitive calls.  When every resident worker is busy a
submission runs on a temporary overflow thread, so a nested call made by
a blocked handler (moves trigger OBJECT_TRANSFER, finds walk forwarding
chains) can always be dispatched and the pool cannot deadlock on its own
queue.

TCP provides reliable, ordered delivery, so no loss model applies here —
loss/retry behaviour is exercised on the simulated network.  An
undeliverable *one-way* send is recorded in the trace as a drop, matching
the simulated network's accounting of cast losses (two-way failures raise
to the caller instead).  A handler that dies with a control-flow exception
(``KeyboardInterrupt``/``SystemExit``) answers its caller with an uncached
:class:`~repro.errors.TransportError` — the interrupt itself cannot cross
the wire, and a retransmission executes afresh.  At-most-once execution holds
across reconnects: a stale connection is retried only when the frame
provably never left this side; once a request is on the wire, a
connection failure surfaces as :class:`NodeUnreachableError` rather than
risking re-execution against a replaced node's fresh reply cache.  The
clock is real time by default.
"""

from __future__ import annotations

import dataclasses
import pickle
import socket
import struct
import threading
import time
from collections import deque

from repro.errors import (
    CallTimeoutError,
    ConfigurationError,
    MarshalError,
    NodeUnreachableError,
    RemoteInvocationError,
    TransportError,
)
from repro.net import codec, wirecodec
from repro.net.endpoint import PROTOCOL_VERSION, Endpoint, Hello
from repro.net.message import (
    BULK_KINDS,
    INLINE_KINDS,
    ONEWAY_KINDS,
    Message,
    MessageKind,
    ReplyPayload,
    build_message,
)
from repro.net.reactor import (
    Connection,
    DataPlaneStats,
    Listener,
    Reactor,
    _bucket,
)
from repro.net.trace import MessageTrace
from repro.net.transport import (
    DEFAULT_RETRY_BUDGET,
    CallFuture,
    MessageHandler,
    ReplyCache,
    Transport,
)
from repro.util.clock import Clock, WallClock

_LENGTH_PREFIX = struct.Struct(">I")
_MAX_FRAME = 64 * 1024 * 1024  # 64 MiB: a generous bound on one message

# The frame header is one 32-bit word: the top 3 bits carry the codec id
# (see repro.net.codec), the low 29 bits the on-wire body length.  Raw
# frames use codec id 0; compression is used only toward peers whose
# HELLO advertised the codec.
_CODEC_SHIFT = 29
_LENGTH_MASK = (1 << _CODEC_SHIFT) - 1

#: ``Hello.settings`` key advertising a server's same-host Unix-domain
#: listener: ``(advertise_host, port, uds_name)``.  A peer that cannot
#: use it (another host, no ``AF_UNIX``) simply dials TCP.
_UDS_SETTING = "uds"

#: Whether this platform offers Unix-domain stream sockets at all.  The
#: abstract namespace itself is probed per listener (bind may still fail
#: inside restricted sandboxes) — every failure degrades to TCP.
_UDS_SUPPORTED = hasattr(socket, "AF_UNIX")

#: Kinds the client-side auto-batcher never coalesces: bulk kinds carry
#: large zero-copy payloads and must keep their dedicated server pool;
#: one-way kinds have no reply to demultiplex; nested batches stay flat.
_UNBATCHABLE_KINDS = BULK_KINDS | ONEWAY_KINDS | frozenset({
    MessageKind.BATCH, MessageKind.AUTO_BATCH,
})

#: Consecutive over-budget inline dispatches before a server stops
#: dispatching inline for good (a misregistered slow handler must not
#: keep stalling the reactor loop).
_INLINE_DEMOTE_STRIKES = 8

#: How long a waiting caller gives the reply clock before forcing a
#: flush of the auto-batcher's queue (see ``_AutoBatcher.kick``).  Must
#: sit well above a *loaded* round trip (a deep pipeline's p99 is
#: several ms — a grace inside it would fire on every call and fragment
#: the very batches it guards), yet far below any reply-wait timeout a
#: caller could notice when the clock really is dead.
_BATCH_KICK_GRACE_S = 0.02


def _fail_sink(sink, error: Exception) -> None:
    """Fail a parked sink with ``error`` itself (not wrapped).

    ``sink.fail`` is the channel-teardown path and wraps everything in
    :class:`NodeUnreachableError`; encode failures and resolved
    unreachability want the raw error, which ``CallFuture._fail`` gives.
    """
    fail_raw = getattr(sink, "_fail", None)
    if fail_raw is not None:
        fail_raw(error)
    else:
        sink.fail(error)


def _estimate_nbytes(message: Message) -> int:
    """Cheap payload-size guess for the batch byte watermark.

    Never serializes: the watermark only decides how many frames ride one
    AUTO_BATCH envelope, so a flat estimate per payload shape is enough —
    blob-carrying invokes count their marshalled argument bytes, plain
    control payloads a fixed overhead.
    """
    payload = message.payload
    if payload is None:
        return 64
    t = payload.__class__
    if t is bytes or t is str:
        return 64 + len(payload)
    if t is int or t is float or t is bool:
        return 72
    blob = getattr(payload, "args_blob", None)
    if type(blob) is bytes:
        return 256 + len(blob)
    return 512


def _transmittable_error_payload(payload: ReplyPayload) -> ReplyPayload:
    """Guarantee an error reply survives the *unpickle* on the client side.

    Pickling an exception can succeed while unpickling fails — the default
    reduction replays ``self.args`` (the formatted message) into a
    constructor that may demand more arguments.  Such a frame would blow
    up in the client channel's reader loop and tear down the shared
    connection, failing every other in-flight waiter.  Our own error
    family defines ``__reduce__``; this guards *handler-raised* exception
    types we do not control by round-tripping once on the server and
    degrading to a :class:`~repro.errors.RemoteInvocationError` that
    carries the original type and message.
    """
    if not payload.is_error:
        # A BATCH reply nests sub-payloads; a failed sub needs the same
        # guard (the later subs never ran, so at most one is an error).
        # An AUTO_BATCH reply nests (sub_id, payload) pairs instead, and
        # *any* number of subs may have failed independently.
        value = payload.value
        if isinstance(value, tuple):
            if any(isinstance(sub, ReplyPayload) and sub.is_error
                   for sub in value):
                return ReplyPayload(value=tuple(
                    _transmittable_error_payload(sub)
                    if isinstance(sub, ReplyPayload) else sub
                    for sub in value
                ))
            if any(isinstance(sub, tuple) and len(sub) == 2
                   and isinstance(sub[1], ReplyPayload) and sub[1].is_error
                   for sub in value):
                return ReplyPayload(value=tuple(
                    (sub[0], _transmittable_error_payload(sub[1]))
                    if (isinstance(sub, tuple) and len(sub) == 2
                        and isinstance(sub[1], ReplyPayload))
                    else sub
                    for sub in value
                ))
        return payload
    try:
        pickle.loads(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        return payload
    except Exception:
        error = payload.error
        return ReplyPayload(
            error=RemoteInvocationError(
                f"remote raised {type(error).__name__} which cannot cross "
                f"the wire: {error}",
                remote_traceback=payload.remote_traceback,
            )
        )


def _encode_frame(message: Message,
                  codec_for=None) -> "bytes | list[bytes | memoryview]":
    """One wire-ready binary-envelope frame, compressing when negotiated.

    ``codec_for`` maps the serialized size to a codec id (``None`` keeps
    every frame raw).  A frame that :func:`codec.compress_frame`'s
    sampled probe judges incompressible, or that the codec fails to
    shrink, is sent raw — the header is self-describing, so the receiver
    never needs to know what the sender attempted.  Large blob fields
    come back from :func:`wirecodec.encode_envelope` as a buffer *list*
    (head + zero-copy segments) that the reactor writes with one gather
    syscall; small frames are one contiguous ``bytes``.
    """
    try:
        parts = wirecodec.encode_envelope(message)
    except Exception as exc:
        raise MarshalError(
            f"cannot encode {message.describe()}: {exc}") from exc
    if len(parts) == 1:
        nbytes = len(parts[0])
    else:
        nbytes = sum(len(part) for part in parts)
    if nbytes > _MAX_FRAME:
        raise MarshalError(f"message too large: {nbytes} bytes")
    ident = codec.RAW if codec_for is None else codec_for(nbytes)
    if ident != codec.RAW:
        body = codec.compress_frame(ident, parts, nbytes)
        if body is not None:  # compression beats raw (and zero-copy)
            return _LENGTH_PREFIX.pack(
                len(body) | (ident << _CODEC_SHIFT)) + body
    head = _LENGTH_PREFIX.pack(nbytes)
    first = parts[0]
    if len(parts) == 1:
        return head + first
    if isinstance(first, bytes):
        return [head + first, *parts[1:]]
    return [head, *parts]


def _frame_nbytes(wire: "bytes | list[bytes | memoryview]") -> int:
    """On-wire size of one encoded frame (header included)."""
    if isinstance(wire, bytes):
        return len(wire)
    return sum(len(part) for part in wire)


def _decode_frame(ident: int, body: bytes) -> Message:
    """Decompress + decode one post-HELLO frame: a binary envelope only.

    Anything else — a pickle stream, a second HELLO — is a protocol
    violation; the :class:`MarshalError` makes the reactor close that one
    connection without unpickling a byte of it.
    """
    blob = codec.decode(ident, body, _MAX_FRAME)
    if not blob or blob[0] != wirecodec.MAGIC:
        raise MarshalError(
            "expected a binary envelope, got a frame opening with "
            f"{bytes(blob[:1])!r}"
        )
    return wirecodec.decode_envelope(blob)


def _encode_hello(hello: Hello) -> bytes:
    """One HELLO frame (always raw: codecs are not yet negotiated)."""
    blob = pickle.dumps(hello, protocol=pickle.HIGHEST_PROTOCOL)
    return _LENGTH_PREFIX.pack(len(blob)) + blob


def _decode_hello(ident: int, body: bytes) -> Hello:
    """Decode a connection's first frame, which must be a HELLO.

    This is the one frame per connection that is unpickled.  A binary
    envelope, an undecodable blob, or a pickle of anything but a
    well-formed :class:`Hello` raises :class:`MarshalError`.
    """
    blob = codec.decode(ident, body, _MAX_FRAME)
    if blob and blob[0] == wirecodec.MAGIC:
        raise MarshalError("expected a HELLO, got a message envelope")
    try:
        hello = pickle.loads(blob)
    except Exception as exc:
        raise MarshalError(f"undecodable HELLO frame: {exc}") from exc
    if not (isinstance(hello, Hello) and isinstance(hello.node_id, str)
            and isinstance(hello.codecs, (tuple, list))
            and isinstance(hello.settings, dict)):
        raise MarshalError(f"expected a HELLO, got {type(hello).__name__}")
    return hello


def _recv_exact(sock: socket.socket, n: int, deadline: float) -> bytes:
    """Read exactly ``n`` bytes before the monotonic ``deadline``."""
    chunks = []
    remaining = n
    while remaining > 0:
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("timed out")
        sock.settimeout(timeout)
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_hello(sock: socket.socket, deadline: float) -> Hello:
    """Read the server's HELLO off a freshly dialled blocking socket."""
    (word,) = _LENGTH_PREFIX.unpack(
        _recv_exact(sock, _LENGTH_PREFIX.size, deadline))
    length = word & _LENGTH_MASK
    if length > _MAX_FRAME:
        raise MarshalError(f"incoming frame too large: {length} bytes")
    return _decode_hello(word >> _CODEC_SHIFT,
                         _recv_exact(sock, length, deadline))


class _ChannelClosedError(ConnectionError):
    """The channel died before this frame was written (safe to retry)."""


#: Stripe count for a channel's pending-waiter table.  Eight uncontended
#: locks cover the realistic caller fan-in per destination; message-id
#: hashes spread uniformly (they embed a process-wide counter).
_WAITER_SHARDS = 8


class _WaiterShard:
    """One stripe of a channel's ``msg_id -> FIFO of waiters`` table.

    A retransmission can put two frames of one id in flight; each
    incoming reply resolves the oldest waiter.  The ``closed`` flag
    lives *inside* the shard lock so :meth:`park` and channel teardown
    serialize: a sink either parks before the drain (and is failed by
    it) or observes the closed flag — it can never be parked and then
    silently forgotten.
    """

    __slots__ = ("_lock", "_waiters", "_closed")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._waiters: dict[str, deque] = {}
        self._closed = False

    def park(self, msg_id: str, sink) -> bool:
        """Append ``sink``; False when the channel already closed."""
        with self._lock:
            if self._closed:
                return False
            self._waiters.setdefault(msg_id, deque()).append(sink)
        return True

    def pop(self, msg_id: str):
        """The oldest waiter parked under ``msg_id`` (None when absent)."""
        with self._lock:
            waiters = self._waiters.get(msg_id)
            if not waiters:
                return None
            sink = waiters.popleft()
            if not waiters:
                del self._waiters[msg_id]
        return sink

    def discard(self, msg_id: str, sink) -> None:
        with self._lock:
            waiters = self._waiters.get(msg_id)
            if waiters is None:
                return
            try:
                waiters.remove(sink)
            except ValueError:
                pass  # already resolved and popped
            if not waiters:
                del self._waiters[msg_id]

    def close_and_drain(self) -> list:
        """Refuse future parks and return everything parked; idempotent
        (a second drain returns empty)."""
        with self._lock:
            self._closed = True
            drained = [w for waiters in self._waiters.values() for w in waiters]
            self._waiters.clear()
        return drained


class _Channel:
    """One persistent client connection to a destination node.

    The socket lives on the shared reactor: submission encodes the frame
    and enqueues it on the connection's write queue (no send lock, no
    blocking), and the reactor's frame callback demultiplexes reply
    frames to parked callers by ``reply_to_id``.  The waiter table is
    striped by message-id hash so concurrent pipelined callers do not
    serialize on one mutex.  The HELLO exchange has already happened
    when a channel is built.
    """

    def __init__(self, dst: str, sock: socket.socket, reactor: Reactor,
                 negotiated_codecs: tuple[str, ...], codec_for=None) -> None:
        self.dst = dst
        #: The frame codecs the peer's HELLO said it decodes.
        self.negotiated_codecs = negotiated_codecs
        self._codec_for = codec_for
        #: The transport attaches a :class:`_AutoBatcher` right after
        #: construction when auto-batching is enabled.
        self._batcher: "_AutoBatcher | None" = None
        #: batch msg_id -> its sub-call msg_ids, so a *whole-batch* error
        #: reply (server-side control-flow abort) can fail every sub
        #: sink.  Entries are removed when the aggregated reply arrives.
        self._batch_lock = threading.Lock()
        self._batch_subs: dict[str, tuple[str, ...]] = {}
        self._shards = tuple(_WaiterShard() for _ in range(_WAITER_SHARDS))
        self._closed = False
        self._conn: Connection = reactor.add_connection(
            sock, self._on_frame, self._on_closed
        )

    def _shard(self, msg_id: str) -> _WaiterShard:
        return self._shards[hash(msg_id) % _WAITER_SHARDS]

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, message: Message, sink) -> None:
        """Park ``sink`` for the reply and enqueue the frame; never waits.

        ``sink`` is anything with ``resolve(reply)`` / ``fail(error)`` —
        in practice a :class:`_PipelinedCallFuture`.
        ``resolve`` runs on the reactor loop, ``fail`` on whichever thread
        closes the channel; neither may block.

        Encoding happens *before* parking: a :class:`MarshalError` leaves
        the channel healthy with nothing parked, while a
        :class:`_ChannelClosedError` means the frame provably never
        reached the write queue (safe to retry on a fresh channel).
        """
        wire = _encode_frame(message, self._codec_for)
        shard = self._shard(message.msg_id)
        if not shard.park(message.msg_id, sink):
            raise _ChannelClosedError(f"channel to {self.dst!r} is closed")
        try:
            self._conn.send(wire)
        except ConnectionError as exc:
            shard.discard(message.msg_id, sink)
            self.close()
            raise _ChannelClosedError(
                f"send to {self.dst!r} failed: {exc}"
            ) from exc

    def submit_auto(self, message: Message, sink) -> None:
        """:meth:`submit` through the transparent auto-batcher.

        Routes to the coalescing layer only when the channel has one and
        the kind is batchable; every other frame takes the plain path
        unchanged.
        """
        batcher = self._batcher
        if batcher is None or message.kind in _UNBATCHABLE_KINDS:
            self.submit(message, sink)
            return
        batcher.submit(message, sink)

    def submit_batch(self, items: "list[tuple[Message, object]]") -> None:
        """Coalesce several submissions into one AUTO_BATCH frame.

        Same contract as :meth:`submit`, for N frames at once: the batch
        envelope is encoded *before* any sink parks (a
        :class:`MarshalError` leaves the channel clean), each sink parks
        under its own sub message id, and a send failure discards them
        all and raises :class:`_ChannelClosedError` — the whole group
        provably never left, so the caller may re-route every item.
        """
        subs = tuple(message for message, _sink in items)
        batch = build_message(
            MessageKind.AUTO_BATCH, subs[0].src, subs[0].dst, subs
        )
        wire = _encode_frame(batch, self._codec_for)
        parked: list[tuple[Message, object]] = []
        for message, sink in items:
            if not self._shard(message.msg_id).park(message.msg_id, sink):
                for pm, psink in parked:
                    self._discard_waiter(pm.msg_id, psink)
                raise _ChannelClosedError(
                    f"channel to {self.dst!r} is closed"
                )
            parked.append((message, sink))
        with self._batch_lock:
            self._batch_subs[batch.msg_id] = tuple(s.msg_id for s in subs)
        try:
            self._conn.send(wire)
        except ConnectionError as exc:
            with self._batch_lock:
                self._batch_subs.pop(batch.msg_id, None)
            for message, sink in items:
                self._discard_waiter(message.msg_id, sink)
            self.close()
            raise _ChannelClosedError(
                f"send to {self.dst!r} failed: {exc}"
            ) from exc

    def _discard_waiter(self, msg_id: str, waiter) -> None:
        self._shard(msg_id).discard(msg_id, waiter)

    def send_oneway(self, message: Message) -> None:
        wire = _encode_frame(message, self._codec_for)
        try:
            self._conn.send(wire)
        except ConnectionError as exc:
            self.close()
            raise _ChannelClosedError(
                f"send to {self.dst!r} failed: {exc}"
            ) from exc

    def queued_bytes(self) -> int:
        """Bytes waiting in this channel's write queue (diagnostics)."""
        return self._conn.queued_bytes()

    # -- reactor callbacks (loop thread; must not block) ----------------------

    def _on_frame(self, ident: int, body: bytes, wire_bytes: int) -> None:
        # A decode failure propagates: the reactor tears the connection
        # down with it, and _on_closed fails every waiter.
        reply = _decode_frame(ident, body)
        if reply.in_reply_to is MessageKind.AUTO_BATCH:
            self._on_batch_reply(reply)
        else:
            sink = self._shard(reply.reply_to_id).pop(reply.reply_to_id)
            if sink is not None:
                sink.resolve(reply)
            # An unmatched reply (its caller timed out and left) is dropped.
        batcher = self._batcher
        if batcher is not None:
            # Tick the reply clock *after* resolving: callers wake first,
            # then the queue that accumulated behind this round trip
            # flushes as the next aggregate.
            batcher.note_reply()

    def _on_batch_reply(self, reply: Message) -> None:
        """Demultiplex one aggregated reply to its parked sub-call sinks.

        The payload value is a tuple of ``(sub_msg_id, ReplyPayload)``
        pairs; each resolves its own waiter with a synthesized per-sub
        REPLY so callers observe exactly what N individual replies would
        have delivered.  A *whole-batch* error (the aggregate itself
        failed server-side before any sub ran to completion — e.g. a
        control-flow abort) fails every recorded sub sink instead.
        """
        with self._batch_lock:
            sub_ids = self._batch_subs.pop(reply.reply_to_id, ())
        payload = reply.payload
        if isinstance(payload, ReplyPayload) and payload.is_error:
            for sub_id in sub_ids:
                sink = self._shard(sub_id).pop(sub_id)
                if sink is not None:
                    sink.resolve(self._sub_reply(reply, sub_id, payload))
            return
        pairs = payload.value if isinstance(payload, ReplyPayload) else ()
        for sub_id, sub_payload in pairs:
            sink = self._shard(sub_id).pop(sub_id)
            if sink is not None:
                sink.resolve(self._sub_reply(reply, sub_id, sub_payload))

    @staticmethod
    def _sub_reply(aggregate: Message, sub_id: str,
                   payload: ReplyPayload) -> Message:
        """Synthesize the REPLY a sub-call would have received alone.

        The derived id ``<sub>-r`` is what :meth:`Message.reply` would
        have produced for the sub request, and is distinct from the
        aggregate's own ``<batch>-r`` — reply ids stay unique per
        sub-call under aggregation.
        """
        message = Message.__new__(Message)
        message.__dict__.update(
            kind=MessageKind.REPLY,
            src=aggregate.src,
            dst=aggregate.dst,
            payload=payload,
            msg_id=f"{sub_id}-r",
            in_reply_to=None,
            reply_to_id=sub_id,
            deadline=None,
        )
        return message

    def _on_closed(self, reason: Exception | None) -> None:
        self._closed = True
        self._fail_waiters(reason)

    def close(self, reason: Exception | None = None,
              rescue: bool = True) -> None:
        """Sever the connection and fail every parked waiter; idempotent.

        Waiters are failed *synchronously* — the reactor's own teardown
        notification follows asynchronously but finds the shards already
        drained, so no waiter can be left parked behind a dead socket.

        ``rescue=False`` additionally *fails* the auto-batcher's queued
        frames instead of re-routing them: a peer being deliberately
        forgotten must not be redialed by its own teardown (the rescue
        path would resurrect a fresh channel to the node membership just
        declared dead).
        """
        self._closed = True
        self._fail_waiters(reason, rescue=rescue)
        self._conn.close(graceful=False)

    def _fail_waiters(self, reason: Exception | None,
                      rescue: bool = True) -> None:
        if reason is None:
            reason = ConnectionError(f"channel to {self.dst!r} closed")
        with self._batch_lock:
            self._batch_subs.clear()
        for shard in self._shards:
            for waiter in shard.close_and_drain():
                waiter.fail(reason)
        batcher = self._batcher
        if batcher is None:
            return
        if rescue:
            # Queued-but-unsent frames provably never left: re-route them
            # instead of failing them (the parked waiters above were all
            # on the wire; these were not).
            batcher.on_channel_closed()
        else:
            batcher.fail_queued(reason)


class _CallPathMetrics:
    """Counters for the auto-batching / inline-dispatch call path.

    One instance per transport, shared by every channel's batcher
    (client side) and every node server's inline fast path (server
    side); :meth:`merge_into` folds the counters into the reactor's
    :class:`~repro.net.reactor.DataPlaneStats` snapshot so
    ``data_plane_metrics()`` stays one call.
    """

    __slots__ = ("_lock", "auto_batches", "auto_batched_msgs",
                 "auto_batch_per_frame", "inline_dispatches",
                 "inline_overruns", "inline_demotions")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.auto_batches = 0
        self.auto_batched_msgs = 0
        self.auto_batch_per_frame: dict[int, int] = {}
        self.inline_dispatches = 0
        self.inline_overruns = 0
        self.inline_demotions = 0

    def record_batch(self, n: int) -> None:
        bucket = _bucket(n)
        with self._lock:
            self.auto_batches += 1
            self.auto_batched_msgs += n
            histogram = self.auto_batch_per_frame
            histogram[bucket] = histogram.get(bucket, 0) + 1

    def record_inline(self) -> None:
        with self._lock:
            self.inline_dispatches += 1

    def record_overrun(self, demoted: bool) -> None:
        with self._lock:
            self.inline_overruns += 1
            if demoted:
                self.inline_demotions += 1

    def merge_into(self, stats: DataPlaneStats) -> DataPlaneStats:
        with self._lock:
            return dataclasses.replace(
                stats,
                auto_batches=stats.auto_batches + self.auto_batches,
                auto_batched_msgs=(
                    stats.auto_batched_msgs + self.auto_batched_msgs),
                auto_batch_per_frame=dict(self.auto_batch_per_frame),
                inline_dispatches=(
                    stats.inline_dispatches + self.inline_dispatches),
                inline_overruns=stats.inline_overruns + self.inline_overruns,
                inline_demotions=(
                    stats.inline_demotions + self.inline_demotions),
            )


class _AutoBatcher:
    """Transparent invoke coalescing on one pipelined channel.

    The PR 7 reactor coalesces queued *bytes* into one syscall; this
    layer coalesces queued *calls* into one frame, one server-side
    dispatch, and one aggregated reply — amortizing the per-message
    Python overhead that dominates once the wire itself is cheap.

    Discipline mirrors the reactor's flush coalescer, one layer up, with
    a reply-clocked twist borrowed from Nagle's algorithm: a submission
    on an *idle* channel (nothing batcher-sent awaiting its reply) is
    sent immediately on the submitting thread — **a lone call is never
    delayed** (no timers, no waiting for company).  While a frame *is*
    in flight, new submissions merely enqueue; every arriving reply
    flushes whatever accumulated as one AUTO_BATCH frame.  The flush
    clock is thus the round-trip itself: group size adapts to exactly
    how many callers submitted during one server turnaround, with zero
    added latency on an idle channel and no timer anywhere.  (If the
    clock dies — the in-flight exchange hangs past its caller's
    patience — waiting futures force a flush after a short grace:
    :meth:`kick`.)  A group is capped by ``batch_max_msgs`` /
    ``batch_max_bytes`` and always holds at least one call; a group of
    one is sent as a plain frame and never pays the aggregation
    envelope.

    Error discipline: nothing raises to the drainer, because the
    drainer is usually *not* the caller whose frame failed.  A dead
    channel strands frames that provably never left; they — and
    everything still queued — are re-routed through a fresh channel by
    the transport (asynchronously: a drain may run on the reactor loop
    thread, which must never dial).  An unmarshallable payload fails
    only its own sink: the aggregate encode falls back to per-item
    sends so one poisoned call cannot error its siblings.
    """

    __slots__ = ("_channel", "_transport", "_max_msgs", "_max_bytes",
                 "_metrics", "_lock", "_queue", "_active", "_inflight")

    def __init__(self, channel: _Channel, transport: "TcpNetwork",
                 max_msgs: int, max_bytes: int,
                 metrics: _CallPathMetrics) -> None:
        self._channel = channel
        self._transport = transport
        self._max_msgs = max_msgs
        self._max_bytes = max_bytes
        self._metrics = metrics
        self._lock = threading.Lock()
        self._queue: "deque[tuple[Message, object]]" = deque()
        self._active = False
        #: Batcher-sent frames whose replies have not yet arrived — the
        #: Nagle-style gate: > 0 means the reply clock is running and
        #: submissions may coalesce behind it.
        self._inflight = 0

    def submit(self, message: Message, sink) -> None:
        with self._lock:
            self._queue.append((message, sink))
            if self._active:
                return  # the running drain sweeps this item up
            if self._inflight > 0:
                return  # reply-clocked: the next arriving reply flushes
            self._active = True
        self._drain()

    def note_reply(self) -> None:
        """A reply frame arrived (loop thread): tick the flush clock.

        Every incoming reply decrements the in-flight gate and flushes
        the accumulated queue.  Replies to frames the batcher never sent
        (``call_many`` BATCH exchanges, pre-batcher traffic) may tick it
        early — harmless: an early flush only makes a smaller group.
        """
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1
            if self._active or not self._queue:
                return
            self._active = True
        self._drain()

    def kick(self) -> None:
        """Force a flush now (a waiting caller's stall safety valve)."""
        with self._lock:
            if self._active or not self._queue:
                return
            self._active = True
        self._drain()

    def _drain(self) -> None:
        while True:
            with self._lock:
                if not self._queue:
                    # Emptiness check and leadership handoff under one
                    # lock hold: a submitter that appends right after
                    # this sees ``_active`` False and leads itself.
                    self._active = False
                    return
                group = [self._queue.popleft()]
                nbytes = _estimate_nbytes(group[0][0])
                while (self._queue and len(group) < self._max_msgs
                       and nbytes < self._max_bytes):
                    item = self._queue.popleft()
                    group.append(item)
                    nbytes += _estimate_nbytes(item[0])
            if not self._send_group(group):
                return  # channel died; leadership already released

    def _send_group(self, group: "list[tuple[Message, object]]") -> bool:
        # The in-flight gate rises *before* the send: the reply can race
        # a post-send increment on the loop thread, and a tick lost that
        # way would leave the gate stuck high — every later call would
        # then stall into the kick grace.  Failure paths lower it again.
        if len(group) == 1:
            message, sink = group[0]
            self._note_sent()
            try:
                self._channel.submit(message, sink)
            except _ChannelClosedError:
                self._rescue(group)
                return False
            except Exception as exc:  # MarshalError while pickling
                self._note_unsent()
                _fail_sink(sink, exc)
            return True
        self._note_sent()
        try:
            self._channel.submit_batch(group)
        except _ChannelClosedError:
            self._rescue(group)
            return False
        except Exception:
            # The aggregate failed to encode; isolate the poisoned
            # payload by sending each call on its own frame.
            self._note_unsent()
            return self._submit_singly(group)
        self._metrics.record_batch(len(group))
        return True

    def _submit_singly(self, group: "list[tuple[Message, object]]") -> bool:
        for index, (message, sink) in enumerate(group):
            self._note_sent()
            try:
                self._channel.submit(message, sink)
            except _ChannelClosedError:
                self._note_unsent()
                self._rescue(group[index:])
                return False
            except Exception as exc:
                self._note_unsent()
                _fail_sink(sink, exc)
        return True

    def _note_sent(self) -> None:
        with self._lock:
            self._inflight += 1

    def _note_unsent(self) -> None:
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1

    def _rescue(self, items: "list[tuple[Message, object]]") -> None:
        """The channel died with ``items`` provably unsent.

        Hand them — and everything still queued behind them — back to
        the transport for asynchronous re-submission on a fresh channel
        (a drain may be running on the reactor loop thread, which must
        never dial a socket), and release the drain so this (dead)
        batcher goes quiet.
        """
        with self._lock:
            stranded = list(items)
            stranded.extend(self._queue)
            self._queue.clear()
            self._active = False
        self._transport._rescue_async(stranded)

    def on_channel_closed(self) -> None:
        """Channel teardown: re-route whatever never reached the wire."""
        with self._lock:
            if not self._queue:
                return
            stranded = list(self._queue)
            self._queue.clear()
        self._transport._rescue_async(stranded)

    def fail_queued(self, reason: Exception | None) -> None:
        """Deliberate teardown (peer forgotten): fail the queue, no rescue.

        The rescue path would dial the forgotten peer right back —
        resurrecting a channel membership just severed — so an eviction
        fails queued frames instead, and resets the reply clock so a
        later re-join starts the batcher from its idle state.
        """
        if reason is None:
            reason = ConnectionError(
                f"channel to {self._channel.dst!r} closed"
            )
        with self._lock:
            stranded = list(self._queue)
            self._queue.clear()
            self._active = False
            self._inflight = 0
        for _message, sink in stranded:
            # The teardown surface parked waiters see: wrapped in
            # NodeUnreachableError by the sink itself.
            sink.fail(reason)


class _PipelinedCallFuture(CallFuture):
    """A call future resolved by a pipelined channel's reactor callback.

    Doubles as the channel's parked sink: the reactor loop calls
    :meth:`resolve` with the matched reply frame, channel teardown calls
    :meth:`fail`.  ``result()``/``exception()`` default their timeout to
    the transport's io timeout *measured from submission* — a sweep that
    gathers N futures sequentially pays at most one io-timeout window in
    total, not one per hung host, because every future's clock has been
    running since its frame was sent.  (An explicit ``timeout_s`` stays
    relative to the ``result()`` call.)  An expired wait *abandons* the
    exchange — the pending slot is
    released (a late reply is dropped by the reader) and the future fails
    permanently with :class:`~repro.errors.CallTimeoutError`.
    """

    def __init__(self, message: Message, batch: bool, timeout_s: float,
                 transport: "TcpNetwork | None" = None) -> None:
        super().__init__(message.describe)
        self._message = message
        self._batch = batch
        self._timeout_s = timeout_s
        self._submitted = time.monotonic()
        self._channel: _Channel | None = None
        self._transport = transport

    # -- sink protocol (called by the channel) --------------------------------

    def resolve(self, reply: Message) -> None:
        if self._transport is not None:
            # Submission-to-reply latency feeds the per-link EWMA that
            # ranks hedge candidates; recorded before completion so a
            # collector that reacts to this future sees fresh numbers.
            self._transport.note_link_latency(
                self._message.dst, time.monotonic() - self._submitted
            )
        self._complete_from_reply(reply, self._batch)

    def fail(self, error: Exception) -> None:
        # The frame was already on the wire, so the handler may have
        # executed; surfacing unreachability (instead of retrying into a
        # replaced node's fresh reply cache) preserves at-most-once.
        wrapped = NodeUnreachableError(
            self._message.dst, f"connection lost awaiting reply: {error}"
        )
        wrapped.__cause__ = error
        self._fail(wrapped)

    # -- waiting --------------------------------------------------------------

    def _await(self, timeout_s: float | None) -> None:
        if timeout_s is None:
            # The default wait is the remainder of the submission-anchored
            # io window, capped by the call's end-to-end budget — a 200 ms
            # deadline never waits out a 30 s io timeout.
            timeout_s = self._wait_bound_s()
        channel = self._channel
        if (channel is not None and channel._batcher is not None
                and not self._event.is_set()):
            # Stall safety valve for the reply-clocked batcher: this
            # frame may still sit queued behind an in-flight exchange
            # whose reply never comes (a hung handler, an abandoned
            # sibling).  After a short grace, force the flush so a
            # queued frame can never outwait a dead clock.  Replies on
            # a healthy channel arrive well inside the grace, so the
            # kick is a no-op on the fast path.
            grace = (_BATCH_KICK_GRACE_S if timeout_s is None
                     else min(_BATCH_KICK_GRACE_S, timeout_s))
            if self._event.wait(grace):
                return
            channel._batcher.kick()
            if timeout_s is not None:
                timeout_s = max(0.0, timeout_s - grace)
        super()._await(timeout_s)

    def _on_wait_timeout(self, timeout_s: float | None) -> None:
        self._abandon()
        # First-wins: a reply racing this timeout may still resolve us.
        self._fail(CallTimeoutError(
            f"{self._message.describe()}: no reply within {timeout_s}s"
        ))

    def _abandon(self) -> None:
        """Release the pending reply slot (timeout and cancel share this):
        the reader drops the late reply; other waiters are untouched."""
        channel = self._channel
        if channel is not None:
            channel._discard_waiter(self._message.msg_id, self)

    def _wait_bound_s(self) -> float | None:
        elapsed = time.monotonic() - self._submitted
        bound = max(0.0, self._timeout_s - elapsed)
        deadline = self._message.deadline
        if deadline is not None:
            bound = min(bound, deadline.remaining_s())
        return bound


class _WorkerPool:
    """Bounded pool of reusable dispatch workers, with overflow drainers.

    Up to ``max_workers`` resident threads execute submitted jobs; when
    every resident is busy, temporary *drainer* threads pick up the
    slack: a handler blocked on a nested call (a move's OBJECT_TRANSFER,
    a find's chain walk) may need this pool to dispatch the very request
    it is waiting on, so a strictly bounded queue could deadlock the
    whole transport.

    Wakeups follow a baton discipline built on one invariant: whenever
    the queue is non-empty, at least one *armed* agent — a notified idle
    worker, or a freshly spawned resident/drainer — is en route to a pop,
    and every pop re-arms a successor while jobs remain.  A burst of fast
    jobs therefore drains on a couple of context switches instead of one
    wakeup per job, while a burst of blocking handlers still fans out to
    one thread each (the old thread-per-overflow behaviour, reached
    incrementally).
    """

    def __init__(self, max_workers: int, name: str) -> None:
        if max_workers <= 0:
            raise ConfigurationError("worker pool needs at least one worker")
        self._max = max_workers
        self._name = name
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._jobs: deque = deque()
        self._idle = 0
        self._stirred = 0  # armed agents en route to their first pop
        self._resident = 0
        self._closed = False

    def submit(self, fn, *args) -> None:
        with self._lock:
            if self._closed:
                return
            self._jobs.append((fn, args))
            self._arm_locked()

    def _arm_locked(self) -> None:
        """Ensure one agent is on its way to pop; callers hold the lock."""
        if self._stirred > 0:
            return
        self._stirred = 1
        if self._idle > 0:
            self._wakeup.notify()
            return
        if self._resident < self._max:
            self._resident += 1
            target, name = self._worker_loop, f"{self._name}-worker-{self._resident}"
        else:
            target, name = self._overflow_drain, f"{self._name}-overflow"
        threading.Thread(target=target, name=name, daemon=True).start()

    @staticmethod
    def _run_job(fn, args) -> None:
        try:
            fn(*args)
        except Exception:
            pass  # dispatch failures are the connection's problem

    def _worker_loop(self) -> None:
        first = True
        while True:
            with self._lock:
                if first:
                    # Spawned armed (see _arm_locked): consume the arm.
                    first = False
                    if self._stirred:
                        self._stirred -= 1
                while not self._jobs and not self._closed:
                    self._idle += 1
                    self._wakeup.wait()
                    self._idle -= 1
                    # A wake consumes an arm; a spurious wake merely
                    # under-counts, which costs an extra wakeup later,
                    # never a stranded job.
                    if self._stirred:
                        self._stirred -= 1
                if self._closed:
                    self._resident -= 1
                    return
                fn, args = self._jobs.popleft()
                if self._jobs:
                    # Re-arm BEFORE running: if our job blocks, the
                    # successor keeps the queue draining.
                    self._arm_locked()
            self._run_job(fn, args)

    def _overflow_drain(self) -> None:
        """A temporary worker: drains jobs until the queue goes empty."""
        with self._lock:
            if self._stirred:
                self._stirred -= 1
            if self._closed or not self._jobs:
                return
            fn, args = self._jobs.popleft()
            if self._jobs:
                self._arm_locked()
        while True:
            self._run_job(fn, args)
            with self._lock:
                if self._closed or not self._jobs:
                    return
                fn, args = self._jobs.popleft()
                if self._jobs:
                    self._arm_locked()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._jobs.clear()
            self._wakeup.notify_all()


class _ServerConn:
    """Reactor-side state for one accepted server connection."""

    __slots__ = ("conn", "hello", "refused", "codec_for", "same_host")

    def __init__(self) -> None:
        self.conn: Connection | None = None
        #: The peer's HELLO; ``None`` until the first frame arrives.
        self.hello: Hello | None = None
        #: The peer's HELLO named another version or wire digest: the
        #: connection is closing and nothing it sends is dispatched.
        self.refused = False
        #: Reply compression per the peer's HELLO codec advertisement.
        self.codec_for = None
        #: The connection arrived over the Unix-domain listener, so the
        #: peer is provably on this machine: replies skip compression
        #: (it exists to save network bandwidth, which a same-host
        #: socket does not consume — the zlib pass is pure CPU cost).
        self.same_host = False


class _NodeServer:
    """Listener for one node: reactor-delivered frames feed the pools.

    The listening socket and every accepted connection live on the
    shared reactor; the frame callback (loop thread) does only cheap
    work — decode, trace, route — and hands handler execution to a
    worker pool.  Request kinds split across two pools: *bulk* kinds
    (streamed migration frames, whose handlers do staging writes and
    marshalled-state applies) run on a dedicated background pool so they
    can never queue behind — or starve — latency-sensitive calls.
    Replies are enqueued on the connection's coalescing write queue; no
    per-connection thread or write lock exists anymore.

    A connection's first frame must be the client's :class:`Hello`; the
    server answers with its own, records the peer's codec advertisement
    for that connection's replies, and only then dispatches requests.
    A HELLO naming another protocol version or wire digest gets this
    server's HELLO back (so the client can report the mismatch) and a
    graceful close; nothing that connection sends is dispatched.
    """

    def __init__(self, node_id: str, handler: MessageHandler, trace: MessageTrace,
                 clock: Clock, pool: _WorkerPool, bulk_pool: _WorkerPool,
                 reactor: Reactor,
                 latency_s: float = 0.0,
                 bytes_per_s: float | None = None,
                 bind_host: str = "127.0.0.1",
                 port: int = 0,
                 codec_for_advertised=None,
                 inline_dispatch: bool = True,
                 inline_budget_s: float = 0.001,
                 call_metrics: "_CallPathMetrics | None" = None,
                 uds: bool = False,
                 advertise_host: str = "127.0.0.1") -> None:
        self.node_id = node_id
        self.handler = handler
        self.reply_cache = ReplyCache(shards=8)
        self._trace = trace
        self._clock = clock
        self._pool = pool
        self._bulk_pool = bulk_pool
        self._reactor = reactor
        self._latency_s = latency_s
        self._bytes_per_s = bytes_per_s
        self._codec_for_advertised = codec_for_advertised
        #: Inline dispatch runs INLINE_KINDS handlers straight on the
        #: reactor loop thread — only when the handler itself declared
        #: those kinds non-blocking (:func:`~repro.net.message.inline_safe`)
        #: and no emulated link latency is charged (the sleep would stall
        #: the loop for everyone).
        declared = frozenset(getattr(handler, "inline_kinds", ()))
        self._inline_kinds = (
            declared & INLINE_KINDS
            if inline_dispatch and latency_s == 0.0 else frozenset()
        )
        self._inline_budget_s = inline_budget_s
        self._inline_strikes = 0     # loop thread only
        self._inline_demoted = False
        self._call_metrics = call_metrics
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((bind_host, port))
        except OSError as exc:
            self._sock.close()
            raise ConfigurationError(
                f"cannot bind node {node_id!r} to {bind_host}:{port}: {exc}"
            ) from exc
        self._sock.listen(64)
        self.port = self._sock.getsockname()[1]
        self._advertise_host = advertise_host
        self._closing = False
        self._conn_lock = threading.Lock()
        self._conns: set[_ServerConn] = set()
        self._listener: Listener = reactor.add_listener(
            self._sock, self._on_accept
        )
        #: Abstract Unix-domain companion listener (same-host tier 2).
        #: The name is advertised (without the leading NUL) through this
        #: server's HELLO and the membership roster; a bind failure —
        #: no AF_UNIX, no abstract namespace in this sandbox — leaves
        #: ``uds_name`` empty and the node TCP-only, never broken.
        self.uds_name = ""
        self._uds_listener: Listener | None = None
        if uds and _UDS_SUPPORTED:
            name = f"mage-{self.port}-{node_id}"
            usock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                usock.bind("\0" + name)
                usock.listen(64)
            except OSError:
                usock.close()
            else:
                self.uds_name = name
                self._uds_listener = reactor.add_listener(
                    usock, self._on_accept
                )

    def _on_accept(self, sock: socket.socket) -> None:
        state = _ServerConn()
        if _UDS_SUPPORTED and sock.family == socket.AF_UNIX:
            state.same_host = True
        conn = self._reactor.add_connection(
            sock,
            lambda ident, body, wire: self._on_frame(state, ident, body, wire),
            lambda reason: self._on_conn_closed(state),
            bytes_per_s=self._bytes_per_s,
        )
        state.conn = conn
        with self._conn_lock:
            closing = self._closing
            if not closing:
                self._conns.add(state)
        if closing:
            conn.close(graceful=False)

    def _on_frame(self, state: _ServerConn, ident: int, body: bytes,
                  wire_bytes: int) -> None:
        # Loop thread: decode, trace, route — never execute handlers.
        # A decode failure propagates and the reactor closes this one
        # connection.
        # (Link *bandwidth* is already charged: the reactor defers frame
        # delivery by wire_bytes/rate, serializing per connection like a
        # physical link; dispatch *latency* stays on the workers —
        # propagation delay and transmission time are independent.)
        if state.hello is None:
            self._on_hello(state, _decode_hello(ident, body))
            return
        if state.refused:
            return  # closing after a mismatched HELLO: dispatch nothing
        frame = _decode_frame(ident, body)
        # The reactor measured the frame; thread that through so the
        # trace never pays a second serialization to size the payload.
        self._trace.record(frame, self._clock.now_ms(), nbytes=wire_bytes)
        if self._inline_kinds and not self._inline_demoted \
                and self._inline_eligible(frame):
            self._dispatch_inline(state, frame)
            return
        if frame.kind is MessageKind.AUTO_BATCH \
                and isinstance(frame.payload, tuple) and frame.payload:
            self._pool.submit(self._dispatch_batch, state, frame)
            return
        pool = self._bulk_pool if frame.kind in BULK_KINDS else self._pool
        pool.submit(self._dispatch, state, frame)

    def _on_hello(self, state: _ServerConn, hello: Hello) -> None:
        """Answer a connection-opening HELLO (loop thread).

        The answer goes out even to a mismatched peer — a foreign build
        learns from it why it is refused — and the connection is then
        closed gracefully, so the answer is flushed before the socket
        goes.
        """
        state.hello = hello
        settings: dict = {wirecodec.WIRE_SETTING: (wirecodec.WIRE_FORMAT,)}
        if self.uds_name:
            # Same-host facet: peers whose advertised host matches dial
            # the Unix socket instead of TCP.
            settings[_UDS_SETTING] = (
                self._advertise_host, self.port, self.uds_name
            )
        reply = Hello(version=PROTOCOL_VERSION, node_id=self.node_id,
                      codecs=codec.available_codecs(), settings=settings)
        try:
            state.conn.send(_encode_hello(reply))
        except ConnectionError:
            return  # racing teardown; the close callback cleans up
        try:
            wirecodec.check_hello(hello)
        except ConfigurationError:
            state.refused = True
            state.conn.close(graceful=True)
            return
        advertised = tuple(hello.codecs)
        if not state.same_host and self._codec_for_advertised is not None:
            # Same-machine connections stay raw: bandwidth is free there,
            # CPU is not.
            state.codec_for = lambda nbytes: self._codec_for_advertised(
                advertised, nbytes)

    def _inline_eligible(self, frame: Message) -> bool:
        """Only declared-inline kinds — or an auto-batch solely of them."""
        kinds = self._inline_kinds
        if frame.kind in kinds:
            return True
        if frame.kind is not MessageKind.AUTO_BATCH:
            return False
        subs = frame.payload
        return isinstance(subs, tuple) and all(
            sub.kind in kinds for sub in subs
        )

    def _dispatch_inline(self, state: _ServerConn, frame: Message) -> None:
        """Execute an allowlisted frame on the loop thread (no handoff).

        Guarded by a per-call time budget: a handler that keeps
        overrunning (``_INLINE_DEMOTE_STRIKES`` consecutive times)
        demotes this server's inline path permanently — the allowlist
        promised cheap and non-blocking (magelint MAGE009 checks the
        handlers statically), but a misbehaving deployment must degrade
        to the pool rather than starve every connection on the loop.
        """
        budget = self._inline_budget_s
        if frame.kind is MessageKind.AUTO_BATCH:
            budget *= len(frame.payload)
        start = time.monotonic()
        self._dispatch(state, frame)
        elapsed = time.monotonic() - start
        metrics = self._call_metrics
        if metrics is not None:
            metrics.record_inline()
        if elapsed <= budget:
            self._inline_strikes = 0
            return
        self._inline_strikes += 1
        demoted = self._inline_strikes >= _INLINE_DEMOTE_STRIKES
        if demoted:
            self._inline_demoted = True
        if metrics is not None:
            metrics.record_overrun(demoted)

    def _on_conn_closed(self, state: _ServerConn) -> None:
        with self._conn_lock:
            self._conns.discard(state)

    def _dispatch(self, state: _ServerConn, message: Message) -> None:
        if self._latency_s > 0.0:
            # Emulated link delay (tc-netem style): charged on the worker,
            # after the reactor delivered the frame, so a slow link never
            # stalls later frames arriving on the same connection.
            time.sleep(self._latency_s)
        try:
            payload = Transport.execute_handler(
                message, self.handler, self.reply_cache
            )
        except BaseException as exc:  # magelint: disable=MAGE003(deliberate: converts the abort into an uncached error reply on a worker thread; re-raising would only kill the worker without informing the caller)
            # Control-flow abort (KeyboardInterrupt/SystemExit): the
            # single-flight cache retained nothing, so a retransmission
            # executes afresh.  Answer with an *uncached* transport error
            # so the caller fails fast instead of waiting out its reply
            # timeout — a KeyboardInterrupt itself cannot cross the wire.
            payload = ReplyPayload(
                error=TransportError(
                    f"handler aborted by {type(exc).__name__}"
                )
            )
        if message.kind in ONEWAY_KINDS:
            return  # one-way traffic carries no reply frame
        self._send_reply(state, message, payload)

    def _dispatch_batch(self, state: _ServerConn, frame: Message) -> None:
        """Execute an AUTO_BATCH's sub-calls across the pool, reply once.

        The coalesced sub-calls are *independent* — each would have been
        its own frame and its own worker task without batching — so they
        must not serialize behind a slow sibling: the frame fans back out
        to the worker pool (this task keeps the first sub for itself) and
        the last sub to finish sends the single aggregated reply.  Each
        sub runs through :meth:`Transport.execute_handler` individually,
        so per-sub deadlines and the at-most-once reply cache keep the
        exact semantics of unbatched dispatch.
        """
        if self._latency_s > 0.0:
            time.sleep(self._latency_s)  # link delay: charged per frame
        subs = frame.payload
        results: list = [None] * len(subs)
        lock = threading.Lock()
        pending = [len(subs)]

        def run_sub(index: int, sub: Message) -> None:
            try:
                payload = Transport.execute_handler(
                    sub, self.handler, self.reply_cache
                )
            except BaseException as exc:  # magelint: disable=MAGE003(deliberate: same uncached-error conversion as _dispatch, per sub)
                payload = ReplyPayload(
                    error=TransportError(
                        f"handler aborted by {type(exc).__name__}"
                    )
                )
            results[index] = (sub.msg_id, payload)
            with lock:
                pending[0] -= 1
                done = pending[0] == 0
            if done:
                self._send_reply(
                    state, frame, ReplyPayload(value=tuple(results))
                )

        for index in range(1, len(subs)):
            self._pool.submit(run_sub, index, subs[index])
        run_sub(0, subs[0])

    def _send_reply(self, state: _ServerConn, message: Message,
                    payload: ReplyPayload) -> None:
        reply = message.reply(_transmittable_error_payload(payload))
        try:
            wire = _encode_frame(reply, state.codec_for)
        except MarshalError:
            self._trace.record(reply, self._clock.now_ms())
            raise
        self._trace.record(reply, self._clock.now_ms(),
                           nbytes=_frame_nbytes(wire))
        try:
            state.conn.send(wire)
        except ConnectionError:
            pass  # caller gave up; the reply cache covers their retry

    def drop_peer(self, peer: str) -> None:
        """Sever accepted connections whose HELLO identified ``peer``.

        Eviction-time hygiene: a forgotten peer's half-open inbound
        connections — and the per-connection codec negotiation state
        riding them — must not survive into its re-join, which
        starts from a fresh handshake.  Connections whose HELLO has not
        arrived yet cannot be attributed and are left alone (they carry
        no per-peer state to go stale).
        """
        with self._conn_lock:
            stale = [
                state for state in self._conns
                if state.hello is not None and state.hello.node_id == peer
            ]
            for state in stale:
                self._conns.discard(state)
        for state in stale:
            if state.conn is not None:
                state.conn.close(graceful=False)

    def close(self) -> None:
        """Stop listening and sever live connections, releasing the port.

        In-flight exchanges on severed connections surface to their
        callers as :class:`NodeUnreachableError` (their client channel
        sees the close and fails the parked waiters).
        """
        with self._conn_lock:
            self._closing = True
            conns = list(self._conns)
            self._conns.clear()
        self._listener.close()
        if self._uds_listener is not None:
            self._uds_listener.close()
        for state in conns:
            if state.conn is not None:
                state.conn.close(graceful=False)


class TcpNetwork(Transport):
    """Transport over real TCP sockets; see module docstring."""

    track_link_latency = True  # reply latencies feed hedge-candidate ranking

    def __init__(self, clock: Clock | None = None, trace: MessageTrace | None = None,
                 connect_timeout_s: float = 5.0, io_timeout_s: float = 30.0,
                 retry_budget: int = DEFAULT_RETRY_BUDGET,
                 server_workers: int = 8,
                 latency_ms: float = 0.0,
                 codecs: tuple[str, ...] | None = None,
                 compress_threshold: int = codec.DEFAULT_COMPRESS_THRESHOLD,
                 bandwidth_mbps: float | None = None,
                 bind: str = "127.0.0.1",
                 advertise_host: str | None = None,
                 ports: dict[str, int] | None = None,
                 reactor_threads: int = 1,
                 coalesce_max_bytes: int = 64 * 1024,
                 coalesce_max_delay_ms: float = 0.0,
                 auto_batch: bool = True,
                 batch_max_msgs: int = 32,
                 batch_max_bytes: int = 64 * 1024,
                 inline_dispatch: bool = True,
                 inline_budget_ms: float = 1.0,
                 uds: bool = True,
                 local_bypass: bool = True) -> None:
        """``latency_ms`` emulates a slower link (tc-netem style): every
        request is delayed that long at the destination before dispatch.
        Loopback's ~0.1 ms round trip hides latency effects entirely;
        setting a LAN/WAN-scale delay lets benches and tests measure what
        scatter-gather and pipelining buy on a real network.

        ``bandwidth_mbps`` emulates link throughput the same way: each
        received frame charges its *on-wire* bytes against the link rate
        on the per-connection serve loop, so bulk transfers pay a
        transmission time loopback would otherwise hide (and compressed
        frames pay only for their compressed bytes).

        ``codecs`` is the sender-side compression preference order
        (default: every codec this process supports, ``()`` disables
        compression entirely).  A frame is compressed only when it
        reaches ``compress_threshold`` serialized bytes *and* the
        connection's peer advertised a shared codec in its HELLO;
        everything else ships raw.

        Cross-host knobs: ``bind`` is the interface node listeners bind
        (``"0.0.0.0"`` accepts other machines); ``advertise_host`` is
        the address *peers* should dial for nodes served here — it
        defaults to ``bind``, falling back to ``127.0.0.1`` when bind
        is a wildcard, and must be set explicitly to this machine's
        reachable address in a real multi-host deployment.  ``ports``
        optionally pins ``node_id -> listen port`` (seeds want a fixed,
        firewall-friendly port; the default remains an ephemeral one).
        ``connect_timeout_s`` bounds opening a connection: the dial *and*
        the wait for the server's HELLO.

        Data-plane knobs: ``reactor_threads`` sizes the event-loop pool
        that owns every socket (one is right until it
        saturates a core); ``coalesce_max_bytes`` and
        ``coalesce_max_delay_ms`` shape adaptive frame coalescing — a
        connection's queued frames flush when the loop goes idle, the
        queue crosses the byte watermark, or the oldest frame has waited
        out the delay, whichever comes first.  The default zero delay
        flushes at the next loop round (lowest latency, batching only
        under load); a small delay (0.2–1 ms) trades that latency for
        bigger batches on throughput-bound workloads.

        Call-path aggregation knobs: ``auto_batch`` coalesces concurrent
        pipelined calls to one peer into single AUTO_BATCH frames
        (adaptive — a lone call is never delayed), capped per frame by
        ``batch_max_msgs`` / ``batch_max_bytes``.  It is a sender-side
        switch: every build decodes AUTO_BATCH, and ``auto_batch=False``
        keeps this side's wire at one frame per call.
        ``inline_dispatch`` lets allowlisted cheap kinds (:data:`~repro.net.message.INLINE_KINDS`)
        execute directly on the reactor loop thread under a per-call
        budget of ``inline_budget_ms`` — repeated overruns demote the
        fast path back to the worker pool (watch ``inline_overruns`` and
        ``loop_lag_ewma_ms`` in :meth:`data_plane_metrics`).

        Same-host fast paths: ``uds`` makes every node listener
        additionally bind an abstract Unix-domain socket, advertised
        through HELLO settings and the membership roster; a peer whose
        own ``advertise_host`` matches dials the Unix socket instead of
        loopback TCP, degrading to TCP on any mismatch or dial failure
        (and entirely on platforms without ``AF_UNIX``).
        ``local_bypass`` lets RMI stubs on this transport short-circuit
        invokes to servants hosted *in this process* without touching
        the wire at all (see :class:`repro.rmi.bypass.LocalDispatch`);
        both default on and exist as off-switches for A/B measurement.
        """
        super().__init__(
            clock=clock if clock is not None else WallClock(),
            trace=trace,
            retry_budget=retry_budget,
        )
        if latency_ms < 0:
            raise ConfigurationError(f"latency cannot be negative: {latency_ms}")
        if bandwidth_mbps is not None and bandwidth_mbps <= 0:
            raise ConfigurationError(
                f"bandwidth must be positive: {bandwidth_mbps}"
            )
        if compress_threshold < 0:
            raise ConfigurationError(
                f"compress threshold cannot be negative: {compress_threshold}"
            )
        if reactor_threads <= 0:
            raise ConfigurationError(
                f"reactor needs at least one thread: {reactor_threads}"
            )
        if coalesce_max_bytes <= 0:
            raise ConfigurationError(
                f"coalesce_max_bytes must be positive: {coalesce_max_bytes}"
            )
        if coalesce_max_delay_ms < 0:
            raise ConfigurationError(
                f"coalesce delay cannot be negative: {coalesce_max_delay_ms}"
            )
        if batch_max_msgs < 2:
            raise ConfigurationError(
                f"batch_max_msgs must be at least 2: {batch_max_msgs}"
            )
        if batch_max_bytes <= 0:
            raise ConfigurationError(
                f"batch_max_bytes must be positive: {batch_max_bytes}"
            )
        if inline_budget_ms <= 0:
            raise ConfigurationError(
                f"inline budget must be positive: {inline_budget_ms}"
            )
        self.latency_ms = latency_ms
        self.connect_timeout_s = connect_timeout_s
        self.io_timeout_s = io_timeout_s
        self.bind = bind
        self.advertise_host = advertise_host if advertise_host is not None else (
            "127.0.0.1" if bind in ("", "0.0.0.0", "::") else bind
        )
        self._ports = dict(ports) if ports else {}
        self.auto_batch = auto_batch
        self.batch_max_msgs = batch_max_msgs
        self.batch_max_bytes = batch_max_bytes
        self.inline_dispatch = inline_dispatch
        self.inline_budget_s = inline_budget_ms / 1000.0
        self.uds = uds and _UDS_SUPPORTED
        self.supports_local_bypass = bool(local_bypass)
        self._call_metrics = _CallPathMetrics()
        write_codecs = codec.available_codecs() if codecs is None else tuple(codecs)
        for name in write_codecs:
            codec.codec_id(name)  # validate eagerly, not on the hot path
        self.write_codecs = write_codecs
        self.compress_threshold = compress_threshold
        self._bytes_per_s = (
            bandwidth_mbps * 1e6 / 8.0 if bandwidth_mbps is not None else None
        )
        self._servers: dict[str, _NodeServer] = {}
        self._lock = threading.Lock()
        self._channels: dict[tuple[str, str], _Channel] = {}
        self._chan_lock = threading.Lock()
        self._pool = _WorkerPool(server_workers, "tcpnet")
        # Bulk-kind handlers (streamed migration) run off the request
        # path: staging writes and marshalled-state applies never queue
        # behind latency-sensitive calls, and vice versa.
        self._bulk_pool = _WorkerPool(max(2, server_workers // 2), "tcpnet-bulk")
        self._reactor = Reactor(
            reactor_threads,
            max_frame=_MAX_FRAME,
            coalesce_max_bytes=coalesce_max_bytes,
            coalesce_max_delay_s=coalesce_max_delay_ms / 1000.0,
            name="tcpnet",
        )

    # -- codec negotiation ----------------------------------------------------

    def _codec_for_advertised(self, advertised: tuple[str, ...],
                              nbytes: int) -> int:
        """The codec id for one frame toward a peer that HELLOed
        ``advertised``."""
        return codec.choose_codec(
            nbytes, self.write_codecs, advertised, self.compress_threshold,
        )

    def negotiated_codecs(self, src: str, dst: str) -> tuple[str, ...] | None:
        """What the live ``src -> dst`` channel's peer HELLO advertised.

        ``None`` when no live channel exists.  Diagnostic: lets tests and
        operators confirm what codec negotiation settled on the wire.
        """
        with self._chan_lock:
            channel = self._channels.get((src, dst))
        if channel is None or channel.closed:
            return None
        return channel.negotiated_codecs

    # -- node management ----------------------------------------------------

    def register(self, node_id: str, handler: MessageHandler) -> None:
        # Build the replacement first and swap it in atomically: a call
        # racing the re-registration sees either the old or the new server,
        # never a missing node.
        server = _NodeServer(node_id, handler, self.trace, self.clock, self._pool,
                             self._bulk_pool, self._reactor,
                             latency_s=self.latency_ms / 1000.0,
                             bytes_per_s=self._bytes_per_s,
                             bind_host=self.bind,
                             port=self._ports.get(node_id, 0),
                             codec_for_advertised=self._codec_for_advertised,
                             inline_dispatch=self.inline_dispatch,
                             inline_budget_s=self.inline_budget_s,
                             call_metrics=self._call_metrics,
                             uds=self.uds,
                             advertise_host=self.advertise_host)
        with self._lock:
            old = self._servers.get(node_id)
            self._servers[node_id] = server
        if old is not None:
            # Replacing a live node: release its port and sever its
            # connections so in-flight calls fail fast instead of hanging.
            old.close()
            self._drop_channels(node_id)

    def unregister(self, node_id: str) -> None:
        with self._lock:
            server = self._servers.pop(node_id, None)
        if server is not None:
            server.close()
        # Prune everything remembered about the departed node — link
        # EWMA, address-book entry, live channels —
        # so a long-lived transport carries no state for dead peers.
        self.forget_peer(node_id)

    def nodes(self) -> list[str]:
        """Locally served nodes plus address-book peers (sorted).

        With an empty address book (no cross-host configuration) this is
        exactly the registered-node list of earlier PRs.
        """
        with self._lock:
            local = set(self._servers)
        return sorted(local | set(self.known_peers()))

    def max_reply_wait_s(self) -> float | None:
        return self.io_timeout_s

    def port_of(self, node_id: str) -> int:
        """The TCP port ``node_id`` listens on (for diagnostics)."""
        with self._lock:
            server = self._servers.get(node_id)
        if server is None:
            raise NodeUnreachableError(node_id, "not registered")
        return server.port

    def endpoint_of(self, node_id: str) -> Endpoint | None:
        """Where ``node_id`` can be dialed: a local listener's advertised
        address (with its Unix-socket facet, when one is bound), else the
        address book, else ``None``."""
        with self._lock:
            server = self._servers.get(node_id)
        if server is not None:
            return Endpoint(self.advertise_host, server.port, server.uds_name)
        return super().endpoint_of(node_id)

    def forget_peer(self, node_id: str) -> None:
        # One atomic pop drops the peer's whole sharded record — address
        # book and link EWMA together.  Channels are closed with
        # ``rescue=False``: the auto-batcher's queued frames fail instead
        # of redialing the node just forgotten.
        super().forget_peer(node_id)
        self._drop_channels(node_id, rescue=False)
        # Server side of the same hygiene: sever accepted connections
        # the forgotten peer opened toward locally served nodes, so a
        # re-join starts from a fresh handshake (no stale codec
        # negotiation state).
        with self._lock:
            servers = list(self._servers.values())
        for server in servers:
            server.drop_peer(node_id)

    def _peer_endpoint_changed(self, node_id: str) -> None:
        # A peer re-joined from a new endpoint: the fresh address wins,
        # and channels built on the stale one are severed (their
        # in-flight exchanges fail over to reconnect-and-retry or
        # surface as unreachability, exactly like a re-registration).
        self._drop_channels(node_id)

    # -- client-side connections ---------------------------------------------

    def _dial_address(self, dst: str) -> Endpoint:
        """Resolve ``dst`` to a dialable endpoint.

        Locally served nodes are dialed over loopback-or-bind directly
        (keeping their Unix-socket facet — same process is trivially
        same host); anything else must be in the address book, whose
        facet is kept only when the peer's advertised host matches this
        transport's own — a Unix socket on another machine is not
        reachable, whatever the roster says.
        """
        with self._lock:
            server = self._servers.get(dst)
        if server is not None:
            host = "127.0.0.1" if self.bind in ("", "0.0.0.0", "::") else self.bind
            return Endpoint(host, server.port, server.uds_name)
        endpoint = super().endpoint_of(dst)
        if endpoint is None:
            raise NodeUnreachableError(
                dst, "not registered and no known endpoint"
            )
        if endpoint.uds and endpoint.host != self.advertise_host:
            return Endpoint(endpoint.host, endpoint.port)
        return endpoint

    def _connect(self, dst: str) -> socket.socket:
        endpoint = self._dial_address(dst)
        if endpoint.uds and self.uds:
            sock = self._dial_uds(endpoint.uds)
            if sock is not None:
                return sock
            # Any failure degrades to TCP: the peer may have restarted
            # without the facet, or the abstract namespace may be
            # partitioned from this process (container boundaries).
        try:
            sock = socket.create_connection(
                endpoint.address(), timeout=self.connect_timeout_s
            )
        except OSError as exc:
            raise NodeUnreachableError(dst, f"connect failed: {exc}") from exc
        # Frames are small; Nagle-batching them against delayed ACKs stalls
        # the pipelined mode badly, so send every frame immediately.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _dial_uds(self, name: str) -> socket.socket | None:
        """Dial the abstract Unix socket ``name``; ``None`` on failure.

        No TCP_NODELAY here — Unix sockets have no Nagle to disable —
        and no exception surface: the caller always has TCP to fall
        back on, so a same-host dial can only ever *add* a fast path.
        """
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.connect_timeout_s)
        try:
            sock.connect("\0" + name)
        except OSError:
            sock.close()
            return None
        return sock

    def _open(self, src: str, dst: str) -> tuple[socket.socket, Hello]:
        """Dial ``dst`` and exchange HELLOs, all inside ``connect_timeout_s``.

        Nothing but the HELLO has been written when this returns or
        raises, so every failure here is safe to surface (or retry)
        without risking a second execution.  A peer that answers no
        HELLO in time, hangs up, or sends anything but a HELLO is
        unreachable; one whose HELLO names another protocol version or
        wire digest raises :class:`ConfigurationError`.
        """
        deadline = time.monotonic() + self.connect_timeout_s
        sock = self._connect(dst)
        hello = Hello(
            version=PROTOCOL_VERSION,
            node_id=src,
            codecs=codec.available_codecs(),
            settings={wirecodec.WIRE_SETTING: (wirecodec.WIRE_FORMAT,)},
        )
        try:
            sock.sendall(_encode_hello(hello))
            peer_hello = _recv_hello(sock, deadline)
            wirecodec.check_hello(peer_hello)
        except TimeoutError as exc:
            sock.close()
            raise NodeUnreachableError(
                dst, f"no HELLO within {self.connect_timeout_s}s"
            ) from exc
        except (OSError, MarshalError) as exc:
            sock.close()
            raise NodeUnreachableError(dst, f"handshake failed: {exc}") from exc
        except ConfigurationError:
            sock.close()
            raise
        sock.settimeout(None)  # the reactor owns it; reply timeouts are waiter-side
        return sock, peer_hello

    def _channel(self, src: str, dst: str) -> _Channel:
        key = (src, dst)
        with self._chan_lock:
            channel = self._channels.get(key)
            if channel is not None and not channel.closed:
                return channel
        sock, peer_hello = self._open(src, dst)
        self._learn_peer_uds(dst, peer_hello)
        advertised = tuple(peer_hello.codecs)
        codec_for = None
        if not (_UDS_SUPPORTED and sock.family == socket.AF_UNIX):
            # Same-machine channels stay raw: compression saves bandwidth
            # a Unix socket does not consume, at a real CPU cost.
            codec_for = lambda nbytes: self._codec_for_advertised(
                advertised, nbytes)
        channel = _Channel(dst, sock, self._reactor, advertised, codec_for)
        if self.auto_batch:
            # Attached post-construction: only submit_auto — called after
            # this method returns — reads it.
            channel._batcher = _AutoBatcher(
                channel, self, self.batch_max_msgs, self.batch_max_bytes,
                self._call_metrics,
            )
        with self._chan_lock:
            current = self._channels.get(key)
            if current is not None and not current.closed:
                channel.close()  # lost the race; reuse the winner
                return current
            self._channels[key] = channel
        return channel

    def _learn_peer_uds(self, dst: str, hello: Hello) -> None:
        """Adopt the Unix-socket facet a server's HELLO advertised.

        Recorded through :meth:`connect`'s facet merge, so the address
        book remembers it for later dials (the *current* connection
        stays on whatever socket it was opened on — the upgrade applies
        from the next dial).  Ignored unless the advertised ``(host,
        port)`` agrees with what this transport already dials for
        ``dst``: adopting a mismatched advertisement would re-route —
        and sever — healthy connections on hearsay.
        """
        if not self.uds:
            return
        spec = hello.settings.get(_UDS_SETTING)
        if (not isinstance(spec, tuple) or len(spec) != 3
                or not isinstance(spec[0], str)
                or not isinstance(spec[2], str) or not spec[2]):
            return
        host, port, uds_name = spec
        if host != self.advertise_host:
            return  # another machine's Unix socket: not reachable here
        known = super().endpoint_of(dst)
        if known is None or known.address() != (host, port):
            return
        try:
            self.connect(dst, Endpoint(host, int(port), uds_name))
        except (ConfigurationError, TypeError, ValueError):
            return  # malformed advertisement: stay on TCP

    def _drop_channels(self, dst: str, rescue: bool = True) -> None:
        with self._chan_lock:
            stale = [key for key in self._channels if key[1] == dst]
            channels = [self._channels.pop(key) for key in stale]
        for channel in channels:
            channel.close(rescue=rescue)

    def open_channels(self) -> int:
        """How many live client channels exist (for tests/diagnostics)."""
        with self._chan_lock:
            return sum(1 for c in self._channels.values() if not c.closed)

    def data_plane_metrics(self) -> DataPlaneStats:
        """Reactor counters: flush batching, loop lag, queue depths —
        plus the transport's own call-path aggregation counters
        (auto-batch size histogram, inline-dispatch/overrun/demotion).

        Consumed by :func:`repro.runtime.metrics.collect_data_plane` and
        the throughput bench report.
        """
        return self._call_metrics.merge_into(self._reactor.metrics())

    # -- delivery -------------------------------------------------------------

    def _record_drop(self, message: Message) -> None:
        """Trace an undeliverable *one-way* send, matching the simulated
        network's accounting (two-way failures raise instead; recording
        them here would skew cross-transport trace comparisons)."""
        if message.kind in ONEWAY_KINDS:
            self.trace.record(message, self.clock.now_ms(), dropped=True)

    def _transmit(self, message: Message) -> Message:
        """Never called: every exchange is a pipelined future from
        :meth:`_transmit_async`, so the base retry loop does not run here."""
        raise NotImplementedError("TcpNetwork exchanges go through _transmit_async")

    def _transmit_async(self, message: Message, batch: bool) -> CallFuture:
        """Native futures on the pipelined channel's waiter mechanism.

        The frame is written during submission (a channel that proves
        closed before the write is redialled once); the returned
        future is resolved by the channel's reactor callback when the matching
        reply frame arrives.  Issuing N futures before collecting any puts
        N round trips in flight on the shared connection.
        """
        future = _PipelinedCallFuture(message, batch, self.io_timeout_s,
                                      transport=self)
        if message.deadline is not None and message.deadline.expired:
            # Budget already gone: never touch the wire.
            future._fail(CallTimeoutError(
                f"{message.describe()}: deadline expired"
            ))
            return future
        for _ in range(2):
            try:
                channel = self._channel(message.src, message.dst)
            except NodeUnreachableError as exc:
                self._record_drop(message)
                future._fail(exc)
                return future
            except ConfigurationError as exc:  # the peer speaks another wire
                future._fail(exc)
                return future
            # Channel recorded *before* submission: the auto-batcher may
            # queue the frame and send it from another caller's drain,
            # and abandon/timeout paths need the channel either way.
            future._channel = channel
            try:
                channel.submit_auto(message, future)
            except _ChannelClosedError:
                continue  # frame provably never left; reconnect and resend
            except Exception as exc:  # e.g. MarshalError while pickling
                future._fail(exc)
                return future
            return future
        self._record_drop(message)
        future._fail(NodeUnreachableError(message.dst, "connection lost before send"))
        return future

    def _rescue_async(self, items: "list[tuple[Message, object]]") -> None:
        """Queue a stranded-frame rescue on the worker pool.

        Rescue dials a fresh connection, which may block — and the
        thread asking for it may be a reactor loop (a reply-clocked
        flush), which must never block.  After shutdown the pool drops
        the job silently; the affected callers then time out against a
        transport that is gone anyway.
        """
        if items:
            self._pool.submit(self._resubmit_stranded, items)

    def _resubmit_stranded(
        self, items: "list[tuple[Message, object]]"
    ) -> None:
        """Re-route frames a dying batcher proved never left its channel.

        Each is re-submitted on a *fresh* channel (plain :meth:`submit`
        — the original coalescing opportunity is gone) with the same
        one-retry discipline as the direct path; a frame that cannot be
        placed fails its own sink, never its group.
        """
        for message, sink in items:
            failure: Exception | None = None
            for _ in range(2):
                try:
                    channel = self._channel(message.src, message.dst)
                except (NodeUnreachableError, ConfigurationError) as exc:
                    failure = exc
                    break
                if hasattr(sink, "_channel"):
                    sink._channel = channel
                try:
                    channel.submit(message, sink)
                except _ChannelClosedError as exc:
                    failure = exc
                    continue
                except Exception as exc:  # MarshalError while pickling
                    failure = exc
                    break
                failure = None
                break
            if failure is not None:
                self._record_drop(message)
                _fail_sink(sink, failure if not isinstance(
                    failure, _ChannelClosedError
                ) else NodeUnreachableError(
                    message.dst, "connection lost before send"
                ))

    def _transmit_oneway(self, message: Message) -> None:
        """Send via the peer's channel, with one stale-channel retry.

        A channel may have died since its last use (the peer
        re-registered or unregistered).  ``_ChannelClosedError`` means the
        frame provably never left this side, so one redial is safe.  Every
        failure traces a drop; a peer on another wire version raises
        :class:`ConfigurationError` (a deployment fault, not a loss, so
        :meth:`cast` lets it through).
        """
        for _ in range(2):
            try:
                channel = self._channel(message.src, message.dst)
            except (NodeUnreachableError, ConfigurationError):
                self._record_drop(message)
                raise
            try:
                channel.send_oneway(message)
                return
            except _ChannelClosedError:
                continue
        self._record_drop(message)
        raise NodeUnreachableError(message.dst, "connection lost before send")

    # -- lifecycle -------------------------------------------------------------

    def shutdown(self) -> None:
        """Close every listening socket, connection and worker (idempotent)."""
        with self._lock:
            servers = list(self._servers.values())
            self._servers.clear()
        with self._chan_lock:
            channels = list(self._channels.values())
            self._channels.clear()
        for channel in channels:
            channel.close()
        for server in servers:
            server.close()
        self._pool.close()
        self._bulk_pool.close()
        self._reactor.close()
