"""Transport abstraction.

A transport delivers :class:`~repro.net.message.Message` envelopes between
named nodes.  Three interaction styles exist, matching the paper's
protocols:

* ``call`` — synchronous request/response, the shape of an RMI call.  All
  of RPC/REV/COD/GREV/CLE traffic is built from calls.
* ``call_many`` — a *batch* of request/response exchanges riding one
  frame (one round trip).  Multi-step runtime operations whose requests
  are independent — e.g. instantiate-then-publish — can collapse their
  round trips without changing per-request semantics: each sub-request
  keeps its own message id, its own at-most-once slot in the reply cache,
  and its own marshalled result or exception.
* ``cast`` — one-way, asynchronous.  Mobile-agent hops use casts: the
  paper's §3.5 distinguishes REV (single hop, synchronous) from MA
  (multi-hop, asynchronous).

Each request/response style also exists as a *future-returning* form —
``call_async`` / ``call_many_async`` — which is the primitive every
multi-node runtime operation (class fan-out, load sweeps, parallel find
probes) scatters over.  ``call`` is literally ``call_async(...).result()``
and ``call_many`` is ``call_many_async(...).result()``, so the two forms
can never drift apart semantically.  The base implementation completes
the future *eagerly on the calling thread* — zero extra threads, fully
deterministic, which is exactly what the simulated network needs for
reproducible traces.  Transports whose wire protocol already decouples
send from receive (the pipelined TCP transport) override
:meth:`Transport._transmit_async` to return a genuinely in-flight future,
so N futures to N nodes overlap their round trips.

Reliability: §4.3 requires protocols to "recover from message loss", so
``call`` retries lost transmissions up to a budget.  Because a reply can be
lost *after* the handler ran, every node's dispatch path is wrapped in a
:class:`ReplyCache` keyed by (source node, message id), giving
at-most-once execution — retries of an executed request replay the
cached reply instead of re-executing a (possibly non-idempotent) move.

The at-most-once path is *single-flight*: while a request is executing,
a concurrently arriving retransmission of the same message id blocks on
the in-flight execution and then replays its reply, rather than missing
the cache and running the handler a second time.  Control-flow exceptions
(``KeyboardInterrupt``, ``SystemExit``) are never cached as replies; they
propagate out of the dispatch path so a node can actually shut down.

Deadlines: every request/response form accepts a
:class:`~repro.net.deadline.Deadline` — one end-to-end budget that rides
the message header, bounds the send/retry/wait path on the caller's side,
is enforced at the destination's dispatch (expired requests are dropped at
dequeue), and becomes ambient while the handler runs so nested calls
inherit the shrinking remainder.  ``CallFuture.cancel()`` is the
companion: a fan-out that already has its answer cuts its stragglers off
instead of waiting out the io timeout (see :func:`gather`'s
``cancel_stragglers``).  With no deadline set, every path is byte- and
trace-identical to the pre-deadline behaviour.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.errors import (
    CallCancelledError,
    CallTimeoutError,
    MessageLostError,
    NodeUnreachableError,
)
from repro.net.deadline import (
    Deadline,
    current_deadline,
    deadline_scope,
    effective_deadline,
)
from repro.net.endpoint import Endpoint
from repro.net.message import (
    Message,
    MessageKind,
    ReplyPayload,
    build_message,
)
from repro.net.trace import MessageTrace
from repro.util.clock import Clock

#: A node's message dispatcher: receives a request, returns the reply payload
#: value (or raises; the transport marshals the exception back to the caller).
MessageHandler = Callable[[Message], Any]

#: How many times ``call`` retransmits after a loss before giving up.
DEFAULT_RETRY_BUDGET = 8

#: Assumed floor on one transmission attempt's cost when scaling the
#: retry loop to a request's remaining deadline budget: a call with less
#: than this much budget left is not worth another attempt.
MIN_ATTEMPT_COST_S = 0.001


class CallFuture:
    """The pending result of an asynchronous request/response exchange.

    Completion is first-wins and happens exactly once: the transport either
    resolves the future with the unwrapped reply value or fails it with the
    exception the equivalent blocking ``call`` would have raised (marshalled
    handler errors, :class:`~repro.errors.NodeUnreachableError`,
    :class:`~repro.errors.MessageLostError`, ...).

    * :meth:`result` blocks until completion, then returns the value or
      re-raises the exception — so ``call_async(...).result()`` is exactly
      ``call(...)``.
    * :meth:`exception` blocks the same way but *returns* the exception
      (``None`` on success) instead of raising it, which is what fan-out
      sweeps that tolerate partial failure want.
    * :meth:`done` never blocks.
    * :meth:`cancel` abandons the exchange: the future completes with
      :class:`~repro.errors.CallCancelledError` (first-wins — a reply that
      already resolved it makes ``cancel`` a no-op returning ``False``),
      and natively asynchronous transports release the in-flight exchange
      exactly like a timed-out waiter.  A cancelled straggler stops
      costing its caller anything; whether the request still executes at
      the destination is the destination's business.
    * :meth:`map` derives a future whose value is ``fn(value)``; the mapper
      runs lazily on the collecting thread (RMI uses this to unmarshal off
      the transport's reader thread).
    * :meth:`add_done_callback` runs ``fn(future)`` on completion (on the
      completing thread; immediately when already done).

    Futures produced by the base transport are already completed when they
    are returned (the exchange ran eagerly on the calling thread); only
    transports with a natively asynchronous wire path hand out futures that
    are still in flight.
    """

    def __init__(self, describe: str | Callable[[], str] = "call") -> None:
        # A callable defers the label's formatting to the (rare) error
        # paths — the hot path never pays for a string nobody reads.
        self._describe = describe
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._value: Any = None
        self._error: BaseException | None = None
        self._cancelled = False
        self._callbacks: list[Callable[["CallFuture"], None]] = []

    # -- completion (transport-internal; the first completion wins) ----------

    def _resolve(self, value: Any) -> None:
        self._complete(value, None)

    def _fail(self, error: BaseException) -> None:
        self._complete(None, error)

    def _complete(self, value: Any, error: BaseException | None,
                  cancelled: bool = False) -> None:
        with self._lock:
            if self._event.is_set():
                return  # a racing completion already won
            self._value = value
            self._error = error
            self._cancelled = cancelled
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _complete_from_reply(self, reply: Message, batch: bool) -> None:
        """Unwrap a reply envelope into this future's outcome.

        Mirrors what the blocking path raises/returns: a marshalled handler
        exception fails the future; a BATCH reply resolves to the list of
        sub-request values, failing on the first sub-error (the later subs
        never ran — the batch is fail-fast at the destination).
        """
        payload = reply.payload
        if isinstance(payload, ReplyPayload):
            error = payload.error
            if error is not None:
                self._fail(error)
                return
            value = payload.value
        else:
            value = payload
        if not batch:
            self._resolve(value)
            return
        results = []
        for sub_payload in value:
            sub_error = sub_payload.error
            if sub_error is not None:
                self._fail(sub_error)
                return
            results.append(sub_payload.value)
        self._resolve(results)

    # -- waiting --------------------------------------------------------------

    def done(self) -> bool:
        """Whether the exchange completed (value or exception); never blocks."""
        return self._event.is_set()

    # -- cancellation ---------------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> bool:
        """Abandon the exchange; never blocks.

        Completes the future with :class:`~repro.errors.CallCancelledError`
        (first-wins: a racing reply that already completed it wins and
        ``cancel`` returns ``False``) and releases any transport resources
        the exchange holds — on the pipelined TCP transport the pending
        reply slot, exactly as a timed-out waiter, so a late reply is
        dropped by the reader and other waiters on the shared connection
        are untouched.  On the simulated network futures complete eagerly,
        so a straggler can only be "cancelled" before it is issued — the
        call is then a harmless no-op, which is what keeps deterministic
        fan-out code transport-portable.

        Returns ``True`` when the future is (now or already) cancelled.
        """
        self._abandon()
        self._complete(
            None, CallCancelledError(f"{self._label()}: {reason}"),
            cancelled=True,
        )
        return self._cancelled

    def cancelled(self) -> bool:
        """Whether :meth:`cancel` completed this future; never blocks."""
        return self._cancelled

    def _label(self) -> str:
        """The human-readable call label for error messages."""
        describe = self._describe
        return describe() if callable(describe) else describe

    def _abandon(self) -> None:
        """Release transport resources on cancel (native transports override)."""

    def _wait_bound_s(self) -> float | None:
        """Upper bound on how long this future may stay pending, or ``None``.

        Futures from the base (eager) transports are complete on arrival,
        so no bound applies; a natively asynchronous transport reports the
        remainder of its io-timeout window, which lets completion-order
        collectors (hedged chases, ``locate_any``) avoid waiting forever
        on an exchange the transport itself would have timed out.
        """
        return None

    def result(self, timeout_s: float | None = None) -> Any:
        """The reply value; blocks until completion, re-raises failures."""
        self._await(timeout_s)
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout_s: float | None = None) -> BaseException | None:
        """The failure (or ``None``); blocks until completion like ``result``."""
        self._await(timeout_s)
        return self._error

    def _await(self, timeout_s: float | None) -> None:
        if not self._event.wait(timeout_s):
            self._on_wait_timeout(timeout_s)

    def _on_wait_timeout(self, timeout_s: float | None) -> None:
        # The future may still complete later; waiting merely gave up.
        # (Natively asynchronous transports override this to abandon the
        # exchange, matching their blocking call's timeout semantics.)
        raise CallTimeoutError(
            f"{self._label()}: not completed within {timeout_s}s"
        )

    # -- composition -----------------------------------------------------------

    def add_done_callback(self, fn: Callable[["CallFuture"], None]) -> None:
        """Run ``fn(self)`` once completed (immediately if already done)."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def map(self, fn: Callable[[Any], Any]) -> "CallFuture":
        """A future resolving to ``fn(value)``, evaluated on the collector.

        The mapper runs at most once, lazily, on whichever thread collects
        the result first — never on the transport's reader thread.  A
        mapper that raises fails the derived future (the source future is
        unaffected).
        """
        return _MappedFuture(self, fn)

    @classmethod
    def completed(cls, value: Any, describe: str = "call") -> "CallFuture":
        """An already-resolved future (local fast paths of fan-out ops)."""
        future = cls(describe)
        future._resolve(value)
        return future


class _MappedFuture(CallFuture):
    """Lazy ``fn(value)`` view over a source future (see CallFuture.map)."""

    def __init__(self, source: CallFuture, fn: Callable[[Any], Any]) -> None:
        super().__init__(source._describe)
        self._source = source
        self._fn = fn

    def done(self) -> bool:
        return self._source.done()

    def cancel(self, reason: str = "cancelled") -> bool:
        # Cancelling the view abandons the underlying exchange; the view
        # then surfaces the source's CallCancelledError unmapped.
        return self._source.cancel(reason)

    def cancelled(self) -> bool:
        return self._source.cancelled()

    def _wait_bound_s(self) -> float | None:
        return self._source._wait_bound_s()

    def result(self, timeout_s: float | None = None) -> Any:
        value = self._source.result(timeout_s)
        with self._lock:
            if not self._event.is_set():
                try:
                    self._value = self._fn(value)
                except Exception as exc:
                    self._error = exc
                self._event.set()
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout_s: float | None = None) -> BaseException | None:
        error = self._source.exception(timeout_s)
        if error is not None:
            return error
        try:
            self.result(timeout_s)
        except Exception as exc:  # a failing mapper is this future's failure
            return exc
        return None

    def add_done_callback(self, fn: Callable[[CallFuture], None]) -> None:
        self._source.add_done_callback(lambda _source: fn(self))


def gather(futures: Sequence[CallFuture], timeout_s: float | None = None,
           return_exceptions: bool = False,
           deadline: Deadline | None = None,
           cancel_stragglers: bool = False) -> list[Any]:
    """Collect every future's result, in order.

    The scatter-gather companion: issue N ``call_async``s, then
    ``gather(futures)``.  With ``return_exceptions=True`` a failed future
    contributes its exception object instead of raising, so one dead node
    cannot abort a sweep.  Without it, the first failure (in *input* order,
    after its own wait) raises.

    ``timeout_s`` and ``deadline`` bound the **whole gather** by one shared
    deadline (``timeout_s`` anchors at entry; when both are given the
    tighter wins).  Every wait is rebased on the remaining shared budget,
    so N hung futures cost one timeout window in total — not N stacked
    windows, which is what a per-wait timeout used to cost.  A future the
    budget expires on contributes/raises :class:`CallTimeoutError`.

    ``cancel_stragglers=True`` cancels any future still pending when the
    gather returns or raises — an aborted sweep (first failure, expired
    budget) leaves no exchange silently consuming io-timeout at the
    transport.  Completed futures are untouched, so on the eagerly
    completing simulated network this mode is trace-identical to the
    default.
    """
    shared = Deadline.tighter(
        deadline,
        Deadline.after_s(timeout_s) if timeout_s is not None else None,
    )
    futures = list(futures)
    results: list[Any] = []
    try:
        for future in futures:
            try:
                wait_s = shared.remaining_s() if shared is not None else None
                if wait_s is not None:
                    # A shared budget larger than a future's own transport
                    # window must not extend that wait: the future still
                    # times out when its blocking equivalent would have.
                    bound = future._wait_bound_s()
                    if bound is not None:
                        wait_s = min(wait_s, bound)
                results.append(future.result(wait_s))
            except Exception as exc:
                if not return_exceptions:
                    raise
                results.append(exc)
    finally:
        if cancel_stragglers:
            for future in futures:
                if not future.done():
                    future.cancel("gather abandoned this straggler")
    return results


class _ReplyCacheShard:
    """One stripe of a :class:`ReplyCache`: an independent LRU + lock."""

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._entries: OrderedDict[Hashable, ReplyPayload] = OrderedDict()
        # key -> waiter event, created lazily: ``None`` marks a flight
        # nobody is waiting on yet (the common case — the Event alloc is
        # hot-path overhead only a racing retransmission needs).
        self._inflight: dict[Hashable, threading.Event | None] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> ReplyPayload | None:
        """The cached reply for ``key``, refreshing its recency."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is not None:
                self._entries.move_to_end(key)
            return payload

    def put(self, key: Hashable, payload: ReplyPayload) -> None:
        """Remember ``payload`` as the reply for ``key``."""
        with self._lock:
            self._put_locked(key, payload)

    def _put_locked(self, key: Hashable, payload: ReplyPayload) -> None:
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def begin(self, key: Hashable) -> ReplyPayload | threading.Event | None:
        """Single-flight entry point for executing ``key``.

        Returns the cached :class:`ReplyPayload` when the request already
        executed, a :class:`threading.Event` to wait on when another thread
        is executing it right now, or ``None`` when the caller now owns the
        execution and must eventually call :meth:`finish`.
        """
        with self._lock:
            payload = self._entries.get(key)
            if payload is not None:
                self._entries.move_to_end(key)
                return payload
            if key in self._inflight:
                event = self._inflight[key]
                if event is None:
                    event = self._inflight[key] = threading.Event()
                return event
            self._inflight[key] = None
            return None

    def finish(self, key: Hashable, payload: ReplyPayload | None) -> None:
        """End the flight :meth:`begin` granted, waking any waiters.

        ``payload`` is cached as the reply; pass ``None`` to release the
        flight without caching (control-flow exceptions), letting a later
        retransmission execute afresh.
        """
        with self._lock:
            if payload is not None:
                self._put_locked(key, payload)
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()  # only a racing retransmission materialized one

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ReplyCache:
    """At-most-once execution: remembers replies by request key.

    :meth:`Transport.execute_handler` keys each request on its
    ``(src, msg_id)`` pair: message ids are unique per sending process,
    not cluster-wide.  A bounded LRU; old entries are evicted once
    ``capacity`` is exceeded.  Retries reuse the same message id, so a
    retransmission of an already-executed request returns the remembered
    reply.

    The cache also tracks *in-flight* executions (:meth:`begin` /
    :meth:`finish`), giving dispatchers single-flight semantics: a
    retransmission that arrives while the original request is still
    executing waits for that execution instead of starting a second one.
    In-flight slots are unbounded by ``capacity`` (they are bounded by the
    dispatcher's own concurrency) and are always released by ``finish``.

    ``shards`` stripes the cache by key hash so concurrent
    dispatch workers stop serializing on one mutex.  The default single
    shard preserves exact global LRU order (eviction happens per shard,
    so a sharded cache approximates LRU — ample for a retransmission
    window, which only needs *recent* ids, not a total order).  A key
    always maps to the same shard, so single-flight semantics are
    unaffected by striping.
    """

    def __init__(self, capacity: int = 4096, shards: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if shards <= 0:
            raise ValueError("shards must be positive")
        per_shard = -(-capacity // shards)  # ceil: total capacity >= capacity
        self._shards = tuple(
            _ReplyCacheShard(per_shard) for _ in range(shards)
        )

    def _shard(self, key: Hashable) -> _ReplyCacheShard:
        return self._shards[hash(key) % len(self._shards)]

    def get(self, key: Hashable) -> ReplyPayload | None:
        """The cached reply for ``key``, refreshing its recency."""
        return self._shard(key).get(key)

    def put(self, key: Hashable, payload: ReplyPayload) -> None:
        """Remember ``payload`` as the reply for ``key``."""
        self._shard(key).put(key, payload)

    def begin(self, key: Hashable) -> ReplyPayload | threading.Event | None:
        """Single-flight entry point; see :meth:`_ReplyCacheShard.begin`."""
        return self._shard(key).begin(key)

    def finish(self, key: Hashable, payload: ReplyPayload | None) -> None:
        """End the flight :meth:`begin` granted, waking any waiters."""
        self._shard(key).finish(key, payload)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)


class _PeerRecord:
    """Everything one transport remembers about one peer node."""

    __slots__ = ("endpoint", "ewma_s")

    def __init__(self) -> None:
        self.endpoint: Endpoint | None = None
        self.ewma_s: float | None = None


class _PeerShard:
    """One stripe of the per-peer state table.

    Endpoint and latency EWMA for a peer live in *one* record behind
    *one* lock, so :meth:`forget` removes both atomically — a concurrent
    ``note_link_latency`` can never resurrect half a departed peer (it
    either sees the whole record or none of it).
    """

    __slots__ = ("_lock", "_peers")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._peers: dict[str, _PeerRecord] = {}

    def _record_locked(self, node_id: str) -> _PeerRecord:
        record = self._peers.get(node_id)
        if record is None:
            record = _PeerRecord()
            self._peers[node_id] = record
        return record

    def set_endpoint(self, node_id: str, endpoint: Endpoint) -> Endpoint | None:
        """Record where ``node_id`` dials; returns the previous endpoint."""
        with self._lock:
            record = self._record_locked(node_id)
            previous = record.endpoint
            record.endpoint = endpoint
        return previous

    def endpoint(self, node_id: str) -> Endpoint | None:
        with self._lock:
            record = self._peers.get(node_id)
            return record.endpoint if record is not None else None

    def note_latency(self, node_id: str, elapsed_s: float, alpha: float) -> None:
        with self._lock:
            record = self._record_locked(node_id)
            if record.ewma_s is None:
                record.ewma_s = elapsed_s
            else:
                record.ewma_s = (1 - alpha) * record.ewma_s + alpha * elapsed_s

    def latency(self, node_id: str) -> float | None:
        with self._lock:
            record = self._peers.get(node_id)
            return record.ewma_s if record is not None else None

    def forget(self, node_id: str) -> None:
        """Atomically drop everything remembered about ``node_id``."""
        with self._lock:
            self._peers.pop(node_id, None)

    def endpoints(self) -> dict[str, Endpoint]:
        with self._lock:
            return {
                node_id: record.endpoint
                for node_id, record in self._peers.items()
                if record.endpoint is not None
            }

    def latencies(self) -> dict[str, float]:
        with self._lock:
            return {
                node_id: record.ewma_s
                for node_id, record in self._peers.items()
                if record.ewma_s is not None
            }


#: Stripe count for per-peer transport state.  Eight keeps the worst-case
#: collision probability low for typical cluster fan-ins while costing
#: eight lock objects per transport.
_PEER_SHARDS = 8


class Transport(ABC):
    """Delivers messages between registered nodes; see module docstring."""

    #: Whether this transport records per-destination reply latencies.
    #: Off on the simulated network: its exchanges cost virtual time, not
    #: wall time, and feeding wall-clock noise into candidate ranking
    #: would perturb the deterministic traces the figure benches assert.
    track_link_latency = False

    #: Whether stubs on this transport may short-circuit invokes to
    #: colocated servants in process (the tier-1 local bypass).  Off on
    #: the simulated network: every simulated call must cross the
    #: virtual wire so figure traces stay byte-identical.
    supports_local_bypass = False

    #: EWMA smoothing factor for per-link latency estimates.
    LINK_EWMA_ALPHA = 0.2

    def __init__(self, clock: Clock, trace: MessageTrace | None = None,
                 retry_budget: int = DEFAULT_RETRY_BUDGET) -> None:
        self.clock = clock
        self.trace = trace if trace is not None else MessageTrace()
        self.retry_budget = retry_budget
        # Endpoint + latency EWMA per peer, striped by node-id hash:
        # hot-path writes (every reply feeds the EWMA) stop serializing on
        # a global lock, and forget_peer drops a peer's whole record in
        # one atomic pop.
        self._peer_shards = tuple(_PeerShard() for _ in range(_PEER_SHARDS))

    # -- address book ---------------------------------------------------------

    def connect(self, node_id: str, endpoint: Endpoint | tuple[str, int]) -> None:
        """Record where ``node_id`` can be reached, without registering it.

        The cross-host primitive: a peer hosted by *another process* is
        never in this transport's local node registry, so its address
        must be learned — from a seed list, a JOIN reply, or an ANNOUNCE
        (see :class:`repro.cluster.discovery.Membership`).  Calling
        ``connect`` again with a *different* endpoint replaces the entry
        (a re-joining peer's fresh address wins over the stale one) and
        lets transports sever connections built on the old address.
        Transports that deliver in process (the simulated network) keep
        the book but never consult it — every peer is local there.
        """
        if not isinstance(endpoint, Endpoint):
            endpoint = Endpoint(*endpoint)
        previous = self._peer_shard(node_id).set_endpoint(node_id, endpoint)
        if previous is None:
            return
        if previous.address() != endpoint.address():
            # Identity is (host, port) only: the uds facet is advisory
            # routing data, and learning or shedding it must not sever
            # healthy connections built on the unchanged TCP address.
            self._peer_endpoint_changed(node_id)
        elif previous.uds and not endpoint.uds:
            # Same address, but the new entry is missing a facet the old
            # one had learned (e.g. a roster merge that predates the
            # peer's HELLO): keep the learned facet.
            self._peer_shard(node_id).set_endpoint(node_id, previous)

    def endpoint_of(self, node_id: str) -> Endpoint | None:
        """Where ``node_id`` can be dialed (``None`` when unknown).

        The base implementation answers from the address book only;
        transports with real listeners also report their local nodes'
        bound addresses.
        """
        return self._peer_shard(node_id).endpoint(node_id)

    def known_peers(self) -> dict[str, Endpoint]:
        """Copy of the address book (peers learned via :meth:`connect`)."""
        book: dict[str, Endpoint] = {}
        for shard in self._peer_shards:
            book.update(shard.endpoints())
        return book

    def _peer_shard(self, node_id: str) -> _PeerShard:
        return self._peer_shards[hash(node_id) % _PEER_SHARDS]

    def _peer_endpoint_changed(self, node_id: str) -> None:
        """Hook: ``node_id``'s endpoint was replaced (sever stale links)."""

    def forget_peer(self, node_id: str) -> None:
        """Drop every per-peer record held for ``node_id``.

        Called when a node deregisters or membership declares it dead,
        so a long-lived transport does not accumulate latency EWMAs and
        address-book entries for departed peers.  Idempotent; a later
        :meth:`connect` or fresh traffic rebuilds the state from scratch.
        The whole record goes in one atomic pop, so a send racing the
        forget observes either the full peer state or none of it.
        """
        self._peer_shard(node_id).forget(node_id)

    # -- per-link latency estimation ------------------------------------------

    def note_link_latency(self, dst: str, elapsed_s: float) -> None:
        """Record one observed request->reply latency to ``dst``.

        Maintains an exponentially weighted moving average per
        destination; hedged chases and balancing policies rank candidate
        hosts by this expectation instead of by recency of contact.
        No-op unless the transport opts in via ``track_link_latency``.
        """
        if not self.track_link_latency or elapsed_s < 0:
            return
        self._peer_shard(dst).note_latency(dst, elapsed_s, self.LINK_EWMA_ALPHA)

    def link_latency_s(self, dst: str) -> float | None:
        """The expected reply latency to ``dst`` (``None`` when unknown)."""
        return self._peer_shard(dst).latency(dst)

    def rank_by_latency(self, candidates: Sequence[str]) -> list[str]:
        """``candidates`` ordered by expected reply latency, fastest first.

        The sort is *stable* and unknown links rank last-but-in-order, so
        on transports that record nothing (the simulated network) the
        input order is returned unchanged — deterministic fan-out code
        can always pass its candidate list through this.
        """
        known: dict[str, float] = {}
        for shard in self._peer_shards:
            known.update(shard.latencies())
        return sorted(candidates,
                      key=lambda node: known.get(node, float("inf")))

    # -- node management ----------------------------------------------------

    @abstractmethod
    def register(self, node_id: str, handler: MessageHandler) -> None:
        """Attach ``handler`` as the dispatcher for ``node_id``."""

    @abstractmethod
    def unregister(self, node_id: str) -> None:
        """Detach ``node_id`` (it becomes unreachable)."""

    @abstractmethod
    def nodes(self) -> list[str]:
        """Currently registered node ids."""

    def max_reply_wait_s(self) -> float | None:
        """The longest this transport lets a caller wait for one reply.

        ``None`` means unbounded (the in-process simulated network blocks
        until the handler returns).  Transports that abandon exchanges
        after an io window report it, so protocol code can avoid asking a
        *server* to keep working past the point its caller will have
        walked away — e.g. a lock request's queue wait is capped at this
        bound when the caller supplied no budget of its own.
        """
        return None

    # -- delivery (one attempt; implemented per transport) -------------------

    @abstractmethod
    def _transmit(self, message: Message) -> Message:
        """Deliver one request attempt and return the reply envelope.

        Raises :class:`MessageLostError` when the loss model ate either the
        request or the reply, and :class:`NodeUnreachableError` when the
        destination is gone.
        """

    @abstractmethod
    def _transmit_oneway(self, message: Message) -> None:
        """Deliver one one-way attempt (no reply)."""

    # -- public API ----------------------------------------------------------

    def call(self, src: str, dst: str, kind: MessageKind, payload: Any = None,
             deadline: Deadline | None = None) -> Any:
        """Request/response exchange; returns the reply payload value.

        Retries lost transmissions up to the retry budget, then surfaces
        :class:`MessageLostError`.  Exceptions raised by the remote handler
        re-raise here.  Implemented as ``call_async(...).result()`` so the
        blocking and future forms cannot diverge.

        ``deadline`` bounds the whole exchange (send, retries, and the
        reply wait) and rides the message header so the destination — and
        any nested calls its handler makes — inherits the remaining
        budget.  ``None`` inherits the ambient dispatch deadline when this
        call is made *inside* a handler, and is unbounded otherwise.
        """
        return self.call_async(src, dst, kind, payload, deadline).result()

    def call_async(self, src: str, dst: str, kind: MessageKind,
                   payload: Any = None,
                   deadline: Deadline | None = None) -> CallFuture:
        """``call`` as a :class:`CallFuture` — the scatter-gather primitive.

        The base transport completes the future eagerly on the calling
        thread (deterministic; no extra threads); natively asynchronous
        transports return a future whose round trip is genuinely in flight,
        so issuing N futures before collecting any overlaps N round trips.
        """
        message = build_message(kind, src, dst, payload,
                                effective_deadline(deadline))
        return self._transmit_async(message, batch=False)

    def call_many(self, src: str, dst: str,
                  requests: Sequence[tuple[MessageKind, Any]],
                  deadline: Deadline | None = None) -> list[Any]:
        """Batched request/response: many requests, one frame, one round trip.

        Each ``(kind, payload)`` pair executes at the destination exactly as
        an individual ``call`` would — its own message id, its own
        at-most-once reply-cache slot — but the batch crosses the network as
        a single BATCH envelope, so N requests cost one round trip instead
        of N.  Results return in request order.  Sub-requests execute
        *sequentially*, and the first failure stops the batch — exactly the
        behaviour of the sequence of ``call``s the batch replaces, where a
        raised error prevents the later calls from ever being issued.  That
        first error re-raises here.
        """
        return self.call_many_async(src, dst, requests, deadline).result()

    def call_many_async(self, src: str, dst: str,
                        requests: Sequence[tuple[MessageKind, Any]],
                        deadline: Deadline | None = None) -> CallFuture:
        """``call_many`` as a :class:`CallFuture` resolving to the result list.

        One BATCH frame, one future: combining batching (one round trip per
        destination) with scattering (futures to many destinations overlap)
        prices a multi-step fan-out at a single round-trip latency.  One
        ``deadline`` covers the whole batch; every sub-request carries it
        too, so each gets its own admission check at the destination.
        """
        if not requests:
            return CallFuture.completed([], f"{src} -> {dst}: empty BATCH")
        deadline = effective_deadline(deadline)
        subs = tuple(
            build_message(kind, src, dst, payload, deadline)
            for kind, payload in requests
        )
        batch = build_message(MessageKind.BATCH, src, dst, subs, deadline)
        return self._transmit_async(batch, batch=True)

    def stream(self, src: str, dst: str,
               requests: Iterable[tuple[MessageKind, Any]],
               window: int = 8,
               deadline: Deadline | None = None) -> list[Any]:
        """Windowed pipelined request sequence to one destination.

        The bulk-data primitive behind chunked OBJECT_TRANSFER: issues the
        ``(kind, payload)`` requests **in order**, keeping at most
        ``window`` exchanges outstanding — each new submission first
        collects the oldest outstanding reply, so a slow receiver applies
        backpressure instead of the sender buffering an unbounded frame
        queue.  Returns the reply values in request order.

        On the pipelined TCP transport the window's round trips genuinely
        overlap on the shared socket (a stream of N chunks costs ~N/window
        round-trip latencies plus transmission); on eagerly completing
        transports (the simulated network) every exchange runs inline at
        submission, so the message sequence is the deterministic
        one-call-per-chunk loop the figure traces expect.

        One ``deadline`` bounds the whole stream.  The first failed
        exchange raises after cancelling everything still outstanding —
        the caller sees either every reply or the error, never a silently
        shortened stream.  ``requests`` may be a lazy generator; chunk
        slices are then built only as the window advances.
        """
        if window < 1:
            raise ValueError(f"stream window must be >= 1, got {window}")
        deadline = effective_deadline(deadline)
        results: list[Any] = []
        outstanding: deque[CallFuture] = deque()
        try:
            for kind, payload in requests:
                if len(outstanding) >= window:
                    results.append(outstanding.popleft().result())
                outstanding.append(
                    self.call_async(src, dst, kind, payload, deadline=deadline)
                )
            while outstanding:
                results.append(outstanding.popleft().result())
        except Exception:
            for future in outstanding:
                if not future.done():
                    future.cancel("stream aborted by an earlier failure")
            raise
        return results

    def _transmit_async(self, message: Message, batch: bool) -> CallFuture:
        """Issue one exchange as a future.

        Default: run the whole exchange (with loss retries) eagerly on the
        calling thread and return the already-completed future — the
        deterministic behaviour the simulated network's reproducible traces
        depend on.  Transports with an asynchronous wire path override this.
        """
        future = CallFuture(message.describe)
        try:
            reply = self._transmit_with_retries(message)
        except Exception as exc:
            future._fail(exc)
        else:
            future._complete_from_reply(reply, batch)
        return future

    def _transmit_with_retries(self, message: Message) -> Message:
        """Shared retry loop for ``call`` / ``call_many``.

        A deadline on the message bounds the loop twice over.  An exchange
        whose budget is gone fails fast with :class:`CallTimeoutError`
        instead of burning the rest of the retry budget on a caller that
        stopped waiting (checked before the first attempt as well, so an
        already-expired call never touches the wire).  And the retry count
        itself is **deadline-aware**: before each retransmission the loop
        asks whether the remaining budget can still afford an attempt —
        priced at the dearest of the link's latency EWMA, the mean cost of
        the attempts already made, and a small floor — so an almost-expired
        call retries at most once rather than queueing ``retry_budget``
        transmissions nobody will wait for.  Without a deadline the fixed
        budget applies unchanged.
        """
        attempts = self.retry_budget + 1
        last_loss: MessageLostError | None = None
        started = time.monotonic()
        for attempt in range(attempts):
            if message.deadline is not None and message.deadline.expired:
                raise CallTimeoutError(
                    f"{message.describe()}: deadline expired"
                ) from last_loss
            if attempt > 0 and not self._can_afford_retry(
                    message, attempt, started):
                raise CallTimeoutError(
                    f"{message.describe()}: remaining deadline budget cannot "
                    f"afford retry {attempt}"
                ) from last_loss
            attempt_started = time.monotonic()
            try:
                reply = self._transmit(message)
            except MessageLostError as exc:
                last_loss = exc
                continue
            self.note_link_latency(
                message.dst, time.monotonic() - attempt_started
            )
            return reply
        raise MessageLostError(
            f"{message.describe()} lost {attempts} times (retry budget exhausted)"
        ) from last_loss

    def _can_afford_retry(self, message: Message, attempts_done: int,
                          started_monotonic: float) -> bool:
        """Whether the remaining deadline budget covers one more attempt."""
        deadline = message.deadline
        if deadline is None:
            return True
        expected_s = (time.monotonic() - started_monotonic) / attempts_done
        ewma_s = self.link_latency_s(message.dst)
        if ewma_s is not None:
            expected_s = max(expected_s, ewma_s)
        expected_s = max(expected_s, MIN_ATTEMPT_COST_S)
        return deadline.remaining_s() >= expected_s

    def cast(self, src: str, dst: str, kind: MessageKind, payload: Any = None) -> None:
        """One-way send; best-effort.

        Fire-and-forget semantics all the way down: a cast lost in flight
        or aimed at an unreachable node vanishes silently (the trace still
        records drops), exactly like a datagram.  Mobile-agent hops ride
        this — §3.5's asynchrony — so an agent sent into a dead node is
        lost, and the registry's verified find reports it missing.  A
        :class:`~repro.errors.ConfigurationError` — a TCP peer on another
        wire version — is a deployment fault, not a loss: it is traced as
        a drop and still raises.
        """
        message = build_message(kind, src, dst, payload)
        try:
            self._transmit_oneway(message)
        except (MessageLostError, NodeUnreachableError):
            pass

    # -- shared plumbing ------------------------------------------------------

    @staticmethod
    def _unwrap(reply: Message) -> Any:
        """Surface the reply value, re-raising marshalled handler exceptions.

        Protocol-level errors (our own :class:`~repro.errors.MageError`
        family) propagate as themselves; *servant* exceptions were already
        wrapped in :class:`~repro.errors.RemoteInvocationError` by the RMI
        invoker, traceback attached, before they reached the wire.
        """
        payload = reply.payload
        if isinstance(payload, ReplyPayload):
            error = payload.error
            if error is not None:
                raise error
            return payload.value
        return payload

    @staticmethod
    def execute_handler(message: Message, handler: MessageHandler,
                        cache: ReplyCache) -> ReplyPayload:
        """Run ``handler`` under at-most-once semantics; shared by transports.

        Single-flight: concurrent retransmissions of one message id (a
        retry racing a still-running original) converge on one handler
        execution — the duplicates wait and replay its reply.  Handler
        exceptions are marshalled into the reply; control-flow exceptions
        (``KeyboardInterrupt``/``SystemExit``) propagate uncached so they
        can actually stop the process instead of being replayed to callers
        forever.  BATCH envelopes dispatch each sub-request through this
        same path, so sub-requests get per-id deduplication too.

        Admission control: a request whose deadline expired in flight or
        while queued behind busy workers is *dropped at dequeue* — the
        handler never runs; the reply is :class:`CallTimeoutError` (the
        same outcome the caller's own expired wait produces).  While the
        handler runs, the request's deadline is ambient
        (:func:`repro.net.deadline.deadline_scope`), so nested calls the
        handler issues inherit the caller's shrinking budget.
        """
        # Message ids are unique per sender process only (every process
        # counts from 1), so the cache keys on who sent the request too.
        key = (message.src, message.msg_id)
        while True:
            token = cache.begin(key)
            if isinstance(token, ReplyPayload):
                return token
            if token is not None:  # another thread owns the flight
                token.wait()
                # The flight finished; loop to pick up its cached reply.
                # (A control-flow abort or eviction under capacity pressure
                # may have left no entry — then this thread claims the
                # flight and executes.)
                continue
            payload: ReplyPayload | None = None
            try:
                if message.deadline is not None and message.deadline.expired:
                    # The caller's budget is gone: executing now would do
                    # work nobody is waiting for.
                    payload = ReplyPayload(error=CallTimeoutError(
                        f"{message.describe()}: deadline expired before dispatch"
                    ))
                elif message.kind is MessageKind.BATCH:
                    # Sequential, fail-fast: a failed step prevents the
                    # later steps from running, like the sequence of calls
                    # the batch replaces (an instantiate that raised must
                    # not be followed by its publish).
                    sub_payloads: list[ReplyPayload] = []
                    for sub in message.payload:
                        sub_payload = Transport.execute_handler(
                            sub, handler, cache
                        )
                        sub_payloads.append(sub_payload)
                        if sub_payload.is_error:
                            break
                    value = tuple(sub_payloads)
                    payload = ReplyPayload(value=value)
                elif message.kind is MessageKind.AUTO_BATCH:
                    # Transport-coalesced *independent* calls: unlike BATCH
                    # there is no sequencing contract between sub-calls, so
                    # a failing sub must not shadow its siblings — every
                    # sub executes and replies individually.  The reply
                    # pairs each sub's message id with its outcome so the
                    # sending transport can demultiplex replies back to
                    # the right waiting callers.
                    pairs: list[tuple[str, ReplyPayload]] = []
                    for sub in message.payload:
                        sub_payload = Transport.execute_handler(
                            sub, handler, cache
                        )
                        pairs.append((sub.msg_id, sub_payload))
                    payload = ReplyPayload(value=tuple(pairs))
                elif (message.deadline is None
                        and current_deadline() is None):
                    # Unbounded request on a thread with no ambient
                    # deadline to mask: the scope would set None over
                    # None, so skip the context manager entirely.
                    value = handler(message)
                    payload = ReplyPayload(value=value)
                else:
                    with deadline_scope(message.deadline):
                        value = handler(message)
                    payload = ReplyPayload(value=value)
            except Exception as exc:  # marshalled back to the caller
                payload = ReplyPayload(error=exc)
            finally:
                cache.finish(key, payload)
            return payload
