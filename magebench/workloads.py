"""The benchmark's workloads and the op bookkeeping they share.

Every op's result is checked.  A wrong result or a raised error counts as
a failed op (by kind and reason) and is never retried.

* :func:`rmi_closed` — blocking ``stub.echo(token)`` calls, 16-byte tokens.
* :func:`rmi_window` — ``stub.futures.echo(blob)`` with a window of calls
  in flight per thread, blob sizes drawn 8:3:1 from 16 B / 1 KiB / 64 KiB.
* :class:`Mobility` — one thread cycling Table 3's operations: TCOD, TREV,
  MA, find, lock+move and an invoke on the moved object.  One cycle is
  one op; its steps are timed and checked one by one.
"""

from __future__ import annotations

import collections
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.factory import FactoryMode
from repro.core.models import COD, MAgent, REV
from repro.net.message import Message, MessageKind
from repro.net.wirecodec import decode_envelope, encode_envelope
from repro.rmi.marshal import marshal_call, unmarshal
from repro.rmi.protocol import InvokeRequest

from servants import Mobile, RevCounter
from spans import Tracer

clock = time.perf_counter

#: Mobility step kinds: Table 3's rows in paper order, then the rest.
MOBILITY_KINDS = ("rmi", "tcod", "ma", "trev", "find", "lock_move")

#: ``rmi_window`` blob sizes and their 8:3:1 draw weights.
BLOB_SIZES = (16, 1024, 64 * 1024)
BLOB_WEIGHTS = (8, 3, 1)
WINDOW = 16
#: How long a caller waits for one reply before counting the op failed.
REPLY_TIMEOUT_S = 20.0

#: ``mobility_mix`` objects: one in four carries streamed-size state.
POOL = 4
SMALL_STATE = 256
LARGE_STATE = 512 * 1024
#: A traced thread times one ping per this many traced ops.
PING_EVERY = 16


class WrongResult(Exception):
    """An op returned something other than its checked expectation."""


class Recorder:
    """One thread's outcomes; :meth:`merge` combines threads.

    An op is what ``ops_per_s`` counts: one echo call on the RMI
    workloads, one whole cycle on ``mobility_mix``.  Steps are the
    individual checked calls, keyed by kind; on the RMI workloads each op
    is one ``rmi`` step.  A failed op records exactly one failure (the
    step that failed and why), so ``failed`` counts failed ops.
    """

    def __init__(self) -> None:
        self.ops: list[float] = []
        self.steps: dict[str, list[float]] = collections.defaultdict(list)
        self.failures: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self.payload_bytes = 0

    def op(self, seconds: float, payload: int) -> None:
        self.ops.append(seconds)
        self.payload_bytes += payload

    def fail(self, kind: str, reason: str) -> None:
        self.failures[(kind, reason)] += 1

    @property
    def succeeded(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @classmethod
    def merge(cls, parts: list["Recorder"]) -> "Recorder":
        merged = cls()
        for part in parts:
            merged.ops.extend(part.ops)
            for kind, values in part.steps.items():
                merged.steps[kind].extend(values)
            merged.failures.update(part.failures)
            merged.counts.update(part.counts)
            merged.payload_bytes += part.payload_bytes
        return merged


def attempt(rec: Recorder, tracer: Tracer, kind: str, op: int,
            call: Callable[[], Any], expected: Any) -> float | None:
    """Run one step, check its result and record it.

    Returns the step's latency in seconds, or ``None`` when it raised or
    returned something other than ``expected`` (recorded as a failure).
    """
    handle = tracer.begin("op." + kind, op)
    started = clock()
    try:
        got = call()
    except Exception as exc:  # every op failure is data, never fatal
        tracer.end(handle)
        rec.fail(kind, type(exc).__name__)
        return None
    elapsed = clock() - started
    tracer.end(handle)
    if got != expected:
        rec.fail(kind, WrongResult.__name__)
        return None
    rec.steps[kind].append(elapsed)
    return elapsed


def layer_probes(tracer: Tracer, op: int, name: str, method: str,
                 args: tuple, ping: Callable[[], bool] | None = None) -> None:
    """Traced ops only: time the marshal and envelope work for ``args``.

    These are the benchmark's own calls into ``repro.rmi.marshal`` and
    ``repro.net.wirecodec`` on an INVOKE carrying the op's arguments, plus
    one ``MageServer.ping`` when ``ping`` is given.
    """
    with tracer.span("rmi.marshal", op):
        unmarshal(marshal_call(args, {}))
    message = Message(
        kind=MessageKind.INVOKE, src="client", dst="server",
        payload=InvokeRequest(name=name, method=method,
                              args_blob=marshal_call(args, {})),
    )
    with tracer.span("net.envelope_encode", op):
        parts = encode_envelope(message)
    frame = b"".join(parts)
    with tracer.span("net.envelope_decode", op):
        decode_envelope(frame)
    if ping is not None:
        with tracer.span("net.ping", op):
            ping()


# -- RMI workloads ------------------------------------------------------------


def rmi_closed(stub: Any, rec: Recorder, tracer: Tracer, rng: random.Random,
               stop_at: float, ping: Callable[[], bool] | None) -> None:
    """One caller thread: blocking echo calls with unique 16-byte tokens."""
    prefix = rng.randbytes(8)
    i = 0
    while clock() < stop_at:
        i += 1
        token = prefix + i.to_bytes(8, "big")

        def call(token: bytes = token) -> bytes:
            with tracer.span("rmi.stub_call"):
                return stub.echo(token)

        traced = tracer.enabled
        elapsed = attempt(rec, tracer, "rmi", i, call, token)
        if elapsed is not None:
            rec.op(elapsed, 2 * len(token))
        if traced:
            layer_probes(tracer, i, "echo", "echo", (token,),
                         ping if i % PING_EVERY == 0 else None)


@dataclass
class _InFlight:
    op: int
    blob: bytes
    issued: float
    traced: bool
    future: Any


def rmi_window(stub: Any, rec: Recorder, tracer: Tracer, rng: random.Random,
               stop_at: float, ping: Callable[[], bool] | None) -> None:
    """One caller thread keeping ``WINDOW`` echo futures in flight.

    Replies are collected oldest first.  Each blob is random bytes with a
    unique 8-byte stamp in front, so a reply can only match its own call.
    """
    bases = {size: rng.randbytes(size) for size in BLOB_SIZES}
    window: collections.deque[_InFlight] = collections.deque()
    i = 0
    while True:
        now = clock()
        while now < stop_at and len(window) < WINDOW:
            i += 1
            size = rng.choices(BLOB_SIZES, BLOB_WEIGHTS)[0]
            blob = i.to_bytes(8, "big") + bases[size][8:]
            window.append(_InFlight(i, blob, clock(), tracer.enabled,
                                    stub.futures.echo(blob)))
        if not window:
            return
        call = window.popleft()
        try:
            got = call.future.result(REPLY_TIMEOUT_S)
        except Exception as exc:  # every op failure is data, never fatal
            rec.fail("rmi", type(exc).__name__)
            continue
        done = clock()
        if got != call.blob:
            rec.fail("rmi", WrongResult.__name__)
            continue
        rec.steps["rmi"].append(done - call.issued)
        rec.op(done - call.issued, 2 * len(call.blob))
        if call.traced:
            tracer.record("rmi.stub_call", call.issued, done, call.op)
            layer_probes(tracer, call.op, "echo", "echo", (call.blob,),
                         ping if call.op % PING_EVERY == 0 else None)


# -- mobility_mix ---------------------------------------------------------------


@dataclass
class _Slot:
    name: str
    size: int
    count: int = 0


class Mobility:
    """Table 3's operations, cycled against the server process.

    A pool of :data:`POOL` objects lives in ``client``; one carries
    :data:`LARGE_STATE` bytes, so its moves stream as PREPARE/CHUNK/COMMIT.
    Each cycle takes the next object on a round trip: lock+move it to
    ``server``, find it, invoke it over the wire, lock+move it back and
    invoke it through the in-process bypass.  Every cycle therefore has the
    same steps, and only one in four moves the large object.
    """

    def __init__(self, namespace: Any, rng: random.Random, tracer: Tracer,
                 tag: str) -> None:
        self.ns = namespace
        self.rng = rng
        self.tracer = tracer
        self.tag = tag
        self._made = 0
        self._turn = 0
        self.last_agents: collections.deque[str] = collections.deque(maxlen=8)
        namespace.register_class(RevCounter)
        self.cod = COD(f"cod-{tag}", class_name="CodCounter", source="server",
                       mode=FactoryMode.TRADITIONAL, runtime=namespace)
        self.rev = REV("RevCounter", f"rev-{tag}", "server",
                       mode=FactoryMode.TRADITIONAL, runtime=namespace)
        large = rng.randrange(POOL)
        self.slots = [self._fresh(k == large) for k in range(POOL)]

    def _fresh(self, large: bool) -> _Slot:
        self._made += 1
        name = f"mob-{self.tag}-{self._made}"
        blob = self.rng.randbytes(LARGE_STATE if large else SMALL_STATE)
        self.ns.register(name, Mobile(blob))
        return _Slot(name, len(blob))

    def _replace(self, index: int) -> None:
        """Continue with a fresh object after a failed step on this slot."""
        self.slots[index] = self._fresh(self.slots[index].size == LARGE_STATE)

    def cycle(self, rec: Recorder, op: int,
              ping: Callable[[], bool] | None = None,
              after_step: Callable[[str], None] | None = None) -> None:
        """One op: the cycle's steps in order, stopping at the first failure.

        ``after_step(kind)`` runs after each step that ran.
        """
        tracer = self.tracer
        handle = tracer.begin("op.cycle", op)
        started = clock()
        payload = self._steps(rec, op, ping, after_step or (lambda kind: None))
        elapsed = clock() - started
        tracer.end(handle)
        if payload is not None:
            rec.op(elapsed, payload)

    def _steps(self, rec: Recorder, op: int, ping: Callable[[], bool] | None,
               step: Callable[[str], None]) -> int | None:
        """Run the cycle's steps; returns the state bytes moved, or None."""
        ns, span, tracer = self.ns, self.tracer.span, self.tracer

        def tcod() -> int:
            with span("core.bind.tcod"):
                stub = self.cod.bind()
            with span("core.first_invoke.tcod"):
                return stub.increment()

        def trev() -> int:
            with span("core.bind.trev"):
                stub = self.rev.bind()
            with span("core.first_invoke.trev"):
                return stub.increment()

        def ma() -> None:
            name = f"ma-{self.tag}-{op}"
            agent = MAgent(name, "server", class_name="RevCounter", runtime=ns)
            with span("core.bind.ma"):
                agent.bind()
            agent.send("increment")
            self.last_agents.append(name)

        for kind, call, expected in (("tcod", tcod, 1), ("trev", trev, 1),
                                     ("ma", ma, None)):
            ok = attempt(rec, tracer, kind, op, call, expected) is not None
            step(kind)
            if not ok:
                return None

        index = self._turn % POOL
        self._turn += 1
        slot = self.slots[index]
        if not self._visit(rec, op, slot, "server", step):
            self._replace(index)
            return None
        if tracer.enabled:
            layer_probes(tracer, op, slot.name, "bump", (), ping)
        if not self._visit(rec, op, slot, "client", step):
            self._replace(index)
            return None
        return 2 * slot.size

    def _visit(self, rec: Recorder, op: int, slot: _Slot, dest: str,
               step: Callable[[str], None]) -> bool:
        """Lock+move ``slot`` to ``dest``, then invoke it there.

        Moving out to ``server``, a ``find`` with the origin hint sits
        between the move and the invoke, which crosses the wire.  Moving
        back to ``client``, the invoke takes the in-process bypass.
        """
        ns, span, tracer = self.ns, self.tracer.span, self.tracer
        move_span = ("runtime.move_streamed" if slot.size == LARGE_STATE
                     else "runtime.move_small")

        def lock_move() -> str:
            with span("runtime.lock"):
                grant = ns.lock(slot.name, dest, origin_hint="client")
            try:
                with span(move_span):
                    return ns.move(slot.name, dest, origin_hint="client",
                                   lock_token=grant.token)
            finally:
                with span("runtime.unlock"):
                    ns.unlock(grant)

        ok = attempt(rec, tracer, "lock_move", op, lock_move, dest) is not None
        step("lock_move")
        if not ok:
            return False

        if dest == "server":
            def find() -> str:
                with span("runtime.find"):
                    return ns.find(slot.name, origin_hint="client")

            ok = attempt(rec, tracer, "find", op, find, dest) is not None
            step("find")
            if not ok:
                return False

        stub = ns.stub(slot.name, location=dest)
        hits = ns.client.local_hits
        wire = dest == "server"

        def invoke() -> int:
            with span("rmi.stub_call" if wire else "rmi.bypass_call"):
                return stub.bump()

        kind = "rmi" if wire else "rmi_bypass"
        ok = attempt(rec, tracer, kind, op, invoke, slot.count + 1) is not None
        step(kind)
        if not wire:
            rec.counts["bypass_expected"] += 1
            rec.counts["bypass_hit"] += ns.client.local_hits > hits
        if ok:
            slot.count += 1
        return ok

    def check_agents(self) -> list[str]:
        """Agents whose one-way ``increment`` did not take effect."""
        lost = []
        for name in self.last_agents:
            if self.ns.stub(name, location="server").increment() != 2:
                lost.append(name)
        return lost
