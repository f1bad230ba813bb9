"""The Deadline call context: budgets that shrink across hops.

Covers the contract the runtime's chases and sweeps build on:

* ``Deadline`` itself (monotonic anchoring, remaining/expired, tighter,
  re-anchoring across pickle — the wire treatment);
* deadline-bounded calls on both transports: an expired deadline fails
  fast without touching the wire, an in-flight deadline caps the reply
  wait below the io timeout;
* admission control: a request whose deadline expired before dispatch is
  dropped at dequeue (the handler never runs);
* propagation: the deadline rides the message header, is ambient during
  dispatch, and is inherited by nested calls — so a forwarding chain
  spends one shrinking budget, not a fresh io timeout per hop;
* determinism: an unexpired deadline leaves the simulated network's
  message trace identical to the no-deadline run.
"""

import pickle
import threading
import time

import pytest

from repro.errors import CallTimeoutError
from repro.net.deadline import (
    Deadline,
    current_deadline,
    deadline_scope,
    effective_deadline,
)
from repro.net.message import MessageKind
from repro.net.simnet import SimNetwork
from repro.net.tcpnet import TcpNetwork


@pytest.fixture
def net():
    network = TcpNetwork(io_timeout_s=5.0)
    yield network
    network.shutdown()


class TestDeadline:
    def test_remaining_shrinks_and_expires(self):
        deadline = Deadline.after_ms(30)
        assert 0 < deadline.remaining_ms() <= 30
        assert not deadline.expired
        time.sleep(0.05)
        assert deadline.expired
        assert deadline.remaining_ms() == 0.0
        assert deadline.remaining_s() == 0.0

    def test_after_s_and_after_ms_agree(self):
        a = Deadline.after_s(1.0)
        b = Deadline.after_ms(1000.0)
        assert abs(a.remaining_s() - b.remaining_s()) < 0.05

    def test_tighter_picks_the_earlier(self):
        near = Deadline.after_ms(10)
        far = Deadline.after_ms(10_000)
        assert Deadline.tighter(near, far) is near
        assert Deadline.tighter(far, near) is near
        assert Deadline.tighter(None, near) is near
        assert Deadline.tighter(near, None) is near
        assert Deadline.tighter(None, None) is None

    def test_pickle_reanchors_remaining_budget(self):
        deadline = Deadline.after_ms(500)
        time.sleep(0.05)  # spend some budget before "transmission"
        clone = pickle.loads(pickle.dumps(deadline))
        assert clone.remaining_ms() <= deadline.remaining_ms() + 1.0
        assert clone.remaining_ms() > 300  # the spent part stayed spent
        assert not clone.expired

    def test_expired_deadline_pickles_expired(self):
        deadline = Deadline.after_ms(1)
        time.sleep(0.01)
        clone = pickle.loads(pickle.dumps(deadline))
        assert clone.expired

    def test_scope_sets_and_restores_ambient(self):
        assert current_deadline() is None
        outer = Deadline.after_s(10)
        with deadline_scope(outer):
            assert current_deadline() is outer
            assert effective_deadline(None) is outer
            explicit = Deadline.after_s(1)
            assert effective_deadline(explicit) is explicit
            with deadline_scope(None):
                # An unbounded nested dispatch must not inherit the outer
                # request's budget.
                assert current_deadline() is None
            assert current_deadline() is outer
        assert current_deadline() is None


class TestSimDeadline:
    def test_expired_deadline_fails_before_the_wire(self):
        sim = SimNetwork()
        sim.register("a", lambda m: None)
        sim.register("b", lambda m: "pong")
        before = len(sim.trace)
        expired = Deadline.after_ms(0)
        time.sleep(0.002)
        with pytest.raises(CallTimeoutError):
            sim.call("a", "b", MessageKind.PING, deadline=expired)
        assert len(sim.trace) == before  # nothing was transmitted

    def test_handler_sees_the_shrinking_budget(self):
        sim = SimNetwork()
        seen = {}

        def handler(message):
            seen["header"] = message.deadline
            seen["ambient_remaining"] = current_deadline().remaining_ms()
            return "ok"

        sim.register("a", lambda m: None)
        sim.register("b", handler)
        assert sim.call("a", "b", MessageKind.PING,
                        deadline=Deadline.after_ms(5000)) == "ok"
        assert seen["header"] is not None
        assert 0 < seen["ambient_remaining"] <= 5000

    def test_nested_call_inherits_the_deadline(self):
        """A handler's own calls carry the caller's budget — the chain-walk
        propagation the lock/move chases rely on."""
        sim = SimNetwork()
        remaining_at = {}

        def relay(message):
            remaining_at["b"] = current_deadline().remaining_ms()
            time.sleep(0.05)  # spend budget at this hop
            return sim.call("b", "c", MessageKind.PING)  # no explicit deadline

        def leaf(message):
            remaining_at["c"] = message.deadline.remaining_ms()
            return "leaf"

        sim.register("a", lambda m: None)
        sim.register("b", relay)
        sim.register("c", leaf)
        answer = sim.call("a", "b", MessageKind.PING,
                          deadline=Deadline.after_ms(5000))
        assert answer == "leaf"
        # The leaf hop saw strictly less budget than the relay hop had.
        assert remaining_at["c"] < remaining_at["b"] - 40

    def test_unbounded_call_after_bounded_dispatch_stays_unbounded(self):
        sim = SimNetwork()
        seen = {}

        def handler(message):
            seen[message.payload] = message.deadline
            return "ok"

        sim.register("a", lambda m: None)
        sim.register("b", handler)
        sim.call("a", "b", MessageKind.PING, "bounded",
                 deadline=Deadline.after_s(5))
        sim.call("a", "b", MessageKind.PING, "unbounded")
        assert seen["bounded"] is not None
        assert seen["unbounded"] is None

    def test_expired_at_dispatch_is_dropped_not_executed(self):
        """Admission control: the handler never runs for a request whose
        deadline died in flight (emulated by expiring it mid-handler of a
        relay hop)."""
        sim = SimNetwork()
        executed = []

        def relay(message):
            time.sleep(0.06)  # burn the whole budget before forwarding
            return sim.call("b", "c", MessageKind.PING)

        def leaf(message):
            executed.append(message.payload)
            return "leaf"

        sim.register("a", lambda m: None)
        sim.register("b", relay)
        sim.register("c", leaf)
        with pytest.raises(CallTimeoutError):
            sim.call("a", "b", MessageKind.PING,
                     deadline=Deadline.after_ms(20))
        assert executed == []  # the second hop was dropped at dispatch

    def test_unexpired_deadline_keeps_the_trace_identical(self):
        def run(deadline):
            sim = SimNetwork()
            sim.register("a", lambda m: None)
            sim.register("b", lambda m: m.payload)
            for i in range(3):
                sim.call("a", "b", MessageKind.PING, i, deadline=deadline)
            return sim.trace.arrows(remote_only=True)

        assert run(None) == run(Deadline.after_s(60))


class TestTcpDeadline:
    def test_deadline_caps_the_reply_wait(self, net):
        """A 200 ms deadline beats the 5 s io timeout on a hung host."""
        net.register("a", lambda m: None)
        release = threading.Event()

        def hang(message):
            release.wait(3.0)
            return "late"

        net.register("b", hang)
        start = time.perf_counter()
        with pytest.raises(CallTimeoutError):
            net.call("a", "b", MessageKind.PING,
                     deadline=Deadline.after_ms(200))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.5, f"deadline did not cap the wait: {elapsed:.2f}s"
        release.set()

    def test_expired_deadline_never_touches_the_wire(self, net):
        net.register("a", lambda m: None)
        reached = []
        net.register("b", lambda m: reached.append(m.payload))
        expired = Deadline.after_ms(0)
        time.sleep(0.002)
        future = net.call_async("a", "b", MessageKind.PING, "x",
                                deadline=expired)
        assert isinstance(future.exception(), CallTimeoutError)
        # Give any stray frame a moment, then confirm nothing arrived.
        time.sleep(0.1)
        assert reached == []

    def test_deadline_decrements_across_the_wire(self, net):
        """The pickled header re-anchors to the remaining budget: the
        handler sees less than the caller granted, more than zero."""
        seen = {}

        def handler(message):
            seen["remaining"] = message.deadline.remaining_ms()
            return "ok"

        net.register("a", lambda m: None)
        net.register("b", handler)
        assert net.call("a", "b", MessageKind.PING,
                        deadline=Deadline.after_ms(2000)) == "ok"
        assert 0 < seen["remaining"] <= 2000

    def test_nested_call_inherits_across_tcp_hops(self, net):
        remaining_at = {}

        def relay(message):
            remaining_at["b"] = current_deadline().remaining_ms()
            time.sleep(0.05)
            return net.call("b", "c", MessageKind.PING)

        def leaf(message):
            remaining_at["c"] = message.deadline.remaining_ms()
            return "leaf"

        net.register("a", lambda m: None)
        net.register("b", relay)
        net.register("c", leaf)
        assert net.call("a", "b", MessageKind.PING,
                        deadline=Deadline.after_ms(5000)) == "leaf"
        assert remaining_at["c"] < remaining_at["b"] - 40

    def test_expired_request_dropped_at_dequeue(self):
        """Admission control: a frame whose deadline dies on the (emulated)
        link is dropped at dispatch — the handler never runs for it."""
        executed = []

        def handler(message):
            executed.append(message.payload)
            return "ok"

        slow = TcpNetwork(latency_ms=150.0, io_timeout_s=5.0)
        try:
            slow.register("a", lambda m: None)
            slow.register("b", handler)
            # Without a deadline the link delay is just paid.
            assert slow.call("a", "b", MessageKind.PING, "warm") == "ok"
            doomed = slow.call_async("a", "b", MessageKind.PING, "doomed",
                                     deadline=Deadline.after_ms(50))
            with pytest.raises(CallTimeoutError):
                doomed.result()
            time.sleep(0.4)  # let the frame clear the emulated link
            assert executed == ["warm"]
        finally:
            slow.shutdown()

    def test_blocking_calls_honour_deadlines(self):
        network = TcpNetwork(io_timeout_s=5.0)
        try:
            network.register("a", lambda m: None)
            network.register("b", lambda m: m.payload)
            assert network.call("a", "b", MessageKind.PING, 7,
                                deadline=Deadline.after_s(5)) == 7
            expired = Deadline.after_ms(0)
            time.sleep(0.002)
            with pytest.raises(CallTimeoutError):
                network.call("a", "b", MessageKind.PING, deadline=expired)
        finally:
            network.shutdown()
