"""The real TCP loopback transport."""

import threading
import time

import pytest

from repro.errors import ConfigurationError, NodeUnreachableError
from repro.net.message import Message, MessageKind
from repro.net.tcpnet import TcpNetwork


@pytest.fixture
def net():
    network = TcpNetwork()
    yield network
    network.shutdown()


class TestTcpDelivery:
    def test_round_trip(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: ("echo", m.payload))
        assert net.call("a", "b", MessageKind.PING, 42) == ("echo", 42)

    def test_payloads_cross_real_sockets(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: sum(m.payload))
        assert net.call("a", "b", MessageKind.PING, list(range(100))) == 4950

    def test_handler_exception_propagates(self, net):
        net.register("a", lambda m: None)

        def boom(message):
            raise ValueError("remote failure")

        net.register("b", boom)
        with pytest.raises(ValueError, match="remote failure"):
            net.call("a", "b", MessageKind.PING)

    def test_unknown_destination(self, net):
        net.register("a", lambda m: None)
        with pytest.raises(NodeUnreachableError):
            net.call("a", "ghost", MessageKind.PING)

    def test_unregistered_node_connection_refused(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: "ok")
        net.unregister("b")
        with pytest.raises(NodeUnreachableError):
            net.call("a", "b", MessageKind.PING)

    def test_each_node_gets_a_port(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        assert net.port_of("a") != net.port_of("b")

    def test_oneway_cast(self, net):
        done = threading.Event()
        net.register("a", lambda m: None)
        net.register("b", lambda m: done.set())
        net.cast("a", "b", MessageKind.AGENT_HOP, "state")
        assert done.wait(timeout=5.0)

    def test_concurrent_calls(self, net):
        net.register("client", lambda m: None)
        net.register("server", lambda m: m.payload * 2)
        results = {}

        def worker(i):
            results[i] = net.call("client", "server", MessageKind.PING, i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {i: i * 2 for i in range(8)}

    def test_trace_records_tcp_messages(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: "ok")
        net.call("a", "b", MessageKind.PING)
        kinds = net.trace.kinds()
        assert "PING" in kinds
        assert "REPLY(PING)" in kinds


class TestPipelinedConnection:
    def test_concurrent_calls(self, net):
        net.register("client", lambda m: None)
        net.register("server", lambda m: m.payload * 2)
        results = {}

        def worker(i):
            results[i] = net.call("client", "server", MessageKind.PING, i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {i: i * 2 for i in range(8)}

    def test_pipelined_calls_share_one_connection(self, net):
        net.register("client", lambda m: None)
        net.register("server", lambda m: m.payload)
        threads = [
            threading.Thread(
                target=net.call,
                args=("client", "server", MessageKind.PING, i),
            )
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert net.open_channels() == 1


class TestConfig:
    def test_retry_budget_is_forwarded(self):
        net = TcpNetwork(retry_budget=3)
        try:
            assert net.retry_budget == 3
        finally:
            net.shutdown()


class TestDropTracing:
    def test_cast_to_unknown_destination_traces_a_drop(self, net):
        net.register("a", lambda m: None)
        net.cast("a", "ghost", MessageKind.AGENT_HOP, "state")  # must not raise
        dropped = [e for e in net.trace.events() if e.dropped]
        assert len(dropped) == 1
        assert dropped[0].kind == "AGENT_HOP"
        assert dropped[0].dst == "ghost"


class TestAtMostOnce:
    def test_duplicate_retransmission_executes_handler_once(self, net):
        """Two concurrent transmissions of one message id (a retry racing
        the delayed original) must run the handler exactly once."""
        started = threading.Event()
        release = threading.Event()
        calls = []

        def slow_handler(message):
            calls.append(message.msg_id)
            started.set()
            release.wait(5)
            return "slow"

        net.register("a", lambda m: None)
        net.register("b", slow_handler)
        message = Message(kind=MessageKind.PING, src="a", dst="b")
        replies = []

        def transmit():
            replies.append(net._transmit_async(message, batch=False).result())

        original = threading.Thread(target=transmit)
        original.start()
        assert started.wait(5)
        retransmission = threading.Thread(target=transmit)
        retransmission.start()
        time.sleep(0.1)  # the duplicate reaches the server mid-flight
        release.set()
        original.join(5)
        retransmission.join(5)
        assert len(calls) == 1
        assert replies == ["slow", "slow"]


class TestControlFlowAbort:
    def test_aborted_handler_fails_fast_and_is_not_cached(self, net):
        """A handler dying with KeyboardInterrupt answers the caller with
        an uncached TransportError immediately (no reply-timeout hang);
        a retransmission of the same message id executes afresh."""
        from repro.errors import TransportError

        calls = []

        def interrupted_once(message):
            calls.append(1)
            if len(calls) == 1:
                raise KeyboardInterrupt()
            return "recovered"

        net.register("a", lambda m: None)
        net.register("b", interrupted_once)
        message = Message(kind=MessageKind.PING, src="a", dst="b")
        start = time.time()
        with pytest.raises(TransportError, match="aborted by KeyboardInterrupt"):
            net._transmit_async(message, batch=False).result()
        assert time.time() - start < 5  # failed fast, no timeout wait
        retry = net._transmit_async(message, batch=False)
        assert retry.result() == "recovered"
        assert len(calls) == 2


class TestRegisterReplacement:
    def test_replacing_a_live_node_changes_port_and_serves_new_handler(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: "old")
        assert net.call("a", "b", MessageKind.PING) == "old"
        old_port = net.port_of("b")
        net.register("b", lambda m: "new")
        assert net.port_of("b") != old_port
        assert net.call("a", "b", MessageKind.PING) == "new"

    def test_in_flight_call_surfaces_unreachable_on_replacement(self, net):
        entered = threading.Event()
        hold = threading.Event()

        def stuck_handler(message):
            entered.set()
            hold.wait(10)
            return "too late"

        net.register("a", lambda m: None)
        net.register("b", stuck_handler)
        outcome = {}

        def caller():
            try:
                outcome["value"] = net.call("a", "b", MessageKind.PING)
            except NodeUnreachableError:
                outcome["unreachable"] = True

        thread = threading.Thread(target=caller)
        thread.start()
        assert entered.wait(5)
        net.register("b", lambda m: "replacement")  # severs the old server
        thread.join(5)
        hold.set()
        assert outcome == {"unreachable": True}
        # The transport recovers: new calls reach the replacement handler.
        assert net.call("a", "b", MessageKind.PING) == "replacement"


class TestCallMany:
    def test_batch_over_tcp(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: ("echo", m.payload))
        values = net.call_many(
            "a", "b", [(MessageKind.PING, i) for i in range(4)]
        )
        assert values == [("echo", i) for i in range(4)]

    def test_batch_rides_one_frame(self, net):
        net.register("a", lambda m: None)
        net.register("b", lambda m: m.payload)
        net.call_many("a", "b", [(MessageKind.PING, i) for i in range(6)])
        assert net.trace.kinds() == ["BATCH", "REPLY(BATCH)"]


class TestEmulatedLinkLatency:
    """The tc-netem-style ``latency_ms`` knob."""

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            TcpNetwork(latency_ms=-1.0)

    def test_delay_is_charged_per_request(self):
        net = TcpNetwork(latency_ms=50.0)
        try:
            net.register("a", lambda m: None)
            net.register("b", lambda m: m.payload)
            start = time.perf_counter()
            assert net.call("a", "b", MessageKind.PING, 1) == 1
            assert time.perf_counter() - start >= 0.05
        finally:
            net.shutdown()

    def test_delayed_requests_still_pipeline(self):
        """Concurrent futures share the link delay instead of queueing.

        Compared against a measured sequential baseline (not an absolute
        wall-clock bound) so a loaded CI runner cannot flake this."""
        net = TcpNetwork(latency_ms=100.0)
        try:
            net.register("a", lambda m: None)
            net.register("b", lambda m: m.payload)
            net.call("a", "b", MessageKind.PING, -1)  # warm the channel
            start = time.perf_counter()
            for i in range(4):
                assert net.call("a", "b", MessageKind.PING, i) == i
            sequential = time.perf_counter() - start
            start = time.perf_counter()
            futures = [net.call_async("a", "b", MessageKind.PING, i)
                       for i in range(4)]
            assert [f.result() for f in futures] == [0, 1, 2, 3]
            overlapped = time.perf_counter() - start
            assert overlapped < 0.6 * sequential, (sequential, overlapped)
        finally:
            net.shutdown()
