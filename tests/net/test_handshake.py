"""HELLO handshake, wire-level codec negotiation, and the address book.

Two ``TcpNetwork`` instances in one test process stand in for two
*processes*: they share no node registry, so anything that works between
them — dialing, codec negotiation, reply routing — provably happened on
the wire, not through in-process state.  A raw-socket peer
(:mod:`foreign_peer`) stands in for a foreign build: another protocol
version, a silent listener, a peer that skips its HELLO or sends a
pickle where an envelope belongs.  Each must fail loudly, and only its
own connection.
"""

import pickle
import time

import pytest
from foreign_peer import (
    ForeignServer,
    closed_by_peer,
    dial,
    envelope_frame,
    frame,
    hello,
    hello_frame,
    read_frame,
    read_hello,
)

from repro.errors import ConfigurationError, NodeUnreachableError
from repro.net import codec, wirecodec
from repro.net.endpoint import PROTOCOL_VERSION, Endpoint, Hello
from repro.net.message import Message, MessageKind
from repro.net.tcpnet import TcpNetwork

BIG = b"state" * 100_000  # well above the compress threshold


@pytest.fixture
def nets():
    """Factory for isolated transports, all torn down after the test."""
    created = []

    def factory(**kwargs):
        kwargs.setdefault("compress_threshold", 1024)
        net = TcpNetwork(**kwargs)
        created.append(net)
        return net

    yield factory
    for net in created:
        net.shutdown()


def link(a, a_node, b, b_node):
    """Teach two transports each other's endpoint (a seed list in miniature)."""
    a.connect(b_node, b.endpoint_of(b_node))
    b.connect(a_node, a.endpoint_of(a_node))


class TestEndpoint:
    def test_parse_roundtrip(self):
        endpoint = Endpoint.parse("10.0.0.7:9001")
        assert endpoint == Endpoint("10.0.0.7", 9001)
        assert str(endpoint) == "10.0.0.7:9001"
        assert endpoint.address() == ("10.0.0.7", 9001)

    def test_parse_rejects_garbage(self):
        for bad in ("no-port", ":123", "host:notaport"):
            with pytest.raises(ConfigurationError):
                Endpoint.parse(bad)

    def test_port_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            Endpoint("h", 0)
        with pytest.raises(ConfigurationError):
            Endpoint("h", 70000)


class TestAddressBook:
    def test_unknown_peer_is_unreachable(self, nets):
        net = nets()
        net.register("a", lambda m: "ok")
        with pytest.raises(NodeUnreachableError):
            net.call("a", "stranger", MessageKind.PING)

    def test_connected_peer_is_dialable_and_listed(self, nets):
        a, b = nets(), nets()
        a.register("hub", lambda m: "ok")
        b.register("worker", lambda m: "pong")
        a.connect("worker", b.endpoint_of("worker"))
        assert a.nodes() == ["hub", "worker"]
        assert a.call("hub", "worker", MessageKind.PING) == "pong"

    def test_rejoining_peer_new_endpoint_wins_over_stale_entry(self, nets):
        """A peer that comes back on a fresh port must be dialed there —
        the stale address-book entry (and channels built on it) lose."""
        a = nets()
        a.register("hub", lambda m: "ok")
        first = nets()
        first.register("worker", lambda m: "first-incarnation")
        a.connect("worker", first.endpoint_of("worker"))
        assert a.call("hub", "worker", MessageKind.PING) == "first-incarnation"
        assert a.open_channels() == 1

        second = nets()
        second.register("worker", lambda m: "second-incarnation")
        first.shutdown()
        a.connect("worker", second.endpoint_of("worker"))  # re-join, new port
        assert a.call("hub", "worker", MessageKind.PING) == "second-incarnation"
        assert a.endpoint_of("worker") == second.endpoint_of("worker")

    def test_forget_peer_prunes_every_record(self, nets):
        a, b = nets(), nets()
        a.register("hub", lambda m: "ok")
        b.register("worker", lambda m: "pong")
        a.connect("worker", b.endpoint_of("worker"))
        assert a.call("hub", "worker", MessageKind.PING) == "pong"
        assert a.link_latency_s("worker") is not None  # EWMA recorded
        a.forget_peer("worker")
        assert a.endpoint_of("worker") is None
        assert a.link_latency_s("worker") is None
        assert "worker" not in a.nodes()
        assert a.open_channels() == 0

    def test_unregister_prunes_link_state(self, nets):
        """Deregistration of a local node leaves no EWMA or channel
        behind (a long-lived transport must not leak per-peer state)."""
        net = nets()
        net.register("a", lambda m: "ok")
        net.register("b", lambda m: "pong")
        assert net.call("a", "b", MessageKind.PING) == "pong"
        assert net.link_latency_s("b") is not None
        net.unregister("b")
        assert net.link_latency_s("b") is None
        assert net.open_channels() == 0

    def test_fixed_port_pinning(self, nets):
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        net = nets(ports={"seed": port})
        net.register("seed", lambda m: "pong")
        assert net.port_of("seed") == port
        assert net.endpoint_of("seed") == Endpoint("127.0.0.1", port)


class TestHandshake:
    def test_codec_negotiation_happens_on_the_wire(self, nets, monkeypatch):
        """Two transports that share no registry still compress toward
        each other — the advertisement crossed in the HELLO frames.
        (uds=False: a same-host Unix-socket channel would skip
        compression outright; force TCP to observe the negotiated path.)"""
        a, b = nets(uds=False), nets(uds=False)
        a.register("hub", lambda m: "ok")
        b.register("worker", lambda m: len(m.payload))
        link(a, "hub", b, "worker")
        compressions = []
        real_encode = codec.encode
        monkeypatch.setattr(
            codec, "encode",
            lambda ident, blob: compressions.append(ident) or real_encode(ident, blob),
        )
        assert a.call("hub", "worker", MessageKind.INVOKE, BIG) == len(BIG)
        assert codec.ZLIB in compressions
        assert a.negotiated_codecs("hub", "worker") == codec.available_codecs()

    def test_hello_frames_do_not_appear_in_traces(self, nets):
        a, b = nets(), nets()
        a.register("hub", lambda m: "ok")
        b.register("worker", lambda m: "pong")
        link(a, "hub", b, "worker")
        assert a.call("hub", "worker", MessageKind.PING) == "pong"
        assert set(b.trace.kinds()) == {"PING", "REPLY(PING)"}

    def test_pipelined_traffic_after_handshake(self, nets):
        """The handshake must not disturb the pipelined waiter machinery:
        N overlapped exchanges on the freshly negotiated channel."""
        a, b = nets(), nets()
        a.register("hub", lambda m: "ok")
        b.register("worker", lambda m: m.payload * 2)
        link(a, "hub", b, "worker")
        futures = [
            a.call_async("hub", "worker", MessageKind.INVOKE, i)
            for i in range(16)
        ]
        assert [f.result(5.0) for f in futures] == [i * 2 for i in range(16)]
        assert a.open_channels() == 1

    def test_hello_settings_are_forward_compatible(self):
        hello = Hello(version=PROTOCOL_VERSION, node_id="n",
                      codecs=("zlib",), settings={"unknown-key": 42})
        assert hello.settings["unknown-key"] == 42  # carried, never interpreted


#: What a malicious pickle frame's ``__reduce__`` appends to when it runs.
EXECUTED = []


def _record(tag):
    EXECUTED.append(tag)


class _Exploit:
    """Unpickling this runs ``_record("ran")`` — code from the network."""

    def __reduce__(self):
        return (_record, ("ran",))


@pytest.fixture
def foreign():
    """Factory for raw-socket foreign servers, closed after the test."""
    created = []

    def factory(answer):
        server = ForeignServer(answer)
        created.append(server)
        return server

    yield factory
    for server in created:
        server.close()


def served(nets, handler, **kwargs):
    """A transport serving node ``srv`` with ``handler``."""
    net = nets(**kwargs)
    net.register("srv", handler)
    return net


class TestForeignPeers:
    """Mismatches fail loudly, and only the offending connection dies."""

    def test_version_mismatch_raises_and_sends_nothing(self, nets, foreign):
        server = foreign(hello("worker", version=PROTOCOL_VERSION + 1))
        a = nets()
        a.register("hub", lambda m: "ok")
        a.connect("worker", server.endpoint)
        with pytest.raises(ConfigurationError) as excinfo:
            a.call("hub", "worker", MessageKind.PING, "x")
        message = str(excinfo.value)
        assert f"version {PROTOCOL_VERSION + 1}" in message
        assert f"speaks {PROTOCOL_VERSION}" in message
        assert len(server.hellos) == 1  # our HELLO went out...
        assert server.requests == []  # ...and nothing after it
        assert a.open_channels() == 0

    def test_cast_to_mismatched_peer_raises_and_traces_a_drop(
            self, nets, foreign):
        """A one-way send is best-effort against loss, not against a
        misconfigured cluster: the mismatch raises at the sender, the
        trace records the drop, and nothing follows the HELLO."""
        server = foreign(hello("worker", version=PROTOCOL_VERSION + 1))
        a = nets()
        a.register("hub", lambda m: "ok")
        a.connect("worker", server.endpoint)
        with pytest.raises(ConfigurationError, match="version"):
            a.cast("hub", "worker", MessageKind.AGENT_HOP, "state")
        dropped = [e for e in a.trace.events() if e.dropped]
        assert [(e.kind, e.dst) for e in dropped] == [("AGENT_HOP", "worker")]
        assert server.requests == []

    def test_mismatched_client_is_refused_before_dispatch(self, nets):
        """A client HELLO naming another version gets this server's HELLO
        back (so it can tell why) and a closed connection; a request it
        pipelined behind the HELLO is never dispatched."""
        ran = []
        net = served(nets, lambda m: ran.append(m.payload))
        sock = dial(net.endpoint_of("srv"))
        with sock:
            ping = Message(kind=MessageKind.PING, src="future", dst="srv",
                           payload="x")
            sock.sendall(hello_frame(hello("future",
                                           version=PROTOCOL_VERSION + 1))
                         + envelope_frame(ping))
            answer = read_hello(sock)
            assert answer.version == PROTOCOL_VERSION
            assert answer.settings[wirecodec.WIRE_SETTING] == (
                wirecodec.WIRE_FORMAT,)
            assert closed_by_peer(sock)
        assert ran == []

    def test_silent_peer_is_unreachable_within_connect_timeout(
            self, nets, foreign):
        server = foreign(None)  # reads our HELLO, never answers
        a = nets(connect_timeout_s=0.5)
        a.register("hub", lambda m: "ok")
        a.connect("worker", server.endpoint)
        started = time.monotonic()
        with pytest.raises(NodeUnreachableError, match="no HELLO"):
            a.call("hub", "worker", MessageKind.PING, "x")
        # Bounded by connect_timeout_s, not the 30 s io timeout; the slack
        # absorbs scheduling delay on a loaded machine.
        assert time.monotonic() - started < 0.5 + 3.0
        assert server.requests == []  # the request frame was never written

    @pytest.mark.parametrize("first", ["envelope", "garbage"])
    def test_non_hello_first_frame_closes_only_that_connection(
            self, nets, first):
        ran = []
        net = served(nets, lambda m: ran.append(m.payload) or m.payload)
        peer = nets()
        peer.register("peer", lambda m: "ok")
        peer.connect("srv", net.endpoint_of("srv"))
        assert peer.call("peer", "srv", MessageKind.PING, 1) == 1
        bad = dial(net.endpoint_of("srv"))
        with bad:
            ping = Message(kind=MessageKind.PING, src="rogue", dst="srv",
                           payload="rogue")
            bad.sendall(envelope_frame(ping) if first == "envelope"
                        else frame(b"\x00not a hello"))
            assert closed_by_peer(bad)
        assert peer.call("peer", "srv", MessageKind.PING, 2) == 2
        assert ran == [1, 2]

    @pytest.mark.parametrize("second", ["pickle", "second-hello"])
    def test_non_envelope_after_hello_closes_and_runs_nothing(
            self, nets, second):
        """Nothing after the HELLO is unpickled: a pickle frame whose
        ``__reduce__`` would run code closes that connection unexecuted,
        and a well-behaved connection on the same reactor loop keeps
        completing calls."""
        EXECUTED.clear()
        net = served(nets, lambda m: m.payload, reactor_threads=1)
        peer = nets()
        peer.register("peer", lambda m: "ok")
        peer.connect("srv", net.endpoint_of("srv"))
        assert peer.call("peer", "srv", MessageKind.PING, "before") == "before"
        bad = dial(net.endpoint_of("srv"))
        with bad:
            bad.sendall(hello_frame(hello("rogue")))
            assert read_hello(bad).node_id == "srv"
            payload = (pickle.dumps(_Exploit(), pickle.HIGHEST_PROTOCOL)
                       if second == "pickle"
                       else pickle.dumps(hello("rogue"),
                                         pickle.HIGHEST_PROTOCOL))
            bad.sendall(frame(payload))
            assert closed_by_peer(bad)
        assert EXECUTED == []
        assert peer.call("peer", "srv", MessageKind.PING, "after") == "after"
        assert net.call("srv", "srv", MessageKind.PING, "local") == "local"

    def test_peer_advertising_no_codecs_gets_raw_frames(self, nets, foreign):
        """Request compression follows the peer's HELLO: a foreign server
        that advertises no codec is written to raw, and calls work."""
        server = foreign(hello("worker", codecs=()))
        a = nets(uds=False)
        a.register("hub", lambda m: "ok")
        a.connect("worker", server.endpoint)
        assert a.call("hub", "worker", MessageKind.INVOKE, BIG) == BIG
        assert server.idents == [codec.RAW]
        assert a.negotiated_codecs("hub", "worker") == ()

    @pytest.mark.parametrize("advertised,expected", [
        ((), codec.RAW), (("zlib",), codec.ZLIB),
    ])
    def test_reply_codec_comes_from_the_client_hello(self, nets, advertised,
                                                     expected):
        net = served(nets, lambda m: m.payload, uds=False)
        sock = dial(net.endpoint_of("srv"))
        with sock:
            sock.sendall(hello_frame(hello("client", codecs=advertised)))
            read_hello(sock)
            request = Message(kind=MessageKind.INVOKE, src="client",
                              dst="srv", payload=BIG)
            sock.sendall(envelope_frame(request))
            ident, blob = read_frame(sock)
        assert ident == expected
        assert wirecodec.decode_envelope(blob).payload.value == BIG
