"""Message-trace recording and queries (the figure-reproduction instrument)."""

from repro.net.message import Message, MessageKind
from repro.net.trace import MessageTrace


def _msg(kind=MessageKind.PING, src="a", dst="b") -> Message:
    return Message(kind=kind, src=src, dst=dst)


class TestRecording:
    def test_sequence_numbers_increase(self):
        trace = MessageTrace()
        trace.record(_msg(), time_ms=0.0)
        trace.record(_msg(), time_ms=1.0)
        first, second = trace.events()
        assert (first.seq, second.seq) == (1, 2)

    def test_reply_kind_rendering(self):
        trace = MessageTrace()
        trace.record(_msg().reply("x"), time_ms=0.0)
        (event,) = trace.events()
        assert event.kind == "REPLY(PING)"

    def test_len_and_clear(self):
        trace = MessageTrace()
        trace.record(_msg(), 0.0)
        trace.record(_msg(), 0.0)
        assert len(trace) == 2
        trace.clear()
        assert len(trace) == 0

    def test_local_flag(self):
        trace = MessageTrace()
        trace.record(_msg(src="a", dst="a"), 0.0)
        assert trace.events()[0].local


class TestQueries:
    def _traced(self) -> MessageTrace:
        trace = MessageTrace()
        trace.record(_msg(MessageKind.FIND, "a", "a"), 0.0)
        trace.record(_msg(MessageKind.INVOKE, "a", "b"), 1.0)
        trace.record(_msg(MessageKind.INVOKE, "a", "b"), 2.0, dropped=True)
        trace.record(_msg(MessageKind.OBJECT_TRANSFER, "b", "c"), 3.0)
        return trace

    def test_filtered_by_kind(self):
        events = self._traced().filtered(kinds=["INVOKE"])
        assert [e.kind for e in events] == ["INVOKE"]

    def test_filtered_remote_only(self):
        events = self._traced().filtered(remote_only=True)
        assert all(not e.local for e in events)
        assert len(events) == 2

    def test_dropped_hidden_by_default(self):
        assert all(not e.dropped for e in self._traced().filtered())

    def test_dropped_visible_on_request(self):
        events = self._traced().filtered(include_dropped=True)
        assert any(e.dropped for e in events)

    def test_kinds_sequence(self):
        assert self._traced().kinds() == ["FIND", "INVOKE", "OBJECT_TRANSFER"]

    def test_summary_excludes_drops(self):
        summary = self._traced().summary()
        assert summary["INVOKE"] == 1

    def test_remote_message_count(self):
        assert self._traced().remote_message_count() == 2

    def test_arrows_format(self):
        arrows = self._traced().arrows()
        assert arrows[0] == "a -> a: FIND"

    def test_dropped_arrow_is_marked(self):
        trace = MessageTrace()
        trace.record(_msg(), 0.0, dropped=True)
        assert "[LOST]" in trace.events()[0].arrow()


def _tcp_net():
    from repro.net.tcpnet import TcpNetwork

    return TcpNetwork(uds=False)


def _reachable_from(root):
    """Every object reachable from ``root`` through instance data (the
    walk stops at classes, modules, functions and enum members, which
    lead into the interpreter's globals rather than the trace's data)."""
    import enum
    import gc
    import types

    opaque = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, enum.Enum)
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, opaque):
                seen.add(id(ref))
                stack.append(ref)
    return found


class TestTcpTraceRetention:
    """A TCP trace passes measured frame sizes, so it keeps each event's
    fields and never the frame's :class:`Message` or payload."""

    def test_no_message_or_payload_is_reachable_from_the_trace(self):
        import os

        net = _tcp_net()
        try:
            net.register("a", lambda m: "ok")
            net.register("b", lambda m: len(m.payload))
            payload = os.urandom(64 * 1024)
            for _ in range(200):
                assert net.call("a", "b", MessageKind.INVOKE,
                                payload) == len(payload)
            assert len(net.trace) == 400
            reachable = _reachable_from(net.trace)
            assert not [o for o in reachable if isinstance(o, Message)]
            assert not [o for o in reachable
                        if isinstance(o, (bytes, bytearray, memoryview))
                        and len(o) >= 1024]
            # Sizes survive: every request event carries its frame bytes.
            requests = net.trace.filtered(kinds=["INVOKE"])
            assert len(requests) == 200
            assert all(e.nbytes > len(payload) for e in requests)
        finally:
            net.shutdown()

    def test_tcp_events_match_the_full_recording(self, monkeypatch):
        """A fixed TCP call sequence yields exactly these events: keeping
        only the fields changes what the trace holds, not what it
        reports."""
        import itertools
        import random

        from repro.util import ids

        monkeypatch.setattr(ids._TOKENS, "_counter", itertools.count(1))
        net = _tcp_net()
        try:
            net.register("a", lambda m: "ok")
            net.register("b", lambda m: len(m.payload or b""))
            noise = random.Random(7).randbytes(64 * 1024)
            assert net.call("a", "b", MessageKind.INVOKE, b"x" * 16) == 16
            assert net.call("a", "b", MessageKind.INVOKE, noise) == len(noise)
            assert net.call("b", "a", MessageKind.PING) == "ok"
            assert net.call("a", "b", MessageKind.INVOKE,
                            b"y" * 2_000) == 2_000
            assert net.call("a", "a", MessageKind.PING) == "ok"
            events = [(e.kind, e.src, e.dst, e.msg_id, e.local, e.dropped,
                       e.nbytes) for e in net.trace.events()]
        finally:
            net.shutdown()
        assert events == [
            ("INVOKE", "a", "b", "msg-1", False, False, 38),
            ("REPLY(INVOKE)", "b", "a", "msg-1-r", False, False, 39),
            ("INVOKE", "a", "b", "msg-2", False, False, 65558),
            ("REPLY(INVOKE)", "b", "a", "msg-2-r", False, False, 39),
            ("PING", "b", "a", "msg-3", False, False, 18),
            ("REPLY(PING)", "a", "b", "msg-3-r", False, False, 34),
            ("INVOKE", "a", "b", "msg-4", False, False, 2022),
            ("REPLY(INVOKE)", "b", "a", "msg-4-r", False, False, 39),
            ("PING", "a", "a", "msg-5", True, False, 18),
            ("REPLY(PING)", "a", "a", "msg-5-r", True, False, 34),
        ]

    def test_compact_and_full_entries_share_one_sequence(self):
        trace = MessageTrace()
        request = _msg(MessageKind.INVOKE)
        trace.record(request, 1.0)                      # full (SimNetwork)
        trace.record(request.reply("v"), 2.0, nbytes=7)  # compact (TCP)
        trace.record(_msg(), 3.0, dropped=True, nbytes=5)
        events = trace.events()
        assert len(trace) == 3
        assert [e.seq for e in events] == [1, 2, 3]
        assert [e.kind for e in events] == ["INVOKE", "REPLY(INVOKE)", "PING"]
        assert [e.nbytes for e in events][1:] == [7, 5]
        assert events[2].dropped
