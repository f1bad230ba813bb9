"""Frame codec: negotiation, thresholds, and raw framing."""

import pickle
import struct

import pytest

from repro.errors import MarshalError
from repro.net import codec, wirecodec
from repro.net.message import Message, MessageKind
from repro.net.tcpnet import TcpNetwork, _decode_frame, _encode_frame


def _joined(wire):
    """One encoded frame as contiguous bytes."""
    return wire if isinstance(wire, bytes) else b"".join(bytes(p) for p in wire)


class TestCodecPrimitives:
    def test_raw_id_is_zero(self):
        # Raw frames must keep the pre-codec prefix bit-for-bit.
        assert codec.RAW == 0

    def test_zlib_always_available(self):
        assert "zlib" in codec.available_codecs()

    def test_unknown_codec_name_rejected(self):
        with pytest.raises(MarshalError):
            codec.codec_id("snappy")

    def test_unknown_codec_id_rejected(self):
        with pytest.raises(MarshalError):
            codec.decode(7, b"data", 1024)

    def test_zlib_roundtrip(self):
        blob = b"abc" * 10_000
        packed = codec.encode(codec.ZLIB, blob)
        assert len(packed) < len(blob)
        assert codec.decode(codec.ZLIB, packed, len(blob)) == blob

    def test_decode_bounds_inflation(self):
        blob = b"x" * 100_000
        packed = codec.encode(codec.ZLIB, blob)
        with pytest.raises(MarshalError):
            codec.decode(codec.ZLIB, packed, max_size=1024)

    def test_choose_codec_negotiation(self):
        # Below threshold: always raw, whatever both sides support.
        assert codec.choose_codec(10, ("zlib",), ("zlib",), 100) == codec.RAW
        # At/above threshold with a shared codec: compress.
        assert codec.choose_codec(100, ("zlib",), ("zlib",), 100) == codec.ZLIB
        # The peer advertises nothing (pre-codec build): fall back to raw.
        assert codec.choose_codec(100, ("zlib",), (), 100) == codec.RAW
        # The sender writes nothing: raw.
        assert codec.choose_codec(100, (), ("zlib",), 100) == codec.RAW


class TestFrameFormat:
    def test_sub_threshold_frame_is_raw_length_prefix_plus_envelope(self):
        """Small control messages are never touched by a codec: the
        frame is the bare length word and the binary envelope."""
        message = Message(kind=MessageKind.PING, src="a", dst="b")
        envelope = b"".join(wirecodec.encode_envelope(message))
        raw = struct.pack(">I", len(envelope)) + envelope
        compressing = lambda nbytes: codec.choose_codec(
            nbytes, ("zlib",), ("zlib",), codec.DEFAULT_COMPRESS_THRESHOLD)
        assert _joined(_encode_frame(message, compressing)) == raw
        assert _joined(_encode_frame(message, None)) == raw

    def test_large_frame_compresses_and_roundtrips(self):
        message = Message(kind=MessageKind.INVOKE, src="a", dst="b",
                          payload=b"payload" * 50_000)
        raw_len = len(_joined(_encode_frame(message, None)))
        wire = _encode_frame(
            message, lambda n: codec.choose_codec(n, ("zlib",), ("zlib",), 1024)
        )
        ident, received = _decode_wire(wire)
        assert ident == codec.ZLIB
        assert received.payload == message.payload
        assert received.msg_id == message.msg_id
        assert len(_joined(wire)) < raw_len / 2  # the compressed body

    def test_incompressible_frame_falls_back_to_raw(self):
        import os
        message = Message(kind=MessageKind.INVOKE, src="a", dst="b",
                          payload=os.urandom(64 * 1024))
        ident, received = _decode_wire(
            _encode_frame(message, lambda n: codec.ZLIB))
        assert ident == codec.RAW
        assert received.payload == message.payload

    def test_pickle_frame_is_rejected_unread(self):
        """Every post-HELLO frame must be a binary envelope."""
        blob = pickle.dumps(("anything",), pickle.HIGHEST_PROTOCOL)
        with pytest.raises(MarshalError, match="binary envelope"):
            _decode_frame(codec.RAW, blob)


class TestTcpNegotiation:
    @pytest.fixture
    def net(self):
        # uds=False: negotiation is a *wire* concern, and a same-host
        # Unix-socket channel deliberately skips compression (bandwidth
        # there is free); force TCP so these tests see the network path.
        net = TcpNetwork(compress_threshold=1024, uds=False)
        yield net
        net.shutdown()

    def test_same_host_channel_skips_compression(self, monkeypatch):
        """A provably same-machine (Unix-socket) channel never compresses,
        even for a peer that negotiated zlib — the codec saves network
        bandwidth the channel does not consume."""
        net = TcpNetwork(compress_threshold=1024)  # uds on by default
        try:
            big = b"state" * 100_000
            net.register("src", lambda m: "ok")
            net.register("modern", lambda m: len(m.payload))
            compressions = []
            real_encode = codec.encode
            monkeypatch.setattr(
                codec, "encode",
                lambda ident, blob: compressions.append(ident)
                or real_encode(ident, blob),
            )
            assert net.call("src", "modern", MessageKind.INVOKE, big) == len(big)
            assert compressions == []
        finally:
            net.shutdown()

    def test_negotiated_peer_gets_compressed_frames(self, net, monkeypatch):
        big = b"state" * 100_000
        net.register("src", lambda m: "ok")
        net.register("modern", lambda m: len(m.payload))
        compressions = []
        real_encode = codec.encode
        monkeypatch.setattr(
            codec, "encode",
            lambda ident, blob: compressions.append(ident) or real_encode(ident, blob),
        )
        assert net.call("src", "modern", MessageKind.INVOKE, big) == len(big)
        assert codec.ZLIB in compressions

    def test_small_calls_never_compress(self, net, monkeypatch):
        net.register("src", lambda m: "ok")
        net.register("dst", lambda m: "pong")
        compressions = []
        real_encode = codec.encode
        monkeypatch.setattr(
            codec, "encode",
            lambda ident, blob: compressions.append(ident) or real_encode(ident, blob),
        )
        assert net.call("src", "dst", MessageKind.PING) == "pong"
        assert compressions == []

    def test_codecs_param_validates_names(self):
        with pytest.raises(MarshalError):
            TcpNetwork(codecs=("snappy",))

    def test_disabled_codecs_keep_everything_raw(self, monkeypatch):
        net = TcpNetwork(codecs=(), compress_threshold=16)
        try:
            net.register("src", lambda m: "ok")
            net.register("dst", lambda m: len(m.payload))
            compressions = []
            real_encode = codec.encode
            monkeypatch.setattr(
                codec, "encode",
                lambda ident, blob: compressions.append(ident)
                or real_encode(ident, blob),
            )
            assert net.call("src", "dst", MessageKind.INVOKE,
                            b"x" * 100_000) == 100_000
            assert compressions == []
        finally:
            net.shutdown()


def _count_zlib_input(monkeypatch):
    """Record the size of every buffer handed to ``zlib.compress``."""
    import zlib

    sizes = []
    real_compress = zlib.compress
    monkeypatch.setattr(
        zlib, "compress",
        lambda data, *args: sizes.append(len(data)) or real_compress(data, *args),
    )
    return sizes


def _chunk_message(data):
    from repro.rmi.protocol import TransferChunk

    return Message(kind=MessageKind.TRANSFER_CHUNK, src="a", dst="b",
                   payload=TransferChunk(transfer_id="xfer-1", index=0,
                                         data=data))


def _decode_wire(wire):
    from repro.net.tcpnet import _CODEC_SHIFT, _LENGTH_MASK

    frame = _joined(wire)
    (word,) = struct.unpack(">I", frame[:4])
    assert word & _LENGTH_MASK == len(frame) - 4
    return word >> _CODEC_SHIFT, _decode_frame(word >> _CODEC_SHIFT, frame[4:])


class TestCompressibilityProbe:
    """Frames at or above the threshold are sampled before they are
    compressed: a sample that saves under ``PROBE_MIN_SAVING`` sends the
    frame raw without ever running the full-frame compressor."""

    def test_random_frame_toward_zlib_peer_skips_full_compression(
            self, monkeypatch):
        import os

        net = TcpNetwork(uds=False)  # default 16 KiB threshold, zlib on
        try:
            noise = os.urandom(64 * 1024)
            net.register("src", lambda m: "ok")
            net.register("dst", lambda m: m.payload == noise)
            net.call("src", "dst", MessageKind.PING)  # dial + HELLO
            assert "zlib" in net.negotiated_codecs("src", "dst")
            sizes = _count_zlib_input(monkeypatch)
            assert net.call("src", "dst", MessageKind.INVOKE, noise) is True
            assert sizes  # the probe ran...
            assert max(sizes) <= codec.PROBE_SAMPLE_BYTES  # ...and only it
            request = [e for e in net.trace.events()
                       if e.kind == "INVOKE"][-1]
            assert request.nbytes > len(noise)  # it crossed raw
        finally:
            net.shutdown()

    def test_random_multi_segment_frame_is_never_joined(self, monkeypatch):
        import os

        data = os.urandom(256 * 1024)
        sizes = _count_zlib_input(monkeypatch)
        wire = _encode_frame(_chunk_message(memoryview(data)),
                             lambda n: codec.ZLIB)
        assert max(sizes) <= codec.PROBE_SAMPLE_BYTES
        # Still a gather list whose blob segment is a view over ``data``:
        # nothing copied the segments into one buffer.
        assert isinstance(wire, list)
        assert any(isinstance(part, memoryview) and part.obj is data
                   for part in wire)
        ident, decoded = _decode_wire(wire)
        assert ident == codec.RAW
        assert decoded.payload.data_bytes() == data

    def test_compressible_multi_segment_frame_still_compresses(self):
        data = b"state" * 50_000
        wire = _encode_frame(_chunk_message(memoryview(data)),
                             lambda n: codec.ZLIB)
        assert isinstance(wire, bytes) and len(wire) < len(data) // 10
        ident, decoded = _decode_wire(wire)
        assert ident == codec.ZLIB
        assert decoded.payload.data_bytes() == data

    def test_frames_no_larger_than_the_sample_skip_the_probe(
            self, monkeypatch):
        blob = b"x" * codec.PROBE_SAMPLE_BYTES
        sizes = _count_zlib_input(monkeypatch)
        assert codec.compress_frame(codec.ZLIB, (blob,), len(blob))
        assert sizes == [len(blob)]  # compressed once, outright

    def test_probe_limit_unsampled_compressible_bulk_goes_raw(self):
        """The heuristic's limit, pinned: a frame whose head, middle and
        tail are random but whose unsampled bulk is compressible goes
        raw.  That costs compression ratio, never correctness — the frame
        still decodes byte for byte."""
        import os

        span = codec.PROBE_SAMPLE_BYTES // 3
        size = 64 * 1024
        frame = bytearray(size)
        for start in (0, (size - span) // 2, size - span):
            frame[start:start + span] = os.urandom(span)
        frame = bytes(frame)
        assert len(codec.encode(codec.ZLIB, frame)) < size // 2
        assert codec.compress_frame(codec.ZLIB, (frame,), size) is None

    def test_sample_reads_across_segment_boundaries(self):
        """Windows that straddle segments read the same bytes a joined
        frame would give, so segmentation never changes the verdict."""
        import os

        frame = os.urandom(40_000)
        cuts = (0, 5, 1024, 1030, 19_000, 20_500, 39_000, 40_000)
        parts = [memoryview(frame)[a:b] for a, b in zip(cuts, cuts[1:])]
        assert (codec._probe_sample(parts, len(frame))
                == codec._probe_sample((frame,), len(frame)))
