"""Frame codecs: negotiated per-frame compression for the TCP transport.

Large OBJECT_TRANSFER payloads dominate the bytes a migration moves; on a
bandwidth-limited link their transmission time dwarfs the protocol's
round trips.  The TCP transport therefore supports compressing whole
frames — but only when three conditions hold:

* the frame is at least ``threshold`` bytes (small control messages are
  never touched);
* the sender is configured to write the codec;
* the receiving *peer*'s HELLO advertised that it accepts the codec
  (negotiation; a peer that shares no codec gets raw frames).

The codec id travels in the top three bits of the 4-byte frame length
prefix.  Raw frames use id 0, so an uncompressed frame is just the
length prefix and the body.

A frame that clears the threshold is not compressed blindly: a
**compressibility probe** first compresses a :data:`PROBE_SAMPLE_BYTES`
sample drawn in equal parts from the frame's head, middle and tail (read
across the envelope's segments without joining them).  Unless the sample
shrinks by at least :data:`PROBE_MIN_SAVING`, the frame goes out raw
(codec id 0, so the receiver sees nothing new) and neither the
full-frame compressor nor the join of the segments ever runs.  Random or
already-compressed state — a migrated object's pickled ``bytes``, say —
costs one small compression instead of one per chunk.  The probe's limit:
a frame whose sampled regions are random but whose unsampled bulk would
compress goes raw.  That costs ratio, never correctness.

``zlib`` (stdlib, always available) is the default codec; ``lz4`` is
registered only when the optional ``lz4.frame`` module is importable —
the container image is not required to carry it, and the negotiation
machinery treats its absence exactly like a peer that refuses it.
"""

from __future__ import annotations

import zlib
from typing import Sequence

from repro.errors import MarshalError

try:  # optional: not baked into every image; gate rather than require
    import lz4.frame as _lz4frame  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - environment-dependent
    _lz4frame = None

#: Codec ids as carried in the frame header (3 bits; 0 must stay raw).
RAW = 0
ZLIB = 1
LZ4 = 2

#: Frames below this many serialized bytes are never compressed: the CPU
#: cost outweighs the byte savings, and keeping control traffic raw keeps
#: its wire bytes identical to the pre-codec framing.
DEFAULT_COMPRESS_THRESHOLD = 16 * 1024

#: zlib level 1: on the large, structured blobs migrations ship it costs a
#: fraction of level 6 for most of the ratio — this is a latency codec,
#: not an archival one.
_ZLIB_LEVEL = 1

#: Bytes the compressibility probe compresses before a whole frame is:
#: a third each from the frame's head, middle and tail.  Frames no larger
#: than this skip the probe and are compressed outright.
PROBE_SAMPLE_BYTES = 3 * 1024

#: The least fraction of the sample the probe must save; below it the
#: frame is judged incompressible and goes out raw.
PROBE_MIN_SAVING = 0.10

_NAME_TO_ID = {"raw": RAW, "zlib": ZLIB, "lz4": LZ4}
_ID_TO_NAME = {v: k for k, v in _NAME_TO_ID.items()}


def codec_id(name: str) -> int:
    """The wire id for a codec name; raises for unknown names."""
    try:
        return _NAME_TO_ID[name]
    except KeyError:
        raise MarshalError(
            f"unknown codec {name!r} (expected one of {sorted(_NAME_TO_ID)})"
        ) from None


def codec_name(ident: int) -> str:
    """The name for a wire codec id; raises for unknown ids."""
    try:
        return _ID_TO_NAME[ident]
    except KeyError:
        raise MarshalError(f"unknown codec id {ident}") from None


#: Fixed at process start: which modules imported cannot change later,
#: and this sits on the per-frame send path.
_AVAILABLE: tuple[str, ...] = ("zlib",) + (("lz4",) if _lz4frame is not None
                                           else ())


def available_codecs() -> tuple[str, ...]:
    """The compression codecs this process can *decode* (raw excluded).

    What a node advertises to its peers by default; ``zlib`` is stdlib so
    it is always present, ``lz4`` only when the optional module imports.
    """
    return _AVAILABLE


def choose_codec(nbytes: int, write_codecs: tuple[str, ...],
                 advertised: tuple[str, ...], threshold: int) -> int:
    """The codec id one frame of ``nbytes`` should be written with.

    ``RAW`` unless the frame clears the size threshold and sender and
    receiver share a codec (``advertised`` is what the receiver's HELLO
    listed); the first shared entry of ``write_codecs`` (sender
    preference order) wins.
    """
    if nbytes < threshold:
        return RAW
    for name in write_codecs:
        if name in advertised and name in _AVAILABLE:
            return _NAME_TO_ID[name]
    return RAW


def encode(ident: int, blob: bytes | memoryview) -> bytes:
    """Compress ``blob`` with the codec ``ident`` (``RAW`` passes through)."""
    if ident == RAW:
        return blob
    if ident == ZLIB:
        return zlib.compress(blob, _ZLIB_LEVEL)
    if ident == LZ4:
        if _lz4frame is None:
            raise MarshalError("lz4 codec requested but lz4.frame is unavailable")
        return _lz4frame.compress(blob)
    raise MarshalError(f"unknown codec id {ident}")


def _probe_sample(parts: Sequence[bytes | memoryview], nbytes: int) -> bytes:
    """:data:`PROBE_SAMPLE_BYTES` of the frame's head, middle and tail.

    ``parts`` are the frame's segments in order and ``nbytes`` their total
    length (which must exceed the sample).  Only the sampled slices are
    copied; the segments themselves are never joined.
    """
    span = PROBE_SAMPLE_BYTES // 3
    windows = [(start, start + span)
               for start in (0, (nbytes - span) // 2, nbytes - span)]
    pieces = []
    offset = 0
    for part in parts:
        end = offset + len(part)
        for lo, hi in windows:
            if lo < end and hi > offset:
                pieces.append(part[max(lo - offset, 0):min(hi, end) - offset])
        offset = end
    return b"".join(pieces)


def compress_frame(ident: int, parts: Sequence[bytes | memoryview],
                   nbytes: int) -> bytes | None:
    """The frame ``parts`` compressed with codec ``ident``, or ``None``.

    ``None`` means "send it raw": either the probe judged the frame
    incompressible (see the module docstring) or the compressed body came
    out no smaller than the ``nbytes`` it replaces.  The segments are
    joined only once the probe has said to compress.
    """
    if nbytes > PROBE_SAMPLE_BYTES:
        sample = _probe_sample(parts, nbytes)
        if len(encode(ident, sample)) > len(sample) * (1.0 - PROBE_MIN_SAVING):
            return None
    blob = parts[0] if len(parts) == 1 else b"".join(parts)
    body = encode(ident, blob)
    return body if len(body) < nbytes else None


def decode(ident: int, blob: bytes, max_size: int) -> bytes:
    """Decompress one received frame body, bounding the inflated size.

    ``max_size`` guards against decompression bombs: a frame that inflates
    past the transport's frame bound is rejected exactly as an oversized
    raw frame would have been.
    """
    if ident == RAW:
        return blob
    if ident == ZLIB:
        decompressor = zlib.decompressobj()
        out = decompressor.decompress(blob, max_size)
        if decompressor.unconsumed_tail:
            raise MarshalError(
                f"compressed frame inflates past {max_size} bytes"
            )
        return out
    if ident == LZ4:
        if _lz4frame is None:
            raise MarshalError(
                "received an lz4 frame but lz4.frame is unavailable "
                "(peer ignored our advertised codecs)"
            )
        out = _lz4frame.decompress(blob)
        if len(out) > max_size:
            raise MarshalError(
                f"compressed frame inflates past {max_size} bytes"
            )
        return out
    raise MarshalError(f"unknown codec id {ident} in frame header")
