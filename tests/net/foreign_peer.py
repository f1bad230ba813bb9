"""Raw-socket stand-ins for a foreign build on the far end of a connection.

No ``TcpNetwork`` runs on the foreign side: its frames are built by hand
from the wire's parts (a 4-byte length word, a pickled HELLO, binary
envelopes), so a test can speak any protocol version, wire digest, codec
advertisement or garbage it likes.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

from repro.net import codec, wirecodec
from repro.net.endpoint import PROTOCOL_VERSION, Endpoint, Hello
from repro.net.message import Message, ReplyPayload

_HEADER = struct.Struct(">I")
_CODEC_SHIFT = 29
_LENGTH_MASK = (1 << _CODEC_SHIFT) - 1


def hello(node_id: str, version: int = PROTOCOL_VERSION,
          wire: "tuple[str, ...] | None" = (wirecodec.WIRE_FORMAT,),
          codecs: tuple[str, ...] = ()) -> Hello:
    """A HELLO as some build would send it (``wire=None``: no wire key)."""
    settings = {} if wire is None else {wirecodec.WIRE_SETTING: wire}
    return Hello(version=version, node_id=node_id, codecs=codecs,
                 settings=settings)


def frame(blob: bytes) -> bytes:
    """One raw frame around ``blob``."""
    return _HEADER.pack(len(blob)) + blob


def hello_frame(h: Hello) -> bytes:
    return frame(pickle.dumps(h, pickle.HIGHEST_PROTOCOL))


def envelope_frame(message: Message) -> bytes:
    parts = wirecodec.encode_envelope(message)
    return frame(b"".join(bytes(part) for part in parts))


def _recv_exact(sock: socket.socket, n: int) -> "bytes | None":
    chunks = []
    while n > 0:
        chunk = sock.recv(n)
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> "tuple[int, bytes] | None":
    """``(codec id, decoded body)`` of the next frame; ``None`` at EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (word,) = _HEADER.unpack(header)
    body = _recv_exact(sock, word & _LENGTH_MASK)
    if body is None:
        return None
    ident = word >> _CODEC_SHIFT
    return ident, codec.decode(ident, body, _LENGTH_MASK)


def read_hello(sock: socket.socket) -> Hello:
    received = read_frame(sock)
    assert received is not None, "peer closed before its HELLO"
    return pickle.loads(received[1])


def closed_by_peer(sock: socket.socket, timeout_s: float = 5.0) -> bool:
    """Whether the other side closes the connection within ``timeout_s``
    (whatever it still sends first is read and dropped)."""
    sock.settimeout(timeout_s)
    try:
        while sock.recv(65536):
            pass
    except TimeoutError:
        return False
    except ConnectionError:
        pass
    return True


def dial(endpoint: Endpoint, timeout_s: float = 5.0) -> socket.socket:
    sock = socket.create_connection(endpoint.address(), timeout=timeout_s)
    sock.settimeout(timeout_s)
    return sock


class ForeignServer:
    """A listener answering each connection's HELLO with ``answer``.

    ``answer=None`` stays silent after reading the client's HELLO.  After
    a HELLO answer, every request envelope is echoed back as a REPLY
    carrying the request's payload.  ``hellos`` collects the clients'
    HELLOs, ``requests`` the request messages, ``idents`` the codec id of
    every request frame.
    """

    def __init__(self, answer: "Hello | None") -> None:
        self.answer = answer
        self.hellos: list[Hello] = []
        self.requests: list[Message] = []
        self.idents: list[int] = []
        self._conns: list[socket.socket] = []
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.endpoint = Endpoint("127.0.0.1", self._sock.getsockname()[1])
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self._conns.append(conn)
            threading.Thread(target=self._serve, args=(conn,),
                             daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            self.hellos.append(read_hello(conn))
            if self.answer is not None:
                conn.sendall(hello_frame(self.answer))
            while True:
                received = read_frame(conn)
                if received is None:
                    return
                ident, blob = received
                request = wirecodec.decode_envelope(blob)
                self.idents.append(ident)
                self.requests.append(request)
                conn.sendall(envelope_frame(
                    request.reply(ReplyPayload(value=request.payload))))
        except (OSError, AssertionError):
            return
        finally:
            conn.close()

    def close(self) -> None:
        self._sock.close()
        for conn in self._conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
