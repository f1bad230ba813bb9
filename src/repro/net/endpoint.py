"""Cross-host endpoints and the wire-level HELLO handshake.

This module is the vocabulary that lets the stack span real machines:

* :class:`Endpoint` — a ``(host, port)`` address a node can be reached
  at.  Transports keep an **address book** (``node_id -> Endpoint``,
  see :meth:`repro.net.transport.Transport.connect`) for peers that were
  never locally registered; the cluster layer's membership service
  propagates the book via JOIN/ANNOUNCE.
* :class:`Hello` — the first frame each side of every TCP connection
  sends: protocol version, node identity, codec advertisement, and a
  settings map (the binary wire format's digest among them).  Codec
  negotiation happens **on the wire**: a sender compresses toward a
  peer only per what that peer's HELLO advertised, so two processes
  that have never shared a registry still negotiate.  The exchange is
  required: a peer that answers no HELLO is unreachable, and one whose
  HELLO names another protocol version or wire digest is refused with
  :class:`~repro.errors.ConfigurationError`
  (:func:`repro.net.wirecodec.check_hello`).

HELLO frames are wire-level: they are not :class:`~repro.net.message.
Message` envelopes, never reach a node's dispatcher, and are invisible
to message traces.  A HELLO is the one frame per connection that the
TCP transport unpickles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError

#: Version of the frame-level wire protocol spoken after the HELLO
#: exchange.  A peer on another version is refused at the HELLO.
PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class Endpoint:
    """A network address one node listens on: ``(host, port)``.

    ``host`` is whatever the peer should dial — an IP, a hostname, or
    ``127.0.0.1`` for same-machine deployments.  Hashable and comparable,
    so address books can detect a re-joining peer's *changed* endpoint
    (the fresh entry wins; stale connections are severed).

    ``uds`` is an optional same-host facet: the *abstract* Unix-domain
    socket name (without the leading NUL byte) the node additionally
    listens on.  A peer that observes the endpoint's ``host`` matching
    its own advertised host may dial the UDS instead of TCP; everyone
    else ignores the facet.  It is advisory routing data, not identity:
    two endpoints differing only in ``uds`` address the same listener,
    so the facet is excluded from equality and hashing (address books
    must not treat a facet upgrade as a changed — severable — peer).
    """

    host: str
    port: int
    uds: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("endpoint host cannot be empty")
        if not (0 < int(self.port) < 65536):
            raise ConfigurationError(f"endpoint port out of range: {self.port}")

    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` pair ``socket.create_connection`` wants."""
        return (self.host, self.port)

    def as_tuple(self) -> "tuple[str, int] | tuple[str, int, str]":
        """The roster/JOIN wire spelling: 2-tuple, or 3-tuple with ``uds``.

        Kept a plain tuple (not the dataclass) so rosters stay readable
        by builds that predate the facet; ``Endpoint(*t)`` accepts both.
        """
        if self.uds:
            return (self.host, self.port, self.uds)
        return (self.host, self.port)

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """Parse ``"host:port"`` (the CLI/seed-list spelling)."""
        host, sep, port = text.rpartition(":")
        if not sep or not host:
            raise ConfigurationError(
                f"expected 'host:port', got {text!r}"
            )
        try:
            return cls(host=host, port=int(port))
        except ValueError:
            raise ConfigurationError(
                f"expected a numeric port in {text!r}"
            ) from None

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(frozen=True)
class Hello:
    """The handshake frame exchanged once per new TCP connection.

    The client sends its HELLO immediately after connecting and waits,
    inside its connect timeout, for the server's; both directions carry:

    ``version``
        :data:`PROTOCOL_VERSION` of the sender.  A receiver seeing any
        other version refuses the connection.
    ``node_id``
        Who is speaking: the client's source node, or the node the
        contacted listener serves.  Lets a server attribute a
        connection to a peer it never registered locally.
    ``codecs``
        The frame codecs the *sender* can decode — i.e. what the other
        side may compress toward it.
    ``settings``
        Sender configuration: ``"wire"`` (the binary envelope's format
        digest, required), plus optional keys such as a server's
        same-host Unix-socket facet.  Receivers ignore keys they do
        not know, which is what lets the handshake grow optional fields
        without a version bump.
    """

    version: int
    node_id: str
    codecs: tuple[str, ...] = ()
    settings: dict[str, Any] = field(default_factory=dict)
