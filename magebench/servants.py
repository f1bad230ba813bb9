"""Servants and mobile classes shared by the benchmark's two processes.

They live in a real module so ``inspect.getsource`` can read them: a
mobile class crosses between processes as its source.

* :class:`Echo` — the RMI servant the server process hosts; returns its
  argument unchanged, so every reply can be checked against its request.
* :class:`CodCounter` — Table 3's test object for TCOD.  Only the server
  registers it, so the client must fetch the class over the wire.
* :class:`RevCounter` — the same object for TREV and MA.  Only the client
  registers it, so the client must push the class to the server.
* :class:`Mobile` — the object the lock+move step ping-pongs between the
  processes; ``blob`` sets its state size, ``bump`` its visible counter.
"""

from __future__ import annotations


class Echo:
    """Returns its argument; counts calls for the end-of-run cross check."""

    def __init__(self) -> None:
        self.calls = 0

    def echo(self, value):
        self.calls += 1
        return value


class CodCounter:
    """Table 3's servant for TCOD: one integer field plus an increment."""

    def __init__(self) -> None:
        self.value = 0

    def increment(self) -> int:
        self.value += 1
        return self.value


class RevCounter:
    """Table 3's servant for TREV and MA: one integer field plus an increment."""

    def __init__(self) -> None:
        self.value = 0

    def increment(self) -> int:
        self.value += 1
        return self.value


class Mobile:
    """A migrating object: opaque state plus a counter that must advance."""

    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.count = 0

    def bump(self) -> int:
        self.count += 1
        return self.count
