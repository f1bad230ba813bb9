"""The benchmark's server process: hosts MAGE node ``server``.

Launched by ``run.py`` (modelled on the two-process integration child).
It builds its own ``TcpNetwork`` with the defaults, registers the
benchmark's servants, joins the load process's node ``client`` through the
seed endpoint given on the command line, prints ``READY <join_ms>`` and
serves until its stdin closes.  The handshake and JOIN cross loopback TCP;
after JOIN the data plane uses the same-host Unix-socket tier.

Servants:

* ``echo`` — :class:`servants.Echo`, the RMI workloads' target;
* ``ctl`` — pinned :class:`Control`, which reports this process's CPU
  time, trace and data-plane counters and (traced runs) servant spans;
* the class ``CodCounter`` is registered so the client's TCOD fetches it.

``--id-base N`` makes this process draw its message, lock and transfer
ids from ``N + 1`` upwards, clear of the load process's, which count from
1 (the benchmark's ``--disjoint-ids``; see NOTES.md, seed defect (b)).

With ``--trace 1``, while the load process has switched tracing on through
``ctl.set_tracing``, every servant method the server runs is timed as a
``runtime.servant`` span; the spans ride back through ``ctl``.
"""

from __future__ import annotations

import argparse
import itertools
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.cluster import Node  # noqa: E402
from repro.net import Endpoint, TcpNetwork  # noqa: E402
from repro.rmi.invoker import Invoker  # noqa: E402
from repro.util import ids  # noqa: E402

from servants import CodCounter, Echo  # noqa: E402


class Control:
    """Pinned servant through which the load process reads this process."""

    def __init__(self, net: TcpNetwork, echo: Echo,
                 spans: list[float] | None) -> None:
        self._net = net
        self._echo = echo
        self._spans = spans

    def stats(self) -> dict:
        """CPU, trace and data-plane counters, as plain values."""
        metrics = self._net.data_plane_metrics()
        return {
            "cpu_s": time.process_time(),
            "trace_len": len(self._net.trace),
            "echo_calls": self._echo.calls,
            "frames_sent": metrics.frames_sent,
            "flushes": metrics.flushes,
            "auto_batches": metrics.auto_batches,
            "auto_batched_msgs": metrics.auto_batched_msgs,
            "loop_lag_ewma_ms": metrics.loop_lag_ewma_ms,
            "max_queue_bytes": metrics.max_queue_bytes,
        }

    def trace_len(self) -> int:
        """Events this process's trace holds (this call's request included)."""
        return len(self._net.trace)

    def remote_between(self, bounds: list) -> list[int]:
        """Remote, delivered events in each ``[start, end)`` trace slice."""
        events = self._net.trace.events()
        return [sum(1 for e in events[start:end] if not e.local and not e.dropped)
                for start, end in bounds]

    def set_tracing(self, on: bool) -> None:
        """Start or stop timing servant methods (``--trace 1`` only)."""
        if self._spans is None:
            raise RuntimeError("server started without --trace 1")
        Invoker._resolve_method = _timed_resolve(self._spans) if on else _RESOLVE

    def servant_spans(self) -> list[float]:
        """Durations (s) of every servant method run here, then reset."""
        if self._spans is None:
            return []
        out, self._spans[:] = list(self._spans), []
        return out


#: The invoker's own method resolution, put back when tracing stops.
_RESOLVE = Invoker._resolve_method


def _timed_resolve(durations: list[float]):
    """A method resolution that times every servant method but ``ctl``'s.

    It wraps the invoker's method resolution, so the span covers exactly
    the servant's own code — for native servants and for classes that
    arrived by source alike.
    """
    clock = time.perf_counter

    def traced_resolve(self, servant, name, method_name):
        method = _RESOLVE(self, servant, name, method_name)
        if name == "ctl":
            return method

        def timed(*args, **kwargs):
            started = clock()
            try:
                return method(*args, **kwargs)
            finally:
                durations.append(clock() - started)

        return timed

    return traced_resolve


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--join", required=True,
                        help="seed member as 'node_id@host:port'")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--id-base", type=int, default=0,
                        help="draw this process's ids (message, lock, "
                             "transfer) from id-base + 1 upwards")
    args = parser.parse_args()
    if args.id_base:
        ids._TOKENS._counter = itertools.count(args.id_base + 1)
    seed_id, _, seed_addr = args.join.partition("@")

    spans: list[float] | None = [] if args.trace else None
    net = TcpNetwork()
    node = Node("server", net)
    echo = Echo()
    node.register("echo", echo, pinned=True)
    node.register("ctl", Control(net, echo, spans), pinned=True)
    node.register_class(CodCounter)
    started = time.perf_counter()
    node.join(seed_id, Endpoint.parse(seed_addr))
    join_ms = (time.perf_counter() - started) * 1e3
    print(f"READY {join_ms:.6f}", flush=True)

    sys.stdin.read()
    node.shutdown()
    net.shutdown()


if __name__ == "__main__":
    main()
