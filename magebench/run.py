"""MAGE two-process benchmark: one command per workload.

    python3 magebench/run.py --disjoint-ids --workload rmi_closed \
        --seed 1 --seconds 30 --trace 0

``BENCHMARK.json`` times ``rmi_closed`` and ``mobility_mix`` with
``--disjoint-ids``.  ``rmi_window``, and ``mobility_mix`` without
``--disjoint-ids``, reproduce the two seed defects described in
``NOTES.md``; their failed ops are printed by step and reason.

The load process hosts node ``client`` on its own ``TcpNetwork`` and
spawns ``server.py``, which hosts node ``server`` and joins it over
loopback TCP.  Set-up is repeated :data:`SETUPS` times and ``setup_s`` is
the median; the last pair runs the workload.  After a warm-up, the
``--seconds`` of closed-loop load run as one-second segments.  On the RMI
workloads a few mobility cycles follow each segment (the load paused), so
Table 3's rows are measured on every workload, spread over the run.
Rates, op percentiles and CPU per op are taken over all segments.

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` traces every
other pair of segments (ABBA), prints every per-layer metric and the
tracing overhead (traced against untraced segments), counts each mobility
step's remote messages, and writes the spans to ``.magebench_out/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record, with the
environment fingerprint, goes to ``.magebench_out/`` too.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import statistics
import sys
import threading
import time
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"magebench: no MAGE sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from repro.runtime.server import MageServer  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Mobility, Recorder  # noqa: E402

WORKLOADS = ("rmi_closed", "rmi_window", "mobility_mix")
RMI_THREADS = 2
SETUPS = 11
WARMUP_S = 0.5
SEGMENT_S = 1.0
#: Mobility cycles the RMI workloads run after each load segment.
PROBE_CYCLES = 10
#: Mobility cycles whose remote messages are counted step by step.
CENSUS_CYCLES = 16
OUT_DIR = ROOT / ".magebench_out"
#: With ``--disjoint-ids`` the server process draws its message, lock and
#: transfer ids from above this value; without it both processes count
#: from 1 and reply-cache replays (seed defect (b)) fail mobility ops.
SERVER_ID_BASE = 10**9

#: Runtime functions the core attributes call internally; traced runs wrap
#: them with spans named ``runtime.<function>``.
WRAPPED = ("fetch_class", "push_class", "instantiate")
#: Counters both processes report; each segment keeps their deltas.
COUNTERS = ("cpu_s", "trace_len", "frames_sent", "flushes", "auto_batches",
            "auto_batched_msgs")

#: Table 3's rows in the paper's order; it reports them ascending.
TABLE3 = (("RMI", "rmi"), ("TCOD", "tcod"), ("MA", "ma"), ("TREV", "trev"))


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class Segment:
    """One stretch of load: its outcomes and both processes' counter deltas."""

    rec: Recorder
    elapsed: float
    traced: bool
    client: dict[str, float]
    server: dict[str, float]


class Tracing:
    """Switches every span source on or off together.

    On: the client tracer records, :data:`WRAPPED` runtime functions are
    wrapped, and the server times its servant methods.  Off: all three are
    back to the untraced code, so untraced segments carry no tracing cost.
    """

    def __init__(self, tracer: spans.Tracer, pair: harness.Pair) -> None:
        self.tracer = tracer
        self.pair = pair
        self._restore: list = []

    def __call__(self, on: bool) -> None:
        if on == self.tracer.enabled:
            return
        if on:
            self._restore = [
                spans.wrap(self.tracer, MageServer, attr, f"runtime.{attr}")
                for attr in WRAPPED]
        else:
            for undo in self._restore:
                undo()
            self._restore = []
        self.pair.ctl.set_tracing(on)
        self.tracer.enabled = on


class Phase:
    """Drives the workload's caller threads against one :class:`Pair`."""

    def __init__(self, workload: str, pair: harness.Pair, tracer: spans.Tracer,
                 rng: random.Random, mobility: Mobility) -> None:
        self.workload = workload
        self.pair = pair
        self.tracer = tracer
        self.tracing = Tracing(tracer, pair)
        self.mobility = mobility
        self.rngs = [random.Random(rng.random()) for _ in range(RMI_THREADS)]
        self._cycles = 0

    def run(self, seconds: float) -> tuple[Recorder, float]:
        """Drive the load for ``seconds``; returns outcomes and elapsed time."""
        stop_at = time.perf_counter() + seconds
        if self.workload == "mobility_mix":
            recs = [Recorder()]
            targets = [lambda: self._mobility(recs[0], stop_at)]
        else:
            body = (workloads.rmi_closed if self.workload == "rmi_closed"
                    else workloads.rmi_window)
            recs = [Recorder() for _ in range(RMI_THREADS)]
            targets = [
                (lambda k=k: body(self.pair.echo, recs[k], self.tracer,
                                  self.rngs[k], stop_at,
                                  self.pair.ping if k == 0 else None))
                for k in range(RMI_THREADS)
            ]
        threads = [threading.Thread(target=t, name=f"caller-{n}")
                   for n, t in enumerate(targets)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return Recorder.merge(recs), time.perf_counter() - started

    def segment(self, seconds: float, traced: bool) -> Segment:
        """:meth:`run` bracketed by counter snapshots of both processes."""
        self.tracing(traced)
        client0, server0 = self._client_counters(), self.pair.ctl.stats()
        rec, elapsed = self.run(seconds)
        client1, server1 = self._client_counters(), self.pair.ctl.stats()
        self.tracing(False)
        server = {k: server1[k] - server0[k] for k in COUNTERS}
        # The closing snapshot's request and the opening one's reply.
        server["trace_len"] -= 2
        server["echo_calls"] = server1["echo_calls"] - server0["echo_calls"]
        return Segment(rec, elapsed, traced,
                       {k: client1[k] - client0[k] for k in COUNTERS}, server)

    def _client_counters(self) -> dict[str, float]:
        metrics = self.pair.net.data_plane_metrics()
        return {"cpu_s": time.process_time(),
                "trace_len": len(self.pair.net.trace),
                **{k: getattr(metrics, k) for k in COUNTERS[2:]}}

    def _mobility(self, rec: Recorder, stop_at: float) -> None:
        while time.perf_counter() < stop_at:
            self._cycles += 1
            self.mobility.cycle(rec, self._cycles, ping=self.pair.ping)

    def cycles(self, count: int, rec: Recorder, after_step=None) -> None:
        for _ in range(count):
            self._cycles += 1
            self.mobility.cycle(rec, self._cycles, ping=self.pair.ping,
                                after_step=after_step)


def census(phase: Phase, pair: harness.Pair, rec: Recorder) -> dict[str, float]:
    """Remote messages per mobility step, from both processes' traces.

    Each step is bracketed by trace-length marks on both sides; the
    server-side mark is a ``ctl`` call whose own request and reply (two
    remote events) are subtracted from every slice.
    """
    client_trace = pair.net.trace
    marks: list[tuple[str, tuple[int, int], tuple[int, int]]] = []
    previous = (len(client_trace), pair.ctl.trace_len())

    def after_step(kind: str) -> None:
        nonlocal previous
        current = (len(client_trace), pair.ctl.trace_len())
        marks.append((kind, previous, current))
        previous = current

    phase.cycles(CENSUS_CYCLES, rec, after_step)
    events = client_trace.events()
    server = pair.ctl.remote_between([(a[1], b[1]) for _, a, b in marks])
    totals: dict[str, list[int]] = {}
    for (kind, before, after), remote in zip(marks, server):
        here = sum(1 for e in events[before[0]:after[0]]
                   if not e.local and not e.dropped)
        totals.setdefault(kind, []).append(here + remote - 2)
    return {kind: statistics.fmean(v) for kind, v in totals.items()}


def _mobility_p50s(rec: Recorder) -> dict[str, float]:
    return {f"{kind}_p50_ms": statistics.median(rec.steps[kind]) * 1e3
            for kind in workloads.MOBILITY_KINDS if rec.steps[kind]}


def _total(segments: list[Segment], side: str, key: str) -> float:
    return sum(getattr(s, side)[key] for s in segments)


def end_to_end(setup: list[float], segments: list[Segment], rss_mb: float,
               mobility_rec: Recorder) -> dict[str, float]:
    ops = sum(s.rec.succeeded for s in segments)
    cpu_s = (_total(segments, "client", "cpu_s")
             + _total(segments, "server", "cpu_s"))
    elapsed = sum(s.elapsed for s in segments)
    latencies = [v for s in segments for v in s.rec.ops]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops / elapsed,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": _quantile(latencies, 0.9) * 1e3,
        "cpu_ms_per_op": cpu_s * 1e3 / ops,
        "rss_mb": rss_mb,
        "payload_mb_per_s": sum(s.rec.payload_bytes for s in segments)
                            / elapsed / 1e6,
    }
    metrics.update(_mobility_p50s(mobility_rec))
    return metrics


def per_layer(tracer: spans.Tracer, server_spans: list[float],
              joins: list[float], segments: list[Segment],
              mobility_rec: Recorder, counts: dict[str, float],
              gauges: dict[str, float]) -> dict[str, float | None]:
    threads = tracer.spans()

    def us(name: str, parent: tuple[str, ...] | None = None) -> float | None:
        values = spans.durations(threads, name, parent)
        return spans.p50(values) * 1e6 if values else None

    def total(key: str) -> float:
        return _total(segments, "client", key) + _total(segments, "server", key)

    ops = sum(s.rec.succeeded for s in segments)
    stub_call, ping = us("rmi.stub_call"), us("net.ping")
    marshal, encode, decode = (us("rmi.marshal"), us("net.envelope_encode"),
                               us("net.envelope_decode"))
    untraced, traced = (
        sum(s.rec.succeeded for s in segments if s.traced is state)
        / sum(s.elapsed for s in segments if s.traced is state)
        for state in (False, True))
    expected = mobility_rec.counts["bypass_expected"]
    frames, flushes = total("frames_sent"), total("flushes")
    batched = total("auto_batched_msgs")
    metrics = {
        "rmi.marshal_us": marshal,
        "rmi.stub_call_us": stub_call,
        "rmi.stub_self_us": (stub_call - ping - marshal - encode - decode
                             if None not in (stub_call, ping, marshal,
                                             encode, decode) else None),
        "rmi.bypass_hit_ratio": (mobility_rec.counts["bypass_hit"] / expected
                                 if expected else None),
        "rmi.bypass_call_us": us("rmi.bypass_call"),
        "net.envelope_encode_us": encode,
        "net.envelope_decode_us": decode,
        "net.ping_rtt_us": ping,
        "net.frames_per_flush": frames / flushes if flushes else None,
        # Messages that rode in an AUTO_BATCH frame, over all messages sent.
        "net.auto_batched_share": (
            batched / (frames - total("auto_batches") + batched)
            if frames else None),
        "net.loop_lag_ms": gauges["loop_lag_ewma_ms"],
        "net.max_queue_kb": gauges["max_queue_bytes"] / 1024.0,
        "net.trace_events_per_op": total("trace_len") / ops,
        "runtime.find_us": us("runtime.find"),
        "runtime.lock_us": us("runtime.lock"),
        "runtime.move_small_us": us("runtime.move_small"),
        "runtime.move_streamed_us": us("runtime.move_streamed"),
        "runtime.unlock_us": us("runtime.unlock"),
        "runtime.fetch_class_us": us("runtime.fetch_class"),
        "runtime.push_class_us": us("runtime.push_class"),
        "runtime.instantiate_us": us("runtime.instantiate",
                                     ("core.bind.trev", "core.bind.ma")),
        "runtime.servant_us": (spans.p50(server_spans) * 1e6
                               if server_spans else None),
        "core.bind_us.tcod": us("core.bind.tcod"),
        "core.bind_us.trev": us("core.bind.trev"),
        "core.bind_us.ma": us("core.bind.ma"),
        "core.first_invoke_us.tcod": us("core.first_invoke.tcod"),
        "core.first_invoke_us.trev": us("core.first_invoke.trev"),
        "cluster.join_ms": statistics.median(joins),
        "proc.client_cpu_ms_per_op": (_total(segments, "client", "cpu_s")
                                      * 1e3 / ops),
        "proc.server_cpu_ms_per_op": (_total(segments, "server", "cpu_s")
                                      * 1e3 / ops),
        "trace.overhead_pct": (untraced - traced) / untraced * 100.0,
    }
    for kind in workloads.MOBILITY_KINDS:
        metrics[f"net.remote_msgs_per_op.{kind}"] = counts.get(kind)
    return metrics


def metric_units(section: str) -> dict[str, str]:
    """Unit of every metric ``BENCHMARK.json`` lists in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def table3_lines(p50s: dict[str, float]) -> list[str]:
    """The mobility p50s in Table 3's row order, plus the ordering check."""
    rows = [(label, p50s.get(f"{kind}_p50_ms")) for label, kind in TABLE3]
    lines = [f"  {label:<9} p50 {value:8.3f} ms" for label, value in rows
             if value is not None]
    values = [value for _, value in rows]
    holds = None not in values and values == sorted(values)
    lines.append("  RMI < TCOD < MA < TREV: " + ("yes" if holds else "no"))
    for kind in ("find", "lock_move"):
        if f"{kind}_p50_ms" in p50s:
            lines.append(f"  {kind:<9} p50 {p50s[f'{kind}_p50_ms']:8.3f} ms")
    return lines


def run(args: argparse.Namespace) -> dict:
    rng = random.Random(args.seed)
    tracer = spans.Tracer()
    setup, joins = [], []
    pair = None
    try:
        for _ in range(SETUPS):
            if pair is not None:
                pair.close()
                pair = None
            pair = harness.Pair(
                trace=bool(args.trace),
                id_base=SERVER_ID_BASE if args.disjoint_ids else 0)
            setup.append(pair.setup_s)
            joins.append(pair.join_ms)
        return measure(args, rng, tracer, pair, setup, joins)
    finally:
        if pair is not None:
            pair.close()


def measure(args: argparse.Namespace, rng: random.Random, tracer: spans.Tracer,
            pair: harness.Pair, setup: list[float], joins: list[float]) -> dict:
    mobility = Mobility(pair.node.namespace, random.Random(rng.random()),
                        tracer, f"s{args.seed}")
    phase = Phase(args.workload, pair, tracer, rng, mobility)
    warm, _ = phase.run(WARMUP_S)

    count = max(2, round(args.seconds / SEGMENT_S))
    probe = Recorder()
    segments = []
    for k in range(count):
        segments.append(phase.segment(
            args.seconds / count, traced=bool(args.trace) and k % 4 in (1, 2)))
        if args.workload != "mobility_mix":
            phase.tracing(bool(args.trace))
            phase.cycles(PROBE_CYCLES, probe)
            phase.tracing(False)
    mobility_rec = (Recorder.merge([s.rec for s in segments])
                    if args.workload == "mobility_mix" else probe)
    extra = Recorder()
    counts = census(phase, pair, extra) if args.trace else {}
    every = Recorder.merge([warm, probe, extra] + [s.rec for s in segments])

    checks = []
    if args.workload != "mobility_mix":
        echoed = sum(s.server["echo_calls"] for s in segments)
        ok_echoes = sum(len(s.rec.steps["rmi"]) for s in segments)
        if echoed < ok_echoes:
            checks.append(f"server ran {echoed} echoes, client saw "
                          f"{ok_echoes} succeed")
    time.sleep(0.2)  # let the last one-way MA sends land
    try:
        lost = mobility.check_agents()
    except Exception as exc:  # a failed check is a finding, not a crash
        lost = [f"{type(exc).__name__}: {exc}"]
    if lost:
        checks.append(f"MA one-way sends without effect: {lost}")

    if args.trace:
        server, client = pair.ctl.stats(), pair.net.data_plane_metrics()
        gauges = {
            "loop_lag_ewma_ms": max(server["loop_lag_ewma_ms"],
                                    client.loop_lag_ewma_ms),
            "max_queue_bytes": max(server["max_queue_bytes"],
                                   client.max_queue_bytes),
        }
        server_spans = pair.ctl.servant_spans()
        metrics = per_layer(tracer, server_spans, joins, segments,
                            mobility_rec, counts, gauges)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(str(OUT_DIR / f"spans-{args.workload}-s{args.seed}.json"),
                    {"summary": spans.summary(tracer.spans()),
                     "server_servant_s": server_spans})
    else:
        metrics = end_to_end(setup, segments, pair.peak_rss_mb(), mobility_rec)
    return {
        "metrics": metrics, "every": every, "mobility": mobility_rec,
        "checks": checks, "setup": setup,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--disjoint-ids", action="store_true",
        help="start the server process's ids at %d, clear of the load "
             "process's (works around seed defect (b), see NOTES.md)"
             % (SERVER_ID_BASE + 1))
    args = parser.parse_args(argv)

    fp = harness.fingerprint(args.seed)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    result = run(args)
    every: Recorder = result["every"]
    metrics = result["metrics"]
    missing = [name for name in units if metrics.get(name) is None]
    correct = not result["checks"] and not missing and every.succeeded > 0
    attempted = every.succeeded + every.failed

    print(f"magebench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"ops attempted={attempted} failed={every.failed}")
    for (kind, reason), count in sorted(every.failures.items()):
        print(f"  failed {kind}: {reason} x{count}")
    for check in result["checks"]:
        print(f"  CHECK FAILED: {check}")
    for name in missing:
        print(f"  MISSING METRIC: {name}")
    print("table3 (paper row order):")
    for line in table3_lines(_mobility_p50s(result["mobility"])):
        print(line)
    for name, unit in units.items():
        value = metrics.get(name)
        shown = f"{value:.6g}" if value is not None else "n/a"
        print(f"  {name:<34} {shown:>12} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "fingerprint": fp, "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": every.failed,
        "failures": {f"{k}:{r}": n for (k, r), n in every.failures.items()},
        "checks": result["checks"], "setup_s_samples": result["setup"],
        "metrics": metrics,
    }
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": every.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if metrics.get(name) is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
