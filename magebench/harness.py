"""Two-process bring-up: node ``client`` here, node ``server`` in a child.

:class:`Pair` builds the load process's ``TcpNetwork`` and node, spawns
``server.py``, waits for it to join and makes the first checked call.
The elapsed time is one ``setup_s`` sample.  ``id_base`` is passed on
to the server's ``--id-base``.  Both sides run with the
``TcpNetwork()`` defaults: the handshake and JOIN cross loopback TCP, and
after JOIN the data plane uses the same-host Unix-socket tier.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import platform
import select
import subprocess
import sys
import time

from repro.cluster import Node
from repro.net import TcpNetwork

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SERVER_SCRIPT = HERE / "server.py"
#: How long the child may take to print READY.
READY_TIMEOUT_S = 60.0
SETUP_TOKEN = b"magebench-setup!"


class SetupError(RuntimeError):
    """The server process did not come up."""


class Pair:
    """One load-process node plus one server process, joined and checked."""

    def __init__(self, trace: bool, id_base: int = 0) -> None:
        started = time.perf_counter()
        self.net = TcpNetwork()
        self.node = Node("client", self.net)
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER_SCRIPT),
             "--join", f"client@{self.net.endpoint_of('client')}",
             "--trace", str(int(trace)), "--id-base", str(id_base)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(ROOT),
        )
        try:
            self.join_ms = self._await_ready()
            self.echo = self.node.stub("echo", location="server")
            self.ctl = self.node.stub("ctl", location="server")
            if self.echo.echo(SETUP_TOKEN) != SETUP_TOKEN:
                raise SetupError("first echo returned a wrong result")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_ready(self) -> float:
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            raise SetupError(f"server process did not start: {line!r}")
        return float(line.split()[1])

    def ping(self) -> bool:
        return self.node.namespace.server.ping("server")

    def peak_rss_mb(self) -> float:
        """Peak RSS of both processes, summed, from ``/proc``."""
        return (_vm_hwm_kb("self") + _vm_hwm_kb(str(self.proc.pid))) / 1024.0

    def close(self) -> None:
        """Stop the child (stdin EOF, then kill) and the local node."""
        try:
            if self.proc.stdin is not None:
                self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=10)
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self.node.shutdown()
            self.net.shutdown()


def _vm_hwm_kb(pid: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise SetupError(f"no VmHWM in /proc/{pid}/status")


def fingerprint(seed: int) -> dict:
    """Where a result came from: cores, Python, code, CPU, seed, link."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "cpu_model": cpu,
        "seed": seed,
        "link": "loopback, not a real link",
    }


def _src_digest() -> str:
    """Digest of ``src/`` (names the code in a checkout that is not a clone)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_rev() -> str:
    """HEAD's commit id, read from ``.git`` (``unknown`` outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
