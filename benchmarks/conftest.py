"""Bench fixtures: result-artifact writing and cluster factories.

Every bench regenerates one of the paper's tables or figures, asserts the
shape that must hold, and writes the rendered artifact to the git-ignored
``benchmarks/.out/<name>.txt`` (also echoed to stdout under ``-s``).  A
bench that also passes a ``data`` mapping gets a machine-readable twin at
``benchmarks/.out/BENCH_<name>.json``.

``benchmarks/results/`` holds the committed baseline of the same files.
A test run never writes there: the baseline changes only when someone
copies a fresh ``.out/`` file over it on purpose.  The simulated-network
figures are deterministic, so ``.out/figure*.txt`` must equal
``results/figure*.txt`` byte for byte after any run.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cluster import Cluster

OUT_DIR = pathlib.Path(__file__).parent / ".out"


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture
def report(out_dir):
    """Write (and print) a named bench artifact."""

    def writer(name: str, text: str, data: dict | None = None) -> None:
        path = out_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        if data is not None:
            json_path = out_dir / f"BENCH_{name}.json"
            json_path.write_text(
                json.dumps(data, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        print(f"\n{text}\n[written to {path}]")

    return writer


@pytest.fixture
def make_cluster():
    """Simulated-network cluster factory (torn down after the bench)."""
    created: list[Cluster] = []

    def factory(node_ids, **kwargs) -> Cluster:
        kwargs.setdefault("synchronous_casts", True)
        cluster = Cluster(node_ids, **kwargs)
        created.append(cluster)
        return cluster

    yield factory
    for cluster in created:
        cluster.shutdown()
