"""NamespaceStore per-source query microbenchmark -> BENCH_perf.json.

The bottleneck detectors (and the between-phase adaptive analyses)
query the SOMA stores *per monitor source*: utilization series for one
node's ``hwmon@…``, TAU breakdowns for one ``tau@…`` task, workflow
summaries for one ``rpmon``.  The store keeps a per-source index
maintained on append, so those queries bisect a source-local list
instead of filtering the whole namespace.

This bench measures that claim against a faithful in-tree replica of
the legacy algorithm (global time bisect + linear ``record.source``
filter) on identical stores, and asserts the two return identical
records — the speedup is only meaningful if the answers agree.

A second case, ``store_merged_path``, measures path-scoped merges: the
load-imbalance analysis reads one ``TAU/<task>`` subtree per task, and
the legacy read merged (deep-copied) the whole performance namespace
to index one subtree out of it.  The replica keeps that algorithm; the
bench asserts both sides return equal trees.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_store_query.py
    PYTHONPATH=src python benchmarks/perf/bench_store_query.py --quick --out BENCH_perf.json

When ``--out`` already holds a perf-suite JSON (e.g. written by
``bench_kernel.py``), this bench merges into its ``benches`` map
instead of clobbering it.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from perf_common import best_of, write_results

from repro.conduit import Node
from repro.soma.storage import NamespaceStore


class LegacyNamespaceStore(NamespaceStore):
    """Replica of the pre-index store: time bisect, linear source scan.

    Kept only as the baseline side of this microbenchmark, so the
    measured speedup is against the real legacy algorithm rather than
    a guess.
    """

    def records(self, source=None, since=None, until=None):
        times = self._times
        lo = 0 if since is None else bisect.bisect_left(times, since)
        hi = len(times) if until is None else bisect.bisect_right(times, until)
        window = self._records[lo:hi]
        if source is None:
            return window
        return [record for record in window if record.source == source]

    def latest(self, source=None):
        if source is None:
            return self._records[-1] if self._records else None
        for record in reversed(self._records):
            if record.source == source:
                return record
        return None

    def merged(self, source=None, since=None, until=None, path=None):
        root = Node()
        for record in self.records(source=source, since=since, until=until):
            root.update(record.data)
        if path is None:
            return root
        node = root.find(path)
        return Node() if node is None else node


def _payload() -> Node:
    node = Node()
    node["cpu/utilization"] = 0.41
    node["memory/bandwidth_utilization"] = 0.17
    return node


def _source(index: int) -> str:
    return f"hwmon@cn{index:04d}"


def _populate(store: NamespaceStore, sources: int, per_source: int) -> None:
    """Round-robin publishes: ``sources`` monitors on a shared period."""
    payload = _payload()
    period = 30.0
    for tick in range(per_source):
        for index in range(sources):
            # Monitors fire staggered within the period, as deployed.
            at = tick * period + index * (period / sources)
            store.append(at, _source(index), payload)


def _window_queries(store: NamespaceStore, sources: int, queries: int) -> int:
    """The detector access pattern: one source, a trailing window."""
    horizon = store.records()[-1].time
    matched = 0
    for q in range(queries):
        source = _source(q % sources)
        since = (q * 379.0) % (horizon / 2)
        rows = store.records(source=source, since=since, until=since + horizon / 2)
        last = store.latest(source)
        matched += len(rows) + (last is not None)
    return matched


def _equivalent(indexed: NamespaceStore, legacy: NamespaceStore, sources: int) -> bool:
    horizon = indexed.records()[-1].time
    probes = [
        (None, None, None),
        (_source(0), None, None),
        (_source(sources - 1), horizon / 3, 2 * horizon / 3),
        (_source(sources // 2), horizon / 2, None),
        ("absent@nowhere", None, None),
    ]
    for source, since, until in probes:
        if indexed.records(source=source, since=since, until=until) != legacy.records(
            source=source, since=since, until=until
        ):
            return False
    return all(
        indexed.latest(_source(i)) == legacy.latest(_source(i))
        for i in range(sources)
    )


def store_query(sources: int, per_source: int, queries: int) -> dict:
    indexed = NamespaceStore("perf")
    legacy = LegacyNamespaceStore("perf")
    _populate(indexed, sources, per_source)
    _populate(legacy, sources, per_source)

    legacy_seconds, legacy_matched = best_of(
        lambda: _window_queries(legacy, sources, queries)
    )
    indexed_seconds, indexed_matched = best_of(
        lambda: _window_queries(indexed, sources, queries)
    )
    return {
        "sources": sources,
        "records": sources * per_source,
        "queries": queries,
        "legacy": {"seconds": legacy_seconds, "matched": legacy_matched},
        "indexed": {"seconds": indexed_seconds, "matched": indexed_matched},
        "speedup": legacy_seconds / indexed_seconds,
        "equivalent": (
            legacy_matched == indexed_matched
            and _equivalent(indexed, legacy, sources)
        ),
    }


def _task_uid(index: int) -> str:
    return f"task.{index:06d}"


def _populate_tau(
    store: NamespaceStore, tasks: int, ranks: int, publishes: int
) -> None:
    """TAU-shaped profiles: each task's ranks split over ``publishes``."""
    regions = ("solve", "assemble", "io", "MPI_Wait", "MPI_Allreduce")
    for part in range(publishes):
        for index in range(tasks):
            tree = Node()
            uid = _task_uid(index)
            for rank in range(part, ranks, publishes):
                base = f"TAU/{uid}/cn{rank % 4:04d}/rank{rank:05d}"
                for offset, region in enumerate(regions):
                    tree[f"{base}/{region}"] = float(rank + offset + index)
            store.append(part * 60.0 + index, f"tau@{uid}", tree)


def _task_reads(store: NamespaceStore, tasks: int) -> list[Node]:
    """The load-imbalance access pattern: one subtree per task."""
    return [store.merged(path=f"TAU/{_task_uid(i)}") for i in range(tasks)]


def merged_path(tasks: int, ranks: int, publishes: int) -> dict:
    scoped = NamespaceStore("performance")
    legacy = LegacyNamespaceStore("performance")
    _populate_tau(scoped, tasks, ranks, publishes)
    _populate_tau(legacy, tasks, ranks, publishes)

    legacy_seconds, legacy_trees = best_of(lambda: _task_reads(legacy, tasks))
    scoped_seconds, scoped_trees = best_of(lambda: _task_reads(scoped, tasks))
    return {
        "tasks": tasks,
        "records": len(scoped),
        "leaves": sum(tree.num_leaves() for tree in scoped_trees),
        "legacy": {"seconds": legacy_seconds},
        "scoped": {"seconds": scoped_seconds},
        "speedup": legacy_seconds / scoped_seconds,
        "equivalent": [tree.to_dict() for tree in legacy_trees]
        == [tree.to_dict() for tree in scoped_trees],
    }


def run_all(quick: bool = False) -> dict:
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if quick:
            bench = store_query(sources=16, per_source=400, queries=400)
            scoped = merged_path(tasks=16, ranks=8, publishes=2)
        else:
            # A Scaling-A-sized deployment: 64 hardware monitors
            # publishing for a long run.
            bench = store_query(sources=64, per_source=4_000, queries=2_000)
            # The openfoam_explain shape, four times the tasks.
            scoped = merged_path(tasks=128, ranks=20, publishes=2)
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()
    return {
        "schema": 1,
        "quick": quick,
        "python": sys.version.split()[0],
        "benches": {"store_source_query": bench, "store_merged_path": scoped},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_perf.json", help="output JSON path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scale the bench down (CI smoke)",
    )
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick)
    merged = results
    if os.path.exists(args.out):
        try:
            with open(args.out) as handle:
                merged = json.load(handle)
        except (OSError, ValueError):
            merged = results
        else:
            merged.setdefault("benches", {}).update(results["benches"])
    write_results(args.out, merged)

    bench = results["benches"]["store_source_query"]
    print(
        f"store_source_query {bench['sources']} sources / "
        f"{bench['records']:,} records / {bench['queries']:,} queries   "
        f"legacy {bench['legacy']['seconds'] * 1e3:7.1f} ms   "
        f"indexed {bench['indexed']['seconds'] * 1e3:7.1f} ms   "
        f"speedup {bench['speedup']:.2f}x   "
        f"equivalent={bench['equivalent']}"
    )
    scoped = results["benches"]["store_merged_path"]
    print(
        f"store_merged_path {scoped['tasks']} tasks / "
        f"{scoped['records']:,} records / {scoped['leaves']:,} leaves read   "
        f"legacy {scoped['legacy']['seconds'] * 1e3:7.1f} ms   "
        f"scoped {scoped['scoped']['seconds'] * 1e3:7.1f} ms   "
        f"speedup {scoped['speedup']:.2f}x   "
        f"equivalent={scoped['equivalent']}"
    )
    print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
