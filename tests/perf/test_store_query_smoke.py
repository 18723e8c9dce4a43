"""Smoke test for the store-query perf bench (quick mode).

Runs the per-source index and path-scoped merge microbenchmarks once
at CI scale and checks the contract the perf-regression harness
depends on: stable JSON schema, answer equivalence against the legacy
replica (the guard that each is a pure optimization), and a
conservative speedup floor — full-scale runs measure well over 10x;
the floor leaves headroom for noisy shared runners.
"""

import os
import sys

BENCH_DIR = os.path.abspath(
    os.path.join(
        os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "perf"
    )
)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import bench_store_query  # noqa: E402


def test_quick_bench_schema_equivalence_and_speedup():
    results = bench_store_query.run_all(quick=True)

    assert results["schema"] == 1
    assert results["quick"] is True
    bench = results["benches"]["store_source_query"]
    assert bench["records"] == bench["sources"] * 400
    assert bench["legacy"]["seconds"] > 0
    assert bench["indexed"]["seconds"] > 0
    # Identical answers from both algorithms, or the speedup is noise.
    assert bench["equivalent"] is True
    assert bench["legacy"]["matched"] == bench["indexed"]["matched"]
    # Full-scale runs measure >10x; CI floor is deliberately loose.
    assert bench["speedup"] >= 2.0


def test_quick_merged_path_bench_equivalence_and_speedup():
    results = bench_store_query.run_all(quick=True)

    bench = results["benches"]["store_merged_path"]
    assert bench["records"] == 2 * bench["tasks"]
    assert bench["leaves"] > 0
    assert bench["legacy"]["seconds"] > 0
    assert bench["scoped"]["seconds"] > 0
    # The scoped read returns the same subtree the whole merge held.
    assert bench["equivalent"] is True
    # Quick runs measure ~10x, full-scale ~40x; the floor stays loose.
    assert bench["speedup"] >= 2.0


def test_legacy_replica_matches_on_out_of_order_appends():
    """The insort path: late-arriving publishes keep both stores aligned."""
    from repro.soma.storage import NamespaceStore

    indexed = NamespaceStore("ns")
    legacy = bench_store_query.LegacyNamespaceStore("ns")
    payload = bench_store_query._payload()
    appends = [
        (30.0, "a"), (10.0, "b"), (20.0, "a"), (20.0, "b"),
        (5.0, "a"), (30.0, "b"), (25.0, "a"),
    ]
    for at, source in appends:
        indexed.append(at, source, payload)
        legacy.append(at, source, payload)
    for source in (None, "a", "b", "missing"):
        assert indexed.records(source=source) == legacy.records(source=source)
        assert indexed.records(source=source, since=10.0, until=25.0) == (
            legacy.records(source=source, since=10.0, until=25.0)
        )
        assert indexed.latest(source) == legacy.latest(source)
