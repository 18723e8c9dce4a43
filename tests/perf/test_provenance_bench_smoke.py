"""Smoke test for the provenance explain-phase bench (quick mode).

Runs ``bench_provenance.py`` once at CI scale and checks the contract
``BENCH_perf.json`` consumers rely on: a stable schema, a valid graph
(no violations, exact critical-path attribution), and a collection
count read from ``gc.callbacks``.  No timing floor: the wall time and
the collection count depend on the heap the rest of the process left.
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

import bench_provenance  # noqa: E402


def test_quick_bench_schema_and_valid_graph():
    results = bench_provenance.run_all(quick=True)

    assert results["schema"] == 1
    assert results["quick"] is True
    bench = results["benches"]["provenance_explain"]
    assert bench["instances_per_config"] == 1
    assert bench["edges"] > bench["events"] > 0
    assert bench["violations"] == 0
    assert bench["attribution_exact"] is True
    assert bench["critical_path_edges"] > 0
    assert 0 < bench["best_seconds"] <= bench["seconds"]
    assert isinstance(bench["gen2_collections"], int)
    assert bench["gen2_collections"] >= 0


def test_cli_merges_into_existing_suite_file(tmp_path):
    import json

    out = tmp_path / "BENCH_perf.json"
    out.write_text(json.dumps({"schema": 1, "benches": {"kernel": {"x": 1}}}))
    assert bench_provenance.main(["--quick", "--out", str(out)]) == 0
    merged = json.loads(out.read_text())
    assert set(merged["benches"]) == {"kernel", "provenance_explain"}
