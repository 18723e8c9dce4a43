"""Provenance explain-phase benchmark -> BENCH_perf.json.

Explaining a run is ``build_graph`` -> ``validate_graph`` ->
``critical_path`` over one finished provenance-on run.  The graph holds
tens of thousands of edges, so how it is stored decides how much the
cyclic GC has to scan: this bench reports the phase's wall time next to
the number of full (generation 2) collections that ran inside it,
counted with ``gc.callbacks``, plus the graph size and the critical
path's attribution check.

The run is the ``openfoam_explain`` shape (Table 1 Overload, 8
instances per rank configuration, seed 21); ``--quick`` runs one
instance per configuration.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_provenance.py
    PYTHONPATH=src python benchmarks/perf/bench_provenance.py --quick --out BENCH_perf.json

When ``--out`` already holds a perf-suite JSON, this bench merges into
its ``benches`` map instead of clobbering it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from perf_common import write_results

from repro.experiments.openfoam_exps import OVERLOAD, run_openfoam_experiment
from repro.provenance import (
    attribution_total,
    build_graph,
    critical_path,
    set_default_provenance,
    validate_graph,
)
from repro.telemetry import drain_telemetries, set_default_telemetry

SEED = 21


def _run(instances: int):
    prev_tel = set_default_telemetry(True)
    prev_prov = set_default_provenance(True)
    drain_telemetries()
    try:
        return run_openfoam_experiment(
            replace(OVERLOAD, instances_per_config=instances), seed=SEED
        )
    finally:
        set_default_telemetry(prev_tel)
        set_default_provenance(prev_prov)


def explain_phase(result) -> dict:
    """One timed build + validate + critical-path pass, GC left on."""
    full_collections = 0

    def count(phase: str, info: dict) -> None:
        nonlocal full_collections
        if phase == "start" and info["generation"] == 2:
            full_collections += 1

    gc.callbacks.append(count)
    try:
        start = time.perf_counter()
        graph = build_graph(result)
        violations = validate_graph(graph)
        path = critical_path(graph)
        seconds = time.perf_counter() - start
    finally:
        gc.callbacks.remove(count)
    makespan = graph.end.t - graph.root.t
    return {
        "seconds": seconds,
        "gen2_collections": full_collections,
        "events": len(graph.events),
        "edges": len(graph.edges),
        "violations": len(violations),
        "critical_path_edges": len(path),
        "attribution_exact": math.isclose(
            attribution_total(path), makespan, rel_tol=1e-9
        ),
    }


def run_all(quick: bool = False) -> dict:
    instances = 1 if quick else 8
    result = _run(instances)
    # The first pass mirrors the explain phase right after a run; the
    # repeats give a noise floor for the wall time.
    first = explain_phase(result)
    repeats = [explain_phase(result) for _ in range(2)]
    drain_telemetries()
    bench = dict(first)
    bench["instances_per_config"] = instances
    bench["best_seconds"] = min(p["seconds"] for p in [first, *repeats])
    return {
        "schema": 1,
        "quick": quick,
        "python": sys.version.split()[0],
        "benches": {"provenance_explain": bench},
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

    bench = results["benches"]["provenance_explain"]
    print(
        f"provenance_explain {bench['instances_per_config']} instance(s)/config   "
        f"{bench['events']:,} events / {bench['edges']:,} edges   "
        f"first {bench['seconds'] * 1e3:7.1f} ms   "
        f"best {bench['best_seconds'] * 1e3:7.1f} ms   "
        f"gen2 collections {bench['gen2_collections']}   "
        f"violations {bench['violations']}   "
        f"attribution_exact={bench['attribution_exact']}"
    )
    print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
