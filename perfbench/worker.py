"""One measured run of one workload, in a fresh process.

``run.py`` starts this script once per sample, so every sample pays the
interpreter start and ``import repro`` that ``setup_s`` measures.  It
prints one JSON object on its last stdout line.  Usage::

    python3 perfbench/worker.py --workload NAME --seed N --t0 MONOTONIC [--trace]

``--t0`` is ``time.monotonic()`` taken by the parent just before it
started this process; Linux's monotonic clock is shared by all
processes, so ``setup_s`` counts process start-up as well.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Largest tolerated gap between the traced run's per-layer self times
#: and its measured run phase plus all analysis passes, as a share of
#: the latter.
ACCOUNTING_TOLERANCE = 0.03


class Probe:
    """The few hooks every run needs, traced or not.

    Wraps ``Environment.run`` (first-entry time, time inside, the
    environment) and ``ShardedSomaServiceModel.bring_up`` (the facility
    deployment, which ``run_facility`` does not return).
    """

    def __init__(self) -> None:
        self.env: Any = None
        self.service_model: Any = None
        self.first_run_at: float | None = None
        self.run_s = 0.0

    def install(self) -> Any:
        from repro.sim.core import Environment
        from repro.soma.service import ShardedSomaServiceModel

        raw_run = Environment.run
        raw_bring_up = ShardedSomaServiceModel.bring_up

        def run(env: Any, *args: Any, **kwargs: Any) -> Any:
            if self.first_run_at is None:
                self.first_run_at = time.monotonic()
                # Each timed phase starts from a full collection, so it
                # never pays for garbage the previous phase left behind.
                gc.collect()
            self.env = env
            start = perf_counter()
            try:
                return raw_run(env, *args, **kwargs)
            finally:
                self.run_s += perf_counter() - start

        def bring_up(model: Any, *args: Any, **kwargs: Any) -> Any:
            self.service_model = model
            return raw_bring_up(model, *args, **kwargs)

        Environment.run = run
        ShardedSomaServiceModel.bring_up = bring_up

        def restore() -> None:
            Environment.run = raw_run
            ShardedSomaServiceModel.bring_up = raw_bring_up

        return restore


def _seen(tracer: Any, name: str, index: int) -> list[Any]:
    entry = tracer.entries.get(name)
    if entry is None:
        return []
    return [obj for (i, _), obj in entry.seen.items() if i == index]


def layer_metrics(
    tracer: Any, probe: Any, counters: dict[str, float], run_s: float,
    analyze_total_s: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced run (names as in BENCHMARK.json).

    Self times and counters of the analysis phase cover all its passes.
    """
    selfs = dict.fromkeys(tracer.phase_self["setup"], 0.0)
    for phase in ("run", "analyze"):
        for layer, seconds in tracer.phase_self.get(phase, {}).items():
            selfs[layer] += seconds
    entries = tracer.entries

    def calls(*names: str) -> int:
        return sum(entries[n].calls for n in names if n in entries)

    def value(name: str) -> float:
        return entries[name].value if name in entries else 0.0

    kernel = probe.env.kernel_counters()
    executed = kernel["events_executed"]
    rpc = entries.get("RPCClient.call")
    rpc_calls = rpc.calls if rpc else 0
    rpc_failures = rpc.failed if rpc else 0
    retries = sum(c.retries for c in _seen(tracer, "RPCClient.call", 0))
    publish = entries.get("SomaClient.publish")
    detector_runs = sum(
        e.calls for n, e in entries.items()
        if n.endswith("Detector.detect")
    )
    samples = sum(
        m.samples
        for n in ("HardwareMonitorModel.execute", "RPMonitorModel.execute")
        for m in _seen(tracer, n, 0)
    ) + sum(m.published_profiles for m in _seen(tracer, "TAUWrappedModel.execute", 0))
    total = sum(selfs.values())
    measured = run_s + analyze_total_s
    metrics = {
        "sim.self_s": selfs["sim"],
        "sim.events_executed": executed,
        "sim.events_scheduled": kernel["events_scheduled"],
        "sim.tombstones_skipped": kernel["tombstones_skipped"],
        "sim.peak_queue": kernel["peak_heap_size"],
        "sim.host_us_per_event": selfs["sim"] / executed * 1e6 if executed else 0.0,
        "platform.self_s": selfs["platform"],
        "platform.compute_activities": calls(
            "Node.run_compute", "Node.run_gpu_compute", "Node.inject_jitter"
        ),
        "platform.transfers": calls("Network.transfer"),
        "platform.transfer_bytes": int(value("Network.transfer")),
        "platform.procfs_reads": calls("ProcFS.read"),
        "messaging.self_s": selfs["messaging"],
        "messaging.rpc_calls": rpc_calls,
        "messaging.rpc_retries": retries,
        "messaging.rpc_failures": rpc_failures,
        "messaging.rpc_useful_frac": (
            (rpc_calls - rpc_failures) / (rpc_calls + retries) if rpc_calls else 1.0
        ),
        "messaging.queue_sim_s": sum(
            s.stats.queue_time for s in _seen(tracer, "RPCClient.call", 1)
        ),
        "soma.publish_self_s": selfs["soma.write"],
        "soma.read_self_s": selfs["soma.read"],
        "soma.publishes": publish.calls if publish else 0,
        "soma.publishes_failed": publish.failed if publish else 0,
        "soma.store_appends": calls("NamespaceStore.append"),
        "soma.store_reads": calls(
            "NamespaceStore.records", "NamespaceStore.latest",
            "NamespaceStore.merged", "NamespaceStore.__iter__",
        ),
        "soma.ring_builds": calls("HashRing.__init__"),
        "soma.gap_sim_s": sum(
            c.gap_seconds for c in _seen(tracer, "SomaClient.publish", 0)
        ),
        "conduit.self_s": selfs["conduit"],
        "conduit.nodes_copied": calls("Node.copy"),
        "conduit.leaves_walks": entries["Node.leaves"].spans,
        "conduit.bytes_encoded": int(value("Node.nbytes")),
        "monitors.self_s": selfs["monitors"],
        "monitors.samples": samples,
        "rp.self_s": selfs["rp"],
        "rp.tasks_submitted": int(value("TaskManager.submit_tasks")),
        "rp.tasks_done": counters.get("rp.tasks_done", 0),
        "rp.sched_wait_sim_s": counters.get("rp.sched_wait_sim_s", 0.0),
        "entk.self_s": selfs["entk"],
        "entk.stages_run": calls("AppManager._run_stage"),
        "telemetry.self_s": selfs["telemetry"],
        "telemetry.spans": int(value("Telemetry.start_span")),
        "provenance.capture_self_s": selfs["provenance.capture"],
        "provenance.build_s": selfs["provenance.build"],
        "provenance.graph_events": counters.get("provenance.graph_events", 0),
        "provenance.graph_edges": counters.get("provenance.graph_edges", 0),
        "analysis.self_s": selfs["analysis"],
        "analysis.detector_runs": detector_runs,
        "analysis.findings": counters.get("analysis.findings", 0),
        "trace.accounting_error_frac": abs(total - measured) / measured,
    }
    return metrics


def _import_repro() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"worker: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"worker: imported repro from {repro.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    _import_repro()
    from tracing import Tracer, install
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.configure()
    tracer = undo_trace = None
    if args.trace:
        tracer = Tracer()
        undo_trace = install(tracer)
    probe = Probe()
    undo_probe = probe.install()

    result = workload.run(args.seed, probe)
    run_s = probe.run_s

    gc.collect()
    if tracer is not None:
        tracer.set_phase("analyze")
        root = tracer.entry("analysis", "analyze")
        tracer.open(root)
    passes = []
    for _ in range(workload.analysis_passes):
        start = perf_counter()
        analysis = workload.analyze(result, probe)
        passes.append(perf_counter() - start)
    if tracer is not None:
        tracer.close(root)
        tracer.set_phase("post")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    undo_probe()
    if undo_trace is not None:
        undo_trace()

    outcome = workload.check(result, analysis, probe)
    record: dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": probe.first_run_at - args.t0,
        "run_s": run_s,
        "analyze_s": statistics.median(passes),
        "events_executed": probe.env.kernel_counters()["events_executed"],
        "peak_rss_mb": peak_rss_mb,
        "sim_makespan_s": workload.makespan(result),
        "attempted": outcome.attempted,
        "failed_ops": outcome.failed_ops,
        "violations": outcome.violations,
        "digest": workload.digest(result, analysis, probe),
    }
    if tracer is not None:
        layers = layer_metrics(tracer, probe, outcome.counters, run_s, sum(passes))
        error = layers["trace.accounting_error_frac"]
        if error > ACCOUNTING_TOLERANCE:
            outcome.violations.append(
                f"per-layer self times miss {error:.1%} of the measured time "
                f"(tolerance {ACCOUNTING_TOLERANCE:.0%})"
            )
        if tracer.anomalies or tracer.stack:
            outcome.violations.append(
                f"span stack broken: {tracer.anomalies} anomalies, "
                f"{len(tracer.stack)} spans left open"
            )
        record["layers"] = layers
        record["trace"] = tracer.report()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
