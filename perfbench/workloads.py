"""The benchmark's three workloads, each driven through public entry points.

Every workload has the same four steps, which the worker times and
checks separately:

* ``run(seed)`` calls the same public function the CLI and the sweep
  cells call and returns its result (the run phase is the time spent
  inside ``Environment.run``);
* ``analyze(result)`` is the post-run analysis a user of that scenario
  performs over the observability data (timed as ``analyze_s``); it
  only reads, so the worker may repeat it;
* ``check(...)`` counts attempted operations and lists every
  correctness violation;
* ``digest(...)`` hashes the simulated outputs (stores, makespan, kernel
  counters, trace records, analysis results).  It must not depend on
  host timing or on whether the run was traced.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``README.md`` beside this file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any

__all__ = ["WORKLOADS", "Workload", "Outcome"]


@dataclass
class Outcome:
    """What ``check`` reports for one run."""

    #: Application tasks plus SOMA publishes attempted.
    attempted: int = 0
    #: Tasks not DONE + stalled tasks + failed or dropped publishes.
    failed_ops: int = 0
    #: Human-readable correctness violations (each counts as failed).
    violations: list[str] = field(default_factory=list)
    #: Per-layer counters that come from the result, not the wrappers.
    counters: dict[str, float] = field(default_factory=dict)


def _hasher() -> Any:
    return hashlib.blake2b(digest_size=16)


def _feed(h: Any, value: Any) -> None:
    h.update(json.dumps(value, sort_keys=True, default=repr).encode())
    h.update(b"\n")


def _feed_stores(h: Any, stores: dict) -> None:
    for name in sorted(stores):
        store = stores[name]
        _feed(h, ["store", name, len(store)])
        for record in store.records():
            _feed(h, [repr(record.time), record.source, record.nbytes])
            h.update(record.data.to_json().encode())


def _feed_trace(h: Any, tracer: Any) -> None:
    for rec in tracer.records:
        _feed(h, [repr(rec.time), rec.category, rec.name,
                  sorted((k, repr(v)) for k, v in rec.data.items())])


def _task_failures(tasks: list) -> tuple[int, list[str]]:
    """Application tasks that did not end DONE (stalled ones included)."""
    from repro.rp.states import TaskState

    bad = [t for t in tasks if t.state != TaskState.DONE]
    return len(bad), [f"task {t.uid} ended {t.state}" for t in bad[:5]]


def _workflow_publishes(result: Any) -> tuple[int, int]:
    """(attempted, failed) SOMA publishes of a workflow run.

    Successful publishes are the records the service stored; failed
    ones are the client-side drop/reject records of the session tracer,
    whose counts are kept even for categories it does not store.
    """
    stored = sum(len(s) for s in result.deployment.service_model.stores.values()) \
        if result.deployment.enabled else 0
    tracer = result.session.tracer
    failed = tracer.count("soma.publish_failed") + tracer.count(
        "soma.publish_rejected"
    )
    return stored + failed, failed


def _sched_wait(tasks: list) -> float:
    from repro.rp.states import TaskState

    return sum(
        t.state_durations().get(TaskState.AGENT_SCHEDULING, 0.0) for t in tasks
    )


class Workload:
    """One benchmark workload; subclasses fill in the four steps."""

    name = ""
    default_seed = 0
    #: Telemetry and provenance capture on for the run.
    observers = False
    #: Times the analysis phase is repeated in one process; ``analyze_s``
    #: is the median pass.  Short phases repeat so that one sample is not
    #: a single noisy tens-of-milliseconds reading.
    analysis_passes = 1

    def configure(self) -> None:
        """Pin the process-wide defaults the run depends on.

        Also imports the analysis modules, so that importing them counts
        in ``setup_s`` and not in ``analyze_s``.
        """
        import repro.analysis.bottleneck.detectors  # noqa: F401
        from repro.provenance import set_default_provenance
        from repro.sim.core import set_default_sanitize
        from repro.telemetry import set_default_telemetry

        set_default_sanitize(False)
        set_default_telemetry(self.observers)
        set_default_provenance(self.observers)

    def run(self, seed: int, probe: Any) -> Any:
        raise NotImplementedError

    def analyze(self, result: Any, probe: Any) -> Any:
        raise NotImplementedError

    def check(self, result: Any, analysis: Any, probe: Any) -> Outcome:
        raise NotImplementedError

    def digest(self, result: Any, analysis: Any, probe: Any) -> str:
        raise NotImplementedError

    def makespan(self, result: Any) -> float:
        return result.makespan


class FacilityWrite(Workload):
    """Write-heavy shared SOMA service: 100 pilots publish into 4 shards."""

    name = "facility_write"
    default_seed = 3
    analysis_passes = 15

    def spec(self) -> Any:
        from repro.experiments.facility import FacilitySpec

        return FacilitySpec(pilots=100, tasks_per_pilot=400)

    def run(self, seed: int, probe: Any) -> Any:
        from repro.experiments.facility import run_facility

        return run_facility(self.spec(), seed=seed)

    def analyze(self, result: Any, probe: Any) -> Any:
        """Reconcile delivered samples per tenant from the shard stores.

        This is the operator's question after a facility run — did every
        tenant's samples arrive? — answered by per-source store queries,
        followed by the detector battery over the service's queue stats.
        """
        from repro.analysis.bottleneck.context import DetectionContext
        from repro.analysis.bottleneck.detectors import detect_all
        from repro.soma.namespaces import PERFORMANCE, WORKFLOW

        model = probe.service_model
        spec = result.spec
        delivered: dict[str, tuple[int, int, int]] = {}
        for tenant in spec.tenants():
            source = f"mon@{tenant}"
            wf = model.store(WORKFLOW, tenant=tenant)
            perf = model.store(PERFORMANCE, tenant=tenant)
            batches = sum(
                r.data.get(f"RP/{tenant}/batch", 0) for r in wf.records(source=source)
            )
            tasks = sum(
                r.data.get(f"TAU/{tenant}/batch_tasks", 0)
                for r in perf.records(source=source)
            )
            last = wf.latest(source=source)
            completed = last.data.get(f"RP/{tenant}/completed", 0) if last else 0
            delivered[tenant] = (batches, tasks, completed)
        ctx = DetectionContext(
            now=result.makespan,
            stores=dict(model.stores),
            server_stats=model.queue_stats(),
            monitoring_period=spec.period,
        )
        return {"delivered": delivered, "findings": detect_all(ctx)}

    def check(self, result: Any, analysis: Any, probe: Any) -> Outcome:
        spec = result.spec
        out = Outcome()
        expected = spec.pilots * spec.tasks_per_pilot
        publishes = result.publishes_ok + result.publishes_failed
        out.attempted = expected + publishes
        out.failed_ops = result.stalled_tasks + result.publishes_failed
        v = out.violations
        if result.samples_generated != expected:
            v.append(f"generated {result.samples_generated} samples, expected {expected}")
        delivered = analysis["delivered"]
        got = sum(b for b, _, _ in delivered.values())
        if got != result.samples_published:
            v.append(f"stores hold {got} samples, run reports {result.samples_published}")
        lost = result.samples_generated - result.samples_published
        if lost < 0 or (result.publishes_failed == 0 and lost != 0):
            v.append(f"{lost} samples unaccounted for with "
                     f"{result.publishes_failed} failed publishes")
        for tenant, (batches, tasks, completed) in delivered.items():
            if result.publishes_failed == 0 and not (
                batches == tasks == completed == spec.tasks_per_pilot
            ):
                v.append(f"tenant {tenant}: delivered {batches}/{tasks}/{completed}")
                break
        if sum(result.store_records.values()) != result.publishes_ok:
            v.append("store records differ from successful publishes")
        out.counters = {"analysis.findings": len(analysis["findings"])}
        return out

    def digest(self, result: Any, analysis: Any, probe: Any) -> str:
        h = _hasher()
        _feed(h, result.payload())
        _feed(h, probe.env.kernel_counters())
        _feed_stores(h, dict(probe.service_model.stores))
        _feed(h, sorted(analysis["delivered"].items()))
        _feed(h, [f.to_dict() for f in analysis["findings"]])
        return h.hexdigest()


class _WorkflowWorkload(Workload):
    """A workload run through ``run_workflow`` (RP pilot + SOMA deployment)."""

    def check(self, result: Any, analysis: Any, probe: Any) -> Outcome:
        out = Outcome()
        tasks = result.application_tasks
        pub_attempted, pub_failed = _workflow_publishes(result)
        not_done, messages = _task_failures(tasks)
        out.attempted = len(tasks) + pub_attempted
        out.failed_ops = not_done + pub_failed
        out.violations.extend(messages)
        if not tasks:
            out.violations.append("no application tasks ran")
        if not (result.makespan > 0 and math.isfinite(result.makespan)):
            out.violations.append(f"makespan {result.makespan!r}")
        out.counters = {
            "rp.tasks_done": len(tasks) - not_done,
            "rp.sched_wait_sim_s": _sched_wait(tasks),
            "analysis.findings": len(analysis["findings"]),
        }
        return out

    def _digest(self, result: Any, probe: Any) -> Any:
        h = _hasher()
        _feed(h, [repr(result.makespan), repr(result.finished_at)])
        _feed(h, probe.env.kernel_counters())
        for uid in sorted(result.tasks):
            task = result.tasks[uid]
            _feed(h, [uid, task.state, [
                [repr(e.time), e.name, e.state] for e in task.events
            ]])
        if result.deployment.enabled:
            _feed_stores(h, dict(result.deployment.service_model.stores))
        _feed_trace(h, result.session.tracer)
        return h


class DDMDScale(_WorkflowWorkload):
    """Fig 11 cell: 64 DDMD pipelines, exclusive SOMA, 10 s monitoring."""

    name = "ddmd_scale"
    default_seed = 5
    analysis_passes = 7

    def run(self, seed: int, probe: Any) -> Any:
        from repro.experiments.ddmd_exps import SCALING_B, run_ddmd_experiment

        return run_ddmd_experiment(SCALING_B(64, "exclusive", frequent=True), seed=seed)

    def analyze(self, result: Any, probe: Any) -> Any:
        """The detector battery over the run's SOMA stores."""
        from repro.analysis.bottleneck.context import DetectionContext
        from repro.analysis.bottleneck.detectors import detect_all

        return {"findings": detect_all(DetectionContext.from_result(result))}

    def digest(self, result: Any, analysis: Any, probe: Any) -> str:
        h = self._digest(result, probe)
        _feed(h, [f.to_dict() for f in analysis["findings"]])
        return h.hexdigest()


class OpenFOAMExplain(_WorkflowWorkload):
    """Table 1 Overload shape, 8 instances per rank configuration, explained."""

    name = "openfoam_explain"
    default_seed = 21
    observers = True

    def run(self, seed: int, probe: Any) -> Any:
        from repro.experiments.openfoam_exps import OVERLOAD, run_openfoam_experiment

        return run_openfoam_experiment(
            replace(OVERLOAD, instances_per_config=8), seed=seed
        )

    def analyze(self, result: Any, probe: Any) -> Any:
        """Explain the run: provenance graph, critical path, detectors."""
        from repro.analysis.bottleneck.context import DetectionContext
        from repro.analysis.bottleneck.detectors import detect_all
        from repro.provenance import (
            build_graph,
            critical_path,
            edge_attribution,
            validate_graph,
        )

        graph = build_graph(result)
        violations = validate_graph(graph)
        path = critical_path(graph)
        attribution = edge_attribution(path)
        ctx = DetectionContext.from_deployment(result.deployment, now=result.finished_at)
        return {
            "graph": graph,
            "violations": violations,
            "attribution": attribution,
            "findings": detect_all(ctx),
        }

    def check(self, result: Any, analysis: Any, probe: Any) -> Outcome:
        out = super().check(result, analysis, probe)
        graph = analysis["graph"]
        out.violations.extend(v.format() for v in analysis["violations"])
        total = sum(analysis["attribution"].values())
        span = graph.end.t - graph.root.t
        if not math.isclose(total, span, rel_tol=1e-9) or not math.isclose(
            span, result.finished_at, rel_tol=1e-12
        ):
            out.violations.append(
                f"critical path attributes {total!r} s of a {span!r} s run"
            )
        out.counters.update({
            "provenance.graph_events": len(graph.events),
            "provenance.graph_edges": len(graph.edges),
        })
        return out

    def digest(self, result: Any, analysis: Any, probe: Any) -> str:
        h = self._digest(result, probe)
        graph = analysis["graph"]
        _feed(h, [len(graph.events), len(graph.edges)])
        _feed(h, sorted((k, repr(v)) for k, v in analysis["attribution"].items()))
        _feed(h, [f.to_dict() for f in analysis["findings"]])
        return h.hexdigest()


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (FacilityWrite(), DDMDScale(), OpenFOAMExplain())
}
