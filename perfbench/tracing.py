"""Boundary tracing for the benchmark: spans wrapped around each layer.

The simulator is measured from outside.  :func:`install` replaces the
public entry points of every layer (and the kernel callbacks through
which the event loop enters a layer) with thin wrappers that open a
span, call the original, and close the span.  Nothing under ``src/`` is
edited; :func:`install` returns an undo callable that restores every
original object.

Span rules:

* A plain function gets one span per call.  A recursive call (the
  innermost open span is the same entry point) opens no span of its
  own, so deep recursion such as ``Node.copy`` costs one span, not one
  per node; it is still counted.
* A generator function (a simulation process body, ``RPCClient.call``,
  ``SomaClient.publish``, a monitor's ``execute``, ...) is timed per
  resume: each ``send``/``throw`` into it is one span, so simulated
  waiting is never counted as host time.  Iterator generators
  (``Node.leaves``) follow the function rule for recursion.
* Self time is a span's duration minus the duration of its child
  spans.  Time inside ``Environment.run`` that no wrapped layer covers
  is the kernel's (``sim``) self time.

Spans are aggregated in memory per entry point (calls, spans, resumes,
self seconds) and per (phase, layer); :meth:`Tracer.report` writes them
out when the run ends.  Counters are taken at the same wrappers or read
from public state of the objects the wrappers saw.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter
from typing import Any, Callable

__all__ = ["LAYERS", "Entry", "Tracer", "install"]

#: Layers in report order.  ``soma.write``/``soma.read`` split the SOMA
#: layer into its publish and query halves; ``provenance.capture`` runs
#: during the simulation and ``provenance.build`` during analysis.
LAYERS = (
    "sim",
    "platform",
    "messaging",
    "soma.write",
    "soma.read",
    "conduit",
    "monitors",
    "rp",
    "entk",
    "telemetry",
    "provenance.capture",
    "provenance.build",
    "analysis",
)

#: (layer, module, attribute paths, options).  An attribute path is
#: ``Class.method`` or a module-level ``function``.  Options:
#: ``inline`` marks iterator generators (see module docstring).
TARGETS: tuple[tuple[str, str, tuple[str, ...], dict], ...] = (
    ("platform", "repro.platform.node", (
        "Node.run_compute", "Node.run_gpu_compute", "Node.inject_jitter",
        "Node.allocate", "Node.free", "Node.set_speed_factor", "Node.fail",
    ), {}),
    ("platform", "repro.platform.rateshare", (
        "RatePool.execute", "RatePool._on_timer", "RatePool.set_speed_factor",
        "RatePool.fail_all", "Activity.cancel",
    ), {}),
    ("platform", "repro.platform.network", (
        "Network.transfer", "Network.await_path",
    ), {}),
    ("platform", "repro.platform.procfs", ("ProcFS.read",), {}),
    ("messaging", "repro.messaging.rpc", (
        "RPCClient.call", "RPCRegistry.lookup", "RPCRegistry.publish",
        "RPCServer.register", "RPCServer.shutdown", "RPCServer.restart",
    ), {}),
    ("messaging", "repro.messaging.queues", (
        "ComponentQueue.put", "ComponentQueue.get",
    ), {}),
    ("soma.write", "repro.soma.client", (
        "SomaClient.publish", "SomaClient.connect",
    ), {}),
    ("soma.write", "repro.soma.service", (
        "SomaConfig.make_client", "SomaConfig.make_ring",
        "SomaConfig.make_router", "SomaServiceModel.setup",
        "SomaServiceModel.teardown", "SomaServiceModel.queue_stats",
        "ShardedSomaServiceModel.bring_up", "ShardedSomaServiceModel.setup",
        "soma_service_description",
    ), {}),
    ("soma.write", "repro.soma.sharding", (
        "HashRing.__init__", "HashRing.owner", "HashRing.add",
        "ShardRouter.owner", "ShardRouter.registry_name",
        "AdmissionController.__call__", "shard_key",
    ), {}),
    ("soma.write", "repro.soma.storage", ("NamespaceStore.append",), {}),
    ("soma.write", "repro.soma.integration", (
        "deploy_soma", "SomaDeployment.wrap_with_tau",
    ), {}),
    ("soma.read", "repro.soma.storage", (
        "NamespaceStore.records", "NamespaceStore.latest",
        "NamespaceStore.merged", "NamespaceStore.sources",
        "NamespaceStore.__iter__",
    ), {}),
    ("soma.read", "repro.soma.client", ("SomaClient.query",), {}),
    ("soma.read", "repro.soma.integration", ("SomaDeployment.store",), {}),
    ("conduit", "repro.conduit.node", (
        "Node.copy", "Node.update", "Node.nbytes", "Node.to_json",
        "Node.from_json", "Node.to_dict", "Node.from_dict", "Node.diff",
        "Node.paths", "Node.fetch", "Node.get", "Node.set", "Node.remove",
        "Node.num_leaves", "Node.__getitem__", "Node.__setitem__",
        "Node.__contains__",
    ), {}),
    ("conduit", "repro.conduit.node", ("Node.leaves",), {"inline": True}),
    ("monitors", "repro.monitors.hardware_monitor", (
        "HardwareMonitorModel.execute", "hardware_monitor_descriptions",
    ), {}),
    ("monitors", "repro.monitors.rp_monitor", (
        "RPMonitorModel.execute", "summarize_profile", "rp_monitor_description",
    ), {}),
    ("monitors", "repro.monitors.tau", (
        "TAUWrappedModel.execute", "profiles_to_conduit",
    ), {}),
    ("rp", "repro.rp.agent.agent", (
        "Agent.bootstrap", "Agent.submit", "Agent.cancel", "Agent.shutdown",
    ), {}),
    ("rp", "repro.rp.agent.scheduler", (
        "AgentScheduler._run", "AgentScheduler.submit",
        "AgentScheduler.notify_released", "AgentScheduler.stop",
    ), {}),
    ("rp", "repro.rp.agent.executor", (
        "AgentExecutor._run", "AgentExecutor._execute", "AgentExecutor.submit",
        "AgentExecutor.cancel", "AgentExecutor.stop",
    ), {}),
    ("rp", "repro.rp.agent.updater", (
        "Updater.advance", "Updater.record_event", "Updater._persist",
    ), {}),
    ("rp", "repro.rp.client", (
        "PilotManager.submit_pilot", "TaskManager.submit_tasks",
        "TaskManager._feed", "TaskManager.wait_tasks",
        "TaskManager.cancel_tasks", "Client.close",
    ), {}),
    ("rp", "repro.rp.profiler", (
        "ProfileStore.append", "ProfileStore.write_locked",
        "ProfileStore.read_since",
    ), {}),
    ("rp", "repro.rp.raptor", (
        "RaptorMaster.submit", "RaptorMaster.map", "RaptorMaster._pump",
        "RaptorWorkerModel.execute",
    ), {}),
    ("entk", "repro.entk.appmanager", (
        "AppManager.run", "AppManager._run_pipeline", "AppManager._run_stage",
    ), {}),
    ("telemetry", "repro.telemetry.spans", (
        "Telemetry.start_span", "Telemetry.end_span", "Telemetry.span",
        "Telemetry.event", "Telemetry.add_event", "Telemetry.bind",
        "Telemetry.unbind", "Telemetry.binding", "Telemetry.current",
        "Telemetry.on_process_spawn", "Telemetry.on_process_exit",
    ), {}),
    ("provenance.capture", "repro.provenance.builder", (
        "ProvenanceCapture.note_rpc_send", "ProvenanceCapture.note_rpc_serve",
        "ProvenanceCapture.watch_store", "ProvenanceCapture._note_store_write",
        "ProvenanceCapture._note_store_read", "ProvenanceCapture.note_grant",
        "ProvenanceCapture.note_raptor_submit",
        "ProvenanceCapture.note_raptor_dispatch", "ProvenanceCapture.close",
    ), {}),
    ("provenance.build", "repro.provenance.builder", ("build_graph",), {}),
    ("provenance.build", "repro.provenance.validate", (
        "validate_graph", "report_violations",
    ), {}),
    ("provenance.build", "repro.provenance.critical_path", (
        "critical_path", "edge_attribution", "attribution_total",
    ), {}),
    ("provenance.build", "repro.provenance.query", ("why_chain",), {}),
    ("analysis", "repro.analysis.bottleneck.detectors", ("detect_all",), {}),
    ("analysis", "repro.analysis.bottleneck.context", (
        "DetectionContext.from_deployment", "DetectionContext.from_result",
    ), {}),
    ("analysis", "repro.soma.analysis", (
        "cpu_utilization_series", "task_state_observations",
        "workflow_summary_series", "task_throughput", "rank_region_breakdown",
        "load_imbalance", "free_resource_estimate",
    ), {}),
)


class Entry:
    """One wrapped entry point and its aggregated spans and counters."""

    __slots__ = ("layer", "name", "calls", "spans", "resumes", "self_s",
                 "failed", "value", "seen", "parents")

    def __init__(self, layer: str, name: str) -> None:
        self.layer = layer
        self.name = name
        #: Every invocation, recursive ones included.
        self.calls = 0
        #: Invocations that opened spans (all but recursive ones).
        self.spans = 0
        #: Generator resumes (per-resume spans).
        self.resumes = 0
        self.self_s = 0.0
        #: Invocations that ended by raising (or a falsy publish).
        self.failed = 0
        #: Sum of a numeric result or argument the entry's tally reads.
        self.value = 0.0
        #: Distinct argument objects, keyed by (position, id), for
        #: reading their public counters after the run.
        self.seen: dict[tuple[int, int], Any] = {}
        #: Inclusive seconds by the name of the enclosing span's entry,
        #: which is how a report follows a cost up to its caller.
        self.parents: dict[str, float] = {}


class Tracer:
    """Span stack plus per-(phase, layer) self-time accounting."""

    def __init__(self) -> None:
        #: Open spans: [entry, start, child seconds].
        self.stack: list[list[Any]] = []
        self.entries: dict[str, Entry] = {}
        self.phase = "setup"
        #: phase -> layer -> self seconds.
        self.phase_self: dict[str, dict[str, float]] = {}
        self._self = self._phase_dict("setup")
        #: Inclusive seconds of the root spans of each phase.
        self.root_s: dict[str, float] = {}
        #: Spans closed out of order or with negative self time.
        self.anomalies = 0

    def _phase_dict(self, phase: str) -> dict[str, float]:
        return self.phase_self.setdefault(phase, dict.fromkeys(LAYERS, 0.0))

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self._self = self._phase_dict(phase)

    def entry(self, layer: str, name: str) -> Entry:
        entry = self.entries.get(name)
        if entry is None:
            entry = self.entries[name] = Entry(layer, name)
        return entry

    def open(self, entry: Entry) -> None:
        self.stack.append([entry, perf_counter(), 0.0])

    def close(self, entry: Entry) -> None:
        now = perf_counter()
        frame = self.stack.pop()
        if frame[0] is not entry:
            self.anomalies += 1
        duration = now - frame[1]
        own = duration - frame[2]
        if own < 0:
            self.anomalies += 1
        entry.self_s += own
        self._self[entry.layer] += own
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            name = parent[0].name
            entry.parents[name] = entry.parents.get(name, 0.0) + duration
        else:
            self.root_s[self.phase] = self.root_s.get(self.phase, 0.0) + duration

    def report(self) -> dict[str, Any]:
        """Plain-data dump of every entry point and phase total."""
        return {
            "phases": {
                phase: {k: v for k, v in layers.items() if v}
                for phase, layers in self.phase_self.items()
            },
            "roots": dict(self.root_s),
            "anomalies": self.anomalies,
            "entries": {
                name: {
                    "layer": e.layer,
                    "calls": e.calls,
                    "spans": e.spans,
                    "resumes": e.resumes,
                    "self_s": e.self_s,
                    "parents": dict(sorted(
                        e.parents.items(), key=lambda item: -item[1]
                    )),
                }
                for name, e in sorted(self.entries.items())
                if e.calls
            },
        }


# -- wrappers ----------------------------------------------------------------


def _tally(entry: Entry, args: tuple, result: Any) -> None:
    """Entry-specific counters read at the boundary."""
    name = entry.name
    if name == "Network.transfer":
        entry.value += float(args[1])
    elif name == "Node.nbytes":
        entry.value += result
    elif name == "SomaClient.publish" and result is False:
        entry.failed += 1
    elif name == "TaskManager.submit_tasks":
        entry.value += len(result)
    elif name == "Telemetry.start_span" and result is not None:
        entry.value += 1


#: Entries whose argument objects (by position; 0 is the receiver) are
#: kept for reading public counters after the run: RPC clients' retries
#: and servers' queue time, SOMA clients' gaps, monitors' samples.
_KEEP = {
    "RPCClient.call": (0, 1),
    "SomaClient.publish": (0,),
    "HardwareMonitorModel.execute": (0,),
    "RPMonitorModel.execute": (0,),
    "TAUWrappedModel.execute": (0,),
}
_TALLIED = frozenset({
    "Network.transfer", "Node.nbytes", "SomaClient.publish",
    "TaskManager.submit_tasks", "Telemetry.start_span",
})


def _wrap_function(tracer: Tracer, entry: Entry, fn: Callable) -> Callable:
    stack = tracer.stack
    tallied = entry.name in _TALLIED

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        entry.calls += 1
        if stack and stack[-1][0] is entry:
            result = fn(*args, **kwargs)
            if tallied:
                _tally(entry, args, result)
            return result
        entry.spans += 1
        tracer.open(entry)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            entry.failed += 1
            raise
        finally:
            tracer.close(entry)
        if tallied:
            _tally(entry, args, result)
        return result

    return wrapper


def _drive(tracer: Tracer, entry: Entry, gen: Any, args: tuple) -> Any:
    """Delegate to ``gen`` like ``yield from``, one span per resume."""
    value: Any = None
    exc: BaseException | None = None
    while True:
        tracer.open(entry)
        try:
            item = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            tracer.close(entry)
            if entry.name in _TALLIED:
                _tally(entry, args, stop.value)
            return stop.value
        except BaseException:
            tracer.close(entry)
            entry.failed += 1
            raise
        tracer.close(entry)
        entry.resumes += 1
        try:
            value = yield item
            exc = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:
            value, exc = None, thrown


def _wrap_generator(
    tracer: Tracer, entry: Entry, fn: Callable, inline: bool
) -> Callable:
    stack = tracer.stack
    keep = _KEEP.get(entry.name, ())

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        entry.calls += 1
        gen = fn(*args, **kwargs)
        if inline and stack and stack[-1][0] is entry:
            return gen
        entry.spans += 1
        for index in keep:
            entry.seen.setdefault((index, id(args[index])), args[index])
        timed = _drive(tracer, entry, gen, args)
        # Process names default to the generator's name.
        timed.__name__ = gen.__name__
        timed.__qualname__ = gen.__qualname__
        return timed

    return wrapper


def _make_wrapper(tracer: Tracer, entry: Entry, fn: Callable, inline: bool) -> Callable:
    if inspect.isgeneratorfunction(fn):
        return _wrap_generator(tracer, entry, fn, inline)
    return _wrap_function(tracer, entry, fn)


# -- installation ------------------------------------------------------------


def _task_model_targets() -> list[tuple[str, type, str]]:
    """``execute`` of every task model RP runs that no layer above claims."""
    from repro.rp.model import TaskModel

    # Importing the workload modules registers their model subclasses.
    for module in ("repro.workloads.openfoam", "repro.workloads.ddmd",
                   "repro.soma.application"):
        importlib.import_module(module)
    claimed = {"HardwareMonitorModel", "RPMonitorModel", "TAUWrappedModel",
               "RaptorWorkerModel"}
    found: list[tuple[str, type, str]] = []
    pending = [TaskModel]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__name__ in claimed or "execute" not in cls.__dict__:
            continue
        found.append(("rp", cls, "execute"))
    return found


def _detector_targets() -> list[tuple[str, type, str]]:
    from repro.analysis.bottleneck import detectors

    found = []
    for cls in (type(d) for d in detectors.DETECTORS):
        for method in ("detect", "observe"):
            if method in cls.__dict__:
                found.append(("analysis", cls, method))
    return found


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target with ``tracer``; return the undo callable.

    ``Environment.run`` becomes the root span of the run phase: the
    kernel's (``sim``) self time is whatever its children do not cover.
    """
    from repro.sim.core import Environment

    # Import every target first, so the binding scan below sees every
    # module that may hold a reference to a wrapped function.
    modules = {name: importlib.import_module(name) for _, name, _, _ in TARGETS}
    extra = _task_model_targets() + _detector_targets()
    repro_modules = [
        m for name, m in sorted(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]
    undo: list[tuple[Any, str, Any]] = []

    def patch_class(layer: str, cls: type, attr: str, inline: bool) -> None:
        raw = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if not callable(getattr(raw, "__func__", raw)):
            raise TypeError(f"{name} is not a function")
        entry = tracer.entry(layer, name)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(_make_wrapper(tracer, entry, raw.__func__, inline))
        else:
            new = _make_wrapper(tracer, entry, raw, inline)
        undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    def patch_function(layer: str, module: Any, attr: str) -> None:
        raw = getattr(module, attr)
        entry = tracer.entry(layer, attr)
        new = _make_wrapper(tracer, entry, raw, False)
        for mod in repro_modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    undo.append((mod, key, raw))
                    setattr(mod, key, new)

    for layer, module_name, paths, options in TARGETS:
        module = modules[module_name]
        for path in paths:
            if "." in path:
                cls_name, attr = path.split(".", 1)
                patch_class(layer, getattr(module, cls_name), attr,
                            options.get("inline", False))
            else:
                patch_function(layer, module, path)
    for layer, cls, attr in extra:
        patch_class(layer, cls, attr, False)

    raw_run = Environment.run
    sim_entry = tracer.entry("sim", "Environment.run")

    @functools.wraps(raw_run)
    def run(self: Any, *args: Any, **kwargs: Any) -> Any:
        sim_entry.calls += 1
        sim_entry.spans += 1
        previous = tracer.phase
        tracer.set_phase("run")
        tracer.open(sim_entry)
        try:
            return raw_run(self, *args, **kwargs)
        finally:
            tracer.close(sim_entry)
            tracer.set_phase(previous)

    undo.append((Environment, "run", raw_run))
    Environment.run = run

    def restore() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore

