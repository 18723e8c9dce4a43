"""Capture hooks and the run-graph builder.

:class:`ProvenanceCapture` rides the telemetry hub under the same hard
zero-perturbation contract: every ``note_*`` method is a host-memory
append keyed off ``env.now`` — no kernel events, no processes, no
timeouts, no randomness — so the simulated event stream is byte-
identical with capture on or off (the differential battery in
``tests/telemetry/test_zero_perturbation.py`` enforces it).

The instrumented sites are the cross-task interaction points the span
trees alone cannot see:

* :meth:`note_rpc_send` / :meth:`note_rpc_serve` pair a client's
  request with the server-side arrival and rank grant (RPC queueing);
* :meth:`watch_store` taps a :class:`~repro.soma.storage.NamespaceStore`
  so every append and every query becomes a write/read event, giving
  store-mediated dataflow edges via the per-source index;
* :meth:`note_grant` marks the agent scheduler placing a task
  (wait-on-grant / launch edges);
* :meth:`note_raptor_submit` / :meth:`note_raptor_dispatch` pair a
  function call's submission with its dispatch to a resident worker.

:func:`build_graph` then stitches the hub's span trees and the capture
notes into one :class:`~repro.provenance.graph.ProvGraph` after the run
finished — graph construction is pure post-processing and never touches
the simulation.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Iterable

from .graph import ProvEvent, ProvGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..soma.storage import NamespaceStore, PublishedRecord
    from ..telemetry.spans import Span, SpanContext, Telemetry

__all__ = [
    "ProvenanceCapture",
    "build_graph",
    "default_provenance",
    "set_default_provenance",
]

#: Process-wide default for provenance capture on new Telemetry hubs,
#: mirroring ``set_default_telemetry`` / ``REPRO_TELEMETRY``.
_DEFAULT_PROVENANCE: bool | None = None


def set_default_provenance(enabled: bool | None) -> bool | None:
    """Set the process-wide capture default; returns the previous value."""
    global _DEFAULT_PROVENANCE
    previous, _DEFAULT_PROVENANCE = _DEFAULT_PROVENANCE, enabled
    return previous


def default_provenance() -> bool:
    """Effective default: :func:`set_default_provenance` > ``REPRO_PROVENANCE``."""
    if _DEFAULT_PROVENANCE is not None:
        return _DEFAULT_PROVENANCE
    return os.environ.get("REPRO_PROVENANCE", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


class ProvenanceCapture:
    """Host-memory event notebook attached to one telemetry hub.

    Context attribution reuses the hub's ambient machinery: a note taken
    while a span is active is assigned to that span's program order, so
    cross-task edges land between the right per-task trees.  ``close()``
    freezes the notebook — post-run analysis reads (collectors walking
    the stores) no longer append, keeping goldens independent of how
    much offline analysis ran before the graph was built.
    """

    __slots__ = (
        "telemetry",
        "closed",
        "rpc_sends",
        "rpc_serves",
        "store_writes",
        "store_reads",
        "grants",
        "raptor_submits",
        "raptor_dispatches",
        "_nstores",
    )

    def __init__(self, telemetry: "Telemetry") -> None:
        self.telemetry = telemetry
        self.closed = False
        #: (request uid, method, client name, t, attempt span id).
        self.rpc_sends: list[tuple[str, str, str, float, int | None]] = []
        #: (request uid, server name, arrival t, grant t, serve span id).
        self.rpc_serves: list[tuple[str, str, float, float, int | None]] = []
        #: (store id, store name, record t, source, nbytes, span id).
        self.store_writes: list[
            tuple[int, str, float, str, float, int | None]
        ] = []
        #: (store id, store name, op, source filter, t, span id,
        #:  matched write key, record count).
        self.store_reads: list[
            tuple[int, str, str, str | None, float, int | None, tuple | None, int]
        ] = []
        #: (task uid, t, placed nodes).
        self.grants: list[tuple[str, float, tuple[str, ...]]] = []
        #: (call uid, t, submitting span id).
        self.raptor_submits: list[tuple[Any, float, int | None]] = []
        #: (call uid, worker uid, t).
        self.raptor_dispatches: list[tuple[Any, int, float]] = []
        self._nstores = 0

    # -- context helpers ----------------------------------------------

    def _now(self) -> float:
        return self.telemetry.env.now

    def _ctx_id(self) -> int | None:
        ctx = self.telemetry.current()
        return ctx.span_id if ctx is not None else None

    def close(self) -> None:
        self.closed = True

    def counters(self) -> dict[str, int]:
        """Note counts (host-side bookkeeping, never sim state)."""
        return {
            "rpc_sends": len(self.rpc_sends),
            "rpc_serves": len(self.rpc_serves),
            "store_writes": len(self.store_writes),
            "store_reads": len(self.store_reads),
            "grants": len(self.grants),
            "raptor_submits": len(self.raptor_submits),
            "raptor_dispatches": len(self.raptor_dispatches),
        }

    # -- RPC pairing ---------------------------------------------------

    def note_rpc_send(
        self, uid: str, method: str, client: str, t: float, span: "Span | None"
    ) -> None:
        if self.closed:
            return
        span_id = span.span_id if span is not None else None
        self.rpc_sends.append((uid, method, client, t, span_id))

    def note_rpc_serve(
        self, uid: str, server: str, arrival: float, granted: float
    ) -> None:
        if self.closed:
            return
        self.rpc_serves.append((uid, server, arrival, granted, self._ctx_id()))

    # -- store dataflow ------------------------------------------------

    def watch_store(self, store: "NamespaceStore", name: str | None = None) -> None:
        """Install write/read taps on a namespace store.

        ``name`` disambiguates sharded deployments where many stores
        share one namespace (``s01.hardware`` vs ``s02.hardware``); the
        assigned store id keys write/read matching so records from
        different instances never cross-match.
        """
        sid = self._nstores
        self._nstores += 1
        label = name if name is not None else store.namespace

        def write_tap(record: "PublishedRecord") -> None:
            self._note_store_write(sid, label, record)

        def read_tap(
            op: str, source: str | None, records: "list[PublishedRecord]"
        ) -> None:
            self._note_store_read(sid, label, op, source, records)

        store.write_tap = write_tap
        store.read_tap = read_tap

    def _note_store_write(
        self, sid: int, name: str, record: "PublishedRecord"
    ) -> None:
        if self.closed:
            return
        self.store_writes.append(
            (sid, name, record.time, record.source, record.nbytes, self._ctx_id())
        )

    def _note_store_read(
        self,
        sid: int,
        name: str,
        op: str,
        source: str | None,
        records: "list[PublishedRecord]",
    ) -> None:
        if self.closed:
            return
        matched = None
        if records:
            last = records[-1]
            matched = (sid, last.time, last.source)
        self.store_reads.append(
            (sid, name, op, source, self._now(), self._ctx_id(), matched, len(records))
        )

    # -- scheduler / raptor -------------------------------------------

    def note_grant(self, uid: str, t: float, nodes: Iterable[str]) -> None:
        if self.closed:
            return
        self.grants.append((uid, t, tuple(nodes)))

    def note_raptor_submit(
        self, uid: Any, t: float, ctx: "SpanContext | None"
    ) -> None:
        if self.closed:
            return
        self.raptor_submits.append((uid, t, ctx.span_id if ctx is not None else None))

    def note_raptor_dispatch(self, uid: Any, worker_uid: int, t: float) -> None:
        if self.closed:
            return
        self.raptor_dispatches.append((uid, worker_uid, t))


#: Edge kinds that get fault-window annotations when they overlap one.
_FAULT_ANNOTATED_KINDS = frozenset(
    (
        "span",
        "program",
        "rpc.wire",
        "rpc.queue",
        "wait-on-grant",
        "launch",
        "raptor.queue",
        "raptor.dispatch",
        "wait-on-store",
    )
)


def build_graph(
    result: Any = None,
    *,
    hub: "Telemetry | None" = None,
    capture: ProvenanceCapture | None = None,
    plan: Any = None,
    close: bool = True,
) -> ProvGraph:
    """Stitch one finished run into a :class:`ProvGraph`.

    ``result`` is a :class:`~repro.experiments.harness.WorkflowResult`;
    ``hub``/``capture``/``plan`` override its telemetry hub, capture
    notebook, and fault plan (a bare hub with no capture still yields
    the span-skeleton graph).  ``close=True`` freezes the capture so
    later offline store reads stop appending notes.
    """
    if hub is None:
        if result is None:
            raise ValueError("build_graph needs a result or an explicit hub")
        hub = result.session.telemetry
    if not hub.enabled:
        raise ValueError("provenance needs an enabled telemetry hub")
    if capture is None:
        capture = hub.provenance
    if plan is None and result is not None and result.injector is not None:
        plan = result.injector.plan
    finished = float(result.finished_at if result is not None else hub.env.now)

    g = ProvGraph()
    root = g.add_event("run.start", 0.0, "run", component="run")
    end = g.add_event("run.end", finished, "run", component="run")
    g.root, g.end = root, end

    # 1. Span interval events, one start/end pair per span.
    starts: dict[int, ProvEvent] = {}
    ends: dict[int, ProvEvent] = {}
    raptor_calls: dict[str, int] = {}
    sched_spans: dict[str, int] = {}
    exec_spans: dict[str, int] = {}
    for span in hub.spans:
        label = f"{span.component}:{span.name}"
        uid = span.attributes.get("uid")
        s = g.add_event(
            "span.start",
            span.start,
            label,
            ref=str(span.span_id),
            component=span.component,
        )
        end_t = span.end if span.end is not None else finished
        e = g.add_event(
            "span.end",
            end_t,
            label,
            ref=str(span.span_id),
            component=span.component,
            open=span.end is None,
        )
        g.add_edge(s, e, "span", name=span.name)
        starts[span.span_id] = s
        ends[span.span_id] = e
        g.span_events[span.span_id] = (s, e)
        if isinstance(uid, str):
            if span.name == f"task:{uid}":
                g.task_events[uid] = (s, e)
            elif span.name == "agent.schedule":
                sched_spans[uid] = span.span_id
            elif span.name == "agent.execute":
                exec_spans[uid] = span.span_id
        if span.name.startswith("raptor.call:"):
            raptor_calls[span.name.split(":", 1)[1]] = span.span_id

    # 2. Program-order anchors per container (a span, or the run root).
    # Each anchor is (t, rank, eid): child span starts and capture events
    # assigned to the container, sorted by time with a deterministic
    # tie-break, then chained sequentially by "program" edges.  Anchors
    # hold event ids, not events, so the cyclic GC untracks them.
    anchors: dict[int | None, list[tuple[float, int, int]]] = {}

    def anchor(container: int | None, event: ProvEvent, rank: int) -> None:
        if container is not None and container not in starts:
            container = None
        anchors.setdefault(container, []).append((event.t, rank, event.eid))

    for span in hub.spans:
        anchor(span.parent_id, starts[span.span_id], 0)

    # 3. Capture events.
    sends_by_uid: dict[str, ProvEvent] = {}
    if capture is not None:
        for uid, method, client, t, span_id in capture.rpc_sends:
            ev = g.add_event(
                "rpc.send", t, f"rpc.send:{method}", ref=uid, component="rpc",
                client=client,
            )
            sends_by_uid[uid] = ev
            anchor(span_id, ev, 1)
        for uid, server, arrival, granted, serve_id in capture.rpc_serves:
            grant_ev = g.add_event(
                "rpc.grant", granted, f"rpc.grant:{server}", ref=uid,
                component="rpc", queue_time=granted - arrival,
            )
            serve = starts.get(serve_id) if serve_id is not None else None
            if serve is not None:
                g.add_edge(serve, grant_ev, "rpc.queue")
                g.add_edge(grant_ev, ends[serve_id], "program")
                send_ev = sends_by_uid.get(uid)
                if send_ev is not None and send_ev.t <= serve.t:
                    g.add_edge(send_ev, serve, "rpc.wire")
            else:  # pragma: no cover - defensive (serve span always set)
                g.add_edge(root, grant_ev, "run")
        writes_by_key: dict[tuple, ProvEvent] = {}
        for sid, name, t, source, nbytes, span_id in capture.store_writes:
            ev = g.add_event(
                "store.write", t, f"store.write:{name}",
                ref=f"{name}/{source}", component="soma-service", nbytes=nbytes,
            )
            writes_by_key[(sid, t, source)] = ev
            anchor(span_id, ev, 1)
        for sid, name, op, source, t, span_id, matched, count in capture.store_reads:
            ev = g.add_event(
                "store.read", t, f"store.read:{name}",
                ref=f"{name}/{source or '*'}", component="soma-service",
                op=op, records=count,
            )
            anchor(span_id, ev, 1)
            write_ev = writes_by_key.get(matched) if matched is not None else None
            if write_ev is not None and write_ev.t <= t:
                g.add_edge(write_ev, ev, "wait-on-store", records=count)
        for uid, t, nodes in capture.grants:
            ev = g.add_event(
                "sched.grant", t, f"grant:{uid}", ref=uid,
                component="rp-agent", nodes=",".join(nodes),
            )
            sched_id = sched_spans.get(uid)
            if sched_id is not None and starts[sched_id].t <= t:
                g.add_edge(starts[sched_id], ev, "wait-on-grant")
                if t <= ends[sched_id].t:
                    g.add_edge(ev, ends[sched_id], "program")
            else:
                g.add_edge(root, ev, "run")
            exec_id = exec_spans.get(uid)
            if exec_id is not None and t <= starts[exec_id].t:
                g.add_edge(ev, starts[exec_id], "launch")
        submits_by_uid: dict[Any, ProvEvent] = {}
        for uid, t, span_id in capture.raptor_submits:
            ev = g.add_event(
                "raptor.submit", t, f"raptor.submit:{uid}", ref=str(uid),
                component="raptor",
            )
            submits_by_uid[uid] = ev
            anchor(span_id, ev, 1)
        for uid, worker_uid, t in capture.raptor_dispatches:
            ev = g.add_event(
                "raptor.dispatch", t, f"raptor.dispatch:{uid}", ref=str(uid),
                component="raptor", worker=worker_uid,
            )
            submit_ev = submits_by_uid.get(uid)
            if submit_ev is not None and submit_ev.t <= t:
                g.add_edge(submit_ev, ev, "raptor.queue")
            else:
                g.add_edge(root, ev, "run")
            call_id = raptor_calls.get(str(uid))
            if call_id is not None and t <= starts[call_id].t:
                g.add_edge(ev, starts[call_id], "raptor.dispatch")

    # 4. Chain each container's anchors in program order.  A container's
    # closing edge is skipped when the last anchor outlives it (e.g. a
    # duplicate RPC served after the originating attempt failed).
    for container, entries in anchors.items():
        entries.sort()
        if container is None:
            prev: ProvEvent = root
            close_ev: ProvEvent = end
        else:
            prev = starts[container]
            close_ev = ends[container]
        for _t, _rank, eid in entries:
            event = g.events[eid]
            g.add_edge(prev, event, "program")
            prev = event
        if prev.t <= close_ev.t:
            g.add_edge(prev, close_ev, "program" if container is not None else "run")

    # 5. Join edges: child completion constrains parent completion when
    # the child actually finished first; root spans join the run end.
    for span in hub.spans:
        child_end = ends[span.span_id]
        if span.parent_id is not None and span.parent_id in ends:
            parent_end = ends[span.parent_id]
            if child_end.t <= parent_end.t:
                g.add_edge(child_end, parent_end, "join")
        elif span.parent_id is None:
            g.add_edge(child_end, end, "run")

    # 6. Fault windows from the plan, annotated onto overlapping edges.
    windows: list[tuple[str, float, float]] = []
    if plan is not None:
        for fe in plan.timeline():
            if fe.time > finished:
                continue
            t0 = fe.time
            t1 = finished if fe.duration is None else min(finished, t0 + fe.duration)
            fs = g.add_event(
                "fault.start", t0, f"fault:{fe.kind}", ref=fe.kind,
                component="faults", seq=fe.seq,
            )
            fend = g.add_event(
                "fault.end", t1, f"fault:{fe.kind}", ref=fe.kind,
                component="faults", seq=fe.seq,
            )
            g.add_edge(root, fs, "run")
            g.add_edge(fs, fend, "fault.window")
            g.add_edge(fend, end, "run")
            windows.append((fe.kind, t0, t1))
    if windows:
        cols = g.edges
        for index, (edge_kind, t_src, t_dst) in enumerate(
            zip(cols.kind, cols.t_src, cols.t_dst)
        ):
            if edge_kind not in _FAULT_ANNOTATED_KINDS or t_dst - t_src <= 0:
                continue
            overlapping = [
                f"{kind}@[{t0:g},{t1:g})"
                for kind, t0, t1 in windows
                if t0 < t_dst and t1 > t_src
            ]
            if overlapping:
                attrs = cols.attrs[index]
                if attrs is None:
                    cols.attrs[index] = {"faults": overlapping}
                else:
                    attrs["faults"] = overlapping

    if close and capture is not None:
        capture.close()
    return g
