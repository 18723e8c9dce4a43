"""The run-wide happens-before + dataflow DAG.

Nodes are timestamped *events*, not intervals: every telemetry span
contributes a ``span.start`` and a ``span.end`` event, and every
cross-component interaction the capture layer observed (RPC send and
rank-grant, store write and read, scheduler grant, raptor dispatch,
fault window open/close) contributes one event at the simulated time it
happened.  Edges are typed happens-before constraints; the invariant
every edge satisfies — pinned by the validators and the Hypothesis
battery — is ``src.t <= dst.t`` in simulated time.

The event formulation is what PROBE's ``hb_graph`` uses and it is what
makes critical-path attribution exact: walking backward from ``run.end``
along most-constraining in-edges yields a chain whose edge durations
telescope to precisely the end-to-end makespan, so every second of the
run is attributed to exactly one typed edge.

Storage is columnar on the edge side (DESIGN.md section 3f): a graph
holds tens of thousands of edges, and one object per edge would make
CPython's cyclic GC re-scan every one of them on each full collection.
Edges live in parallel lists (:class:`EdgeColumns`) and a
:class:`ProvEdge` is built only when one is read; in/out adjacency is a
CSR index over the columns, built on first navigation.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import MutableMapping, Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Iterator

__all__ = [
    "EDGE_KINDS",
    "EVENT_KINDS",
    "EdgeColumns",
    "EventPairs",
    "ProvEdge",
    "ProvEvent",
    "ProvGraph",
]

#: Every event kind the builder emits.
EVENT_KINDS: tuple[str, ...] = (
    "run.start",
    "run.end",
    "span.start",
    "span.end",
    "rpc.send",
    "rpc.grant",
    "store.write",
    "store.read",
    "sched.grant",
    "raptor.submit",
    "raptor.dispatch",
    "fault.start",
    "fault.end",
)

#: The edge taxonomy (DESIGN.md section 3f).  "Wait" kinds carry the
#: time a consumer spent blocked on a producer; structural kinds
#: (run/span/program/join) stitch the per-task trees into one DAG.
EDGE_KINDS: tuple[str, ...] = (
    "run",            # run.start -> trace roots / fault events -> run.end
    "span",           # span.start -> span.end (the interval itself)
    "program",        # sequential program order within one span
    "join",           # child span.end -> parent span.end
    "rpc.wire",       # client rpc.send -> server rpc.serve start
    "rpc.queue",      # rpc.serve start -> rank grant (ingest queueing)
    "wait-on-grant",  # agent.schedule start -> scheduler grant
    "launch",         # scheduler grant -> agent.execute start
    "raptor.queue",   # raptor.submit -> raptor.dispatch (backlog wait)
    "raptor.dispatch",  # raptor.dispatch -> raptor.call start
    "wait-on-store",  # store.write -> store.read (dataflow)
    "fault.window",   # fault.start -> fault.end
)


@dataclass(slots=True)
class ProvEvent:
    """One timestamped node of the happens-before graph."""

    eid: int
    kind: str
    t: float
    label: str
    #: Stable external identity: task/request uid, span id, store name.
    ref: str = ""
    #: Telemetry component track the event belongs to ("" if none).
    component: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProvEvent #{self.eid} {self.kind} {self.label!r} t={self.t:g}>"


@dataclass(slots=True)
class ProvEdge:
    """One typed happens-before constraint between two events.

    A value built on demand from the graph's edge columns; ``attrs`` is
    the column's own dict, so mutating it persists in the graph.
    """

    src: int
    dst: int
    kind: str
    t_src: float
    t_dst: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t_dst - self.t_src

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProvEdge {self.kind} #{self.src}->#{self.dst} "
            f"[{self.t_src:g}, {self.t_dst:g}]>"
        )


class EdgeColumns(Sequence):
    """The graph's edges as parallel columns, read as a sequence.

    Position ``i`` of every column describes edge ``i`` (creation
    order).  ``attrs[i]`` is ``None`` until the edge has attributes.
    Indexing builds a :class:`ProvEdge`; whole-graph passes read the
    columns directly and build nothing.
    """

    __slots__ = ("src", "dst", "kind", "t_src", "t_dst", "attrs")

    def __init__(self) -> None:
        self.src: list[int] = []
        self.dst: list[int] = []
        self.kind: list[str] = []
        self.t_src: list[float] = []
        self.t_dst: list[float] = []
        self.attrs: list[dict[str, Any] | None] = []

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, index: int) -> ProvEdge:
        attrs = self.attrs[index]
        if attrs is None:
            attrs = self.attrs[index] = {}
        return ProvEdge(
            self.src[index],
            self.dst[index],
            self.kind[index],
            self.t_src[index],
            self.t_dst[index],
            attrs,
        )


class EventPairs(MutableMapping):
    """``key -> (start event, end event)``, stored as two event ids.

    A tuple of two events per span would be one more object for the
    cyclic GC to track; plain ``key -> eid`` dicts are untracked, and
    the pair is rebuilt on lookup.  Events must belong to the graph.
    """

    __slots__ = ("_events", "_start", "_end")

    def __init__(self, events: list[ProvEvent]) -> None:
        self._events = events
        self._start: dict[Any, int] = {}
        self._end: dict[Any, int] = {}

    def __getitem__(self, key: Any) -> tuple[ProvEvent, ProvEvent]:
        return self._events[self._start[key]], self._events[self._end[key]]

    def __setitem__(self, key: Any, pair: tuple[ProvEvent, ProvEvent]) -> None:
        start, end = pair
        self._start[key] = start.eid
        self._end[key] = end.eid

    def __delitem__(self, key: Any) -> None:
        del self._start[key], self._end[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._start)

    def __len__(self) -> int:
        return len(self._start)


def _csr(keys: list[int], n: int) -> tuple[list[int], list[int]]:
    """Offsets and edge positions grouping ``keys`` by event id.

    The positions of event ``e`` are ``positions[offsets[e]:offsets[e
    + 1]]``, in creation order (the sort is stable).
    """
    counts = [0] * (n + 1)
    for key in keys:
        counts[key + 1] += 1
    return list(accumulate(counts)), sorted(range(len(keys)), key=keys.__getitem__)


class ProvGraph:
    """Event DAG with columnar edges and a lazy CSR adjacency index.

    Build-only structure: events and edges are appended by the builder
    and never removed, so iteration order is creation order
    (deterministic per run).  The in/out index is built on the first
    navigation call and dropped by every append.
    """

    def __init__(self) -> None:
        self.events: list[ProvEvent] = []
        self.edges = EdgeColumns()
        #: ((in offsets, in positions), (out offsets, out positions)).
        self._csr: tuple[tuple[list[int], list[int]], ...] | None = None
        self.root: ProvEvent | None = None
        self.end: ProvEvent | None = None
        #: task uid -> (span.start event, span.end event) of its root span.
        self.task_events = EventPairs(self.events)
        #: span_id -> (span.start event, span.end event).
        self.span_events = EventPairs(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def add_event(
        self,
        kind: str,
        t: float,
        label: str,
        ref: str = "",
        component: str = "",
        **attrs: Any,
    ) -> ProvEvent:
        event = ProvEvent(
            eid=len(self.events),
            kind=kind,
            t=t,
            label=label,
            ref=ref,
            component=component,
            attrs=attrs,
        )
        self.events.append(event)
        self._csr = None
        return event

    def add_edge(
        self, src: ProvEvent, dst: ProvEvent, kind: str, **attrs: Any
    ) -> int:
        """Append an edge; returns its position in :attr:`edges`."""
        edges = self.edges
        edges.src.append(src.eid)
        edges.dst.append(dst.eid)
        edges.kind.append(kind)
        edges.t_src.append(src.t)
        edges.t_dst.append(dst.t)
        edges.attrs.append(attrs or None)
        self._csr = None
        return len(edges.src) - 1

    # -- navigation ----------------------------------------------------

    def _index(self) -> tuple[tuple[list[int], list[int]], ...]:
        if self._csr is None:
            n = len(self.events)
            self._csr = (_csr(self.edges.dst, n), _csr(self.edges.src, n))
        return self._csr

    def _adjacent(self, side: int, event: ProvEvent | int) -> list[int]:
        eid = event.eid if isinstance(event, ProvEvent) else event
        offsets, positions = self._index()[side]
        return positions[offsets[eid] : offsets[eid + 1]]

    def in_edge_ids(self, event: ProvEvent | int) -> list[int]:
        """Positions of ``event``'s in-edges, in creation order."""
        return self._adjacent(0, event)

    def in_edges(self, event: ProvEvent | int) -> list[ProvEdge]:
        return [self.edges[i] for i in self._adjacent(0, event)]

    def out_edges(self, event: ProvEvent | int) -> list[ProvEdge]:
        return [self.edges[i] for i in self._adjacent(1, event)]

    def in_degree(self, event: ProvEvent | int) -> int:
        eid = event.eid if isinstance(event, ProvEvent) else event
        offsets = self._index()[0][0]
        return offsets[eid + 1] - offsets[eid]

    def event(self, eid: int) -> ProvEvent:
        return self.events[eid]

    def by_kind(self, kind: str) -> Iterator[ProvEvent]:
        return (e for e in self.events if e.kind == kind)

    def find(self, ref: str, kind: str | None = None) -> ProvEvent | None:
        """First event carrying ``ref`` (optionally of one kind)."""
        for event in self.events:
            if event.ref == ref and (kind is None or event.kind == kind):
                return event
        return None

    # -- summaries -----------------------------------------------------

    def event_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    def edge_counts(self) -> dict[str, int]:
        return dict(sorted(Counter(self.edges.kind).items()))

    # -- whole-graph algorithms ---------------------------------------

    def topo_order(self) -> list[int] | None:
        """Kahn topological order of event ids; None if cyclic."""
        (in_off, _), (out_off, out_pos) = self._index()
        dst = self.edges.dst
        n = len(self.events)
        indegree = [in_off[i + 1] - in_off[i] for i in range(n)]
        ready = deque(eid for eid in range(n) if indegree[eid] == 0)
        order: list[int] = []
        while ready:
            eid = ready.popleft()
            order.append(eid)
            for index in out_pos[out_off[eid] : out_off[eid + 1]]:
                target = dst[index]
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
        if len(order) != n:
            return None
        return order

    def reachable_from(self, event: ProvEvent | int) -> set[int]:
        """Event ids reachable from ``event`` along forward edges."""
        start = event.eid if isinstance(event, ProvEvent) else event
        out_off, out_pos = self._index()[1]
        dst = self.edges.dst
        seen = {start}
        frontier = deque((start,))
        while frontier:
            eid = frontier.popleft()
            for index in out_pos[out_off[eid] : out_off[eid + 1]]:
                target = dst[index]
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen
