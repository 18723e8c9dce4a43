"""Property tests for the columnar provenance graph.

``ProvGraph`` stores edges as parallel columns behind a lazy CSR index
and builds a :class:`ProvEdge` only when one is read.  Over random
interleavings of ``add_event`` / ``add_edge`` / reads / ``attrs``
mutations, every navigation and summary must answer exactly what a
naive list-of-edge-objects graph answers — creation order included.

A regression test pins the point of the layout: building the graph of
a real provenance-on run leaves no ``ProvEdge`` alive and grows the
GC-tracked heap by about one object per event, not three per edge.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import replace

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.provenance import (
    EDGE_KINDS,
    ProvEdge,
    ProvGraph,
    build_graph,
    set_default_provenance,
)
from repro.telemetry import drain_telemetries, set_default_telemetry


class ReferenceGraph:
    """The object-per-edge graph: edge records in one list, adjacency
    as per-event lists of those records."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.edges: list[dict] = []

    def add_event(self, t: float) -> int:
        self.times.append(t)
        return len(self.times) - 1

    def add_edge(self, src: int, dst: int, kind: str, attrs: dict) -> None:
        self.edges.append(
            {
                "src": src,
                "dst": dst,
                "kind": kind,
                "t_src": self.times[src],
                "t_dst": self.times[dst],
                "attrs": dict(attrs),
            }
        )

    def in_edges(self, eid: int) -> list[dict]:
        return [e for e in self.edges if e["dst"] == eid]

    def out_edges(self, eid: int) -> list[dict]:
        return [e for e in self.edges if e["src"] == eid]

    def edge_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for edge in self.edges:
            counts[edge["kind"]] = counts.get(edge["kind"], 0) + 1
        return dict(sorted(counts.items()))

    def topo_order(self) -> list[int] | None:
        indegree = [len(self.in_edges(eid)) for eid in range(len(self.times))]
        ready = deque(eid for eid, d in enumerate(indegree) if d == 0)
        order = []
        while ready:
            eid = ready.popleft()
            order.append(eid)
            for edge in self.out_edges(eid):
                indegree[edge["dst"]] -= 1
                if indegree[edge["dst"]] == 0:
                    ready.append(edge["dst"])
        return order if len(order) == len(self.times) else None

    def reachable_from(self, start: int) -> set[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            for edge in self.out_edges(frontier.pop()):
                if edge["dst"] not in seen:
                    seen.add(edge["dst"])
                    frontier.append(edge["dst"])
        return seen


def as_record(edge: ProvEdge) -> dict:
    return {
        "src": edge.src,
        "dst": edge.dst,
        "kind": edge.kind,
        "t_src": edge.t_src,
        "t_dst": edge.t_dst,
        "attrs": edge.attrs,
    }


def assert_same(graph: ProvGraph, ref: ReferenceGraph) -> None:
    n = len(ref.times)
    assert len(graph) == n
    assert len(graph.edges) == len(ref.edges)
    assert [as_record(e) for e in graph.edges] == ref.edges
    assert graph.edge_counts() == ref.edge_counts()
    assert graph.topo_order() == ref.topo_order()
    for eid in range(n):
        event = graph.event(eid)
        assert [as_record(e) for e in graph.in_edges(event)] == ref.in_edges(eid)
        assert [as_record(e) for e in graph.out_edges(eid)] == ref.out_edges(eid)
        assert graph.in_degree(eid) == len(ref.in_edges(eid))
        assert graph.reachable_from(event) == ref.reachable_from(eid)


times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
attrs = st.dictionaries(
    st.sampled_from(["name", "records", "faults"]),
    st.integers(min_value=0, max_value=9),
    max_size=2,
)
operation = st.one_of(
    st.tuples(st.just("event"), times),
    st.tuples(
        st.just("edge"),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
        st.sampled_from(EDGE_KINDS),
        attrs,
        st.booleans(),
    ),
    st.tuples(st.just("check")),
    st.tuples(
        st.just("mutate"),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=9),
    ),
)


# The explain phase is skipped: on a failure it replays the long op
# lists for minutes; the shrunk example alone pins the bug.
@settings(
    max_examples=150,
    deadline=None,
    phases=[p for p in Phase if p is not Phase.explain],
)
@given(
    first=times,
    ops=st.lists(operation, max_size=40),
)
def test_columnar_graph_matches_object_reference(first, ops):
    graph = ProvGraph()
    ref = ReferenceGraph()
    events = [graph.add_event("span.start", first, "e0")]
    ref.add_event(first)
    for op in ops:
        if op[0] == "event":
            events.append(graph.add_event("span.start", op[1], f"e{len(events)}"))
            ref.add_event(op[1])
        elif op[0] == "edge":
            _, a, b, kind, edge_attrs, forward = op
            src, dst = a % len(events), b % len(events)
            if forward and src > dst:
                src, dst = dst, src  # mostly acyclic; cycles still allowed
            index = graph.add_edge(events[src], events[dst], kind, **edge_attrs)
            assert index == len(ref.edges)
            ref.add_edge(src, dst, kind, edge_attrs)
        elif op[0] == "mutate" and ref.edges:
            index = op[1] % len(ref.edges)
            # A mutation through a built edge persists in the graph.
            graph.edges[index].attrs["note"] = op[2]
            ref.edges[index]["attrs"]["note"] = op[2]
        elif op[0] == "check":
            assert_same(graph, ref)
    assert_same(graph, ref)


def test_attrs_column_stays_empty_until_set():
    graph = ProvGraph()
    a = graph.add_event("run.start", 0.0, "a")
    b = graph.add_event("run.end", 1.0, "b")
    graph.add_edge(a, b, "run")
    graph.add_edge(a, b, "span", name="x")
    assert graph.edges.attrs == [None, {"name": "x"}]
    assert graph.edges[0].attrs == {}
    assert graph.edges[-1].kind == "span"


def test_build_graph_keeps_no_edge_objects():
    from repro.experiments.openfoam_exps import OVERLOAD, run_openfoam_experiment

    prev_tel = set_default_telemetry(True)
    prev_prov = set_default_provenance(True)
    drain_telemetries()
    try:
        result = run_openfoam_experiment(
            replace(OVERLOAD, instances_per_config=1), seed=3
        )
    finally:
        set_default_telemetry(prev_tel)
        set_default_provenance(prev_prov)

    def census() -> tuple[int, int]:
        gc.collect()
        tracked = gc.get_objects()
        return len(tracked), sum(type(o) is ProvEdge for o in tracked)

    tracked_before, edges_before = census()
    graph = build_graph(result)
    tracked_after, edges_after = census()
    drain_telemetries()
    assert len(graph.edges) > len(graph.events) > 0
    assert edges_after == edges_before
    assert tracked_after - tracked_before <= len(graph.events) + 64
