"""Graph-invariant validators, registered alongside the sanitizers.

A valid run graph satisfies four structural invariants:

* **happens-before** — every edge has ``src.t <= dst.t``;
* **acyclic** — the graph admits a topological order;
* **single-root** — exactly one event (the run root) has no in-edges;
* **reachable** — every event, and in particular every task node, is
  reachable from the run root along forward edges.

Violations are facts about the *instrumentation*, not the workload —
they mean a capture hook recorded an edge that cannot exist — so
:func:`report_violations` mirrors them into the kernel sanitizer's
spontaneous-finding registry, where the test suite's zero-findings
guard treats them exactly like an event leak or a shared-dict race.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.sanitizer import SanitizerFinding, record_spontaneous_finding
from .graph import ProvGraph

__all__ = [
    "GraphViolation",
    "assert_valid",
    "report_violations",
    "validate_graph",
]


@dataclass(frozen=True, slots=True)
class GraphViolation:
    """One broken graph invariant."""

    #: "happens-before" | "acyclic" | "single-root" | "reachable"
    rule: str
    detail: str

    def format(self) -> str:
        return f"{self.rule}: {self.detail}"


def validate_graph(graph: ProvGraph) -> list[GraphViolation]:
    """Check every invariant; returns the violations (empty = valid)."""
    violations: list[GraphViolation] = []

    t_src, t_dst = graph.edges.t_src, graph.edges.t_dst
    bad_hb = [i for i, (t0, t1) in enumerate(zip(t_src, t_dst)) if t0 > t1]
    if bad_hb:
        worst = graph.edges[max(bad_hb, key=lambda i: t_src[i] - t_dst[i])]
        violations.append(
            GraphViolation(
                "happens-before",
                f"{len(bad_hb)} edge(s) run backward in sim time; worst: "
                f"{worst.kind} {graph.event(worst.src).label} "
                f"(t={worst.t_src:g}) -> {graph.event(worst.dst).label} "
                f"(t={worst.t_dst:g})",
            )
        )

    if graph.topo_order() is None:
        violations.append(
            GraphViolation("acyclic", "graph contains at least one cycle")
        )

    rootless = [event for event in graph.events if not graph.in_degree(event)]
    expected_root = [graph.root] if graph.root is not None else []
    if rootless != expected_root:
        labels = ", ".join(e.label for e in rootless[:5]) or "(none)"
        violations.append(
            GraphViolation(
                "single-root",
                f"{len(rootless)} event(s) have no in-edges "
                f"(expected only the run root): {labels}",
            )
        )

    if graph.root is not None:
        reachable = graph.reachable_from(graph.root)
        orphans = [e for e in graph.events if e.eid not in reachable]
        if orphans:
            labels = ", ".join(e.label for e in orphans[:5])
            violations.append(
                GraphViolation(
                    "reachable",
                    f"{len(orphans)} event(s) unreachable from the run "
                    f"root: {labels}",
                )
            )
        lost_tasks = [
            uid
            for uid, (start, _end) in sorted(graph.task_events.items())
            if start.eid not in reachable
        ]
        if lost_tasks:
            violations.append(
                GraphViolation(
                    "reachable",
                    f"{len(lost_tasks)} task node(s) unreachable from the "
                    f"run root: {', '.join(lost_tasks[:5])}",
                )
            )
    return violations


def assert_valid(graph: ProvGraph) -> None:
    """Raise ``ValueError`` listing every violated invariant."""
    violations = validate_graph(graph)
    if violations:
        lines = [f"{len(violations)} provenance-graph violation(s):"]
        lines.extend(f"  - {v.format()}" for v in violations)
        raise ValueError("\n".join(lines))


def report_violations(
    graph: ProvGraph, violations: list[GraphViolation]
) -> None:
    """Mirror violations into the sanitizer's spontaneous registry."""
    now = graph.end.t if graph.end is not None else 0.0
    for violation in violations:
        record_spontaneous_finding(
            SanitizerFinding(
                kind=f"provenance-{violation.rule}",
                process=None,
                site=None,
                detail=violation.detail,
                time=now,
            )
        )
