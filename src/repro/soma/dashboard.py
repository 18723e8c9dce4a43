"""A text dashboard over a live SOMA deployment.

"Once in SOMA's possession, the data gathered can be processed and
analyzed online" (paper Sec 6).  This module renders a point-in-time
snapshot of all namespaces — the kind of view OSU INAM exposes as a
web dashboard (Sec 5) — as plain text, either offline after a run or
online from inside a simulation process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..analysis.report import render_table, sparkline
from .analysis import (
    cpu_utilization_series,
    task_throughput,
    workflow_summary_series,
)
from .namespaces import APPLICATION, HARDWARE, PERFORMANCE, WORKFLOW

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .integration import SomaDeployment

__all__ = ["render_dashboard"]


def _workflow_panel(deployment: "SomaDeployment") -> str:
    store = deployment.service_model.stores.get(WORKFLOW)
    if store is None or len(store) == 0:
        return "workflow: (no data)"
    series = workflow_summary_series(store)
    if not series:
        return "workflow: (no summaries yet)"
    last = series[-1]
    lines = [
        "workflow namespace "
        f"({len(store)} publishes, {store.total_bytes / 1024:.1f} KiB)",
        f"  t={last['time']:.0f}s  done={last.get('done', 0):.0f}  "
        f"running={last.get('running', 0):.0f}  "
        f"pending={last.get('pending', 0):.0f}  "
        f"failed={last.get('failed', 0):.0f}",
    ]
    rates = task_throughput(store)
    if rates:
        lines.append(
            "  throughput: "
            + sparkline([r for _, r in rates])
            + f"  (latest {rates[-1][1]:.3f} tasks/s)"
        )
    return "\n".join(lines)


def _hardware_panel(deployment: "SomaDeployment", max_hosts: int) -> str:
    store = deployment.service_model.stores.get(HARDWARE)
    if store is None or len(store) == 0:
        return "hardware: (no data)"
    series = cpu_utilization_series(store)
    lines = [
        "hardware namespace "
        f"({len(store)} publishes from {len(series)} nodes)"
    ]
    for host in sorted(series)[:max_hosts]:
        points = series[host]
        cpu = sparkline(
            [p.cpu_utilization for p in points], lo=0.0, hi=1.0
        )
        last = points[-1]
        lines.append(
            f"  {host} cpu {cpu} {last.cpu_utilization:4.0%}"
            f"  gpu {last.gpu_utilization:4.0%}"
        )
    if len(series) > max_hosts:
        lines.append(f"  ... {len(series) - max_hosts} more nodes")
    return "\n".join(lines)


def _performance_panel(deployment: "SomaDeployment") -> str:
    store = deployment.service_model.stores.get(PERFORMANCE)
    if store is None or len(store) == 0:
        return "performance: (no data)"
    tau = store.merged(path="TAU")
    if tau.is_empty:
        return "performance: (no TAU profiles)"
    rows = []
    for task_uid, task_node in list(tau.children())[:6]:
        mpi = 0.0
        compute = 0.0
        ranks = 0
        for _host, host_node in task_node.children():
            for _rank, rank_node in host_node.children():
                ranks += 1
                for region, leaf in rank_node.children():
                    if not leaf.is_leaf:
                        continue
                    if region.startswith("MPI_"):
                        mpi += float(leaf.value)
                    else:
                        compute += float(leaf.value)
        total = mpi + compute
        rows.append(
            [
                task_uid,
                ranks,
                f"{compute:.0f}",
                f"{mpi:.0f}",
                f"{(mpi / total * 100) if total else 0:.0f}%",
            ]
        )
    return render_table(
        ["task", "ranks", "compute (s)", "MPI (s)", "MPI share"],
        rows,
        title=f"performance namespace ({len(store)} profiles)",
    )


def _application_panel(deployment: "SomaDeployment") -> str:
    store = deployment.service_model.stores.get(APPLICATION)
    if store is None or len(store) == 0:
        return "application: (no data)"
    app = store.merged(path="APP")
    if app.is_empty:
        return "application: (no figures of merit)"
    rows = []
    for task_uid, task_node in list(app.children())[:8]:
        for metric, metric_node in task_node.children():
            values = [
                float(sample["value"])
                for _seq, sample in metric_node.children()
                if "value" in sample
            ]
            if values:
                rows.append(
                    [task_uid, metric, len(values), f"{np.mean(values):.3g}"]
                )
    return render_table(
        ["task", "metric", "samples", "mean"],
        rows,
        title=f"application namespace ({len(store)} publishes)",
    )


def render_dashboard(
    deployment: "SomaDeployment", max_hosts: int = 8
) -> str:
    """One point-in-time text dashboard over every namespace."""
    if not deployment.enabled:
        return "SOMA not deployed (baseline run)"
    now = deployment.session.env.now
    panels = [f"=== SOMA dashboard @ t={now:.1f}s ==="]
    config = deployment.config
    panels.append(
        f"service: {len(config.namespaces)} namespaces x "
        f"{config.ranks_per_namespace} rank(s), publishing every "
        f"{config.monitoring_frequency:.0f}s"
    )
    for namespace in config.namespaces:
        if namespace == WORKFLOW:
            panels.append(_workflow_panel(deployment))
        elif namespace == HARDWARE:
            panels.append(_hardware_panel(deployment, max_hosts))
        elif namespace == PERFORMANCE:
            panels.append(_performance_panel(deployment))
        elif namespace == APPLICATION:
            panels.append(_application_panel(deployment))
    return "\n\n".join(panels)
