"""Makespan decomposition and critical-path analysis.

The paper's conclusion: for workflows, "performance objectives of
turnaround time are expanded to include makespan and utilization,
especially in large many-task scenarios where resource management,
critical paths, and scheduling efficiency are paramount".  This module
decomposes an EnTK pipeline's makespan into its per-stage critical
path and attributes every second to a category: task execution, RP
overhead (scheduling/launch), or resource starvation (queue waits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..rp.states import TaskState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..entk.pipeline import Pipeline
    from ..rp.task import Task

__all__ = ["TaskBreakdown", "StagePath", "PipelineCriticalPath",
           "breakdown_task", "pipeline_critical_path"]


@dataclass(frozen=True, slots=True)
class TaskBreakdown:
    """Where one task's wall time went."""

    uid: str
    #: Client-side management (TMGR states).
    client_seconds: float
    #: Waiting in the agent scheduler for resources.
    queue_seconds: float
    #: Launch + teardown overhead around execution.
    launch_seconds: float
    #: Actual rank execution (exec_start .. exec_stop).
    execution_seconds: float
    #: Output staging + finalization.
    staging_seconds: float

    @property
    def total(self) -> float:
        return (
            self.client_seconds
            + self.queue_seconds
            + self.launch_seconds
            + self.execution_seconds
            + self.staging_seconds
        )

    @property
    def overhead_fraction(self) -> float:
        """Fraction of wall time not spent executing ranks."""
        if self.total <= 0:
            return 0.0
        return 1.0 - self.execution_seconds / self.total


def breakdown_task(task: "Task") -> TaskBreakdown:
    """Decompose one finished task's timeline from its events."""
    submitted = task.submitted_at if task.submitted_at is not None else 0.0
    agent_sched = task.time_of(TaskState.AGENT_SCHEDULING) or submitted
    executing = task.time_of(TaskState.AGENT_EXECUTING) or agent_sched
    exec_start = task.time_of("exec_start") or executing
    exec_stop = task.time_of("exec_stop") or exec_start
    launch_stop = task.time_of("launch_stop") or exec_stop
    finished = task.finished_at if task.finished_at is not None else launch_stop
    return TaskBreakdown(
        uid=task.uid,
        client_seconds=max(0.0, agent_sched - submitted),
        queue_seconds=max(0.0, executing - agent_sched),
        launch_seconds=max(0.0, exec_start - executing)
        + max(0.0, launch_stop - exec_stop),
        execution_seconds=max(0.0, exec_stop - exec_start),
        staging_seconds=max(0.0, finished - launch_stop),
    )


@dataclass(frozen=True, slots=True)
class StagePath:
    """One stage on the pipeline's critical path."""

    name: str
    duration: float
    #: The task that finished last (defines the barrier release).
    critical_task: str
    breakdown: TaskBreakdown


@dataclass(slots=True)
class PipelineCriticalPath:
    """The critical path through one pipeline's stage chain."""

    pipeline: str
    makespan: float
    stages: list[StagePath] = field(default_factory=list)

    @property
    def execution_seconds(self) -> float:
        return sum(s.breakdown.execution_seconds for s in self.stages)

    @property
    def queue_seconds(self) -> float:
        return sum(s.breakdown.queue_seconds for s in self.stages)

    @property
    def overhead_seconds(self) -> float:
        return sum(
            s.breakdown.client_seconds
            + s.breakdown.launch_seconds
            + s.breakdown.staging_seconds
            for s in self.stages
        )

    def summary(self) -> dict[str, float]:
        return {
            "makespan": self.makespan,
            "execution": self.execution_seconds,
            "queue": self.queue_seconds,
            "overhead": self.overhead_seconds,
        }


def pipeline_critical_path(pipeline: "Pipeline") -> PipelineCriticalPath:
    """The stage-barrier critical path of one executed pipeline.

    Inside each stage, the critical task is the one that reached its
    final state last; the stage's barrier releases with it.
    """
    if pipeline.started_at is None or pipeline.finished_at is None:
        raise ValueError(f"{pipeline.uid} has not finished")
    path = PipelineCriticalPath(
        pipeline=pipeline.uid,
        makespan=pipeline.finished_at - pipeline.started_at,
    )
    for stage in pipeline.stages:
        finished = [t for t in stage.tasks if t.finished_at is not None]
        if not finished:
            continue
        critical = max(finished, key=lambda t: t.finished_at)
        path.stages.append(
            StagePath(
                name=stage.name,
                duration=stage.duration or 0.0,
                critical_task=critical.uid,
                breakdown=breakdown_task(critical),
            )
        )
    return path

