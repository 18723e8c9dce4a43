"""Property-based tests for the RP monitor's incremental profile summary.

The monitor folds each profile record once and finalizes a summary per
sample.  Folding a random stream in random pieces must give exactly the
one-shot :func:`summarize_profile`, and that must give exactly the
full-rescan summary the monitor used to recompute every sample: same
values, same float bits, same dict key order (key order fixes the order
the published tree is built in, and so its digest).
"""

import struct
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.monitors.rp_monitor import ProfileFold, summarize_profile
from repro.rp import ProfileRecord, TaskState
from repro.rp.states import TASK_FINAL_STATES

STATES = [
    TaskState.NEW,
    TaskState.AGENT_SCHEDULING,
    TaskState.AGENT_EXECUTING,
    TaskState.DONE,
    TaskState.FAILED,
    TaskState.CANCELED,
]
# Tasks plus entities the summary must ignore.
entity = st.sampled_from(
    [f"task.{i:06d}" for i in range(6)] + ["pilot.0000", "agent.0"]
)
# Mostly state events; the rest carry a state the summary must ignore.
event = st.sampled_from(["state", "state", "state", "exec_start", "launch_stop"])
# Arbitrary float times (not sorted): closed intervals may be negative
# and sums of them are order-sensitive, which is what bit equality tests.
time = st.floats(min_value=-1e3, max_value=1e6, allow_nan=False)
record = st.builds(
    ProfileRecord,
    time=time,
    entity=entity,
    event=event,
    state=st.sampled_from(STATES),
)
stream = st.lists(record, max_size=60)


def rescan_summary(records, now):
    """The summary as a single full scan of the log computes it."""
    last_state = {}
    state_entered = {}
    time_in_state = Counter()
    for rec in records:
        if not rec.entity.startswith("task."):
            continue
        if rec.event == "state":
            prev = last_state.get(rec.entity)
            if prev is not None:
                time_in_state[prev] += rec.time - state_entered[rec.entity]
            last_state[rec.entity] = rec.state
            state_entered[rec.entity] = rec.time
    for uid, state in last_state.items():
        if state not in TASK_FINAL_STATES:
            time_in_state[state] += now - state_entered[uid]
    state_counts = Counter(last_state.values())
    return {
        "tasks_seen": len(last_state),
        "state_counts": dict(state_counts),
        "time_in_state": dict(time_in_state),
        "done": state_counts.get(TaskState.DONE, 0),
        "failed": state_counts.get(TaskState.FAILED, 0),
        "running": state_counts.get(TaskState.AGENT_EXECUTING, 0),
        "pending": sum(
            count
            for state, count in state_counts.items()
            if state not in TASK_FINAL_STATES
            and state != TaskState.AGENT_EXECUTING
        ),
    }


def exact(value):
    """A comparable form that tells floats apart by their bits."""
    if isinstance(value, dict):
        return [(key, exact(sub)) for key, sub in value.items()]
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


@given(stream, st.lists(st.integers(min_value=0, max_value=60), max_size=5), time)
@settings(max_examples=300, deadline=None)
def test_pieces_fold_to_the_one_shot_summary(records, cuts, now):
    fold = ProfileFold()
    start = 0
    for cut in sorted(min(c, len(records)) for c in cuts) + [len(records)]:
        fold.fold(records[start:cut])
        start = cut
        # Finalizing mid-stream consumes nothing.
        fold.summary(now)
    assert fold.folded == len(records)
    assert exact(fold.summary(now)) == exact(summarize_profile(records, now))


def state_record(t, uid, name, event="state"):
    return ProfileRecord(time=t, entity=uid, event=event, state=name)


# The first DONE task leaves DONE: DONE must now sort by the next DONE
# task's position, behind the FAILED task seen between them.
LEAVES_FINAL = [
    state_record(0.0, "task.000000", TaskState.DONE),
    state_record(1.0, "task.000001", TaskState.FAILED),
    state_record(2.0, "task.000002", TaskState.DONE),
    state_record(3.0, "task.000000", TaskState.NEW),
]


@given(stream, time)
@example(LEAVES_FINAL, 10.0)
@example(LEAVES_FINAL[:3] + [state_record(3.0, "task.000000", TaskState.CANCELED)], 10.0)
@settings(max_examples=300, deadline=None)
def test_one_shot_summary_equals_a_full_rescan(records, now):
    assert exact(summarize_profile(records, now)) == exact(rescan_summary(records, now))


@given(stream, st.lists(time, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_every_sample_matches_a_rescan_of_its_prefix(records, nows):
    """The monitor's use: fold what is new, then summarize, repeatedly."""
    fold = ProfileFold()
    for index, now in enumerate(nows, start=1):
        prefix = records[: len(records) * index // len(nows)]
        fold.fold(prefix[fold.folded :])
        assert exact(fold.summary(now)) == exact(rescan_summary(prefix, now))
