"""RetryPolicy.execute: each attempt races its budget via with_timeout."""

import pytest

from repro.faults import RetryExhausted, RetryPolicy
from repro.sim import Interrupt
from repro.sim.events import TimeoutExpired


def _attempts(env, durations, log):
    """``make_attempt`` whose n-th attempt takes ``durations[n]`` seconds."""
    it = iter(durations)

    def make_attempt():
        duration = next(it)

        def attempt():
            try:
                yield env.timeout(duration)
            except Interrupt as interrupt:
                log.append((env.now, interrupt.cause))
                raise
            return env.now

        return attempt()

    return make_attempt


def test_attempt_wins_and_losing_clock_is_tombstoned(env):
    policy = RetryPolicy(max_attempts=3, timeout=5.0, deadline=None)
    log = []

    def proc(env):
        result = yield from policy.execute(env, _attempts(env, [1.0], log))
        return result

    assert env.run(env.process(proc(env))) == 1.0
    assert env.tombstones_skipped == 0
    env.run()
    assert env.tombstones_skipped == 1
    assert log == []


def test_clock_wins_interrupts_attempt_and_names_it(env):
    policy = RetryPolicy(max_attempts=2, timeout=1.0, deadline=None, jitter=0.0)
    log = []
    retries = []

    def proc(env):
        try:
            yield from policy.execute(
                env,
                _attempts(env, [10.0, 10.0], log),
                on_retry=lambda n, delay, exc: retries.append(str(exc)),
                name="persist",
            )
        except RetryExhausted as exc:
            return exc

    exhausted = env.run(env.process(proc(env)))
    env.run()
    assert exhausted.attempts == 2
    assert isinstance(exhausted.last_error, TimeoutExpired)
    assert str(exhausted.last_error) == "persist#1: no result within 1.0s"
    assert retries == ["persist#0: no result within 1.0s"]
    # Attempt 0 times out at 1.0, backs off 0.5, attempt 1 times out at 2.5.
    assert log == [(1.0, "timeout"), (2.5, "timeout")]


def test_timeout_not_retried_propagates_with_attempt_name(env):
    policy = RetryPolicy(max_attempts=3, timeout=2.0, deadline=None)
    log = []

    def proc(env):
        yield from policy.execute(
            env, _attempts(env, [10.0], log), retry_on=(), name="q"
        )

    with pytest.raises(TimeoutExpired, match=r"^q#0: no result within 2\.0s$"):
        env.run(env.process(proc(env)))
    env.run()
    assert log == [(2.0, "timeout")]
