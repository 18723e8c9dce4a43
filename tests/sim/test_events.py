"""Condition events: AllOf / AnyOf semantics, and the with_timeout race."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Interrupt
from repro.sim.events import ConditionValue, TimeoutExpired, with_timeout


class TestAnyOf:
    def test_fires_on_first(self, env):
        t1 = env.timeout(1, "a")
        t2 = env.timeout(2, "b")

        def proc(env):
            result = yield AnyOf(env, [t1, t2])
            return (env.now, list(result.values()))

        assert env.run(env.process(proc(env))) == (1.0, ["a"])

    def test_empty_fires_immediately(self, env):
        def proc(env):
            yield AnyOf(env, [])
            return env.now

        assert env.run(env.process(proc(env))) == 0.0

    def test_simultaneous_children_both_collected(self, env):
        t1 = env.timeout(1, "a")
        t2 = env.timeout(1, "b")

        def proc(env):
            result = yield AnyOf(env, [t1, t2])
            return list(result.values())

        # FIFO: t1 processed first; t2 not yet processed at that moment.
        assert env.run(env.process(proc(env))) == ["a"]

    def test_failed_child_fails_condition(self, env):
        bad = env.event()
        t = env.timeout(10)

        def proc(env):
            try:
                yield AnyOf(env, [bad, t])
            except ValueError:
                return "failed"

        p = env.process(proc(env))
        bad.fail(ValueError("child"))
        assert env.run(p) == "failed"


class TestAllOf:
    def test_waits_for_all(self, env):
        t1 = env.timeout(1, "a")
        t2 = env.timeout(3, "b")

        def proc(env):
            result = yield AllOf(env, [t1, t2])
            return (env.now, list(result.values()))

        assert env.run(env.process(proc(env))) == (3.0, ["a", "b"])

    def test_empty_fires_immediately(self, env):
        def proc(env):
            yield AllOf(env, [])
            return "ok"

        assert env.run(env.process(proc(env))) == "ok"

    def test_with_already_processed_children(self, env):
        e = env.event()
        e.succeed("pre")
        env.run()
        t = env.timeout(2, "post")

        def proc(env):
            result = yield AllOf(env, [e, t])
            return list(result.values())

        assert env.run(env.process(proc(env))) == ["pre", "post"]

    def test_condition_value_mapping(self, env):
        t1 = env.timeout(1, "x")
        t2 = env.timeout(2, "y")

        def proc(env):
            result = yield AllOf(env, [t1, t2])
            assert t1 in result
            assert result[t1] == "x"
            assert dict(result.items())[t2] == "y"
            assert result == {t1: "x", t2: "y"}
            return True

        assert env.run(env.process(proc(env)))

    def test_mixed_environments_rejected(self, env):
        other = Environment()
        t1 = env.timeout(1)
        t2 = other.timeout(1)
        from repro.sim import SimulationError

        with pytest.raises(SimulationError):
            AllOf(env, [t1, t2])


class TestConditionValue:
    def test_missing_key_raises(self, env):
        cv = ConditionValue()
        with pytest.raises(KeyError):
            cv[env.event()]

    def test_todict_empty(self):
        assert ConditionValue().todict() == {}


class TestWithTimeout:
    def test_child_wins_and_losing_clock_is_tombstoned(self, env):
        def child(env):
            yield env.timeout(1)
            return "done"

        def proc(env):
            result = yield from with_timeout(env, child(env), 5.0, name="c")
            return (env.now, result)

        assert env.run(env.process(proc(env))) == (1.0, "done")
        assert env.tombstones_skipped == 0
        env.run()
        # The clock still sat in the queue; draining skips it uncounted
        # as an executed event.
        assert env.tombstones_skipped == 1

    def test_child_failure_is_reraised_and_clock_tombstoned(self, env):
        def child(env):
            yield env.timeout(1)
            raise KeyError("child")

        def proc(env):
            with pytest.raises(KeyError):
                yield from with_timeout(env, child(env), 5.0)
            return env.now

        assert env.run(env.process(proc(env))) == 1.0
        env.run()
        assert env.tombstones_skipped == 1

    def test_clock_wins_interrupts_child(self, env):
        seen = []

        def child(env):
            try:
                yield env.timeout(10)
            except Interrupt as interrupt:
                seen.append((env.now, interrupt.cause))

        def proc(env):
            try:
                yield from with_timeout(env, child(env), 2.0, name="slow#3")
            except TimeoutExpired as exc:
                return (env.now, str(exc), exc.timeout)

        assert env.run(env.process(proc(env))) == (
            2.0, "slow#3: no result within 2.0s", 2.0,
        )
        env.run()
        assert seen == [(2.0, "timeout")]
        assert env.tombstones_skipped == 0
