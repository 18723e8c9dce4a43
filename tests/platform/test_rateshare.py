"""Rate-shared execution: fair channels and contention domains."""

import gc

import pytest

from repro.platform.rateshare import Activity, ContentionDomain, FairShareChannel
from repro.sim import Environment


def finish(env, pool_activity, box, key):
    yield pool_activity.done
    box[key] = env.now


class TestFairShareChannel:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            FairShareChannel(env, capacity=0)

    def test_single_transfer_full_rate(self, env):
        channel = FairShareChannel(env, capacity=10.0)
        act = channel.execute(work=100.0)
        env.run(act.done)
        assert env.now == pytest.approx(10.0)

    def test_two_transfers_share_equally(self, env):
        channel = FairShareChannel(env, capacity=10.0)
        a = channel.execute(work=100.0)
        b = channel.execute(work=100.0)
        box = {}
        env.process(finish(env, a, box, "a"))
        env.process(finish(env, b, box, "b"))
        env.run()
        assert box["a"] == pytest.approx(20.0)
        assert box["b"] == pytest.approx(20.0)

    def test_departure_speeds_up_survivor(self, env):
        channel = FairShareChannel(env, capacity=10.0)
        short = channel.execute(work=50.0)  # shares -> done at t=10
        long = channel.execute(work=100.0)
        box = {}
        env.process(finish(env, short, box, "short"))
        env.process(finish(env, long, box, "long"))
        env.run()
        # long: 50 units in [0,10] at rate 5, then 50 at rate 10 -> t=15
        assert box["short"] == pytest.approx(10.0)
        assert box["long"] == pytest.approx(15.0)

    def test_rate_cap_applies(self, env):
        channel = FairShareChannel(env, capacity=100.0)
        act = channel.execute(work=100.0, rate_cap=10.0)
        env.run(act.done)
        assert env.now == pytest.approx(10.0)

    def test_weighted_share(self, env):
        channel = FairShareChannel(env, capacity=12.0)
        heavy = channel.execute(work=80.0, weight=2.0)  # rate 8
        light = channel.execute(work=80.0, weight=1.0)  # rate 4
        box = {}
        env.process(finish(env, heavy, box, "heavy"))
        env.process(finish(env, light, box, "light"))
        env.run()
        assert box["heavy"] == pytest.approx(10.0)
        # light: 40 in [0,10] then alone at 12: 40/12 more
        assert box["light"] == pytest.approx(10.0 + 40.0 / 12.0)

    def test_zero_work_completes_immediately(self, env):
        channel = FairShareChannel(env, capacity=1.0)
        act = channel.execute(work=0.0)
        env.run(act.done)
        assert env.now == 0.0

    def test_negative_work_rejected(self, env):
        channel = FairShareChannel(env, capacity=1.0)
        with pytest.raises(ValueError):
            channel.execute(work=-1.0)

    def test_cancel_removes_activity(self, env):
        channel = FairShareChannel(env, capacity=10.0)
        a = channel.execute(work=100.0)
        b = channel.execute(work=100.0)

        def canceller(env):
            yield env.timeout(5)
            a.cancel()

        env.process(canceller(env))
        env.run(b.done)
        # b: 25 units by t=5 (rate 5), then 75 at rate 10 -> t=12.5
        assert env.now == pytest.approx(12.5)

    def test_delivered_accounting(self, env):
        channel = FairShareChannel(env, capacity=10.0)
        act = channel.execute(work=30.0)
        env.run(act.done)
        assert channel.delivered == pytest.approx(30.0)


class TestContentionDomain:
    def test_no_contention_below_capacity(self, env):
        domain = ContentionDomain(env, capacity=10.0)
        act = domain.execute(work=50.0, demand=5.0, mem_intensity=0.8)
        env.run(act.done)
        assert env.now == pytest.approx(50.0)

    def test_memory_bound_slowdown(self, env):
        domain = ContentionDomain(env, capacity=10.0)
        # Two activities, total demand 20 -> overload 2x on the
        # memory-bound half: slowdown = 0.5 + 0.5*2 = 1.5.
        a = domain.execute(work=60.0, demand=10.0, mem_intensity=0.5)
        b = domain.execute(work=60.0, demand=10.0, mem_intensity=0.5)
        box = {}
        env.process(finish(env, a, box, "a"))
        env.process(finish(env, b, box, "b"))
        env.run()
        assert box["a"] == pytest.approx(90.0)
        assert box["b"] == pytest.approx(90.0)

    def test_cpu_bound_immune_to_contention(self, env):
        domain = ContentionDomain(env, capacity=10.0)
        cpu = domain.execute(work=50.0, demand=0.0, mem_intensity=0.0)
        domain.execute(work=500.0, demand=100.0, mem_intensity=1.0)
        env.run(cpu.done)
        assert env.now == pytest.approx(50.0)

    def test_pressure_metric(self, env):
        domain = ContentionDomain(env, capacity=10.0)
        domain.execute(work=100.0, demand=5.0)
        assert domain.pressure() == pytest.approx(0.5)

    def test_departure_reduces_slowdown(self, env):
        domain = ContentionDomain(env, capacity=10.0)
        short = domain.execute(work=15.0, demand=10.0, mem_intensity=1.0)
        long = domain.execute(work=60.0, demand=10.0, mem_intensity=1.0)
        box = {}
        env.process(finish(env, short, box, "s"))
        env.process(finish(env, long, box, "l"))
        env.run()
        # Both at rate 1/2 while together: short (15 units) done at
        # t=30; long has 45 units left, now at full rate -> t=75.
        assert box["s"] == pytest.approx(30.0)
        assert box["l"] == pytest.approx(75.0)

    def test_progress_property(self, env):
        domain = ContentionDomain(env, capacity=10.0)
        act = domain.execute(work=100.0)

        def check(env):
            yield env.timeout(25)
            assert 0.2 < act.progress < 0.3
            yield act.done
            assert act.progress == pytest.approx(1.0)

        env.run(env.process(check(env)))


@pytest.mark.parametrize("pool_type", [FairShareChannel, ContentionDomain])
def test_finished_activities_are_freed_without_the_cyclic_gc(pool_type):
    """``done`` does not carry the activity back as its value, so no
    activity -> done -> activity cycle keeps a finished one alive until
    the cyclic GC runs: with the GC off, none survives the run."""

    def worker(pool, i):
        for k in range(5):
            act = pool.execute(work=float(1 + (i + k) % 7), demand=1.0)
            yield act.done

    gc.disable()
    try:
        env = Environment()
        pool = pool_type(env, capacity=4.0)
        for i in range(40):
            env.process(worker(pool, i))
        env.run()
        assert pool.delivered > 0
        alive = [
            o for o in gc.get_objects()
            if isinstance(o, Activity) and o.pool is pool
        ]
        assert alive == []
    finally:
        gc.enable()
