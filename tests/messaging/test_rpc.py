"""Mochi-style RPC: queueing, service time, discovery, failures."""

import pytest

from repro.messaging import RPCClient, RPCError, RPCRegistry, RPCServer
from repro.platform import Cluster, summit_like
from repro.sim import Environment


@pytest.fixture
def cluster(env):
    return Cluster(env, summit_like(2))


def make_server(env, cluster, ranks=1, node=None, **kwargs):
    server = RPCServer(
        env, cluster.network, node, name="svc", ranks=ranks, **kwargs
    )
    server.register("echo", lambda req: req.body)
    server.register("boom", lambda req: 1 / 0)
    return server


def call(env, client, server, method, body=None, nbytes=100.0, box=None, key=None):
    response = yield from client.call(server, method, body=body, payload_bytes=nbytes)
    if box is not None:
        box[key] = (env.now, response)
    return response


class TestRPCBasics:
    def test_echo_round_trip(self, env, cluster):
        server = make_server(env, cluster)
        client = RPCClient(env, cluster.network, "c1")
        p = env.process(call(env, client, server, "echo", body={"x": 1}))
        response = env.run(p)
        assert response.ok
        assert response.body == {"x": 1}
        assert client.calls == 1

    def test_unknown_method_raises_client_side(self, env, cluster):
        server = make_server(env, cluster)
        client = RPCClient(env, cluster.network, "c1")

        def proc(env):
            try:
                yield from client.call(server, "nope")
            except RPCError:
                return "raised"

        assert env.run(env.process(proc(env))) == "raised"
        assert server.stats.errors == 1

    def test_handler_exception_returned_not_raised(self, env, cluster):
        server = make_server(env, cluster)
        client = RPCClient(env, cluster.network, "c1")
        response = env.run(env.process(call(env, client, server, "boom")))
        assert not response.ok
        assert isinstance(response.body, ZeroDivisionError)

    def test_dead_server_raises(self, env, cluster):
        server = make_server(env, cluster)
        server.shutdown()
        client = RPCClient(env, cluster.network, "c1")

        def proc(env):
            with pytest.raises(RPCError):
                yield from client.call(server, "echo")
            return True

        assert env.run(env.process(proc(env)))

    def test_rtt_positive_and_tracked(self, env, cluster):
        server = make_server(env, cluster)
        client = RPCClient(env, cluster.network, "c1")
        env.run(env.process(call(env, client, server, "echo")))
        assert client.mean_rtt > 0
        assert env.now > 0

    def test_payload_size_increases_service_time(self, env, cluster):
        big_box, small_box = {}, {}
        server = make_server(
            env, cluster, per_byte_service_time=1e-5
        )
        client = RPCClient(env, cluster.network, "c1")
        env.run(env.process(
            call(env, client, server, "echo", nbytes=100.0, box=small_box, key="t")
        ))
        small_t = small_box["t"][0]
        env2 = Environment()
        cluster2 = Cluster(env2, summit_like(2))
        server2 = make_server(env2, cluster2, per_byte_service_time=1e-5)
        client2 = RPCClient(env2, cluster2.network, "c1")
        env2.run(env2.process(
            call(env2, client2, server2, "echo", nbytes=100000.0, box=big_box, key="t")
        ))
        assert big_box["t"][0] > small_t


class TestRPCQueueing:
    def test_single_rank_serializes(self, env, cluster):
        server = make_server(env, cluster, ranks=1, base_service_time=1.0)
        box = {}
        for i in range(3):
            client = RPCClient(env, cluster.network, f"c{i}")
            env.process(call(env, client, server, "echo", box=box, key=i))
        env.run()
        finish_times = sorted(t for t, _ in box.values())
        assert finish_times[1] - finish_times[0] == pytest.approx(1.0, rel=0.05)
        assert server.stats.mean_queue_time > 0

    def test_more_ranks_increase_concurrency(self, env, cluster):
        server = make_server(env, cluster, ranks=3, base_service_time=1.0)
        box = {}
        for i in range(3):
            client = RPCClient(env, cluster.network, f"c{i}")
            env.process(call(env, client, server, "echo", box=box, key=i))
        env.run()
        finish_times = [t for t, _ in box.values()]
        assert max(finish_times) - min(finish_times) < 0.5

    def test_server_node_charged_cpu(self, env, cluster):
        node = cluster.nodes[0]
        server = make_server(env, cluster, node=node, base_service_time=0.5)
        client = RPCClient(env, cluster.network, "c1")
        env.run(env.process(call(env, client, server, "echo")))
        assert node.busy_cores.integral > 0

    def test_invalid_rank_count(self, env, cluster):
        with pytest.raises(ValueError):
            RPCServer(env, cluster.network, None, "bad", ranks=0)


class TestRegistry:
    def test_lookup_blocks_until_publish(self, env, cluster):
        registry = RPCRegistry(env)
        box = {}

        def waiter(env):
            server = yield from registry.lookup("svc")
            box["found_at"] = env.now
            return server.name

        def publisher(env):
            yield env.timeout(5)
            registry.publish(make_server(env, cluster))

        p = env.process(waiter(env))
        env.process(publisher(env))
        assert env.run(p) == "svc"
        assert box["found_at"] == pytest.approx(5.0)

    def test_lookup_immediate_when_registered(self, env, cluster):
        registry = RPCRegistry(env)
        server = make_server(env, cluster)
        registry.publish(server)

        def waiter(env):
            found = yield from registry.lookup("svc")
            return found is server

        assert env.run(env.process(waiter(env)))

    def test_try_lookup(self, env, cluster):
        registry = RPCRegistry(env)
        assert registry.try_lookup("ghost") is None
        server = make_server(env, cluster)
        registry.publish(server)
        assert registry.try_lookup("svc") is server
        assert registry.names() == ["svc"]


def _run_case(case, hub):
    """Drive one RPC failure case; return its outcome and the hub.

    The outcome holds everything a caller can observe: what the call
    returned or raised, when, and the client and server counters.
    """
    from repro.telemetry import Telemetry

    env = Environment()
    tel = Telemetry(env, enabled=hub)
    cluster = Cluster(env, summit_like(2))
    admission = (lambda request: False) if case == "rejected" else None
    server = make_server(env, cluster, admission=admission)
    client = RPCClient(env, cluster.network, "c1", serialize_cost_per_byte=0.0)
    method = "nope" if case == "unknown_method" else "echo"
    timeout = None
    nbytes = 100.0
    if case == "timeout_mid_wire":
        # Expires while the request is still crossing the fabric.
        nbytes = 1e10
        timeout = 1e-3
    if case == "shut_down":
        server.shutdown()

    def caller(env):
        try:
            response = yield from client.call(
                server, method, payload_bytes=nbytes, timeout=timeout
            )
        except RPCError as exc:
            return ("raised", type(exc).__name__, str(exc), env.now)
        return ("returned", response.ok, response.body, env.now)

    def shut_down_in_flight(env):
        yield env.timeout(1e-9)
        server.shutdown()

    proc = env.process(caller(env))
    if case == "shut_down_in_flight":
        env.process(shut_down_in_flight(env))
    result = env.run(proc)
    env.run()
    outcome = (
        result,
        env.now,
        (client.calls, client.failures, client.timeouts),
        server.stats.snapshot(),
    )
    return outcome, tel


#: case -> (exception raised by the call, rpc.serve spans expected).
RPC_FAILURE_CASES = {
    "shut_down": ("ServiceUnavailable", 0),
    "shut_down_in_flight": ("ServiceUnavailable", 1),
    "rejected": ("AdmissionRejected", 1),
    "unknown_method": ("RPCError", 1),
    "timeout_mid_wire": ("RPCTimeout", 0),
}


class TestRPCSpansDoNotChangeOutcomes:
    """One attempt/serve generator pair serves traced and untraced runs."""

    @pytest.mark.parametrize("hub", [False, True], ids=["hub_off", "hub_on"])
    @pytest.mark.parametrize("case", sorted(RPC_FAILURE_CASES))
    def test_outcome_and_spans(self, case, hub):
        raised, serves_expected = RPC_FAILURE_CASES[case]
        outcome, tel = _run_case(case, hub)
        assert outcome[0][:2] == ("raised", raised)
        reference, _ = _run_case(case, hub=False)
        assert outcome == reference
        if not hub:
            assert tel.spans == []
            return
        attempts = [s for s in tel.spans if s.name.startswith("rpc.attempt:")]
        serves = [s for s in tel.spans if s.name.startswith("rpc.serve:")]
        assert len(attempts) == 1
        assert attempts[0].closed
        assert len(serves) == serves_expected
        for serve in serves:
            assert serve.closed
            assert serve.parent_id == attempts[0].span_id
            assert serve.trace_id == attempts[0].trace_id
