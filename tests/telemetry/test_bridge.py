"""Tracer<->span bridge, span-native analysis, and span tables."""

from __future__ import annotations

from repro.sim import Environment
from repro.sim.trace import Tracer
from repro.telemetry import (
    Telemetry,
    drain_telemetries,
    install_tracer_sink,
    render_span_table,
    top_critical_spans,
)


def _pair():
    env = Environment()
    tel = Telemetry(env, enabled=True)
    tracer = Tracer(env)
    install_tracer_sink(tel, tracer)
    drain_telemetries()
    return env, tel, tracer


def test_disabled_hub_installs_no_sink():
    env = Environment()
    tel = Telemetry(env, enabled=False)
    tracer = Tracer(env)
    install_tracer_sink(tel, tracer)
    assert tracer.sink is None


def test_task_records_route_to_bound_span():
    env, tel, tracer = _pair()
    span = tel.start_span("task:task.0", component="rp-client")
    tel.bind("task.0", span)
    tracer.record("rp.state", "task.0", state="DONE")
    assert span.events == [(0.0, "rp.state:task.0", {"state": "DONE"})]
    # Stored once in the tracer, referenced (not copied) by the span.
    assert len(tracer.records) == 1
    assert tracer.records[0].data is span.events[0][2]
    assert tel.dropped_events == 0


def test_ambient_records_route_to_current_span():
    env, tel, tracer = _pair()
    with tel.span("phase", component="entk") as span:
        tracer.record("entk.stage", "stage.1", duration=4.0)
    assert span.events == [(0.0, "entk.stage:stage.1", {"duration": 4.0})]


def test_task_record_without_binding_falls_back_to_ambient():
    env, tel, tracer = _pair()
    with tel.span("phase", component="entk") as span:
        tracer.record("rp.state", "task.unknown", state="NEW")
    assert len(span.events) == 1


def test_homeless_records_are_counted_not_lost():
    env, tel, tracer = _pair()
    tracer.record("rp.pilot", "pilot.0", event="noise")
    assert tel.dropped_events == 1
    assert len(tracer.records) == 1  # the flat log still has it


def test_closed_bound_span_drops_to_ambient_then_counts():
    env, tel, tracer = _pair()
    span = tel.start_span("task:task.0", component="rp-client")
    tel.bind("task.0", span)
    tel.end_span(span)
    tracer.record("rp.state", "task.0", state="DONE")
    assert span.events == []
    assert tel.dropped_events == 1


def test_top_critical_spans_ranked_by_self_time():
    env, tel, _tracer = _pair()

    def build():
        with tel.span("root", component="a"):  # dur 10, self 4
            yield env.timeout(1.0)
            with tel.span("mid", component="b"):  # dur 6, self 1
                yield env.timeout(1.0)
                with tel.span("leaf", component="c"):  # dur 5, self 5
                    yield env.timeout(5.0)
            yield env.timeout(3.0)

    env.run(env.process(build()))
    rows = top_critical_spans(tel, k=2)
    assert [r["name"] for r in rows] == ["leaf", "root"]
    assert rows[0]["self_time"] == 5.0
    assert rows[1]["self_time"] == 4.0
    assert all(r["root"] == "root" for r in rows)
    assert top_critical_spans(tel, k=0) == []


def test_render_span_table_shapes():
    env, tel, _tracer = _pair()
    tel.end_span(tel.start_span("x" * 40, component="c"))
    rows = top_critical_spans(tel)
    table = render_span_table(rows)
    lines = table.splitlines()
    assert lines[0].split() == [
        "component", "span", "root", "start", "dur", "self",
    ]
    assert "..." in lines[2]  # long names are elided
    assert render_span_table([]).endswith("(no spans)")


# -- full stack: the bridge during a real run -------------------------


def test_real_run_attaches_task_records_to_task_spans(traced_ddmd):
    result, hub = traced_ddmd
    session = result.session
    assert session.tracer.sink is not None
    roots = {
        span.attributes.get("uid"): span
        for span in hub.spans
        if span.name.startswith("task:")
    }
    some_task = next(iter(result.tasks))
    span = roots[some_task]
    state_events = [
        e for e in span.events if e[1].startswith("rp.state:")
    ]
    assert state_events, "task state records must land on the task span"
    # No double logging: each of those events aliases a stored tracer
    # record, not a copy.
    stored = {id(rec.data) for rec in session.tracer.records}
    assert all(id(e[2]) in stored for e in state_events)


def test_publish_serve_span_holds_only_the_tracer_record():
    # The SOMA publish handler logs through the tracer alone: each
    # rpc.serve:publish span carries that one record, by reference.
    from repro.experiments import TUNING, run_openfoam_experiment
    from repro.telemetry import set_default_telemetry

    previous = set_default_telemetry(True)
    drain_telemetries()
    try:
        result = run_openfoam_experiment(TUNING, seed=3)
    finally:
        set_default_telemetry(previous)
        hubs = drain_telemetries()
    (hub,) = hubs
    records = [r for r in result.session.tracer.records if r.category == "soma.publish"]
    spans = [s for s in hub.spans if s.name == "rpc.serve:publish"]
    assert spans and len(spans) == len(records)
    data_of = {id(r.data): r.data for r in records}
    for span in spans:
        namespace = span.attributes["server"].split(".")[-1]
        ((_, name, data),) = span.events
        assert name == f"soma.publish:{namespace}"
        assert data_of.get(id(data)) is data
