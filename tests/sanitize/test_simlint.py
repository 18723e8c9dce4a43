"""simlint: every rule must fire on a known-bad fixture and stay quiet
on the idiomatic counterpart — and the repository itself must lint clean.

Nondeterministic sources (wall-clock, unseeded RNG, entropy, id/hash,
set order) and the interrupt/request lifecycle hazards are flagged by
the flow rules SL100/SL101/SL103 once the value or path reaches the
kernel; a source that never reaches a sink is not a finding.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.sanitize import simlint

REPO_ROOT = Path(__file__).resolve().parents[2]


def findings_for(source: str):
    return [
        f
        for f in simlint.lint_source(textwrap.dedent(source), "fixture.py")
        if not f.suppressed
    ]


def rule_ids(source: str) -> set[str]:
    return {f.rule.id for f in findings_for(source)}


# -- wall-clock sources (SL100) --------------------------------------------


def test_wall_clock_flagged():
    assert rule_ids(
        """
        import time
        def proc(env):
            yield env.timeout(time.time())
        """
    ) == {"SL100"}


def test_wall_clock_from_import_and_datetime():
    src = """
        from time import perf_counter
        from datetime import datetime
        def proc(env, queue):
            yield env.timeout(perf_counter())
            queue.put(datetime.now())
        """
    assert [(f.rule.id, f.line) for f in findings_for(src)] == [
        ("SL100", 5),
        ("SL100", 6),
    ]


def test_env_now_not_flagged():
    assert not findings_for(
        """
        def f(env):
            return env.now
        """
    )


# -- SL002 real-sleep ------------------------------------------------------


def test_time_sleep_flagged():
    assert "SL002" in rule_ids(
        """
        import time
        def f():
            time.sleep(0.1)
        """
    )


# -- global-random sources (SL100) -----------------------------------------


def test_global_random_flagged():
    assert rule_ids(
        """
        import random
        def proc(env):
            yield env.timeout(random.randint(1, 6))
        """
    ) == {"SL100"}


def test_numpy_global_random_flagged_but_generator_ok():
    src = """
        import numpy as np
        def bad(env):
            yield env.timeout(np.random.random())
        def good(env):
            rng = np.random.default_rng(7)
            yield env.timeout(rng.random())
        """
    found = findings_for(src)
    assert [f.rule.id for f in found] == ["SL100"]
    assert found[0].line == 4


def test_seeded_generator_method_not_flagged():
    assert not findings_for(
        """
        def f(rng):
            return rng.normal(0.0, 1.0)
        """
    )


# -- entropy sources (SL100) ----------------------------------------------


def test_uuid4_urandom_secrets_flagged():
    src = """
        import uuid, os, secrets
        def proc(env, queue):
            queue.put(uuid.uuid4())
            queue.put(os.urandom(8))
            queue.put(secrets.token_hex(4))
            yield env.timeout(1)
        """
    assert [f.rule.id for f in findings_for(src)] == ["SL100"] * 3


# -- set iteration order (SL100) -------------------------------------------


def test_set_iteration_flagged():
    src = """
        def proc(env, items, queue):
            for item in set(items):
                queue.put(item)
            queue.put([x for x in {1, 2, 3}])
            yield env.timeout(1)
        """
    assert [f.rule.id for f in findings_for(src)] == ["SL100", "SL100"]


def test_sorted_set_not_flagged():
    assert not findings_for(
        """
        def proc(env, items, queue):
            for item in sorted(set(items)):
                queue.put(item)
            yield env.timeout(1)
        """
    )


# -- id and hash ordering (SL100) ------------------------------------------


def test_id_call_flagged():
    assert rule_ids(
        """
        def proc(env, obj, queue):
            queue.put({id(obj): obj})
            yield env.timeout(1)
        """
    ) == {"SL100"}


def test_hash_flagged_outside_dunder_hash():
    src = """
        def proc(env, name):
            yield env.timeout(hash(name) % 10)
        class C:
            def __hash__(self):
                return hash(self.name)
        """
    found = findings_for(src)
    assert [f.rule.id for f in found] == ["SL100"]
    assert found[0].line == 3


#: The retired occurrence rules' positive cases, each of which returns or
#: stores its source without scheduling on it.
NO_SINK_SOURCES = {
    "wall-clock": "import time\ndef f():\n    return time.time()\n",
    "wall-clock-from-import": (
        "from time import perf_counter\nfrom datetime import datetime\n"
        "def f():\n    return perf_counter(), datetime.now()\n"
    ),
    "global-random": "import random\ndef f():\n    return random.randint(1, 6)\n",
    "unseeded-instance": "import random\nrng = random.Random()\n",
    "numpy-global": "import numpy as np\ndef f():\n    return np.random.random()\n",
    "entropy": (
        "import uuid, os, secrets\ndef f():\n"
        "    return uuid.uuid4(), os.urandom(8), secrets.token_hex(4)\n"
    ),
    "set-iteration": (
        "def f(items):\n    for item in set(items):\n        pass\n"
        "    return [x for x in {1, 2, 3}]\n"
    ),
    "set-comprehension": "materialized = list(x for x in {1, 2, 3})\n",
    "id": "def f(obj):\n    return {id(obj): obj}\n",
    "hash": "def f(name):\n    return hash(name)\n",
}


@pytest.mark.parametrize(
    "source", NO_SINK_SOURCES.values(), ids=NO_SINK_SOURCES.keys()
)
def test_source_that_reaches_no_sink_is_not_a_finding(source):
    # Host-side timing, report metadata and the like never touch the
    # kernel schedule, so the source alone is deliberately clean.
    assert findings_for(source) == []


# -- swallowed interrupts (SL103) ------------------------------------------


def test_broad_except_around_yield_flagged():
    assert "SL103" in rule_ids(
        """
        def proc(env):
            try:
                yield env.timeout(1)
            except Exception:
                pass
        """
    )


def test_bare_except_flagged_too():
    assert "SL103" in rule_ids(
        """
        def proc(env):
            try:
                yield env.timeout(1)
            except:
                pass
        """
    )


def test_explicit_interrupt_handler_passes():
    assert not findings_for(
        """
        from repro.sim import Interrupt
        def proc(env):
            try:
                yield env.timeout(1)
            except Interrupt:
                raise
            except Exception:
                pass
        """
    )


def test_reraising_broad_handler_passes():
    assert not findings_for(
        """
        def proc(env):
            try:
                yield env.timeout(1)
            except Exception:
                cleanup = True
                raise
        """
    )


def test_broad_except_without_yield_not_flagged():
    assert not findings_for(
        """
        def proc(env):
            try:
                value = compute()
            except Exception:
                value = None
            yield env.timeout(1)
        """
    )


# -- SL009 orphan-event ----------------------------------------------------


def test_orphan_event_flagged():
    assert "SL009" in rule_ids(
        """
        def proc(env):
            ev = env.event()
            yield ev
        """
    )


def test_escaping_event_not_flagged():
    assert not findings_for(
        """
        def proc(env, registry):
            ev = env.event()
            registry.append(ev)
            yield ev
        """
    )


# -- SL010 dropped-event ---------------------------------------------------


def test_discarded_timeout_flagged():
    assert "SL010" in rule_ids(
        """
        def proc(env):
            env.timeout(5)
            yield env.timeout(1)
        """
    )


def test_yielded_timeout_not_flagged():
    assert not findings_for(
        """
        def proc(env):
            yield env.timeout(5)
        """
    )


# -- leaked requests (SL101) ----------------------------------------------


def test_raw_request_flagged():
    assert "SL101" in rule_ids(
        """
        def proc(env, res):
            req = res.request()
            yield req
            yield env.timeout(1)
        """
    )


def test_with_request_passes():
    assert not findings_for(
        """
        def proc(env, res):
            with res.request() as req:
                yield req
        """
    )


def test_released_request_passes():
    assert not findings_for(
        """
        def proc(env, res):
            req = res.request()
            yield req
            res.release(req)
        """
    )


# -- suppressions ----------------------------------------------------------


def test_suppression_with_reason_suppresses():
    src = textwrap.dedent(
        """
        import time
        def f():
            time.sleep(0.1)  # simlint: disable=real-sleep(host bench pacing)
        """
    )
    findings = simlint.lint_source(src, "fixture.py")
    assert len(findings) == 1
    assert findings[0].suppressed
    assert findings[0].justification == "host bench pacing"


def test_suppression_by_rule_id():
    src = """
        import time
        def f():
            time.sleep(0.1)  # simlint: disable=SL002(host bench pacing)
        """
    assert not findings_for(src)


def test_suppression_without_reason_is_a_finding():
    src = """
        import time
        def f():
            time.sleep(0.1)  # simlint: disable=real-sleep()
        """
    assert rule_ids(src) == {"SL000", "SL002"}


def test_suppression_of_unknown_rule_is_a_finding():
    # Retired rule ids and names are unknown too, so a stale
    # suppression can never linger silently.
    for token in ("made-up-rule", "SL001", "wall-clock"):
        src = f"""
            def f():
                return 1  # simlint: disable={token}(because)
            """
        assert rule_ids(src) == {"SL000"}, token


def test_suppression_inside_string_literal_ignored():
    assert not findings_for(
        '''
        HELP = "suppress with `# simlint: disable=RULE(reason)`"
        '''
    )


def test_suppression_on_other_line_does_not_leak():
    src = """
        import time
        # simlint: disable=real-sleep(wrong line)
        def f():
            time.sleep(0.1)
        """
    assert "SL002" in rule_ids(src)


# -- report / CLI ----------------------------------------------------------


def test_syntax_error_reported_not_raised():
    findings = simlint.lint_source("def broken(:\n", "oops.py")
    assert [f.rule.id for f in findings] == ["SL000"]


def test_report_json_roundtrip(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\ntime.sleep(1)\n")
    report = simlint.lint_paths([str(tmp_path)])
    assert report.files_scanned == 1
    payload = json.loads(report.format_json())
    assert payload["findings"][0]["rule"] == "SL002"
    assert "real-sleep" in report.format_text()


def test_cli_lint_exit_codes(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.py"
    bad.write_text("import time\ntime.sleep(1)\n")
    assert main(["lint", str(bad)]) == 1
    bad.write_text(
        "import time\n"
        "time.sleep(1)  # simlint: disable=real-sleep(fixture)\n"
    )
    assert main(["lint", str(bad)]) == 0
    capsys.readouterr()
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 8
    assert "swallowed-interrupt" in out


def test_cli_lint_missing_path_is_a_usage_error(tmp_path, capsys):
    from repro.cli import main

    (tmp_path / "ok.py").write_text("x = 1\n")
    missing = tmp_path / "no_such_dir"
    assert main(["lint", str(tmp_path), str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_every_rule_has_id_name_and_rationale():
    assert len(simlint.RULES) == 8  # SL000/002/009/010 + flow family SL100..SL103
    for rule in simlint.RULES.values():
        assert rule.id.startswith("SL")
        assert rule.name and rule.summary and rule.rationale


def test_repository_lints_clean():
    """The acceptance gate: zero unsuppressed findings over src, tests,
    benchmarks and examples, and every suppression that does exist
    carries a justification."""
    paths = [str(REPO_ROOT / name) for name in ("src", "tests", "benchmarks", "examples")]
    report = simlint.lint_paths(paths)
    assert report.files_scanned > 200
    unsuppressed = report.unsuppressed
    assert unsuppressed == [], "\n".join(f.format() for f in unsuppressed)
    for finding in report.suppressed:
        assert finding.justification
