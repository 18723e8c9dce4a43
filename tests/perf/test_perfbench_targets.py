"""The benchmark's boundary tracer still finds every entry point it wraps.

``perfbench/tracing.py`` wraps simulator functions by name.  A rename
under ``src/`` that drops one of them would only surface when the
benchmark runs with ``--trace 1``; this test makes it fail the suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Import everything install() may import, so the snapshot below
    # covers every module and class it can patch.
    for _, name, _, _ in module.TARGETS:
        importlib.import_module(name)
    module._task_model_targets()
    module._detector_targets()
    return module


def _repro_namespaces():
    """(owner, attribute dict) for every repro module and class."""
    spaces = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        spaces.append((module, dict(vars(module))))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                spaces.append((value, dict(value.__dict__)))
    return spaces


def _target_slots(tracing):
    """(owner, attribute) of every named TARGET; missing ones listed."""
    slots, missing = [], []
    for _, module_name, paths, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        for path in paths:
            if "." in path:
                cls_name, attr = path.split(".", 1)
                cls = getattr(module, cls_name, None)
                if cls is None or attr not in cls.__dict__:
                    missing.append(f"{module_name}.{path}")
                else:
                    slots.append((cls, attr))
            elif not callable(getattr(module, path, None)):
                missing.append(f"{module_name}.{path}")
            else:
                slots.append((module, path))
    return slots, missing


def test_every_target_resolves(tracing):
    slots, missing = _target_slots(tracing)
    assert missing == []
    assert slots


def test_install_wraps_every_target_and_undo_restores_all(tracing):
    from repro.sim.core import Environment

    slots, _ = _target_slots(tracing)
    before = _repro_namespaces()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in slots]
    raw_run = Environment.__dict__["run"]
    undo = tracing.install(tracing.Tracer())
    try:
        unwrapped = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, raw in originals
            if vars(owner)[attr] is raw
        ]
        assert unwrapped == []
        assert Environment.__dict__["run"] is not raw_run
    finally:
        undo()
    changed = [
        f"{getattr(owner, '__name__', owner)}.{key}"
        for owner, attrs in before
        for key, value in attrs.items()
        if vars(owner).get(key) is not value
    ]
    assert changed == []
