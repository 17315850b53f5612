"""The benchmark's span tracer must still find every function it names.

``perfbench/tracing.py`` looks up each name in its ``TRACED`` table with
``getattr`` when ``--trace 1`` installs it, so deleting or renaming a traced
qglab function breaks traced benchmark runs.  This test loads the tracer by
path, installs it and uninstalls it, and checks that every patched function is
put back.
"""

import importlib.util
from pathlib import Path

from qglab import suites, tensorlin  # importing qglab loads every module the tracer patches

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("qglab_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_traced_name():
    tracing = _load_tracing()
    apply_leg, suite_funcs = tensorlin.apply_leg, dict(suites.SUITE_FUNCS)
    with tracing.Tracer().installed():
        assert tensorlin.apply_leg is not apply_leg
    assert tensorlin.apply_leg is apply_leg
    assert suites.SUITE_FUNCS == suite_funcs
