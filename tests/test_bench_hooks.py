"""The traced benchmark's span wrappers reach every function it names.

``bench/run.py --trace 1`` wraps each (module, attribute) of
``Counters.targets()`` and checks that the ``from``-imported names of
``IMPORTED_BINDINGS`` were rebound too. A renamed function or a dropped
import would otherwise show only in a traced benchmark run.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import spans

    return run, spans


def test_traced_benchmark_hooks_bind_every_target_and_restore(bench):
    run, spans = bench
    targets = run.Counters().targets()
    originals = {name: getattr(module, attr) for module, attr, name, _ in targets}
    bound, restore = spans.install(spans.Recorder(), targets)
    try:
        unbound = sorted(name for name, names in bound.items() if not names)
        reached = {b for names in bound.values() for b in names}
    finally:
        restore()
    assert unbound == []
    assert sorted(set(run.IMPORTED_BINDINGS) - reached) == []
    for name, names in bound.items():
        for binding in names:
            module, attr = binding.rsplit(".", 1)
            assert getattr(sys.modules[module], attr) is originals[name], binding
