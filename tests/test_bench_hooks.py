"""The traced benchmark's span wrappers reach every function it names.

``bench/run.py --trace 1`` wraps each (module, attribute) of
``Counters.targets()`` and checks that the ``from``-imported names of
``IMPORTED_BINDINGS`` were rebound too, and that each workload's
``required`` functions record a span. A renamed function, a dropped import
or a call path that no longer reaches a required function would otherwise
show only in a traced benchmark run.
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


def test_a_traced_score_pass_records_every_required_span(bench, tmp_path):
    """One traced pass of the ``score`` workload (a few seconds): every name in
    its ``required`` records a span, so streaming ``eval`` and ``project``
    still calls ``load_event_features``, ``predict_event`` and
    ``project_event``, and the pass's outputs pass the workload's checks."""
    run, spans = bench
    import workloads

    workload = workloads.WORKLOADS["score"]
    state = workload.setup(tmp_path, 7)
    ops = workloads.Ops()
    recorder = spans.Recorder()
    _, restore = spans.install(recorder, run.Counters().targets())
    try:
        facts = workload.run_pass(state, ops)
    finally:
        restore()
    workload.check(state, facts, ops)
    summary = recorder.summary()
    assert [name for name in workload.required if name not in summary] == []
    assert ops.failed == 0, ops.errors
