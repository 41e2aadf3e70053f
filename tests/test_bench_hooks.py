"""The benchmark's trace hooks (bench/spans.py) install on the package's
current bindings: a traced round of each workload, as ``bench/run.py
--trace 1`` runs one, fails no operation and calls every path that the
workload lists as active.  A binding renamed or removed in ``src/`` fails
here rather than in every traced benchmark round."""

import functools
from pathlib import Path

import pytest

import twotier

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    """bench/run.py, spans.py and workloads.py, imported as run.py imports
    its neighbours: from bench/ on the path."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run
    import spans
    import workloads

    return run, spans, workloads


def binding(path):
    """The object at an attribute path under the package, as the tracer
    resolves it."""
    return functools.reduce(getattr, path.split("."), twotier)


@pytest.mark.parametrize("name", ["design-eu28", "sweep-eu28", "certify-small"])
def test_traced_round_calls_every_active_path(bench, name, tmp_path):
    run, spans, workloads = bench
    workload = workloads.make(name, ROOT, 11, tmp_path)
    state = workload.setup(twotier)
    originals = [binding(path) for path, _ in spans.BOUNDARIES]
    tracer = spans.Tracer()
    rnd = run.Round(tracer)
    try:
        tracer.install(twotier)
        workload.run(twotier, state, rnd)
    finally:
        tracer.uninstall()
    assert [binding(path) for path, _ in spans.BOUNDARIES] == originals
    assert (rnd.failed, rnd.errors) == (0, [])
    stats = spans.RoundStats(tracer, 0, len(tracer.spans))
    assert [path for path in workload.active if stats.boundary_calls[path] == 0] == []
