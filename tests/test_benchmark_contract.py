"""The benchmark wraps library attributes by name and calls primitives by
signature; a rename or a signature change breaks it."""

import math
from pathlib import Path

import selfdistill

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_layer_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from bench_trace import LayerTracer

    tracer = LayerTracer()
    try:
        tracer.install_layers(selfdistill)
        assert len(tracer._patches) > 0
    finally:
        stuck = tracer.restore()
    assert stuck == []


def test_primitive_micro_timings_run_on_the_current_autodiff(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from bench_micro import MICRO_METRICS, time_primitives

    timings = time_primitives(selfdistill.autodiff, 0, reps=2)
    assert set(MICRO_METRICS) <= set(timings)
    assert all(math.isfinite(timings[name]) for name in MICRO_METRICS)
