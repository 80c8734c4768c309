"""The benchmark tracer wraps library attributes by name; a rename breaks it."""

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
