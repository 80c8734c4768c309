"""The benchmark wraps library attributes by name and calls primitives by
signature; a rename or a signature change breaks it."""

import math
from pathlib import Path

import selfdistill
from selfdistill.data import SyntheticSpec
from selfdistill.distill import DistillConfig, TrainConfig
from selfdistill.encoder import ModelConfig
from selfdistill.harness import DatasetConfig, ExperimentConfig

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


def test_traced_sda_run_fires_every_wrapped_span(monkeypatch):
    """A refactor that stops calling a wrapped name through its module
    attribute would leave that span at zero calls under ``--trace 1``."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from bench_trace import LayerTracer

    config = ExperimentConfig(
        model=ModelConfig(vocab_size=60, max_len=8, dim=8, n_layers=1,
                          n_heads=2, ffn_dim=16, n_classes=2, dropout_p=0.0),
        distill=DistillConfig(mode="sda", teacher_size=2),
        train=TrainConfig(epochs=1, micro_batch=8, accum_steps=2),
        dataset=DatasetConfig(synthetic=SyntheticSpec(
            n_classes=2, vocab_span=40, tokens_per_example=5, n_train=48,
            n_test=16), dataset_seed=0),
        seed=0)
    tracer = LayerTracer()
    try:
        tracer.install_layers(selfdistill)
        result = selfdistill.harness.run_experiment(config)
    finally:
        stuck = tracer.restore()
    assert stuck == []
    totals = tracer.totals()
    for span in ("ensemble.window_mean", "optim.adamw_step", "optim.accumulate",
                 "ensemble.ring_push", "encoder.params_copy"):
        assert totals.get(span, {"calls": 0})["calls"] >= 1, span
    assert tracer.counters == [result.report.counters]
