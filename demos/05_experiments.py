#!/usr/bin/env python3
"""The experiment harness: sweeps, ensembles, and the stability study.

Small grids so the whole script stays around two minutes; the CLI runs the
same machinery at full size (see README).

Run:  python demos/05_experiments.py
"""

from selfdistill.data import SyntheticSpec
from selfdistill.distill import DistillConfig, TrainConfig
from selfdistill.encoder import ModelConfig
from selfdistill.harness import (
    DatasetConfig,
    ExperimentConfig,
    ensemble_experiment,
    stability_study,
    sweep,
)

config = ExperimentConfig(
    model=ModelConfig(vocab_size=300, max_len=14, dim=32, n_layers=2,
                      n_heads=2, ffn_dim=64, n_classes=4, dropout_p=0.0),
    distill=DistillConfig(mode="sda", lam=1.0, teacher_size=5),
    train=TrainConfig(epochs=2, micro_batch=8, accum_steps=2),
    dataset=DatasetConfig(
        source="synthetic",
        synthetic=SyntheticSpec(n_classes=4, vocab_span=150,
                                tokens_per_example=10, signal=0.5,
                                label_noise=0.10, test_label_noise=0.0,
                                n_train=600, n_test=300),
        dataset_seed=42,
    ),
)

print("lambda sweep (distillation weight, 1 seed each):")
table = sweep(config, "lambda", [0.0, 0.5, 1.0, 2.0], seeds=[0])
for value in table.grid:
    cell = table.cells[str(value)]
    print(f"  lambda={value}: test error {cell['mean_test_error']:.3f}")

print("\nteacher-size sweep (K, 1 seed each):")
table = sweep(config, "k", [1, 3, 5, "all"], seeds=[0])
for value in table.grid:
    cell = table.cells[str(value)]
    print(f"  K={value}: test error {cell['mean_test_error']:.3f}")

print("\nvoted vs averaged ensemble over 3 seeds:")
report = ensemble_experiment(config, seeds=[0, 1, 2])
for i, metrics in enumerate(report.individual):
    print(f"  member {i}: test error {metrics['test_error']:.3f}")
print(f"  voted   : test error {report.voted['test_error']:.3f}")
print(f"  averaged: test error {report.averaged['test_error']:.3f}")

print("\ndata-order stability (fixed init, 4 data orders):")
print("(with dropout off, the K=1 teacher coincides with the in-hand")
print(" parameters, so sda_k1 reduces to the plain run exactly)")
for result in stability_study(config, [0, 1, 2, 3], fixed_init_seed=0):
    s = result.summary
    print(f"  {result.strategy:<9}: mean {s['mean']:.3f}  std {s['std']:.4f}  "
          f"range [{s['min']:.3f}, {s['max']:.3f}]")
