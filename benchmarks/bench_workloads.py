"""The benchmark's workloads, their inputs and their output checks.

Every workload uses the acceptance suite's stability configuration: 2000
train and 1000 test synthetic examples, a dim-32 two-layer encoder without
dropout, micro-batch 8 with 2-step accumulation. One workload seed fixes
the dataset (``1234 + seed``), the initialization (``seed``) and the data
order (``seed``; the stability study uses ``seed`` and ``seed + 1``).
Seed 0 reproduces the acceptance suite's own run.

``sys.path`` must already hold the library's ``src`` directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import selfdistill
from selfdistill import harness
from selfdistill.distill import DistillConfig, TrainConfig
from selfdistill.encoder import ModelConfig

SPEC = selfdistill.SyntheticSpec(n_classes=4, vocab_span=200,
                                 tokens_per_example=10, signal=0.4,
                                 label_noise=0.10, test_label_noise=0.0,
                                 n_train=2000, n_test=1000)
MODEL = ModelConfig(vocab_size=400, max_len=14, dim=32, n_layers=2, n_heads=2,
                    ffn_dim=64, n_classes=4, dropout_p=0.0)
FINE_TUNE_EPOCHS = 4     # 1000 micro-batches, 500 optimizer steps
STUDY_EPOCHS = 1         # 8 cells of 250 micro-batches each


def seeds(seed: int) -> dict:
    return {"dataset_seed": 1234 + seed, "init_seed": seed,
            "data_seeds": [seed, seed + 1]}


def experiment(seed: int, epochs: int) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        model=MODEL,
        train=TrainConfig(epochs=epochs, micro_batch=8, accum_steps=2),
        dataset=harness.DatasetConfig(synthetic=SPEC,
                                      dataset_seed=seeds(seed)["dataset_seed"]),
        seed=seed, data_seed=seed)


def build_task(seed: int):
    return harness.build_task(experiment(seed, FINE_TUNE_EPOCHS))


def expected_counters(distill: DistillConfig, train: TrainConfig,
                      n_train: int) -> dict:
    """Forward counts a run must report, derived from the protocol alone.

    The teacher ring starts with the initial parameters and gains one
    snapshot per optimizer step (every ``accum_steps`` micro-batches and at
    each epoch's end) up to K; sdv runs one teacher forward per held
    snapshot, sda one per micro-batch.
    """
    micro_per_epoch = math.ceil(n_train / train.micro_batch)
    held, teacher = 1, 0
    for _ in range(train.epochs):
        for i in range(micro_per_epoch):
            if distill.mode == "sda":
                teacher += 1
            elif distill.mode == "sdv":
                teacher += held
            if (i + 1) % train.accum_steps == 0 or i == micro_per_epoch - 1:
                held = min(held + 1, distill.teacher_size)
    return {"student_forwards": micro_per_epoch * train.epochs,
            "teacher_forwards": teacher}


def check_accuracy(acc: float, where: str) -> list[str]:
    chance = 1.0 / SPEC.n_classes
    if not (math.isfinite(acc) and acc > chance):
        return [f"{where}: test accuracy {acc!r} is not above chance {chance}"]
    return []


@dataclass
class Outcome:
    accuracy: float
    problems: list[str] = field(default_factory=list)


class FineTune:
    """One ``fine_tune`` call per unit."""

    def __init__(self, name: str, distill: DistillConfig, seed: int):
        self.name = name
        self.distill = distill
        self.config = experiment(seed, FINE_TUNE_EPOCHS)
        self.examples = SPEC.n_train * FINE_TUNE_EPOCHS
        self.task = None

    def prepare(self) -> None:
        self.task = harness.build_task(self.config)

    def expected(self) -> list[dict]:
        return [expected_counters(self.distill, self.config.train, SPEC.n_train)]

    def unit(self) -> Outcome:
        c = self.config
        # looked up on the module at call time, so a tracer can wrap it
        result = harness.fine_tune(c.model, self.distill, c.train, self.task,
                                   seed=c.seed, data_seed=c.data_seed)
        acc = result.report.final_student["test_accuracy"]
        problems = check_accuracy(acc, self.name)
        if result.report.counters != self.expected()[0]:
            problems.append(f"{self.name}: counters {result.report.counters} "
                            f"!= expected {self.expected()[0]}")
        return Outcome(acc, problems)


class Stability:
    """One ``stability_study`` over the four strategies per unit."""

    name = "stability"

    def __init__(self, seed: int):
        self.config = experiment(seed, STUDY_EPOCHS)
        self.data_seeds = seeds(seed)["data_seeds"]
        self.init_seed = seeds(seed)["init_seed"]
        self.strategies = harness.stability_strategies(lam=1.0)
        self.cells = len(self.strategies) * len(self.data_seeds)
        self.examples = SPEC.n_train * STUDY_EPOCHS * self.cells

    def prepare(self) -> None:
        """The study builds its own task inside the timed call."""

    def expected(self) -> list[dict]:
        return [expected_counters(d, self.config.train, SPEC.n_train)
                for _, d in self.strategies for _ in self.data_seeds]

    def unit(self) -> Outcome:
        results = harness.stability_study(self.config, self.data_seeds,
                                          self.init_seed, self.strategies)
        by_name = {r.strategy: r.accuracies for r in results}
        cells = [a for r in results for a in r.accuracies]
        mean = sum(cells) / len(cells) if cells else float("nan")
        problems = check_accuracy(mean, "stability mean")
        if len(cells) != self.cells:
            problems.append(f"stability: {len(cells)} cells, expected {self.cells}")
        if by_name.get("sda_k1") != by_name.get("baseline"):
            problems.append("stability: sda_k1 accuracies "
                            f"{by_name.get('sda_k1')} differ from baseline "
                            f"{by_name.get('baseline')} (K=1 equivalence)")
        return Outcome(mean, problems)


def make(name: str, seed: int):
    if name == "baseline":
        return FineTune(name, DistillConfig(mode="baseline"), seed)
    if name == "sda_k5":
        return FineTune(name, DistillConfig(mode="sda", lam=1.0, teacher_size=5),
                        seed)
    if name == "sdv_k5":
        return FineTune(name, DistillConfig(mode="sdv", lam=1.0, teacher_size=5),
                        seed)
    if name == "stability":
        return Stability(seed)
    raise KeyError(name)
