"""Report containers exchanged between training runs and the harness.

Serialized reports are canonical JSON (sorted keys, fixed separators) so a
rerun with identical configs and seeds reproduces byte-identical files.
Volatile fields (wall-clock) are deliberately excluded from serialization
and live only on the in-memory object.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError


@dataclass
class EpochPoint:
    epoch: int
    test_error: float
    test_accuracy: float
    mean_ce: float
    mean_mse: float
    lr: float


@dataclass
class StepPoint:
    step: int
    ce: float
    mse: float
    lr: float


@dataclass
class RunReport:
    """Everything one training run reports.

    ``wall_clock_s`` is in-memory only; ``counters`` (forward-pass counts)
    are deterministic and serialized.
    """

    config: dict
    seeds: dict
    epoch_curve: list[EpochPoint] = field(default_factory=list)
    step_curve: list[StepPoint] = field(default_factory=list)
    final_student: dict = field(default_factory=dict)
    final_teacher: dict | None = None
    counters: dict = field(default_factory=dict)
    wall_clock_s: float | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        del d["wall_clock_s"]
        return d


@dataclass
class SweepTable:
    """Grid sweep results: one cell per axis value, averaged over seeds."""

    axis: str                       # "lambda" | "k"
    grid: list                      # axis values in run order
    seeds: list[int]
    cells: dict = field(default_factory=dict)
    # cells[str(value)] = {"mean_test_error":…, "mean_test_accuracy":…,
    #                      "per_seed": {...}, "failed": {...}}


@dataclass
class StabilityResult:
    """Final accuracies over data-order seeds plus summary statistics."""

    strategy: str
    data_seeds: list[int]
    accuracies: list[float]
    summary: dict = field(default_factory=dict)

    @classmethod
    def from_accuracies(cls, strategy: str, data_seeds: list[int],
                        accuracies: list[float]) -> "StabilityResult":
        arr = np.asarray(accuracies, dtype=np.float64)
        q1, q2, q3 = np.percentile(arr, [25, 50, 75])
        summary = {
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=0)),
            "min": float(arr.min()),
            "max": float(arr.max()),
            "q1": float(q1),
            "median": float(q2),
            "q3": float(q3),
        }
        return cls(strategy=strategy, data_seeds=list(data_seeds),
                   accuracies=[float(a) for a in accuracies], summary=summary)


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def make_dir(path) -> Path:
    """``path`` as a directory, created with its parents if missing."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create directory {path}: {exc}") from exc
    return path


def save_json(payload: dict, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(payload))
    except OSError as exc:
        raise InputError(f"cannot write report to {path}: {exc}") from exc


def load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError covers a truncated or non-UTF-8 file
        raise InputError(f"cannot read report from {path}: {exc}") from exc
