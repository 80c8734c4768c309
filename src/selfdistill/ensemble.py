"""Parameter- and prediction-combination machinery.

Covers the three ways this package combines models: probability voting over
independently trained models, elementwise parameter averaging, and the two
streaming teacher states used during self-distillation (a sliding window of
recent snapshots and a cumulative running mean over every snapshot).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .encoder import ModelConfig, ParameterSet, predict_proba
from .errors import UsageError


def average_parameters(sets: list[ParameterSet]) -> ParameterSet:
    """Elementwise arithmetic mean of the flat vectors, in list order."""
    if not sets:
        raise UsageError("average_parameters: empty list")
    first = sets[0]
    for other in sets[1:]:
        first.require_compatible(other)
    # the rows added in list order, then divided once: np.mean over axis 0
    # of the stacked rows bit for bit, without the stacked copy; the mean of
    # one, two or four identical vectors is exact
    total = first.flat.copy()
    for other in sets[1:]:
        total += other.flat
    total /= len(sets)
    return first.with_flat(total)


def voted_predict(members: list[ParameterSet], batch, config: ModelConfig):
    """Sum each model's class probabilities; predict the argmax of the sum.

    Returns (summed probabilities [B, C], predicted labels [B]). Ties break
    toward the lowest class index.
    """
    if not members:
        raise UsageError("voted_predict: empty member list")
    for other in members[1:]:
        members[0].require_compatible(other)
    stacked = np.stack(
        [predict_proba(member, batch, config) for member in members], axis=0
    )
    total = stacked.sum(axis=0)
    labels = np.argmax(total, axis=1)
    return total, labels


class CheckpointRing:
    """FIFO buffer of the last K parameter snapshots.

    Eviction is strictly oldest-first; the insertion counter keeps counting
    across evictions.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise UsageError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buf: deque[ParameterSet] = deque()
        self.insertions = 0

    def __len__(self) -> int:
        return len(self._buf)

    def snapshots(self) -> list[ParameterSet]:
        return list(self._buf)


def ring_push(ring: CheckpointRing, snapshot: ParameterSet) -> CheckpointRing:
    """Append a snapshot, evicting the oldest entry once over capacity."""
    if ring._buf:
        ring._buf[0].require_compatible(snapshot)
    ring._buf.append(snapshot)
    ring.insertions += 1
    if len(ring._buf) > ring.capacity:
        ring._buf.popleft()
    return ring


def window_mean(ring: CheckpointRing) -> ParameterSet:
    """Mean over the currently held snapshots (fewer than K during warm-in)."""
    if not ring._buf:
        raise UsageError("window_mean: empty ring")
    return average_parameters(list(ring._buf))


@dataclass
class RunningMean:
    """Cumulative mean of every absorbed snapshot, updated in O(size)."""

    mean: ParameterSet | None = None
    count: int = 0


def running_mean_update(rm: RunningMean, snapshot: ParameterSet) -> RunningMean:
    """mean += (snapshot - mean) / (count + 1); count += 1."""
    if rm.mean is None:
        rm.mean = snapshot.copy()
        rm.count = 1
        return rm
    rm.mean.require_compatible(snapshot)
    new_count = rm.count + 1
    m = rm.mean.flat
    m += (snapshot.flat - m) / new_count
    rm.count = new_count
    return rm

