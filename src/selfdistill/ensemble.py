"""Parameter- and prediction-combination machinery.

Covers the three ways this package combines models: probability voting over
independently trained models, elementwise parameter averaging, and the two
streaming teacher states used during self-distillation (a sliding window of
recent snapshots and a cumulative running mean over every snapshot). Each
teacher state keeps its vectors in fixed rows and writes only the entries
``[lo, hi)`` of them, so that two processes sharing the rows can each
update one half.
"""

from __future__ import annotations

import numpy as np

from .encoder import ModelConfig, ParameterSet, predict_proba
from .errors import UsageError


def _mean_into(out: np.ndarray, rows: list) -> np.ndarray:
    """Write the mean of ``rows`` to ``out``: the rows added in list order,
    then divided once. This is np.mean over axis 0 of the stacked rows bit
    for bit, without the stacked copy; the mean of one, two or four
    identical vectors is exact."""
    out[...] = rows[0]
    for row in rows[1:]:
        out += row
    out /= len(rows)
    return out


def average_parameters(sets: list[ParameterSet]) -> ParameterSet:
    """Elementwise arithmetic mean of the flat vectors, in list order."""
    if not sets:
        raise UsageError("average_parameters: empty list")
    first = sets[0]
    for other in sets[1:]:
        first.require_compatible(other)
    return first.with_flat(_mean_into(np.empty_like(first.flat),
                                      [s.flat for s in sets]))


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

    The snapshots live in K fixed slots, the rows of one array that the
    first push allocates; with ``with_mean`` (the sda teacher) a last row
    holds their window mean. Each slot is one ParameterSet for the ring's
    life, so its named views are built once. Snapshot ``i`` (counting from
    0) lives in slot ``i % K``, so the insertion count alone says which
    slots are held and which is oldest; it keeps counting across
    evictions. ``lo`` and ``hi`` bound the entries of each row that this
    process writes: all of them, unless a step worker writes the upper
    half of the same rows.
    """

    def __init__(self, capacity: int, with_mean: bool = True):
        if capacity < 1:
            raise UsageError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.with_mean = with_mean
        self.insertions = 0
        self.rows: np.ndarray | None = None
        self.lo, self.hi = 0, None
        self.mean: ParameterSet | None = None   # the window mean's row
        self._slots: list[ParameterSet] = []

    def __len__(self) -> int:
        return min(self.insertions, self.capacity)

    def snapshots(self) -> list[ParameterSet]:
        """The held snapshots, oldest first."""
        n = self.insertions
        return [self._slots[i % self.capacity] for i in range(n - len(self), n)]

    def runs(self, skip_newest: bool = False) -> list[np.ndarray]:
        """The held slots' rows as at most two contiguous runs of
        ``rows[:K]`` (views, never the mean row), oldest first; without
        the newest slot if ``skip_newest``."""
        k = self.capacity
        start = (self.insertions - len(self)) % k
        stop = start + len(self) - skip_newest
        if stop <= k:
            return [self.rows[start:stop]] if stop > start else []
        return [self.rows[start:k], self.rows[:stop - k]]

    def move_to(self, rows: np.ndarray, lo: int = 0,
                hi: int | None = None) -> None:
        """Keep the ring in ``rows`` from now on, its vectors copied there,
        and write the entries ``[lo, hi)`` of them."""
        rows[...] = self.rows
        self.lo, self.hi = lo, hi
        self._bind(rows, self._slots[0])

    def _bind(self, rows: np.ndarray, like: ParameterSet) -> None:
        self.rows = rows
        self._slots = [like.with_flat(row) for row in rows[:self.capacity]]
        self.mean = like.with_flat(rows[-1]) if self.with_mean else None


def ring_push(ring: CheckpointRing, snapshot: ParameterSet) -> CheckpointRing:
    """Copy the entries ``[ring.lo, ring.hi)`` of a snapshot into slot
    ``insertions % K``, which holds the oldest snapshot once K are held."""
    if ring.rows is None:
        rows = ring.capacity + (1 if ring.with_mean else 0)
        ring._bind(np.zeros((rows, snapshot.flat.size)), snapshot)
    slot = ring._slots[ring.insertions % ring.capacity]
    slot.require_compatible(snapshot)
    slot.flat[ring.lo:ring.hi] = snapshot.flat[ring.lo:ring.hi]
    ring.insertions += 1
    return ring


def window_mean(ring: CheckpointRing) -> ParameterSet:
    """Mean over the held snapshots (fewer than K during warm-in), added
    oldest first and written to the entries ``[ring.lo, ring.hi)`` of the
    ring's mean row with ``average_parameters``' operations in the same
    order; returns that row's ParameterSet."""
    if not len(ring):
        raise UsageError("window_mean: empty ring")
    if ring.mean is None:
        raise UsageError("window_mean: the ring keeps no mean row")
    lo, hi = ring.lo, ring.hi
    _mean_into(ring.mean.flat[lo:hi],
               [slot.flat[lo:hi] for slot in ring.snapshots()])
    return ring.mean


class RunningMean:
    """Cumulative mean of every absorbed snapshot, updated in O(size) in
    one row that the first snapshot allocates; ``lo`` and ``hi`` bound the
    entries this process writes, as in ``CheckpointRing``."""

    def __init__(self):
        self.mean: ParameterSet | None = None
        self.count = 0
        self.rows: np.ndarray | None = None
        self.lo, self.hi = 0, None

    def move_to(self, rows: np.ndarray, lo: int = 0,
                hi: int | None = None) -> None:
        """Keep the mean in ``rows`` from now on, its vector copied there,
        and write the entries ``[lo, hi)`` of it."""
        rows[...] = self.rows
        self.lo, self.hi = lo, hi
        self.rows = rows
        self.mean = self.mean.with_flat(rows[0])


def running_mean_update(rm: RunningMean, snapshot: ParameterSet) -> RunningMean:
    """mean += (snapshot - mean) / (count + 1); count += 1, on the entries
    ``[rm.lo, rm.hi)``; the first snapshot is copied."""
    if rm.mean is None:
        rm.rows = np.zeros((1, snapshot.flat.size))
        rm.mean = snapshot.with_flat(rm.rows[0])
    rm.mean.require_compatible(snapshot)
    m = rm.mean.flat[rm.lo:rm.hi]
    part = snapshot.flat[rm.lo:rm.hi]
    if rm.count == 0:
        m[...] = part
    else:
        m += (part - m) / (rm.count + 1)
    rm.count += 1
    return rm
