"""AdamW with a linear warmup/decay schedule, two parameter groups, and
gradient accumulation, all over the flat parameter vector.

Decoupled weight decay is applied to weight matrices only; biases and
layer-norm parameters (names whose last component is ``b`` or ``g``) are
exempt. The learning-rate schedule is isolated in ``lr_at`` so the
post-warmup shape can be swapped without touching the update rule. Adam's
betas and eps are the constants below, the standard setting that the
paper's fine-tuning keeps; the rates, warmup and weight decay are the
run's ``TrainConfig``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Tensor
from .encoder import GROUP_ENCODER, GROUP_HEAD, ParameterSet
from .errors import ConfigError, ContractError

if TYPE_CHECKING:  # distill imports this module
    from .distill import TrainConfig

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def lr_at(step: int, total_steps: int, base_lr: float, warmup_prop: float) -> float:
    """Linear ramp 0 -> base_lr over warmup_prop*total_steps, then linear
    decay base_lr -> 0 at total_steps. Continuous and piecewise linear."""
    if not 0.0 < warmup_prop < 1.0:
        raise ConfigError(f"warmup_prop must be in (0, 1), got {warmup_prop}")
    if total_steps <= 0:
        raise ConfigError(f"total_steps must be positive, got {total_steps}")
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    if step > total_steps:
        warnings.warn(
            f"lr_at: step {step} beyond total_steps {total_steps}; clamping to 0",
            stacklevel=2,
        )
        return 0.0
    warmup_steps = warmup_prop * total_steps
    if step <= warmup_steps:
        return base_lr * step / warmup_steps
    return base_lr * (total_steps - step) / (total_steps - warmup_steps)


_NO_DECAY_SUFFIXES = {"b", "g", "bq", "bv", "bo", "b1", "b2"}


def decay_applies(name: str) -> bool:
    """Weight matrices decay; biases and layer-norm gains/offsets do not."""
    return name.rsplit(".", 1)[-1] not in _NO_DECAY_SUFFIXES


def _runs(params: ParameterSet, key) -> list[tuple[int, int, object]]:
    """(start, stop, key) over the maximal runs of adjacent slots sharing ``key``."""
    runs: list[tuple[int, int, object]] = []
    for slot in params.layout:
        k = key(slot)
        if runs and runs[-1][2] == k:
            runs[-1] = (runs[-1][0], slot.stop, k)
        else:
            runs.append((slot.offset, slot.stop, k))
    return runs


@dataclass
class OptimState:
    """Moments, step counter and settings for one training run.

    ``m`` and ``v`` are flat like ``ParameterSet.flat``. ``lr_runs`` holds
    the (start, stop, group) offset runs of each learning-rate group and
    ``decay_runs`` those of the weight-decayed tensors, both fixed by the
    layout. Learning rates, warmup and weight decay are read from the run's
    ``config``; the betas and eps are this module's constants.
    """

    m: np.ndarray
    v: np.ndarray
    lr_runs: tuple[tuple[int, int, str], ...]
    decay_runs: tuple[tuple[int, int, str], ...]
    t: int
    total_steps: int
    config: TrainConfig

    @classmethod
    def init(cls, params: ParameterSet, total_steps: int,
             config: TrainConfig) -> "OptimState":
        decayed = _runs(params,
                        lambda s: s.group if decay_applies(s.name) else None)
        return cls(
            m=np.zeros_like(params.flat),
            v=np.zeros_like(params.flat),
            lr_runs=tuple(_runs(params, lambda s: s.group)),
            decay_runs=tuple(run for run in decayed if run[2] is not None),
            t=0,
            total_steps=total_steps,
            config=config,
        )

    def base_lr(self, group: str) -> float:
        return (self.config.lr_head if group == GROUP_HEAD
                else self.config.lr_encoder)


def adamw_step(params: ParameterSet, grads: np.ndarray, state: OptimState,
               lo: int = 0, hi: int | None = None) -> float:
    """One decoupled-weight-decay Adam update of ``params.flat``, in place.

    ``grads`` is a flat gradient vector (see ``accumulate``). Group
    learning rate is ``lr_at`` of the post-increment step counter, so the
    first step trains at a nonzero (partially warmed) rate. Returns the
    encoder-group learning rate used, for metrics.

    Only the entries in ``[lo, hi)`` (the whole vector by default) of the
    parameters, ``m`` and ``v`` are updated, with each learning-rate and
    decay run clipped to that range. Every operation is elementwise, so
    two calls over ``[0, h)`` and ``[h, size)`` with the same step counter
    write the bytes of one whole-vector call; the step worker and the
    training process each take one such half.
    """
    if grads.shape != params.flat.shape:
        raise ContractError(f"gradient vector of shape {grads.shape} does not "
                            f"match parameters of shape {params.flat.shape}")
    hi = grads.size if hi is None else hi
    if not 0 <= lo <= hi <= grads.size:
        raise ContractError(f"update range [{lo}, {hi}) is not within "
                            f"[0, {grads.size})")
    state.t += 1
    t = state.t
    cfg = state.config
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    lr = {group: lr_at(t, state.total_steps, state.base_lr(group),
                       cfg.warmup_prop)
          for _, _, group in state.lr_runs}
    grads, m, v = grads[lo:hi], state.m[lo:hi], state.v[lo:hi]
    m *= BETA1
    m += (1.0 - BETA1) * grads
    v *= BETA2
    v += (1.0 - BETA2) * (grads * grads)
    update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
    for start, stop, group in _clipped(state.lr_runs, lo, hi):
        update[start:stop] *= lr[group]
    flat = params.flat[lo:hi]
    flat -= update
    if cfg.weight_decay > 0.0:
        for start, stop, group in _clipped(state.decay_runs, lo, hi):
            seg = flat[start:stop]
            seg -= lr[group] * cfg.weight_decay * seg
    return lr.get(GROUP_ENCODER, 0.0)


def _clipped(runs, lo: int, hi: int):
    """The non-empty parts of ``runs`` inside ``[lo, hi)``, relative to lo."""
    for start, stop, group in runs:
        start, stop = max(start, lo), min(stop, hi)
        if start < stop:
            yield start - lo, stop - lo, group


def accumulate(params: ParameterSet, grads: dict[Tensor, np.ndarray],
               into: np.ndarray) -> None:
    """Add one micro-batch's gradients to the flat vector ``into``, in place.

    ``grads`` maps each tensor of ``params`` to its gradient, as ``backward``
    returns them; they are concatenated in layout order, so ``into`` lines
    up with ``params.flat``. Every shape must match its parameter.
    """
    if into.shape != params.flat.shape:
        raise ContractError(f"gradient buffer of shape {into.shape} does not "
                            f"match parameters of shape {params.flat.shape}")
    parts = []
    for slot in params.layout:
        g = grads.get(params[slot.name])
        shape = None if g is None else g.shape
        if shape != slot.shape:
            raise ContractError(f"gradient of {slot.name} has shape {shape}, "
                                f"the parameter {slot.shape}")
        parts.append(g.ravel())
    into += np.concatenate(parts)
