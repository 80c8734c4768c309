"""Self-distillation trainers and the plain fine-tuning loop they extend.

Three modes share one loop:

* ``baseline`` — cross-entropy only.
* ``sda`` — the teacher is the parameter average of recent student
  snapshots (a sliding window of size K, or a running mean over the whole
  trajectory when ``teacher_size="all"``); the loss adds
  ``lambda * MSE(student_logits, teacher_logits)``.
* ``sdv`` — the teacher signal is the mean of the logits produced by the K
  retained snapshots on the current batch.

The teacher is always evaluated without dropout and off the tape, so it is
a constant with respect to the student's gradients. Snapshot containers are
seeded with the initial parameters, which makes a teacher available from
the very first step (and makes the MSE term exactly zero there when
dropout is off).

Snapshot absorption happens right after each optimizer step (in
``_update``), so during the step that produces theta_t the window holds
theta_{t-1}..theta_{t-K}. The k=1 entry is the parameter vector currently
in hand: with dropout disabled, K=1 distillation reduces to the plain run
exactly, and with dropout enabled it acts as a consistency regularizer
against the clean-forward logits. The teacher state keeps its vectors in
fixed rows (the ring's K slots and the sda window mean, or the running
mean), rewritten in place by every absorb.

``train_step`` is one optimizer step over its micro-batches. With
accumulation over two or more micro-batches, ``fine_tune`` trains each step
on two CPUs where the process can use a second one. Every micro-batch of a
step reads the same parameters, so a forked worker process trains the later
half of the step's micro-batches while the training process trains the
earlier half. The end of the step is split too: adding the gradients in
micro-batch order, their mean, the AdamW update and the absorb of a
snapshot into the teacher state are elementwise over the flat vectors, so
the training process takes the entries ``[0, h)`` and the worker
``[h, size)``, with ``h = size // 2``. Every entry is computed with the
same operations in the same order as in one process, so results depend
neither on where a micro-batch ran nor on which process updated an
entry. The same worker scores the later half of each evaluation's batches
(the student's after every epoch, on dev under ``best_dev``, and the final
sda teacher's); correct counts are integers, so their sum is the
one-process count.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
import sys
import time
import weakref
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from itertools import islice

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import TaskData, iter_batches, permutation_with_seed, require_seed
from .encoder import (
    ModelConfig,
    ParameterSet,
    classify,
    init_params,
    predict_proba,
    save_params,
)
from .ensemble import (
    CheckpointRing,
    RunningMean,
    ring_push,
    running_mean_update,
    window_mean,
)
from .errors import (
    ConfigError,
    DivergenceError,
    InputError,
    SelfDistillError,
    UsageError,
    check_types,
)
from .optim import OptimState, accumulate, adamw_step
from .reporting import EpochPoint, RunReport, StepPoint, make_dir

TEACHER_ALL = "all"
EVAL_BATCH_SIZE = 64   # rows per evaluation batch


@dataclass(frozen=True)
class DistillConfig:
    """Strategy selector: mode, distillation weight, teacher size."""

    mode: str = "baseline"            # baseline | sda | sdv
    lam: float = 1.0
    teacher_size: int | str = 1       # K >= 1, or "all" (sda only)
    snapshot_every: int = 1

    def __post_init__(self):
        check_types(DistillConfig, vars(self), "DistillConfig field ")
        if self.mode not in ("baseline", "sda", "sdv"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ConfigError(f"distillation weight must be finite and >= 0, "
                              f"got {self.lam}")
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1")
        if isinstance(self.teacher_size, str):
            if self.teacher_size != TEACHER_ALL:
                raise ConfigError(f"teacher_size {self.teacher_size!r} not understood")
            if self.mode == "sdv":
                raise ConfigError('teacher_size="all" is only valid for sda')
        elif self.teacher_size < 1:
            raise ConfigError(f"teacher_size must be >= 1, got {self.teacher_size}")


@dataclass(frozen=True)
class TrainConfig:
    """Protocol knobs: epochs, batching, schedule, optimizer. Adam's betas
    and eps are ``optim``'s constants."""

    epochs: int = 4
    micro_batch: int = 8
    accum_steps: int = 2
    lr_encoder: float = 1e-3
    lr_head: float = 5e-2     # keeps the 50x head:encoder ratio
    warmup_prop: float = 0.1
    weight_decay: float = 0.01
    select_by: str = "final"    # final | best_dev

    def __post_init__(self):
        check_types(TrainConfig, vars(self), "TrainConfig field ")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.micro_batch < 1 or self.accum_steps < 1:
            raise ConfigError("micro_batch and accum_steps must be >= 1")
        if self.select_by not in ("final", "best_dev"):
            raise ConfigError(f"select_by {self.select_by!r} not understood")
        for name in ("lr_encoder", "lr_head", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 < self.warmup_prop < 1.0:
            raise ConfigError(f"warmup_prop must be in (0, 1), got {self.warmup_prop}")


@dataclass
class TrainState:
    """Mutable state of one run: student, optimizer, teacher, counters."""

    model_config: ModelConfig
    distill_config: DistillConfig
    train_config: TrainConfig
    params: ParameterSet
    opt: OptimState
    seed: int                          # keys each micro-batch's dropout
    micro_per_epoch: int               # an epoch's training micro-batches
    grad_sum: np.ndarray               # flat, lines up with params.flat
    ring: CheckpointRing | None = None
    rmean: RunningMean | None = None
    counters: dict = field(default_factory=lambda: {
        "student_forwards": 0, "teacher_forwards": 0,
    })
    task: TaskData | None = None       # the splits a step worker scores

    @property
    def teacher_state(self) -> CheckpointRing | RunningMean | None:
        """The ring of snapshots or the running mean; None in baseline."""
        return self.ring if self.rmean is None else self.rmean

    @property
    def teacher(self) -> ParameterSet | None:
        """The sda average, a row of the teacher state that ``absorb``
        rewrites; None in baseline and sdv mode."""
        held = self.teacher_state
        return None if held is None else held.mean


@dataclass
class TrainResult:
    student: ParameterSet
    teacher: ParameterSet | None
    report: RunReport


def make_train_state(model_config: ModelConfig, distill_config: DistillConfig,
                     train_config: TrainConfig, n_train: int, seed: int) -> TrainState:
    params = init_params(model_config, seed)
    micro_per_epoch = math.ceil(n_train / train_config.micro_batch) if n_train else 0
    steps_per_epoch = math.ceil(micro_per_epoch / train_config.accum_steps)
    total_steps = max(1, steps_per_epoch * train_config.epochs)
    opt = OptimState.init(params, total_steps, train_config)
    state = TrainState(
        model_config=model_config,
        distill_config=distill_config,
        train_config=train_config,
        params=params,
        opt=opt,
        seed=seed,
        micro_per_epoch=micro_per_epoch,
        grad_sum=np.zeros_like(params.flat),
    )
    if distill_config.mode == "baseline":
        return state
    if distill_config.teacher_size == TEACHER_ALL:   # sda only
        state.rmean = RunningMean()
    else:
        state.ring = CheckpointRing(int(distill_config.teacher_size),
                                    with_mean=distill_config.mode == "sda")
    absorb(state, params)
    return state


def absorb(state: TrainState, params: ParameterSet) -> None:
    """Snapshot ``params`` into the teacher state, on the entries of its
    rows that this process writes; in sda mode the teacher average is
    taken here, once per snapshot."""
    if state.rmean is not None:
        running_mean_update(state.rmean, params)
        return
    ring_push(state.ring, params)
    if state.ring.with_mean:
        window_mean(state.ring)


def sda_teacher(state: TrainState) -> ParameterSet:
    """Parameter-averaged teacher over past snapshots (current step excluded);
    shared and read-only."""
    if state.distill_config.mode != "sda":
        raise UsageError("sda_teacher is only defined in sda mode")
    return state.teacher


def newest_is_student(state: TrainState) -> bool:
    """With no dropout and an absorb after every optimizer step, the newest
    sdv snapshot's eval logits are the student's train-mode logits."""
    return (state.model_config.dropout_p == 0.0
            and state.distill_config.snapshot_every == 1)


def sdv_teacher_logits(state: TrainState, batch,
                       newest: np.ndarray | None = None) -> Tensor:
    """Mean of the retained snapshots' logits on this batch, added in ring
    order; a constant. ``newest``, the newest snapshot's logits, is computed
    if not given; ``teacher_forwards`` counts the logits averaged, not the
    forwards run."""
    if state.ring is None or len(state.ring) == 0:
        raise UsageError("sdv teacher ring is empty")
    snaps = state.ring.snapshots()
    if newest is None:
        newest = classify(snaps[-1], batch, state.model_config,
                          train_mode=False).data
    outs = [classify(snap, batch, state.model_config, train_mode=False).data
            for snap in snaps[:-1]]
    state.counters["teacher_forwards"] += len(snaps)
    return Tensor(np.mean(np.stack([*outs, newest]), axis=0))


class StepWorker:
    """A forked process that trains the later micro-batches of each
    optimizer step while the training process trains the earlier ones,
    updates and absorbs the upper half ``[half, size)`` of the flat vectors
    while the training process does the lower one, and scores the later
    batches of each evaluation.

    ``params.flat``, the run's ``grad_sum``, AdamW's ``m`` and ``v``, the
    rows of the teacher state (the ring's slots and sda window mean, or the
    running mean) and one gradient row per worker micro-batch of the
    largest step the run takes live in an anonymous shared mapping made
    before the fork; the pipes carry only batches, names, losses, counters
    and counts. A step is one exchange: the step request; the training
    process's "gradients in" message, which carries the step's micro-batch
    count; the worker's losses and counters; and its "upper half done",
    which also covers its half of a snapshot. Each process keeps the teacher state's bookkeeping (which
    slot is oldest, the counts) by the same calls, and the worker its own
    copy of the task; each micro-batch's dropout is keyed by its index,
    wherever it runs. It ignores SIGINT and exits when ``close`` shuts the
    request pipe, also while it waits at a step's barrier.
    """

    def __init__(self, state: TrainState):
        size = state.params.flat.size
        held = state.teacher_state
        teacher_rows = 0 if held is None else len(held.rows)
        largest = min(state.train_config.accum_steps, state.micro_per_epoch)
        rows = 4 + teacher_rows + largest // 2
        try:
            shared = np.frombuffer(mmap.mmap(-1, 8 * rows * size))
        except OSError as exc:   # e.g. out of memory; nothing started yet
            raise SelfDistillError(f"cannot map the step worker's memory: "
                                   f"{exc}; --accum-steps 1 runs without "
                                   f"one") from exc
        shared = shared.reshape(rows, -1)
        # kept allocated while the worker runs, and ``close`` copies back
        # into them: the training process's page faults depend on these
        # arrays staying allocated (25-29k minor faults per benchmark
        # ``baseline`` run with them, 87-95k when ``close`` made new ones)
        self._private = (state.grad_sum, state.opt.m, state.opt.v)
        for row, private in zip(shared[1:4], self._private):
            row[...] = private
        shared[0] = state.params.flat
        state.params = state.params.with_flat(shared[0])
        state.grad_sum, state.opt.m, state.opt.v = shared[1:4]
        self.half = size // 2     # the worker updates [half, size)
        if held is not None:
            held.move_to(shared[4:4 + teacher_rows], 0, self.half)
        self.grads = shared[4 + teacher_rows:]
        self._state = weakref.ref(state)   # names what ``score`` is given
        self.exitcode = None
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError as exc:   # e.g. a process limit: no stray pipe
            for fd in (down_r, down_w, up_r, up_w):
                os.close(fd)
            raise SelfDistillError(f"cannot start the step worker: {exc}; "
                                   f"--accum-steps 1 runs without one") from exc
        if self.pid == 0:   # the worker: never returns into the caller
            code = 1
            try:
                os.close(down_w)
                os.close(up_r)
                if held is not None:
                    held.lo, held.hi = self.half, None
                _step_worker_main(state, open(down_r, "rb"), open(up_w, "wb"),
                                  self.grads, self.half)
                code = 0
            finally:
                os._exit(code)
        os.close(down_r)
        os.close(up_w)
        self.requests, self.replies = open(down_w, "wb"), open(up_r, "rb")

    def request(self, *job) -> None:
        """Start the worker on ``job``: ("step", t, first, batches) trains
        the run's micro-batches from index ``first`` on in optimizer step
        ``t``; ("score", "student" or "teacher", split name, first) scores
        a split's batches from index ``first`` on."""
        self.send(job)

    def score(self, params: ParameterSet, split, batch_size: int,
              first: int) -> None:
        """Start the worker scoring ``split`` from batch ``first`` on with
        its side of ``params``: the run's student or its sda teacher, both
        shared."""
        state = self._state()
        splits = state.task.splits if state.task is not None else {}
        which = [role for role, held in (("student", state.params),
                                         ("teacher", state.teacher))
                 if held is params]
        name = [key for key, held in splits.items() if held is split]
        if not (which and name and batch_size == EVAL_BATCH_SIZE):
            raise UsageError("the step worker scores only the run's student "
                             "or sda teacher on a split of its task, at its "
                             "eval batch size")
        self.request("score", which[0], name[0], first)

    def send(self, message) -> None:
        """Write one message to the worker; a worker that has gone is a
        ``SelfDistillError`` naming its exit."""
        try:
            _send(self.requests, message)
        except BrokenPipeError:
            raise self._lost() from None

    def reply(self):
        """The worker's next answer: to a step, (ce, mse) per worker
        micro-batch and its counter increments, then None once its half of
        the update is done; to a score, a correct count. Re-raises an error
        the worker met with its type and message."""
        try:
            status, value = pickle.load(self.replies)
        except EOFError:
            raise self._lost() from None
        if status == "error":
            raise value
        return value

    def close(self, state: TrainState) -> None:
        """Stop the worker, then move the run's arrays back to private
        memory."""
        with suppress(BrokenPipeError):   # a request the worker never read
            self.requests.close()
        self.replies.close()
        self._wait()   # the mapping is this process's alone from here on
        state.params = state.params.with_flat(state.params.flat.copy())
        shared = (state.grad_sum, state.opt.m, state.opt.v)
        for private, row in zip(self._private, shared):
            private[...] = row
        state.grad_sum, state.opt.m, state.opt.v = self._private
        held = state.teacher_state
        if held is not None:
            held.move_to(np.empty_like(held.rows))
        self.grads = None   # the mapping's last holder in this process

    def _wait(self) -> None:
        if self.exitcode is None:
            self.exitcode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])

    def _lost(self) -> SelfDistillError:
        self._wait()
        return SelfDistillError(f"the step worker exited with code "
                                f"{self.exitcode}")


def _step_worker_main(state: TrainState, requests, replies, grads,
                      half: int) -> None:
    # the training process handles Ctrl-C; this one ends when the pipe closes
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    messages = _received(requests)
    with suppress(BrokenPipeError):   # ``close`` shut the replies: run over
        for job, *args in messages:
            reply = _attempt(_worker_job, state, grads, job, *args)
            _send(replies, reply)
            if job != "step":
                continue
            # the barrier: the training process's gradients are in, and it
            # sends the step's micro-batch count; read after an error too,
            # so that it is never taken for the next job
            n = next(messages, None)
            if n is not None and reply[0] == "ok":
                theirs = grads[:len(reply[1][0])]
                _send(replies, _attempt(_update, state, theirs, n, half))


def _received(pipe):
    """The messages on ``pipe`` until its writer closes it."""
    while True:
        try:
            yield pickle.load(pipe)
        except EOFError:
            return


def _send(pipe, message) -> None:
    pickle.dump(message, pipe)
    pipe.flush()


def _attempt(run, *args) -> tuple:
    """("ok", value) or ("error", exc), re-raised in the training process."""
    try:
        return "ok", run(*args)
    except Exception as exc:
        return "error", exc


def _worker_job(state: TrainState, grads, job: str, *args):
    """One request in the worker: a correct count, or (ce, mse) per
    micro-batch and the counter increments of a step."""
    if job == "score":
        which, split, first = args
        params = state.params if which == "student" else state.teacher
        return _count_correct(params, state.model_config,
                              state.task.splits[split], state.task.vocab,
                              EVAL_BATCH_SIZE, first)
    state.opt.t, first, batches = args
    state.counters = dict.fromkeys(state.counters, 0)
    rows = []
    for micro, (batch, grad) in enumerate(zip(batches, grads), first):
        grad.fill(0.0)
        rows.append(_micro_batch(state, batch, micro, grad))
    return rows, state.counters


def start_step_worker(state: TrainState) -> StepWorker | None:
    """The run's one choice of path: a step worker where a step has
    micro-batches to split (accumulation 2 or more, at least one epoch) and
    the process can use one (it can fork, is not a daemon, and may run on
    two CPUs or more); None, every micro-batch in process, otherwise. A
    second CPU kept busy by other processes cannot be seen from here."""
    train = state.train_config
    if train.epochs < 1 or train.accum_steps < 2 or not hasattr(os, "fork"):
        return None
    # multiprocessing lets none of its daemons, such as a Pool worker, start
    # a process; a process that has not imported it is none of them
    mp = sys.modules.get("multiprocessing")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if (mp is not None and mp.current_process().daemon) or cpus < 2:
        return None
    return StepWorker(state)


def sda_loss(student_logits: Tensor, teacher_logits: Tensor, labels,
             lam: float):
    """CE against gold labels plus lam * MSE against the frozen teacher.

    Returns (total, ce, mse) tensors; the components always satisfy
    total == ce + lam * mse.
    """
    if not (math.isfinite(lam) and lam >= 0.0):
        raise UsageError(f"distillation weight must be finite and >= 0, "
                         f"got {lam}")
    if student_logits.data.shape != teacher_logits.data.shape:
        raise UsageError(
            f"student/teacher logit shapes differ: "
            f"{student_logits.data.shape} vs {teacher_logits.data.shape}"
        )
    if teacher_logits.tape is not None and teacher_logits.tape._open:
        raise UsageError("teacher logits must be constant (not on an open tape)")
    ce = ad.cross_entropy(student_logits, labels)
    m = ad.mse(student_logits, teacher_logits)
    total = ad.add(ce, ad.mul(m, lam))
    return total, ce, m


def _micro_batch(state: TrainState, batch, micro: int,
                 into: np.ndarray) -> tuple[float, float]:
    """Forward, teacher signal, loss and backward of the run's micro-batch
    number ``micro``; adds its flat gradients to ``into`` and returns
    (ce, mse). Its dropout masks come from a generator keyed by
    (seed, 1, micro), so they depend neither on the process it runs in nor
    on the batches before it."""
    cfg = state.distill_config
    rng = (np.random.default_rng([state.seed, 1, micro])
           if state.model_config.dropout_p > 0.0 else None)
    tape = Tape()
    student_logits = classify(state.params, batch, state.model_config,
                              train_mode=True, tape=tape, rng=rng)
    state.counters["student_forwards"] += 1

    # the teacher comes second: the sdv teacher may reuse the student's logits
    teacher_logits = None
    if cfg.mode == "sda":
        teacher_logits = classify(sda_teacher(state), batch,
                                  state.model_config, train_mode=False)
        state.counters["teacher_forwards"] += 1
    elif cfg.mode == "sdv":
        newest = student_logits.data if newest_is_student(state) else None
        teacher_logits = sdv_teacher_logits(state, batch, newest)

    if cfg.mode == "baseline":
        total = ad.cross_entropy(student_logits, batch.labels)
        ce_val, mse_val = total.item(), 0.0
    else:
        total, ce, m = sda_loss(student_logits, teacher_logits, batch.labels,
                                cfg.lam)
        ce_val, mse_val = ce.item(), m.item()

    if not np.isfinite(total.item()):
        raise DivergenceError(
            f"non-finite loss at optimizer step {state.opt.t} "
            f"(ce={ce_val}, mse={mse_val})"
        )
    accumulate(state.params, ad.backward(total, tape), into)
    return ce_val, mse_val


def _update(state: TrainState, rows, n: int, lo: int = 0,
            hi: int | None = None) -> float:
    """The end of an optimizer step on the entries ``[lo, hi)`` (all by
    default) of the flat vectors: adds the gradient ``rows`` to
    ``grad_sum`` in micro-batch order, averages it over the step's ``n``
    micro-batches, takes AdamW and zeroes it. On a snapshot step it then
    absorbs the new parameters into the teacher state, whose rows this
    process writes on the same entries. Returns the encoder-group learning
    rate."""
    part = state.grad_sum[lo:hi]
    for row in rows:
        part += row[lo:hi]
    part /= n
    lr = adamw_step(state.params, state.grad_sum, state.opt, lo, hi)
    part.fill(0.0)
    cfg = state.distill_config
    if cfg.mode != "baseline" and state.opt.t % cfg.snapshot_every == 0:
        absorb(state, state.params)
    return lr


def train_step(state: TrainState, micro_batches: list,
               worker: StepWorker | None = None) -> list[StepPoint]:
    """One optimizer step over its micro-batches, 1 to ``accum_steps``.

    Every micro-batch reads the same parameters. With ``worker``, the run's
    step worker, the training process runs the first half (rounded up)
    while the worker runs the rest; without one, it runs them all. The
    gradients are added in micro-batch order, averaged, and feed one AdamW
    step, and on a snapshot step the new parameters are absorbed into the
    teacher state; with a worker each process does this on its half of the
    flat vectors, and the step returns once both halves are done. Returns
    one step-curve row per micro-batch; its ``step`` counts the run's
    micro-batches from 0.
    """
    n = len(micro_batches)
    if not 1 <= n <= state.train_config.accum_steps:
        raise UsageError(f"an optimizer step takes 1 to "
                         f"{state.train_config.accum_steps} micro-batches, "
                         f"got {n}")
    first = state.counters["student_forwards"]   # micro-batches run so far
    mine = n if worker is None else (n + 1) // 2
    if worker is not None:
        worker.request("step", state.opt.t, first + mine,
                       micro_batches[mine:])
    rows = [_micro_batch(state, batch, micro, state.grad_sum)
            for micro, batch in enumerate(micro_batches[:mine], first)]
    if worker is None:
        lr = _update(state, [], n)
    else:
        worker.send(n)   # this side's gradients are in
        theirs, counts = worker.reply()
        rows += theirs
        for name, count in counts.items():
            state.counters[name] += count
        lr = _update(state, worker.grads[:len(theirs)], n, 0, worker.half)
        worker.reply()   # the worker's half is done
    return [StepPoint(step=micro, ce=ce, mse=mse, lr=lr)
            for micro, (ce, mse) in enumerate(rows, first)]


def _count_correct(params: ParameterSet, config: ModelConfig, split, vocab,
                   batch_size: int, first: int = 0,
                   stop: int | None = None) -> int:
    """Correct eval-mode predictions on ``split``'s batches from index
    ``first`` up to ``stop`` (to the end if None)."""
    rows = np.arange(len(split))[first * batch_size:
                                 None if stop is None else stop * batch_size]
    correct = 0
    for batch in iter_batches(split, vocab, config.max_len, batch_size, rows):
        probs = predict_proba(params, batch, config)
        correct += int((np.argmax(probs, axis=1) == batch.labels).sum())
    return correct


def evaluate_params(params: ParameterSet, config: ModelConfig, split, vocab,
                    batch_size: int = EVAL_BATCH_SIZE,
                    worker: StepWorker | None = None):
    """(accuracy, error) on a split, eval mode, fixed-width batches.

    With ``worker``, the run's step worker, a split of two batches or more
    is scored in two processes: the training process scores the first half
    of the batches (rounded up) while the worker scores the rest. Both
    counts are integers, so the accuracy is the one-process accuracy.
    ``params`` is then the run's student or its sda teacher, ``split`` a
    split of its task and ``batch_size`` is ``EVAL_BATCH_SIZE``.
    """
    if len(split) == 0:
        raise InputError("evaluate: empty split")
    n_batches = math.ceil(len(split) / batch_size)
    mine = n_batches if worker is None else (n_batches + 1) // 2
    if mine < n_batches:
        worker.score(params, split, batch_size, mine)
    correct = _count_correct(params, config, split, vocab, batch_size,
                             stop=mine)
    if mine < n_batches:
        correct += worker.reply()
    accuracy = correct / len(split)
    return accuracy, 1.0 - accuracy


def fine_tune(model_config: ModelConfig, distill_config: DistillConfig,
              train_config: TrainConfig, task: TaskData, seed: int,
              data_seed: int | None = None,
              checkpoint_dir=None) -> TrainResult:
    """Run E epochs of shuffled micro-batches; report per-epoch curves.

    ``seed`` fixes initialization and dropout; ``data_seed`` (defaulting to
    ``seed``) fixes the per-epoch training permutation. The returned report
    carries the final student metrics and, in sda mode, the final teacher's.
    With ``checkpoint_dir`` set, the student is checkpointed at every epoch
    boundary as ``epoch_NNN.ckpt``.
    """
    require_seed("seed", seed)
    require_seed("data_seed", data_seed)
    if len(task.train) == 0:
        raise InputError("fine_tune: empty train split")
    if model_config.n_classes != task.train.n_classes:
        raise ConfigError(f"model n_classes {model_config.n_classes} does not "
                          f"match the task's {task.train.n_classes} classes")
    if train_config.epochs > 0 and ("test" not in task.splits
                                    or len(task.test) == 0):
        raise InputError("fine_tune: empty test split")
    select_best_dev = train_config.select_by == "best_dev"
    if select_best_dev and (task.dev is None or len(task.dev) == 0):
        raise ConfigError('select_by="best_dev" needs a non-empty dev split')
    data_seed = seed if data_seed is None else data_seed
    started = time.perf_counter()

    state = make_train_state(model_config, distill_config, train_config,
                             n_train=len(task.train), seed=seed)
    state.task = task
    vocab = task.vocab
    epoch_curve: list[EpochPoint] = []
    step_curve: list[StepPoint] = []
    best_dev_acc, best_params, best_epoch = -1.0, None, None

    n_train = len(task.train)
    worker = start_step_worker(state)
    final_teacher = None
    try:
        for epoch in range(train_config.epochs):
            order = permutation_with_seed(n_train, [data_seed, epoch])
            batches = iter_batches(task.train, vocab, model_config.max_len,
                                   train_config.micro_batch, order)
            points: list[StepPoint] = []
            # one optimizer step's micro-batches; an epoch's last may be fewer
            while group := list(islice(batches, train_config.accum_steps)):
                points += train_step(state, group, worker)
            step_curve += points
            ce_sum, mse_sum = 0.0, 0.0
            for point in points:
                ce_sum += point.ce
                mse_sum += point.mse
            test_acc, test_err = evaluate_params(state.params, model_config,
                                                 task.test, vocab,
                                                 EVAL_BATCH_SIZE, worker)
            epoch_curve.append(EpochPoint(
                epoch=epoch,
                test_error=test_err,
                test_accuracy=test_acc,
                mean_ce=ce_sum / state.micro_per_epoch,
                mean_mse=mse_sum / state.micro_per_epoch,
                lr=point.lr,     # the rate of the epoch's last step
            ))
            if select_best_dev:
                dev_acc, _ = evaluate_params(state.params, model_config,
                                             task.dev, vocab, EVAL_BATCH_SIZE,
                                             worker)
                if dev_acc > best_dev_acc:
                    best_dev_acc, best_epoch = dev_acc, epoch
                    # the last epoch's parameters are returned as state.params
                    best_params = (state.params.copy()
                                   if epoch < train_config.epochs - 1 else None)
            if checkpoint_dir is not None:
                save_params(state.params, make_dir(checkpoint_dir)
                            / f"epoch_{epoch:03d}.ckpt")
        if distill_config.mode == "sda" and train_config.epochs > 0:
            tacc, terr = evaluate_params(sda_teacher(state), model_config,
                                         task.test, vocab, EVAL_BATCH_SIZE,
                                         worker)
            final_teacher = {"test_accuracy": tacc, "test_error": terr}
    finally:
        if worker is not None:
            worker.close(state)

    student = state.params if best_params is None else best_params
    # a vector of its own, so that the result holds one row and not every
    # row of the teacher state
    teacher = None if final_teacher is None else state.teacher.copy()

    final_student = {}
    if train_config.epochs > 0:
        # the epoch curve already holds the student's test metrics
        point = epoch_curve[-1 if best_epoch is None else best_epoch]
        final_student = {"test_accuracy": point.test_accuracy,
                         "test_error": point.test_error}

    report = RunReport(
        config={
            "model": asdict(model_config),
            "distill": asdict(distill_config),
            "train": asdict(train_config),
        },
        seeds={"seed": seed, "data_seed": data_seed},
        epoch_curve=epoch_curve,
        step_curve=step_curve,
        final_student=final_student,
        final_teacher=final_teacher,
        counters=dict(state.counters),
        wall_clock_s=time.perf_counter() - started,
    )
    if best_epoch is not None:
        report.config["selected_epoch"] = best_epoch
    return TrainResult(student=student, teacher=teacher, report=report)
