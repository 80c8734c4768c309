"""Trainer tests: teacher construction, combined loss, mode equivalences,
snapshot cadence, convergence, determinism.

The weight-off (lambda=0) and K=1 equivalences are exact-trajectory
properties checked bit-for-bit over real multi-step runs.
"""

import copy
import gc
import math
import multiprocessing
import os
import signal
import time
import weakref
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from selfdistill import autodiff as ad
from selfdistill import distill
from selfdistill.autodiff import Tape, Tensor
from selfdistill.data import (
    Batch,
    DatasetSplit,
    SyntheticSpec,
    iter_batches,
    make_batch,
    make_synthetic,
    prepare_task,
)
from selfdistill.distill import (
    TEACHER_ALL,
    DistillConfig,
    TrainConfig,
    absorb,
    evaluate_params,
    fine_tune,
    make_train_state,
    sda_loss,
    sda_teacher,
    sdv_teacher_logits,
    train_step,
)
from selfdistill.encoder import ModelConfig, classify, init_params
from selfdistill.ensemble import average_parameters, ring_push
from selfdistill.optim import adamw_step
from selfdistill.errors import (
    ConfigError,
    DivergenceError,
    InputError,
    SelfDistillError,
    UsageError,
)
from selfdistill.reporting import EpochPoint

MODEL = ModelConfig(vocab_size=120, max_len=12, dim=16, n_layers=1, n_heads=2,
                    ffn_dim=32, n_classes=4, dropout_p=0.1)
MODEL_NODROP = ModelConfig(vocab_size=120, max_len=12, dim=16, n_layers=1,
                           n_heads=2, ffn_dim=32, n_classes=4, dropout_p=0.0)


def small_task(noise=0.0, n_train=160, n_test=80, seed=77):
    spec = SyntheticSpec(n_classes=4, vocab_span=80, tokens_per_example=8,
                         signal=0.9, label_noise=noise, n_train=n_train,
                         n_test=n_test)
    return prepare_task(make_synthetic(spec, seed=seed),
                        vocab_size=MODEL.vocab_size)


def small_batch(rng, b=4):
    ids = rng.integers(4, MODEL.vocab_size, size=(b, 8))
    ids[:, 0] = 2
    return Batch(token_ids=ids, mask=np.ones((b, 8)),
                 labels=rng.integers(0, 4, b))


class TestDistillConfig:
    def test_all_only_for_sda(self):
        with pytest.raises(ConfigError):
            DistillConfig(mode="sdv", teacher_size="all")
        DistillConfig(mode="sda", teacher_size="all")

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            DistillConfig(mode="sda", lam=-0.1)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ConfigError, match="finite"):
            DistillConfig(mode="sda", lam=lam)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            DistillConfig(mode="distill-harder")


class TestFieldTypes:
    """An int field of a run config takes an integer, a numpy one too, and
    a float field any number; a bool is neither. A misfit would run with
    another value (K=2 for 2.5, K=1 for True), so it is a ConfigError."""

    @pytest.mark.parametrize("config,name,value", [
        (DistillConfig, "teacher_size", 2.5),
        (DistillConfig, "teacher_size", True),
        (DistillConfig, "snapshot_every", 1.5),
        (DistillConfig, "lam", True),
        (TrainConfig, "epochs", 2.0),
        (TrainConfig, "accum_steps", False),
        (TrainConfig, "lr_head", True),
        (ModelConfig, "dim", 16.0),
        (ModelConfig, "n_classes", True),
        (ModelConfig, "dropout_p", False),
    ])
    def test_a_misfit_is_a_config_error_naming_the_field(self, config, name,
                                                         value):
        with pytest.raises(ConfigError,
                           match=f"^{config.__name__} field '{name}' must be"):
            config(**{name: value})

    def test_numpy_numbers_are_valid(self):
        DistillConfig(mode="sda", lam=np.float32(0.5),
                      teacher_size=np.int64(3), snapshot_every=np.int32(2))
        TrainConfig(epochs=np.int64(1), lr_head=np.float64(0.1), lr_encoder=0)
        ModelConfig(dim=np.int64(16), n_heads=np.int8(2))


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("lr_encoder", -1e-3), ("lr_head", float("nan")),
        ("weight_decay", -5.0), ("weight_decay", float("inf")),
        ("warmup_prop", 0.0), ("warmup_prop", 1.0),
    ])
    def test_out_of_range_optimizer_setting_is_config_error(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_zero_learning_rates_and_decay_are_valid(self):
        TrainConfig(lr_encoder=0.0, lr_head=0.0, weight_decay=0.0)


class TestSdaTeacher:
    def test_warm_in_teacher_is_initial_params(self):
        state = make_train_state(MODEL, DistillConfig(mode="sda", teacher_size=3),
                                 TrainConfig(epochs=1), n_train=32, seed=5)
        teacher = sda_teacher(state)
        init = init_params(MODEL, seed=5)
        for name in init:
            np.testing.assert_array_equal(teacher[name].data, init[name].data)

    def test_window_of_two_snapshots(self):
        state = make_train_state(MODEL, DistillConfig(mode="sda", teacher_size=2),
                                 TrainConfig(epochs=1), n_train=32, seed=5)
        s1 = init_params(MODEL, seed=6)
        s2 = init_params(MODEL, seed=7)
        absorb(state, s1)
        absorb(state, s2)  # evicts the seeded theta_0
        teacher = sda_teacher(state)
        for name in teacher:
            np.testing.assert_allclose(
                teacher[name].data, (s1[name].data + s2[name].data) / 2.0,
                atol=1e-15)

    def test_all_mode_matches_materialized_mean(self):
        state = make_train_state(MODEL, DistillConfig(mode="sda",
                                                      teacher_size="all"),
                                 TrainConfig(epochs=1), n_train=32, seed=5)
        snaps = [init_params(MODEL, seed=s) for s in (5, 8, 9, 10)]
        for s in snaps[1:]:
            absorb(state, s)
        teacher = sda_teacher(state)
        for name in teacher:
            oracle = np.mean(np.stack([s[name].data for s in snaps]), axis=0)
            np.testing.assert_allclose(teacher[name].data, oracle, rtol=1e-6,
                                       atol=1e-12)

    def test_wrong_mode_rejected(self):
        state = make_train_state(MODEL, DistillConfig(mode="baseline"),
                                 TrainConfig(epochs=1), n_train=32, seed=5)
        with pytest.raises(UsageError):
            sda_teacher(state)


class TestSdaTeacherCache:
    """The window teacher is recomputed once per ring insertion, never stale."""

    def test_teacher_at_every_micro_batch_is_the_fresh_window_mean(
            self, monkeypatch):
        task = small_task(n_train=40)
        state = make_train_state(MODEL, DistillConfig(mode="sda", teacher_size=3),
                                 TrainConfig(epochs=1, micro_batch=4,
                                             accum_steps=2),
                                 n_train=len(task.train), seed=2)
        original = distill.sda_teacher
        matches = []

        def checked(st):
            teacher = original(st)
            oracle = average_parameters(st.ring.snapshots())
            matches.append(all(np.array_equal(teacher[n].data, oracle[n].data)
                               for n in oracle))
            return teacher

        monkeypatch.setattr(distill, "sda_teacher", checked)
        batches = iter_batches(task.train, task.vocab, MODEL.max_len, 4)
        while group := list(islice(batches, 2)):
            train_step(state, group)
        assert len(matches) == 10
        assert all(matches)
        assert state.ring.insertions == 1 + 5

    def test_window_mean_runs_once_per_insertion(self, monkeypatch):
        calls = []
        original = distill.window_mean
        monkeypatch.setattr(distill, "window_mean",
                            lambda ring: calls.append(1) or original(ring))
        task = small_task(n_train=40, n_test=20)
        fine_tune(MODEL, DistillConfig(mode="sda", teacher_size=3),
                  TrainConfig(epochs=2, micro_batch=4, accum_steps=2), task,
                  seed=2)
        # 20 micro-batches and the final teacher read 11 distinct windows:
        # the seeded theta_0 plus one per optimizer step
        assert len(calls) == 1 + 10

    def test_absorbed_snapshot_is_seen_by_the_next_call(self):
        """The teacher is one row of the ring, rewritten by each absorb."""
        state = make_train_state(MODEL, DistillConfig(mode="sda", teacher_size=2),
                                 TrainConfig(epochs=1), n_train=32, seed=5)
        teacher = sda_teacher(state)
        before = {name: t.data.copy() for name, t in teacher.items()}
        snap = init_params(MODEL, seed=6)
        absorb(state, snap)
        after = sda_teacher(state)
        assert after is teacher
        for name in after:
            np.testing.assert_array_equal(
                after[name].data,
                np.mean(np.stack([before[name], snap[name].data]), axis=0))

    def test_all_mode_returns_the_running_mean_itself(self):
        state = make_train_state(MODEL, DistillConfig(mode="sda",
                                                      teacher_size="all"),
                                 TrainConfig(epochs=1), n_train=32, seed=5)
        assert sda_teacher(state) is state.rmean.mean

    def test_all_mode_fine_tune_copies_the_parameters_once(self, monkeypatch):
        """No snapshot is copied as a ParameterSet: the one copy is the
        returned teacher's, taken from the running mean's row."""
        copies = []
        original = distill.ParameterSet.copy
        monkeypatch.setattr(distill.ParameterSet, "copy",
                            lambda ps: copies.append(1) or original(ps))
        task = small_task(n_train=40, n_test=20)
        result = fine_tune(MODEL, DistillConfig(mode="sda", teacher_size="all"),
                           TrainConfig(epochs=2, micro_batch=4, accum_steps=2),
                           task, seed=2)
        assert len(result.report.step_curve) == 20   # 10 optimizer steps
        assert len(copies) == 1


class TestSdaLoss:
    def test_weight_off_is_exactly_ce(self):
        rng = np.random.default_rng(0)
        student = Tensor(rng.normal(0, 2, (4, 3)))
        teacher = Tensor(rng.normal(0, 2, (4, 3)))
        labels = rng.integers(0, 3, 4)
        total, ce, _ = sda_loss(student, teacher, labels, lam=0.0)
        assert total.item() == ad.cross_entropy(Tensor(student.data), labels).item()
        assert total.item() == ce.item()

    def test_identity_teacher_zeroes_mse(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 1, (4, 3))
        labels = rng.integers(0, 3, 4)
        total, ce, m = sda_loss(Tensor(logits), Tensor(logits.copy()), labels, 1.0)
        assert m.item() == 0.0
        assert total.item() == ce.item()

    def test_scripted_ce_plus_mse_oracle(self):
        total, ce, m = sda_loss(Tensor([[1.0, 0.0]]), Tensor([[0.0, 0.0]]),
                                [0], lam=1.0)
        assert ce.item() == pytest.approx(0.31326168751822286, abs=1e-10)
        assert m.item() == pytest.approx(0.5, abs=1e-15)
        assert total.item() == pytest.approx(0.81326168751822286, abs=1e-10)

    def test_components_sum_to_total(self):
        rng = np.random.default_rng(2)
        for lam in (0.0, 0.3, 1.0, 2.5):
            s = Tensor(rng.normal(0, 2, (6, 4)))
            t = Tensor(rng.normal(0, 2, (6, 4)))
            labels = rng.integers(0, 4, 6)
            total, ce, m = sda_loss(s, t, labels, lam)
            assert total.item() == pytest.approx(ce.item() + lam * m.item(),
                                                 abs=1e-12)
            assert total.item() >= ce.item()

    def test_negative_lambda_rejected(self):
        with pytest.raises(UsageError):
            sda_loss(Tensor([[0.0]]), Tensor([[0.0]]), [0], lam=-1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(UsageError, match="finite"):
            sda_loss(Tensor([[0.0]]), Tensor([[0.0]]), [0], lam=lam)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError, match="shapes"):
            sda_loss(Tensor([[0.0, 1.0]]), Tensor([[0.0, 1.0, 2.0]]), [0], 1.0)

    def test_open_tape_teacher_rejected(self):
        tape = Tape()
        student = Tensor([[0.0, 1.0]])
        leaky = Tensor([[0.5, 0.5]])
        tape.watch(leaky)
        with pytest.raises(UsageError, match="constant"):
            sda_loss(student, leaky, [0], lam=1.0)

    def test_gradient_closed_form(self):
        """d total / d student == (softmax - onehot)/B + lam*(2/(B*C))*(s - t)."""
        rng = np.random.default_rng(3)
        b, c, lam = 5, 4, 1.3
        s_data = rng.normal(0, 2, (b, c))
        t_data = rng.normal(0, 2, (b, c))
        labels = rng.integers(0, c, b)
        tape = Tape()
        s = Tensor(s_data)
        tape.watch(s)
        total, _, _ = sda_loss(s, Tensor(t_data), labels, lam)
        grads = ad.backward(total, tape)
        sm = ad.softmax(Tensor(s_data)).data
        onehot = np.zeros((b, c))
        onehot[np.arange(b), labels] = 1.0
        expected = (sm - onehot) / b + lam * (2.0 / (b * c)) * (s_data - t_data)
        np.testing.assert_allclose(grads[s], expected, atol=1e-8)

    def test_teacher_never_in_gradient_map(self):
        tape = Tape()
        s = Tensor([[1.0, 2.0]])
        t = Tensor([[0.5, 0.5]])
        tape.watch(s)
        total, _, _ = sda_loss(s, t, [1], lam=1.0)
        grads = ad.backward(total, tape)
        assert list(grads) == [s]


class TestSdvTeacher:
    def test_identical_snapshots_reproduce_single_model_logits(self):
        rng = np.random.default_rng(4)
        state = make_train_state(MODEL_NODROP,
                                 DistillConfig(mode="sdv", teacher_size=3),
                                 TrainConfig(epochs=1), n_train=32, seed=5)
        snap = state.ring.snapshots()[0]
        for _ in range(2):
            ring_push(state.ring, snap.copy())
        batch = small_batch(rng)
        logits = sdv_teacher_logits(state, batch)
        single = classify(snap, batch, MODEL_NODROP).data
        np.testing.assert_allclose(logits.data, single, atol=1e-12)

    def test_brute_force_per_snapshot_mean(self):
        rng = np.random.default_rng(5)
        state = make_train_state(MODEL_NODROP,
                                 DistillConfig(mode="sdv", teacher_size=3),
                                 TrainConfig(epochs=1), n_train=32, seed=5)
        for s in (21, 22):
            ring_push(state.ring, init_params(MODEL_NODROP, seed=s))
        batch = small_batch(rng)
        logits = sdv_teacher_logits(state, batch)
        oracle = np.mean(np.stack(
            [classify(s, batch, MODEL_NODROP).data
             for s in state.ring.snapshots()]), axis=0)
        assert logits.data.tobytes() == oracle.tobytes()

    def test_teacher_logits_are_constant(self):
        rng = np.random.default_rng(6)
        state = make_train_state(MODEL_NODROP,
                                 DistillConfig(mode="sdv", teacher_size=1),
                                 TrainConfig(epochs=1), n_train=32, seed=5)
        logits = sdv_teacher_logits(state, small_batch(rng))
        assert logits.tape is None

    def test_empty_ring_rejected(self):
        rng = np.random.default_rng(7)
        state = make_train_state(MODEL_NODROP,
                                 DistillConfig(mode="sdv", teacher_size=1),
                                 TrainConfig(epochs=1), n_train=32, seed=5)
        state.ring._buf.clear()
        with pytest.raises(UsageError, match="empty"):
            sdv_teacher_logits(state, small_batch(rng))

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("rows", [8, 64])
    def test_combine_rule_is_the_stacked_mean_bitwise(self, monkeypatch, k,
                                                      rows):
        """The teacher of k snapshots, the newest one's logits given, is the
        np.mean of the k logits stacked in ring order, bit for bit."""
        rng = np.random.default_rng([k, rows])
        outs = [rng.normal(0.0, 3.0, (rows, 4)) for _ in range(k)]
        state = make_train_state(MODEL_NODROP,
                                 DistillConfig(mode="sdv", teacher_size=k),
                                 TrainConfig(epochs=1), n_train=32, seed=5)
        state.ring._buf.clear()
        state.ring._buf.extend(outs)   # each "snapshot" is its own logits
        monkeypatch.setattr(
            distill, "classify",
            lambda snap, batch, config, train_mode: Tensor(snap))
        combined = sdv_teacher_logits(state, None, newest=outs[-1]).data
        expected = np.mean(np.stack(outs, axis=0), axis=0)
        assert combined.tobytes() == expected.tobytes()


def hand_fine_tune(model, distill_config, train, task, seed):
    """fine_tune's loop written out over train_step, with no sdv worker:
    returns the state and the step and epoch curves."""
    from selfdistill.data import permutation_with_seed
    state = make_train_state(model, distill_config, train,
                             n_train=len(task.train), seed=seed)
    micro = math.ceil(len(task.train) / train.micro_batch)
    steps, epochs = [], []
    for epoch in range(train.epochs):
        order = permutation_with_seed(len(task.train), [seed, epoch])
        batches = iter_batches(task.train, task.vocab, model.max_len,
                               train.micro_batch, order)
        points = []
        while group := list(islice(batches, train.accum_steps)):
            points += train_step(state, group)
        acc, err = evaluate_params(state.params, model, task.test, task.vocab,
                                   distill.EVAL_BATCH_SIZE)
        ce_sum, mse_sum = 0.0, 0.0
        for point in points:
            ce_sum += point.ce
            mse_sum += point.mse
        epochs.append(EpochPoint(epoch=epoch, test_error=err,
                                 test_accuracy=acc, mean_ce=ce_sum / micro,
                                 mean_mse=mse_sum / micro, lr=points[-1].lr))
        steps += points
    return state, steps, epochs


@pytest.fixture
def started_workers(monkeypatch):
    """Every step worker fine_tune starts, in order."""
    workers = []
    start = distill.start_step_worker

    def recording(state):
        worker = start(state)
        workers.append(worker)
        return worker

    monkeypatch.setattr(distill, "start_step_worker", recording)
    return workers


@pytest.fixture
def two_cpus(monkeypatch):
    """The worker is tested wherever it can fork, also on a host that runs
    the suite on one CPU, where the selection would skip it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


@pytest.fixture
def eval_batches_of_8(monkeypatch):
    """Evaluations in batches of 8, so that small splits take several; a
    forked worker inherits the value."""
    monkeypatch.setattr(distill, "EVAL_BATCH_SIZE", 8)


@pytest.fixture
def no_child_left():
    """No process a test starts outlives it."""
    yield
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_process(monkeypatch, run):
    """``run()`` with every micro-batch in the training process."""
    with monkeypatch.context() as patch:
        patch.setattr(distill, "start_step_worker", lambda state: None)
        return run()


def with_worker(monkeypatch, run):
    """``run()`` with a step worker started whatever the selection says."""
    with monkeypatch.context() as patch:
        patch.setattr(distill, "start_step_worker", distill.StepWorker)
        return run()


def mapping_of(array: np.ndarray):
    """The object at the end of an array's ``base`` chain: the mapping
    behind a view of it, the array itself if it owns its memory."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array


def shared_mapping(worker) -> weakref.ref:
    """A weak reference to the mapping behind a worker's shared buffers."""
    return weakref.ref(mapping_of(worker.grads))


@pytest.mark.usefixtures("two_cpus", "no_child_left")
class TestSdvWorker:
    """The step worker in sdv runs: the same results as one process, and
    no process outlives a run however it ends."""

    TRAIN = TrainConfig(epochs=2, micro_batch=4, accum_steps=3)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_fine_tune_equals_a_hand_driven_loop_without_worker(
            self, monkeypatch, started_workers, k):
        """13 micro-batches per epoch with accumulation 3 and a snapshot
        every 2 steps: steps that absorb and ones that do not, and a last
        group of one micro-batch."""
        task = small_task(n_train=52, n_test=20)
        config = DistillConfig(mode="sdv", teacher_size=k, snapshot_every=2)
        state, steps, epochs = hand_fine_tune(MODEL, config, self.TRAIN, task,
                                              seed=6)
        student_forwards = []
        classify_ = distill.classify

        def counting(params, batch, model, train_mode=False, **kw):
            student_forwards.append(train_mode)
            return classify_(params, batch, model, train_mode=train_mode, **kw)

        monkeypatch.setattr(distill, "classify", counting)
        result = fine_tune(MODEL, config, self.TRAIN, task, seed=6)
        report = result.report
        assert report.step_curve == steps
        assert report.epoch_curve == epochs
        assert report.counters == state.counters
        assert result.student.flat.tobytes() == state.params.flat.tobytes()
        # of each full step's 3 micro-batches the worker ran the last one
        assert len(started_workers) == 1 and started_workers[0] is not None
        assert sum(student_forwards) == 2 * (4 * 2 + 1)

    def test_the_run_state_is_freed_when_fine_tune_returns(
            self, monkeypatch, started_workers):
        """Nothing may hold the run's arrays or the shared mapping after
        fine_tune returns, or they outlive it until a gc pass and raise the
        peak memory of back-to-back runs."""
        states, mappings = [], []
        make = distill.make_train_state
        start = distill.start_step_worker

        def recording(*args, **kw):
            state = make(*args, **kw)
            states.append(weakref.ref(state))
            return state

        def mapped(state):
            worker = start(state)
            mappings.append(shared_mapping(worker))
            return worker

        monkeypatch.setattr(distill, "make_train_state", recording)
        monkeypatch.setattr(distill, "start_step_worker", mapped)
        gc.disable()
        try:
            fine_tune(MODEL, DistillConfig(mode="sdv", teacher_size=3),
                      self.TRAIN, small_task(n_train=24, n_test=8), seed=1)
            assert started_workers[0] is not None
            assert states[0]() is None
            assert mappings[0]() is None
        finally:
            gc.enable()

    def test_normal_return_joins_the_worker(self, started_workers):
        task = small_task(n_train=24, n_test=8)
        fine_tune(MODEL, DistillConfig(mode="sdv", teacher_size=3),
                  self.TRAIN, task, seed=1)
        (worker,) = started_workers
        assert worker.exitcode == 0

    def test_divergence_error_stops_the_worker(self, monkeypatch,
                                               started_workers):
        loss = distill.sda_loss
        calls = []

        def diverging(*args):
            total, ce, m = loss(*args)
            calls.append(1)
            return (ad.mul(total, np.nan) if len(calls) > 4 else total), ce, m

        monkeypatch.setattr(distill, "sda_loss", diverging)
        task = small_task(n_train=40, n_test=8)
        with pytest.raises(DivergenceError):
            fine_tune(MODEL, DistillConfig(mode="sdv", teacher_size=3),
                      self.TRAIN, task, seed=1)
        (worker,) = started_workers
        assert worker.exitcode is not None

    def test_worker_exception_reraises_in_parent(self, monkeypatch,
                                                 started_workers):
        parent = os.getpid()
        classify_ = distill.classify

        def failing_in_worker(*args, **kw):
            if os.getpid() != parent:
                raise InputError("worker-side failure")
            return classify_(*args, **kw)

        monkeypatch.setattr(distill, "classify", failing_in_worker)
        task = small_task(n_train=40, n_test=8)
        with pytest.raises(InputError, match="^worker-side failure$"):
            fine_tune(MODEL, DistillConfig(mode="sdv", teacher_size=3),
                      self.TRAIN, task, seed=1)
        (worker,) = started_workers
        assert worker.exitcode is not None

    def test_a_killed_worker_is_an_error_naming_its_exit(self):
        task = small_task(n_train=32, n_test=8)
        state = make_train_state(MODEL_NODROP,
                                 DistillConfig(mode="sdv", teacher_size=3),
                                 self.TRAIN, n_train=32, seed=5)
        worker = distill.start_step_worker(state)
        try:
            os.kill(worker.pid, signal.SIGKILL)
            group = list(iter_batches(task.train, task.vocab,
                                      MODEL_NODROP.max_len, 4))[:3]
            with pytest.raises(SelfDistillError, match="exited with code -9"):
                distill.train_step(state, group, worker)
        finally:
            worker.close(state)


def sdv_k3_report(epochs, accum_steps=3):
    """The report of a small sdv K=3 run, as a dict; module-level so that a
    process pool can run it."""
    return fine_tune(MODEL, DistillConfig(mode="sdv", teacher_size=3),
                     TrainConfig(epochs=epochs, micro_batch=4,
                                 accum_steps=accum_steps),
                     small_task(n_train=24, n_test=8), seed=1).report.to_dict()


@pytest.mark.usefixtures("no_child_left")
class TestSdvWorkerSelection:
    """start_step_worker trains in process wherever a worker could not
    start or could not overlap, with the same report as a worker run."""

    def test_a_pool_worker_runs_the_teacher_in_process(self, monkeypatch):
        """A Pool worker is a daemon, which may not start a process."""
        expected = with_worker(monkeypatch, lambda: sdv_k3_report(2))
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            report = pool.apply(sdv_k3_report, (2,))
        finally:
            pool.close()
            pool.join()
        assert report == expected

    def test_one_usable_cpu_runs_the_teacher_in_process(self, monkeypatch,
                                                        started_workers):
        expected = with_worker(monkeypatch, lambda: sdv_k3_report(2))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert sdv_k3_report(2) == expected
        assert started_workers == [None]

    def test_zero_epochs_start_no_worker(self, monkeypatch, two_cpus,
                                         started_workers):
        expected = with_worker(monkeypatch, lambda: sdv_k3_report(0))
        assert sdv_k3_report(0) == expected
        assert started_workers == [None]

    def test_accumulation_one_starts_no_worker(self, monkeypatch, two_cpus,
                                               started_workers):
        """Nothing to overlap: each optimizer step has one micro-batch."""
        expected = in_process(monkeypatch, lambda: sdv_k3_report(2, 1))
        assert sdv_k3_report(2, 1) == expected
        assert started_workers == [None]


def run_both_ways(monkeypatch, model, config, train, task, tmp_path=None):
    """fine_tune in process and with a worker: for each, the report as a
    dict, the student's and the teacher's bytes and the checkpoints'."""
    runs = []
    for how, name in ((in_process, "in"), (with_worker, "worker")):
        out = None if tmp_path is None else tmp_path / name
        result = how(monkeypatch, lambda: fine_tune(
            model, config, train, task, seed=6, checkpoint_dir=out))
        checkpoints = ([] if out is None else
                       [p.read_bytes() for p in sorted(out.iterdir())])
        runs.append((result.report.to_dict(), result.student.flat.tobytes(),
                     None if result.teacher is None
                     else result.teacher.flat.tobytes(), checkpoints))
    return runs


@pytest.mark.usefixtures("no_child_left")
class TestStepWorker:
    """fine_tune with a step worker equals the in-process run bit for bit:
    step and epoch curves, counters, student, teacher and checkpoints."""

    @pytest.mark.parametrize("config", [
        DistillConfig(),
        DistillConfig(mode="sda", teacher_size=3),
        DistillConfig(mode="sda", teacher_size=TEACHER_ALL),
        DistillConfig(mode="sda", teacher_size=3, snapshot_every=2),
        DistillConfig(mode="sdv", teacher_size=3),
        DistillConfig(mode="sdv", teacher_size=3, snapshot_every=2),
    ], ids=["baseline", "sda3", "sda_all", "sda3_every2", "sdv3",
            "sdv3_every2"])
    @pytest.mark.parametrize("model", [MODEL_NODROP, MODEL],
                             ids=["nodrop", "drop"])
    @pytest.mark.parametrize("accum_steps", [2, 3, 4])
    def test_worker_run_equals_the_in_process_run(self, monkeypatch, tmp_path,
                                                  config, model, accum_steps):
        """11 micro-batches per epoch: the last group holds 1, 2 or 3 of
        them. best_dev selection and checkpoints ride along."""
        task = small_task(n_train=44, n_test=20)
        task.splits["dev"] = task.test
        train = TrainConfig(epochs=2, micro_batch=4, accum_steps=accum_steps,
                            select_by="best_dev")
        inside, worker = run_both_ways(monkeypatch, model, config, train, task,
                                       tmp_path)
        assert inside == worker

    def test_an_accumulation_above_an_epoch_maps_only_the_rows_it_needs(
            self, monkeypatch):
        """accum_steps 1000 over 11 micro-batches per epoch: each step is
        the whole epoch, so the worker maps 11 // 2 gradient rows, not 500,
        and the run equals the in-process one."""
        task = small_task(n_train=44, n_test=20)
        train = TrainConfig(epochs=2, micro_batch=4, accum_steps=1000)
        config = DistillConfig(mode="sda", teacher_size=3)
        state = make_train_state(MODEL, config, train, n_train=44, seed=0)
        worker = distill.StepWorker(state)
        try:
            assert worker.grads.shape == (5, state.params.flat.size)
        finally:
            worker.close(state)
        inside, worker = run_both_ways(monkeypatch, MODEL, config, train, task)
        assert inside == worker

    def test_skipping_the_newest_sdv_forward_changes_no_bit(self, monkeypatch):
        """With no dropout and a snapshot every step, the newest snapshot's
        forward is the student's: a run that computes it anyway gives the
        same bytes, in process and with a worker."""
        task = small_task(n_train=44, n_test=20)
        config = DistillConfig(mode="sdv", teacher_size=3)
        train = TrainConfig(epochs=2, micro_batch=4, accum_steps=2)
        eval_forwards = []
        classify_ = distill.classify

        def counting(params, batch, model, train_mode=False, **kw):
            eval_forwards.append(not train_mode)
            return classify_(params, batch, model, train_mode=train_mode, **kw)

        monkeypatch.setattr(distill, "classify", counting)
        result = in_process(monkeypatch, lambda: fine_tune(
            MODEL_NODROP, config, train, task, seed=6))
        counters = result.report.counters
        # every snapshot's logits are averaged, all but the newest computed
        assert (sum(eval_forwards) == counters["teacher_forwards"]
                - counters["student_forwards"])
        skipping = run_both_ways(monkeypatch, MODEL_NODROP, config, train, task)
        monkeypatch.setattr(distill, "newest_is_student", lambda state: False)
        computing = run_both_ways(monkeypatch, MODEL_NODROP, config, train,
                                  task)
        assert skipping == computing
        assert skipping[0] == skipping[1]

    def test_divergence_in_the_workers_micro_batch_reads_as_in_process(
            self, monkeypatch):
        """The fourth micro-batch of epoch 0 is the second of step 1, which
        the worker runs."""
        task = small_task(n_train=44, n_test=20)
        train = TrainConfig(epochs=1, micro_batch=4, accum_steps=2)
        order = distill.permutation_with_seed(len(task.train), [6, 0])
        target = list(iter_batches(task.train, task.vocab, MODEL.max_len, 4,
                                   order))[3].token_ids.tobytes()
        classify_ = distill.classify
        parent = os.getpid()
        ran_in = []

        def diverging(params, batch, model, train_mode=False, **kw):
            out = classify_(params, batch, model, train_mode=train_mode, **kw)
            if train_mode and batch.token_ids.tobytes() == target:
                ran_in.append(os.getpid() == parent)
                return ad.mul(out, np.nan)
            return out

        monkeypatch.setattr(distill, "classify", diverging)
        messages = []
        for how in (in_process, with_worker):
            with pytest.raises(DivergenceError) as caught:
                how(monkeypatch, lambda: fine_tune(
                    MODEL, DistillConfig(mode="sda", teacher_size=3), train,
                    task, seed=6))
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("non-finite loss at optimizer step 1 ")
        assert ran_in == [True]   # the worker's call is seen there only

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists open descriptors through /proc")
    def test_a_failed_fork_raises_and_leaves_no_pipe(self, monkeypatch,
                                                     two_cpus):
        def failing():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing)
        open_fds = set(os.listdir("/proc/self/fd"))
        with pytest.raises(SelfDistillError) as caught:
            fine_tune(MODEL, DistillConfig(), TrainConfig(epochs=1, micro_batch=4),
                      small_task(n_train=16, n_test=8), seed=0)
        assert type(caught.value) is SelfDistillError
        assert str(caught.value) == (
            "cannot start the step worker: [Errno 11] Resource temporarily "
            "unavailable; --accum-steps 1 runs without one")
        assert isinstance(caught.value.__cause__, BlockingIOError)
        assert set(os.listdir("/proc/self/fd")) == open_fds

    def test_the_worker_ignores_sigint_and_exits_on_eof(self, two_cpus):
        task = small_task(n_train=32, n_test=8)
        state = make_train_state(MODEL_NODROP, DistillConfig(),
                                 TrainConfig(epochs=1, micro_batch=4),
                                 n_train=32, seed=5)
        worker = distill.start_step_worker(state)
        try:
            group = list(iter_batches(task.train, task.vocab,
                                      MODEL_NODROP.max_len, 4))[:2]
            distill.train_step(state, group, worker)   # the worker is up
            os.kill(worker.pid, signal.SIGINT)
            worker.requests.close()
            for _ in range(3000):   # 30 s at most
                pid, status = os.waitpid(worker.pid, os.WNOHANG)
                if pid:
                    break
                time.sleep(0.01)
            assert pid and os.waitstatus_to_exitcode(status) == 0
            worker.exitcode = 0
        finally:
            if worker.exitcode is None:   # it did not exit: end it here
                os.kill(worker.pid, signal.SIGKILL)
            worker.close(state)


@pytest.mark.usefixtures("no_child_left", "eval_batches_of_8")
class TestSplitEvaluation:
    """With a step worker, the training process scores the first half of
    each evaluation's batches (rounded up) and the worker the rest."""

    TRAIN = TrainConfig(epochs=2, micro_batch=4, accum_steps=2)

    @staticmethod
    def task(n_test):
        task = small_task(n_train=44, n_test=n_test)
        task.splits["dev"] = DatasetSplit(task.test.examples[::-1],
                                          task.test.n_classes)
        return task

    @pytest.mark.parametrize("config,select_by", [
        (DistillConfig(), "final"),
        (DistillConfig(mode="sda", teacher_size=3), "best_dev"),
        (DistillConfig(mode="sda", teacher_size=TEACHER_ALL), "final"),
    ], ids=["baseline", "sda3_best_dev", "sda_all"])
    @pytest.mark.parametrize("n_batches", [1, 2, 3])
    def test_worker_run_equals_the_in_process_run(
            self, monkeypatch, config, select_by, n_batches):
        """Eval batches of 8 over 8 * (n_batches - 1) + 5 examples, so the
        last batch is short; a one-batch split asks nothing of the worker."""
        task = self.task(8 * (n_batches - 1) + 5)
        train = replace(self.TRAIN, select_by=select_by)
        scored_here = []
        predict = distill.predict_proba

        def counting(params, batch, model):
            scored_here.append(len(batch.labels))
            return predict(params, batch, model)

        monkeypatch.setattr(distill, "predict_proba", counting)
        inside, worker = run_both_ways(monkeypatch, MODEL, config, train, task)
        assert inside == worker
        # a test evaluation per epoch, a dev one under best_dev, the teacher's
        evaluations = (2 * (1 + (select_by == "best_dev"))
                       + (config.mode == "sda"))
        assert len(scored_here) == evaluations * (n_batches
                                                  + (n_batches + 1) // 2)

    def test_an_error_in_the_workers_half_reraises_here(self, monkeypatch):
        parent = os.getpid()
        predict = distill.predict_proba

        def failing_in_worker(params, batch, model):
            if os.getpid() != parent:
                raise InputError("worker-side evaluation failure")
            return predict(params, batch, model)

        monkeypatch.setattr(distill, "predict_proba", failing_in_worker)
        with pytest.raises(InputError,
                           match="^worker-side evaluation failure$"):
            with_worker(monkeypatch, lambda: fine_tune(
                MODEL, DistillConfig(mode="sda", teacher_size=3), self.TRAIN,
                self.task(20), seed=6))

    def test_a_worker_killed_during_an_evaluation_is_an_error(
            self, monkeypatch):
        parent = os.getpid()
        workers, killed = [], []
        predict = distill.predict_proba

        def recording(state):
            workers.append(distill.StepWorker(state))
            return workers[-1]

        def killing(params, batch, model):
            if os.getpid() != parent:
                time.sleep(30)   # the training process kills it before
            elif not killed:   # a split evaluation has sent its request
                os.kill(workers[0].pid, signal.SIGKILL)
                killed.append(True)
            return predict(params, batch, model)

        monkeypatch.setattr(distill, "start_step_worker", recording)
        monkeypatch.setattr(distill, "predict_proba", killing)
        with pytest.raises(SelfDistillError, match="exited with code -9"):
            fine_tune(MODEL, DistillConfig(), self.TRAIN, self.task(20),
                      seed=6)

    def test_the_worker_scores_its_side_of_the_student_and_the_teacher(self):
        """A student and a teacher that disagree on the worker's batches
        (24 to 40 of 40): each scores as in one process."""
        task = self.task(40)
        state = make_train_state(MODEL, DistillConfig(mode="sda",
                                                      teacher_size=1),
                                 self.TRAIN, n_train=len(task.train), seed=6)
        state.task = task
        worker = distill.StepWorker(state)
        try:
            # the shared student now predicts the teacher's least likely class
            state.params["head.W"].data[...] *= -1.0
            worker_half = DatasetSplit(task.test.examples[24:],
                                       task.test.n_classes)
            assert (evaluate_params(state.params, MODEL, worker_half,
                                    task.vocab, 8)
                    != evaluate_params(state.teacher, MODEL, worker_half,
                                       task.vocab, 8))
            for params in (state.params, state.teacher, state.params):
                assert (evaluate_params(params, MODEL, task.test, task.vocab,
                                        8, worker)
                        == evaluate_params(params, MODEL, task.test,
                                           task.vocab, 8))
        finally:
            worker.close(state)

    @pytest.mark.parametrize("wrong", ["params", "split", "batch_size"])
    def test_the_worker_scores_only_what_it_holds(self, wrong):
        task = self.task(20)
        state = make_train_state(MODEL, DistillConfig(), self.TRAIN,
                                 n_train=len(task.train), seed=6)
        state.task = task
        worker = distill.StepWorker(state)
        args = {"params": state.params, "split": task.test, "batch_size": 8}
        args[wrong] = {"params": state.params.copy(),
                       "split": DatasetSplit(task.test.examples,
                                             task.test.n_classes),
                       "batch_size": 4}[wrong]
        try:
            with pytest.raises(UsageError, match="scores only"):
                evaluate_params(args["params"], MODEL, args["split"],
                                task.vocab, args["batch_size"], worker)
        finally:
            worker.close(state)


def run_steps(model, distill, train, task, seed, n_steps):
    """Drive train_step over shuffled micro-batches; return state + losses."""
    from selfdistill.data import iter_batches, permutation_with_seed
    state = make_train_state(model, distill, train, n_train=len(task.train),
                             seed=seed)
    losses = []
    epoch = 0
    while state.opt.t < n_steps:
        order = permutation_with_seed(len(task.train), [seed, epoch])
        for batch in iter_batches(task.train, task.vocab, model.max_len,
                                  train.micro_batch, order):
            (metrics,) = train_step(state, [batch])
            losses.append((metrics.ce, metrics.mse))
            if state.opt.t >= n_steps:
                break
        epoch += 1
    return state, losses


class TestTrajectoryEquivalences:
    def test_lambda_zero_sda_is_bitwise_baseline(self):
        """200+ optimizer steps: identical losses and identical parameters."""
        task = small_task(n_train=220)
        train = TrainConfig(epochs=8, micro_batch=4, accum_steps=1)
        base_state, base_losses = run_steps(
            MODEL, DistillConfig(mode="baseline"), train, task, 3, 210)
        sda_state, sda_losses = run_steps(
            MODEL, DistillConfig(mode="sda", lam=0.0, teacher_size=5), train,
            task, 3, 210)
        assert [c for c, _ in base_losses] == [c for c, _ in sda_losses]
        for name in base_state.params:
            np.testing.assert_array_equal(base_state.params[name].data,
                                          sda_state.params[name].data)

    def test_lambda_zero_sdv_is_bitwise_baseline(self):
        task = small_task(n_train=120)
        train = TrainConfig(epochs=3, micro_batch=4, accum_steps=1)
        base_state, base_losses = run_steps(
            MODEL, DistillConfig(mode="baseline"), train, task, 3, 60)
        sdv_state, sdv_losses = run_steps(
            MODEL, DistillConfig(mode="sdv", lam=0.0, teacher_size=3), train,
            task, 3, 60)
        assert [c for c, _ in base_losses] == [c for c, _ in sdv_losses]
        for name in base_state.params:
            np.testing.assert_array_equal(base_state.params[name].data,
                                          sdv_state.params[name].data)

    def test_sdv_k1_equals_sda_k1_per_step_losses(self):
        task = small_task(n_train=120)
        train = TrainConfig(epochs=3, micro_batch=4, accum_steps=1)
        _, sda_losses = run_steps(
            MODEL, DistillConfig(mode="sda", lam=1.0, teacher_size=1), train,
            task, 3, 60)
        _, sdv_losses = run_steps(
            MODEL, DistillConfig(mode="sdv", lam=1.0, teacher_size=1), train,
            task, 3, 60)
        for (ce_a, mse_a), (ce_v, mse_v) in zip(sda_losses, sdv_losses):
            assert ce_a == pytest.approx(ce_v, abs=1e-9)
            assert mse_a == pytest.approx(mse_v, abs=1e-9)


def test_evaluate_rejects_a_row_without_a_real_token(monkeypatch):
    """No tokenized example has an empty mask (CLS is always real), so the
    batches are emptied on the way in, to show the error reaches the caller."""
    task = small_task(n_train=16, n_test=16)

    def emptied(*args, **kwargs):
        for batch in iter_batches(*args, **kwargs):
            batch.mask[-1] = 0.0
            yield batch

    monkeypatch.setattr(distill, "iter_batches", emptied)
    with pytest.raises(InputError, match="row 7 has no real token"):
        evaluate_params(init_params(MODEL, seed=0), MODEL, task.test,
                        task.vocab, batch_size=8)


class TestTrainStep:
    def test_first_sda_step_has_zero_mse_without_dropout(self):
        task = small_task()
        state = make_train_state(MODEL_NODROP,
                                 DistillConfig(mode="sda", teacher_size=1),
                                 TrainConfig(epochs=1, micro_batch=4),
                                 n_train=len(task.train), seed=9)
        batch = make_batch(task.train.examples[:4], task.vocab, MODEL.max_len)
        (metrics,) = train_step(state, [batch])
        assert metrics.mse == 0.0
        assert metrics.ce > 0.0

    def test_frozen_teacher_keeps_gradient_name_set(self):
        """Perturbing the teacher changes the loss but not who gets gradients."""
        task = small_task()
        batch = make_batch(task.train.examples[:4], task.vocab, MODEL.max_len)

        def loss_and_gradnames(teacher_offset):
            state = make_train_state(MODEL_NODROP,
                                     DistillConfig(mode="sda", teacher_size=1),
                                     TrainConfig(epochs=1, micro_batch=4,
                                                 accum_steps=2),
                                     n_train=len(task.train), seed=9)
            teacher = sda_teacher(state)
            teacher.flat += teacher_offset
            tape = Tape()
            t_logits = classify(teacher, batch, MODEL_NODROP)
            s_logits = classify(state.params, batch, MODEL_NODROP, tape=tape)
            total, _, _ = sda_loss(s_logits, t_logits, batch.labels, 1.0)
            grads = ad.backward(total, tape)
            named = {n for n, t in state.params.items() if t in grads}
            return total.item(), named

        loss_a, names_a = loss_and_gradnames(0.0)
        loss_b, names_b = loss_and_gradnames(0.05)
        assert loss_a != loss_b
        assert names_a == names_b

    def test_snapshot_cadence(self):
        task = small_task(n_train=64)
        state = make_train_state(MODEL,
                                 DistillConfig(mode="sda", teacher_size=10,
                                               snapshot_every=2),
                                 TrainConfig(epochs=1, micro_batch=4,
                                             accum_steps=1),
                                 n_train=64, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(6):
            train_step(state, [small_batch(rng)])
        # seeded theta_0 plus one absorption per 2 optimizer steps
        assert state.ring.insertions == 1 + 3

    def test_divergence_guard(self):
        task = small_task()
        state = make_train_state(MODEL_NODROP, DistillConfig(mode="baseline"),
                                 TrainConfig(epochs=1, micro_batch=4),
                                 n_train=len(task.train), seed=9)
        state.params["head.W"].data[...] = np.nan
        batch = make_batch(task.train.examples[:4], task.vocab, MODEL.max_len)
        from selfdistill.errors import DivergenceError
        with pytest.raises(DivergenceError):
            train_step(state, [batch])

    def test_dropout_ignores_the_width_of_the_batch_before(self):
        """Each micro-batch's masks are keyed by its index: the second
        micro-batch's loss is the same after a first of 12 or 7 columns.
        Both run in one optimizer step, so both read the same parameters."""
        rng = np.random.default_rng(8)
        second = small_batch(rng)
        ces = []
        for width in (12, 7):
            state = make_train_state(MODEL, DistillConfig(),
                                     TrainConfig(epochs=1, micro_batch=4,
                                                 accum_steps=8),
                                     n_train=32, seed=5)
            first = Batch(token_ids=rng.integers(4, MODEL.vocab_size,
                                                 size=(4, width)),
                          mask=np.ones((4, width)),
                          labels=rng.integers(0, 4, 4))
            ces.append(train_step(state, [first, second])[1].ce)
            assert state.opt.t == 1
        assert ces[0] == ces[1]


class TestGradientAccumulation:
    """train_step's flat gradient buffer against adamw_step on gradients
    flattened and averaged by hand, bit for bit; a short group (an epoch's
    last) averages over its own length."""

    @staticmethod
    def _hand_grads(params, batch, rng):
        tape = Tape()
        logits = classify(params, batch, MODEL, train_mode=True, tape=tape,
                          rng=rng)
        grads = ad.backward(ad.cross_entropy(logits, batch.labels), tape)
        return np.concatenate([grads[params[slot.name]].ravel()
                               for slot in params.layout])

    @pytest.mark.parametrize("n_micro", [2, 1])
    def test_one_optimizer_step_matches_hand_averaged_gradients(
            self, n_micro):
        task = small_task()
        state = make_train_state(MODEL, DistillConfig(),
                                 TrainConfig(epochs=1, micro_batch=4,
                                             accum_steps=2),
                                 n_train=len(task.train), seed=3)
        params = state.params.copy()
        opt = copy.deepcopy(state.opt)
        batches = [make_batch(task.train.examples[4 * i:4 * i + 4], task.vocab,
                              MODEL.max_len) for i in range(n_micro)]
        # micro-batch i draws its dropout from its own generator
        hand = [self._hand_grads(params, batch,
                                 np.random.default_rng([state.seed, 1, i]))
                for i, batch in enumerate(batches)]
        lr = adamw_step(params, sum(hand[1:], hand[0]) / n_micro, opt)

        points = train_step(state, batches)
        assert state.opt.t == 1
        assert [point.lr for point in points] == [lr] * n_micro
        assert state.params.flat.tobytes() == params.flat.tobytes()
        assert state.opt.m.tobytes() == opt.m.tobytes()
        assert state.opt.v.tobytes() == opt.v.tobytes()
        assert not state.grad_sum.any()


@pytest.mark.usefixtures("no_child_left")
class TestOneOptimizerStep:
    """train_step takes one optimizer step's micro-batches, 1 to
    accum_steps of them, with or without the step worker."""

    TRAIN = TrainConfig(epochs=1, micro_batch=4, accum_steps=3)
    CONFIG = DistillConfig(mode="sda", teacher_size=2)

    def state(self):
        return make_train_state(MODEL, self.CONFIG, self.TRAIN, n_train=24,
                                seed=3)

    @staticmethod
    def batches(n):
        task = small_task(n_train=24)
        return list(iter_batches(task.train, task.vocab, MODEL.max_len, 4))[:n]

    @staticmethod
    def recording(monkeypatch, worker, jobs):
        """Record each job ``worker`` is sent, then send it."""
        request = worker.request

        def recorded(*job):
            jobs.append(job)
            request(*job)

        monkeypatch.setattr(worker, "request", recorded)

    @pytest.mark.parametrize("n", [0, 4])
    @pytest.mark.parametrize("use_worker", [False, True],
                             ids=["in_process", "worker"])
    def test_a_group_outside_1_to_accum_steps_is_a_usage_error(
            self, monkeypatch, n, use_worker):
        state = self.state()
        batches = self.batches(n)
        worker = distill.StepWorker(state) if use_worker else None
        jobs, forwards = [], []
        if worker is not None:
            self.recording(monkeypatch, worker, jobs)
        monkeypatch.setattr(distill, "classify",
                            lambda *args, **kw: forwards.append(args))
        try:
            with pytest.raises(UsageError, match=f"takes 1 to 3 micro-batches, "
                                                 f"got {n}$"):
                train_step(state, batches, worker)
        finally:
            if worker is not None:
                worker.close(state)
        assert jobs == [] and forwards == []
        assert state.opt.t == 0 and state.counters["student_forwards"] == 0
        assert not state.grad_sum.any()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_group_gives_the_same_bytes_with_and_without_a_worker(
            self, monkeypatch, n):
        """Two steps of ``n`` micro-batches, with dropout: the second reads
        the sda teacher the first one's snapshot made. The worker runs the
        last ``n // 2`` micro-batches of each; a group of 1 sends it none."""
        batches = self.batches(2 * n)
        runs, jobs = [], []
        for use_worker in (False, True):
            state = self.state()
            worker = distill.StepWorker(state) if use_worker else None
            if worker is not None:
                self.recording(monkeypatch, worker, jobs)
            try:
                points = [train_step(state, batches[:n], worker),
                          train_step(state, batches[n:], worker)]
            finally:
                if worker is not None:
                    worker.close(state)
            runs.append((points, state.params.flat.tobytes(),
                         state.opt.m.tobytes(), state.opt.v.tobytes(),
                         state.counters))
        assert runs[0] == runs[1]
        assert [point.step for step in runs[0][0] for point in step] == list(
            range(2 * n))
        assert jobs == [("step", 0, (n + 1) // 2, batches[(n + 1) // 2:n]),
                        ("step", 1, n + (n + 1) // 2,
                         batches[n + (n + 1) // 2:])]


@pytest.mark.usefixtures("no_child_left", "eval_batches_of_8")
class TestUpdateInHalves:
    """With a step worker, each process adds up the gradients on, averages
    and updates one half of the flat vectors; errors on either side leave
    the worker's message stream in step."""

    TRAIN = TrainConfig(epochs=2, micro_batch=4, accum_steps=3)

    @staticmethod
    def task():
        return small_task(n_train=24, n_test=20)

    def state(self, task, config=DistillConfig()):
        state = make_train_state(MODEL, config, self.TRAIN,
                                 n_train=len(task.train), seed=3)
        state.task = task
        return state

    @staticmethod
    def groups(task):
        batches = list(iter_batches(task.train, task.vocab, MODEL.max_len, 4))
        return [batches[:3], batches[3:5], batches[5:6]]

    def test_close_copies_the_run_arrays_into_its_private_ones(self):
        """Steps of 3, 2 and 1 micro-batches: during the run grad_sum, m and
        v live in the mapping; after close they are the arrays the run
        started with, holding the in-process run's bytes."""
        task = self.task()
        runs = []
        for use_worker in (False, True):
            state = self.state(task, DistillConfig(mode="sda", teacher_size=2))
            private = (state.grad_sum, state.opt.m, state.opt.v)
            worker = distill.StepWorker(state) if use_worker else None
            try:
                for group in self.groups(task):
                    train_step(state, group, worker)
                if worker is not None:
                    mapping = mapping_of(worker.grads)
                    assert all(mapping_of(array) is mapping for array in
                               (state.grad_sum, state.opt.m, state.opt.v))
            finally:
                if worker is not None:
                    worker.close(state)
            arrays = (state.grad_sum, state.opt.m, state.opt.v)
            assert all(array is kept and array.base is None
                       for array, kept in zip(arrays, private))
            runs.append([state.params.flat.tobytes(), state.opt.t,
                         *(array.tobytes() for array in arrays)])
        assert runs[0] == runs[1]
        assert not np.frombuffer(runs[1][2]).any()   # grad_sum, zeroed

    def test_divergence_in_this_processs_micro_batch_reads_as_in_process(
            self, monkeypatch):
        """The third micro-batch of the epoch is the first of step 1, which
        the training process runs; the worker, left at the barrier, exits 0
        when the run closes its pipe."""
        task = small_task(n_train=44, n_test=20)
        train = TrainConfig(epochs=1, micro_batch=4, accum_steps=2)
        order = distill.permutation_with_seed(len(task.train), [6, 0])
        target = list(iter_batches(task.train, task.vocab, MODEL.max_len, 4,
                                   order))[2].token_ids.tobytes()
        classify_ = distill.classify
        parent = os.getpid()
        ran_in, workers, messages = [], [], []

        def diverging(params, batch, model, train_mode=False, **kw):
            out = classify_(params, batch, model, train_mode=train_mode, **kw)
            if train_mode and batch.token_ids.tobytes() == target:
                ran_in.append(os.getpid() == parent)
                return ad.mul(out, np.nan)
            return out

        def recording(state):
            workers.append(distill.StepWorker(state))
            return workers[-1]

        monkeypatch.setattr(distill, "classify", diverging)
        for start in (lambda state: None, recording):
            monkeypatch.setattr(distill, "start_step_worker", start)
            with pytest.raises(DivergenceError) as caught:
                fine_tune(MODEL, DistillConfig(mode="sda", teacher_size=3),
                          train, task, seed=6)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("non-finite loss at optimizer step 1 ")
        assert ran_in == [True, True]
        assert workers[0].exitcode == 0

    def test_after_an_error_in_its_micro_batch_the_worker_reads_the_next_job(
            self, monkeypatch):
        """The worker's micro-batch diverges: it still reads the training
        process's "gradients in" message, so the next request, an
        evaluation, is answered as in one process."""
        task = self.task()
        (group, *_) = self.groups(task)
        target = group[-1].token_ids.tobytes()   # the worker's micro-batch
        classify_ = distill.classify

        def diverging(params, batch, model, train_mode=False, **kw):
            out = classify_(params, batch, model, train_mode=train_mode, **kw)
            if train_mode and batch.token_ids.tobytes() == target:
                return ad.mul(out, np.nan)
            return out

        monkeypatch.setattr(distill, "classify", diverging)
        state = self.state(task)
        worker = distill.StepWorker(state)
        try:
            with pytest.raises(DivergenceError, match="optimizer step 0 "):
                train_step(state, group, worker)
            assert state.opt.t == 0
            assert (evaluate_params(state.params, MODEL, task.test, task.vocab,
                                    8, worker)
                    == evaluate_params(state.params, MODEL, task.test,
                                       task.vocab, 8))
        finally:
            worker.close(state)
        assert worker.exitcode == 0

    def test_a_worker_lost_before_the_barrier_is_an_error_naming_its_exit(
            self, monkeypatch):
        """The worker dies while the training process trains its own
        micro-batches, so the "gradients in" message meets a closed pipe."""
        task = self.task()
        state = self.state(task)
        worker = distill.StepWorker(state)
        micro_batch = distill._micro_batch

        def killing(*args):
            os.kill(worker.pid, signal.SIGKILL)
            # wait for the exit without reaping it, so _lost reads its status
            os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)
            return micro_batch(*args)

        monkeypatch.setattr(distill, "_micro_batch", killing)
        try:
            with pytest.raises(SelfDistillError, match="exited with code -9"):
                train_step(state, self.groups(task)[0], worker)
        finally:
            worker.close(state)


def teacher_bytes(state):
    """Every held slot and the teacher by bytes, with the ring's insertion
    count or the running mean's count."""
    if state.ring is not None:
        slots = [slot.flat.tobytes() for slot in state.ring.snapshots()]
        counted = state.ring.insertions
    else:
        slots, counted = [], state.rmean.count
    teacher = None if state.teacher is None else state.teacher.flat.tobytes()
    return slots, teacher, counted


TEACHER_CONFIGS = [
    DistillConfig(mode="sda", teacher_size=3, snapshot_every=2),
    DistillConfig(mode="sda", teacher_size=TEACHER_ALL, snapshot_every=2),
    DistillConfig(mode="sdv", teacher_size=3, snapshot_every=2),
]
TEACHER_IDS = ["sda3", "sda_all", "sdv3"]


@pytest.mark.usefixtures("no_child_left")
class TestTeacherStateInHalves:
    """With a step worker, the teacher state's rows live in the shared
    mapping, and each process absorbs its half of a snapshot right after
    its AdamW half; ``close`` moves the rows back to private memory."""

    TRAIN = TrainConfig(epochs=2, micro_batch=4, accum_steps=3)

    def state(self, config):
        return make_train_state(MODEL, config, self.TRAIN, n_train=44, seed=3)

    @staticmethod
    def groups():
        """Eleven micro-batches in steps of 3, 3, 3 and 2, twice over."""
        task = small_task(n_train=44)
        batches = list(iter_batches(task.train, task.vocab, MODEL.max_len, 4))
        return 2 * [batches[i:i + 3] for i in range(0, len(batches), 3)]

    @pytest.mark.parametrize("config", TEACHER_CONFIGS, ids=TEACHER_IDS)
    def test_every_step_equals_the_in_process_step(self, config):
        """Eight steps, a snapshot after every second: the ring warms in
        and evicts. After every step and after close, every slot, the
        teacher and the counts hold the in-process bytes."""
        runs = []
        for use_worker in (False, True):
            state = self.state(config)
            worker = distill.StepWorker(state) if use_worker else None
            seen = []
            try:
                for group in self.groups():
                    train_step(state, group, worker)
                    seen.append(teacher_bytes(state))
            finally:
                if worker is not None:
                    worker.close(state)
            seen.append(teacher_bytes(state))
            runs.append(seen)
        assert runs[0] == runs[1]
        assert runs[0][-1][2] == 1 + 4

    @pytest.mark.parametrize("config", TEACHER_CONFIGS, ids=TEACHER_IDS)
    def test_nothing_views_the_mapping_after_close(self, config):
        state = self.state(config)
        worker = distill.StepWorker(state)
        mapping = mapping_of(worker.grads)
        held = state.teacher_state
        try:
            assert mapping_of(held.rows) is mapping
            for group in self.groups()[:2]:
                train_step(state, group, worker)
        finally:
            worker.close(state)
        arrays = [held.rows, state.params.flat, state.grad_sum, state.opt.m,
                  state.opt.v]
        if state.ring is not None:
            arrays += [slot.flat for slot in state.ring.snapshots()]
        if state.teacher is not None:
            arrays.append(state.teacher.flat)
        assert all(mapping_of(array) is not mapping for array in arrays)

    @pytest.mark.parametrize("config", TEACHER_CONFIGS[:2], ids=TEACHER_IDS[:2])
    def test_fine_tune_returns_a_teacher_of_its_own(self, monkeypatch,
                                                    config):
        """The returned teacher owns its vector, and with the collector off
        the mapping is gone once fine_tune returns."""
        mappings = []

        def mapped(state):
            worker = distill.StepWorker(state)
            mappings.append(weakref.ref(mapping_of(worker.grads)))
            return worker

        monkeypatch.setattr(distill, "start_step_worker", mapped)
        gc.disable()
        try:
            result = fine_tune(MODEL, config, self.TRAIN,
                               small_task(n_train=24, n_test=8), seed=1)
            assert len(mappings) == 1 and mappings[0]() is None
        finally:
            gc.enable()
        assert result.teacher.flat.base is None


class TestFineTune:
    def test_zero_epochs_returns_initial_params_and_empty_curves(self):
        task = small_task()
        result = fine_tune(MODEL, DistillConfig(mode="baseline"),
                           TrainConfig(epochs=0), task, seed=4)
        init = init_params(MODEL, seed=4)
        for name in init:
            np.testing.assert_array_equal(result.student[name].data,
                                          init[name].data)
        assert result.report.epoch_curve == []
        assert result.report.step_curve == []

    def test_baseline_converges_on_separable_data(self):
        """Linearly separable synthetic data: train error -> 0 within 5 epochs."""
        task = small_task(noise=0.0, n_train=240, n_test=80)
        result = fine_tune(MODEL, DistillConfig(mode="baseline"),
                           TrainConfig(epochs=5, micro_batch=8, accum_steps=1,
                                       lr_encoder=3e-3, lr_head=0.15),
                           task, seed=0)
        _, train_err = evaluate_params(result.student, MODEL, task.train,
                                       task.vocab)
        assert train_err <= 0.02

    @pytest.mark.parametrize("n_classes", [1, 5])
    def test_class_count_mismatch_is_config_error_before_any_work(
            self, n_classes, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("fine_tune started work")

        monkeypatch.setattr(distill, "make_train_state", no_work)
        model = ModelConfig(vocab_size=120, max_len=12, dim=16, n_layers=1,
                            n_heads=2, ffn_dim=32, n_classes=n_classes)
        with pytest.raises(ConfigError, match="n_classes"):
            fine_tune(model, DistillConfig(mode="baseline"),
                      TrainConfig(epochs=1), small_task(n_train=16, n_test=8),
                      seed=0)

    @pytest.mark.parametrize("field", ["seed", "data_seed"])
    def test_negative_seed_is_config_error_before_any_work(self, field,
                                                            monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("fine_tune started work")

        monkeypatch.setattr(distill, "make_train_state", no_work)
        seeds = {"seed": 0, field: -1}
        with pytest.raises(ConfigError, match=f"^{field}: a seed must be >= 0"):
            fine_tune(MODEL, DistillConfig(mode="baseline"),
                      TrainConfig(epochs=1), small_task(n_train=16, n_test=8),
                      **seeds)

    def test_best_dev_without_dev_split_is_config_error(self):
        with pytest.raises(ConfigError, match="dev split"):
            fine_tune(MODEL, DistillConfig(mode="baseline"),
                      TrainConfig(epochs=1, select_by="best_dev"),
                      small_task(n_train=64, n_test=32), seed=0)

    def test_best_dev_reports_the_selected_epoch(self):
        task = small_task(n_train=64, n_test=32)
        task.splits["dev"] = task.test
        result = fine_tune(MODEL, DistillConfig(mode="baseline"),
                           TrainConfig(epochs=2, micro_batch=8,
                                       select_by="best_dev"),
                           task, seed=0)
        assert result.report.config["selected_epoch"] in (0, 1)

    def test_final_student_reuses_the_last_epoch_evaluation(self, monkeypatch):
        calls = []
        real = distill.evaluate_params

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(distill, "evaluate_params", counted)
        result = fine_tune(MODEL, DistillConfig(mode="baseline"),
                           TrainConfig(epochs=3, micro_batch=8),
                           small_task(n_train=48, n_test=24), seed=0)
        last = result.report.epoch_curve[-1]
        assert result.report.final_student == {
            "test_accuracy": last.test_accuracy, "test_error": last.test_error}
        assert len(calls) == 3

    @pytest.mark.parametrize("dev_accs,selected", [((0.9, 0.5), 0),
                                                   ((0.5, 0.9), 1)])
    def test_best_dev_reuses_the_selected_epoch_evaluation(
            self, monkeypatch, dev_accs, selected):
        task = small_task(n_train=48, n_test=24)
        task.splits["dev"] = DatasetSplit(list(task.test.examples),
                                          task.test.n_classes)
        scripted = iter(dev_accs)
        evaluated = []

        def fake(params, config, split, vocab, batch_size=64, worker=None):
            if split is task.dev:
                acc = next(scripted)
            else:  # a distinct test accuracy per epoch
                evaluated.append(params.copy())
                acc = 0.1 * len(evaluated)
            return acc, 1.0 - acc

        monkeypatch.setattr(distill, "evaluate_params", fake)
        result = fine_tune(MODEL_NODROP, DistillConfig(mode="baseline"),
                           TrainConfig(epochs=2, micro_batch=8,
                                       select_by="best_dev"),
                           task, seed=0)
        assert result.report.config["selected_epoch"] == selected
        assert len(evaluated) == 2
        point = result.report.epoch_curve[selected]
        assert point.test_accuracy == pytest.approx(0.1 * (selected + 1))
        assert result.report.final_student == {
            "test_accuracy": point.test_accuracy, "test_error": point.test_error}
        # the reused metrics belong to the parameters returned
        for name, t in result.student.items():
            np.testing.assert_array_equal(t.data, evaluated[selected][name].data)
        assert any(not np.array_equal(a.data, b.data) for (_, a), (_, b)
                   in zip(evaluated[0].items(), evaluated[1].items()))

    def test_determinism_same_seeds_same_report(self):
        task = small_task(n_train=64, n_test=32)
        cfgs = (MODEL, DistillConfig(mode="sda", teacher_size=2),
                TrainConfig(epochs=2, micro_batch=8))
        r1 = fine_tune(*cfgs, task, seed=5, data_seed=11)
        r2 = fine_tune(*cfgs, task, seed=5, data_seed=11)
        assert r1.report.to_dict() == r2.report.to_dict()
        for name in r1.student:
            np.testing.assert_array_equal(r1.student[name].data,
                                          r2.student[name].data)

    def test_forward_pass_counters(self):
        """Student forwards = micro-batches; sdv teacher forwards = K per batch."""
        import math
        task = small_task(n_train=60, n_test=20)
        train = TrainConfig(epochs=2, micro_batch=8, accum_steps=2)
        micro = math.ceil(60 / 8) * 2

        r_base = fine_tune(MODEL, DistillConfig(mode="baseline"), train, task,
                           seed=1)
        assert r_base.report.counters["student_forwards"] == micro
        assert r_base.report.counters["teacher_forwards"] == 0

        r_sda = fine_tune(MODEL, DistillConfig(mode="sda", teacher_size=5),
                          train, task, seed=1)
        assert r_sda.report.counters["student_forwards"] == micro
        assert r_sda.report.counters["teacher_forwards"] == micro

        r_sdv = fine_tune(MODEL, DistillConfig(mode="sdv", teacher_size=1),
                          train, task, seed=1)
        assert r_sdv.report.counters["student_forwards"] == micro
        assert r_sdv.report.counters["teacher_forwards"] == micro

    def test_sdv_counter_tracks_ring_warm_in(self):
        """With accum 1, the ring grows one snapshot per step up to K, so the
        teacher pays min(1 + step, K) forwards at each micro-batch."""
        task = small_task(n_train=40, n_test=20)
        train = TrainConfig(epochs=1, micro_batch=8, accum_steps=1)
        k = 3
        result = fine_tune(MODEL, DistillConfig(mode="sdv", teacher_size=k),
                           train, task, seed=1)
        n_micro = 5
        expected = sum(min(1 + i, k) for i in range(n_micro))
        assert result.report.counters["teacher_forwards"] == expected

    def test_epoch_checkpoints(self, tmp_path):
        from selfdistill.encoder import load_params
        task = small_task(n_train=48, n_test=24)
        result = fine_tune(MODEL, DistillConfig(mode="baseline"),
                           TrainConfig(epochs=2, micro_batch=8), task, seed=3,
                           checkpoint_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["epoch_000.ckpt", "epoch_001.ckpt"]
        final = load_params(tmp_path / "epoch_001.ckpt")
        for name in final:
            np.testing.assert_array_equal(final[name].data,
                                          result.student[name].data)

    def test_sda_reports_teacher_metrics(self):
        task = small_task(n_train=64, n_test=32)
        result = fine_tune(MODEL, DistillConfig(mode="sda", teacher_size=2),
                           TrainConfig(epochs=1, micro_batch=8), task, seed=2)
        assert result.teacher is not None
        assert set(result.report.final_teacher) == {"test_accuracy",
                                                    "test_error"}
        baseline = fine_tune(MODEL, DistillConfig(mode="baseline"),
                             TrainConfig(epochs=1, micro_batch=8), task, seed=2)
        assert baseline.teacher is None
        assert baseline.report.final_teacher is None

    def test_empty_train_split_rejected(self):
        task = small_task(n_train=64, n_test=32)
        task.splits["train"].examples = []
        with pytest.raises(InputError):
            fine_tune(MODEL, DistillConfig(), TrainConfig(epochs=1), task, 0)

    def test_report_invariants(self):
        task = small_task(n_train=64, n_test=32)
        result = fine_tune(MODEL, DistillConfig(mode="sda", teacher_size=2),
                           TrainConfig(epochs=3, micro_batch=8), task, seed=2)
        report = result.report
        assert len(report.epoch_curve) == 3
        for p in report.epoch_curve:
            assert p.test_accuracy + p.test_error == pytest.approx(1.0,
                                                                   abs=1e-9)
        fs = report.final_student
        assert fs["test_accuracy"] + fs["test_error"] == pytest.approx(1.0,
                                                                       abs=1e-9)
