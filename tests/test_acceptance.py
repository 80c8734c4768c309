"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and runtime bound is pinned here. Oracles are materialized
brute-force recomputations independent of the streaming implementations
they check.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from selfdistill import autodiff as ad
from selfdistill.autodiff import Tensor, grad_check
from selfdistill.data import (
    SyntheticSpec,
    iter_batches,
    make_synthetic,
    permutation_with_seed,
    prepare_task,
)
from selfdistill.distill import (
    DistillConfig,
    TrainConfig,
    fine_tune,
    make_train_state,
    train_step,
)
from selfdistill.encoder import (
    ModelConfig,
    ParameterSet,
    classify,
    init_params,
    predict_proba,
)
from selfdistill.ensemble import (
    CheckpointRing,
    RunningMean,
    average_parameters,
    ring_push,
    running_mean_update,
    voted_predict,
    window_mean,
)

from conftest import record_acceptance

# the desk-scale stability task: hard enough that a plain run's final
# accuracy depends visibly on data order
STABILITY_SPEC = SyntheticSpec(n_classes=4, vocab_span=200,
                               tokens_per_example=10, signal=0.4,
                               label_noise=0.10, test_label_noise=0.0,
                               n_train=2000, n_test=1000)
STABILITY_MODEL = ModelConfig(vocab_size=400, max_len=14, dim=32, n_layers=2,
                              n_heads=2, ffn_dim=64, n_classes=4,
                              dropout_p=0.0)
STABILITY_TRAIN = TrainConfig(epochs=4, micro_batch=8, accum_steps=2)


def small_param_set(rng) -> ParameterSet:
    return ParameterSet(
        {
            "a.W": Tensor(rng.normal(0, 1, (4, 3))),
            "b.b": Tensor(rng.normal(0, 1, 5)),
        },
    )


def test_criterion_1_teacher_averaging_matches_brute_force():
    """window_mean (K in {1,2,5}) and RunningMean vs materialized means over
    a 2,000-step stream, at every step, within 1e-12 / 1e-6 relative.

    The stream records every streaming value; the oracle then recomputes
    each step's mean from the raw history (windows by direct slicing,
    cumulative means by one exact cumsum pass).
    """
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    steps = 2000
    capacities = (1, 2, 5)
    rings = {k: CheckpointRing(k) for k in capacities}
    rmean = RunningMean()
    names = list(small_param_set(rng).names())

    history = {n: [] for n in names}
    streamed_window = {k: {n: [] for n in names} for k in capacities}
    streamed_running = {n: [] for n in names}

    for _ in range(steps):
        snap = small_param_set(rng)
        for n in names:
            history[n].append(snap[n].data.copy())
        for k in capacities:
            ring_push(rings[k], snap)
            mean = window_mean(rings[k])
            for n in names:
                streamed_window[k][n].append(mean[n].data.copy())
        running_mean_update(rmean, snap)
        for n in names:
            streamed_running[n].append(rmean.mean[n].data.copy())

    worst_window, worst_running = 0.0, 0.0
    for n in names:
        raw = np.stack(history[n])                     # [steps, ...]
        flat = raw.reshape(steps, -1)
        counts = np.arange(1, steps + 1, dtype=np.float64)[:, None]
        running_oracle = np.cumsum(flat, axis=0) / counts
        got_running = np.stack(streamed_running[n]).reshape(steps, -1)
        rel = np.abs(got_running - running_oracle) / np.maximum(
            np.abs(running_oracle), 1e-30)
        worst_running = max(worst_running, float(rel.max()))
        for k in capacities:
            got = np.stack(streamed_window[k][n]).reshape(steps, -1)
            for t in range(steps):
                oracle = flat[max(0, t + 1 - k):t + 1].mean(axis=0)
                rel = np.abs(got[t] - oracle) / np.maximum(np.abs(oracle),
                                                           1e-30)
                worst_window = max(worst_window, float(rel.max()))

    elapsed = time.perf_counter() - started
    ok = worst_window < 1e-12 and worst_running < 1e-6 and elapsed < 10.0
    record_acceptance(1, "teacher averaging oracle equivalence", ok,
                      f"window={worst_window:.2e} running={worst_running:.2e} "
                      f"{elapsed:.1f}s")
    assert worst_window < 1e-12
    assert worst_running < 1e-6
    assert elapsed < 10.0


def test_criterion_2_gradient_correctness_full_encoder_sda_loss():
    """grad_check over every parameter of the full encoder stack plus the
    combined CE + 1.0*MSE loss with a frozen teacher: max rel err < 1e-4."""
    started = time.perf_counter()
    cfg = ModelConfig(vocab_size=60, max_len=10, dim=16, n_layers=2,
                      n_heads=2, ffn_dim=32, n_classes=4, dropout_p=0.0)
    params = init_params(cfg, seed=3)
    # generic parameter point: the symmetric init leaves attention gradients
    # below the finite-difference noise floor
    prng = np.random.default_rng(11)
    for name, t in params.items():
        if name.endswith(".g"):
            t.data[...] = 1.0 + prng.normal(0, 0.2, t.data.shape)
        else:
            t.data[...] = prng.normal(0, 0.3, t.data.shape)

    rng = np.random.default_rng(5)
    ids = rng.integers(4, cfg.vocab_size, size=(2, 8))
    ids[:, 0] = 2
    mask = np.ones((2, 8))
    mask[1, 6:] = 0.0
    ids[1, 6:] = 0
    from selfdistill.data import Batch
    batch = Batch(token_ids=ids, mask=mask, labels=np.array([1, 3]))
    teacher_params = init_params(cfg, seed=9)
    teacher_logits = classify(teacher_params, batch, cfg)
    assert teacher_logits.tape is None  # frozen

    def f():
        logits = classify(params, batch, cfg)
        ce = ad.cross_entropy(logits, batch.labels)
        m = ad.mse(logits, teacher_logits)
        return ad.add(ce, ad.mul(m, 1.0))

    err = grad_check(f, dict(params.items()), eps=1e-5)
    elapsed = time.perf_counter() - started
    ok = err < 1e-4 and elapsed < 60.0
    record_acceptance(2, "gradient correctness (encoder + distill loss)", ok,
                      f"max_rel_err={err:.2e} {elapsed:.1f}s")
    assert err < 1e-4
    assert elapsed < 60.0


def _drive(model, distill, train, task, seed, n_steps):
    state = make_train_state(model, distill, train, n_train=len(task.train),
                             seed=seed)
    losses = []
    epoch = 0
    while state.opt.t < n_steps:
        order = permutation_with_seed(len(task.train), [seed, epoch])
        for batch in iter_batches(task.train, task.vocab, model.max_len,
                                  train.micro_batch, order):
            (m,) = train_step(state, [batch])
            losses.append((m.ce, m.mse))
            if state.opt.t >= n_steps:
                break
        epoch += 1
    return state, losses


def test_criterion_3_weight_off_equivalence():
    """lambda=0 sda/sdv trajectories are bit-identical to baseline over 200+
    optimizer steps; sdv(K=1) and sda(K=1) losses agree within 1e-9."""
    started = time.perf_counter()
    model = ModelConfig(vocab_size=150, max_len=12, dim=16, n_layers=1,
                        n_heads=2, ffn_dim=32, n_classes=4, dropout_p=0.1)
    spec = SyntheticSpec(n_classes=4, vocab_span=100, tokens_per_example=8,
                         signal=0.7, label_noise=0.05, n_train=220, n_test=40)
    task = prepare_task(make_synthetic(spec, seed=55), vocab_size=150)
    train = TrainConfig(epochs=8, micro_batch=4, accum_steps=1)
    n_steps = 210

    base_state, base_losses = _drive(model, DistillConfig(mode="baseline"),
                                     train, task, 13, n_steps)
    sda_state, sda_losses = _drive(
        model, DistillConfig(mode="sda", lam=0.0, teacher_size=5), train,
        task, 13, n_steps)
    sdv_state, sdv_losses = _drive(
        model, DistillConfig(mode="sdv", lam=0.0, teacher_size=5), train,
        task, 13, n_steps)

    bitwise = True
    for other in (sda_state, sdv_state):
        for name in base_state.params:
            if not np.array_equal(base_state.params[name].data,
                                  other.params[name].data):
                bitwise = False
    ce_base = [c for c, _ in base_losses]
    bitwise = bitwise and ce_base == [c for c, _ in sda_losses] \
        and ce_base == [c for c, _ in sdv_losses]

    _, k1_sda = _drive(model, DistillConfig(mode="sda", lam=1.0,
                                            teacher_size=1), train, task, 13,
                       n_steps)
    _, k1_sdv = _drive(model, DistillConfig(mode="sdv", lam=1.0,
                                            teacher_size=1), train, task, 13,
                       n_steps)
    k1_gap = max(max(abs(a - b) for (a, _), (b, _) in zip(k1_sda, k1_sdv)),
                 max(abs(a - b) for (_, a), (_, b) in zip(k1_sda, k1_sdv)))

    elapsed = time.perf_counter() - started
    ok = bitwise and k1_gap < 1e-9 and elapsed < 120.0
    record_acceptance(3, "weight-off and K=1 equivalences", ok,
                      f"bitwise={bitwise} k1_gap={k1_gap:.2e} {elapsed:.0f}s")
    assert bitwise
    assert k1_gap < 1e-9
    assert elapsed < 120.0


def test_criterion_4_stability_direction():
    """10 data orders, fixed init: sda(K=5, lambda=1) must match or beat the
    plain run on mean accuracy and match or undercut its spread."""
    started = time.perf_counter()
    task = prepare_task(make_synthetic(STABILITY_SPEC, seed=1234),
                        vocab_size=STABILITY_MODEL.vocab_size)
    data_seeds = list(range(10))

    def run_all(distill):
        accs = []
        for ds in data_seeds:
            result = fine_tune(STABILITY_MODEL, distill, STABILITY_TRAIN,
                               task, seed=0, data_seed=ds)
            accs.append(result.report.final_student["test_accuracy"])
        return np.asarray(accs)

    base = run_all(DistillConfig(mode="baseline"))
    sda = run_all(DistillConfig(mode="sda", lam=1.0, teacher_size=5))

    elapsed = time.perf_counter() - started
    ok = (sda.mean() >= base.mean() and sda.std() <= base.std()
          and elapsed < 900.0)
    record_acceptance(
        4, "stability: averaged-teacher distillation vs plain run", ok,
        f"sda mean={sda.mean():.4f} std={sda.std():.4f} | "
        f"base mean={base.mean():.4f} std={base.std():.4f} | {elapsed:.0f}s")
    assert sda.mean() >= base.mean()
    assert sda.std() <= base.std()
    assert elapsed < 900.0


def test_criterion_5_averaging_beats_last_iterate():
    """Tail-averaged SGD iterate closer to the optimum than the final
    iterate on a random strongly convex quadratic, >= 9/10 seeds."""
    started = time.perf_counter()

    def trial(seed, d=20, steps=2000, alpha=0.7, c=0.5, t0=10.0, sigma=1.0):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        A = q @ np.diag(rng.uniform(0.5, 5.0, d)) @ q.T
        x_star = rng.normal(size=d)
        x = np.zeros(d)
        tail = []
        for t in range(steps):
            g = A @ (x - x_star) + sigma * rng.normal(size=d)
            x = x - c / (t + t0) ** alpha * g
            if t >= steps // 2:
                tail.append(x.copy())
        x_bar = np.mean(tail, axis=0)
        return (np.linalg.norm(x_bar - x_star), np.linalg.norm(x - x_star))

    wins = sum(1 for seed in range(10)
               if (lambda r: r[0] < r[1])(trial(seed)))
    elapsed = time.perf_counter() - started
    ok = wins >= 9 and elapsed < 10.0
    record_acceptance(5, "iterate averaging beats final iterate", ok,
                      f"wins={wins}/10 {elapsed:.1f}s")
    assert wins >= 9
    assert elapsed < 10.0


def test_criterion_6_ensemble_sanity():
    """Voted ensemble of 4 seeds never loses to its worst member; 4 identical
    members reproduce the single model's predictions exactly."""
    started = time.perf_counter()
    spec = SyntheticSpec(n_classes=4, vocab_span=200, tokens_per_example=10,
                         signal=0.5, label_noise=0.05, test_label_noise=0.0,
                         n_train=600, n_test=400)
    model = ModelConfig(vocab_size=400, max_len=14, dim=32, n_layers=2,
                        n_heads=2, ffn_dim=64, n_classes=4, dropout_p=0.1)
    train = TrainConfig(epochs=3, micro_batch=8, accum_steps=1)
    task = prepare_task(make_synthetic(spec, seed=99), vocab_size=400)

    members, individual_errors = [], []
    for seed in (0, 1, 2, 3):
        result = fine_tune(model, DistillConfig(mode="baseline"), train, task,
                           seed=seed, data_seed=seed)
        members.append(result.student)
        individual_errors.append(result.report.final_student["test_error"])

    correct = 0
    for batch in iter_batches(task.test, task.vocab, model.max_len, 64):
        _, labels = voted_predict(members, batch, model)
        correct += int((labels == batch.labels).sum())
    voted_error = 1.0 - correct / len(task.test)
    vote_ok = voted_error <= max(individual_errors)

    # identical members reproduce the single model's predictions exactly
    clones = [members[0].copy() for _ in range(4)]
    avg = average_parameters(clones)
    exact_ok = True
    for batch in iter_batches(task.test, task.vocab, model.max_len, 64):
        single = np.argmax(predict_proba(members[0], batch, model), axis=1)
        _, voted_labels = voted_predict(clones, batch, model)
        avg_labels = np.argmax(predict_proba(avg, batch, model), axis=1)
        if not (np.array_equal(voted_labels, single)
                and np.array_equal(avg_labels, single)):
            exact_ok = False

    elapsed = time.perf_counter() - started
    ok = vote_ok and exact_ok and elapsed < 600.0
    record_acceptance(
        6, "ensemble sanity (voting and parameter averaging)", ok,
        f"voted={voted_error:.4f} worst={max(individual_errors):.4f} "
        f"identical_exact={exact_ok} {elapsed:.0f}s")
    assert vote_ok
    assert exact_ok
    assert elapsed < 600.0


def test_criterion_7_loss_curve_shape():
    """First-step MSE is exactly 0 with a theta_0-seeded teacher (dropout
    off) and the initial CE is ln(n_classes) within 5% on balanced data."""
    started = time.perf_counter()
    model = ModelConfig(vocab_size=200, max_len=14, dim=32, n_layers=2,
                        n_heads=2, ffn_dim=64, n_classes=4, dropout_p=0.0)
    spec = SyntheticSpec(n_classes=4, vocab_span=150, tokens_per_example=10,
                         signal=0.6, label_noise=0.0, n_train=400, n_test=100)
    task = prepare_task(make_synthetic(spec, seed=21), vocab_size=200)
    result = fine_tune(model, DistillConfig(mode="sda", lam=1.0,
                                            teacher_size=1),
                       TrainConfig(epochs=1, micro_batch=8, accum_steps=1),
                       task, seed=2)
    first = result.report.step_curve[0]
    ce_target = math.log(model.n_classes)
    ce_rel = abs(first.ce - ce_target) / ce_target

    elapsed = time.perf_counter() - started
    ok = first.mse == 0.0 and ce_rel < 0.05 and elapsed < 120.0
    record_acceptance(7, "loss-curve shape at initialization", ok,
                      f"first_mse={first.mse} ce={first.ce:.4f} "
                      f"(ln C={ce_target:.4f}) {elapsed:.0f}s")
    assert first.mse == 0.0
    assert ce_rel < 0.05
    assert elapsed < 120.0


def test_criterion_8_cli_determinism(tmp_path):
    """The same CLI invocation writes byte-identical report files."""
    outs = [tmp_path / "r1", tmp_path / "r2"]
    argv = [
        sys.executable, "-m", "selfdistill.cli", "train",
        "--mode", "sda", "--lambda", "1.0", "--teacher-size", "2",
        "--seed", "5", "--data-seed", "6", "--dataset", "synthetic",
        "--epochs", "1", "--micro-batch", "8", "--accum-steps", "2",
        "--vocab-size", "150", "--max-len", "12", "--dim", "16",
        "--n-layers", "1", "--n-heads", "2", "--ffn-dim", "32",
    ]
    # the package's source first on the child's import path, as pytest's
    # ``pythonpath`` setting puts it on this process's
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for out in outs:
        proc = subprocess.run([*argv, "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("report.json", "curves_epoch.csv", "curves_step.csv")
    )
    record_acceptance(8, "CLI determinism (byte-identical reports)", identical)
    assert identical
