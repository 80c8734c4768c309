"""Schedule, AdamW update, and gradient accumulation tests.

The AdamW trajectory is checked against an independent scripted reference
implementation on a 1-D quadratic, and the flat update against the
per-tensor loop it replaced, bit for bit.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from selfdistill.autodiff import Tensor
from selfdistill.distill import TrainConfig
from selfdistill.encoder import ModelConfig, ParameterSet, init_params
from selfdistill.errors import ConfigError, ContractError
from selfdistill.optim import (
    BETA1,
    BETA2,
    EPS,
    OptimState,
    accumulate,
    adamw_step,
    decay_applies,
    lr_at,
)

from test_acceptance import STABILITY_MODEL


class TestLrSchedule:
    def test_ramp_start(self):
        assert lr_at(0, 100, 1.0, 0.1) == 0.0

    def test_ramp_peak(self):
        assert lr_at(10, 100, 1.0, 0.1) == pytest.approx(1.0)

    def test_decay_end(self):
        assert lr_at(100, 100, 1.0, 0.1) == 0.0

    def test_piecewise_linear_and_max_is_base(self):
        total, base, warm = 200, 0.37, 0.1
        values = [lr_at(s, total, base, warm) for s in range(total + 1)]
        assert max(values) == pytest.approx(base)
        # linear on each side of the peak
        peak = int(warm * total)
        left = np.diff(values[: peak + 1])
        right = np.diff(values[peak:])
        np.testing.assert_allclose(left, left[0], atol=1e-12)
        np.testing.assert_allclose(right, right[0], atol=1e-12)

    def test_beyond_total_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="clamping"):
            assert lr_at(101, 100, 1.0, 0.1) == 0.0

    def test_invalid_warmup(self):
        with pytest.raises(ConfigError):
            lr_at(5, 100, 1.0, 0.0)


def single_param(value, name="w.W"):
    return ParameterSet({name: Tensor(value)})


def flat_grads(params: ParameterSet, by_name: dict) -> np.ndarray:
    """A name -> gradient map as one flat vector, through ``accumulate``."""
    into = np.zeros_like(params.flat)
    accumulate(params, {params[n]: g for n, g in by_name.items()}, into)
    return into


class TestAdamW:
    def test_zero_grads_decay_shrinks_multiplicatively(self):
        params = single_param([2.0, -4.0])
        state = OptimState.init(params, 10, TrainConfig(
            lr_encoder=0.1, lr_head=0.1, weight_decay=0.5))
        lr = adamw_step(params, np.zeros(2), state)
        np.testing.assert_allclose(params["w.W"].data,
                                   np.array([2.0, -4.0]) * (1 - lr * 0.5),
                                   rtol=1e-15)

    def test_first_step_magnitude_is_about_lr(self):
        """Bias correction makes the first update ~lr*sign(g) per coordinate."""
        params = single_param([0.0, 0.0])
        state = OptimState.init(params, 10, TrainConfig(
            lr_encoder=0.01, lr_head=0.01, weight_decay=0.0))
        g = np.array([3.0, -0.25])
        lr = adamw_step(params, g, state)
        np.testing.assert_allclose(np.abs(params["w.W"].data), lr, rtol=1e-6)
        assert np.all(np.sign(params["w.W"].data) == -np.sign(g))

    def test_hundred_steps_match_scripted_reference(self):
        """Independent AdamW on f(w) = 0.5*(w-3)^2, tol 1e-10."""
        beta1, beta2, eps, wd = 0.9, 0.999, 1e-8, 0.01
        total, base_lr, warm = 100, 0.05, 0.1

        # scripted reference, plain floats
        w_ref, m_ref, v_ref = 10.0, 0.0, 0.0
        for t in range(1, total + 1):
            g = w_ref - 3.0
            lr = lr_at(t, total, base_lr, warm)
            m_ref = beta1 * m_ref + (1 - beta1) * g
            v_ref = beta2 * v_ref + (1 - beta2) * g * g
            mhat = m_ref / (1 - beta1 ** t)
            vhat = v_ref / (1 - beta2 ** t)
            w_ref -= lr * mhat / (np.sqrt(vhat) + eps)
            w_ref -= lr * wd * w_ref

        params = single_param([10.0])
        state = OptimState.init(params, total, TrainConfig(
            lr_encoder=base_lr, lr_head=base_lr, warmup_prop=warm,
            weight_decay=wd))
        for _ in range(total):
            g = params["w.W"].data - 3.0
            adamw_step(params, g.copy(), state)
        assert params["w.W"].data[0] == pytest.approx(w_ref, abs=1e-10)

    def test_zero_lr_zero_decay_is_noop(self):
        params = single_param([1.0, 2.0])
        state = OptimState.init(params, 10, TrainConfig(
            lr_encoder=0.0, lr_head=0.0, weight_decay=0.0))
        adamw_step(params, np.array([5.0, -5.0]), state)
        np.testing.assert_array_equal(params["w.W"].data, [1.0, 2.0])

    def test_gradient_vector_shape_contract(self):
        params = single_param([1.0])
        state = OptimState.init(params, 10, TrainConfig(lr_encoder=0.1,
                                                        lr_head=0.1))
        with pytest.raises(ContractError, match="does not match"):
            adamw_step(params, np.zeros(2), state)
        assert state.t == 0

    def test_step_counter_increments_by_one(self):
        params = single_param([1.0])
        state = OptimState.init(params, 10, TrainConfig(lr_encoder=0.1,
                                                        lr_head=0.1))
        for expected in (1, 2, 3):
            adamw_step(params, np.ones(1), state)
            assert state.t == expected

    def test_head_group_uses_head_lr(self):
        cfg = ModelConfig(vocab_size=20, max_len=4, dim=4, n_layers=1,
                          n_heads=1, ffn_dim=8, n_classes=2, dropout_p=0.0)
        params = init_params(cfg, seed=0)
        state = OptimState.init(params, 10, TrainConfig(
            lr_encoder=0.0, lr_head=1.0, weight_decay=0.0))
        before = params["tok_emb"].data.copy()
        grads = {n: np.ones_like(t.data) for n, t in params.items()}
        adamw_step(params, flat_grads(params, grads), state)
        np.testing.assert_array_equal(params["tok_emb"].data, before)
        assert not np.allclose(params["head.W"].data,
                               init_params(cfg, seed=0)["head.W"].data)


class TestAdamWInHalves:
    """The training process and the step worker each update one half of
    the flat vector: ``[0, h)`` then ``[h, size)`` with the same step
    counter writes the bytes of one whole-vector step."""

    MODEL = ModelConfig(vocab_size=20, max_len=4, dim=4, n_layers=1,
                        n_heads=1, ffn_dim=8, n_classes=2, dropout_p=0.0)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_every_split_point_gives_the_whole_step_bit_for_bit(
            self, weight_decay):
        """Every h from 0 to size, so every h at, just before and just
        after each learning-rate and decay run's boundary."""
        params = init_params(self.MODEL, seed=0)
        state = OptimState.init(params, 10, TrainConfig(
            lr_encoder=1e-3, lr_head=5e-2, weight_decay=weight_decay))
        size = params.flat.size
        bounds = {edge for start, stop, _ in state.lr_runs + state.decay_runs
                  for edge in (start, stop)}
        assert len(state.lr_runs) == 2 and len(bounds - {0, size}) > 4
        rng = np.random.default_rng(0)
        adamw_step(params, rng.normal(size=size), state)   # m, v nonzero
        grads = rng.normal(size=size)
        whole_params, whole = params.copy(), copy.deepcopy(state)
        lr = adamw_step(whole_params, grads, whole)
        for h in range(size + 1):
            halves = params.copy()
            lower = copy.deepcopy(state)
            upper = replace(lower)   # its own counter, the same m and v
            assert adamw_step(halves, grads, lower, 0, h) == lr
            assert adamw_step(halves, grads, upper, h) == lr
            assert halves.flat.tobytes() == whole_params.flat.tobytes(), h
            assert lower.m.tobytes() == whole.m.tobytes(), h
            assert lower.v.tobytes() == whole.v.tobytes(), h
            assert lower.t == upper.t == whole.t == 2

    @pytest.mark.parametrize("lo,hi", [(-1, 1), (1, 0), (0, 3)])
    def test_a_range_outside_the_vector_is_a_contract_error(self, lo, hi):
        params = single_param([1.0, 2.0])
        state = OptimState.init(params, 10, TrainConfig(lr_encoder=0.1,
                                                        lr_head=0.1))
        with pytest.raises(ContractError, match="is not within"):
            adamw_step(params, np.ones(2), state, lo, hi)
        assert state.t == 0


class TestDecayMask:
    def test_matrices_decay_biases_do_not(self):
        assert decay_applies("tok_emb")
        assert decay_applies("enc0.attn.wq")
        assert decay_applies("head.W")
        assert not decay_applies("enc0.attn.bq")
        assert not decay_applies("enc0.ln1.g")
        assert not decay_applies("enc0.ln1.b")
        assert not decay_applies("enc0.ffn.b1")


class ReferenceAdamW:
    """The per-tensor AdamW loop that the flat update replaced."""

    def __init__(self, params: ParameterSet, state: OptimState):
        self.p = {n: t.data.copy() for n, t in params.items()}
        self.group = {s.name: s.group for s in params.layout}
        self.m = {n: np.zeros_like(a) for n, a in self.p.items()}
        self.v = {n: np.zeros_like(a) for n, a in self.p.items()}
        self.t = 0
        self.hp = state

    def step(self, grads) -> float:
        s = self.hp
        c = s.config
        self.t += 1
        t = self.t
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        lr_used = {}
        for name, p in self.p.items():
            g = grads[name]
            lr = lr_at(t, s.total_steps, s.base_lr(self.group[name]),
                       c.warmup_prop)
            lr_used[self.group[name]] = lr
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p -= lr * update
            if c.weight_decay > 0.0 and decay_applies(name):
                p -= lr * c.weight_decay * p
        return lr_used.get("encoder", 0.0)


class TestFlatAdamWMatchesPerTensorLoop:
    def test_200_steps_bit_identical_on_stability_layout(self):
        """Both groups, decayed and exempt tensors, warmup and decay."""
        params = init_params(STABILITY_MODEL, seed=0)
        groups = {s.group for s in params.layout}
        decays = {decay_applies(n) for n in params}
        assert groups == {"encoder", "head"} and decays == {True, False}
        state = OptimState.init(params, 200, TrainConfig(
            lr_encoder=1e-3, lr_head=5e-2, weight_decay=0.01))
        ref = ReferenceAdamW(params, state)
        rng = np.random.default_rng(0)
        for _ in range(200):
            grads = {n: rng.normal(0.0, 1.0, t.data.shape)
                     for n, t in params.items()}
            lr = adamw_step(params, flat_grads(params, grads), state)
            assert lr == ref.step(grads)
            for name, t in params.items():
                np.testing.assert_array_equal(t.data, ref.p[name])
        for slot in params.layout:
            np.testing.assert_array_equal(state.m[slot.offset:slot.stop],
                                          ref.m[slot.name].ravel())
            np.testing.assert_array_equal(state.v[slot.offset:slot.stop],
                                          ref.v[slot.name].ravel())


class TestAccumulate:
    def test_single_map_is_identity(self):
        params = single_param([0.0, 0.0])
        g = np.array([1.0, 2.0])
        into = np.zeros(2)
        accumulate(params, {params["w.W"]: g}, into)
        np.testing.assert_array_equal(into, g)

    def test_mean_of_equal_maps(self):
        params = single_param([0.0, 0.0])
        g = np.array([1.0, -2.0])
        into = np.zeros(2)
        for _ in range(4):
            accumulate(params, {params["w.W"]: g}, into)
        np.testing.assert_array_equal(into / 4, g)

    def test_cancellation(self):
        params = single_param([0.0])
        into = np.zeros(1)
        accumulate(params, {params["w.W"]: np.array([3.0])}, into)
        accumulate(params, {params["w.W"]: np.array([-3.0])}, into)
        np.testing.assert_array_equal(into, np.zeros(1))

    def test_shape_mismatch(self):
        """A buffer that does not line up with the parameters is rejected."""
        params = single_param([1.0])
        with pytest.raises(ContractError, match="buffer"):
            accumulate(params, {params["w.W"]: np.zeros(1)}, np.zeros(2))

    def test_empty(self):
        params = single_param([1.0])
        into = np.zeros(1)
        with pytest.raises(ContractError, match="w.W"):
            accumulate(params, {}, into)
        np.testing.assert_array_equal(into, np.zeros(1))

    def test_shape_contract(self):
        params = single_param([1.0, 2.0])
        into = np.zeros(2)
        with pytest.raises(ContractError, match="w.W"):
            accumulate(params, {params["w.W"]: np.zeros((2, 1))}, into)
        np.testing.assert_array_equal(into, np.zeros(2))

    def test_layout_order(self):
        params = init_params(ModelConfig(vocab_size=20, max_len=4, dim=4,
                                         n_layers=1, n_heads=1, ffn_dim=8,
                                         n_classes=2, dropout_p=0.0), seed=0)
        grads = {t: np.full(t.data.shape, float(i))
                 for i, (_, t) in enumerate(params.items())}
        into = np.zeros_like(params.flat)
        accumulate(params, dict(reversed(list(grads.items()))), into)
        for slot in params.layout:
            np.testing.assert_array_equal(into[slot.offset:slot.stop],
                                          grads[params[slot.name]].ravel())
