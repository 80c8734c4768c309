"""Encoder contracts: shapes, determinism, masking, gradients, checkpoints."""

from dataclasses import asdict

import numpy as np
import pytest

from selfdistill import autodiff as ad
from selfdistill.autodiff import grad_check
from selfdistill.data import Batch
from selfdistill.encoder import (
    ModelConfig,
    classify,
    encode,
    init_params,
    load_params,
    predict_proba,
    save_params,
)
from selfdistill.errors import ConfigError, InputError

TINY = ModelConfig(vocab_size=50, max_len=10, dim=8, n_layers=1, n_heads=2,
                   ffn_dim=16, n_classes=4, dropout_p=0.0)


def tiny_batch(rng, b=3, length=8, pad_from=None):
    ids = rng.integers(4, TINY.vocab_size, size=(b, length))
    ids[:, 0] = 2  # CLS
    mask = np.ones((b, length))
    if pad_from is not None:
        ids[:, pad_from:] = 0
        mask[:, pad_from:] = 0.0
    labels = rng.integers(0, TINY.n_classes, b)
    return Batch(token_ids=ids, mask=mask, labels=labels)


def generic_point(params, seed=7):
    """Move weights to a well-conditioned random point for gradient checks."""
    rng = np.random.default_rng(seed)
    for name, t in params.items():
        if name.endswith(".g"):
            t.data[...] = 1.0 + rng.normal(0, 0.2, t.data.shape)
        else:
            t.data[...] = rng.normal(0, 0.3, t.data.shape)
    return params


class TestConfig:
    def test_dim_must_divide_heads(self):
        with pytest.raises(ConfigError):
            ModelConfig(dim=10, n_heads=3)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            ModelConfig(dropout_p=1.0)

    def test_roundtrip(self):
        assert ModelConfig(**asdict(TINY)) == TINY


class TestInitParams:
    def test_deterministic_for_fixed_seed(self):
        a = init_params(TINY, seed=42)
        b = init_params(TINY, seed=42)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_seed_sensitivity(self):
        a = init_params(TINY, seed=1)
        b = init_params(TINY, seed=2)
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a)

    def test_head_shape(self):
        params = init_params(TINY, seed=0)
        assert params["head.W"].data.shape == (TINY.n_classes, TINY.dim)

    def test_group_tags(self):
        params = init_params(TINY, seed=0)
        assert params.group("head.W") == "head"
        assert params.group("tok_emb") == "encoder"
        assert all(params.group(n) == "head" or params.group(n) == "encoder"
                   for n in params)

    def test_biases_zero_gains_one(self):
        params = init_params(TINY, seed=0)
        np.testing.assert_array_equal(params["enc0.ln1.g"].data, np.ones(TINY.dim))
        np.testing.assert_array_equal(params["enc0.ffn.b1"].data,
                                      np.zeros(TINY.ffn_dim))


class TestEncode:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        params = init_params(TINY, seed=0)
        h = encode(params, tiny_batch(rng), TINY)
        assert h.data.shape == (3, TINY.dim)

    def test_eval_mode_deterministic(self):
        rng = np.random.default_rng(1)
        params = init_params(TINY, seed=0)
        batch = tiny_batch(rng)
        h1 = encode(params, batch, TINY)
        h2 = encode(params, batch, TINY)
        np.testing.assert_array_equal(h1.data, h2.data)

    def test_masked_padding_does_not_change_pooled_state(self):
        """Extending a sequence by masked pads leaves h unchanged (tol 1e-6)."""
        rng = np.random.default_rng(2)
        params = generic_point(init_params(TINY, seed=0))
        short = tiny_batch(rng, b=2, length=6)
        ids = np.zeros((2, 10), dtype=np.int64)
        mask = np.zeros((2, 10))
        ids[:, :6] = short.token_ids
        mask[:, :6] = short.mask
        padded = Batch(token_ids=ids, mask=mask, labels=short.labels)
        h_short = encode(params, short, TINY)
        h_padded = encode(params, padded, TINY)
        np.testing.assert_allclose(h_padded.data, h_short.data, atol=1e-6)

    def test_id_out_of_range(self):
        params = init_params(TINY, seed=0)
        bad = Batch(token_ids=np.full((1, 4), TINY.vocab_size, dtype=np.int64),
                    mask=np.ones((1, 4)), labels=np.array([0]))
        with pytest.raises(InputError, match="out of range"):
            encode(params, bad, TINY)

    def test_length_overflow(self):
        rng = np.random.default_rng(3)
        params = init_params(TINY, seed=0)
        with pytest.raises(InputError, match="max_len"):
            encode(params, tiny_batch(rng, length=11), TINY)

    def test_dropout_needs_rng(self):
        rng = np.random.default_rng(4)
        cfg = ModelConfig(vocab_size=50, max_len=10, dim=8, n_layers=1,
                          n_heads=2, ffn_dim=16, n_classes=4, dropout_p=0.1)
        params = init_params(cfg, seed=0)
        with pytest.raises(InputError, match="rng"):
            encode(params, tiny_batch(rng), cfg, train_mode=True)


class TestClassify:
    def test_logit_shape(self):
        rng = np.random.default_rng(5)
        params = init_params(TINY, seed=0)
        logits = classify(params, tiny_batch(rng), TINY)
        assert logits.data.shape == (3, TINY.n_classes)

    def test_zero_head_gives_uniform_probabilities(self):
        rng = np.random.default_rng(6)
        params = init_params(TINY, seed=0)
        params["head.W"].data[...] = 0.0
        batch = tiny_batch(rng)
        logits = classify(params, batch, TINY)
        np.testing.assert_array_equal(logits.data, np.zeros((3, TINY.n_classes)))
        probs = predict_proba(params, batch, TINY)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_argmax_matches_probabilities(self):
        rng = np.random.default_rng(7)
        params = generic_point(init_params(TINY, seed=0))
        batch = tiny_batch(rng, b=16)
        logits = classify(params, batch, TINY).data
        probs = predict_proba(params, batch, TINY)
        np.testing.assert_array_equal(np.argmax(logits, axis=1),
                                      np.argmax(probs, axis=1))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        params = generic_point(init_params(TINY, seed=0))
        probs = predict_proba(params, tiny_batch(rng, b=8), TINY)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_train_mode_tape_node_count(self):
        """A deterministic counter: un-fusing a primitive in encode shows here.

        Per layer 25 nodes (q 3, k 3, v 3, scores 3, mask add and softmax 2,
        context 3, output 1, two residual adds and two layer norms 4, ffn 3),
        plus 3 for the embeddings, 1 for pooling and 2 for the head.
        """
        from selfdistill.autodiff import Tape
        from test_acceptance import STABILITY_MODEL

        rng = np.random.default_rng(12)
        ids = rng.integers(4, STABILITY_MODEL.vocab_size, size=(8, 14))
        batch = Batch(token_ids=ids, mask=np.ones((8, 14)),
                      labels=rng.integers(0, STABILITY_MODEL.n_classes, 8))
        tape = Tape()
        classify(init_params(STABILITY_MODEL, seed=0), batch, STABILITY_MODEL,
                 train_mode=True, tape=tape)
        assert STABILITY_MODEL.dropout_p == 0.0
        assert len(tape) == 56


class TestGradients:
    def test_full_encoder_gradient_check(self):
        """Analytic gradients of CE over the whole encoder vs central FD."""
        rng = np.random.default_rng(9)
        params = generic_point(init_params(TINY, seed=3))
        batch = tiny_batch(rng, b=2, length=6, pad_from=5)

        def f():
            return ad.cross_entropy(classify(params, batch, TINY), batch.labels)

        assert grad_check(f, dict(params.items()), eps=1e-5) < 1e-4

    def test_one_step_changes_logits(self):
        from selfdistill.autodiff import Tape, backward
        from selfdistill.optim import OptimState, adamw_step

        rng = np.random.default_rng(10)
        params = init_params(TINY, seed=0)
        batch = tiny_batch(rng)
        before = classify(params, batch, TINY).data.copy()
        tape = Tape()
        loss = ad.cross_entropy(
            classify(params, batch, TINY, train_mode=True, tape=tape),
            batch.labels)
        grads = backward(loss, tape)
        state = OptimState.init(params, total_steps=10, lr_encoder=1e-3,
                                lr_head=5e-2)
        adamw_step(params, {n: grads[t] for n, t in params.items()}, state)
        after = classify(params, batch, TINY).data
        assert not np.allclose(before, after)


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        params = init_params(TINY, seed=11)
        path = tmp_path / "model.ckpt"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.names() == params.names()
        for name in params:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)
            assert loaded[name].data.dtype == params[name].data.dtype
            assert loaded.group(name) == params.group(name)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(InputError):
            load_params(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_params(init_params(TINY, seed=3), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(InputError, match="1 bytes after the last tensor"):
            load_params(path)

    def test_rejects_non_json_header(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_params(init_params(TINY, seed=3), path)
        body = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(b"not json\n" + body)
        with pytest.raises(InputError, match="malformed checkpoint header"):
            load_params(path)
