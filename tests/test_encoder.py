"""Encoder contracts: shapes, determinism, masking, gradients, checkpoints."""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from selfdistill import autodiff as ad
from selfdistill.autodiff import Tensor, grad_check
from selfdistill.data import Batch
from selfdistill.encoder import (
    ModelConfig,
    ParameterSet,
    classify,
    classify_rows,
    encode,
    init_params,
    load_params,
    predict_proba,
    save_params,
)
from selfdistill.errors import ConfigError, InputError, ShapeError

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

    def test_max_len_leaves_room_for_cls_and_two_seps(self):
        with pytest.raises(ConfigError, match="max_len must be >= 3"):
            ModelConfig(max_len=2)
        assert ModelConfig(max_len=3).max_len == 3

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

    @pytest.mark.parametrize("seed", [None, -1, 1.5, True])
    def test_a_seed_that_is_not_an_integer_from_0_is_config_error(self,
                                                                 seed):
        """None would draw other parameters on every call."""
        with pytest.raises(ConfigError, match="^seed: a seed must be "):
            init_params(TINY, seed=seed)

    def test_head_shape(self):
        params = init_params(TINY, seed=0)
        assert params["head.W"].data.shape == (TINY.n_classes, TINY.dim)

    def test_group_tags(self):
        params = init_params(TINY, seed=0)
        group = {s.name: s.group for s in params.layout}
        assert group["head.W"] == "head"
        assert group["tok_emb"] == "encoder"
        assert set(group.values()) == {"head", "encoder"}

    def test_biases_zero_gains_one(self):
        params = init_params(TINY, seed=0)
        np.testing.assert_array_equal(params["enc0.ln1.g"].data, np.ones(TINY.dim))
        np.testing.assert_array_equal(params["enc0.ffn.b1"].data,
                                      np.zeros(TINY.ffn_dim))


class TestFlatStorage:
    def test_named_tensors_view_the_flat_vector(self):
        params = init_params(TINY, seed=0)
        assert params.flat.ndim == 1 and params.flat.flags.c_contiguous
        assert params.flat.size == sum(t.data.size for _, t in params.items())
        for slot in params.layout:
            data = params[slot.name].data
            assert np.shares_memory(data, params.flat)
            np.testing.assert_array_equal(data.ravel(),
                                          params.flat[slot.offset:slot.stop])
        params["head.W"].data[0, 0] = 123.0
        assert params.flat[params.layout[-1].offset] == 123.0

    def test_copy_shares_no_memory(self):
        params = init_params(TINY, seed=0)
        clone = params.copy()
        assert clone.layout == params.layout
        assert not np.shares_memory(clone.flat, params.flat)
        for name in params:
            assert np.shares_memory(clone[name].data, clone.flat)
            assert not np.shares_memory(clone[name].data, params.flat)
        np.testing.assert_array_equal(clone.flat, params.flat)

    def test_float32_input_is_stored_as_float64(self):
        params = ParameterSet({"a.W": Tensor(np.zeros(2, dtype=np.float64)),
                               "b.W": Tensor(np.ones(2, dtype=np.float32))})
        assert params.flat.dtype == np.float64
        assert params["b.W"].data.dtype == np.float64
        np.testing.assert_array_equal(params.flat, [0.0, 0.0, 1.0, 1.0])

    def test_float64_input_is_viewed_not_copied(self):
        data = np.arange(3.0)
        assert Tensor(data).data is data

    def test_groups_follow_names(self):
        params = ParameterSet({"head.x": Tensor(np.zeros(2)),
                               "enc.y": Tensor(np.zeros(3))})
        assert [(s.name, s.group) for s in params.layout] == [
            ("head.x", "head"), ("enc.y", "encoder")]
        assert params.layout[0]._fields == ("name", "offset", "shape")


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

    def test_row_without_a_real_token_is_rejected(self):
        rng = np.random.default_rng(13)
        params = init_params(TINY, seed=0)
        batch = tiny_batch(rng, b=3, length=6)
        batch.mask[1] = 0.0
        with pytest.raises(InputError, match="row 1 has no real token"):
            classify(params, batch, TINY)

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

        The first layer records 10 nodes: the q, k and v linears 3, the
        fused attention 1, the output linear 1, two residual-plus-norm
        nodes 2 and the ffn 3 (linear, gelu, linear). The last layer
        records 11: the same 10 plus the take of position 0, which is the
        pooling. Plus 3 for the embeddings (lookup, positions, add) and 2
        for the head (transpose, matmul): 26 in all.
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
        assert len(tape) == 26


TWO_LAYER = ModelConfig(vocab_size=50, max_len=14, dim=8, n_layers=2,
                        n_heads=2, ffn_dim=16, n_classes=4, dropout_p=0.0)


def ragged_batch(rng, cfg, width, lengths):
    """One row per entry of ``lengths``, that many real tokens, padded to
    ``width`` columns."""
    b = len(lengths)
    ids = np.zeros((b, width), dtype=np.int64)
    mask = np.zeros((b, width))
    for row, n in enumerate(lengths):
        ids[row, :n] = rng.integers(4, cfg.vocab_size, n)
        ids[row, 0] = 2  # CLS
        mask[row, :n] = 1.0
    return Batch(token_ids=ids, mask=mask,
                 labels=rng.integers(0, cfg.n_classes, b))


def reference_logits(params, batch, cfg):
    """Plain-numpy forward that runs every layer on every position and pools
    position 0 only at the end; padded keys get weight exp(-inf) = 0."""
    P = {name: t.data for name, t in params.items()}
    ids, mask = batch.token_ids, batch.mask
    b, length = ids.shape
    h, dh = cfg.n_heads, cfg.dim // cfg.n_heads

    def ln(x, g, bias):
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        return g * (x - mu) / np.sqrt(var + 1e-5) + bias

    def gelu(x):
        return 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3)))

    def split(t):
        return t.reshape(b, length, h, dh).transpose(0, 2, 1, 3)

    x = P["tok_emb"][ids] + P["pos_emb"][:length]
    for i in range(cfg.n_layers):
        w = {name[len(f"enc{i}."):]: a for name, a in P.items()
             if name.startswith(f"enc{i}.")}
        q = split(x @ w["attn.wq"] + w["attn.bq"])
        k = split(x @ w["attn.wk"])
        v = split(x @ w["attn.wv"] + w["attn.bv"])
        s = (q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh)
             + np.where(mask[:, None, None, :] > 0, 0.0, -np.inf))
        a = np.exp(s - s.max(-1, keepdims=True))
        a /= a.sum(-1, keepdims=True)
        ctx = (a @ v).transpose(0, 2, 1, 3).reshape(b, length, cfg.dim)
        x = ln(x + ctx @ w["attn.wo"] + w["attn.bo"], w["ln1.g"], w["ln1.b"])
        ffn = gelu(x @ w["ffn.w1"] + w["ffn.b1"]) @ w["ffn.w2"] + w["ffn.b2"]
        x = ln(x + ffn, w["ln2.g"], w["ln2.b"])
    return x[:, 0] @ P["head.W"].T


class TestClassifyRows:
    """The stacked eval forward gives each row ``classify``'s eval-mode
    logits bit for bit."""

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_each_row_is_classify_bitwise(self, n_layers, n_heads):
        """S = 1..5 parameter vectors on batches of 1, 8 and 64 ragged
        rows, so that padded keys occur."""
        cfg = ModelConfig(vocab_size=50, max_len=14, dim=8,
                          n_layers=n_layers, n_heads=n_heads, ffn_dim=16,
                          n_classes=4, dropout_p=0.0)
        rng = np.random.default_rng([n_layers, n_heads])
        sets = [generic_point(init_params(cfg, seed=0), seed=s)
                for s in range(5)]
        rows = np.stack([ps.flat for ps in sets])
        for b in (1, 8, 64):
            lengths = rng.integers(1, 15, b)
            lengths[0] = 11   # the batch is 11 columns wide or more
            batch = ragged_batch(rng, cfg, int(lengths.max()), lengths)
            for n in range(1, 6):
                out = classify_rows(sets[0].layout, rows[:n], batch, cfg)
                assert out.shape == (n, b, cfg.n_classes)
                for ps, got in zip(sets, out):
                    want = classify(ps, batch, cfg, train_mode=False).data
                    assert got.tobytes() == want.tobytes()

    def test_reads_the_rows_in_place(self):
        """A strided view of wider rows, such as a ring's slots, reads as
        the same vectors copied out."""
        rng = np.random.default_rng(3)
        sets = [generic_point(init_params(TWO_LAYER, seed=0), seed=s)
                for s in range(3)]
        wide = np.zeros((4, sets[0].flat.size + 5))
        for row, ps in zip(wide, sets):
            row[:ps.flat.size] = ps.flat
        batch = ragged_batch(rng, TWO_LAYER, 14, [14, 3, 7, 1])
        view = wide[:3, :sets[0].flat.size]
        assert not view.flags.c_contiguous
        out = classify_rows(sets[0].layout, view, batch, TWO_LAYER)
        copied = classify_rows(sets[0].layout, view.copy(), batch, TWO_LAYER)
        assert out.tobytes() == copied.tobytes()

    def test_predict_proba_is_the_softmax_of_the_classify_logits(self):
        rng = np.random.default_rng(4)
        params = generic_point(init_params(TWO_LAYER, seed=0))
        batch = ragged_batch(rng, TWO_LAYER, 14, [12, 3, 7, 12, 1, 9])
        logits = classify(params, batch, TWO_LAYER)
        probs = predict_proba(params, batch, TWO_LAYER)
        assert probs.tobytes() == ad.softmax(logits).data.tobytes()

    def test_rows_that_do_not_fit_the_layout_are_a_shape_error(self):
        rng = np.random.default_rng(5)
        params = init_params(TINY, seed=0)
        rows = np.zeros((2, params.flat.size + 1))
        with pytest.raises(ShapeError, match="do not fit"):
            classify_rows(params.layout, rows, tiny_batch(rng), TINY)

    def test_a_row_without_a_real_token_is_an_input_error(self):
        rng = np.random.default_rng(6)
        params = init_params(TINY, seed=0)
        batch = tiny_batch(rng)
        batch.mask[1] = 0.0
        with pytest.raises(InputError, match="batch row 1 has no real token"):
            classify_rows(params.layout, params.flat[None], batch, TINY)


class TestExactness:
    """The position-0 last layer and all-pad columns change nothing."""

    def test_matches_full_sequence_reference(self):
        rng = np.random.default_rng(18)
        params = generic_point(init_params(TWO_LAYER, seed=0))
        batch = ragged_batch(rng, TWO_LAYER, 14, [12, 3, 7, 12, 1, 9, 5, 11])
        np.testing.assert_allclose(classify(params, batch, TWO_LAYER).data,
                                   reference_logits(params, batch, TWO_LAYER),
                                   rtol=0, atol=1e-12)

    def test_padding_invariance(self):
        rng = np.random.default_rng(14)
        params = generic_point(init_params(TWO_LAYER, seed=0))
        narrow = ragged_batch(rng, TWO_LAYER, 12, [12, 3, 7, 12, 1, 9, 5, 11])
        wide = Batch(token_ids=np.pad(narrow.token_ids, ((0, 0), (0, 2))),
                     mask=np.pad(narrow.mask, ((0, 0), (0, 2))),
                     labels=narrow.labels)
        np.testing.assert_allclose(classify(params, wide, TWO_LAYER).data,
                                   classify(params, narrow, TWO_LAYER).data,
                                   rtol=0, atol=1e-12)

    def test_rows_are_independent(self):
        rng = np.random.default_rng(15)
        params = generic_point(init_params(TWO_LAYER, seed=0))
        batch = ragged_batch(rng, TWO_LAYER, 14, [14, 3, 7, 12, 1, 9, 5, 11])
        together = classify(params, batch, TWO_LAYER).data
        alone = np.concatenate([
            classify(params, Batch(token_ids=batch.token_ids[r:r + 1],
                                   mask=batch.mask[r:r + 1],
                                   labels=batch.labels[r:r + 1]),
                     TWO_LAYER).data
            for r in range(8)
        ])
        np.testing.assert_allclose(alone, together, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_reference_differences(self, seed):
        """Tape gradients through the position-0 last layer against central
        differences of the full-sequence reference loss, on rows padded to
        14 columns. The bound is absolute: the gradients reach O(1) and the
        differences carry ~1e-10 truncation and rounding error at any
        generic point."""
        rng = np.random.default_rng(seed)
        params = generic_point(init_params(TWO_LAYER, seed=seed), seed=seed)
        batch = ragged_batch(rng, TWO_LAYER, 14, [10, 4, 10, 7])

        def reference_loss():
            logits = reference_logits(params, batch, TWO_LAYER)
            top = logits.max(-1, keepdims=True)
            logz = np.log(np.exp(logits - top).sum(-1)) + top[:, 0]
            return float(np.mean(logz - logits[np.arange(4), batch.labels]))

        tape = ad.Tape()
        loss = ad.cross_entropy(
            classify(params, batch, TWO_LAYER, train_mode=True, tape=tape),
            batch.labels)
        grads = ad.backward(loss, tape)
        eps = 1e-5
        for name, t in params.items():
            fd = np.zeros_like(t.data)
            for idx in np.ndindex(t.data.shape):
                orig = t.data[idx]
                t.data[idx] = orig + eps
                up = reference_loss()
                t.data[idx] = orig - eps
                down = reference_loss()
                t.data[idx] = orig
                fd[idx] = (up - down) / (2 * eps)
            np.testing.assert_allclose(grads[t], fd, rtol=0, atol=1e-8,
                                       err_msg=name)

    def test_pos_emb_of_all_pad_columns_gets_zero_gradient(self):
        rng = np.random.default_rng(17)
        params = generic_point(init_params(TWO_LAYER, seed=0))
        batch = ragged_batch(rng, TWO_LAYER, 12, [5, 9, 3, 9])
        tape = ad.Tape()
        loss = ad.cross_entropy(
            classify(params, batch, TWO_LAYER, train_mode=True, tape=tape),
            batch.labels)
        grad = ad.backward(loss, tape)[params["pos_emb"]]
        assert np.all(grad[9:] == 0.0)
        assert np.all(np.abs(grad[:9]).sum(axis=1) > 0.0)


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
        from selfdistill.distill import TrainConfig
        from selfdistill.optim import OptimState, accumulate, adamw_step

        rng = np.random.default_rng(10)
        params = init_params(TINY, seed=0)
        batch = tiny_batch(rng)
        before = classify(params, batch, TINY).data.copy()
        tape = Tape()
        loss = ad.cross_entropy(
            classify(params, batch, TINY, train_mode=True, tape=tape),
            batch.labels)
        flat_grads = np.zeros_like(params.flat)
        accumulate(params, backward(loss, tape), flat_grads)
        state = OptimState.init(params, 10, TrainConfig(lr_encoder=1e-3,
                                                        lr_head=5e-2))
        adamw_step(params, flat_grads, state)
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
        assert loaded.layout == params.layout   # names, shapes and groups

    @pytest.mark.parametrize("where", ["a directory", "under a file"])
    def test_an_unwritable_path_is_an_input_error(self, tmp_path, where):
        (tmp_path / "file").write_text("")
        path = tmp_path if where == "a directory" else tmp_path / "file" / "m"
        with pytest.raises(InputError, match=f"cannot write checkpoint to "
                                             f"{path}: "):
            save_params(init_params(TINY, seed=11), path)

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

    def test_rejects_mixed_dtypes(self, tmp_path):
        entries = [{"name": "a.W", "shape": [2], "dtype": "<f8", "group": "encoder"},
                   {"name": "b.W", "shape": [2], "dtype": "<f4", "group": "encoder"}]
        header = json.dumps({"format": "selfdistill-params-v1", "entries": entries})
        body = np.zeros(2, "<f8").tobytes() + np.zeros(2, "<f4").tobytes()
        path = tmp_path / "mixed.ckpt"
        path.write_bytes(header.encode() + b"\n" + body)
        with pytest.raises(InputError, match=r"tensor b\.W has dtype '<f4' and "
                                             r"group 'encoder', not '<f8'"):
            load_params(path)

    def _write_one_entry(self, path, name, dtype, group):
        entries = [{"name": name, "shape": [2], "dtype": dtype, "group": group}]
        header = json.dumps({"format": "selfdistill-params-v1", "entries": entries})
        path.write_bytes(header.encode() + b"\n" + np.zeros(2, dtype).tobytes())

    @pytest.mark.parametrize("dtype,group", [("<f4", "encoder"), ("<f8", "head")])
    def test_rejects_float32_or_a_group_the_name_does_not_imply(
            self, tmp_path, dtype, group):
        path = tmp_path / "entry.ckpt"
        self._write_one_entry(path, "tok_emb", dtype, group)
        with pytest.raises(InputError, match=f"tensor tok_emb has dtype '{dtype}' "
                                             f"and group '{group}', not '<f8' and "
                                             f"'encoder'"):
            load_params(path)

    def test_rejects_non_string_name(self, tmp_path):
        path = tmp_path / "name.ckpt"
        self._write_one_entry(path, 5, "<f8", "encoder")
        with pytest.raises(InputError, match="malformed checkpoint header"):
            load_params(path)

    def _write_entries(self, path, entries):
        header = json.dumps({"format": "selfdistill-params-v1",
                             "entries": entries})
        path.write_bytes(header.encode() + b"\n" + np.arange(4.0).tobytes())

    def test_rejects_a_tensor_named_twice(self, tmp_path):
        """Read as a dict, the second entry would replace the first."""
        path = tmp_path / "twice.ckpt"
        entry = {"name": "a.W", "shape": [2], "dtype": "<f8", "group": "encoder"}
        self._write_entries(path, [entry, entry])
        with pytest.raises(InputError, match=r"tensor a\.W appears twice"):
            load_params(path)

    @pytest.mark.parametrize("shape", [[-1, -2], [-1], [2.0], "22",
                                       [True, True], 4, [[2]]],
                             ids=["negatives", "negative", "float", "string",
                                  "bools", "scalar", "nested"])
    def test_rejects_a_shape_that_is_not_a_list_of_counts(self, tmp_path,
                                                          shape):
        path = tmp_path / "shape.ckpt"
        self._write_entries(path, [{"name": "a.W", "shape": shape,
                                    "dtype": "<f8", "group": "encoder"}])
        with pytest.raises(InputError, match=r"tensor a\.W has shape .*, not a "
                                             r"list of non-negative integers"):
            load_params(path)

    def test_header_bytes_are_pinned(self, tmp_path):
        """The header line of a default-config checkpoint, byte for byte as
        the format has always written it (sha256 of the line, newline
        included)."""
        path = tmp_path / "model.ckpt"
        save_params(init_params(ModelConfig(), seed=0), path)
        with open(path, "rb") as fh:
            line = fh.readline()
        assert line.startswith(b'{"entries": [{"dtype": "<f8", "group": '
                               b'"encoder", "name": "tok_emb", "shape": '
                               b'[2000, 32]}')
        assert hashlib.sha256(line).hexdigest() == (
            "42f90a06ae8a3d65ab82f9a61608527501f4aff80c988d9e8fd56cd4044d0e82")
