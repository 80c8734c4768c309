"""Tensor primitive and reverse-mode gradient tests.

Derived expectations come from independent oracles written inline: a
straightforward softmax/CE recomputation, a brute-force mean of squares,
and central finite differences.
"""

import math
import weakref

import numpy as np
import pytest

from selfdistill import autodiff as ad
from selfdistill.autodiff import Tape, Tensor, backward, grad_check
from selfdistill.errors import InputError, ShapeError, UsageError


def pad_bias(lengths, width):
    """The attention mask bias of rows with ``lengths`` real keys of ``width``."""
    mask = (np.arange(width) < np.array(lengths)[:, None]).astype(np.float64)
    return (mask - 1.0)[:, None, None, :] * ad.MASK_PENALTY


# Every recording call of the primitives: the shapes of its tensor inputs
# and the call on them.
PRIMITIVE_CALLS = {
    "add": (((3, 4), (3, 4)), ad.add),
    "mul": (((3, 4), (3, 4)), ad.mul),
    "mul_scalar": (((3, 4),), lambda a: ad.mul(a, 2.0)),
    "matmul": (((3, 4), (4, 2)), ad.matmul),
    "linear": (((3, 4), (4, 2), (2,)), ad.linear),
    "reshape": (((3, 4),), lambda a: ad.reshape(a, (4, 3))),
    "transpose": (((2, 3, 4),), lambda a: ad.transpose(a, (0, 2, 1))),
    "embedding": (((5, 3),),
                  lambda table: ad.embedding(table, np.array([[0, 4], [2, 2]]))),
    "take": (((3, 4),), lambda a: ad.take(a, (slice(None), 1))),
    "gelu": (((3, 4),), ad.gelu),
    "softmax": (((3, 4),), ad.softmax),
    "dropout": (((3, 4),),
                lambda a: ad.dropout(a, 0.5, np.random.default_rng(0))),
    "layer_norm": (((3, 4), (4,), (4,)), ad.layer_norm),
    "layer_norm_residual": (((3, 4), (3, 4), (4,), (4,)),
                            lambda a, r, g, b: ad.layer_norm(a, g, b, residual=r)),
    "attention": (((2, 5, 4), (2, 5, 4), (2, 5, 4)),
                  lambda q, k, v: ad.attention(q, k, v, pad_bias([5, 3], 5), 2,
                                               0.1, np.random.default_rng(0))),
    "attention_one_query": (((2, 4), (2, 5, 4), (2, 5, 4)),
                            lambda q, k, v: ad.attention(
                                q, k, v, pad_bias([5, 3], 5), 2, 0.0, None)),
    "cross_entropy": (((3, 4),), lambda logits: ad.cross_entropy(logits, [0, 3, 1])),
    "mse": (((3, 4), (3, 4)), ad.mse),
}


def _tensors(shapes):
    rng = np.random.default_rng(0)
    return [Tensor(rng.normal(0, 1, shape)) for shape in shapes]


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(Tensor(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_zeros_annihilate(self):
        out = ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_hand_arithmetic(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_batched_gradients_match_fd(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(0, 1, (2, 3, 4)))
        b = Tensor(rng.normal(0, 1, (4, 5)))
        target = Tensor(rng.normal(0, 1, (2, 3, 5)))
        err = grad_check(lambda: ad.mse(ad.matmul(a, b), target), [a, b])
        assert err < 1e-7


class TestLinear:
    def _inputs(self, seed=0):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(0, 1, (2, 3, 4)))
        w = Tensor(rng.normal(0, 1, (4, 5)))
        b = Tensor(rng.normal(0, 1, 5))
        target = Tensor(rng.normal(0, 1, (2, 3, 5)))
        return x, w, b, target

    def test_gradients_match_fd_with_bias(self):
        x, w, b, target = self._inputs()
        err = grad_check(lambda: ad.mse(ad.linear(x, w, b), target), [x, w, b])
        assert err < 1e-6

    def test_gradients_match_fd_without_bias(self):
        x, w, _, target = self._inputs(1)
        err = grad_check(lambda: ad.mse(ad.linear(x, w), target), [x, w])
        assert err < 1e-6

    def test_forward_equals_matmul_plus_bias(self):
        x, w, b, _ = self._inputs(2)
        fused = ad.linear(x, w, b).data
        oracle = ad.add(ad.matmul(x, w), b).data
        assert fused.shape == oracle.shape
        np.testing.assert_allclose(fused, oracle, rtol=1e-13, atol=0)
        np.testing.assert_allclose(ad.linear(x, w).data, ad.matmul(x, w).data,
                                   rtol=1e-13, atol=0)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_weight_must_be_2d(self):
        with pytest.raises(ShapeError, match="2-d weight"):
            ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3, 4))))



class TestGelu:
    @staticmethod
    def _pow_formula(x):
        inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)
        return 0.5 * x * (1.0 + np.tanh(inner))

    def test_matches_cube_by_pow(self):
        rng = np.random.default_rng(4)
        for x in (np.linspace(-8, 8, 10001), rng.normal(0, 1, (8, 14, 64))):
            np.testing.assert_allclose(ad.gelu(Tensor(x)).data,
                                       self._pow_formula(x), rtol=0, atol=1e-13)

    def test_gradient_matches_fd(self):
        # the grid steps over gelu's stationary point near -0.75 and stops
        # short of the flat tails, where a relative error would measure only
        # finite-difference noise
        x = Tensor(np.linspace(-3, 3, 19))
        target = Tensor(np.full(19, 5.0))
        err = grad_check(lambda: ad.mse(ad.gelu(x), target), [x])
        assert err < 1e-6


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(ad.softmax(Tensor([0.0, 0.0])).data,
                                   [0.5, 0.5], atol=1e-12)

    def test_analytic(self):
        out = ad.softmax(Tensor([math.log(1.0), math.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.normal(0, 5, (8, 6))
        for c in (-100.0, -3.0, 0.5, 42.0):
            np.testing.assert_allclose(ad.softmax(Tensor(v + c)).data,
                                       ad.softmax(Tensor(v)).data, atol=1e-12)

    def test_rows_positive_and_normalized(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(-100, 100, (50, 7))
        s = ad.softmax(Tensor(v)).data
        assert np.all(s > 0)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)

    def test_stable_at_huge_logits(self):
        s = ad.softmax(Tensor([[1e4, 0.0], [-1e4, 0.0]])).data
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = ad.cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2])
        assert loss.item() == pytest.approx(math.log(4), abs=1e-12)

    def test_saturated_case(self):
        loss = ad.cross_entropy(Tensor([[20.0, -20.0]]), [0])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_against_scripted_softmax_ce_oracle(self):
        # oracle: explicit softmax then -log prob, no shared code path
        def oracle(logits, labels):
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            return float(np.mean([-np.log(p[i, y]) for i, y in enumerate(labels)]))

        assert ad.cross_entropy(Tensor([[1.0, 0.0]]), [0]).item() == \
            pytest.approx(0.31326168751822286, abs=1e-12)
        rng = np.random.default_rng(3)
        logits = rng.normal(0, 3, (16, 5))
        labels = rng.integers(0, 5, 16)
        got = ad.cross_entropy(Tensor(logits), labels).item()
        assert got == pytest.approx(oracle(logits, labels), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            logits = rng.normal(0, 4, (8, 3))
            labels = rng.integers(0, 3, 8)
            assert ad.cross_entropy(Tensor(logits), labels).item() >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(InputError, match="out of range"):
            ad.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


class TestMse:
    def test_identical_inputs(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert ad.mse(a, a).item() == 0.0

    def test_analytic(self):
        assert ad.mse(Tensor([[1.0, 0.0]]), Tensor([[0.0, 0.0]])).item() == 0.5

    def test_against_brute_force_mean_of_squares(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0, 2, (7, 9))
        b = rng.normal(0, 2, (7, 9))
        oracle = sum((a[i, j] - b[i, j]) ** 2 for i in range(7) for j in range(9)) / 63
        assert ad.mse(Tensor(a), Tensor(b)).item() == pytest.approx(oracle, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a, b = Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(4, 4)))
        assert ad.mse(a, b).item() == ad.mse(b, a).item()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.mse(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestBackward:
    def test_square_function(self):
        tape = Tape()
        x = Tensor(3.0)
        tape.watch(x)
        grads = backward(ad.mul(x, x), tape)
        assert grads[x] == pytest.approx(6.0, abs=1e-12)

    def test_ce_gradient_closed_form(self):
        """d/dlogits CE == softmax(logits) - onehot(label) for one example."""
        logits = np.array([[0.7, -1.2, 0.4]])
        tape = Tape()
        t = Tensor(logits)
        tape.watch(t)
        grads = backward(ad.cross_entropy(t, [1]), tape)
        sm = ad.softmax(Tensor(logits)).data
        onehot = np.array([[0.0, 1.0, 0.0]])
        np.testing.assert_allclose(grads[t], sm - onehot, atol=1e-10)

    def test_two_layer_network_against_finite_differences(self):
        rng = np.random.default_rng(7)
        w1 = Tensor(rng.normal(0, 0.5, (4, 6)))
        b1 = Tensor(rng.normal(0, 0.1, 6))
        w2 = Tensor(rng.normal(0, 0.5, (6, 3)))
        x = Tensor(rng.normal(0, 1, (5, 4)))
        labels = rng.integers(0, 3, 5)

        def f():
            h = ad.gelu(ad.add(ad.matmul(x, w1), b1))
            return ad.cross_entropy(ad.matmul(h, w2), labels)

        assert grad_check(f, [w1, b1, w2], eps=1e-5) < 1e-4

    def test_loss_must_be_scalar(self):
        tape = Tape()
        x = Tensor(np.ones((2, 2)))
        tape.watch(x)
        y = ad.mul(x, 2.0)
        with pytest.raises(UsageError, match="scalar"):
            backward(y, tape)

    def test_constants_never_in_gradient_map(self):
        tape = Tape()
        x = Tensor(np.ones(3))
        c = Tensor(np.full(3, 2.0))  # constant
        tape.watch(x)
        grads = backward(ad.mse(ad.mul(x, c), Tensor(np.zeros(3))), tape)
        assert x in grads
        assert c not in grads
        assert len(grads) == 1

    def test_unreached_parameter_gets_zeros(self):
        tape = Tape()
        x = Tensor(np.ones(3))
        unused = Tensor(np.ones(4))
        tape.watch(x)
        tape.watch(unused)
        grads = backward(ad.mse(x, Tensor(np.zeros(3))), tape)
        np.testing.assert_array_equal(grads[unused], np.zeros(4))

    def test_backward_releases_the_graph(self):
        """Intermediates die with their last reference, not at the next
        cyclic garbage collection."""
        tape = Tape()
        x = tape.watch(Tensor(np.ones(3)))
        hidden = ad.mul(x, x)
        alive = weakref.ref(hidden.data)
        loss = ad.mse(hidden, Tensor(np.zeros(3)))
        del hidden
        backward(loss, tape)
        assert len(tape) == 0
        assert alive() is None

    def test_closed_tape_ops_are_constants(self):
        """After backward, forwards with the same tensors record nothing."""
        tape = Tape()
        x = Tensor(2.0)
        tape.watch(x)
        backward(ad.mul(x, x), tape)
        n_nodes = len(tape)
        out = ad.mul(x, x)  # x still points at the closed tape
        assert out.tape is None
        assert len(tape) == n_nodes


class TestGradCheck:
    def test_linear_regression_is_nearly_exact(self):
        rng = np.random.default_rng(8)
        w = Tensor(rng.normal(0, 1, (3, 1)))
        x = Tensor(rng.normal(0, 1, (10, 3)))
        y = Tensor(rng.normal(0, 1, (10, 1)))
        err = grad_check(lambda: ad.mse(ad.matmul(x, w), y), [w], eps=1e-5)
        assert err < 1e-8

    def test_constant_function_has_zero_error(self):
        w = Tensor(np.ones(4))
        err = grad_check(lambda: ad.mse(Tensor(np.ones(2)), Tensor(np.zeros(2))),
                         [w], eps=1e-5)
        assert err == 0.0


class TestFiniteOutputs:
    def test_primitives_stay_finite_on_finite_inputs(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-50, 50, (6, 8)))
        y = Tensor(rng.uniform(-50, 50, (6, 8)))
        w = Tensor(rng.uniform(-50, 50, (8, 4)))
        gain = Tensor(rng.uniform(0.5, 2.0, 8))
        bias = Tensor(rng.uniform(-1, 1, 8))
        outputs = [
            ad.add(x, y), ad.mul(x, y), ad.mul(x, 3.5),
            ad.matmul(x, w), ad.linear(x, w), ad.gelu(x), ad.softmax(x),
            ad.layer_norm(x, gain, bias),
            ad.cross_entropy(ad.matmul(x, w), rng.integers(0, 4, 6)),
            ad.mse(x, y),
        ]
        for out in outputs:
            assert np.all(np.isfinite(out.data))


class TestDropout:
    def test_eval_passthrough_at_p_zero(self):
        x = Tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(9)
        x = Tensor(np.ones((200, 200)))
        out = ad.dropout(x, 0.3, rng)
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(10)
        tape = Tape()
        x = Tensor(np.ones((4, 4)))
        tape.watch(x)
        out = ad.dropout(x, 0.5, rng)
        grads = backward(ad.mse(out, Tensor(np.zeros((4, 4)))), tape)
        # gradient is zero exactly where the activation was dropped
        np.testing.assert_array_equal(grads[x] == 0.0, out.data == 0.0)


class TestTake:
    def test_forward_is_the_basic_index(self):
        a = Tensor(np.arange(24.0).reshape(2, 4, 3))
        np.testing.assert_array_equal(ad.take(a, (slice(None), 1)).data,
                                      a.data[:, 1, :])
        np.testing.assert_array_equal(ad.take(a, slice(1)).data, a.data[:1])

    def test_row_slice_of_a_2d_tensor_matches_fd(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(0, 1, (5, 4)))
        target = Tensor(rng.normal(0, 1, (3, 4)))
        err = grad_check(lambda: ad.mse(ad.take(a, slice(3)), target), [a])
        assert err < 1e-6

    def test_position_of_a_3d_tensor_matches_fd(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.normal(0, 1, (2, 4, 3)))
        target = Tensor(rng.normal(0, 1, (2, 3)))
        err = grad_check(
            lambda: ad.mse(ad.take(a, (slice(None), 1)), target), [a])
        assert err < 1e-6


def chained_attention(q, k, v, mask_bias, n_heads, p, rng):
    """Attention as the chain of unfused primitives that ``ad.attention``
    replays: head split, scaled scores, mask, softmax, dropout, context and
    head merge, one node each."""
    b, length, d = k.shape
    dh = d // n_heads

    def heads(t):
        return ad.transpose(ad.reshape(t, (b, length, n_heads, dh)), (0, 2, 1, 3))

    one_query = len(q.shape) == 2
    qh = ad.reshape(q, (b, n_heads, 1, dh)) if one_query else heads(q)
    scores = ad.mul(ad.matmul(qh, ad.transpose(heads(k), (0, 1, 3, 2))),
                    1.0 / np.sqrt(dh))
    attn = ad.softmax(ad.add(scores, Tensor(mask_bias)))
    if p > 0.0:
        attn = ad.dropout(attn, p, rng)
    ctx = ad.matmul(attn, heads(v))
    return (ad.reshape(ctx, (b, d)) if one_query else
            ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, length, d)))


class TestAttention:
    @pytest.mark.parametrize("one_query", [False, True], ids=["rows", "one-query"])
    @pytest.mark.parametrize("p", [0.0, 0.1], ids=["no-dropout", "fixed-dropout"])
    def test_gradients_match_fd_with_a_padded_key(self, p, one_query):
        rng = np.random.default_rng(22)
        b, length, d = 2, 5, 4
        q = Tensor(rng.normal(0, 1, (b, d) if one_query else (b, length, d)))
        k, v = (Tensor(rng.normal(0, 1, (b, length, d))) for _ in range(2))
        target = Tensor(rng.normal(0, 1, q.shape))
        bias = pad_bias([5, 3], length)
        # a fresh generator per call: every replay draws the same mask
        err = grad_check(lambda: ad.mse(
            ad.attention(q, k, v, bias, 2, p, np.random.default_rng(3)), target),
            [q, k, v])
        assert err < 1e-6

    def test_padded_keys_get_no_weight_and_no_gradient(self):
        rng = np.random.default_rng(23)
        q, k, v = (Tensor(rng.normal(0, 1, (2, 5, 4))) for _ in range(3))
        bias = pad_bias([5, 3], 5)
        tape = Tape()
        tape.watch_all([q, k, v])
        out = ad.attention(q, k, v, bias, 2, 0.0, None)
        v2 = v.data.copy()
        v2[1, 3:] = 1e6   # a hidden value changes nothing
        np.testing.assert_array_equal(
            ad.attention(q, k, Tensor(v2), bias, 2, 0.0, None).data, out.data)
        grads = backward(ad.mse(out, Tensor(np.zeros(out.shape))), tape)
        assert not grads[k][1, 3:].any() and not grads[v][1, 3:].any()
        assert grads[k][0].any() and grads[v][1, :3].any()

    @pytest.mark.parametrize("one_query", [False, True], ids=["rows", "one-query"])
    def test_equals_the_chain_of_primitives_bit_for_bit(self, one_query):
        """On a ragged batch with dropout 0.1, behind the q/k/v linears of
        one input, so that input's gradient sums three adjoints."""
        rng = np.random.default_rng(21)
        b, length, d, n_heads = 4, 7, 8, 2
        x = Tensor(rng.normal(0, 1, (b, length, d)))
        ws = [Tensor(rng.normal(0, 0.5, (d, d))) for _ in range(3)]
        target = Tensor(rng.normal(0, 1, (b, d) if one_query else (b, length, d)))
        bias = pad_bias([7, 3, 1, 5], length)
        results = []
        for attend in (ad.attention, chained_attention):
            tape = Tape()
            tape.watch_all([x, *ws])
            xq = ad.take(x, (slice(None), 0)) if one_query else x
            out = attend(ad.linear(xq, ws[0]), ad.linear(x, ws[1]),
                         ad.linear(x, ws[2]), bias, n_heads, 0.1,
                         np.random.default_rng(5))
            grads = backward(ad.mse(out, target), tape)
            results.append([out.data.tobytes()]
                           + [grads[t].tobytes() for t in (x, *ws)])
        assert results[0] == results[1]

    def test_shapes_that_do_not_fit_are_a_shape_error(self):
        x = Tensor(np.ones((2, 5, 4)))
        for q, k, v, n_heads in ((x, x, Tensor(np.ones((2, 4, 4))), 2),
                                 (Tensor(np.ones((3, 4))), x, x, 2),
                                 (x, x, x, 3)):
            with pytest.raises(ShapeError, match="attention"):
                ad.attention(q, k, v, 0.0, n_heads, 0.0, None)


class TestResidualLayerNorm:
    def _inputs(self, seed):
        rng = np.random.default_rng(seed)
        a, r = (Tensor(rng.normal(0, 1, (3, 5, 6))) for _ in range(2))
        gain = Tensor(rng.uniform(0.5, 2.0, 6))
        bias = Tensor(rng.normal(0, 1, 6))
        return a, r, gain, bias, Tensor(rng.normal(0, 1, (3, 5, 6)))

    def test_gradients_match_fd(self):
        a, r, gain, bias, target = self._inputs(24)
        err = grad_check(lambda: ad.mse(
            ad.layer_norm(a, gain, bias, residual=r), target), [a, r, gain, bias])
        assert err < 1e-6

    def test_equals_add_then_layer_norm_bit_for_bit(self):
        a, r, gain, bias, target = self._inputs(25)
        results = []
        for norm in (lambda: ad.layer_norm(a, gain, bias, residual=r),
                     lambda: ad.layer_norm(ad.add(a, r), gain, bias)):
            tape = Tape()
            tape.watch_all([a, r, gain, bias])
            out = norm()
            grads = backward(ad.mse(ad.add(out, a), target), tape)
            results.append([out.data.tobytes()]
                           + [grads[t].tobytes() for t in (a, r, gain, bias)])
        assert results[0] == results[1]

    def test_residual_of_another_shape_is_a_shape_error(self):
        a, _, gain, bias, _ = self._inputs(26)
        with pytest.raises(ShapeError, match="residual"):
            ad.layer_norm(a, gain, bias, residual=Tensor(np.ones(6)))


class TestRecord:
    """A node keeps a (tensor, vjp) pair only for inputs its tape tracks."""

    @staticmethod
    def _inputs_of_last_node(tape):
        _, pairs = tape._nodes[-1]
        return [t for t, _ in pairs]

    def test_add_with_a_constant(self):
        tape = Tape()
        x = tape.watch(Tensor(np.ones(3)))
        c = Tensor(np.full(3, 2.0))
        ad.add(x, c)
        assert self._inputs_of_last_node(tape) == [x]
        ad.add(c, x)
        assert self._inputs_of_last_node(tape) == [x]

    def test_linear_without_bias(self):
        rng = np.random.default_rng(13)
        tape = Tape()
        x = Tensor(rng.normal(0, 1, (2, 4)))
        w = tape.watch(Tensor(rng.normal(0, 1, (4, 3))))
        ad.linear(x, w)
        assert self._inputs_of_last_node(tape) == [w]

    def test_mse_against_a_constant_teacher(self):
        rng = np.random.default_rng(14)
        old = Tape()
        teacher = ad.mul(old.watch(Tensor(rng.normal(0, 1, (2, 3)))), 1.0)
        backward(ad.mse(teacher, Tensor(np.zeros((2, 3)))), old)
        tape = Tape()
        x = tape.watch(Tensor(rng.normal(0, 1, (2, 3))))
        student = ad.mul(x, 2.0)
        for constant in (teacher, Tensor(rng.normal(0, 1, (2, 3)))):
            ad.mse(student, constant)
            assert self._inputs_of_last_node(tape) == [student]

    @pytest.mark.parametrize("name", ["add", "mul", "matmul", "linear",
                                      "layer_norm", "layer_norm_residual",
                                      "attention", "mse"])
    def test_inputs_on_two_open_tapes_are_a_usage_error(self, name):
        """The second tape would record nothing, so its gradient is lost."""
        shapes, call = PRIMITIVE_CALLS[name]
        for first, second in ((0, 1), (1, 0)):
            inputs = _tensors(shapes)
            t1, t2 = Tape(), Tape()
            x, y = t1.watch(inputs[first]), t2.watch(inputs[second])
            with pytest.raises(UsageError, match="two different open tapes"):
                call(*inputs)
            assert len(t1) == 0 and len(t2) == 0
            backward(ad.mse(x, Tensor(np.zeros(x.shape))), t1)
            call(*inputs)  # x's tape is closed: x is a constant now
            assert self._inputs_of_last_node(t2) == [y]

    @pytest.mark.parametrize("closed", [False, True], ids=["constant", "closed"])
    @pytest.mark.parametrize("name", sorted(PRIMITIVE_CALLS))
    def test_untracked_inputs_record_no_node(self, name, closed):
        """Constants, and tensors whose tape ``backward`` has closed, give
        a constant output and grow no tape."""
        shapes, call = PRIMITIVE_CALLS[name]
        inputs = _tensors(shapes)
        old = Tape()
        if closed:
            old.watch_all(inputs)
            backward(ad.mse(inputs[0], Tensor(np.zeros(shapes[0]))), old)
        tape = Tape()
        out = call(*inputs)
        assert out.tape is None
        assert len(old) == 0 and len(tape) == 0
