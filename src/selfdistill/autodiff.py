"""Dense tensors with reverse-mode automatic differentiation on an explicit tape.

The design is a Wengert list: every differentiable primitive executes its
forward pass eagerly in numpy and hands its output, with one vector-Jacobian
closure per input, to ``_record``. When any input is tracked on an open
``Tape``, ``_record`` appends an entry holding the closures of the tracked
inputs. ``backward`` replays those entries in reverse execution order, so no
topological sort is needed.

Tracking rules, all applied in ``_record``:

* A ``Tensor`` becomes tracked by ``tape.watch(t)`` (parameters) or by being
  produced by a primitive whose inputs were tracked (intermediates).
* Tensors never watched, or watched only on a tape that has since been
  closed by ``backward``, behave as constants: their closures are dropped
  and no gradient ever reaches them. This is how teacher logits stay frozen
  without any special flag at the call site.
* Inputs tracked on two different open tapes are a ``UsageError``: one
  tape's gradient would be lost.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .errors import InputError, ShapeError, UsageError

# Additive pre-softmax penalty for masked attention positions. Large enough
# that exp() underflows to exactly 0 after max subtraction, small enough to
# stay finite.
MASK_PENALTY = 1e9


class Tensor:
    """A dense float64 array plus its tracking state.

    ``data`` is always a float64 ndarray: ``Tensor(data)`` converts any other
    input, and keeps a float64 array itself, so a view stays a view. ``tape``
    points at the tape the tensor was last recorded or watched on (None for
    constants).
    """

    __slots__ = ("data", "tape")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        kind = "tracked" if self.tape else "const"
        return f"Tensor(shape={self.data.shape}, {kind})"


class Tape:
    """Ordered record of executed primitives and their saved adjoint closures.

    One tape serves one forward+backward pass; ``backward`` closes it and
    drops its nodes, after which tensors still pointing at it are treated as
    constants.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, list[tuple[Tensor, Callable]]]] = []
        self._watched: dict[int, Tensor] = {}  # by id, in watch order
        self._open = True

    def watch(self, tensor: Tensor) -> Tensor:
        """Mark ``tensor`` as a gradient source for this tape."""
        if not self._open:
            raise UsageError("cannot watch a tensor on a closed tape")
        self._watched[id(tensor)] = tensor
        tensor.tape = self
        return tensor

    def watch_all(self, tensors: Iterable[Tensor]) -> None:
        for t in tensors:
            self.watch(t)

    def __len__(self) -> int:
        return len(self._nodes)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, *pairs: tuple[Tensor | None, Callable]) -> Tensor:
    """``out``, recorded with the (input, vjp) pairs whose input is tracked
    on an open tape; untracked inputs and a ``None`` input are dropped. With
    no tracked input ``out`` is returned untouched, a constant. Inputs on
    two different open tapes are a UsageError."""
    # a loop: on CPython 3.11 a comprehension's frame costs ~0.3 us a node
    tape = None
    kept = []
    for pair in pairs:
        owner = None if pair[0] is None else pair[0].tape
        if owner is None or not owner._open:
            continue
        if tape is None:
            tape = owner
        elif owner is not tape:
            raise UsageError("a primitive's inputs are tracked on two "
                             "different open tapes")
        kept.append(pair)
    if tape is not None:
        tape._nodes.append((out, kept))
        out.tape = tape
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _once(vjp: Callable) -> Callable:
    """``vjp`` remembering its last result: ``backward`` hands every input
    of a node the same adjoint array, so vjps that share work on it can
    share one call."""
    last = [None, None]

    def call(g):
        if last[0] is not g:
            last[0], last[1] = g, vjp(g)
        return last[1]
    return call


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _record(Tensor(a.data + b.data),
                   (a, lambda g: _unbroadcast(g, a.data.shape)),
                   (b, lambda g: _unbroadcast(g, b.data.shape)))


def mul(a, b) -> Tensor:
    """Elementwise product; either side may be a plain python scalar."""
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        return _record(Tensor(a.data * b), (a, lambda g: g * b))
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        return mul(b, a)
    a, b = _as_tensor(a), _as_tensor(b)
    return _record(Tensor(a.data * b.data),
                   (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                   (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batching over leading dimensions."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(
            f"matmul needs >=2-d operands, got {a.data.shape} x {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul: inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    return _record(Tensor(np.matmul(a.data, b.data)),
                   (a, lambda g: _unbroadcast(
                       np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)),
                   (b, lambda g: _unbroadcast(
                       np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) over the last axis of x, recorded as one tape node.

    The forward is ``np.matmul`` over the leading dimensions, as in
    ``matmul``: numpy runs one small GEMM per leading index, each on one
    thread. A single flattened GEMM is large enough at eval batch sizes to
    start the BLAS thread pool, which measured slower and stalls whenever
    other processes keep the cores busy. The weight gradient does flatten
    the leading dimensions into one GEMM.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if w.data.ndim != 2:
        raise ShapeError(f"linear needs a 2-d weight, got {w.data.shape}")
    n_in, n_out = w.data.shape
    if x.data.ndim < 1 or x.data.shape[-1] != n_in:
        raise ShapeError(
            f"linear: inner dimensions disagree: {x.data.shape} x {w.data.shape}"
        )
    if b is not None and b.data.shape != (n_out,):
        raise ShapeError(f"linear: bias shape {b.data.shape} != ({n_out},)")
    y = np.matmul(x.data, w.data)
    if b is not None:
        y += b.data
    return _record(Tensor(y),
                   (x, lambda g: np.matmul(g, w.data.T)),
                   (w, lambda g: x.data.reshape(-1, n_in).T @ g.reshape(-1, n_out)),
                   (b, lambda g: g.reshape(-1, n_out).sum(axis=0)))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _record(Tensor(a.data.reshape(shape)),
                   (a, lambda g: g.reshape(a.data.shape)))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    return _record(Tensor(a.data.transpose(axes)),
                   (a, lambda g: g.transpose(tuple(np.argsort(axes)))))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise InputError(
            f"embedding ids out of range [0, {table.data.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )

    def vjp(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
        return acc
    return _record(Tensor(table.data[ids]), (table, vjp))


def take(a: Tensor, index) -> Tensor:
    """``a[index]`` for a basic index (integers and slices), a view.

    The gradient scatters into zeros of ``a``'s shape, which is exact only
    because a basic index never selects an element twice.
    """
    def vjp(g):
        acc = np.zeros_like(a.data)
        acc[index] = g
        return acc
    return _record(Tensor(a.data[index]), (a, vjp))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Smooth GELU (tanh approximation)."""
    x = a.data
    # x * x * x, not x ** 3: numpy sends ** 3 through generic pow, ~50x slower
    x2 = x * x
    inner = _GELU_C * (x + 0.044715 * (x2 * x))
    t = np.tanh(inner)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)
    return _record(Tensor(0.5 * x * (1.0 + t)), (a, vjp))


def softmax(a: Tensor) -> Tensor:
    """Stable softmax over the last axis (max subtraction)."""
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    return _record(Tensor(s),
                   (a, lambda g: (g - (g * s).sum(axis=-1, keepdims=True)) * s))


def dropout(a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; consumes rng only when p > 0."""
    if p == 0.0:
        return a
    keep, scale = _dropout_mask(a.data.shape, p, rng)
    return _record(Tensor(a.data * keep * scale),
                   (a, lambda g: g * keep * scale))


def _dropout_mask(shape, p: float, rng: np.random.Generator):
    """Inverted dropout's 0/1 keep mask, drawn from ``rng``, and its scale."""
    if not 0.0 <= p < 1.0:
        raise UsageError(f"dropout probability must be in [0, 1), got {p}")
    return (rng.random(shape) >= p).astype(np.float64), 1.0 / (1.0 - p)


def attention(q: Tensor, k: Tensor, v: Tensor, mask_bias, n_heads: int,
              p: float, rng: np.random.Generator | None) -> Tensor:
    """Multi-head scaled dot-product attention (Vaswani et al. 2017,
    arXiv 1706.03762) as one node.

    ``k`` and ``v`` are [B, L, d]; ``q`` is [B, Lq, d], or [B, d] for one
    query per row. ``mask_bias`` is a constant array added to the
    [B, heads, Lq, L] scores (``MASK_PENALTY`` hides a key). The forward
    splits the heads, takes softmax(q k^T / sqrt(dh) + mask_bias), applies
    inverted dropout ``p`` to it with a draw from ``rng`` (none at p 0),
    multiplies by v and merges the heads. Each step is the numpy operation
    that ``matmul``, ``mul``, ``add``, ``softmax``, ``dropout``,
    ``transpose`` and ``reshape`` run, in the same order and on the same
    layouts, forward and backward, so the result and every gradient equal
    that chain's bit for bit. The three vjps share one dS = (dA -
    rowsum(dA * S)) * S / sqrt(dh).
    """
    if (k.data.ndim != 3 or v.data.shape != k.data.shape
            or q.data.ndim not in (2, 3) or q.data.shape[0] != k.data.shape[0]
            or q.data.shape[-1] != k.data.shape[-1]
            or k.data.shape[-1] % n_heads != 0):
        raise ShapeError(f"attention: q {q.data.shape}, k {k.data.shape} and "
                         f"v {v.data.shape} do not fit {n_heads} heads")
    b, _, d = k.data.shape
    dh = d // n_heads
    perm = (0, 2, 1, 3)

    def split(t):   # [B, n, d] -> [B, heads, n, dh]; [B, d] -> [B, heads, 1, dh]
        if t.ndim == 2:
            return t.reshape(b, n_heads, 1, dh)
        return t.reshape(b, t.shape[1], n_heads, dh).transpose(perm)

    def merge(t, shape):   # the inverse of split
        return t.reshape(shape) if len(shape) == 2 else t.transpose(perm).reshape(shape)

    qh, vh = split(q.data), split(v.data)
    kt = split(k.data).transpose(0, 1, 3, 2)
    c = 1.0 / np.sqrt(dh)
    z = np.matmul(qh, kt) * c + mask_bias
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    a = s
    if p != 0.0:
        keep, scale = _dropout_mask(s.shape, p, rng)
        a = s * keep * scale

    def backprop(g):
        """(adjoint of the context, dS) for the adjoint of the output."""
        gctx = split(g)
        da = np.matmul(gctx, np.swapaxes(vh, -1, -2))
        if p != 0.0:
            da = da * keep * scale
        return gctx, (da - (da * s).sum(axis=-1, keepdims=True)) * s * c

    backprop = _once(backprop)
    return _record(
        Tensor(merge(np.matmul(a, vh), q.data.shape)),
        (q, lambda g: merge(np.matmul(backprop(g)[1], np.swapaxes(kt, -1, -2)),
                            q.data.shape)),
        (k, lambda g: merge(np.matmul(np.swapaxes(qh, -1, -2), backprop(g)[1])
                            .transpose(0, 1, 3, 2), k.data.shape)),
        (v, lambda g: merge(np.matmul(np.swapaxes(a, -1, -2), backprop(g)[0]),
                            v.data.shape)))


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor,
               residual: Tensor | None = None, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis with learned gain and bias.

    With ``residual`` it normalizes ``a + residual`` as one node, the
    post-norm residual step; both summands get the same input gradient.
    """
    if residual is None:
        x = a.data
    elif residual.data.shape != a.data.shape:
        raise ShapeError(f"layer_norm: residual shape {residual.data.shape} "
                         f"!= input shape {a.data.shape}")
    else:
        x = a.data + residual.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def vjp_x(g):
        d = x.shape[-1]
        dxhat = g * gain.data
        return (inv / d) * (
            d * dxhat
            - dxhat.sum(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
        )
    vjp_x = _once(vjp_x)
    return _record(Tensor(gain.data * xhat + bias.data), (a, vjp_x),
                   (residual, vjp_x),
                   (gain, lambda g: _unbroadcast(g * xhat, gain.data.shape)),
                   (bias, lambda g: _unbroadcast(g, bias.data.shape)))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[gold]; log-sum-exp stable."""
    labels = np.asarray(labels, dtype=np.int64)
    x = logits.data
    if x.ndim != 2:
        raise ShapeError(f"cross_entropy expects [B, C] logits, got {x.shape}")
    b, c = x.shape
    if labels.shape != (b,):
        raise ShapeError(
            f"cross_entropy: {b} logit rows but labels shape {labels.shape}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise InputError(
            f"labels out of range [0, {c}): min={labels.min()}, max={labels.max()}"
        )
    m = x.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=-1))
    loss = (lse - x[np.arange(b), labels]).mean()

    def vjp(g):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        probs[np.arange(b), labels] -= 1.0
        return probs * (g / b)
    return _record(Tensor(loss), (logits, vjp))


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean over every entry of the squared difference."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mse: shapes differ: {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    n = diff.size
    return _record(Tensor((diff ** 2).mean()),
                   (a, lambda g: g * (2.0 / n) * diff),
                   (b, lambda g: g * (-2.0 / n) * diff))


# ---------------------------------------------------------------------------
# Backward pass and gradient checking
# ---------------------------------------------------------------------------


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, np.ndarray]:
    """Replay adjoints in reverse execution order.

    Returns a map from each watched parameter tensor to its gradient array;
    watched tensors with no path to the loss get zeros. Constants never
    appear. The tape is closed and emptied afterwards.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for out, pairs in reversed(tape._nodes):
        g = adjoints.pop(id(out), None)
        if g is None:
            continue
        for tensor, vjp in pairs:
            contribution = vjp(g)
            key = id(tensor)
            if key in adjoints:
                adjoints[key] = adjoints[key] + contribution
            else:
                adjoints[key] = contribution
    tape._open = False
    # each output points back at its tape, so without this the whole graph
    # would wait for the cyclic garbage collector
    tape._nodes.clear()
    grads: dict[Tensor, np.ndarray] = {}
    for t in tape._watched.values():
        g = adjoints.get(id(t))
        grads[t] = np.zeros_like(t.data) if g is None else g
    tape._watched.clear()   # each watched tensor points back at it too
    return grads


def grad_check(f: Callable[[], Tensor], params, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` is a zero-argument closure over ``params`` returning a scalar
    Tensor; it must be deterministic (dropout off). ``params`` is a dict of
    name -> Tensor or an iterable of Tensors. The finite-difference replays
    run after the tape closes, so they are plain forward evaluations.
    """
    tensors = list(params.values()) if isinstance(params, dict) else list(params)
    tape = Tape()
    tape.watch_all(tensors)
    loss = f()
    grads = backward(loss, tape)
    worst = 0.0
    for t in tensors:
        analytic = grads[t]
        it = np.nditer(t.data, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = t.data[idx]
            t.data[idx] = orig + eps
            fp = float(f().data)
            t.data[idx] = orig - eps
            fm = float(f().data)
            t.data[idx] = orig
            fd = (fp - fm) / (2.0 * eps)
            a = float(analytic[idx])
            denom = max(abs(a), abs(fd), 1e-8)
            worst = max(worst, abs(a - fd) / denom)
            it.iternext()
    return worst
