#!/usr/bin/env python3
"""Tour of the tensor library: tapes, primitives, and gradient checking.

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

from selfdistill import autodiff as ad
from selfdistill.autodiff import Tape, Tensor, backward, grad_check

print("=" * 60)
print("1. Forward primitives")
print("=" * 60)

a = Tensor([[1.0, 2.0], [3.0, 4.0]])
b = Tensor([[5.0], [6.0]])
print("matmul [[1,2],[3,4]] @ [[5],[6]] =", ad.matmul(a, b).data.ravel())
print("softmax [0, 0]                   =", ad.softmax(Tensor([0.0, 0.0])).data)
print("softmax [ln 1, ln 3]             =",
      ad.softmax(Tensor([np.log(1.0), np.log(3.0)])).data)
print("cross-entropy at uniform logits (C=4):",
      ad.cross_entropy(Tensor(np.zeros((1, 4))), [2]).item(),
      "== ln 4 =", np.log(4.0))

print()
print("=" * 60)
print("2. Reverse-mode gradients on an explicit tape")
print("=" * 60)

# d/dx of x^2 at x=3
tape = Tape()
x = Tensor(3.0)
tape.watch(x)
grads = backward(ad.mul(x, x), tape)
print("d(x^2)/dx at 3:", grads[x])

# the classic closed form: d CE/d logits = softmax - onehot
tape = Tape()
logits = Tensor([[2.0, -1.0, 0.5]])
tape.watch(logits)
grads = backward(ad.cross_entropy(logits, [0]), tape)
sm = ad.softmax(Tensor([[2.0, -1.0, 0.5]])).data
print("CE gradient:        ", np.round(grads[logits], 6))
print("softmax - onehot:   ", np.round(sm - np.array([[1.0, 0.0, 0.0]]), 6))

print()
print("=" * 60)
print("3. Gradient checking against central finite differences")
print("=" * 60)

rng = np.random.default_rng(0)
w1 = Tensor(rng.normal(0, 0.5, (6, 8)))
w2 = Tensor(rng.normal(0, 0.5, (8, 3)))
inputs = Tensor(rng.normal(0, 1, (10, 6)))
labels = rng.integers(0, 3, 10)


def loss_fn():
    hidden = ad.gelu(ad.matmul(inputs, w1))
    return ad.cross_entropy(ad.matmul(hidden, w2), labels)


err = grad_check(loss_fn, [w1, w2], eps=1e-5)
print(f"two-layer network, max relative gradient error: {err:.2e}")

# teacher logits as constants: they never receive gradients
tape = Tape()
student = Tensor(rng.normal(0, 1, (4, 3)))
teacher = Tensor(rng.normal(0, 1, (4, 3)))  # constant: never watched
tape.watch(student)
grads = backward(ad.mse(student, teacher), tape)
print("tensors in gradient map:", len(grads), "(teacher excluded)")
