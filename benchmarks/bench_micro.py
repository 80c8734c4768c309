"""Forward and backward micro-timings of the autodiff primitives.

Each primitive runs at the shape it has in the benchmark's model: token
activations [8, 14, 32], feed-forward activations [8, 14, 64], attention
scores [8, 2, 14, 14] and logits [8, 4]. The forward is timed with its
inputs watched on an open tape, as in the student pass, so it includes
recording the backward closures; the backward is one call of each closure
the forward recorded, fed an all-ones output gradient.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

MICRO_PRIMS = ("matmul", "gelu", "layer_norm", "softmax", "embedding",
               "cross_entropy", "mse")
MICRO_METRICS = tuple(f"autodiff.{p}.{d}_us"
                      for p in MICRO_PRIMS for d in ("fwd", "bwd"))


def _cases(ad, rng):
    def t(*shape):
        return ad.Tensor(rng.normal(0.0, 1.0, shape))

    x32, x64 = t(8, 14, 32), t(8, 14, 64)
    w = t(32, 64)
    gain, bias = t(32), t(32)
    scores = t(8, 2, 14, 14)
    table = t(400, 32)
    ids = rng.integers(0, 400, (8, 14))
    logits, target = t(8, 4), t(8, 4)
    labels = rng.integers(0, 4, 8)
    return {
        "matmul": ((x32, w), lambda: ad.matmul(x32, w)),
        "gelu": ((x64,), lambda: ad.gelu(x64)),
        "layer_norm": ((x32, gain, bias), lambda: ad.layer_norm(x32, gain, bias)),
        "softmax": ((scores,), lambda: ad.softmax(scores)),
        "embedding": ((table,), lambda: ad.embedding(table, ids)),
        "cross_entropy": ((logits,), lambda: ad.cross_entropy(logits, labels)),
        "mse": ((logits,), lambda: ad.mse(logits, target)),
    }


def time_primitives(ad, seed: int, reps: int = 200) -> dict[str, float]:
    """Median microseconds per call: ``autodiff.<prim>.fwd_us`` / ``.bwd_us``."""
    out = {}
    for prim, (inputs, call) in _cases(ad, np.random.default_rng(seed)).items():
        fwd, bwd = [], []
        for _ in range(reps):
            tape = ad.Tape()
            tape.watch_all(inputs)
            t0 = perf_counter()
            result = call()
            t1 = perf_counter()
            _, pairs = tape._nodes[-1]
            g = np.ones_like(result.data)
            t2 = perf_counter()
            for _, vjp in pairs:
                vjp(g)
            t3 = perf_counter()
            fwd.append(t1 - t0)
            bwd.append(t3 - t2)
        for tensor in inputs:
            tensor.tape = None
        out[f"autodiff.{prim}.fwd_us"] = median(fwd) * 1e6
        out[f"autodiff.{prim}.bwd_us"] = median(bwd) * 1e6
    return out
