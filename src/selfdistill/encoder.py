"""A miniature BERT-shaped text classifier, built on the autodiff tape.

Token embeddings + learned positions + a stack of small post-norm
transformer encoder layers + first-token pooling + a linear softmax head.
A ``ParameterSet`` keeps every parameter in one contiguous vector, ``flat``,
and hands out each named tensor as a view into it; ``encode`` and the tape
see only the named views, while averaging, snapshots and the optimizer work
on the whole vector at once.

``encode`` computes only what reaches the pooled vector: the last layer
computes position 0 only, while its keys and values still see every
position. A row with no real token has nothing to attend to and is an
``InputError``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, InputError, ShapeError, check_types

GROUP_ENCODER = "encoder"
GROUP_HEAD = "head"

_CHECKPOINT_MAGIC = "selfdistill-params-v1"
_CHECKPOINT_DTYPE = "<f8"


@dataclass(frozen=True)
class ModelConfig:
    """Size and regularization of the classifier."""

    vocab_size: int = 2000
    max_len: int = 64
    dim: int = 32
    n_layers: int = 2
    n_heads: int = 2
    ffn_dim: int = 128
    n_classes: int = 4
    dropout_p: float = 0.1

    def __post_init__(self):
        check_types(ModelConfig, vars(self), "ModelConfig field ")
        if min(self.vocab_size, self.max_len, self.dim, self.n_layers,
               self.n_heads, self.ffn_dim, self.n_classes) <= 0:
            raise ConfigError(f"all size fields must be positive: {self}")
        if self.dim % self.n_heads != 0:
            raise ConfigError(
                f"dim {self.dim} not divisible by n_heads {self.n_heads}"
            )
        if self.max_len < 3:
            raise ConfigError(f"max_len must be >= 3 (room for CLS, one token "
                              f"and SEP), got {self.max_len}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")


def group_of(name: str) -> str:
    """A tensor's learning-rate group: ``head`` for ``head.*``, else ``encoder``."""
    return GROUP_HEAD if name.startswith("head.") else GROUP_ENCODER


class Slot(NamedTuple):
    """Where one named tensor sits in a ParameterSet's flat vector."""

    name: str
    offset: int
    shape: tuple[int, ...]

    @property
    def group(self) -> str:
        return group_of(self.name)

    @property
    def stop(self) -> int:
        return self.offset + math.prod(self.shape)


class ParameterSet:
    """Named float64 parameter tensors stored in one contiguous vector.

    ``flat`` holds every parameter; ``layout`` is the fixed tuple of
    ``Slot`` entries (name, offset, shape) that cuts it into tensors, in the
    order they were given; a slot's group follows from its name
    (``group_of``). ``ps[name]`` is a ``Tensor`` whose ``data`` is a view
    into ``flat``, so an in-place change through either one shows in the
    other. Sets built from the same ModelConfig share the layout, which
    makes averaging, snapshots and optimizer updates whole-vector
    operations on ``flat``. The named views are built on first access, so
    a set read only through ``flat``, such as a ring snapshot, never pays
    for them.
    """

    def __init__(self, tensors: dict[str, Tensor]):
        if not tensors:
            raise ShapeError("a parameter set needs at least one tensor")
        layout, offset = [], 0
        for name, t in tensors.items():
            layout.append(Slot(name, offset, t.data.shape))
            offset += t.data.size
        self.layout = tuple(layout)
        self.flat = np.concatenate([t.data.ravel() for t in tensors.values()])

    @cached_property
    def _tensors(self) -> dict[str, Tensor]:
        """The named views, built on first use and then kept: the tape and
        ``accumulate`` key on each Tensor object's identity."""
        return {s.name: Tensor(self.flat[s.offset:s.stop].reshape(s.shape))
                for s in self.layout}

    def with_flat(self, flat: np.ndarray) -> "ParameterSet":
        """A set with this layout whose tensors view ``flat`` (not copied)."""
        if flat.shape != self.flat.shape:
            raise ShapeError(f"flat vector of shape {flat.shape} does not fit "
                             f"a layout of size {self.flat.size}")
        out = ParameterSet.__new__(ParameterSet)
        out.layout = self.layout
        out.flat = flat
        return out

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __iter__(self):
        return iter(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def copy(self) -> "ParameterSet":
        """Deep copy detached from any tape (snapshots are constants)."""
        return self.with_flat(self.flat.copy())

    def require_compatible(self, other: "ParameterSet") -> None:
        if self.layout != other.layout:
            raise ShapeError("parameter sets have different layouts")

    def watch_on(self, tape: Tape) -> None:
        tape.watch_all(self._tensors.values())


def init_params(config: ModelConfig, seed: int) -> ParameterSet:
    """Deterministic initialization: N(0, 0.02) weights, zero biases, unit gains."""
    rng = np.random.default_rng(seed)
    std = 0.02
    tensors: dict[str, Tensor] = {}

    def param(name, array):
        tensors[name] = Tensor(array)

    d, f = config.dim, config.ffn_dim
    param("tok_emb", rng.normal(0.0, std, (config.vocab_size, d)))
    param("pos_emb", rng.normal(0.0, std, (config.max_len, d)))
    for i in range(config.n_layers):
        p = f"enc{i}"
        for proj in ("wq", "wk", "wv", "wo"):
            param(f"{p}.attn.{proj}", rng.normal(0.0, std, (d, d)))
        # no key bias: softmax shift invariance makes it a dead parameter
        for proj in ("bq", "bv", "bo"):
            param(f"{p}.attn.{proj}", np.zeros(d))
        param(f"{p}.ln1.g", np.ones(d))
        param(f"{p}.ln1.b", np.zeros(d))
        param(f"{p}.ffn.w1", rng.normal(0.0, std, (d, f)))
        param(f"{p}.ffn.b1", np.zeros(f))
        param(f"{p}.ffn.w2", rng.normal(0.0, std, (f, d)))
        param(f"{p}.ffn.b2", np.zeros(d))
        param(f"{p}.ln2.g", np.ones(d))
        param(f"{p}.ln2.b", np.zeros(d))
    param("head.W", rng.normal(0.0, std, (config.n_classes, d)))
    return ParameterSet(tensors)


def _check_batch(config: ModelConfig, ids: np.ndarray, mask: np.ndarray) -> None:
    if ids.ndim != 2:
        raise InputError(f"token ids must be [B, L], got shape {ids.shape}")
    if mask.shape != ids.shape:
        raise InputError(f"mask shape {mask.shape} != token ids shape {ids.shape}")
    if ids.shape[1] > config.max_len:
        raise InputError(
            f"sequence length {ids.shape[1]} exceeds max_len {config.max_len}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
        raise InputError(
            f"token id out of range [0, {config.vocab_size}): max={ids.max()}"
        )
    empty = np.flatnonzero(~mask.any(axis=1))
    if empty.size:
        raise InputError(f"batch row {empty[0]} has no real token (its mask is all 0)")


def encode(params: ParameterSet, batch, config: ModelConfig,
           train_mode: bool = False, tape: Tape | None = None,
           rng: np.random.Generator | None = None) -> Tensor:
    """Pooled first-token representation h, shape [B, dim].

    The last layer runs its queries, output projection, layer norms and
    FFN on position 0 alone, as [B, dim] rows, because only position 0
    reaches h. A row whose mask is all 0 raises ``InputError``.

    In train mode, dropout (embeddings, attention probabilities, sublayer
    outputs) draws from ``rng`` for the computed positions only; eval mode
    is a pure function of (params, batch). Pass an open ``tape`` to record
    gradients.
    """
    ids = np.asarray(batch.token_ids)
    mask = np.asarray(batch.mask, dtype=np.float64)
    _check_batch(config, ids, mask)
    p = config.dropout_p if train_mode else 0.0
    if p > 0.0 and rng is None:
        raise InputError("train_mode with dropout needs an rng stream")
    if tape is not None:
        params.watch_on(tape)

    length = ids.shape[1]
    x = ad.add(ad.embedding(params["tok_emb"], ids),
               ad.take(params["pos_emb"], slice(length)))
    if p > 0.0:
        x = ad.dropout(x, p, rng)

    # keys at padded positions are hidden from every query
    mask_bias = (mask - 1.0)[:, None, None, :] * ad.MASK_PENALTY

    for i in range(config.n_layers):
        def w(name, pref=f"enc{i}."):
            return params[pref + name]

        # the head reads position 0 only, so the last layer's queries and
        # everything after attention run on that position as [B, d] rows
        last = i == config.n_layers - 1
        xq = ad.take(x, (slice(None), 0)) if last else x
        ctx = ad.attention(ad.linear(xq, w("attn.wq"), w("attn.bq")),
                           ad.linear(x, w("attn.wk")),
                           ad.linear(x, w("attn.wv"), w("attn.bv")),
                           mask_bias, config.n_heads, p, rng)
        att_out = ad.linear(ctx, w("attn.wo"), w("attn.bo"))
        if p > 0.0:
            att_out = ad.dropout(att_out, p, rng)
        x = ad.layer_norm(xq, w("ln1.g"), w("ln1.b"), residual=att_out)

        h1 = ad.gelu(ad.linear(x, w("ffn.w1"), w("ffn.b1")))
        h2 = ad.linear(h1, w("ffn.w2"), w("ffn.b2"))
        if p > 0.0:
            h2 = ad.dropout(h2, p, rng)
        x = ad.layer_norm(x, w("ln2.g"), w("ln2.b"), residual=h2)

    return x


def classify(params: ParameterSet, batch, config: ModelConfig,
             train_mode: bool = False, tape: Tape | None = None,
             rng: np.random.Generator | None = None) -> Tensor:
    """Pre-softmax class scores W.h, shape [B, n_classes]."""
    h = encode(params, batch, config, train_mode=train_mode, tape=tape, rng=rng)
    return ad.matmul(h, ad.transpose(params["head.W"], (1, 0)))


def predict_proba(params: ParameterSet, batch, config: ModelConfig) -> np.ndarray:
    """Class probabilities in eval mode; rows sum to 1 within 1e-6."""
    logits = classify(params, batch, config, train_mode=False, tape=None)
    return ad.softmax(logits).data


# ---------------------------------------------------------------------------
# Checkpoint format: one JSON header line with (name, shape, dtype, group)
# entries, then the raw little-endian float64 tensor bytes concatenated in
# header order. Round-trips bit-exactly and contains nothing volatile. Every
# dtype is "<f8", and each group must be the one its name implies.
# ---------------------------------------------------------------------------


def save_params(params: ParameterSet, path) -> None:
    entries = [{"name": s.name, "shape": list(s.shape),
                "dtype": _CHECKPOINT_DTYPE, "group": s.group}
               for s in params.layout]
    header = json.dumps({"format": _CHECKPOINT_MAGIC, "entries": entries},
                        sort_keys=True)
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode("utf-8") + b"\n")
            fh.write(params.flat.astype(_CHECKPOINT_DTYPE, copy=False).tobytes())
    except OSError as exc:
        raise InputError(f"cannot write checkpoint to {path}: {exc}") from exc


def load_params(path) -> ParameterSet:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        body = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
        if header.get("format") != _CHECKPOINT_MAGIC:
            raise InputError(f"{path}: not a parameter checkpoint")
        entries = [(e["name"], e["group"], e["dtype"], e["shape"],
                    group_of(e["name"])) for e in header["entries"]]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"{path}: malformed checkpoint header: {exc}") from exc
    tensors: dict[str, Tensor] = {}
    offset = 0
    for name, group, dtype, shape, implied in entries:
        if name in tensors:
            raise InputError(f"{path}: tensor {name} appears twice in the header")
        if not (isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in shape)):
            raise InputError(f"{path}: tensor {name} has shape {shape!r}, not a "
                             f"list of non-negative integers")
        if (dtype, group) != (_CHECKPOINT_DTYPE, implied):
            raise InputError(f"{path}: tensor {name} has dtype {dtype!r} and "
                             f"group {group!r}, not {_CHECKPOINT_DTYPE!r} and "
                             f"{implied!r}")
        nbytes = 8 * math.prod(shape)
        raw = body[offset:offset + nbytes]
        if len(raw) != nbytes:
            raise InputError(f"{path}: truncated checkpoint at {name}")
        offset += nbytes
        tensors[name] = Tensor(np.frombuffer(raw, dtype=dtype).reshape(shape))
    if offset != len(body):
        raise InputError(f"{path}: {len(body) - offset} bytes after the last tensor")
    return ParameterSet(tensors)
