"""Tokenization, corpus ingestion, synthetic data, and seeded ordering.

The tokenizer is a lowercase whitespace split over a frequency-built
vocabulary with four reserved ids. An example is one text, encoded as
``CLS text SEP`` and padded to a fixed width.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
N_RESERVED = 4

_RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")


class Vocab:
    """token -> id map with fixed reserved ids PAD=0, UNK=1, CLS=2, SEP=3."""

    def __init__(self, tokens: list[str]):
        self.token_to_id: dict[str, int] = {
            tok: i for i, tok in enumerate(_RESERVED_TOKENS)
        }
        for tok in tokens:
            if tok not in self.token_to_id:
                self.token_to_id[tok] = len(self.token_to_id)

    def __len__(self) -> int:
        return len(self.token_to_id)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def _split(text: str) -> list[str]:
    return text.lower().split()


def build_vocab(corpus, max_size: int) -> Vocab:
    """Frequency-ranked vocabulary; ties broken lexicographically.

    ``corpus`` is an iterable of raw texts. Every token seen is kept, up to
    ``max_size`` entries with the reserved ones; a token left out maps to
    UNK at encode time.
    """
    if max_size < N_RESERVED + 1:
        raise ConfigError(f"max_size must be >= {N_RESERVED + 1}, got {max_size}")
    counts: Counter[str] = Counter()
    n_texts = 0
    for text in corpus:
        n_texts += 1
        counts.update(_split(text))
    if n_texts == 0:
        raise InputError("build_vocab: empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocab([tok for tok, _ in ranked[: max_size - N_RESERVED]])


@dataclass(frozen=True)
class Example:
    """One raw text plus a 0-origin class label."""

    text: str
    label: int

    def __post_init__(self):
        if self.label < 0:
            raise InputError(f"label must be >= 0, got {self.label}")


@dataclass
class DatasetSplit:
    examples: list[Example]
    n_classes: int

    def __len__(self) -> int:
        return len(self.examples)

    def texts(self):
        for ex in self.examples:
            yield ex.text


@dataclass
class Batch:
    """Fixed-width token-id matrix, 0/1 attention mask, and gold labels."""

    token_ids: np.ndarray  # [B, L] int64
    mask: np.ndarray       # [B, L] float, 1 at real tokens
    labels: np.ndarray     # [B] int64


def tokenize_truncate(example: Example, vocab: Vocab, max_len: int):
    """CLS, the head of the text, SEP, then PAD up to ``max_len``.

    The text is head-truncated to ``max_len - 2`` tokens (room for CLS and
    SEP). Returns (ids, mask) lists of length ``max_len``.
    """
    if max_len < 3:
        raise ConfigError(f"max_len must be >= 3 (room for CLS, one token and "
                          f"SEP), got {max_len}")
    tokens = _split(example.text)[:max_len - 2]
    ids = [CLS_ID, *(vocab.lookup(tok) for tok in tokens), SEP_ID]
    real = len(ids)
    ids.extend([PAD_ID] * (max_len - real))
    mask = [1.0] * real + [0.0] * (max_len - real)
    return ids, mask


def make_batch(examples: list[Example], vocab: Vocab, max_len: int) -> Batch:
    ids, masks, labels = [], [], []
    for ex in examples:
        i, m = tokenize_truncate(ex, vocab, max_len)
        ids.append(i)
        masks.append(m)
        labels.append(ex.label)
    return Batch(
        token_ids=np.asarray(ids, dtype=np.int64),
        mask=np.asarray(masks, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
    )


def iter_batches(split: DatasetSplit, vocab: Vocab, max_len: int,
                 batch_size: int, order: np.ndarray | None = None):
    """Yield fixed-width Batches; ``order`` permutes example indices."""
    idx = np.arange(len(split.examples)) if order is None else np.asarray(order)
    for start in range(0, len(idx), batch_size):
        chunk = [split.examples[i] for i in idx[start:start + batch_size]]
        yield make_batch(chunk, vocab, max_len)


def permutation_with_seed(n: int, seed) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n)


def require_seed(name: str, seed) -> None:
    """A negative integer seed is a ConfigError naming ``name``: numpy seeds
    no generator with one."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ConfigError(f"{name}: a seed must be >= 0, got {seed}")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvSchema:
    """Column layout of a label+text CSV file."""

    n_classes: int
    label_col: int = 0
    text_cols: tuple[int, ...] = (1,)
    delimiter: str = ","
    label_base: int = 0  # smallest label value in the file; rebased to 0

    def __post_init__(self):
        if not self.text_cols:
            raise ConfigError("schema needs at least one text column")
        if self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2")
        if min(self.label_col, *self.text_cols) < 0:
            raise ConfigError(f"column indices must be >= 0, got label_col "
                              f"{self.label_col}, text_cols {self.text_cols}")
        if self.label_col in self.text_cols:
            raise ConfigError(f"label column {self.label_col} is also a text "
                              f"column, which would feed the label to the model")
        if len(set(self.text_cols)) != len(self.text_cols):
            raise ConfigError(f"text columns {self.text_cols} repeat a column, "
                              f"which would feed its text twice")
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1):
            raise ConfigError(f"delimiter must be exactly one character, got "
                              f"{self.delimiter!r}")


def load_csv(path, schema: CsvSchema) -> DatasetSplit:
    """One Example per row; multiple text columns join into one text."""
    examples: list[Example] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter,
                            quotechar='"', strict=True)
        line = 0
        try:
            for row in reader:
                line += 1
                if not row:
                    continue
                needed = max(schema.label_col, *schema.text_cols)
                if len(row) <= needed:
                    raise InputError(
                        f"{path}:{line}: expected >= {needed + 1} columns, got {len(row)}"
                    )
                try:
                    label = int(row[schema.label_col]) - schema.label_base
                except ValueError as exc:
                    raise InputError(f"{path}:{line}: unparseable label") from exc
                if not 0 <= label < schema.n_classes:
                    raise InputError(
                        f"{path}:{line}: label {label} outside [0, {schema.n_classes})"
                    )
                text = " ".join(row[c] for c in schema.text_cols)
                examples.append(Example(text=text, label=label))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise InputError(f"{path}:{line + 1}: malformed row: {exc}") from exc
    return DatasetSplit(examples=examples, n_classes=schema.n_classes)


# ---------------------------------------------------------------------------
# Synthetic corpus generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Desk-scale class-conditional token corpus.

    Each class draws tokens from its own block of the alphabet with
    probability ``signal`` and uniformly otherwise, so ``signal`` controls
    class separation; ``label_noise`` flips that fraction of labels to a
    uniformly chosen other class.
    """

    n_classes: int = 4
    vocab_span: int = 200
    tokens_per_example: int = 16
    signal: float = 0.8
    label_noise: float = 0.0
    test_label_noise: float | None = None   # None -> same as label_noise
    n_train: int = 2000
    n_test: int = 1000

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2")
        if self.vocab_span < self.n_classes:
            raise ConfigError("vocab_span must cover at least one token per class")
        if not 0.0 <= self.signal <= 1.0:
            raise ConfigError(f"signal must be in [0, 1], got {self.signal}")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ConfigError(f"label_noise must be in [0, 1], got {self.label_noise}")
        if self.test_label_noise is not None and not 0.0 <= self.test_label_noise <= 1.0:
            raise ConfigError("test_label_noise must be in [0, 1]")
        if self.tokens_per_example < 1 or self.n_train < 0 or self.n_test < 0:
            raise ConfigError("sizes must be positive")


def _token_name(i: int) -> str:
    return f"w{i:04d}"


def make_synthetic(spec: SyntheticSpec, seed) -> dict[str, DatasetSplit]:
    """Deterministic {train, test} splits drawn from ``spec``."""
    require_seed("seed", seed)
    rng = np.random.default_rng(seed)
    block = spec.vocab_span // spec.n_classes

    def draw_split(n: int, noise: float) -> DatasetSplit:
        examples = []
        for _ in range(n):
            true_label = int(rng.integers(spec.n_classes))
            lo = true_label * block
            own = rng.random(spec.tokens_per_example) < spec.signal
            toks = np.where(
                own,
                lo + rng.integers(0, block, size=spec.tokens_per_example),
                rng.integers(0, spec.vocab_span, size=spec.tokens_per_example),
            )
            label = true_label
            if noise > 0.0 and rng.random() < noise:
                shift = 1 + int(rng.integers(spec.n_classes - 1))
                label = (true_label + shift) % spec.n_classes
            text = " ".join(_token_name(t) for t in toks)
            examples.append(Example(text=text, label=label))
        return DatasetSplit(examples=examples, n_classes=spec.n_classes)

    test_noise = (spec.label_noise if spec.test_label_noise is None
                  else spec.test_label_noise)
    return {
        "train": draw_split(spec.n_train, spec.label_noise),
        "test": draw_split(spec.n_test, test_noise),
    }


@dataclass
class TaskData:
    """A prepared task: vocabulary plus its splits, ready for batching."""

    vocab: Vocab
    splits: dict[str, DatasetSplit] = field(default_factory=dict)

    @property
    def train(self) -> DatasetSplit:
        return self.splits["train"]

    @property
    def test(self) -> DatasetSplit:
        return self.splits["test"]

    @property
    def dev(self) -> DatasetSplit | None:
        return self.splits.get("dev")


def prepare_task(splits: dict[str, DatasetSplit], vocab_size: int) -> TaskData:
    """Build the vocabulary from the train split and bundle the task."""
    if "train" not in splits or len(splits["train"]) == 0:
        raise InputError("prepare_task needs a non-empty train split")
    vocab = build_vocab(splits["train"].texts(), max_size=vocab_size)
    return TaskData(vocab=vocab, splits=dict(splits))
