"""Vocabulary, tokenization, CSV ingestion, shuffling, synthetic data."""

import numpy as np
import pytest

from selfdistill.data import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    CsvSchema,
    DatasetSplit,
    Example,
    SyntheticSpec,
    Vocab,
    build_vocab,
    iter_batches,
    load_csv,
    make_batch,
    make_synthetic,
    permutation_with_seed,
    prepare_task,
    tokenize_truncate,
)
from selfdistill.errors import ConfigError, InputError


class TestBuildVocab:
    def test_frequency_order_after_reserved_ids(self):
        vocab = build_vocab(["a a b"], max_size=10)
        assert vocab.token_to_id["a"] == 4
        assert vocab.token_to_id["b"] == 5

    def test_ties_broken_lexicographically(self):
        vocab = build_vocab(["z q z q m"], max_size=10)
        # z and q both appear twice; q sorts first
        assert vocab.token_to_id["q"] == 4
        assert vocab.token_to_id["z"] == 5
        assert vocab.token_to_id["m"] == 6

    def test_deterministic_rebuild(self):
        corpus = ["the cat sat", "the dog sat", "a cat ran"]
        v1 = build_vocab(corpus, max_size=20)
        v2 = build_vocab(corpus, max_size=20)
        assert v1.token_to_id == v2.token_to_id

    def test_max_size_too_small(self):
        with pytest.raises(ConfigError):
            build_vocab(["a"], max_size=4)

    def test_lowercasing(self):
        vocab = build_vocab(["Hello HELLO hello"], max_size=10)
        assert vocab.lookup("hello") == 4
        assert len(vocab) == 5

    def test_size_cap(self):
        vocab = build_vocab(["a b c d e f g h"], max_size=7)
        assert len(vocab) == 7  # 4 reserved + 3 kept


class TestTokenizeTruncate:
    def test_short_text_layout(self):
        vocab = build_vocab(["alpha beta"], max_size=10)
        ids, mask = tokenize_truncate(Example("alpha beta", 0), vocab, 8)
        a, b = vocab.lookup("alpha"), vocab.lookup("beta")
        assert ids == [CLS_ID, a, b, SEP_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID]
        assert mask == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]

    def test_head_truncation_keeps_first_62_content_tokens(self):
        words = " ".join(f"t{i}" for i in range(1000))
        vocab = build_vocab([words], max_size=2000)
        ids, mask = tokenize_truncate(Example(words, 0), vocab, 64)
        assert len(ids) == 64
        assert ids[0] == CLS_ID
        assert ids[-1] == SEP_ID
        content = ids[1:-1]
        assert len(content) == 62
        assert content == [vocab.lookup(f"t{i}") for i in range(62)]
        assert all(m == 1.0 for m in mask)

    def test_unknown_tokens_map_to_unk(self):
        vocab = build_vocab(["known"], max_size=10)
        ids, _ = tokenize_truncate(Example("known mystery", 0), vocab, 6)
        assert ids[1] == vocab.lookup("known")
        assert ids[2] == UNK_ID

    def test_every_row_starts_with_cls(self):
        vocab = build_vocab(["x y z"], max_size=10)
        batch = make_batch([Example("x y", 0), Example("z", 1)], vocab, 6)
        assert all(batch.token_ids[:, 0] == CLS_ID)
        assert all(batch.mask[batch.token_ids == PAD_ID] == 0.0)


class TestLoadCsv:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('0,"hello world"\n1,"goodbye"\n0,"again"\n')
        split = load_csv(path, CsvSchema(label_col=0, text_cols=(1,), n_classes=2))
        assert len(split) == 3
        assert split.examples[1].label == 1
        assert split.examples[0].text == "hello world"

    def test_two_text_columns_join_with_space(self, tmp_path):
        path = tmp_path / "ag.csv"
        path.write_text('"3","title","description"\n')
        split = load_csv(path, CsvSchema(label_col=0, text_cols=(1, 2),
                                         n_classes=4, label_base=1))
        assert split.examples[0].text == "title description"
        assert split.examples[0].label == 2  # rebased from 1-origin

    def test_malformed_quoting_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('0,"fine"\n1,"broken " quote"\n')
        with pytest.raises(InputError, match="bad.csv:2"):
            load_csv(path, CsvSchema(label_col=0, text_cols=(1,), n_classes=2))

    def test_label_outside_class_count(self, tmp_path):
        path = tmp_path / "oob.csv"
        path.write_text('5,"text"\n')
        with pytest.raises(InputError, match="outside"):
            load_csv(path, CsvSchema(label_col=0, text_cols=(1,), n_classes=2))

    def test_missing_column_names_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text('0,"text"\n1\n')
        with pytest.raises(InputError, match="short.csv:2"):
            load_csv(path, CsvSchema(label_col=0, text_cols=(1,), n_classes=2))


class TestCsvSchema:
    @pytest.mark.parametrize("label_col,text_cols", [(-1, (1,)), (-5, (1,)),
                                                     (0, (1, -1))])
    def test_negative_column_index_is_config_error(self, label_col, text_cols):
        with pytest.raises(ConfigError, match="column indices must be >= 0"):
            CsvSchema(n_classes=2, label_col=label_col, text_cols=text_cols)

    @pytest.mark.parametrize("label_col,text_cols", [(0, (0,)), (1, (0, 1))])
    def test_label_column_that_is_also_text_is_config_error(self, label_col,
                                                            text_cols):
        with pytest.raises(ConfigError, match=f"label column {label_col} is "
                                              f"also a text column"):
            CsvSchema(n_classes=2, label_col=label_col, text_cols=text_cols)

    @pytest.mark.parametrize("text_cols", [(1, 1), (1, 2, 1)])
    def test_repeated_text_column_is_config_error(self, text_cols):
        with pytest.raises(ConfigError, match="repeat a column"):
            CsvSchema(n_classes=2, text_cols=text_cols)

    @pytest.mark.parametrize("delimiter", ["", "ab"])
    def test_delimiter_of_other_than_one_character_is_config_error(
            self, delimiter):
        with pytest.raises(ConfigError, match="delimiter must be exactly one "
                                              "character"):
            CsvSchema(n_classes=2, delimiter=delimiter)


class TestShuffle:
    def test_same_seed_same_order(self):
        np.testing.assert_array_equal(permutation_with_seed(1000, [7, 0]),
                                      permutation_with_seed(1000, [7, 0]))

    def test_permutation_is_bijection(self):
        perm = permutation_with_seed(1000, 3)
        assert sorted(perm.tolist()) == list(range(1000))

    def test_distinct_seeds_differ(self):
        a = permutation_with_seed(1000, 1)
        b = permutation_with_seed(1000, 2)
        assert not np.array_equal(a, b)


class TestSynthetic:
    def test_counting_oracle_on_separated_classes(self):
        """A naive per-class token-frequency classifier must top 95%."""
        spec = SyntheticSpec(n_classes=4, vocab_span=200, tokens_per_example=16,
                             signal=0.9, label_noise=0.0, n_train=1600,
                             n_test=400)
        splits = make_synthetic(spec, seed=5)

        counts = np.ones((4, 400))  # laplace smoothing, token name -> column
        token_col = {}

        def col(tok):
            if tok not in token_col:
                token_col[tok] = len(token_col)
            return token_col[tok]

        for ex in splits["train"].examples:
            for tok in ex.text.split():
                counts[ex.label, col(tok)] += 1
        logp = np.log(counts / counts.sum(axis=1, keepdims=True))

        correct = 0
        for ex in splits["test"].examples:
            scores = np.zeros(4)
            for tok in ex.text.split():
                if tok in token_col:
                    scores += logp[:, token_col[tok]]
            correct += int(np.argmax(scores) == ex.label)
        assert correct / len(splits["test"]) > 0.95

    def test_information_free_limit(self):
        """signal=0 + 50% binary noise leaves the oracle near chance."""
        spec = SyntheticSpec(n_classes=2, vocab_span=100, tokens_per_example=12,
                             signal=0.0, label_noise=0.5, n_train=1500,
                             n_test=600)
        splits = make_synthetic(spec, seed=6)
        labels = np.array([ex.label for ex in splits["train"].examples])
        # labels are ~balanced and tokens carry no class information
        counts = {}
        for ex in splits["train"].examples:
            for tok in ex.text.split():
                c = counts.setdefault(tok, [1.0, 1.0])
                c[ex.label] += 1
        correct = 0
        for ex in splits["test"].examples:
            score = [0.0, 0.0]
            for tok in ex.text.split():
                c = counts.get(tok, [1.0, 1.0])
                total = c[0] + c[1]
                score[0] += np.log(c[0] / total)
                score[1] += np.log(c[1] / total)
            correct += int(np.argmax(score) == ex.label)
        acc = correct / len(splits["test"])
        assert 0.4 <= acc <= 0.6
        assert 0.4 <= labels.mean() <= 0.6

    def test_determinism_byte_identical_serialization(self):
        spec = SyntheticSpec(n_train=50, n_test=20, label_noise=0.2)
        a = make_synthetic(spec, seed=9)
        b = make_synthetic(spec, seed=9)
        for role in ("train", "test"):
            assert [(e.text, e.label) for e in a[role].examples] == \
                [(e.text, e.label) for e in b[role].examples]

    def test_test_label_noise_override(self):
        spec = SyntheticSpec(n_classes=4, signal=0.9, label_noise=0.5,
                             test_label_noise=0.0, n_train=400, n_test=400)
        splits = make_synthetic(spec, seed=12)
        # with signal 0.9 the majority block identifies the true label;
        # clean test labels should almost always match it
        block = spec.vocab_span // 4

        def block_of(ex):
            toks = [int(t[1:]) for t in ex.text.split()]
            return int(np.argmax(np.bincount([t // block for t in toks],
                                             minlength=4)))

        test_match = np.mean([block_of(e) == e.label
                              for e in splits["test"].examples])
        train_match = np.mean([block_of(e) == e.label
                               for e in splits["train"].examples])
        assert test_match > 0.95
        assert train_match < 0.75

    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="^seed: a seed must be >= 0"):
            make_synthetic(SyntheticSpec(n_train=4, n_test=4), seed=-1)


class TestBatching:
    def test_iter_batches_covers_split_in_order(self):
        vocab = build_vocab(["a b c"], max_size=10)
        split = DatasetSplit(
            examples=[Example("a b", i % 2) for i in range(10)],
            n_classes=2)
        batches = list(iter_batches(split, vocab, 6, batch_size=4))
        assert [b.token_ids.shape[0] for b in batches] == [4, 4, 2]
        assert all(b.token_ids.shape[1] == 6 for b in batches)

    def test_prepare_task_requires_train(self):
        with pytest.raises(InputError):
            prepare_task({"test": DatasetSplit([], 2)}, vocab_size=10)
