"""Text branch: tokenization, embedding lookup, windowed filters, pooling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dfsn.autodiff import LayerParams, ShapeError, Tensor, backward, triple_pool
from dfsn.gradcheck import grad_check
from dfsn.model import fusion_preset
from dfsn.text import (EmbeddingTable, SentenceMatrix, TextConfig, embed_sentence,
                       encode_sentence_matrix, init_text_params, oov_vector,
                       text_feature_maps, tokenize)

from oracles import project, text_windows_loops


def vector(table, word):
    """The table row a word maps to."""
    row = table.row_ids([word])[0]  # before reading ``matrix``: an append may move it
    return table.matrix[row]


class TestTokenize:
    def test_lowercase_and_punctuation_strip(self):
        assert tokenize("Amazing sunset!") == ["amazing", "sunset"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_whitespace_collapsing(self):
        assert tokenize("a  b\tc") == ["a", "b", "c"]

    def test_punctuation_only_tokens_dropped(self):
        assert tokenize("hello -- world !!") == ["hello", "world"]

    def test_inner_punctuation_kept(self):
        assert tokenize("it's well-lit.") == ["it's", "well-lit"]


class TestEmbeddingTable:
    def test_known_word_returns_stored_vector(self):
        table = EmbeddingTable(dim=3, vectors={"sun": np.array([1.0, 2.0, 3.0])})
        assert vector(table, "sun").tolist() == [1.0, 2.0, 3.0]

    def test_oov_is_deterministic_across_tables(self):
        a = EmbeddingTable(dim=8, fallback_seed=5)
        b = EmbeddingTable(dim=8, fallback_seed=5)
        assert np.array_equal(vector(a, "zzyzx"), vector(b, "zzyzx"))

    def test_oov_depends_on_seed(self):
        a = EmbeddingTable(dim=8, fallback_seed=5)
        b = EmbeddingTable(dim=8, fallback_seed=6)
        assert not np.array_equal(vector(a, "zzyzx"), vector(b, "zzyzx"))

    def test_oov_range(self):
        vec = oov_vector("anything", 64, seed=1)
        assert vec.shape == (64,)
        assert np.all(np.abs(vec) <= 0.25)

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable(dim=3, vectors={"x": np.zeros(4)})

    def test_oov_rows_do_not_depend_on_lookup_order(self):
        words = [f"unseen{i}" for i in range(40)]
        a = EmbeddingTable(dim=5, vectors={"known": np.ones(5)}, fallback_seed=2)
        b = EmbeddingTable(dim=5, vectors={"known": np.ones(5)}, fallback_seed=2)
        a.row_ids(words)
        b.row_ids(words[::-1])
        assert a.row_ids(["unseen0"]) != b.row_ids(["unseen0"])
        for word in words + ["known"]:
            assert vector(a, word).tobytes() == vector(b, word).tobytes()

    def test_padding_row_stays_zero_and_unmapped(self):
        table = EmbeddingTable(dim=3, vectors={"a": np.ones(3), "b": -np.ones(3)})
        ids = table.row_ids(["a", "b"] + [f"w{i}" for i in range(100)] + ["a", "w7"])
        assert 0 not in ids
        assert len(set(ids)) == 102
        assert table.matrix.shape == (103, 3)
        assert np.all(table.matrix[0] == 0.0)

    def test_loaded_words_take_the_rows_after_padding_in_order(self):
        table = EmbeddingTable(dim=2, vectors={"a": np.ones(2), "b": np.full(2, 2.0)})
        assert table.row_ids(["b", "a", "oov", "other"]) == [2, 1, 3, 4]
        assert table.matrix.shape == (5, 2)
        assert table.matrix[:3].tolist() == [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
        assert np.array_equal(table.matrix[3], oov_vector("oov", 2))


class TestEmbedSentence:
    def test_rows_follow_tokens_then_padding(self):
        table = EmbeddingTable(dim=2, vectors={"a": np.array([1.0, 0.0]),
                                               "b": np.array([0.0, 1.0])})
        sm = embed_sentence(["a", "b"], table, max_len=5)
        assert sm.n == 2
        assert sm.matrix.shape == (5, 2)
        assert sm.matrix[0].tolist() == [1.0, 0.0]
        assert sm.matrix[1].tolist() == [0.0, 1.0]
        assert np.all(sm.matrix[2:] == 0.0)

    def test_repeated_oov_token_gives_identical_rows(self):
        table = EmbeddingTable(dim=4)
        sm = embed_sentence(["blork", "blork"], table, max_len=3)
        assert np.array_equal(sm.matrix[0], sm.matrix[1])

    def test_truncation_at_max_len(self):
        table = EmbeddingTable(dim=2)
        sm = embed_sentence(["w"] * 200, table, max_len=150)
        assert sm.n == 150
        assert sm.matrix.shape == (150, 2)

    def test_default_storage_shape_is_150_by_200(self):
        table = EmbeddingTable()
        sm = embed_sentence(["one", "two"], table)
        assert sm.matrix.shape == (150, 200)


def _identity_params(dim, widths, weights, biases):
    cfg = TextConfig(dim=dim, max_len=10, widths=widths, filters_per_width=weights[widths[0]].shape[1],
                     nonlinearity="identity")
    params = LayerParams(cfg, "text.w")
    for h in widths:
        params.weights[h] = Tensor(weights[h], requires_grad=True)
        params.biases[h] = Tensor(biases[h], requires_grad=True)
    return params


class TestFeatureMaps:
    def hand_sentence(self):
        table = EmbeddingTable(dim=2, vectors={"p": np.array([1.0, 0.0]),
                                               "q": np.array([0.0, 1.0]),
                                               "r": np.array([1.0, 1.0])})
        return embed_sentence(["p", "q", "r"], table, max_len=10)

    def test_hand_dot_products_identity(self):
        sm = self.hand_sentence()
        params = _identity_params(2, (2,), {2: np.ones((4, 1))}, {2: np.zeros(1)})
        c = text_feature_maps(sm, params)[2]
        assert c.values.reshape(-1).tolist() == [2.0, 3.0]

    def test_hand_dot_products_tanh(self):
        sm = self.hand_sentence()
        cfg = TextConfig(dim=2, max_len=10, widths=(2,), filters_per_width=1)
        params = LayerParams(cfg, "text.w")
        params.weights[2] = Tensor(np.ones((4, 1)), requires_grad=True)
        params.biases[2] = Tensor(np.zeros(1), requires_grad=True)
        c = text_feature_maps(sm, params)[2]
        assert np.allclose(c.values.reshape(-1), [np.tanh(2.0), np.tanh(3.0)], atol=1e-5)
        assert c.values.reshape(-1) == pytest.approx([0.96403, 0.99505], abs=1e-5)

    def test_zero_filter_gives_zero_map_of_right_length(self):
        sm = self.hand_sentence()
        cfg = TextConfig(dim=2, max_len=10, widths=(2,), filters_per_width=1)
        params = LayerParams(cfg, "text.w")
        params.weights[2] = Tensor(np.zeros((4, 1)), requires_grad=True)
        params.biases[2] = Tensor(np.zeros(1), requires_grad=True)
        c = text_feature_maps(sm, params)[2]
        assert c.shape == (2, 1)  # n - h + 1 = 2
        assert np.all(c.values == 0.0)

    def test_map_length_formula(self):
        table = EmbeddingTable(dim=3)
        rng = np.random.default_rng(0)
        cfg = TextConfig(dim=3, max_len=20, widths=(2, 4), filters_per_width=2)
        params = init_text_params(cfg, rng, dtype=np.float64)
        sm = embed_sentence(["w"] * 9, table, max_len=20)
        maps = text_feature_maps(sm, params)
        assert maps[2].shape == (8, 2)
        assert maps[4].shape == (6, 2)

    def test_short_sentence_single_padded_window(self):
        table = EmbeddingTable(dim=3)
        rng = np.random.default_rng(1)
        cfg = TextConfig(dim=3, max_len=20, widths=(5,), filters_per_width=2)
        params = init_text_params(cfg, rng, dtype=np.float64)
        sm = embed_sentence(["only", "two"], table, max_len=20)
        maps = text_feature_maps(sm, params)
        assert maps[5].shape == (1, 2)

    def test_convolution_ignores_padding_rows(self):
        # same tokens, different trailing padding counts: identical maps
        table = EmbeddingTable(dim=2, vectors={"x": np.array([0.5, -0.5])})
        rng = np.random.default_rng(2)
        cfg = TextConfig(dim=2, max_len=12, widths=(2,), filters_per_width=3)
        params = init_text_params(cfg, rng, dtype=np.float64)
        short = embed_sentence(["x", "x", "x"], table, max_len=6)
        long = embed_sentence(["x", "x", "x"], table, max_len=12)
        a = text_feature_maps(short, params)[2].values
        b = text_feature_maps(long, params)[2].values
        assert np.array_equal(a, b)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        table = EmbeddingTable(dim=4, fallback_seed=9)
        tokens = ["alpha", "beta", "gamma", "delta", "eps"]
        sm = embed_sentence(tokens, table, max_len=8)
        cfg = TextConfig(dim=4, max_len=8, widths=(2, 3), filters_per_width=2)
        params = init_text_params(cfg, rng, dtype=np.float64)
        maps = text_feature_maps(sm, params)
        for h in (2, 3):
            expect = text_windows_loops(sm.matrix, sm.n, h,
                                        params.weights[h].values,
                                        params.biases[h].values, "tanh")
            assert np.allclose(maps[h].values, expect, atol=1e-6)


class TestBatchedText:
    def make(self):
        rng = np.random.default_rng(12)
        cfg = TextConfig(dim=3, max_len=8, widths=(2, 3, 4), filters_per_width=2)
        params = init_text_params(cfg, rng, dtype=np.float64)
        table = EmbeddingTable(dim=3, fallback_seed=4)
        # for width 3: n = 0, n < h, n = h, n = max_len, and one in between
        token_lists = [[f"w{n}_{i}" for i in range(n)] for n in (0, 2, 3, 8, 5)]
        sms = [embed_sentence(tokens, table, max_len=8) for tokens in token_lists]
        return params, table, token_lists, sms

    def test_ragged_batch_matches_loop_oracle_per_sentence(self):
        params, table, token_lists, sms = self.make()
        batched = encode_sentence_matrix(token_lists, table, params).values
        for j, sm in enumerate(sms):
            want = []
            for h in params.config.widths:
                fmap = text_windows_loops(sm.matrix, sm.n, h, params.weights[h].values,
                                          params.biases[h].values, "tanh")
                want += [[col.max(), col.mean(), col.min()] for col in fmap.T]
            assert np.allclose(batched[j], np.ravel(want), atol=1e-12)

    def test_batch_rows_equal_batches_of_one(self):
        params, table, token_lists, sms = self.make()
        batched = encode_sentence_matrix(token_lists, table, params).values
        assert batched.shape == (len(sms), params.config.feature_size)
        for j, tokens in enumerate(token_lists):
            one = encode_sentence_matrix([tokens], table, params).values[0]
            assert np.allclose(batched[j], one, atol=1e-12)

    def test_batch_gradient_is_sum_of_sentence_gradients(self):
        params, table, token_lists, sms = self.make()
        proj = np.random.default_rng(13).uniform(0.5, 1.5, (len(sms), 18))
        weights = [params.weights[h] for h in params.config.widths]
        batched = backward(project(encode_sentence_matrix(token_lists, table, params), proj),
                           weights)
        summed = [np.zeros(w.shape) for w in weights]
        for j, tokens in enumerate(token_lists):
            x = encode_sentence_matrix([tokens], table, params)
            summed = [s + g for s, g in zip(summed, backward(project(x, proj[j:j + 1]), weights))]
        for b, s in zip(batched, summed):
            assert np.allclose(b, s, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_equals_per_sentence_path(self, dtype):
        cfg = TextConfig(dim=4, max_len=6, widths=(2, 3), filters_per_width=2)
        params = init_text_params(cfg, np.random.default_rng(14), dtype=dtype)
        table = EmbeddingTable(dim=4, vectors={"sun": np.linspace(-1.0, 1.0, 4)},
                               fallback_seed=8)
        # longer than max_len, shorter than the widest filter, empty, known plus OOV words
        token_lists = [[f"t{i}" for i in range(9)], ["sun", "x"], [], ["sun", "a", "b", "sun"]]
        got = encode_sentence_matrix(token_lists, table, params).values
        assert got.dtype == dtype
        # t6..t8 lie past max_len and are never looked up: pad, sun, t0..t5, x, a, b
        assert table.matrix.shape == (11, 4)
        for j, tokens in enumerate(token_lists):
            sm = embed_sentence(tokens, table, cfg.max_len)
            maps = text_feature_maps(SentenceMatrix(sm.matrix.astype(dtype), sm.n), params)
            want = [triple_pool(Tensor(maps[h].values[:, i])).values for h in cfg.widths
                    for i in range(cfg.filters_per_width)]
            assert got[j].tobytes() == np.concatenate(want).tobytes()

    @staticmethod
    def repeated_batch(dtype):
        """43 sentences over a 5-word vocabulary: 40 drawn ones, one with an OOV
        word, an empty one and one longer than max_len."""
        cfg = TextConfig(dim=4, max_len=6, widths=(2, 3), filters_per_width=2)
        params = init_text_params(cfg, np.random.default_rng(15), dtype=dtype)
        words = ["sun", "rain", "sky", "sea", "dark"]
        rng = np.random.default_rng(16)
        table = EmbeddingTable(dim=4, vectors={w: rng.uniform(-1, 1, 4) for w in words},
                               fallback_seed=9)
        token_lists = [[words[i] for i in rng.integers(0, 5, int(rng.integers(1, 7)))]
                       for _ in range(40)]
        token_lists += [["sun", "unseen", "sun"], [], [words[i] for i in rng.integers(0, 5, 9)]]
        return params, table, token_lists

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_repeated_batch_equals_per_sentence_path(self, dtype):
        params, table, token_lists = self.repeated_batch(dtype)
        cfg = params.config
        got = encode_sentence_matrix(token_lists, table, params).values
        # the batch's tokens come from 7 distinct rows: pad, 5 words, unseen
        assert table.matrix.shape == (7, 4)
        for j, tokens in enumerate(token_lists):
            sm = embed_sentence(tokens, table, cfg.max_len)
            maps = text_feature_maps(SentenceMatrix(sm.matrix.astype(dtype), sm.n), params)
            want = [triple_pool(Tensor(maps[h].values[:, i])).values for h in cfg.widths
                    for i in range(cfg.filters_per_width)]
            assert got[j].tobytes() == np.concatenate(want).tobytes()

    def test_repeated_batch_gradient_is_sum_of_sentence_gradients(self):
        params, table, token_lists = self.repeated_batch(np.float64)
        widths = params.config.widths
        proj = np.random.default_rng(17).uniform(0.5, 1.5, (len(token_lists), 12))
        weights = [params.weights[h] for h in widths]
        batched = backward(project(encode_sentence_matrix(token_lists, table, params), proj),
                           weights)
        summed = [np.zeros(w.shape) for w in weights]
        for j, tokens in enumerate(token_lists):
            x = encode_sentence_matrix([tokens], table, params)
            summed = [s + g for s, g in zip(summed, backward(project(x, proj[j:j + 1]), weights))]
        for b, s in zip(batched, summed):
            assert np.allclose(b, s, atol=1e-12)

    def test_rows_of_wrong_shape_rejected(self):
        params, _, token_lists, _ = self.make()
        with pytest.raises(ShapeError, match="embedding dim 4 != text branch dim 3"):
            encode_sentence_matrix(token_lists, EmbeddingTable(dim=4), params)

    def test_max_len_must_hold_widest_window(self):
        with pytest.raises(ValueError, match="widest"):
            TextConfig(dim=3, max_len=4, widths=(3, 5))

    @pytest.mark.parametrize("kwargs,error", [
        (dict(dim=True), TypeError), (dict(max_len=20.0), TypeError),
        (dict(filters_per_width=0), ValueError), (dict(widths=()), ValueError),
        (dict(widths=(2, "3")), TypeError), (dict(widths=(0, 3)), ValueError),
    ])
    def test_integer_fields_checked(self, kwargs, error):
        with pytest.raises(error):
            TextConfig(**{**dict(dim=3, max_len=20, widths=(2, 3)), **kwargs})


def _encode(text, table, params):
    """Tokenize, embed, and run the text branch on a batch of one, as the
    model does; returns that one sentence's feature row."""
    return encode_sentence_matrix([tokenize(text)], table, params).reshape(-1)


class TestEncodeText:
    def make(self, filters=1, dim=6, seed=0):
        rng = np.random.default_rng(seed)
        cfg = TextConfig(dim=dim, max_len=15, widths=(3, 4, 5), filters_per_width=filters)
        params = init_text_params(cfg, rng, dtype=np.float64)
        table = EmbeddingTable(dim=dim, fallback_seed=seed)
        return cfg, params, table

    def test_output_length_three_pools_per_filter(self):
        cfg, params, table = self.make(filters=1)
        x = _encode("one two three four five six", table, params)
        assert x.shape == (9,)
        assert x.shape[0] == cfg.feature_size

    def test_length_constant_across_inputs(self):
        _, params, table = self.make(filters=2)
        sizes = {_encode(text, table, params).shape
                 for text in ("short one", "a much longer sentence with many words inside it", "x")}
        assert sizes == {(18,)}

    def test_permuting_filters_permutes_blocks(self):
        _, params, table = self.make(filters=2, seed=4)
        x = _encode("some words to encode here", table, params).values.copy()
        w3 = params.weights[3].values
        params.weights[3].values[...] = w3[:, ::-1]
        b3 = params.biases[3].values
        params.biases[3].values[...] = b3[::-1]
        y = _encode("some words to encode here", table, params).values
        # width-3 filters occupy the first two 3-blocks, swapped as units
        assert np.allclose(y[0:3], x[3:6])
        assert np.allclose(y[3:6], x[0:3])
        assert np.allclose(y[6:], x[6:])

    def test_pool_order_max_mean_min(self):
        _, params, table = self.make(filters=2, seed=5)
        x = _encode("several tokens for the pooling order check", table, params).values
        for block in x.reshape(-1, 3):
            assert block[0] >= block[1] >= block[2]

    def test_embedding_table_stays_frozen(self):
        _, params, table = self.make(filters=1, seed=6)
        tokens = tokenize("gradient should not reach the table")
        table.row_ids(tokens)
        table_before = table.matrix.copy()
        x = encode_sentence_matrix([tokens], table, params)
        grads = backward(project(x, np.arange(1.0, 10.0).reshape(1, 9)),
                         [params.weights[h] for h in (3, 4, 5)])
        assert all(g is not None for g in grads)
        assert np.array_equal(table.matrix, table_before)

    def test_filter_gradient_matches_finite_differences(self):
        _, params, table = self.make(filters=1, seed=7)
        tokens = tokenize("six words are enough for this probe")
        proj = np.linspace(0.5, 1.5, 9).reshape(1, 9)

        def fn(*_):
            return project(encode_sentence_matrix([tokens], table, params), proj)

        inputs = [params.weights[3], params.biases[3], params.weights[5]]
        report = grad_check(fn, inputs, eps=1e-4, tol=1e-5)
        assert report.passed, str(report)

    def test_preset_sizes(self):
        assert fusion_preset("full").text.feature_size == 900
        assert fusion_preset("tiny").text.feature_size == 18


class TestTriplePoolLaw:
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
    def test_max_mean_min_ordering(self, xs):
        out = triple_pool(Tensor(xs)).values
        assert out[0] >= out[1] >= out[2]

    @given(st.floats(-50, 50), st.integers(1, 20))
    def test_constant_map_collapses(self, v, n):
        out = triple_pool(Tensor([v] * n)).values
        assert out[0] == out[1] == out[2] == v
