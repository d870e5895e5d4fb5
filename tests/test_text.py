"""Text branch: tokenization, embedding lookup, windowed filters, pooling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dfsn.autodiff import Tensor, backward, triple_pool
from dfsn.gradcheck import grad_check
from dfsn.text import (EmbeddingTable, TextBranchParams, TextConfig,
                       embed_sentence, encode_sentence_matrix,
                       init_text_params, oov_vector, text_feature_maps,
                       text_preset, tokenize)

from oracles import text_windows_loops


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
        assert table.lookup("sun").tolist() == [1.0, 2.0, 3.0]

    def test_oov_is_deterministic_across_tables(self):
        a = EmbeddingTable(dim=8, fallback_seed=5)
        b = EmbeddingTable(dim=8, fallback_seed=5)
        assert np.array_equal(a.lookup("zzyzx"), b.lookup("zzyzx"))

    def test_oov_depends_on_seed(self):
        a = EmbeddingTable(dim=8, fallback_seed=5)
        b = EmbeddingTable(dim=8, fallback_seed=6)
        assert not np.array_equal(a.lookup("zzyzx"), b.lookup("zzyzx"))

    def test_oov_range(self):
        vec = oov_vector("anything", 64, seed=1)
        assert vec.shape == (64,)
        assert np.all(np.abs(vec) <= 0.25)

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable(dim=3, vectors={"x": np.zeros(4)})


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
    params = TextBranchParams(config=cfg)
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
        params = TextBranchParams(config=cfg)
        params.weights[2] = Tensor(np.ones((4, 1)), requires_grad=True)
        params.biases[2] = Tensor(np.zeros(1), requires_grad=True)
        c = text_feature_maps(sm, params)[2]
        assert np.allclose(c.values.reshape(-1), [np.tanh(2.0), np.tanh(3.0)], atol=1e-5)
        assert c.values.reshape(-1) == pytest.approx([0.96403, 0.99505], abs=1e-5)

    def test_zero_filter_gives_zero_map_of_right_length(self):
        sm = self.hand_sentence()
        cfg = TextConfig(dim=2, max_len=10, widths=(2,), filters_per_width=1)
        params = TextBranchParams(config=cfg)
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
        sms = [embed_sentence([f"w{n}_{i}" for i in range(n)], table, max_len=8)
               for n in (0, 2, 3, 8, 5)]
        return params, sms

    def test_ragged_batch_matches_loop_oracle_per_sentence(self):
        params, sms = self.make()
        batched = encode_sentence_matrix(sms, params).values
        for j, sm in enumerate(sms):
            want = []
            for h in params.config.widths:
                fmap = text_windows_loops(sm.matrix, sm.n, h, params.weights[h].values,
                                          params.biases[h].values, "tanh")
                want += [[col.max(), col.mean(), col.min()] for col in fmap.T]
            assert np.allclose(batched[j], np.ravel(want), atol=1e-12)

    def test_batch_rows_equal_batches_of_one(self):
        params, sms = self.make()
        batched = encode_sentence_matrix(sms, params).values
        assert batched.shape == (len(sms), params.config.feature_size)
        for j, sm in enumerate(sms):
            assert np.allclose(batched[j], encode_sentence_matrix([sm], params).values[0],
                               atol=1e-12)

    def test_batch_gradient_is_sum_of_sentence_gradients(self):
        params, sms = self.make()
        proj = np.random.default_rng(13).uniform(0.5, 1.5, (len(sms), 18))
        backward((encode_sentence_matrix(sms, params) * Tensor(proj)).sum())
        batched = {h: params.weights[h].grad.copy() for h in params.config.widths}
        for h in params.config.widths:
            params.weights[h].zero_grad()
        for j, sm in enumerate(sms):
            backward((encode_sentence_matrix([sm], params) * Tensor(proj[j:j + 1])).sum())
        for h in params.config.widths:
            assert np.allclose(batched[h], params.weights[h].grad, atol=1e-12)

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
    sm = embed_sentence(tokenize(text), table, params.config.max_len)
    return encode_sentence_matrix([sm], params).reshape(-1)


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
        sm = embed_sentence(tokens, table, params.config.max_len)
        before = sm.matrix.copy()
        x = encode_sentence_matrix([sm], params)
        backward((x * Tensor(np.arange(1.0, 10.0).reshape(1, 9))).sum())
        for h in (3, 4, 5):
            assert params.weights[h].grad is not None
        assert np.array_equal(sm.matrix, before)

    def test_filter_gradient_matches_finite_differences(self):
        _, params, table = self.make(filters=1, seed=7)
        tokens = tokenize("six words are enough for this probe")
        sm = embed_sentence(tokens, table, params.config.max_len)
        proj = Tensor(np.linspace(0.5, 1.5, 9).reshape(1, 9))

        def fn(*_):
            return (encode_sentence_matrix([sm], params) * proj).sum()

        inputs = [params.weights[3], params.biases[3], params.weights[5]]
        report = grad_check(fn, inputs, eps=1e-4, tol=1e-5, smooth_only=True)
        assert report.passed, str(report)

    def test_preset_sizes(self):
        assert text_preset("full").feature_size == 900
        assert text_preset("tiny").feature_size == 18
        with pytest.raises(ValueError):
            text_preset("giant")


class TestTriplePoolLaw:
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
    def test_max_mean_min_ordering(self, xs):
        out = triple_pool(Tensor(xs)).values
        assert out[0] >= out[1] >= out[2]

    @given(st.floats(-50, 50), st.integers(1, 20))
    def test_constant_map_collapses(self, v, n):
        out = triple_pool(Tensor([v] * n)).values
        assert out[0] == out[1] == out[2] == v
