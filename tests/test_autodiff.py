"""Core tensor and autodiff behavior: elementwise ops, matmul, concat,
loss, and the backward traversal itself."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from numpy.lib.stride_tricks import sliding_window_view

from dfsn.autodiff import (ShapeError, Tensor, _mean, _topo_order, backward, bias_add,
                           concat, matmul, relu, softmax_cross_entropy,
                           stable_softmax, tanh_op, window_filter)

from oracles import matmul_loops, project


class TestTensorBasics:
    def test_shape_matches_values(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert t.shape == (3, 4)
        assert t.numel == 12

    def test_int_data_becomes_float(self):
        t = Tensor([1, 2, 3])
        assert t.values.dtype == np.float64

    def test_float32_preserved(self):
        t = Tensor(np.ones(3, dtype=np.float32))
        assert t.values.dtype == np.float32

    def test_grad_absent_until_backward(self):
        # a tensor holds no gradient, before backward or after: backward returns it
        t = Tensor([1.0], requires_grad=True)
        assert not hasattr(t, "grad")
        assert backward(project(t), [t])[0].tolist() == [1.0]
        assert not hasattr(t, "grad")

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()


class TestRelu:
    def test_positive_passthrough(self):
        assert relu(Tensor([3.2])).values[0] == pytest.approx(3.2)

    def test_negative_clamps(self):
        assert relu(Tensor([-2.0])).values[0] == 0.0

    def test_elementwise(self):
        out = relu(Tensor([-1.0, 0.0, 5.0]))
        assert out.values.tolist() == [0.0, 0.0, 5.0]

    def test_gradient_mask(self):
        t = Tensor([-1.0, 0.0, 5.0], requires_grad=True)
        (grad,) = backward(project(relu(t)), [t])
        # subgradient at exactly 0 is 0
        assert grad.tolist() == [0.0, 0.0, 1.0]

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    def test_idempotent(self, xs):
        once = relu(Tensor(xs)).values
        twice = relu(relu(Tensor(xs))).values
        assert np.array_equal(once, twice)


class TestTanh:
    def test_odd_at_zero(self):
        assert tanh_op(Tensor([0.0])).values[0] == 0.0

    def test_reference_value(self):
        assert tanh_op(Tensor([2.0])).values[0] == pytest.approx(np.tanh(2.0), abs=1e-12)

    def test_gradient_at_zero_is_one(self):
        t = Tensor([0.0], requires_grad=True)
        (grad,) = backward(project(tanh_op(t)), [t])
        assert grad[0] == pytest.approx(1.0)


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), m)
        assert np.array_equal(out.values, m.values)

    def test_hand_example_matches_loops(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        out = matmul(Tensor(a), Tensor(b))
        assert out.values.tolist() == [[17.0], [39.0]]
        assert np.allclose(out.values, matmul_loops(a, b))

    def test_random_matches_loops(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, (6, 3))
        assert np.allclose(matmul(Tensor(a), Tensor(b)).values, matmul_loops(a, b), atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_backward_rules(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        b = Tensor(np.array([[5.0], [6.0]]), requires_grad=True)
        da, db = backward(project(matmul(a, b)), [a, b])
        # dA = g @ B^T with g all-ones, dB = A^T @ g
        assert np.allclose(da, np.array([[5.0, 6.0], [5.0, 6.0]]))
        assert np.allclose(db, np.array([[4.0], [6.0]]))


class TestWindowFilter:
    """``window_filter(rows, ids, w, h)`` against the window product over the
    gathered token rows ``rows[ids]``."""

    @staticmethod
    def windows(tokens, h):
        return sliding_window_view(tokens, (h, tokens.shape[1])).reshape(-1, h * tokens.shape[1])

    def check_against_gathered_rows(self, rows, ids, f, h, seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.uniform(-1, 1, (h * rows.shape[1], f)), requires_grad=True)
        g = rng.uniform(-1, 1, (len(ids) - h + 1, f))
        out = window_filter(rows, ids, w, h)
        windows = self.windows(rows[ids], h)
        assert out.shape == (len(ids) - h + 1, f)
        assert np.allclose(out.values, windows @ w.values, rtol=0, atol=1e-12)
        (dw,) = backward(project(out, g), [w])
        assert np.allclose(dw, windows.T @ g, rtol=0, atol=1e-12)

    # (R, D, F, h): general, one window (R == h), h == 1, F == 1, D == 1; the R
    # ids are drawn with repeats from R + 2 distinct rows, so some rows go unused
    @pytest.mark.parametrize("rows,dim,f,h", [(7, 4, 3, 3), (3, 4, 3, 3), (6, 4, 3, 1),
                                              (6, 4, 1, 3), (6, 1, 3, 3)])
    def test_matches_window_product_forward_and_backward(self, rows, dim, f, h):
        rng = np.random.default_rng(rows * 100 + dim * 10 + f + h)
        table = rng.uniform(-1, 1, (rows + 2, dim))
        ids = rng.integers(0, rows + 2, rows)
        self.check_against_gathered_rows(table, ids, f, h, seed=rows + dim)

    @pytest.mark.parametrize("ids,h", [
        ([2, 0, 2, 2, 0, 1, 2], 3),   # repeats, out of order
        ([0, 3, 3, 5, 0], 2),         # rows 1, 2 and 4 unused
        ([1, 1, 1, 1], 2),            # a single distinct row
        ([4, 0, 4], 3),               # R == h: one window
        ([5, 4, 3, 2, 1, 0], 1),      # every row once, descending
    ])
    def test_id_patterns(self, ids, h):
        rows = np.random.default_rng(len(ids)).uniform(-1, 1, (6, 3))
        self.check_against_gathered_rows(rows, np.array(ids), 2, h, seed=h)

    def test_float32_weights_give_float64_output(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(-1, 1, (3, 2))
        ids = np.array([0, 2, 2, 1, 0])
        w = Tensor(rng.uniform(-1, 1, (4, 3)).astype(np.float32), requires_grad=True)
        out = window_filter(rows, ids, w, 2)
        assert out.dtype == np.float64
        assert np.allclose(out.values, self.windows(rows[ids], 2) @ w.values.astype(np.float64),
                           rtol=0, atol=1e-12)
        (dw,) = backward(project(out), [w])
        assert dw.dtype == np.float32

    def test_tokens_get_no_gradient_slot(self):
        w = Tensor(np.ones((2, 1)), requires_grad=True)
        out = window_filter(np.ones((2, 1)), np.array([0, 1, 1]), w, 2)
        assert out._parents == (w,)

    # (R tokens, weight rows, h) over 2-wide rows
    @pytest.mark.parametrize("rows,w_rows,h", [(2, 6, 3), (4, 4, 3), (4, 0, 0)])
    def test_rejects_width_that_does_not_fit(self, rows, w_rows, h):
        with pytest.raises(ShapeError, match="window_filter"):
            window_filter(np.ones((2, 2)), np.zeros(rows, np.intp),
                          Tensor(np.ones((w_rows, 1))), h)


class TestBiasAdd:
    def test_rows_shifted(self):
        out = bias_add(Tensor(np.zeros((2, 3))), Tensor([1.0, 2.0, 3.0]))
        assert np.array_equal(out.values, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])

    def test_bias_grad_sums_rows(self):
        m = Tensor(np.zeros((4, 2)), requires_grad=True)
        v = Tensor(np.zeros(2), requires_grad=True)
        dm, dv = backward(project(bias_add(m, v)), [m, v])
        assert np.array_equal(dv, [4.0, 4.0])
        assert np.array_equal(dm, np.ones((4, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            bias_add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))


class TestConcat:
    def test_lengths_add(self):
        out = concat([Tensor(np.zeros(4)), Tensor(np.zeros(6))], axis=0)
        assert out.shape == (10,)

    def test_single_part_identity(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert np.array_equal(concat([t]).values, t.values)

    def test_slice_recovers_part(self):
        parts = [Tensor([1.0, 2.0]), Tensor([3.0]), Tensor([4.0, 5.0, 6.0])]
        out = concat(parts, axis=0)
        assert np.array_equal(out.values[3:6], parts[2].values)

    def test_empty_list_rejected(self):
        with pytest.raises(ShapeError):
            concat([])

    def test_mismatched_non_axis_extent(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)

    def test_backward_splits(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0, 5.0], requires_grad=True)
        da, db = backward(project(concat([a, b]), [1.0, 2.0, 3.0, 4.0, 5.0]), [a, b])
        assert da.tolist() == [1.0, 2.0]
        assert db.tolist() == [3.0, 4.0, 5.0]

    @given(st.lists(st.lists(st.floats(-5, 5), min_size=1, max_size=5),
                    min_size=1, max_size=4))
    def test_concat_then_slice_is_identity(self, chunks):
        tensors = [Tensor(c) for c in chunks]
        out = concat(tensors, axis=0).values
        offset = 0
        for c in chunks:
            assert np.array_equal(out[offset:offset + len(c)], np.asarray(c, dtype=np.float64))
            offset += len(c)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = softmax_cross_entropy(Tensor([0.0, 0.0]), 0)
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_confident_correct_prediction(self):
        loss = softmax_cross_entropy(Tensor([10.0, 0.0]), 0)
        assert loss.item() == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-10)

    def test_gradient_at_uniform(self):
        logits = Tensor([0.0, 0.0], requires_grad=True)
        (grad,) = backward(softmax_cross_entropy(logits, 0), [logits])
        assert np.allclose(grad, [-0.5, 0.5])

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_cross_entropy(Tensor([0.0, 0.0]), 2)
        with pytest.raises(IndexError):
            softmax_cross_entropy(Tensor([0.0, 0.0]), -1)

    def test_batch_is_mean_of_rows(self):
        logits = np.array([[0.5, -1.0, 0.2], [2.0, 0.0, -0.4], [0.0, 0.3, 0.1]])
        labels = [1, 0, 2]
        batch = Tensor(logits, requires_grad=True)
        (batch_grad,) = backward(softmax_cross_entropy(batch, labels), [batch])
        rows = []
        for row, label, grad in zip(logits, labels, batch_grad):
            single = Tensor(row, requires_grad=True)
            loss = softmax_cross_entropy(single, label)
            (single_grad,) = backward(loss, [single])
            rows.append(loss.item())
            assert np.allclose(grad, single_grad / len(labels), rtol=1e-12, atol=0)
        batch_loss = softmax_cross_entropy(Tensor(logits), labels).item()
        assert batch_loss == pytest.approx(np.mean(rows), rel=1e-12)

    def test_label_vector_must_match_rows(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(Tensor(np.zeros((3, 2))), [0, 1])
        with pytest.raises(IndexError):
            softmax_cross_entropy(Tensor(np.zeros((2, 2))), [0, 2])

    def test_large_logits_stay_finite(self):
        loss = softmax_cross_entropy(Tensor([1000.0, -1000.0]), 1)
        assert np.isfinite(loss.item())

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.data())
    def test_loss_nonnegative_and_log_c_at_uniform(self, logits, data):
        label = data.draw(st.integers(0, len(logits) - 1))
        assert softmax_cross_entropy(Tensor(logits), label).item() >= 0.0
        c = len(logits)
        uniform = softmax_cross_entropy(Tensor([1.7] * c), label).item()
        assert uniform == pytest.approx(np.log(c), abs=1e-9)

    @given(st.lists(st.floats(-15, 15), min_size=2, max_size=10))
    def test_softmax_simplex(self, logits):
        # logit spreads below ~36 keep every component strictly inside (0, 1)
        # at float64; larger spreads round the dominant component to 1.0
        p = stable_softmax(np.array(logits))
        assert np.all(p > 0.0) and np.all(p < 1.0)
        assert abs(p.sum() - 1.0) < 1e-6

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=10))
    def test_softmax_simplex_extreme_logits(self, logits):
        p = stable_softmax(np.array(logits))
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        assert abs(p.sum() - 1.0) < 1e-6


class TestBackward:
    def test_dead_relu_region_gives_zeros(self):
        t = Tensor([-0.5, -1.5], requires_grad=True)
        (grad,) = backward(project(relu(tanh_op(t))), [t])
        assert np.array_equal(grad, np.zeros(2))

    def test_unreached_and_constant_tensors_get_none(self):
        t = Tensor([2.0], requires_grad=True)
        unreached = Tensor([1.0], requires_grad=True)
        constant = Tensor([3.0])
        loss = project(concat([t, constant]), [1.0, 1.0])
        d_unreached, d_constant, dt = backward(loss, [unreached, constant, t])
        assert d_unreached is None and d_constant is None
        assert dt.tolist() == [1.0]
        assert backward(project(constant), [constant]) == [None]

    def test_float32_leaf_under_float64_loss_gets_float32_gradient(self):
        t = Tensor(np.array([0.5, -2.0], np.float32), requires_grad=True)
        u = Tensor([1.5], requires_grad=True)
        loss = project(concat([tanh_op(t), u]), [3.0, 4.0, 5.0])
        assert loss.dtype == np.float64
        dt, du = backward(loss, [t, u])
        assert dt.dtype == np.float32 and du.dtype == np.float64
        assert np.allclose(dt, [3.0, 4.0] * (1.0 - np.tanh(t.values) ** 2), rtol=1e-6, atol=0)
        assert du.tolist() == [5.0]

    def test_tensor_listed_twice_gets_equal_gradients(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        first, second = backward(project(tanh_op(t), [3.0, 4.0]), [t, t])
        assert np.array_equal(first, second)
        assert np.allclose(first, [3.0, 4.0] * (1.0 - np.tanh(t.values) ** 2), rtol=1e-12)

    def test_repeated_calls_do_not_accumulate(self):
        t = Tensor([2.0], requires_grad=True)
        loss = project(t)
        assert [backward(loss, [t])[0][0] for _ in range(2)] == [1.0, 1.0]

    def test_diamond_graph_accumulates_once_per_path(self):
        t = Tensor([3.0], requires_grad=True)
        y = concat([t, t])  # two parent slots of one node hold t
        (grad,) = backward(project(y, [1.0, 2.0]), [t])
        assert grad[0] == 3.0

    def test_shared_node_fanout(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        h = tanh_op(t)  # read by relu and by concat
        loss = project(concat([relu(h), h]), [1.0, 2.0, 3.0, 4.0])
        (grad,) = backward(loss, [t])
        assert np.allclose(grad, [4.0, 6.0] * (1.0 - np.tanh(t.values) ** 2),
                           rtol=1e-12, atol=0)

    def test_only_leaves_keep_a_gradient(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.uniform(-1, 1, (3, 2)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 2), requires_grad=True)
        x = Tensor(rng.uniform(-1, 1, (4, 3)))
        hidden = bias_add(matmul(x, w), b)
        out = tanh_op(hidden)
        loss = project(out)
        dw, db, dx = backward(loss, [w, b, x])
        assert hidden.requires_grad and out.requires_grad
        assert not any(hasattr(n, "grad") for n in (w, b, x, hidden, out, loss))
        assert dx is None
        dh = 1.0 - np.tanh(x.values @ w.values + b.values) ** 2
        assert np.allclose(dw, x.values.T @ dh, rtol=1e-12, atol=0)
        assert np.allclose(db, dh.sum(axis=0), rtol=1e-12, atol=0)

    def test_non_scalar_loss_rejected(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(tanh_op(t), [t])

    def test_mean_backward(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        (grad,) = backward(_mean(t), [t])
        assert np.allclose(grad, np.full((2, 2), 0.25))

    def test_reshape_backward(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        (grad,) = backward(project(t.reshape(2, 3), np.arange(6.0).reshape(2, 3)), [t])
        assert np.array_equal(grad, np.arange(6.0))

    def test_values_stay_finite_through_pipeline(self):
        rng = np.random.default_rng(0)
        t = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
        loss = project(tanh_op(matmul(t, t)))
        (grad,) = backward(loss, [t])
        assert np.isfinite(loss.item())
        assert np.isfinite(grad).all()


class TestComputeGraph:
    def test_topological_order(self):
        a = Tensor([1.0], requires_grad=True)
        b = tanh_op(a)
        c = concat([b, a])
        d = concat([c, b])
        order = _topo_order(d)
        pos = {id(n): i for i, n in enumerate(order)}
        for node in order:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]

    def test_each_node_listed_once(self):
        a = Tensor([1.0], requires_grad=True)
        b = tanh_op(a)
        d = concat([concat([b, b]), b])
        ids = [id(n) for n in _topo_order(d)]
        assert len(ids) == len(set(ids))

    def test_grad_dtype_follows_tensor(self):
        t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (grad,) = backward(project(t, [2.0, 2.0, 2.0]), [t])
        assert grad.dtype == np.float32


def assert_dtype_rule(op, shapes, dtypes):
    """Run ``op`` on leaves of the given shapes and dtypes and check the dtype
    rule: the value, the gradient ``backward`` hands the op's closure (cast
    from the float64 one of the projection) and the gradients the closure
    returns all take ``np.result_type`` of the operands; each leaf's gradient
    comes back at its dtype."""
    rng = np.random.default_rng(0)
    leaves = [Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
              for shape, dtype in zip(shapes, dtypes)]
    out = op(*leaves)
    want = np.result_type(*dtypes)
    assert out.dtype == want
    closure, seen = out._backward_fn, []

    def spy(g):
        grads = closure(g)
        seen.extend([g.dtype] + [pg.dtype for pg in grads])
        return grads

    out._backward_fn = spy
    grads = backward(project(out), leaves)
    assert seen == [want] * (1 + len(leaves))
    assert [g.dtype for g in grads] == list(dtypes)


DTYPE_RULE_OPS = {
    "relu": (relu, [(3, 4)]),
    "tanh_op": (tanh_op, [(3, 4)]),
    "matmul": (matmul, [(3, 4), (4, 2)]),
    "bias_add": (bias_add, [(3, 4), (4,)]),
    "concat": (lambda a, b: concat([a, b], axis=1), [(3, 4), (3, 2)]),
}


class TestDtypeRule:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(DTYPE_RULE_OPS))
    def test_one_dtype_computes_at_that_dtype(self, name, dtype):
        op, shapes = DTYPE_RULE_OPS[name]
        assert_dtype_rule(op, shapes, [dtype] * len(shapes))

    @pytest.mark.parametrize("name", sorted(n for n, (_, s) in DTYPE_RULE_OPS.items()
                                            if len(s) > 1))
    def test_mixed_operands_compute_at_float64(self, name):
        op, shapes = DTYPE_RULE_OPS[name]
        for narrow in range(len(shapes)):
            dtypes = [np.float64] * len(shapes)
            dtypes[narrow] = np.float32
            assert_dtype_rule(op, shapes, dtypes)
