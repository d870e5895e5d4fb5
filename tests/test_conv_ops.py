"""Convolution-stack operations against independent nested-loop oracles."""

import numpy as np
import pytest

from dfsn import autodiff
from dfsn.autodiff import (LayerParams, ShapeError, Tensor, backward, capture_switch_signature,
                           conv2d, lrn, maxpool2d, triple_pool, triple_pool_columns)
from dfsn.gradcheck import grad_check
from dfsn.image import encode_image, image_preset, init_image_params

from oracles import conv2d_loops, lrn_loops, maxpool2d_loops, maxpool2d_picks_loops, project
from test_autodiff import assert_dtype_rule


class TestConv2d:
    def test_full_window_all_ones_kernel_sums_input(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (1, 3, 3))
        out = conv2d(Tensor(x), Tensor(np.ones((1, 1, 3, 3))), Tensor([0.0]))
        assert out.shape == (1, 1, 1)
        assert out.values[0, 0, 0] == pytest.approx(x.sum(), abs=1e-12)

    def test_one_by_one_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (1, 4, 5))
        out = conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1))), Tensor([0.0]))
        assert np.allclose(out.values, x)

    def test_random_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (2, 5, 5))
        k = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, 3)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b))
        assert np.allclose(out.values, conv2d_loops(x, k, b), atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_stride_and_pad_match_oracle(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        x = rng.uniform(-1, 1, (2, 6, 5))
        k = rng.uniform(-1, 1, (2, 2, 3, 3))
        b = rng.uniform(-1, 1, 2)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride, pad=pad)
        expect = conv2d_loops(x, k, b, stride=stride, pad=pad)
        assert out.shape == expect.shape
        assert np.allclose(out.values, expect, atol=1e-12)

    def test_output_extent_formula(self):
        x = Tensor(np.zeros((1, 7, 9)))
        out = conv2d(x, Tensor(np.zeros((2, 1, 3, 3))), Tensor(np.zeros(2)), stride=2, pad=1)
        assert out.shape == (2, (7 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_kernel_exceeding_padded_input_rejected(self):
        with pytest.raises(ShapeError, match="exceeds"):
            conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 4, 4))),
                   Tensor(np.zeros(1)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channels"):
            conv2d(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((1, 2, 3, 3))),
                   Tensor(np.zeros(1)))

    def test_exhaustive_small_shapes(self):
        rng = np.random.default_rng(9)
        for kernel in (1, 2, 3):
            for h in range(kernel, 7):
                for w in range(kernel, 7):
                    for stride in (1, 2):
                        x = rng.uniform(-1, 1, (2, h, w))
                        k = rng.uniform(-1, 1, (2, 2, kernel, kernel))
                        b = rng.uniform(-1, 1, 2)
                        got = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride)
                        assert np.allclose(got.values, conv2d_loops(x, k, b, stride=stride),
                                           atol=1e-6)

    def test_backward_via_explicit_sums(self):
        # one output position: gradient of kernel equals the input patch
        x = np.arange(9.0).reshape(1, 3, 3)
        xt = Tensor(x, requires_grad=True)
        kt = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        bt = Tensor(np.zeros(1), requires_grad=True)
        dx, dk, db = backward(project(conv2d(xt, kt, bt)), [xt, kt, bt])
        assert np.allclose(dk.reshape(3, 3), x[0])
        assert np.allclose(dx, np.ones((1, 3, 3)))
        assert db.tolist() == [1.0]

    # kernel > stride, so windows overlap; each case leaves trailing rows or
    # columns that no window reaches ((H + 2p - k) % s != 0, or the same in W)
    @pytest.mark.parametrize("k,s,p,h,w", [(5, 2, 1, 8, 9), (7, 3, 2, 10, 11), (3, 2, 1, 7, 6)])
    def test_strided_input_gradient_matches_finite_differences(self, k, s, p, h, w):
        rng = np.random.default_rng(500 + 10 * k + s)
        x = Tensor(rng.uniform(-1, 1, (2, 2, h, w)), requires_grad=True)
        kt = Tensor(rng.uniform(-1, 1, (3, 2, k, k)), requires_grad=True)
        bt = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        proj = rng.uniform(-1, 1, (2, 3, ho, wo))

        def fn(x_, k_, b_):
            return project(conv2d(x_, k_, b_, stride=s, pad=p), proj)

        report = grad_check(fn, [x, kt, bt], eps=1e-4, tol=1e-6)
        assert report.passed, str(report)

    # the full preset's three geometries at small extents; the stride-4 case
    # leaves trailing rows and columns that no window reaches
    @pytest.mark.parametrize("k,s,p,h,w", [(11, 4, 2, 21, 22), (5, 1, 2, 7, 6), (3, 1, 1, 6, 7)])
    def test_full_geometries_match_oracle_and_finite_differences(self, k, s, p, h, w):
        rng = np.random.default_rng(700 + k)
        x = rng.uniform(-1, 1, (2, 2, h, w))
        kern = rng.uniform(-1, 1, (3, 2, k, k))
        b = rng.uniform(-1, 1, 3)
        out = conv2d(Tensor(x), Tensor(kern), Tensor(b), stride=s, pad=p)
        expect = np.stack([conv2d_loops(item, kern, b, stride=s, pad=p) for item in x])
        assert out.shape == expect.shape
        assert np.allclose(out.values, expect, atol=1e-12)
        proj = rng.uniform(-1, 1, out.shape)
        params = [Tensor(a, requires_grad=True) for a in (x, kern, b)]
        report = grad_check(lambda x_, k_, b_: project(conv2d(x_, k_, b_, stride=s, pad=p), proj),
                            params, eps=1e-4, tol=1e-6)
        assert report.passed, str(report)

    @pytest.mark.parametrize("shape", [(2, 3, 9, 8), (3, 9, 8)])
    def test_output_planes_are_contiguous(self, shape):
        rng = np.random.default_rng(650)
        out = conv2d(Tensor(rng.uniform(-1, 1, shape).astype(np.float32)),
                     Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32)),
                     Tensor(np.zeros(4, np.float32)), stride=2, pad=1)
        assert out.shape == shape[:-3] + (4, 5, 4)
        assert out.values.strides[-2:] == (4 * 4, 4)

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(600)
        x = rng.uniform(-1, 1, (2, 3, 9, 8))
        k = rng.uniform(-1, 1, (4, 3, 5, 5))
        b = rng.uniform(-1, 1, 4)
        g = rng.uniform(-1, 1, (2, 4, 4, 3))

        def grads(x_grad):
            kt, bt = Tensor(k, requires_grad=True), Tensor(b, requires_grad=True)
            out = conv2d(Tensor(x, requires_grad=x_grad), kt, bt, stride=2, pad=1)
            return out._backward_fn(g)

        const, varying = grads(False), grads(True)
        assert const[0] is None
        assert varying[0].shape == x.shape
        assert np.array_equal(const[1], varying[1])
        assert np.array_equal(const[2], varying[2])


class TestMaxPool2d:
    def test_max_of_four(self):
        out = maxpool2d(Tensor([[[1.0, 2.0], [3.0, 4.0]]]), 2, 2)
        assert out.values.tolist() == [[[4.0]]]

    def test_constant_input(self):
        out = maxpool2d(Tensor(np.full((2, 4, 4), 7.0)), 2, 2)
        assert np.all(out.values == 7.0)

    def test_random_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (1, 4, 4))
        out = maxpool2d(Tensor(x), 2, 2)
        assert np.allclose(out.values, maxpool2d_loops(x, 2, 2))

    @pytest.mark.parametrize("window,stride", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_overlapping_windows_match_oracle(self, window, stride):
        rng = np.random.default_rng(window * 7 + stride)
        x = rng.uniform(-1, 1, (3, 6, 6))
        out = maxpool2d(Tensor(x), window, stride)
        expect = maxpool2d_loops(x, window, stride)
        assert out.shape == expect.shape
        assert np.allclose(out.values, expect)

    def test_window_exceeding_input_rejected(self):
        with pytest.raises(ShapeError, match="exceeds"):
            maxpool2d(Tensor(np.zeros((1, 2, 2))), 3, 1)

    def test_tie_routes_gradient_to_first_occurrence(self):
        t = Tensor([[[5.0, 5.0], [5.0, 5.0]]], requires_grad=True)
        (grad,) = backward(project(maxpool2d(t, 2, 2)), [t])
        assert grad.tolist() == [[[1.0, 0.0], [0.0, 0.0]]]

    def test_overlapping_gradient_accumulates(self):
        t = Tensor([[[1.0, 2.0, 3.0]] * 3], requires_grad=True)
        (grad,) = backward(project(maxpool2d(t, 2, 1)), [t])
        # column 2 wins every window along each pooled row
        assert grad.sum() == 4.0
        assert np.all(grad[:, :, :1] == 0.0)

    def test_post_relu_ties_match_oracle_values_picks_and_gradient(self):
        # about half the inputs are 0 after the ReLU, so many windows tie at 0
        rng = np.random.default_rng(13)
        x = np.maximum(rng.uniform(-1, 1, (2, 3, 11, 12)), 0.0)
        x[0, 0, :5, :5] = 0.0
        t = Tensor(x, requires_grad=True)
        with capture_switch_signature() as sink:
            out = maxpool2d(t, 3, 2)
        picks = np.stack([maxpool2d_picks_loops(item, 3, 2) for item in x])
        assert np.array_equal(out.values, np.stack([maxpool2d_loops(item, 3, 2) for item in x]))
        assert sink == [picks.astype(np.int32).tobytes()]
        g = rng.uniform(-1, 1, out.shape)
        (grad,) = backward(project(out, g), [t])
        expect = np.zeros_like(x)
        for (n, c, i, j), k in np.ndenumerate(picks):
            expect[n, c, 2 * i + k // 3, 2 * j + k % 3] += g[n, c, i, j]
        assert np.allclose(grad, expect, rtol=0, atol=1e-15)

    def test_window_with_nan_routes_gradient_to_its_first_nan(self):
        # as argmax does: NaN is the maximum of its window, and the first NaN
        # in row-major order gets the gradient; the middle window holds no NaN
        nan = np.nan
        t = Tensor([[[1.0, 9.0, 2.0, 0.0, nan, 8.0],
                     [nan, 3.0, 1.0, 1.0, 5.0, nan],
                     [0.0, 4.0, 5.0, 6.0, 7.0, 7.0]]], requires_grad=True)
        out = maxpool2d(t, 2, 2)
        assert np.array_equal(out.values, [[[nan, 2.0, nan]]], equal_nan=True)
        (grad,) = backward(project(out, [[[1.0, 10.0, 100.0]]]), [t])
        assert grad.tolist() == [[[0.0, 0.0, 10.0, 0.0, 100.0, 0.0],
                                    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]]


class TestLrn:
    def test_alpha_zero_scales_by_k_power(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (3, 2, 2))
        out = lrn(Tensor(x), depth_radius=2, k=2.0, alpha=0.0, beta=0.75)
        assert np.allclose(out.values, x / 2.0 ** 0.75)

    def test_single_channel_hand_value(self):
        out = lrn(Tensor(np.ones((1, 1, 1))), depth_radius=0, k=1.0, alpha=1.0, beta=1.0)
        assert out.values[0, 0, 0] == pytest.approx(0.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (5, 3, 2))
        out = lrn(Tensor(x), depth_radius=2, k=2.0, alpha=1e-4, beta=0.75)
        assert np.allclose(out.values, lrn_loops(x, 2, 2.0, 1e-4, 0.75), atol=1e-12)

    def test_window_clipping_at_edges(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (4, 2, 2))
        out = lrn(Tensor(x), depth_radius=1, k=1.5, alpha=0.3, beta=0.5)
        assert np.allclose(out.values, lrn_loops(x, 1, 1.5, 0.3, 0.5), atol=1e-12)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError, match="k must be positive"):
            lrn(Tensor(np.ones((1, 1, 1))), k=0.0)

    def test_gradient_matches_finite_differences(self):
        from dfsn.gradcheck import grad_check

        rng = np.random.default_rng(8)
        t = Tensor(rng.uniform(-1, 1, (3, 2, 2)), requires_grad=True)
        proj = rng.uniform(0.5, 1.5, (3, 2, 2))
        report = grad_check(lambda t_: project(lrn(t_), proj), [t], eps=1e-4, tol=1e-5)
        assert report.passed, str(report)

    def test_gradient_at_high_curvature_constants(self):
        # b = a/(1+a^2): steep second derivatives need the smaller probe step
        from dfsn.gradcheck import grad_check

        rng = np.random.default_rng(9)
        for _ in range(10):
            t = Tensor(rng.uniform(-1, 1, (3, 2, 2)), requires_grad=True)
            proj = rng.uniform(0.5, 1.5, (3, 2, 2))
            report = grad_check(
                lambda t_: project(lrn(t_, depth_radius=0, k=1.0, alpha=1.0, beta=1.0), proj),
                [t], eps=1e-4, tol=1e-5)
            assert report.passed, str(report)


class TestTriplePool:
    def test_direct_definitions(self):
        out = triple_pool(Tensor([-1.0, 0.0, 4.0]))
        assert out.values.tolist() == [4.0, 1.0, -1.0]

    def test_singleton(self):
        assert triple_pool(Tensor([5.0])).values.tolist() == [5.0, 5.0, 5.0]

    def test_constant_vector(self):
        assert triple_pool(Tensor([2.0, 2.0, 2.0])).values.tolist() == [2.0, 2.0, 2.0]

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            triple_pool(Tensor(np.zeros(0)))

    def test_gradient_routing(self):
        t = Tensor([-1.0, 0.0, 4.0], requires_grad=True)
        (grad,) = backward(project(triple_pool(t), [1.0, 3.0, 5.0]), [t])
        # max -> index 2, mean spreads 3/3 everywhere, min -> index 0
        assert np.allclose(grad, [1.0 + 5.0, 1.0, 1.0 + 1.0])


class TestBatchedShapes:
    """An (N, C, H, W) batch gives, item by item, what the loop oracles give
    for each (C, H, W) item alone."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_conv2d_matches_oracle_per_item(self, n, stride, pad):
        rng = np.random.default_rng(100 + 10 * stride + pad + n)
        x = rng.uniform(-1, 1, (n, 2, 6, 5))
        k = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, 3)
        out = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride, pad=pad)
        expect = np.stack([conv2d_loops(item, k, b, stride=stride, pad=pad) for item in x])
        assert out.shape == expect.shape
        assert np.allclose(out.values, expect, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("window,stride", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_maxpool2d_matches_oracle_per_item(self, n, window, stride):
        rng = np.random.default_rng(200 + 10 * window + stride + n)
        x = rng.uniform(-1, 1, (n, 3, 6, 7))
        out = maxpool2d(Tensor(x), window, stride)
        expect = np.stack([maxpool2d_loops(item, window, stride) for item in x])
        assert out.shape == expect.shape
        assert np.array_equal(out.values, expect)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("radius,k,alpha,beta", [(2, 2.0, 1e-4, 0.75), (1, 1.5, 0.3, 0.5)])
    def test_lrn_matches_oracle_per_item(self, n, radius, k, alpha, beta):
        rng = np.random.default_rng(300 + radius + n)
        x = rng.uniform(-1, 1, (n, 5, 3, 2))
        out = lrn(Tensor(x), depth_radius=radius, k=k, alpha=alpha, beta=beta)
        expect = np.stack([lrn_loops(item, radius, k, alpha, beta) for item in x])
        assert np.allclose(out.values, expect, atol=1e-12)

    def test_batch_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(400)
        x = Tensor(rng.uniform(-1, 1, (2, 2, 5, 5)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        proj = rng.uniform(0.5, 1.5, (2, 3, 2, 2))

        def fn(x_, k_, b_):
            y = lrn(conv2d(x_, k_, b_, stride=1, pad=1), depth_radius=1, alpha=0.5)
            return project(maxpool2d(y, 3, 2), proj)

        report = grad_check(fn, [x, k, b], eps=1e-4, tol=1e-5)
        assert report.passed, str(report)
        assert report.compared > 0.7 * (report.compared + report.skipped)

    def test_unbatched_rank_rejected(self):
        for op in (lambda t: maxpool2d(t, 2, 2), lrn,
                   lambda t: conv2d(t, Tensor(np.zeros((1, 1, 1, 1))), Tensor(np.zeros(1)))):
            with pytest.raises(ShapeError, match=r"\(N, C, H, W\)"):
                op(Tensor(np.zeros((1, 1, 1, 4, 4))))


class TestSegmentPool:
    def test_segments_match_triple_pool_per_segment(self):
        # small integers tie often; length-1 segments pool to themselves
        rng = np.random.default_rng(12)
        lengths = [1, 4, 1, 5, 2]
        starts = np.cumsum([0] + lengths[:-1])
        v = rng.integers(-2, 3, (sum(lengths), 3)).astype(float)
        t = Tensor(v, requires_grad=True)
        out = triple_pool_columns(t, starts)
        assert out.shape == (len(lengths), 3, 3)
        proj = rng.uniform(0.5, 1.5, out.shape)
        (grad,) = backward(project(out, proj), [t])
        for s, (first, length) in enumerate(zip(starts, lengths)):
            for col in range(3):
                seg = Tensor(v[first:first + length, col], requires_grad=True)
                pooled = triple_pool(seg)
                (seg_grad,) = backward(project(pooled, proj[s, col]), [seg])
                assert np.array_equal(out.values[s, col], pooled.values)
                assert np.array_equal(grad[first:first + length, col], seg_grad)

    def test_ties_route_to_first_occurrence_in_each_segment(self):
        t = Tensor([[3.0], [5.0], [5.0], [1.0], [1.0], [2.0], [2.0]], requires_grad=True)
        out = triple_pool_columns(t, (0, 5))
        assert out.values[:, 0].tolist() == [[5.0, 3.0, 1.0], [2.0, 2.0, 2.0]]
        (grad,) = backward(project(out, [[[1.0, 0.0, 10.0]], [[100.0, 0.0, 1000.0]]]), [t])
        assert grad[:, 0].tolist() == [0.0, 1.0, 0.0, 10.0, 0.0, 1100.0, 0.0]

    def test_rows_between_segments_are_ignored(self):
        v = np.arange(14.0).reshape(7, 2) % 5
        t = Tensor(v, requires_grad=True)
        out = triple_pool_columns(t, (1, 4), (2, 2))
        for s, rows in enumerate((slice(1, 3), slice(4, 6))):
            want = triple_pool_columns(Tensor(v[rows]))
            assert np.array_equal(out.values[s], want.values[0])
        (grad,) = backward(project(out), [t])
        assert not grad[[0, 3, 6]].any()
        assert grad[[1, 2, 4, 5]].sum(axis=0).tolist() == [6.0, 6.0]

    @pytest.mark.parametrize("starts,counts", [((-1,), None), ((0, 0), None),
                                               ((0, 3, 2), None), ((0, 7), None),
                                               ((0, 3), (4, 1)), ((0,), (8,)), ((2,), (0,))])
    def test_bad_segments_rejected(self, starts, counts):
        with pytest.raises(ShapeError, match="segment starts"):
            triple_pool_columns(Tensor(np.zeros((7, 2))), starts, counts)


def pool_input(name, dtype):
    """An input to a pooling op that ties often and holds one NaN."""
    rng = np.random.default_rng(21)
    if name == "maxpool2d":
        x = np.maximum(rng.uniform(-1, 1, (2, 3, 9, 10)), 0.0)
        x[1, 2, 4, 4] = np.nan
    else:
        x = rng.integers(-2, 3, (9, 4)).astype(float)
        x[6, 1] = np.nan
    return x.astype(dtype)


POOL_OPS = {
    "maxpool2d": lambda t: maxpool2d(t, 3, 2),
    "triple_pool_columns": lambda t: triple_pool_columns(t, (0, 4, 5)),
}


class CountingNumpy:
    """numpy, with the calls to the named functions counted."""

    def __init__(self, *names):
        self.calls = dict.fromkeys(names, 0)

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.calls:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)
        return counted


class TestPoolingPicksOnDemand:
    """The pooling picks are found only when backward or the switch
    signature reads them, and the result does not depend on which."""

    @staticmethod
    def run(name, dtype, capture):
        x = pool_input(name, dtype)
        t = Tensor(x, requires_grad=True)
        sink = []
        if capture:
            with capture_switch_signature() as sink:
                out = POOL_OPS[name](t)
        else:
            out = POOL_OPS[name](t)
        g = np.random.default_rng(22).uniform(-1, 1, out.shape).astype(dtype)
        (grad,) = backward(project(out, g), [t])
        return out.values.tobytes(), grad.tobytes(), sink

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(POOL_OPS))
    def test_same_bits_inside_and_outside_the_switch_capture(self, name, dtype):
        out_plain, grad_plain, _ = self.run(name, dtype, capture=False)
        out_captured, grad_captured, sink = self.run(name, dtype, capture=True)
        assert len(sink) == 1
        assert out_plain == out_captured
        assert grad_plain == grad_captured

    def test_maxpool2d_forward_runs_no_pick_pass(self, monkeypatch):
        counting = CountingNumpy("where", "isnan")
        monkeypatch.setattr(autodiff, "np", counting)
        t = Tensor(pool_input("maxpool2d", np.float32), requires_grad=True)
        out = maxpool2d(t, 3, 2)
        assert counting.calls == {"where": 0, "isnan": 0}
        backward(project(out), [t])
        assert counting.calls == {"where": 9, "isnan": 9}
        with capture_switch_signature():
            maxpool2d(t, 3, 2)
        assert counting.calls == {"where": 18, "isnan": 18}

    def test_triple_pool_columns_forward_runs_no_pick_pass(self, monkeypatch):
        counting = CountingNumpy("where")
        monkeypatch.setattr(autodiff, "np", counting)
        t = Tensor(pool_input("triple_pool_columns", np.float64), requires_grad=True)
        POOL_OPS["triple_pool_columns"](t)
        plain = counting.calls["where"]
        with capture_switch_signature():
            POOL_OPS["triple_pool_columns"](t)
        captured = counting.calls["where"] - plain
        # one pick pass for the maxima, one for the minima
        assert captured == plain + 2


CONV_DTYPE_RULE_OPS = {
    "conv2d": (lambda x, k, b: conv2d(x, k, b, stride=2, pad=1),
               [(2, 3, 7, 7), (4, 3, 3, 3), (4,)]),
    "lrn": (lrn, [(2, 5, 4, 4)]),
    "maxpool2d": (lambda t: maxpool2d(t, 2, 2), [(2, 3, 6, 6)]),
}


class TestDtypeRule:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(CONV_DTYPE_RULE_OPS))
    def test_one_dtype_computes_at_that_dtype(self, name, dtype):
        op, shapes = CONV_DTYPE_RULE_OPS[name]
        assert_dtype_rule(op, shapes, [dtype] * len(shapes))

    @pytest.mark.parametrize("narrow", [0, 1, 2])
    def test_conv2d_mixed_operands_compute_at_float64(self, narrow):
        op, shapes = CONV_DTYPE_RULE_OPS["conv2d"]
        dtypes = [np.float64] * 3
        dtypes[narrow] = np.float32
        assert_dtype_rule(op, shapes, dtypes)

    def test_float32_full_stack_agrees_with_float64(self):
        # the same float32 weights and image, run at float32 and at float64;
        # measured max |f32 - f64| / max |f64|: 6.5e-7 to 8.1e-7 over 4 seeds
        cfg = image_preset("full")
        p32 = init_image_params(cfg, np.random.default_rng(0), np.float32)
        p64 = LayerParams(cfg, "image.conv",
                          {i: Tensor(k.values.astype(np.float64)) for i, k in p32.weights.items()},
                          {i: Tensor(b.values.astype(np.float64)) for i, b in p32.biases.items()})
        img = np.random.default_rng(1).uniform(-0.5, 0.5, (1, 3, 224, 224)).astype(np.float32)
        narrow = encode_image(img, p32).values
        wide = encode_image(img.astype(np.float64), p64).values
        assert narrow.dtype == np.float32 and wide.dtype == np.float64
        assert np.abs(narrow - wide).max() <= 1e-5 * np.abs(wide).max()
