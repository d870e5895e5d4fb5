"""Image branch: preprocessing, the conv stack presets, and encoding."""

import numpy as np
import pytest

from dfsn.autodiff import ShapeError, Tensor
from dfsn.gradcheck import grad_check
from dfsn.image import (ConvLayerSpec, ConvStackConfig, bilinear_resize,
                        encode_image, image_preset, init_image_params,
                        preprocess_image)

from oracles import bilinear_resize_four_corner, bilinear_resize_loops

# frozen by hand from the half-pixel-center formula: src = (dst+0.5)/2 - 0.5,
# per-axis fractions (0, .25, .75, 0 at clamped index 1) over [[1,0],[0,1]]
CHECKERBOARD_4X4 = np.array([
    [1.00, 0.75, 0.25, 0.00],
    [0.75, 0.625, 0.375, 0.25],
    [0.25, 0.375, 0.625, 0.75],
    [0.00, 0.25, 0.75, 1.00],
])


class TestBilinearResize:
    def test_same_size_is_identity(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (5, 5, 3))
        assert np.allclose(bilinear_resize(img, 5, 5), img, atol=1e-12)

    def test_constant_image_stays_constant(self):
        img = np.full((3, 7, 3), 0.42)
        out = bilinear_resize(img, 9, 4)
        assert np.allclose(out, 0.42)

    def test_checkerboard_upscale_matches_hand_values(self):
        img = np.array([[1.0, 0.0], [0.0, 1.0]])[:, :, None]
        out = bilinear_resize(img, 4, 4)[:, :, 0]
        assert np.allclose(out, CHECKERBOARD_4X4, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (5, 7, 3))
        for out_h, out_w in ((3, 3), (8, 2), (10, 11)):
            got = bilinear_resize(img, out_h, out_w)
            assert np.allclose(got, bilinear_resize_loops(img, out_h, out_w), atol=1e-12)

    # 32 -> 224 is every synthetic image's path into the `full` preset
    @pytest.mark.parametrize("in_shape,out_h,out_w", [
        ((32, 32, 3), 224, 224), ((17, 20, 3), 224, 224), ((300, 303, 3), 224, 224),
        ((40, 30, 3), 7, 13)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_four_corner_form(self, in_shape, out_h, out_w, dtype):
        img = np.random.default_rng(sum(in_shape)).uniform(0, 1, in_shape).astype(dtype)
        got = bilinear_resize(img, out_h, out_w)
        want = bilinear_resize_four_corner(img, out_h, out_w)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestPreprocess:
    def test_output_geometry_and_centering(self):
        img = np.full((10, 8, 3), 255, dtype=np.uint8)
        out = preprocess_image(img, side=6)
        assert out.shape == (3, 6, 6)
        assert np.allclose(out, 0.5)  # 1.0 scaled minus mean 0.5

    def test_same_size_input_only_rescaled(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (6, 6, 3)).astype(np.uint8)
        out = preprocess_image(img, side=6)
        assert np.allclose(out, img.transpose(2, 0, 1) / 255.0 - 0.5, atol=1e-12)

    def test_zero_sized_image_rejected(self):
        with pytest.raises(ValueError):
            preprocess_image(np.zeros((0, 4, 3), dtype=np.uint8), side=4)

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(ShapeError):
            preprocess_image(np.zeros((4, 4, 1), dtype=np.uint8), side=4)


class TestPresets:
    def test_tiny_shape_propagation(self):
        cfg = image_preset("tiny")
        shapes = cfg.layer_shapes()
        assert shapes == [(4, 8, 8), (4, 4, 4), (8, 4, 4), (8, 4, 4), (8, 2, 2)]
        assert cfg.feature_size == 32

    def test_full_feature_size(self):
        cfg = image_preset("full")
        assert cfg.layer_shapes()[-1] == (256, 6, 6)
        assert cfg.feature_size == 9216

    def test_exactly_five_layers_enforced(self):
        with pytest.raises(ValueError, match="5 convolutional layers"):
            ConvStackConfig(layers=(ConvLayerSpec(4, 3, pool_window=2, pool_stride=2),) * 4,
                            input_side=16)

    def test_last_layer_must_pool(self):
        layers = tuple(ConvLayerSpec(4, 3, pad=1) for _ in range(5))
        with pytest.raises(ValueError, match="max pooling"):
            ConvStackConfig(layers=layers, input_side=16)

    @pytest.mark.parametrize("kwargs,error", [
        (dict(out_channels=True, kernel=3), TypeError),
        (dict(out_channels=4, kernel=3.0), TypeError),
        (dict(out_channels=4, kernel=3, stride=0), ValueError),
        (dict(out_channels=4, kernel=3, pad=-1), ValueError),
        (dict(out_channels=4, kernel=3, has_lrn=1), TypeError),
        (dict(out_channels=4, kernel=3, pool_window=2), ValueError),
        (dict(out_channels=4, kernel=3, pool_window=2, pool_stride="2"), TypeError),
    ])
    def test_layer_fields_checked(self, kwargs, error):
        with pytest.raises(error):
            ConvLayerSpec(**kwargs)

    def test_collapsing_geometry_rejected_at_construction(self):
        tiny = image_preset("tiny")
        with pytest.raises(TypeError, match="input_side"):
            ConvStackConfig(layers=tiny.layers, input_side=16.0)
        # the last layer sees a 4x4 map, so a 5-wide pooling window leaves nothing
        layers = tiny.layers[:4] + (ConvLayerSpec(8, 3, pad=1, pool_window=5, pool_stride=2),)
        with pytest.raises(ValueError, match="layer 5's pooling collapses"):
            ConvStackConfig(layers=layers, input_side=16)
        layers = (ConvLayerSpec(4, 7, pool_window=2, pool_stride=2),) + tiny.layers[1:]
        with pytest.raises(ValueError, match="layer 1 collapses"):
            ConvStackConfig(layers=layers, input_side=4)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            image_preset("mega")


def _micro_config():
    # sub-tiny stack for cheap full gradient checks
    return ConvStackConfig(
        layers=(
            ConvLayerSpec(2, 3, stride=1, pad=1, has_lrn=True, pool_window=2, pool_stride=2),
            ConvLayerSpec(2, 3, stride=1, pad=1, has_lrn=True, pool_window=2, pool_stride=2),
            ConvLayerSpec(3, 3, stride=1, pad=1),
            ConvLayerSpec(3, 3, stride=1, pad=1),
            ConvLayerSpec(3, 3, stride=1, pad=1, pool_window=2, pool_stride=2),
        ),
        input_side=8,
        preset="micro",
    )


class TestEncodeImage:
    def test_tiny_output_size_matches_propagated_shape(self):
        cfg = image_preset("tiny")
        params = init_image_params(cfg, np.random.default_rng(0), dtype=np.float64)
        img = np.random.default_rng(1).uniform(-0.5, 0.5, (3, 16, 16))
        x = encode_image(img, params)
        assert x.shape == (cfg.feature_size,)

    def test_zero_weights_give_zero_features(self):
        cfg = image_preset("tiny")
        params = init_image_params(cfg, np.random.default_rng(0), dtype=np.float64)
        for t in params.named_tensors().values():
            t.values[...] = 0.0
        img = np.random.default_rng(1).uniform(-0.5, 0.5, (3, 16, 16))
        assert np.all(encode_image(img, params).values == 0.0)

    def test_feature_size_constant_across_content(self):
        cfg = image_preset("tiny")
        params = init_image_params(cfg, np.random.default_rng(0), dtype=np.float64)
        rng = np.random.default_rng(2)
        sizes = {encode_image(rng.uniform(-0.5, 0.5, (3, 16, 16)), params).shape
                 for _ in range(3)}
        assert sizes == {(32,)}

    def test_final_pool_output_nonnegative(self):
        # ReLU precedes the final pool and no LRN follows it
        cfg = image_preset("tiny")
        params = init_image_params(cfg, np.random.default_rng(3), dtype=np.float64)
        img = np.random.default_rng(4).uniform(-0.5, 0.5, (3, 16, 16))
        assert np.all(encode_image(img, params).values >= 0.0)

    def test_wrong_input_side_rejected(self):
        cfg = image_preset("tiny")
        params = init_image_params(cfg, np.random.default_rng(0), dtype=np.float64)
        with pytest.raises(ShapeError, match="input shape"):
            encode_image(np.zeros((3, 8, 8)), params)

    def test_shape_error_names_offending_layer(self):
        cfg = image_preset("tiny")
        params = init_image_params(cfg, np.random.default_rng(0), dtype=np.float64)
        params.weights[3] = Tensor(np.zeros((8, 99, 3, 3)), requires_grad=True)
        with pytest.raises(ShapeError, match="layer 3"):
            encode_image(np.zeros((3, 16, 16)), params)

    def test_layer1_kernel_gradient_matches_finite_differences(self):
        cfg = _micro_config()
        rng = np.random.default_rng(5)
        params = init_image_params(cfg, rng, dtype=np.float64)
        img = rng.uniform(-0.5, 0.5, (3, 8, 8))
        proj = Tensor(rng.uniform(0.5, 1.5, cfg.feature_size))

        def fn(*_):
            return (encode_image(img, params) * proj).sum()

        report = grad_check(fn, [params.weights[1], params.biases[1]],
                            eps=1e-3, tol=1e-4)
        assert report.passed, str(report)
        assert report.compared > 0

    def test_full_preset_forward_succeeds(self):
        cfg = image_preset("full")
        params = init_image_params(cfg, np.random.default_rng(0), dtype=np.float32)
        img = np.random.default_rng(1).uniform(-0.5, 0.5, (3, 224, 224)).astype(np.float32)
        x = encode_image(img, params)
        assert x.shape == (9216,)
        assert np.isfinite(x.values).all()
