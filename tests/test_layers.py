import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import add, exp, log, mul, reduce_mean, reshape, sub
from scdnn.autodiff import ShapeError, Tensor, grad_check, no_grad
from scdnn.layers import (
    BatchNorm1d,
    Conv1d,
    Linear,
    bn_relu_then,
    conv1d,
    cross_entropy,
    linear,
    max_pool1d,
    pooled_features,
    relu,
    softmax,
)


def naive_conv1d(x, w, stride, padding):
    """Nested-loop oracle for cross-correlation."""
    bsz, c_in, length = x.shape
    c_out, _, kernel = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    l_out = (length + 2 * padding - kernel) // stride + 1
    out = np.zeros((bsz, c_out, l_out))
    for n in range(bsz):
        for o in range(c_out):
            for j in range(l_out):
                acc = 0.0
                for c in range(c_in):
                    for t in range(kernel):
                        acc += xp[n, c, j * stride + t] * w[o, c, t]
                out[n, o, j] = acc
    return out


def _gradients(loss, params):
    """Backward of `loss` from cleared gradients: {name: gradient}."""
    for p in params.values():
        p.grad = None
    loss.backward()
    return {k: p.grad for k, p in params.items()}


class TestConv1d:
    def test_identity_kernel_is_identity(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 7))
        w = np.eye(3)[:, :, None]
        out = conv1d(Tensor(x), Tensor(w))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_sum(self):
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        w = np.array([[[1.0, 1.0]]])
        out = conv1d(Tensor(x), Tensor(w))
        np.testing.assert_array_equal(out.data, [[[3.0, 5.0, 7.0]]])

    @pytest.mark.parametrize("stride,padding,kernel", [
        (1, 0, 3), (2, 1, 3), (1, 3, 7), (3, 2, 5),
    ])
    def test_random_against_loop_oracle(self, stride, padding, kernel):
        rng = np.random.default_rng(kernel * 10 + stride)
        x = rng.normal(size=(2, 3, 11))
        w = rng.normal(size=(4, 3, kernel))
        out = conv1d(Tensor(x), Tensor(w), stride, padding)
        np.testing.assert_allclose(
            out.data, naive_conv1d(x, w, stride, padding), atol=1e-10
        )

    def test_length_underflow_fails(self):
        with pytest.raises(ShapeError, match="output length"):
            conv1d(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 5))))

    @pytest.mark.parametrize("kernel,stride,padding", [
        (0, 1, 0), (3, 0, 1), (3, 1, -1),
    ])
    def test_bad_window_rejected(self, kernel, stride, padding):
        x, w = Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 2, kernel)))
        with pytest.raises(ShapeError, match="kernel .* stride .* padding"):
            conv1d(x, w, stride, padding)

    def test_input_without_batch_axis_rejected(self):
        with pytest.raises(ShapeError, match=r"^conv1d expects a \(B, C, L\) "
                                             r"input, got \(2, 8\)$"):
            conv1d(Tensor(np.zeros((2, 8))), Tensor(np.zeros((1, 2, 3))))

    def test_channel_mismatch_fails(self):
        with pytest.raises(ShapeError, match="channels"):
            conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((1, 3, 3))))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        layer = Conv1d(3, 4, 3, stride=2, padding=1, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 9)))
        tgt = rng.normal(size=(2, 4, 5))

        def loss():
            d = sub(layer.forward(x), Tensor(tgt))
            return reduce_mean(d * d)

        rep = grad_check(loss, {"w": layer.weight})
        assert rep.passed

    @pytest.mark.parametrize("kernel,stride,padding,length", [
        (3, 2, 1, 9), (2, 3, 2, 7), (1, 1, 0, 5),
    ])
    def test_input_gradients(self, kernel, stride, padding, length):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
        layer = Conv1d(3, 4, kernel, stride=stride, padding=padding, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, length)), requires_grad=True)
        l_out = (length + 2 * padding - kernel) // stride + 1
        w = rng.normal(size=(2, 4, l_out))

        def loss():
            return (layer.forward(x) * Tensor(w)).sum()

        rep = grad_check(loss, {"x": x, "w": layer.weight})
        assert rep.passed, rep

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_and_batch_major_im2col(self, data):
        # Output against the loop oracle; gradients against the batch-major
        # im2col formula, cols of shape (B*L_out, C_in*k), written out here.
        # Errors are measured against the same formulas on absolute values,
        # the summed magnitude of each quantity's terms.
        kernel = data.draw(st.integers(1, 5))
        stride = data.draw(st.integers(1, 7))
        padding = data.draw(st.integers(0, 6))
        length = data.draw(st.integers(max(1, kernel - 2 * padding), 24))
        bsz, c_in, c_out = (data.draw(st.integers(1, n)) for n in (3, 4, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=(bsz, c_in, length))
        w = rng.normal(size=(c_out, c_in, kernel))
        l_out = (length + 2 * padding - kernel) // stride + 1
        g = rng.normal(size=(bsz, c_out, l_out))

        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv1d(xt, wt, stride, padding)
        (out * Tensor(g)).sum().backward()

        def batch_major(x, w, g):
            xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
            taps = np.arange(l_out)[:, None] * stride + np.arange(kernel)
            cols = xp[:, :, taps].transpose(0, 2, 1, 3).reshape(
                bsz * l_out, c_in * kernel)
            g2 = g.transpose(0, 2, 1).reshape(bsz * l_out, c_out)
            gwin = (g2 @ w.reshape(c_out, -1)).reshape(bsz, l_out, c_in, kernel)
            gxp = np.zeros_like(xp)
            for t in range(kernel):
                gxp[:, :, t : t + stride * l_out : stride] += gwin[
                    :, :, :, t].transpose(0, 2, 1)
            return gxp[:, :, padding : padding + length], (g2.T @ cols).reshape(
                w.shape)

        ref_gx, ref_gw = batch_major(x, w, g)
        mag_gx, mag_gw = batch_major(np.abs(x), np.abs(w), np.abs(g))
        checks = [
            (out.data, naive_conv1d(x, w, stride, padding),
             naive_conv1d(np.abs(x), np.abs(w), stride, padding)),
            (xt.grad, ref_gx, mag_gx),
            (wt.grad, ref_gw, mag_gw),
        ]
        for got, ref, magnitude in checks:
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-12 * magnitude)

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(2, 3, 10)).astype(np.float32),
                   requires_grad=True)
        layer = Conv1d(3, 5, 3, stride=2, padding=1, rng=rng, dtype=np.float32)
        out = layer.forward(x)
        assert out.data.dtype == np.float32
        # The node's own gradients, before the engine casts to leaf dtypes.
        grads = out._backward(np.ones_like(out.data))
        assert [g.dtype for g in grads] == [np.float32] * 2

    def test_no_input_gradient_without_requires_grad(self):
        rng = np.random.default_rng(22)
        w = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        out = conv1d(Tensor(rng.normal(size=(2, 3, 8))), w, 1, 1)
        gx, gw = out._backward(np.ones_like(out.data))
        assert gx is None
        assert gw.shape == w.data.shape

    @staticmethod
    def _weight_gradients(x, w, stride, padding):
        """dW from the input-gradient path and from the weight-only path."""
        full, alone = (conv1d(Tensor(x, requires_grad=needs_gx), w, stride, padding)
                       for needs_gx in (True, False))
        g = np.random.default_rng(1).normal(size=full.data.shape).astype(x.dtype)
        (gx_full, gw_full), (gx_alone, gw_alone) = full._backward(g), alone._backward(g)
        assert gx_full is not None and gx_alone is None
        for gw in (gw_full, gw_alone):
            assert gw.dtype == x.dtype and gw.shape == w.data.shape
        return gw_full, gw_alone

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 7])
    def test_weight_gradient_alone_matches_full_one(self, kernel, stride, dtype):
        # Without an input gradient, dW is formed one tap's slab at a time:
        # the same dot products over B*L_out, so equal to rounding. BLAS may
        # order a dot product differently for the narrower GEMM, so at these
        # small sizes the two may differ in the last bits.
        rng = np.random.default_rng(10 * kernel + stride)
        x = rng.normal(size=(3, 5, 29)).astype(dtype)
        w = Tensor(rng.normal(size=(6, 5, kernel)).astype(dtype),
                   requires_grad=True)
        full, alone = self._weight_gradients(x, w, stride, kernel // 2 + 1)
        np.testing.assert_allclose(alone, full, rtol=0,
                                   atol=64 * np.finfo(dtype).eps * np.abs(full).max())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 7])
    def test_weight_gradient_alone_is_bitwise_at_stem_scale(self, kernel, stride,
                                                            dtype):
        # At the stem's size (batch 32, 12 leads, 16 filters, L=1000) BLAS
        # sums each dot product in one order whatever the GEMM's width, so
        # the weight-only path keeps training results bit for bit.
        rng = np.random.default_rng(10 * kernel + stride)
        x = rng.normal(size=(32, 12, 1000)).astype(dtype)
        w = Tensor(rng.normal(size=(16, 12, kernel)).astype(dtype),
                   requires_grad=True)
        full, alone = self._weight_gradients(x, w, stride, kernel // 2)
        assert alone.tobytes() == full.tobytes()

    def test_weight_gradient_alone_builds_no_im2col_matrix(self):
        # The stem's input needs no gradient, so its backward fills one
        # (C_in, B*L_out) slab at a time instead of the (C_in*k, B*L_out) matrix.
        rng = np.random.default_rng(23)
        w = Tensor(rng.normal(size=(16, 12, 7)), requires_grad=True)
        out = conv1d(Tensor(rng.normal(size=(4, 12, 512))), w, 2, 3)
        g = np.ones_like(out.data)
        cols_bytes = 12 * 7 * out.data.shape[0] * out.data.shape[2] * 8
        tracemalloc.start()
        try:
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cols_bytes / 2


def _generic_batchnorm(layer, p, mode):
    """BatchNorm of p["x"] built from generic nodes, the unfused reference:
    (x - mean) * inv * scale + shift. Train mode takes two-pass batch
    statistics and (var + eps) ** -0.5 as exp(-0.5 * log(var + eps)); eval
    mode takes the running estimates as constants."""
    c = layer.channels
    if mode == "train":
        mu = reduce_mean(p["x"], axis=(0, 2), keepdims=True)
        centered = sub(p["x"], mu)
        var = reduce_mean(mul(centered, centered), axis=(0, 2), keepdims=True)
        inv = exp(mul(log(add(var, layer.eps)), -0.5))
    else:
        centered = sub(p["x"], Tensor(layer.running_mean[None, :, None]))
        inv = Tensor(1.0 / np.sqrt(layer.running_var + layer.eps)[None, :, None])
    return add(mul(mul(centered, inv), reshape(p["scale"], (1, c, 1))),
               reshape(p["shift"], (1, c, 1)))


class TestBatchNorm:
    def test_constant_channel_maps_to_zero(self):
        layer = BatchNorm1d(2)
        x = Tensor(np.full((3, 2, 5), 7.0))
        out = layer.forward(x, "train")
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_standardized_input_passes_through(self):
        # eps tiny so the identity is tested sharply, not blurred by the
        # variance floor
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 3, 50))
        x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2),
                                                             keepdims=True)
        layer = BatchNorm1d(3)
        layer.eps = 1e-14
        out = layer.forward(Tensor(x), "train")
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_output_statistics(self):
        rng = np.random.default_rng(5)
        x = rng.normal(loc=3.0, scale=2.5, size=(16, 4, 100))
        out = BatchNorm1d(4).forward(Tensor(x), "train").data
        assert np.abs(out.mean(axis=(0, 2))).max() < 1e-7
        assert np.abs(out.var(axis=(0, 2)) - 1.0).max() < 1e-3

    def test_batch_of_one_rejected_in_train(self):
        with pytest.raises(ValueError, match="batch size"):
            BatchNorm1d(2).forward(Tensor(np.zeros((1, 2, 4))), "train")

    @pytest.mark.parametrize("channels, mode, error, message", [
        (2, "test", ValueError, "^unknown batchnorm mode 'test'$"),
        (3, "train", ShapeError, "^batchnorm: input has 3 channels, layer has 2$"),
    ], ids=["mode", "channels"])
    def test_unknown_mode_or_channel_count_rejected(self, channels, mode, error,
                                                    message):
        with pytest.raises(error, match=message):
            BatchNorm1d(2).forward(Tensor(np.zeros((2, channels, 4))), mode)

    def test_eval_is_affine_and_batch_free(self):
        rng = np.random.default_rng(6)
        layer = BatchNorm1d(2)
        layer.forward(Tensor(rng.normal(size=(6, 2, 9))), "train")  # fill stats
        a = rng.normal(size=(2, 2, 9))
        alone = layer.forward(Tensor(a[:1]), "eval").data
        together = layer.forward(Tensor(a), "eval").data
        np.testing.assert_array_equal(alone, together[:1])

    def test_running_stats_update_only_when_asked(self):
        rng = np.random.default_rng(7)
        layer = BatchNorm1d(2)
        before = layer.running_mean.copy()
        layer.forward(Tensor(rng.normal(size=(4, 2, 8))), "train",
                      update_running=False)
        np.testing.assert_array_equal(layer.running_mean, before)
        layer.forward(Tensor(rng.normal(size=(4, 2, 8))), "train")
        assert not np.array_equal(layer.running_mean, before)

    def test_gradients_through_batch_statistics(self):
        rng = np.random.default_rng(8)
        layer = BatchNorm1d(3)
        layer.scale.data[:] = rng.uniform(0.5, 1.5, 3)
        layer.shift.data[:] = rng.normal(size=3) * 0.3
        x = Tensor(rng.normal(size=(4, 3, 6)), requires_grad=True)
        w = rng.normal(size=(4, 3, 6))

        def loss():
            out = layer.forward(x, "train", update_running=False)
            return (out * Tensor(w)).sum()

        rep = grad_check(loss, {"x": x, "scale": layer.scale, "shift": layer.shift})
        assert rep.passed


class TestTrainBatchNorm:
    @pytest.mark.parametrize("shape, loc, spread", [
        ((3, 4, 7), 1.0, 2.0),
        ((2, 1, 1), -0.5, 1.5),
        # channel mean far larger than its standard deviation
        ((6, 3, 16), 300.0, 0.25),
    ])
    def test_matches_unfused_composition(self, shape, loc, spread):
        # The unfused form, built from generic nodes: two-pass batch
        # statistics, (var + eps) ** -0.5 as exp(-0.5 * log(var + eps)), then
        # xhat * scale + shift. Errors are measured against the summed
        # magnitude of each quantity's terms, since the sums in dscale,
        # dshift and the batch-statistics part of dx can cancel.
        rng = np.random.default_rng(sum(shape))
        b, c, length = shape
        n = b * length
        layer = BatchNorm1d(c)
        layer.scale.data[:] = rng.uniform(0.5, 1.5, c)
        layer.shift.data[:] = rng.normal(size=c) * 0.3
        x = Tensor(loc + spread * rng.normal(size=shape), requires_grad=True)
        w = rng.normal(size=shape)

        def unfused(p):
            return _generic_batchnorm(layer, p, "train")

        def fused(p):
            return layer.forward(p["x"], "train", update_running=False)

        params = {"x": x, "scale": layer.scale, "shift": layer.shift}
        results = []
        for f in (unfused, fused):
            grads = _gradients((f(params) * Tensor(w)).sum(), params)
            results.append((f(params).data, grads))
        (ref_out, ref), (out, got) = results

        mean = x.data.mean(axis=(0, 2), keepdims=True)
        inv = 1.0 / np.sqrt(x.data.var(axis=(0, 2), keepdims=True) + layer.eps)
        a = np.abs(layer.scale.data[None, :, None] * inv)
        xhat = np.abs(x.data - mean) * inv
        sum_g = np.abs(w).sum(axis=(0, 2), keepdims=True)
        sum_gx = (np.abs(w) * xhat).sum(axis=(0, 2), keepdims=True)
        magnitude = {
            "out": (np.abs(x.data) + np.abs(mean)) * a
            + np.abs(layer.shift.data[None, :, None]),
            "x": a * (np.abs(w) + (sum_g + xhat * sum_gx) / n),
            "scale": sum_gx.reshape(c),
            "shift": sum_g.reshape(c),
        }
        errors = {"out": np.abs(out - ref_out)}
        for name in ("x", "scale", "shift"):
            errors[name] = np.abs(got[name] - ref[name])
        for name, err in errors.items():
            assert err.shape == magnitude[name].shape, name
            assert (err / magnitude[name]).max() <= 1e-12, name

    def test_one_node_with_input_and_affine_parents(self):
        layer = BatchNorm1d(3)
        x = Tensor(np.random.default_rng(19).normal(size=(4, 3, 5)),
                   requires_grad=True)
        assert layer.forward(x, "train")._parents == (x, layer.scale, layer.shift)

    def test_running_stats_follow_numpy_two_pass_update(self):
        rng = np.random.default_rng(20)
        m = 0.3
        layer = BatchNorm1d(3)
        layer.momentum = m
        layer.running_mean = rng.normal(size=3)
        layer.running_var = rng.uniform(0.5, 2.0, 3)
        for _ in range(3):
            x = 5.0 + rng.normal(size=(4, 3, 9))
            n = x.shape[0] * x.shape[2]
            mean = x.mean(axis=(0, 2))
            centered = x - mean[None, :, None]
            unbiased = (centered * centered).mean(axis=(0, 2)) * (n / (n - 1.0))
            expect_mean = (1.0 - m) * layer.running_mean + m * mean
            expect_var = (1.0 - m) * layer.running_var + m * unbiased
            layer.forward(Tensor(x), "train")
            np.testing.assert_array_equal(layer.running_mean, expect_mean)
            np.testing.assert_array_equal(layer.running_var, expect_var)


def _eval_batchnorm(rng, channels, dtype=np.float64):
    """A layer with non-trivial running statistics and affine parameters."""
    layer = BatchNorm1d(channels, dtype)
    layer.running_mean = rng.normal(size=channels).astype(dtype)
    layer.running_var = rng.uniform(0.2, 3.0, channels).astype(dtype)
    layer.scale.data[:] = rng.uniform(0.5, 1.5, channels)
    layer.shift.data[:] = rng.normal(size=channels) * 0.3
    return layer


class TestEvalBatchNorm:
    def test_gradients(self):
        rng = np.random.default_rng(18)
        layer = _eval_batchnorm(rng, 3)
        x = Tensor(rng.normal(size=(4, 3, 6)), requires_grad=True)
        w = rng.normal(size=(4, 3, 6))

        def loss():
            return (layer.forward(x, "eval") * Tensor(w)).sum()

        rep = grad_check(loss, {"x": x, "scale": layer.scale, "shift": layer.shift})
        assert rep.passed, rep

    @pytest.mark.parametrize("shape", [(3, 4, 7), (1, 2, 1), (5, 1, 16)])
    def test_matches_unfused_composition(self, shape):
        # The unfused form, (x - rm) * inv * scale + shift, built from
        # generic nodes. Errors are measured against the summed magnitude
        # of each quantity's terms, since the sums in dscale and dshift can
        # cancel.
        rng = np.random.default_rng(sum(shape))
        c = shape[1]
        layer = _eval_batchnorm(rng, c)
        x = Tensor(rng.normal(size=shape) * 2.0 + 1.0, requires_grad=True)
        w = rng.normal(size=shape)
        rm = layer.running_mean[None, :, None]
        inv = 1.0 / np.sqrt(layer.running_var + layer.eps)[None, :, None]
        scale = layer.scale.data[None, :, None]
        shift = layer.shift.data[None, :, None]

        def unfused(p):
            return _generic_batchnorm(layer, p, "eval")

        def fused(p):
            return layer.forward(p["x"], "eval")

        params = {"x": x, "scale": layer.scale, "shift": layer.shift}
        results = []
        for f in (unfused, fused):
            grads = _gradients((f(params) * Tensor(w)).sum(), params)
            results.append((f(params).data, grads))
        (ref_out, ref), (out, got) = results

        assert fused(params)._parents == (x, layer.scale, layer.shift)
        a = np.abs(scale * inv)
        magnitude = {
            "out": np.abs(x.data) * a + np.abs(rm) * a + np.abs(shift),
            "x": np.abs(w) * a,
            "scale": (np.abs(w) * np.abs(x.data - rm) * inv).sum(axis=(0, 2)),
            "shift": np.abs(w).sum(axis=(0, 2)),
        }
        errors = {"out": np.abs(out - ref_out)}
        for name in ("x", "scale", "shift"):
            errors[name] = np.abs(got[name] - ref[name])
        for name, err in errors.items():
            assert err.shape == magnitude[name].shape, name
            assert (err / magnitude[name]).max() <= 1e-12, name


def _fused_case(seed, shape, mode, dtype=np.float64):
    """A layer, input, residual and upstream weights; channel 0's mean is
    1200 times its standard deviation."""
    rng = np.random.default_rng(seed)
    c = shape[1]
    layer = BatchNorm1d(c, dtype=dtype)
    layer.scale.data[:] = rng.uniform(0.5, 1.5, c)
    layer.shift.data[:] = rng.normal(size=c) * 0.3
    x = rng.normal(size=shape)
    x[:, 0] = 1200.0 + x[:, 0] / x[:, 0].std()
    if mode == "eval":
        layer.running_mean = (x.mean(axis=(0, 2)) + rng.normal(size=c)).astype(dtype)
        layer.running_var = (x.var(axis=(0, 2)) * rng.uniform(0.5, 2.0, c)).astype(dtype)
    x = Tensor(x.astype(dtype), requires_grad=True)
    r = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
    return layer, x, r, rng.normal(size=shape).astype(dtype)


class TestFusedBatchNorm:
    """relu(bn(x) + residual) as one node against the unfused composition."""

    @pytest.mark.parametrize("shape", [(3, 4, 7), (6, 3, 16)])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("with_residual", [False, True])
    @pytest.mark.parametrize("with_relu", [False, True])
    def test_matches_unfused_composition(self, shape, mode, with_residual,
                                         with_relu):
        # Output: bit-identical to the plain node followed by add and relu
        # nodes. Gradients: against the generic-node composition, with each
        # error measured against the summed magnitude of its terms.
        seed = sum(shape) + 10 * with_residual + 100 * with_relu
        layer, x, r, w = _fused_case(seed, shape, mode)
        residual = r if with_residual else None
        n = shape[0] * shape[2]

        def unfused(p, plain):
            h = (layer.forward(p["x"], mode, False) if plain
                 else _generic_batchnorm(layer, p, mode))
            if with_residual:
                h = add(h, p["r"])
            return relu(h) if with_relu else h

        def fused(p):
            return layer.forward(p["x"], mode, False,
                                 p["r"] if with_residual else None, with_relu)

        params = {"x": x, "scale": layer.scale, "shift": layer.shift}
        if with_residual:
            params["r"] = r
        node = fused(params)
        assert node._parents == (x, layer.scale, layer.shift) + (
            (r,) if with_residual else ())
        np.testing.assert_array_equal(node.data, unfused(params, True).data)

        grads = []
        for f in (lambda p: unfused(p, False), fused):
            grads.append(_gradients((f(params) * Tensor(w)).sum(), params))
        ref, got = grads

        if mode == "train":
            mean = x.data.mean(axis=(0, 2), keepdims=True)
            inv = 1.0 / np.sqrt(x.data.var(axis=(0, 2), keepdims=True) + layer.eps)
        else:
            mean = layer.running_mean[None, :, None]
            inv = 1.0 / np.sqrt(layer.running_var + layer.eps)[None, :, None]
        a = np.abs(layer.scale.data[None, :, None] * inv)
        gm = np.abs(w) * (node.data > 0) if with_relu else np.abs(w)
        xhat = np.abs(x.data - mean) * inv
        sum_g = gm.sum(axis=(0, 2), keepdims=True)
        sum_gx = (gm * xhat).sum(axis=(0, 2), keepdims=True)
        magnitude = {
            "x": a * (gm + (sum_g + xhat * sum_gx) / n) if mode == "train"
            else a * gm,
            "scale": sum_gx.reshape(-1),
            "shift": sum_g.reshape(-1),
            "r": gm,
        }
        for name in params:
            err = np.abs(got[name] - ref[name])
            assert err.shape == magnitude[name].shape, name
            assert np.all(err <= 1e-12 * magnitude[name]), name

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_grad_check(self, mode):
        layer, x, r, w = _fused_case(23, (3, 2, 5), mode)

        def loss():
            out = layer.forward(x, mode, False, r, True)
            return (out * Tensor(w)).sum()

        params = {"x": x, "scale": layer.scale, "shift": layer.shift, "r": r}
        rep = grad_check(loss, params)
        assert rep.passed, rep

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_mask_of_planted_zeros_is_out_positive(self, mode):
        # Residual entries that cancel the normalized input exactly give a
        # pre-activation of exactly 0, where relu passes no gradient.
        layer, x, r, w = _fused_case(24, (4, 3, 10), mode)
        plain = layer.forward(x, mode, False).data
        planted = np.random.default_rng(25).random(plain.shape) < 0.3
        r.data[planted] = -plain[planted]
        out = layer.forward(x, mode, False, r, True)
        assert np.all(out.data[planted] == 0.0)
        (out * Tensor(w)).sum().backward()

        ref = {"x": x, "r": r}
        ref = {k: Tensor(v.data.copy(), requires_grad=True) for k, v in ref.items()}
        (relu(add(layer.forward(ref["x"], mode, False), ref["r"]))
         * Tensor(w)).sum().backward()
        np.testing.assert_array_equal(r.grad, w * (plain + r.data > 0))
        assert np.all(r.grad[planted] == 0.0)
        np.testing.assert_array_equal(r.grad, ref["r"].grad)
        np.testing.assert_array_equal(x.grad, ref["x"].grad)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_float32_stays_float32(self, mode):
        layer, x, r, w = _fused_case(26, (3, 4, 9), mode, np.float32)
        out = layer.forward(x, mode, False, r, True)
        assert out.data.dtype == np.float32
        # The node's own gradients, before the engine casts to leaf dtypes.
        grads = out._backward(w)
        assert [g.dtype for g in grads] == [np.float32] * 4

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_residual_fan_out_accumulates_both_paths(self, mode):
        # As in a residual block: the input feeds the conv and the shortcut.
        rng = np.random.default_rng(27)
        x = Tensor(rng.normal(size=(4, 3, 9)), requires_grad=True)
        w = rng.normal(size=(4, 3, 9))
        conv = Conv1d(3, 3, 3, 1, 1, rng=rng)
        layer = BatchNorm1d(3)
        layer.forward(conv.forward(x), "train")  # move the running statistics

        def loss(r):
            out = layer.forward(conv.forward(x), mode, False, r, True)
            return (out * Tensor(w)).sum()

        params = {"x": x, "weight": conv.weight, "scale": layer.scale,
                  "shift": layer.shift}
        rep = grad_check(lambda: loss(x), {**params, "r": x})
        assert rep.passed, rep
        both = _gradients(loss(x), {**params, "r": x})["x"]
        r = Tensor(x.data, requires_grad=True)
        grads = _gradients(loss(r), {**params, "r": r})
        np.testing.assert_array_equal(both, grads["x"] + grads["r"])


class TestBnReluThen:
    """then(relu(bn(x))) as one node against the two-node composition
    BatchNorm1d.forward(..., relu=True) -> conv1d or max_pool1d."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_two_node_composition_bitwise(self, data):
        mode = data.draw(st.sampled_from(["train", "eval"]))
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))
        kernel = data.draw(st.sampled_from([1, 3, 7]))
        stride = data.draw(st.sampled_from([1, 2]))
        pool = data.draw(st.booleans())
        bsz, c_in, c_out = (data.draw(st.integers(n0, n)) for n0, n in
                            ((2, 4), (1, 4), (1, 4)))
        length = data.draw(st.integers(1, 20))
        seed = data.draw(st.integers(0, 2**32 - 1))
        # Channels sit at different offsets, so relu zeroes some of each.
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(bsz, c_in, length))
             + rng.normal(size=(1, c_in, 1))).astype(dtype)

        def run(fused):
            rng = np.random.default_rng(seed)
            bn = _eval_batchnorm(rng, c_in, dtype)
            conv = Conv1d(c_in, c_out, kernel, stride, kernel // 2, rng=rng,
                          dtype=dtype)
            if pool:
                def then(h):
                    return max_pool1d(h, kernel, stride, kernel // 2)
            else:
                then = conv.forward
            xt = Tensor(x, requires_grad=True)
            if fused:
                out = bn_relu_then(xt, bn, then, mode)
                assert out._parents == (xt, bn.scale, bn.shift) + (
                    () if pool else (conv.weight,))
            else:
                out = then(bn.forward(xt, mode, None, None, True))
            w = rng.normal(size=out.data.shape).astype(dtype)
            (out * Tensor(w)).sum().backward()
            results = [out.data, xt.grad, bn.scale.grad, bn.shift.grad,
                       bn.running_mean, bn.running_var]
            return results + ([] if pool else [conv.weight.grad])

        for got, ref in zip(run(True), run(False)):
            assert got.dtype == ref.dtype == dtype
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_no_grad_keeps_nothing(self, mode):
        rng = np.random.default_rng(40)
        layer = _eval_batchnorm(rng, 3)
        conv = Conv1d(3, 5, 3, 1, 1, rng=rng)
        x = Tensor(rng.normal(size=(4, 3, 9)), requires_grad=True)
        with no_grad():
            out = bn_relu_then(x, layer, conv.forward, mode, False)
        assert out._parents == () and out._backward is None
        ref = conv.forward(layer.forward(x, mode, False, None, True))
        assert out.data.tobytes() == ref.data.tobytes()


class TestReluAndPools:
    def test_relu_cases(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
        allneg = relu(Tensor(-np.ones(5)))
        np.testing.assert_array_equal(allneg.data, np.zeros(5))

    def test_relu_idempotent(self):
        x = np.random.default_rng(9).normal(size=(4, 5))
        once = relu(Tensor(x)).data
        twice = relu(relu(Tensor(x))).data
        np.testing.assert_array_equal(once, twice)

    def test_avg_and_max(self):
        x = Tensor(np.array([[[1.0, 2.0, 3.0], [1.0, 3.0, 2.0]]]))
        np.testing.assert_allclose(pooled_features(x).data,
                                   [[2.0, 2.0, 3.0, 3.0]])

    def test_pooled_features_ties_and_gradient(self):
        # Values drawn from {0, 1, 2} plant ties in the maximum of almost
        # every channel; the max share of the gradient goes to the first.
        rng = np.random.default_rng(15)
        x = rng.integers(0, 3, size=(2, 3, 7)).astype(np.float64)
        g = rng.normal(size=(2, 6))
        xt = Tensor(x, requires_grad=True)
        out = pooled_features(xt)
        (out * Tensor(g)).sum().backward()
        expect = np.zeros_like(x)
        for n in range(2):
            for c in range(3):
                row = list(x[n, c])
                np.testing.assert_array_equal(
                    out.data[n, [c, 3 + c]], [np.mean(x[n, c]), max(row)])
                expect[n, c] = g[n, c] / 7
                expect[n, c, row.index(max(row))] += g[n, 3 + c]
        np.testing.assert_array_equal(xt.grad, expect)

    def test_concat_width_doubles_channels(self):
        x = Tensor(np.random.default_rng(10).normal(size=(3, 512, 4)))
        assert pooled_features(x).data.shape == (3, 1024)

    def test_max_pool_matches_loop(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 10))
        out = max_pool1d(Tensor(x), 3, 2, 1).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1)), constant_values=-np.inf)
        expect = np.stack(
            [xp[:, :, 2 * j : 2 * j + 3].max(axis=2) for j in range(5)], axis=2
        )
        np.testing.assert_array_equal(out, expect)

    @pytest.mark.parametrize("kernel,stride,padding", [
        (3, 2, 1), (2, 2, 0), (4, 1, 2), (3, 3, 0), (5, 2, 1),
    ])
    def test_max_pool_ties_route_to_lowest_index(self, kernel, stride, padding):
        # Values drawn from {0, 1, 2} plant ties in almost every window.
        rng = np.random.default_rng(kernel * 10 + stride)
        x = rng.integers(0, 3, size=(2, 3, 13)).astype(np.float64)
        g = rng.normal(size=(2, 3, (13 + 2 * padding - kernel) // stride + 1))
        xt = Tensor(x, requires_grad=True)
        out = max_pool1d(xt, kernel, stride, padding)
        (out * Tensor(g)).sum().backward()

        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)),
                    constant_values=-np.inf)
        expect = np.zeros_like(g)
        gxp = np.zeros_like(xp)
        for n in range(2):
            for c in range(3):
                for j in range(g.shape[2]):
                    win = list(xp[n, c, stride * j : stride * j + kernel])
                    expect[n, c, j] = max(win)
                    gxp[n, c, stride * j + win.index(max(win))] += g[n, c, j]
        np.testing.assert_array_equal(out.data, expect)
        np.testing.assert_allclose(xt.grad, gxp[:, :, padding : padding + 13],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride,padding", [
        (0, 2, 0), (3, 0, 1), (3, 1, -1),
    ])
    def test_max_pool_bad_window_rejected(self, kernel, stride, padding):
        with pytest.raises(ShapeError, match="kernel .* stride .* padding"):
            max_pool1d(Tensor(np.ones((1, 2, 8))), kernel, stride, padding)

    @pytest.mark.parametrize("kernel,padding", [(2, 2), (3, 4), (1, 1)])
    def test_max_pool_padding_not_below_kernel_rejected(self, kernel, padding):
        # such windows would hold only padding and return -inf
        with pytest.raises(ShapeError, match=f"padding {padding} .* kernel {kernel}"):
            max_pool1d(Tensor(np.ones((1, 1, 4))), kernel, 1, padding)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_max_pool_matches_loop_oracle_with_ties(self, data):
        kernel = data.draw(st.integers(1, 5))
        stride = data.draw(st.integers(1, 4))
        padding = data.draw(st.integers(0, kernel - 1))
        length = data.draw(st.integers(max(1, kernel - 2 * padding), 20))
        bsz, chans = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # Values from {0, 1, 2} plant ties in most windows; integer upstream
        # gradients make every sum exact, whatever order it is taken in.
        x = rng.integers(0, 3, size=(bsz, chans, length)).astype(np.float64)
        l_out = (length + 2 * padding - kernel) // stride + 1
        g = rng.integers(-3, 4, size=(bsz, chans, l_out)).astype(np.float64)
        xt = Tensor(x, requires_grad=True)
        out = max_pool1d(xt, kernel, stride, padding)
        (out * Tensor(g)).sum().backward()

        expect = np.empty_like(g)
        expect_gx = np.zeros_like(x)
        for n in range(bsz):
            for c in range(chans):
                for j in range(l_out):
                    win = [x[n, c, i] if 0 <= i < length else -np.inf
                           for i in range(j * stride - padding,
                                          j * stride - padding + kernel)]
                    expect[n, c, j] = max(win)
                    first = j * stride - padding + win.index(max(win))
                    expect_gx[n, c, first] += g[n, c, j]
        np.testing.assert_array_equal(out.data, expect)
        np.testing.assert_array_equal(xt.grad, expect_gx)

    @pytest.mark.parametrize("kernel, dtype", [
        (1, np.uint8), (3, np.uint8), (256, np.uint8), (257, np.uint16),
    ])
    def test_max_pool_keeps_taps_in_smallest_type(self, kernel, dtype):
        out = max_pool1d(Tensor(np.ones((1, 2, 300)), requires_grad=True),
                         kernel, 1)
        held = [cell.cell_contents for cell in out._backward.__closure__]
        taps = [a for a in held
                if isinstance(a, np.ndarray) and a.dtype.kind in "iu"]
        assert [a.dtype for a in taps] == [dtype]
        assert taps[0].shape == out.data.shape

    def test_max_pool_routes_taps_past_255(self):
        # kernel 300 keeps its taps as uint16; windows won by a tap above 255
        # must still route their gradient to that tap.
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 3, 700))
        kernel, stride = 300, 100
        xt = Tensor(x, requires_grad=True)
        out = max_pool1d(xt, kernel, stride)
        g = rng.integers(-3, 4, size=out.data.shape).astype(np.float64)
        (out * Tensor(g)).sum().backward()
        windows = np.lib.stride_tricks.sliding_window_view(
            x, kernel, axis=2)[:, :, ::stride]
        first = windows.argmax(axis=3)
        assert first.max() > 255
        expect_gx = np.zeros_like(x)
        for (n, c, j), t in np.ndenumerate(first):
            expect_gx[n, c, j * stride + t] += g[n, c, j]
        np.testing.assert_array_equal(out.data, windows.max(axis=3))
        np.testing.assert_array_equal(xt.grad, expect_gx)

    def test_max_pool_rejects_non_3d_input(self):
        with pytest.raises(ShapeError, match=r"\(B, C, L\) input"):
            max_pool1d(Tensor(np.ones((2, 8))), 3, 2, 1)

    def test_pool_gradients(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 3, 8)), requires_grad=True)
        w = rng.normal(size=(2, 6))

        def loss():
            return (pooled_features(max_pool1d(x, 3, 2, 1)) * Tensor(w)).sum()

        assert grad_check(loss, {"x": x}).passed


def _held_after(build):
    """Bytes that `build()` allocates and its result keeps alive."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


class TestPaddingRetention:
    """A padded conv or max-pool node keeps no padded copy of its input (a
    conv node no im2col matrix, a bn_relu_then node no relu output), and its
    input gradient is a fresh C-contiguous array of the input's shape."""

    SLACK = 16 * 1024

    def _check_input_gradient(self, xt, out):
        (out * Tensor(np.ones_like(out.data))).sum().backward()
        assert xt.grad.shape == xt.data.shape
        assert xt.grad.flags.c_contiguous
        assert xt.grad.base is None

    def test_conv_holds_only_output(self):
        # the im2col matrix (3 * x.nbytes here) is rebuilt in backward
        rng = np.random.default_rng(30)
        xt = Tensor(rng.normal(size=(4, 16, 512)), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 16, 3)), requires_grad=True)
        out, held = _held_after(lambda: conv1d(xt, w, 1, 1))
        assert held <= out.data.nbytes + self.SLACK
        self._check_input_gradient(xt, out)

    def test_max_pool_holds_only_output_and_argmax(self):
        rng = np.random.default_rng(31)
        xt = Tensor(rng.normal(size=(4, 16, 512)), requires_grad=True)
        out, held = _held_after(lambda: max_pool1d(xt, 3, 2, 1))
        assert held <= 2 * out.data.nbytes + self.SLACK  # out and the argmax
        self._check_input_gradient(xt, out)

    @pytest.mark.parametrize("pool", [False, True])
    def test_bn_relu_then_holds_no_relu_output(self, pool):
        # The relu output is x's size, as large as the conv's output here;
        # the node keeps the output (and the pool's one-byte argmax) alone.
        rng = np.random.default_rng(32)
        layer = _eval_batchnorm(rng, 16)
        conv = Conv1d(16, 16, 3, 1, 1, rng=rng)
        xt = Tensor(rng.normal(size=(4, 16, 512)), requires_grad=True)
        then = (lambda h: max_pool1d(h, 3, 2, 1)) if pool else conv.forward
        out, held = _held_after(lambda: bn_relu_then(xt, layer, then, "train",
                                                     False))
        argmax = out.data.size if pool else 0
        assert held <= out.data.nbytes + argmax + self.SLACK
        self._check_input_gradient(xt, out)


class TestCrossEntropy:
    def test_uniform_logits_give_log_n(self):
        loss = cross_entropy(Tensor(np.zeros((4, 3))), np.array([0, 1, 2, 0]))
        assert loss.data.item() == pytest.approx(np.log(3.0), abs=1e-12)

    def test_confident_correct_logit_near_zero_loss(self):
        z = np.zeros((1, 4))
        z[0, 2] = 30.0
        loss = cross_entropy(Tensor(z), np.array([2]))
        assert loss.data.item() < 1e-9

    def test_random_against_direct_formula(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(6, 5)) * 3
        y = rng.integers(0, 5, size=6)
        loss = cross_entropy(Tensor(z), y).data.item()
        expect = 0.0
        for k in range(6):
            p = np.exp(z[k]) / np.exp(z[k]).sum()
            expect -= np.log(p[y[k]])
        expect /= 6
        assert loss == pytest.approx(expect, abs=1e-10)

    def test_nonnegative_always(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            z = rng.normal(size=(3, 4)) * rng.uniform(0.1, 10)
            y = rng.integers(0, 4, size=3)
            assert cross_entropy(Tensor(z), y).data.item() >= 0.0

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    @pytest.mark.parametrize("logits_shape, labels, error, message", [
        ((2, 3, 1), [0, 1], ShapeError,
         r"^cross_entropy expects \(B, n_classes\) logits, got \(2, 3, 1\)$"),
        ((2, 3), [0, 1, 2], ShapeError,
         r"^cross_entropy: 2 rows but labels shape \(3,\)$"),
        ((2, 3), [0.0, 1.0], TypeError, "^labels must be integer class indices$"),
    ], ids=["logits_rank", "labels_shape", "labels_dtype"])
    def test_malformed_logits_or_labels_rejected(self, logits_shape, labels,
                                                 error, message):
        with pytest.raises(error, match=message):
            cross_entropy(Tensor(np.zeros(logits_shape)), np.array(labels))

    def test_softmax_rows_sum_to_one_and_differentiate(self):
        rng = np.random.default_rng(15)
        z = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        np.testing.assert_allclose(softmax(z).data.sum(axis=1), 1.0, atol=1e-12)
        w = rng.normal(size=(3, 4))

        def loss():
            return (softmax(z) * Tensor(w)).sum()

        assert grad_check(loss, {"z": z}).passed


class TestLinear:
    @pytest.mark.parametrize("build", [lambda: Conv1d(3, 4, 3),
                                       lambda: Linear(4, 3)])
    def test_rng_is_required(self, build):
        # a default generator would give two layers the same weights
        with pytest.raises(TypeError, match="rng"):
            build()

    def test_matches_matmul(self):
        rng = np.random.default_rng(16)
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        out = layer.forward(Tensor(x))
        np.testing.assert_allclose(
            out.data, x @ layer.weight.data.T + layer.bias.data, atol=1e-14
        )

    @pytest.mark.parametrize("shape, message", [
        ((2, 4, 1), r"^linear expects a \(B, n_in\) input, got \(2, 4, 1\)$"),
        ((2, 5), "^linear: input width 5 != weight width 4$"),
    ], ids=["rank", "width"])
    def test_input_of_another_rank_or_width_rejected(self, shape, message):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError, match=message):
            layer.forward(Tensor(np.zeros(shape)))

    def test_gradients(self):
        rng = np.random.default_rng(17)
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(4, 3)))
        y = rng.integers(0, 2, size=4)

        def loss():
            return cross_entropy(layer.forward(x), y)

        rep = grad_check(loss, {"w": layer.weight, "b": layer.bias})
        assert rep.passed
