"""Differentiable 1-D building blocks: convolution, batch norm, max pooling,
the pooled head features, the linear classifier head, and the cross-entropy
loss.

Layers own their parameter tensors; forward methods trace autodiff nodes,
each one node with a closed-form backward; bn_relu_then joins a batch norm,
its ReLU and the layer fed by it in one node that recomputes the ReLU output
in backward. Convolution is bias-free, since each conv feeds a BatchNorm,
and is cross-correlation (no kernel flip). It runs as one copy into a
length-minor (C_in*k, B*L_out) im2col matrix plus one GEMM per call; the
backward rebuilds that matrix from the input instead of keeping it, or,
when the input needs no gradient (the stem), forms the weight gradient one
tap's (C_in, B*L_out) slab at a time. Convolution and max pooling pad by
index ranges, so no padded copy of the input is built or kept, and max
pooling keeps its winning taps in the smallest integer type that holds them.
"""

import numpy as np

from .autodiff import ShapeError, Tensor, _node

__all__ = [
    "Conv1d",
    "BatchNorm1d",
    "Linear",
    "bn_relu_then",
    "conv1d",
    "linear",
    "relu",
    "max_pool1d",
    "pooled_features",
    "cross_entropy",
    "softmax",
    "fan_in_uniform",
]


def fan_in_uniform(rng, shape, fan_in, dtype=np.float64):
    """Uniform init on [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _window_taps(op, length, kernel, stride, padding):
    """Output length of a padded window op, and for each tap t the output
    columns [j0, j1) whose index j*stride + t - padding lands inside the
    input, with the slice of input positions they read."""
    if kernel < 1 or stride < 1 or padding < 0:
        raise ShapeError(
            f"{op}: kernel {kernel} and stride {stride} must be >= 1 and "
            f"padding {padding} >= 0"
        )
    l_out = (length + 2 * padding - kernel) // stride + 1
    if l_out < 1:
        raise ShapeError(
            f"{op}: output length {l_out} < 1 for input length {length}, "
            f"kernel {kernel}, stride {stride}, padding {padding}"
        )
    taps = []
    for t in range(kernel):
        j0 = min(l_out, max(0, -((t - padding) // stride)))
        j1 = max(j0, min(l_out, -((t - padding - length) // stride)))
        i0 = j0 * stride + t - padding
        taps.append((j0, j1, slice(i0, i0 + (j1 - j0) * stride, stride)))
    return l_out, taps


def conv1d(x, weight, stride=1, padding=0):
    """Cross-correlate (B, C_in, L) with (C_out, C_in, k) kernels.

    There is no bias: every convolution in the model feeds a BatchNorm
    layer, whose normalization cancels any channel offset exactly.

    One copy per tap gathers the windows into `cols`, (C_in*k, B*L_out),
    whose row (c, t) holds x[b, c, j*stride + t - padding] at column (b, j),
    or 0 where that index falls in the padding. Then out = W @ cols. The node
    keeps no `cols`: its backward rebuilds it from x for dW = g @ cols.T,
    writes W.T @ g into it, and scatters that onto a zero gradient of x's
    shape one tap at a time (col2im). When x needs no gradient there is no
    GEMM to reuse `cols` for, so the backward fills one tap's slab of it,
    (C_in, B*L_out), at a time and forms dW[:, :, t] = g @ slab.T.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"conv1d expects a (B, C, L) input, got {x.data.shape}")
    b, c_in, length = x.data.shape
    c_out, c_in_w, kernel = weight.data.shape
    if c_in != c_in_w:
        raise ShapeError(
            f"conv1d: input has {c_in} channels but kernel expects {c_in_w}"
        )
    l_out, taps = _window_taps("conv1d", length, kernel, stride, padding)

    def fill(slab, t):  # tap t's (C_in, B, L_out) rows of the im2col matrix
        j0, j1, src = taps[t]
        slab[..., :j0] = slab[..., j1:] = 0
        slab[..., j0:j1] = x.data[:, :, src].transpose(1, 0, 2)

    def im2col():
        cols = np.empty((c_in, kernel, b, l_out), x.data.dtype)
        for t in range(kernel):
            fill(cols[:, t], t)
        return cols.reshape(c_in * kernel, b * l_out)

    wflat = weight.data.reshape(c_out, c_in * kernel)
    out = np.ascontiguousarray(
        (wflat @ im2col()).reshape(c_out, b, l_out).transpose(1, 0, 2)
    )

    def backward(g):
        g2 = np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(c_out, b * l_out)
        if not x.requires_grad:
            gw = np.empty(weight.data.shape, np.result_type(g2, x.data))
            slab = np.empty((c_in, b, l_out), x.data.dtype)
            for t in range(kernel):
                fill(slab, t)
                gw[:, :, t] = g2 @ slab.reshape(c_in, b * l_out).T
            return None, gw
        cols = im2col()
        gw = (g2 @ cols.T).reshape(c_out, c_in, kernel)
        gcols = np.matmul(wflat.T, g2, out=cols).reshape(c_in, kernel, b, l_out)
        gx = np.zeros(x.data.shape, x.data.dtype)
        for t, (j0, j1, src) in enumerate(taps):
            gx[:, :, src] += gcols[:, t, :, j0:j1].transpose(1, 0, 2)
        return gx, gw

    return _node(out, (x, weight), backward)


class Conv1d:
    """Bias-free 1-D convolution layer with fan-in-scaled uniform init."""

    def __init__(self, c_in, c_out, kernel, stride=1, padding=0, *, rng,
                 dtype=np.float64):
        self.weight = Tensor(
            fan_in_uniform(rng, (c_out, c_in, kernel), c_in * kernel, dtype),
            requires_grad=True,
        )
        self.stride = stride
        self.padding = padding

    def forward(self, x):
        return conv1d(x, self.weight, self.stride, self.padding)


class BatchNorm1d:
    """Per-channel normalization over (batch, length) with running statistics,
    optionally fused with a residual add and a ReLU.

    The mode chooses only the statistics. Train mode uses the batch mean and
    biased variance (two passes) and updates the running estimates with
    `momentum`, using the unbiased variance n / (n - 1) * var; eval mode uses
    the running estimates. Both modes then run as one node,

        out = relu(x * a + b + residual),
        a = scale / sqrt(var + eps) = scale * inv,   b = shift - mean * a,

    where the residual term is dropped when `residual` is None and the relu
    when `relu` is false. The backward is closed form. With N = batch * length,
    every sum over batch and length, and g' = g * (out > 0) under relu (the
    mask is read from the output, so no pre-activation array is kept), else
    g' = g:

        dshift = sum(g'),   dscale = inv * sum(g' * (x - mean)),
        dresidual = g',
        dx = a * g'                                  (eval)
        dx = a * g' + c1 * (x - mean) + c0           (train)
        c1 = -a * inv * dscale / N,   c0 = -a * dshift / N.

    c1 and c0 are per channel and carry the gradient through the batch
    statistics; this is a * (g' - (dshift + xhat * dscale) / N) with
    xhat = (x - mean) * inv, without building xhat.
    """

    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels, dtype=np.float64):
        self.scale = Tensor(np.ones(channels, dtype), requires_grad=True)
        self.shift = Tensor(np.zeros(channels, dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype)
        self.running_var = np.ones(channels, dtype)
        self.channels = channels

    def _affine(self, x, mode, update_running):
        """Check x, update the running statistics when asked, and return the
        mode's (C, 1) columns mean, inv, a and b."""
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown batchnorm mode {mode!r}")
        if update_running is None:
            update_running = mode == "train"
        b, c, length = x.data.shape
        if c != self.channels:
            raise ShapeError(
                f"batchnorm: input has {c} channels, layer has {self.channels}"
            )
        if mode == "eval":
            mean, var = self.running_mean, self.running_var
        else:
            if b < 2:
                raise ValueError("train-mode batchnorm requires batch size >= 2")
            n = b * length
            mean = x.data.mean(axis=(0, 2))
            centered = x.data - mean[:, None]
            var = np.square(centered, out=centered).mean(axis=(0, 2))
            if update_running:
                unbiased = var * (n / (n - 1.0))
                m = self.momentum
                self.running_mean = (1.0 - m) * self.running_mean + m * mean
                self.running_var = (1.0 - m) * self.running_var + m * unbiased
        mean = mean[:, None]
        inv = (1.0 / np.sqrt(var + self.eps))[:, None]
        a = self.scale.data[:, None] * inv
        return mean, inv, a, self.shift.data[:, None] - mean * a

    def forward(self, x, mode="train", update_running=None, residual=None,
                relu=False):
        mean, inv, a, b = self._affine(x, mode, update_running)
        out = x.data * a
        out += b
        if residual is not None:
            out += residual.data
        if relu:
            np.maximum(out, 0.0, out=out)

        def backward(g):
            if relu:
                g = g * (out > 0)
            grads = _batchnorm_vjp(x, g, mean, inv, a, mode)
            return grads if residual is None else grads + (g,)

        parents = (x, self.scale, self.shift)
        if residual is not None:
            parents += (residual,)
        return _node(out, parents, backward)


def _batchnorm_vjp(x, g, mean, inv, a, mode):
    """Batchnorm's dx (None if x needs none), dscale, dshift for masked g."""
    n = g.size // g.shape[1]
    xc = x.data - mean
    dshift = g.sum(axis=(0, 2))
    dscale = inv[:, 0] * np.einsum("bcl,bcl->c", g, xc)
    dx = None
    if x.requires_grad:
        dx = g * a
        if mode == "train":
            c1 = -a * inv * dscale[:, None] / n
            c0 = -a * dshift[:, None] / n
            xc *= c1
            dx += xc
            dx += c0
    return dx, dscale, dshift


def bn_relu_then(x, bn, then, mode="train", update_running=None):
    """then(relu(bn(x))) as one node, for a `then` (a conv's forward, a
    max-pool) that builds one node with its input as first parent.

    The node keeps x and bn's (C, 1) columns, not h = relu(x * a + b): the
    input tensor of `then`'s node drops its data after the forward. The
    backward recomputes h with BatchNorm1d.forward's ops in its order, so
    bit for bit, runs `then`'s VJP, masks by h > 0 and runs bn's VJP.
    """
    mean, inv, a, b = bn._affine(x, mode, update_running)

    def activation():
        h = x.data * a
        h += b
        return np.maximum(h, 0.0, out=h)

    h = Tensor(activation(), requires_grad=True)
    out = then(h)
    h.data = None

    def backward(g):
        h.data = activation()
        gh, *rest = out._backward(g)
        gh *= h.data > 0
        h.data = None
        return (*_batchnorm_vjp(x, gh, mean, inv, a, mode), *rest)

    return _node(out.data, (x, bn.scale, bn.shift, *out._parents[1:]),
                 backward)


def linear(x, weight, bias):
    """Affine map of (B, n_in) rows by a (n_out, n_in) weight matrix."""
    if x.data.ndim != 2:
        raise ShapeError(f"linear expects a (B, n_in) input, got {x.data.shape}")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(
            f"linear: input width {x.data.shape[1]} != weight width "
            f"{weight.data.shape[1]}"
        )
    out = x.data @ weight.data.T + bias.data[None, :]

    def backward(g):
        return g @ weight.data, g.T @ x.data, g.sum(axis=0)

    return _node(out, (x, weight, bias), backward)


class Linear:
    def __init__(self, n_in, n_out, *, rng, dtype=np.float64):
        self.weight = Tensor(
            fan_in_uniform(rng, (n_out, n_in), n_in, dtype), requires_grad=True
        )
        self.bias = Tensor(fan_in_uniform(rng, (n_out,), n_in, dtype),
                           requires_grad=True)

    def forward(self, x):
        return linear(x, self.weight, self.bias)


def relu(x):
    """Elementwise max(x, 0); the model fuses its ReLUs into BatchNorm1d."""
    mask = x.data > 0
    return _node(np.maximum(x.data, 0.0), (x,), lambda g: (g * mask,))


def max_pool1d(x, kernel, stride, padding=0):
    """Windowed maximum along the length axis: a running maximum from -inf over
    each strided tap's in-range columns, so padding counts as -inf. Ties and the
    gradient go to the lowest index; padding < kernel keeps inputs in every window.
    The winning tap of each output is kept in the smallest type that holds
    kernel - 1 (one byte for kernels up to 256).
    """
    if x.data.ndim != 3:
        raise ShapeError(f"max_pool1d expects a (B, C, L) input, got {x.data.shape}")
    b, c, length = x.data.shape
    l_out, taps = _window_taps("max_pool1d", length, kernel, stride, padding)
    if padding >= kernel:
        raise ShapeError(f"max_pool1d: padding {padding} must be < kernel {kernel}")
    out = np.full((b, c, l_out), -np.inf, x.data.dtype)
    arg = np.zeros(out.shape, np.min_scalar_type(kernel - 1))
    for t, (j0, j1, src) in enumerate(taps):
        tap, best = x.data[:, :, src], out[:, :, j0:j1]
        np.copyto(arg[:, :, j0:j1], t, where=tap > best)
        np.maximum(best, tap, out=best)

    def backward(g):
        gx = np.zeros(x.data.shape, x.data.dtype)
        for t, (j0, j1, src) in enumerate(taps):
            gx[:, :, src] += g[:, :, j0:j1] * (arg[:, :, j0:j1] == t)
        return (gx,)

    return _node(out, (x,), backward)


def pooled_features(x):
    """Average- and max-pooled channel features, (B, C, L) -> (B, 2C), as one
    node; ties in the maximum take the lowest index.

    The backward adds the mean's share g[:, :C] / L at every position to the
    max's g[:, C:] at each channel's argmax.
    """
    _, c, length = x.data.shape
    idx = x.data.argmax(axis=2)[..., None]
    out = np.concatenate(
        [x.data.mean(axis=2), np.take_along_axis(x.data, idx, axis=2)[..., 0]],
        axis=1,
    )

    def backward(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx, g[:, c:, None], axis=2)
        gx += g[:, :c, None] / length
        return (gx,)

    return _node(out, (x,), backward)


def _log_softmax(z):
    m = z.max(axis=1, keepdims=True)
    zs = z - m
    return zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))


def cross_entropy(logits, labels):
    """Mean negative log-softmax probability of the true class.

    Softmax is applied exactly once, inside this op, via a max-subtracted
    log-sum-exp.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects (B, n_classes) logits, "
                         f"got {logits.data.shape}")
    labels = np.asarray(labels)
    b, n_classes = logits.data.shape
    if labels.shape != (b,):
        raise ShapeError(f"cross_entropy: {b} rows but labels shape {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise TypeError("labels must be integer class indices")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(
            f"label out of range [0, {n_classes}): {labels.min()}..{labels.max()}"
        )
    logp = _log_softmax(logits.data)
    loss = -logp[np.arange(b), labels].mean()

    def backward(g):
        p = np.exp(logp)
        p[np.arange(b), labels] -= 1.0
        return (np.asarray(g) * p / b,)

    return _node(np.asarray(loss), (logits,), backward)


def softmax(logits):
    """Row-wise softmax of (B, n_classes) logits."""
    s = np.exp(_log_softmax(logits.data))

    def backward(g):
        inner = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - inner),)

    return _node(s, (logits,), backward)
