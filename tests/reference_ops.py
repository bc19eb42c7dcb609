"""Generic differentiable ops that only the tests use.

The model runs on fused nodes with closed-form backward rules (conv1d,
BatchNorm1d, SatseBlock, pooled_features). The tests still use these
elementwise, reduction, shape and complex ops, and the differentiable
transforms ``dft_t``/``idft_t``, as independent oracles for those nodes and
as vehicles for the autodiff engine tests. Each op records an ordinary
``scdnn.autodiff`` node through ``_node`` here, which fits each gradient to
its parent: it sums axes that broadcasting added or stretched, drops the
imaginary part for a real parent, and casts to the parent's dtype. The
engine itself only checks that a gradient already fits.
"""

import numpy as np

from scdnn import autodiff
from scdnn.autodiff import ShapeError, Tensor
from scdnn.satse import stable_sigmoid
from scdnn.spectral import dft, idft


def _fit(g, parent):
    """`g` summed down to `parent`'s shape and cast to its dtype."""
    g = np.asarray(g)
    extra = g.ndim - len(parent.shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(parent.shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    if parent.dtype.kind != "c" and g.dtype.kind == "c":
        g = g.real
    return g.astype(parent.dtype, copy=False)


def _node(data, parents, backward_fn):
    """An engine node whose gradients are fitted to their parents."""
    def backward(g):
        return tuple(None if d is None else _fit(d, p)
                     for d, p in zip(backward_fn(g), parents))

    return autodiff._node(data, parents, backward)


def _promote(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


# Python-number operands stay plain scalars instead of becoming float64
# leaf tensors: numpy's weak scalar promotion then preserves float32
# pipelines, and constants never enter the graph.
def _is_pynum(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def mul(a, b):
    """Elementwise product with broadcasting and Python-number operands;
    complex factors follow the pairing convention."""
    if isinstance(a, Tensor) and _is_pynum(b):
        return _node(a.data * b, (a,), lambda g: (g * b,))
    if isinstance(b, Tensor) and _is_pynum(a):
        return _node(b.data * a, (b,), lambda g: (g * a,))
    a, b = _promote(a), _promote(b)

    def backward(g):
        ga = np.conj(b.data) * g if a.requires_grad else None
        gb = np.conj(a.data) * g if b.requires_grad else None
        return ga, gb

    return _node(a.data * b.data, (a, b), backward)


def reduce_sum(a, axis=None, keepdims=False):
    a = _promote(a)
    axes = _axis_tuple(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        gg = np.asarray(g)
        if not keepdims:
            gg = np.expand_dims(gg, axes)
        return (np.broadcast_to(gg, a.data.shape),)

    return _node(out, (a,), backward)


def add(a, b):
    if isinstance(a, Tensor) and _is_pynum(b):
        return _node(a.data + b, (a,), lambda g: (g,))
    if isinstance(b, Tensor) and _is_pynum(a):
        return _node(b.data + a, (b,), lambda g: (g,))
    a, b = _promote(a), _promote(b)
    return _node(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b):
    if isinstance(a, Tensor) and _is_pynum(b):
        return _node(a.data - b, (a,), lambda g: (g,))
    if isinstance(b, Tensor) and _is_pynum(a):
        return _node(a - b.data, (b,), lambda g: (-g,))
    a, b = _promote(a), _promote(b)
    return _node(a.data - b.data, (a, b), lambda g: (g, -g))


def exp(a):
    a = _promote(a)
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def log(a):
    a = _promote(a)
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def sigmoid(a):
    a = _promote(a)
    out = stable_sigmoid(a.data)
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


def matmul(a, b):
    a, b = _promote(a), _promote(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}"
        )

    def backward(g):
        return g @ np.conj(b.data).T, np.conj(a.data).T @ g

    return _node(a.data @ b.data, (a, b), backward)


def reduce_mean(a, axis=None, keepdims=False):
    a = _promote(a)
    axes = _axis_tuple(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def backward(g):
        gg = np.asarray(g) / count
        if not keepdims:
            gg = np.expand_dims(gg, axes)
        return (np.broadcast_to(gg, a.data.shape),)

    return _node(out, (a,), backward)


def concat(tensors, axis):
    tensors = [_promote(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        sl = [slice(None)] * g.ndim
        outs = []
        for i in range(len(tensors)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(g[tuple(sl)])
        return tuple(outs)

    return _node(np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors), backward)


def reshape(a, shape):
    a = _promote(a)
    orig = a.data.shape

    def backward(g):
        return (g.reshape(orig),)

    return _node(a.data.reshape(shape), (a,), backward)


def as_complex(re, im):
    """Pack two real tensors into one complex tensor."""
    re, im = _promote(re), _promote(im)
    if re.data.shape != im.data.shape:
        raise ShapeError(
            f"as_complex parts differ in shape: {re.data.shape} vs {im.data.shape}"
        )

    def backward(g):
        return g.real, g.imag

    return _node(re.data + 1j * im.data, (re, im), backward)


def real_part(z):
    z = _promote(z)

    def backward(g):
        return (np.asarray(g).astype(z.data.dtype),)

    return _node(np.ascontiguousarray(z.data.real), (z,), backward)


def imag_part(z):
    z = _promote(z)

    def backward(g):
        return ((1j * np.asarray(g)).astype(z.data.dtype),)

    return _node(np.ascontiguousarray(z.data.imag), (z,), backward)


# -- differentiable transforms -------------------------------------------------
#
# Both transforms are linear maps; the vector-Jacobian product of a linear
# map with matrix M is multiplication by the conjugate transpose, which for
# these symmetric transform matrices is again a transform of the other sign.


def dft_t(x):
    """Differentiable forward transform of a Tensor along its last axis."""
    length = x.data.shape[-1]
    return _node(dft(x.data), (x,), lambda g: (idft(g) * length,))


def idft_t(x):
    """Differentiable inverse transform (1/L normalized) of a Tensor."""
    length = x.data.shape[-1]
    return _node(idft(x.data), (x,), lambda g: (dft(g) / length,))
