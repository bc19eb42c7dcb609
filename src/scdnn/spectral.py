"""Exact discrete Fourier transforms for arbitrary lengths.

Conventions, fixed across the whole package:

    dft(x)[j]  =  sum_n exp(-2i*pi*n*j/L) * x[n]          (unnormalized)
    idft(X)[k] =  (1/L) * sum_n exp(+2i*pi*k*n/L) * X[n]  (1/L inverse)

so ``idft(dft(x)) == x`` and Parseval reads ``sum |x|^2 == (1/L) sum |X|^2``.

Lengths are never padded: padding would shift which bin a given frequency
lands in, and downstream frequency masks are indexed by bin. The transforms
are ``numpy.fft`` (pocketfft), which is exact at every length without
padding.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _node

__all__ = ["Spectrum", "dft", "idft", "dft_batch", "idft_batch", "dft_t", "idft_t"]


def _transform(a, sign, axis=-1):
    """Unnormalized transform along `axis`: forward for sign -1, inverse for +1.

    The explicit cast keeps float32/complex64 input in complex64 on every
    numpy version (numpy 1.x computes np.fft in double precision).
    """
    a = np.asarray(a)
    if a.shape[axis] == 0:
        raise ValueError("transform length must be at least 1")
    out_dtype = np.complex64 if a.dtype in (np.float32, np.complex64) else np.complex128
    if sign < 0:
        out = np.fft.fft(a, axis=axis)
    else:
        out = np.fft.ifft(a, axis=axis, norm="forward")
    return out.astype(out_dtype, copy=False)


def dft(x, axis=-1):
    """Unnormalized forward transform along `axis` (default: a 1-D signal)."""
    return _transform(x, -1, axis)


def idft(x, axis=-1):
    """Inverse transform along `axis`, carrying the 1/L normalization."""
    x = np.asarray(x)
    return _transform(x, +1, axis) / x.shape[axis]


@dataclass
class Spectrum:
    """Complex coefficients of a (batch, channels, length) signal array.

    For real input signals the coefficients satisfy conjugate symmetry,
    values[..., j] == conj(values[..., (L - j) % L]).
    """

    values: np.ndarray
    origin_length: int


def dft_batch(batch):
    """Transform every (batch, channel) row of a (B, C, L) array."""
    batch = np.asarray(batch)
    if batch.ndim != 3:
        raise ValueError(f"dft_batch expects a (B, C, L) array, got {batch.shape}")
    return Spectrum(_transform(batch, -1), batch.shape[-1])


def idft_batch(spec):
    """Inverse of :func:`dft_batch`; accepts a Spectrum or a (B, C, L) array."""
    values = spec.values if isinstance(spec, Spectrum) else np.asarray(spec)
    if values.ndim != 3:
        raise ValueError(f"idft_batch expects a (B, C, L) array, got {values.shape}")
    return _transform(values, +1) / values.shape[-1]


# -- differentiable wrappers -------------------------------------------------
#
# Both transforms are linear maps; the vector-Jacobian product of a linear
# map with matrix M is multiplication by the conjugate transpose, which for
# these symmetric transform matrices is again a transform of the other sign.


def dft_t(x, axis=-1):
    """Differentiable forward transform of a Tensor along `axis`."""
    out = _transform(x.data, -1, axis)

    def backward(g):
        return (_transform(g, +1, axis),)

    return _node(out, (x,), backward)


def idft_t(x, axis=-1):
    """Differentiable inverse transform (1/L normalized) of a Tensor."""
    length = x.data.shape[axis]
    out = _transform(x.data, +1, axis) / length

    def backward(g):
        return (_transform(g, -1, axis) / length,)

    return _node(out, (x,), backward)
