"""Exact discrete Fourier transforms for arbitrary lengths.

Conventions, fixed across the whole package:

    dft(x)[j]  =  sum_n exp(-2i*pi*n*j/L) * x[n]          (unnormalized)
    idft(X)[k] =  (1/L) * sum_n exp(+2i*pi*k*n/L) * X[n]  (1/L inverse)

so ``idft(dft(x)) == x`` and Parseval reads ``sum |x|^2 == (1/L) sum |X|^2``.

Lengths are never padded: padding would shift which bin a given frequency
lands in, and downstream frequency masks are indexed by bin. The transforms
are ``numpy.fft`` (pocketfft), which is exact at every length without
padding. They act on plain arrays and record no graph; the SATSE blocks
differentiate their own fused rfft/irfft node (see ``satse``).
"""

import numpy as np

__all__ = ["dft", "idft"]


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
