"""Exact discrete Fourier transforms for arbitrary lengths.

Conventions, fixed across the whole package:

    dft(x)[j]  =  sum_n exp(-2i*pi*n*j/L) * x[n]          (unnormalized)
    idft(X)[k] =  (1/L) * sum_n exp(+2i*pi*k*n/L) * X[n]  (1/L inverse)

so ``idft(dft(x)) == x`` and Parseval reads ``sum |x|^2 == (1/L) sum |X|^2``.

Lengths are never padded: padding would shift which bin a given frequency
lands in, and downstream frequency masks are indexed by bin. The transforms
are ``numpy.fft`` (pocketfft), which is exact at every length without
padding. A length of 0 raises ValueError. The transforms act on plain
arrays along their last axis and record no graph; the SATSE blocks
differentiate their own fused rfft/irfft node (see ``satse``).
"""

import numpy as np

__all__ = ["dft", "idft"]


def dft(x):
    """Unnormalized forward transform along the last axis."""
    return np.fft.fft(x)


def idft(x):
    """Inverse transform along the last axis, carrying the 1/L normalization."""
    x = np.asarray(x)
    return np.fft.ifft(x, norm="forward") / x.shape[-1]
