"""Soft-adaptive threshold spectral enhancement.

A SATSE block transforms each channel of a (B, C, L) feature map to the
frequency domain, splits the spectrum into a low- and a high-frequency
branch with complementary sigmoid masks, mixes bins with a trainable
complex weight per (channel, bin), returns both branches to the time
domain, and adds them back onto the input:

    out = f + lambda_low * real(idft(W * sigma_low(j) * dft(f)))
            + lambda_high * real(idft(W * sigma_high(j) * dft(f)))

The masks are logistic ramps over the bin index with trainable cutoff
ratio `phi` (cutoff bin = phi * L) and slope `gamma`:

    sigma_high(x) = 1 / (1 + exp(gamma * (-x + phi * L)))
    sigma_low(x)  = 1 - sigma_high(x)

Because the ramps are smooth, phi and gamma receive exact gradients, which
is the whole point: a hard 0/1 cutoff has zero derivative almost
everywhere and cannot be trained.

Both branches are linear in the spectrum, so the block runs as one fused
op on the combined kernel

    K[c, j] = W[c, j] * m[j],   m = lambda_low * sigma_low + lambda_high * sigma_high.

For real f, real(idft(K * dft(f))) equals idft(H * dft(f)) with the
Hermitian fold H[j] = (K[j] + conj(K[(L - j) % L])) / 2, whose half
spectrum is all a real transform needs:

    out = f + irfft(rfft(f) * H[..., :L // 2 + 1], n=L)

The backward is closed form as well, with
dK = sum_b dft(g) * conj(dft(f)) / L for an upstream gradient g. The node
keeps no spectrum: the backward recomputes rfft(f) from f, which is on the
tape already, next to the rfft of g and the irfft of the input gradient.

Bin indexing comes in two flavours. In ``symmetric`` mode (default) the
mask argument is min(j, L - j), the unsigned frequency of bin j, so masks
are conjugate-symmetric and filtered versions of a real signal stay real
to rounding. ``literal`` mode uses the raw index j; the upper half of the
spectrum then counts as "high" even though it mirrors low frequencies,
and realness is restored only by the real-part extraction after the
inverse transform.
"""

import numpy as np

from .autodiff import ShapeError, Tensor, _node

__all__ = [
    "MASK_INDEX_MODES",
    "PHI_MIN",
    "PHI_MAX",
    "GAMMA_MIN",
    "stable_sigmoid",
    "effective_bins",
    "soft_mask",
    "hard_mask",
    "SatseBlock",
]

MASK_INDEX_MODES = ("literal", "symmetric")

# Post-step clamp bounds: phi may approach but never reach 0 or 1, and the
# sigmoid slope stays positive.
PHI_MIN = 1e-3
PHI_MAX = 1.0 - 1e-3
GAMMA_MIN = 1e-3


def stable_sigmoid(z):
    """Overflow-safe logistic function, elementwise; exact 0/1 at saturation."""
    z = np.asarray(z)
    if z.dtype.kind != "f":
        z = z.astype(np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_settings(phi_init, gamma_init, mask_index_mode, phi_key="phi_init"):
    """Refuse a starting cutoff ratio outside (0, 1), named `phi_key` in the
    message, a slope below GAMMA_MIN or infinite, or an unknown mask index
    mode."""
    if not 0.0 < phi_init < 1.0:
        raise ValueError(f"{phi_key} must lie in (0, 1), got {phi_init}")
    if not gamma_init >= GAMMA_MIN:
        raise ValueError(f"gamma_init must be at least {GAMMA_MIN}, got "
                         f"{gamma_init}")
    if gamma_init == np.inf:  # a hard mask: its phi gradient is inf * 0
        raise ValueError(f"gamma_init must be finite, got {gamma_init}")
    effective_bins(0, mask_index_mode)  # refuses an unknown mode


def effective_bins(length, mode="symmetric"):
    """Mask argument for every bin j = 0 .. length - 1: j in literal mode,
    min(j, L - j) in symmetric; an unknown mode raises ValueError."""
    if mode not in MASK_INDEX_MODES:
        raise ValueError(f"unknown mask_index_mode {mode!r}")
    j = np.arange(length, dtype=np.float64)
    return np.minimum(j, length - j) if mode == "symmetric" else j


def _side(high, side):
    """Mask `high` for side "high", its complement for "low"; a float for one bin."""
    if side not in ("low", "high"):
        raise ValueError(f"mask side must be 'low' or 'high', got {side!r}")
    out = high if side == "high" else 1.0 - high
    return out if out.ndim else float(out)


def soft_mask(x, phi, gamma, length, side):
    """Sigmoid frequency weight in (0, 1) at mask argument(s) x (see
    effective_bins), in the dtype of x - phi * length.

    side="high" passes bins above the cutoff phi * length, side="low" is
    its exact complement.
    """
    return _side(stable_sigmoid(gamma * (x - phi * length)), side)


def hard_mask(x, phi, length, side):
    """0/1 cutoff at phi * length: the infinite-slope limit of soft_mask."""
    return _side(np.greater(x, phi * length).astype(np.float64), side)


class SatseBlock:
    """Trainable spectral enhancement for one (channels, length) feature map.

    Parameters: scalar cutoff ratio `phi`, scalar slope `gamma`, complex
    per-(channel, bin) weight stored as paired real leaves, and the two
    branch coefficients `lambda_low` / `lambda_high`.
    """

    def __init__(self, channels, length, *, phi_init=0.4, gamma_init=0.5,
                 lambda_init=0.0, mask_index_mode="symmetric", train_phi=True,
                 dtype=np.float64):
        _check_settings(phi_init, gamma_init, mask_index_mode)
        self.channels = channels
        self.length = length
        self.mask_index_mode = mask_index_mode
        self.phi = Tensor(np.asarray(phi_init, dtype), requires_grad=train_phi)
        self.gamma = Tensor(np.asarray(gamma_init, dtype), requires_grad=True)
        self.weight_re = Tensor(np.ones((channels, length), dtype),
                                requires_grad=True)
        self.weight_im = Tensor(np.zeros((channels, length), dtype),
                                requires_grad=True)
        self.lambda_low = Tensor(np.asarray(lambda_init, dtype), requires_grad=True)
        self.lambda_high = Tensor(np.asarray(lambda_init, dtype), requires_grad=True)

    def forward(self, x):
        """Apply the block to a (B, C, L) Tensor; output has the same shape."""
        if x.data.ndim != 3:
            raise ShapeError(f"satse expects a (B, C, L) input, got {x.data.shape}")
        _, c, length = x.data.shape
        if c != self.channels or length != self.length:
            raise ShapeError(
                f"satse block built for (C={self.channels}, L={self.length}) "
                f"got input (C={c}, L={length}); pad or rebuild"
            )
        half = length // 2 + 1
        phi, gamma = self.phi.data, self.gamma.data
        lam_low, lam_high = self.lambda_low.data, self.lambda_high.data
        bins = effective_bins(length, self.mask_index_mode).astype(phi.dtype)
        offset = bins - phi * length
        high = soft_mask(bins, phi, gamma, length, "high")
        low = 1.0 - high
        gain = lam_low * low + lam_high * high
        weight = self.weight_re.data + 1j * self.weight_im.data
        kernel = weight * gain
        fold = (kernel[:, :half] + np.conj(kernel[:, -np.arange(half) % length])) / 2
        out = x.data + np.fft.irfft(np.fft.rfft(x.data, axis=-1) * fold, n=length,
                                    axis=-1)

        def backward(g):
            gspec = np.fft.rfft(g, axis=-1)
            # dK on the half spectrum, from f's spectrum recomputed here; the
            # upper bins of a real signal's spectrum are conjugate mirrors of
            # bins 1 .. (L - 1) // 2.
            dhalf = (gspec * np.conj(np.fft.rfft(x.data, axis=-1))).sum(axis=0)
            dhalf /= length
            dkernel = np.concatenate(
                [dhalf, np.conj(dhalf[:, 1:length - half + 1][:, ::-1])], axis=-1)
            dx = None
            if x.requires_grad:
                dx = g + np.fft.irfft(gspec * np.conj(fold), n=length, axis=-1)
            dweight = dkernel * gain
            dgain = (dkernel * np.conj(weight)).real.sum(axis=0)
            darg = dgain * (lam_high - lam_low) * high * low
            return (dx, -gamma * length * darg.sum(), (darg * offset).sum(),
                    dweight.real, dweight.imag, (dgain * low).sum(),
                    (dgain * high).sum())

        parents = (x, self.phi, self.gamma, self.weight_re, self.weight_im,
                   self.lambda_low, self.lambda_high)
        return _node(out, parents, backward)

    def parameters(self):
        return {
            "phi": self.phi,
            "gamma": self.gamma,
            "weight_re": self.weight_re,
            "weight_im": self.weight_im,
            "lambda_low": self.lambda_low,
            "lambda_high": self.lambda_high,
        }

    def clamp(self):
        """Post-optimizer-step projection of phi and gamma onto valid ranges."""
        if self.phi.requires_grad:
            np.clip(self.phi.data, PHI_MIN, PHI_MAX, out=self.phi.data)
        np.clip(self.gamma.data, GAMMA_MIN, None, out=self.gamma.data)

    def report(self):
        """Read-only scalar snapshot used for trace logging."""
        w = self.weight_re.data + 1j * self.weight_im.data
        return {
            "phi": float(self.phi.data),
            "gamma": float(self.gamma.data),
            "lambda_low": float(self.lambda_low.data),
            "lambda_high": float(self.lambda_high.data),
            "weight_norms": {
                "l2": float(np.sqrt((np.abs(w) ** 2).sum())),
                "max_abs": float(np.abs(w).max()),
            },
        }
