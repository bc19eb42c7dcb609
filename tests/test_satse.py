import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import (
    add,
    as_complex,
    dft_t,
    idft_t,
    mul,
    real_part,
    reduce_mean,
    reshape,
    sigmoid,
    sub,
)
from scdnn.autodiff import ShapeError, Tensor, grad_check
from scdnn.layers import cross_entropy, linear
from scdnn.satse import (
    GAMMA_MIN,
    PHI_MAX,
    SatseBlock,
    effective_bins,
    hard_mask,
    soft_mask,
)


def brute_force_pipeline(x, phi, gamma, weight, lam_low, lam_high, mode):
    """Independent per-sample pipeline oracle built on explicit loops."""
    b, c, length = x.shape
    out = np.zeros_like(x)
    j = np.arange(length, dtype=float)
    eff = np.minimum(j, length - j) if mode == "symmetric" else j
    high = 1.0 / (1.0 + np.exp(np.clip(gamma * (-eff + phi * length), -700, 700)))
    low = 1.0 - high
    for n in range(b):
        for k in range(c):
            spec = np.array(
                [
                    sum(
                        x[n, k, t] * np.exp(-2j * np.pi * t * jj / length)
                        for t in range(length)
                    )
                    for jj in range(length)
                ]
            )
            def inv(s):
                return np.array(
                    [
                        sum(
                            s[jj] * np.exp(2j * np.pi * t * jj / length)
                            for jj in range(length)
                        )
                        / length
                        for t in range(length)
                    ]
                )
            f_low = inv(weight[k] * (low * spec)).real
            f_high = inv(weight[k] * (high * spec)).real
            out[n, k] = x[n, k] + lam_low * f_low + lam_high * f_high
    return out


def composed_forward(block, x, swap_roles=False):
    """The block as a chain of generic graph nodes: one forward transform,
    two masked inverse transforms, and the gain-weighted sum of their real
    parts, high branch first under `swap_roles`. Oracle for the fused op in
    SatseBlock.forward."""
    _, c, length = x.data.shape
    bins = Tensor(effective_bins(length, block.mask_index_mode))
    high = sigmoid(mul(block.gamma, sub(bins, mul(block.phi, float(length)))))
    low = sub(1.0, high)
    spec = dft_t(x)
    weight = reshape(as_complex(block.weight_re, block.weight_im),
                     (1, c, length))

    def branch(mask):
        filtered = mul(mul(spec, reshape(mask, (1, 1, length))), weight)
        return real_part(idft_t(filtered))

    terms = [(block.lambda_low, low), (block.lambda_high, high)]
    if swap_roles:
        terms.reverse()
    (g1, m1), (g2, m2) = terms
    return add(x, add(mul(g1, branch(m1)), mul(g2, branch(m2))))


def random_block(rng, channels, length, mode, phi, gamma, lam_low, lam_high):
    block = SatseBlock(channels, length, phi_init=phi, gamma_init=gamma,
                       mask_index_mode=mode)
    block.lambda_low.data[...] = lam_low
    block.lambda_high.data[...] = lam_high
    block.weight_re.data[:] = rng.normal(size=(channels, length))
    block.weight_im.data[:] = rng.normal(size=(channels, length))
    return block


def output_and_grads(forward, block, x, upstream):
    """Output, input gradient and all six parameter gradients of
    sum(forward(x) * upstream)."""
    xt = Tensor(x, requires_grad=True)
    params = block.parameters()
    for p in params.values():
        p.grad = None
    out = forward(xt)
    (out * Tensor(upstream)).sum().backward()
    return {"out": out.data, "x": xt.grad,
            **{name: p.grad for name, p in params.items()}}


def gradient_scales(block, x, upstream):
    """Sum of the absolute values of the terms each parameter gradient adds.

    The parameter gradients are sums over batch, channel and bin, and the
    two branch gains enter with opposite signs. Rounding error in a sum is
    bounded relative to the sum of its terms' magnitudes, not to the sum
    itself, which can cancel to near zero (for example when the two gains
    are almost equal), so relative errors are measured against these.
    """
    length = x.shape[-1]
    phi, gamma = float(block.phi.data), float(block.gamma.data)
    lam_low = abs(float(block.lambda_low.data))
    lam_high = abs(float(block.lambda_high.data))
    bins = effective_bins(length, block.mask_index_mode)
    offset = bins - phi * length
    high = soft_mask(bins, phi, gamma, length, "high")
    low = 1.0 - high
    # |dK| term by term: sum over the batch of |dft(g)| * |dft(x)| / L
    dk = (np.abs(np.fft.fft(upstream)) * np.abs(np.fft.fft(x))).sum(axis=0) / length
    weight = np.abs(block.weight_re.data + 1j * block.weight_im.data)
    per_bin = (dk * weight).sum(axis=0)
    slope = per_bin * high * low * (lam_low + lam_high)
    weight_scale = (dk * (lam_low * low + lam_high * high)).max()
    return {
        "weight_re": weight_scale,
        "weight_im": weight_scale,
        "lambda_low": (per_bin * low).sum(),
        "lambda_high": (per_bin * high).sum(),
        "phi": gamma * length * slope.sum(),
        "gamma": (slope * np.abs(offset)).sum(),
    }


def assert_matches_composition(block, x, upstream, swap_roles):
    fused = output_and_grads(block.forward, block, x, upstream)
    composed = output_and_grads(
        lambda t: composed_forward(block, t, swap_roles), block, x, upstream)
    assert fused.keys() == composed.keys()
    scales = gradient_scales(block, x, upstream)
    for name, want in composed.items():
        scale = max(scales.get(name, np.abs(want).max()), np.finfo(np.float64).tiny)
        err = np.abs(fused[name] - want).max() / scale
        assert err <= 1e-12, f"{name}: relative error {err:.2e}"


class TestMasks:
    def test_complement_to_machine_precision(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-50, 150, size=5000)
        phi = rng.uniform(0.01, 0.99)
        gamma = rng.uniform(0.01, 50)
        low = soft_mask(x, phi, gamma, 100, "low")
        high = soft_mask(x, phi, gamma, 100, "high")
        assert np.abs(low + high - 1.0).max() <= 1e-15

    def test_half_at_cutoff(self):
        for length in (10, 37, 512):
            for phi in (0.1, 0.4, 0.77):
                v = soft_mask(phi * length, phi, 3.3, length, "high")
                assert v == pytest.approx(0.5, abs=1e-12)

    def test_steep_slope_passes_low_bins(self):
        phi, length = 0.6, 100
        v = soft_mask(phi * length - 10, phi, 1000.0, length, "low")
        assert v > 1.0 - 1e-9

    def test_hard_mask_examples(self):
        assert hard_mask(2, 0.5, 10, "low") == 1.0
        assert hard_mask(2, 0.5, 10, "high") == 0.0
        assert hard_mask(9, 0.5, 10, "low") == 0.0
        assert hard_mask(9, 0.5, 10, "high") == 1.0

    def test_hard_equals_rounded_steep_soft_away_from_cutoff(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            length = int(rng.integers(4, 200))
            phi = rng.uniform(0.05, 0.95)
            j = np.arange(length)
            keep = np.abs(j - phi * length) >= 1.0
            for side in ("low", "high"):
                soft = soft_mask(j, phi, 1e4, length, side)
                hard = hard_mask(j, phi, length, side)
                assert np.array_equal(np.round(soft[keep]), hard[keep])

    def test_symmetric_bins_mirror(self):
        eff = effective_bins(10, "symmetric")
        np.testing.assert_array_equal(eff, [0, 1, 2, 3, 4, 5, 4, 3, 2, 1])
        np.testing.assert_array_equal(effective_bins(5, "literal"),
                                      [0, 1, 2, 3, 4])

    def test_bad_side_and_mode_rejected(self):
        with pytest.raises(ValueError):
            soft_mask(1, 0.5, 1.0, 8, "middle")
        with pytest.raises(ValueError):
            effective_bins(8, "folded")


class TestSatseForward:
    def test_zero_gains_is_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4, 20))
        for mode in ("symmetric", "literal"):
            block = SatseBlock(4, 20, mask_index_mode=mode)
            out = block.forward(Tensor(x))
            assert np.abs(out.data - x).max() < 1e-12

    def test_unit_weight_unit_gains_doubles_input(self):
        rng = np.random.default_rng(3)
        for mode in ("symmetric", "literal"):
            for _ in range(5):
                b, c, length = rng.integers(1, 5), rng.integers(1, 9), rng.integers(2, 65)
                x = rng.normal(size=(b, c, length))
                block = SatseBlock(int(c), int(length), lambda_init=1.0,
                                   phi_init=float(rng.uniform(0.05, 0.95)),
                                   gamma_init=float(rng.uniform(0.1, 20)),
                                   mask_index_mode=mode)
                out = block.forward(Tensor(x))
                assert np.abs(out.data - 2 * x).max() < 1e-8

    def test_matches_brute_force_pipeline(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 12))
        for mode in ("symmetric", "literal"):
            block = SatseBlock(3, 12, phi_init=0.3, gamma_init=2.0,
                               lambda_init=0.0, mask_index_mode=mode)
            block.lambda_low.data[...] = 0.8
            block.lambda_high.data[...] = -0.4
            w = rng.normal(size=(3, 12)) + 1j * rng.normal(size=(3, 12))
            block.weight_re.data[:] = w.real
            block.weight_im.data[:] = w.imag
            expect = brute_force_pipeline(x, 0.3, 2.0, w, 0.8, -0.4, mode)
            out = block.forward(Tensor(x))
            np.testing.assert_allclose(out.data, expect, atol=1e-9)

    def test_cosine_low_pass_selectivity(self):
        # single tone at bin 3 of L=32; a cutoff above the tone passes it
        # through the low branch (output ~ 2f), a cutoff below blocks it
        # (output ~ f)
        length = 32
        t = np.arange(length)
        x = np.cos(2 * np.pi * 3 * t / length)[None, None, :]

        def run(phi):
            block = SatseBlock(1, length, phi_init=phi, gamma_init=1000.0,
                               mask_index_mode="symmetric")
            block.lambda_low.data[...] = 1.0
            block.lambda_high.data[...] = 0.0
            return block.forward(Tensor(x)).data

        np.testing.assert_allclose(run(0.25), 2 * x, atol=1e-6)
        np.testing.assert_allclose(run(0.05), x, atol=1e-6)
        # cross-checked against the loop oracle
        w = np.ones((1, length), dtype=complex)
        np.testing.assert_allclose(
            run(0.25),
            brute_force_pipeline(x, 0.25, 1000.0, w, 1.0, 0.0, "symmetric"),
            atol=1e-9,
        )

    def test_symmetric_mode_keeps_branches_real(self):
        from scdnn.spectral import dft, idft
        rng = np.random.default_rng(6)
        for length in (16, 33):
            x = rng.normal(size=length)
            spec = dft(x)
            bins = effective_bins(length, "symmetric")
            mask = soft_mask(bins, 0.3, 2.5, length, "low")
            rec = idft(spec * mask)
            assert np.abs(rec.imag).max() < 1e-9

    def test_shape_mismatch_rejected(self):
        block = SatseBlock(3, 16)
        with pytest.raises(ShapeError, match="satse"):
            block.forward(Tensor(np.zeros((1, 3, 8))))

    def test_input_without_batch_axis_rejected(self):
        with pytest.raises(ShapeError, match=r"^satse expects a \(B, C, L\) "
                                             r"input, got \(3, 16\)$"):
            SatseBlock(3, 16).forward(Tensor(np.zeros((3, 16))))

    def test_output_shape_preserved(self):
        block = SatseBlock(2, 10)
        out = block.forward(Tensor(np.random.default_rng(7).normal(size=(4, 2, 10))))
        assert out.data.shape == (4, 2, 10)


class TestSatseGradients:
    def test_all_parameters_differentiate(self):
        rng = np.random.default_rng(8)
        block = SatseBlock(4, 16, phi_init=0.35, gamma_init=1.2)
        block.lambda_low.data[...] = 0.6
        block.lambda_high.data[...] = 0.3
        block.weight_re.data += rng.normal(size=(4, 16)) * 0.1
        block.weight_im.data += rng.normal(size=(4, 16)) * 0.1
        x = Tensor(rng.normal(size=(2, 4, 16)))
        head_w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        head_b = Tensor(rng.normal(size=3), requires_grad=True)
        labels = rng.integers(0, 3, size=2)
        # time-mixing weights: plain averaging would read only the zeroth
        # frequency bin and leave most of W with an exactly-zero gradient
        mix = Tensor(rng.normal(size=(1, 1, 16)))

        def loss():
            h = mul(block.forward(x), mix)
            feats = reduce_mean(h, axis=2)
            return cross_entropy(linear(feats, head_w, head_b), labels)

        params = dict(block.parameters())
        params.update({"head_w": head_w, "head_b": head_b})
        rep = grad_check(loss, params)
        assert rep.passed, rep

    def test_literal_mode_differentiates_too(self):
        rng = np.random.default_rng(9)
        block = SatseBlock(2, 9, phi_init=0.4, gamma_init=0.9,
                           mask_index_mode="literal")
        block.lambda_low.data[...] = 0.5
        block.lambda_high.data[...] = 0.25
        x = Tensor(rng.normal(size=(2, 2, 9)))
        w = rng.normal(size=(2, 2, 9))

        def loss():
            return (block.forward(x) * Tensor(w)).sum()

        rep = grad_check(loss, block.parameters())
        assert rep.passed, rep


class TestParamReport:
    def test_fresh_block_reports_defaults(self):
        rep = SatseBlock(4, 16).report()
        assert rep["phi"] == 0.4
        assert rep["gamma"] == 0.5
        assert rep["lambda_low"] == 0.0
        assert rep["lambda_high"] == 0.0
        assert rep["weight_norms"]["l2"] == pytest.approx(np.sqrt(64))

    def test_clamp_bounds(self):
        block = SatseBlock(2, 8)
        block.phi.data[...] = 1.2
        block.gamma.data[...] = -5.0
        block.clamp()
        rep = block.report()
        assert rep["phi"] == PHI_MAX == 0.999
        assert rep["gamma"] == GAMMA_MIN == 1e-3

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, GAMMA_MIN / 2, float("nan")])
    def test_gamma_init_below_clamp_bound_rejected(self, gamma):
        # a negative slope swaps the low and high masks; zero makes both 0.5
        with pytest.raises(ValueError, match="gamma_init"):
            SatseBlock(2, 8, gamma_init=gamma)
        assert SatseBlock(2, 8, gamma_init=GAMMA_MIN).report()["gamma"] == GAMMA_MIN

    def test_fixed_phi_not_clamped_or_trained(self):
        block = SatseBlock(2, 8, phi_init=0.2, train_phi=False)
        block.clamp()
        assert block.report()["phi"] == 0.2
        assert not block.phi.requires_grad


class TestFusedEquivalence:
    @pytest.mark.parametrize("length", [16, 17])
    def test_backward_keeps_no_spectrum(self, length):
        # rfft(f) is recomputed from f, which the node keeps as its parent
        rng = np.random.default_rng(length)
        b, c, half = 2, 3, length // 2 + 1
        block = random_block(rng, c, length, "symmetric", 0.3, 2.0, 0.7, -0.4)
        xt = Tensor(rng.normal(size=(b, c, length)), requires_grad=True)
        out = block.forward(xt)
        held = [cell.cell_contents for cell in out._backward.__closure__]
        assert all(a.shape != (b, c, half) for a in held
                   if isinstance(a, np.ndarray))
        assert any(a is xt for a in held)

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 8, 9, 31, 32, 63, 125, 250])
    def test_matches_composition(self, length):
        rng = np.random.default_rng(length)
        for mode in ("symmetric", "literal"):
            for swap_roles in (False, True):
                block = random_block(rng, 3, length, mode, 0.3, 2.0, 0.7, -0.4)
                x = rng.normal(size=(2, 3, length))
                upstream = rng.normal(size=(2, 3, length))
                assert_matches_composition(block, x, upstream, swap_roles)

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(1, 300),
        mode=st.sampled_from(["symmetric", "literal"]),
        swap_roles=st.booleans(),
        phi=st.floats(1e-3, 1.0 - 1e-3),
        gamma=st.floats(1e-3, 50.0),
        lam_low=st.floats(-3.0, 3.0),
        lam_high=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_composition_property(self, length, mode, swap_roles, phi,
                                          gamma, lam_low, lam_high, seed):
        rng = np.random.default_rng(seed)
        block = random_block(rng, 2, length, mode, phi, gamma, lam_low, lam_high)
        x = rng.normal(size=(2, 2, length))
        upstream = rng.normal(size=(2, 2, length))
        assert_matches_composition(block, x, upstream, swap_roles)

    @pytest.mark.parametrize("length", [10, 1])
    def test_grad_check_with_input(self, length):
        # L=10 in literal mode: the kernel is not conjugate-symmetric, so
        # the Hermitian fold and its Nyquist bin carry real weight.
        rng = np.random.default_rng(100 + length)
        block = random_block(rng, 2, length, "literal", 0.35, 0.8, 0.6, -0.3)
        x = Tensor(rng.normal(size=(2, 2, length)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, length)))

        def loss():
            return (block.forward(x) * w).sum()

        params = dict(block.parameters(), x=x)
        rep = grad_check(loss, params)
        assert rep.passed, rep


class TestReal32:
    def test_float32_block_stays_float32(self):
        rng = np.random.default_rng(11)
        block = SatseBlock(3, 20, phi_init=0.3, gamma_init=1.5,
                           lambda_init=0.5, dtype=np.float32)
        block.weight_im.data += rng.normal(size=(3, 20)).astype(np.float32)
        x = Tensor(rng.normal(size=(2, 3, 20)).astype(np.float32),
                   requires_grad=True)
        out = block.forward(x)
        assert out.dtype == np.float32
        (out * Tensor(rng.normal(size=(2, 3, 20)).astype(np.float32))).sum().backward()
        leaves = dict(block.parameters(), x=x)
        for name, leaf in leaves.items():
            assert leaf.grad is not None, name
            assert leaf.grad.dtype == np.float32, name

    def test_float32_matches_float64(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 24))
        outs = []
        for dtype in (np.float32, np.float64):
            block = SatseBlock(3, 24, phi_init=0.3, gamma_init=1.5,
                               lambda_init=0.5, dtype=dtype)
            block.weight_im.data[:] = np.linspace(-1, 1, 72).reshape(3, 24)
            outs.append(block.forward(Tensor(x.astype(dtype))).data)
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-5)
