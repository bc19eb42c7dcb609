import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import add, as_complex, dft_t, idft_t, imag_part, real_part
from scdnn.autodiff import Tensor, grad_check
from scdnn.spectral import dft, idft


def brute_force_dft(x):
    """Independent O(L^2) direct summation, forward convention."""
    x = np.asarray(x, dtype=np.complex128)
    length = len(x)
    out = np.zeros(length, dtype=np.complex128)
    for j in range(length):
        acc = 0.0 + 0.0j
        for n in range(length):
            acc += np.exp(-2j * np.pi * n * j / length) * x[n]
        out[j] = acc
    return out


def brute_force_idft(x):
    x = np.asarray(x, dtype=np.complex128)
    length = len(x)
    out = np.zeros(length, dtype=np.complex128)
    for k in range(length):
        acc = 0.0 + 0.0j
        for n in range(length):
            acc += np.exp(2j * np.pi * k * n / length) * x[n]
        out[k] = acc / length
    return out


class TestDft:
    def test_impulse_becomes_constant(self):
        np.testing.assert_allclose(dft([1.0, 0.0, 0.0, 0.0]), np.ones(4), atol=1e-15)

    def test_constant_becomes_scaled_impulse(self):
        np.testing.assert_allclose(dft([1.0, 1.0, 1.0, 1.0]),
                                   [4.0, 0.0, 0.0, 0.0], atol=1e-13)

    def test_length_97_against_direct_summation(self):
        rng = np.random.default_rng(97)
        x = rng.normal(size=97) + 1j * rng.normal(size=97)
        expect = brute_force_dft(x)
        err = np.max(np.abs(dft(x) - expect)) / np.max(np.abs(expect))
        assert err < 1e-8

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            dft(np.zeros(0))
        with pytest.raises(ValueError):
            idft(np.zeros(0))


class TestIdft:
    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=40) + 1j * rng.normal(size=40)
        np.testing.assert_allclose(idft(dft(x)), x, atol=1e-10)

    def test_inverse_of_constant_case(self):
        np.testing.assert_allclose(idft([4.0, 0.0, 0.0, 0.0]), np.ones(4),
                                   atol=1e-13)

    def test_length_60_against_direct_summation(self):
        rng = np.random.default_rng(60)
        x = rng.normal(size=60) + 1j * rng.normal(size=60)
        expect = brute_force_idft(x)
        err = np.max(np.abs(idft(x) - expect)) / np.max(np.abs(expect))
        assert err < 1e-8


class TestInvariants:
    LENGTHS = list(range(1, 65)) + [97, 100, 500, 1000, 4096]

    def test_inversion_identity_across_lengths(self):
        rng = np.random.default_rng(7)
        for length in self.LENGTHS:
            x = rng.normal(size=length) + 1j * rng.normal(size=length)
            np.testing.assert_allclose(idft(dft(x)), x, atol=1e-10,
                                       err_msg=f"L={length}")

    def test_parseval_real_and_complex(self):
        rng = np.random.default_rng(8)
        for length in (9, 32, 97, 250):
            for make in (lambda n: rng.normal(size=n),
                         lambda n: rng.normal(size=n) + 1j * rng.normal(size=n)):
                x = make(length)
                spec = dft(x)
                lhs = np.sum(np.abs(x) ** 2)
                rhs = np.sum(np.abs(spec) ** 2) / length
                assert abs(lhs - rhs) / lhs < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        a, b = 2.3, -0.7
        np.testing.assert_allclose(dft(a * x + b * y), a * dft(x) + b * dft(y),
                                   atol=1e-10)

    def test_conjugate_symmetry_for_real_input(self):
        rng = np.random.default_rng(10)
        for length in (16, 33, 97):
            spec = dft(rng.normal(size=length))
            mirrored = np.conj(spec[(-np.arange(length)) % length])
            scale = np.abs(spec).max()
            assert np.max(np.abs(spec - mirrored)) / scale < 1e-9


# Relative error bounds per precision, ten ulps times log2(300): pocketfft's
# error grows with log2(L), and the worst of 6000 random cases measured
# about one ulp.
TOLERANCE = {np.float32: 1e-5, np.float64: 2e-14}
COMPLEX = {np.float32: np.complex64, np.float64: np.complex128}


@st.composite
def signals(draw):
    """(x, precision): a real or complex signal of length 1 to 300."""
    length = draw(st.integers(1, 300))
    precision = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=length).astype(precision)
    if draw(st.booleans()):
        x = (x + 1j * rng.normal(size=length)).astype(COMPLEX[precision])
    return x, precision


class TestProperties:
    @settings(deadline=None)
    @given(case=signals())
    def test_roundtrip(self, case):
        x, precision = case
        back = idft(dft(x))
        assert back.dtype == COMPLEX[precision]
        assert np.max(np.abs(back - x)) <= TOLERANCE[precision] * np.max(np.abs(x))

    @settings(deadline=None)
    @given(case=signals())
    def test_parseval(self, case):
        x, precision = case
        lhs = np.sum(np.abs(x.astype(np.complex128)) ** 2)
        rhs = np.sum(np.abs(dft(x).astype(np.complex128)) ** 2) / x.size
        assert abs(lhs - rhs) <= TOLERANCE[precision] * lhs


class TestDifferentiable:
    def test_transform_gradients_are_exact_linear_maps(self):
        rng = np.random.default_rng(13)
        for length, op in ((12, dft_t), (12, idft_t), (9, dft_t), (9, idft_t)):
            re = Tensor(rng.normal(size=length), requires_grad=True)
            im = Tensor(rng.normal(size=length), requires_grad=True)
            wr = rng.normal(size=length)
            wi = rng.normal(size=length)

            def loss():
                z = op(as_complex(re, im))
                return add((real_part(z) * Tensor(wr)).sum(),
                           (imag_part(z) * Tensor(wi)).sum())

            rep = grad_check(loss, {"re": re, "im": im}, tolerance=1e-6)
            assert rep.passed, f"L={length} {op.__name__}: {rep}"

    def test_real_input_transform_gradient(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(2, 3, 10)), requires_grad=True)
        w = rng.normal(size=(2, 3, 10))

        def loss():
            z = dft_t(x)
            back = real_part(idft_t(z))
            return (back * Tensor(w)).sum()

        rep = grad_check(loss, {"x": x}, tolerance=1e-6)
        assert rep.passed
