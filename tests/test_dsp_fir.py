"""Unit tests for FIR design and fast-convolution application."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import (
    apply_fir,
    bandpass_taps,
    bandstop_taps,
    estimate_num_taps,
    fft_convolve,
    frequency_response,
    group_delay_samples,
    highpass_taps,
    lowpass_taps,
)
from repro.utils import signal_power

FS = 20e6


def response_at(taps, freq, fs=FS, n=8192):
    freqs, resp = frequency_response(taps, n, fs)
    idx = np.argmin(np.abs(freqs - freq))
    return np.abs(resp[idx])


class TestLowpassDesign:
    def test_dc_gain_unity(self):
        taps = lowpass_taps(101, 2e6, FS)
        assert abs(taps.sum()) == pytest.approx(1.0)

    def test_passband_flat(self):
        taps = lowpass_taps(201, 2e6, FS)
        for f in [0.0, 0.5e6, 1.0e6, 1.5e6]:
            assert response_at(taps, f) == pytest.approx(1.0, abs=0.01)

    def test_stopband_attenuated(self):
        taps = lowpass_taps(201, 2e6, FS)
        for f in [4e6, 6e6, 9e6]:
            assert response_at(taps, f) < 0.01

    def test_cutoff_is_half_amplitude(self):
        # Windowed-sinc designs cross ~0.5 amplitude (-6 dB) at cutoff.
        taps = lowpass_taps(301, 3e6, FS)
        assert response_at(taps, 3e6) == pytest.approx(0.5, abs=0.05)

    def test_symmetric_linear_phase(self):
        taps = lowpass_taps(101, 2e6, FS)
        np.testing.assert_allclose(taps, taps[::-1], atol=1e-15)

    def test_negative_frequencies_match_positive(self):
        taps = lowpass_taps(101, 2e6, FS)
        assert response_at(taps, -1e6) == pytest.approx(response_at(taps, 1e6), rel=1e-6)

    def test_cutoff_above_nyquist_raises(self):
        with pytest.raises(ValueError):
            lowpass_taps(101, 11e6, FS)

    def test_too_few_taps_raises(self):
        with pytest.raises(ValueError):
            lowpass_taps(2, 1e6, FS)

    def test_bad_sample_rate_raises(self):
        with pytest.raises(ValueError):
            lowpass_taps(11, 1e6, -1.0)


class TestOtherDesigns:
    def test_highpass_blocks_dc(self):
        taps = highpass_taps(201, 2e6, FS)
        assert response_at(taps, 0.0) < 0.01

    def test_highpass_passes_high(self):
        taps = highpass_taps(201, 2e6, FS)
        assert response_at(taps, 8e6) == pytest.approx(1.0, abs=0.02)

    def test_highpass_even_taps_raises(self):
        with pytest.raises(ValueError):
            highpass_taps(200, 2e6, FS)

    def test_bandpass_passes_centre(self):
        taps = bandpass_taps(301, 3e6, 5e6, FS)
        assert response_at(taps, 4e6) == pytest.approx(1.0, abs=0.05)

    def test_bandpass_blocks_outside(self):
        taps = bandpass_taps(301, 3e6, 5e6, FS)
        assert response_at(taps, 0.5e6) < 0.02
        assert response_at(taps, 8e6) < 0.02

    def test_bandpass_bad_edges_raise(self):
        with pytest.raises(ValueError):
            bandpass_taps(101, 5e6, 3e6, FS)

    def test_bandstop_notches_centre(self):
        taps = bandstop_taps(301, 3e6, 5e6, FS)
        assert response_at(taps, 4e6) < 0.05

    def test_bandstop_passes_dc(self):
        taps = bandstop_taps(301, 3e6, 5e6, FS)
        assert response_at(taps, 0.0) == pytest.approx(1.0, abs=0.05)


class TestEstimateNumTaps:
    def test_is_odd(self):
        assert estimate_num_taps(100e3, FS, 70.0) % 2 == 1

    def test_narrower_transition_needs_more_taps(self):
        wide = estimate_num_taps(1e6, FS, 70.0)
        narrow = estimate_num_taps(10e3, FS, 70.0)
        assert narrow > wide

    def test_paper_scale_filter_order(self):
        # Paper: order 3181 for 10 kHz transition, 70 dB, 20 MS/s.
        n = estimate_num_taps(10e3, FS, 70.0)
        assert 2000 < n < 10000

    def test_rejects_zero_transition(self):
        with pytest.raises(ValueError):
            estimate_num_taps(0.0, FS)


class TestFftConvolve:
    def test_matches_numpy_real(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=257)
        h = rng.normal(size=31)
        np.testing.assert_allclose(fft_convolve(x, h), np.convolve(x, h), atol=1e-9)

    def test_matches_numpy_complex(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        h = rng.normal(size=9) + 1j * rng.normal(size=9)
        np.testing.assert_allclose(fft_convolve(x, h), np.convolve(x, h), atol=1e-9)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_output_length_property(self, nx, nh):
        x = np.ones(nx)
        h = np.ones(nh)
        assert fft_convolve(x, h).size == nx + nh - 1


class TestApplyFir:
    def test_full_mode_matches_numpy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
        h = rng.normal(size=101)
        np.testing.assert_allclose(apply_fir(x, h, mode="full"), np.convolve(x, h), atol=1e-8)

    def test_full_mode_small_block(self):
        # Force many overlap-save blocks to exercise block stitching.
        rng = np.random.default_rng(3)
        x = rng.normal(size=1000)
        h = rng.normal(size=33)
        out = apply_fir(x, h, mode="full", block_size=64)
        np.testing.assert_allclose(out, np.convolve(x, h), atol=1e-9)

    def test_compensated_aligns_peak(self):
        # An impulse through a symmetric filter must stay at its position.
        h = lowpass_taps(101, 2e6, FS)
        x = np.zeros(500, dtype=complex)
        x[250] = 1.0
        y = apply_fir(x, h, mode="compensated")
        assert y.size == x.size
        assert np.argmax(np.abs(y)) == 250

    def test_compensated_passband_signal_preserved(self):
        n = np.arange(4096)
        tone = np.exp(2j * np.pi * 0.5e6 / FS * n)
        h = lowpass_taps(201, 2e6, FS)
        y = apply_fir(tone, h, mode="compensated")
        # interior samples (away from edge transients) nearly unchanged
        core = slice(300, -300)
        assert signal_power(y[core] - tone[core]) < 1e-3

    def test_compensated_stopband_removed(self):
        n = np.arange(4096)
        tone = np.exp(2j * np.pi * 6e6 / FS * n)
        h = lowpass_taps(201, 2e6, FS)
        y = apply_fir(tone, h, mode="compensated")
        assert signal_power(y[300:-300]) < 1e-4

    def test_same_mode_length(self):
        x = np.ones(777)
        h = np.ones(10) / 10
        assert apply_fir(x, h, mode="same").size == 777

    def test_empty_signal(self):
        out = apply_fir(np.array([], dtype=complex), np.ones(5))
        assert out.size == 0

    def test_empty_taps_raises(self):
        with pytest.raises(ValueError):
            apply_fir(np.ones(10), np.array([]))

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            apply_fir(np.ones(10), np.ones(3), mode="valid")

    def test_real_in_real_filter_real_out(self):
        out = apply_fir(np.ones(100), np.ones(5) / 5)
        assert not np.iscomplexobj(out)

    @given(st.integers(min_value=3, max_value=41).filter(lambda n: n % 2 == 1))
    @settings(max_examples=20, deadline=None)
    def test_identity_filter_property(self, k):
        # A centred delta filter must return the signal unchanged.
        delta = np.zeros(k)
        delta[(k - 1) // 2] = 1.0
        x = np.sin(np.arange(300) * 0.1)
        np.testing.assert_allclose(apply_fir(x, delta, mode="compensated"), x, atol=1e-9)


def overlap_save_loop(x, h, mode, block_size=None):
    """The per-block overlap-save loop, one 1-D FFT pair per block."""
    x = np.asarray(x)
    k = h.size
    if block_size is None:
        block_size = min(max(8 * k, 4096), x.size + k - 1)
        block_size = 1 << (block_size - 1).bit_length()
    nfft = max(1 << (k - 1).bit_length(), block_size)
    step = nfft - (k - 1)
    if step <= 0:
        nfft = 1 << (2 * k - 1).bit_length()
        step = nfft - (k - 1)
    hf = np.fft.fft(h, nfft)
    n_out = x.size + k - 1
    complex_out = np.iscomplexobj(x) or np.iscomplexobj(h)
    out = np.empty(n_out, dtype=complex if complex_out else float)
    padded = np.concatenate([np.zeros(k - 1, x.dtype), x, np.zeros(step, x.dtype)])
    pos = 0
    while pos < n_out:
        block = padded[pos : pos + nfft]
        if block.size < nfft:
            block = np.concatenate([block, np.zeros(nfft - block.size, x.dtype)])
        y = np.fft.ifft(np.fft.fft(block) * hf)
        take = min(step, n_out - pos)
        chunk = y[k - 1 : k - 1 + take]
        out[pos : pos + take] = chunk if complex_out else chunk.real
        pos += take
    if mode == "full":
        return out
    delay = (k - 1) // 2
    return out[delay : delay + x.size]


class TestApplyFirEqualsBlockLoop:
    """apply_fir (a one-row apply_fir_batch call) equals the per-block loop."""

    @pytest.mark.parametrize("mode", ["compensated", "same", "full"])
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("n, k, block_size", [
        (10_000, 101, None),
        (20_000, 257, None),
        (300, 33, None),
        (1000, 33, 64),
        (1000, 40, 32),
    ])
    def test_matches_loop(self, mode, real, n, k, block_size):
        rng = np.random.default_rng(n + k)
        x = rng.normal(size=n) if real else rng.normal(size=n) + 1j * rng.normal(size=n)
        h = rng.normal(size=k)
        got = apply_fir(x, h, mode=mode, block_size=block_size)
        ref = overlap_save_loop(x, h, mode, block_size)
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)

    def test_complex_taps_on_real_signal(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=5000)
        h = rng.normal(size=51) + 1j * rng.normal(size=51)
        np.testing.assert_array_equal(apply_fir(x, h), overlap_save_loop(x, h, "compensated"))


class TestGroupDelay:
    def test_group_delay(self):
        assert group_delay_samples(np.ones(101)) == 50.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            group_delay_samples(np.array([]))
