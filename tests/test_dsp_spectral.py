"""Unit tests for PSD estimation (periodogram / Bartlett / Welch)."""

import numpy as np
import pytest

from repro.dsp import (
    band_power,
    bartlett_psd,
    estimate_spectrum,
    noise_floor,
    occupied_bandwidth,
    periodogram,
    welch_psd,
)
from repro.dsp.mixing import frequency_shift
from repro.dsp.spectral import welch_psd_batch
from repro.dsp.windows import get_window

FS = 20e6


def white_noise(n, power=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return np.sqrt(power / 2) * (rng.normal(size=n) + 1j * rng.normal(size=n))


class TestPeriodogram:
    def test_parseval_white_noise(self):
        x = white_noise(4096, power=2.0)
        freqs, psd = periodogram(x, FS)
        df = freqs[1] - freqs[0]
        assert np.sum(psd) * df == pytest.approx(2.0, rel=0.05)

    def test_tone_peak_location(self):
        n = np.arange(4096)
        x = np.exp(2j * np.pi * 3e6 / FS * n)
        freqs, psd = periodogram(x, FS)
        assert freqs[np.argmax(psd)] == pytest.approx(3e6, abs=FS / 4096 * 1.5)

    def test_negative_frequency_tone(self):
        n = np.arange(4096)
        x = np.exp(-2j * np.pi * 5e6 / FS * n)
        freqs, psd = periodogram(x, FS)
        assert freqs[np.argmax(psd)] == pytest.approx(-5e6, abs=FS / 4096 * 1.5)

    def test_frequency_axis_two_sided(self):
        freqs, _ = periodogram(white_noise(256), FS)
        assert freqs[0] == pytest.approx(-FS / 2)
        assert freqs[-1] < FS / 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            periodogram(np.array([], dtype=complex), FS)

    def test_nfft_shorter_than_signal_raises(self):
        with pytest.raises(ValueError):
            periodogram(white_noise(256), FS, nfft=128)

    def test_window_power_compensation(self):
        x = white_noise(8192, power=3.0)
        _, psd_rect = periodogram(x, FS, window="rectangular")
        _, psd_hann = periodogram(x, FS, window="hann")
        assert np.mean(psd_hann) == pytest.approx(np.mean(psd_rect), rel=0.1)


class TestWelchAndBartlett:
    def test_welch_flat_for_white_noise(self):
        x = white_noise(65536, power=1.0)
        freqs, psd = welch_psd(x, FS, nperseg=256)
        expected = 1.0 / FS
        assert np.median(psd) == pytest.approx(expected, rel=0.1)
        assert np.std(psd) / np.mean(psd) < 0.2  # averaging reduced variance

    def test_welch_lower_variance_than_periodogram(self):
        x = white_noise(16384)
        _, p1 = periodogram(x, FS)
        _, p2 = welch_psd(x, FS, nperseg=256)
        assert np.std(p2) / np.mean(p2) < np.std(p1) / np.mean(p1)

    def test_bartlett_parseval(self):
        x = white_noise(32768, power=4.0)
        freqs, psd = bartlett_psd(x, FS, nperseg=512)
        df = freqs[1] - freqs[0]
        assert np.sum(psd) * df == pytest.approx(4.0, rel=0.1)

    def test_welch_tone_plus_noise(self):
        n = np.arange(32768)
        x = white_noise(32768, power=0.01) + np.exp(2j * np.pi * 4e6 / FS * n)
        freqs, psd = welch_psd(x, FS, nperseg=512)
        assert freqs[np.argmax(psd)] == pytest.approx(4e6, abs=2 * FS / 512)

    def test_short_signal_degrades_gracefully(self):
        x = white_noise(100)
        freqs, psd = welch_psd(x, FS, nperseg=256)
        assert psd.size == freqs.size

    def test_short_signal_shrinks_to_single_full_segment(self):
        # Degraded nperseg = x.size, so exactly one segment contributes
        # and the estimate equals the single-segment Hann periodogram.
        x = white_noise(100)
        freqs_w, psd_w = welch_psd(x, FS, nperseg=256)
        freqs_p, psd_p = periodogram(x, FS, window="hann")
        assert psd_w.size == x.size  # nfft defaults to the *shrunk* nperseg
        np.testing.assert_allclose(freqs_w, freqs_p)
        np.testing.assert_allclose(psd_w, psd_p, rtol=1e-12)

    def test_short_signal_parseval_preserved(self):
        # Rectangular window (Bartlett) keeps Parseval exact even on the
        # degraded single-short-segment path; Hann only in expectation.
        x = white_noise(75, power=2.0, seed=3)
        freqs, psd = bartlett_psd(x, FS, nperseg=512)
        df = freqs[1] - freqs[0]
        assert float(np.sum(psd) * df) == pytest.approx(
            float(np.mean(np.abs(x) ** 2)), rel=1e-9
        )

    def test_short_signal_float_noverlap_accepted(self):
        # The shrink path rescales noverlap *before* truncation, so a
        # float noverlap (e.g. 0.5 * nperseg computed upstream) must
        # still satisfy 0 <= noverlap < nperseg afterwards.
        x = white_noise(90)
        freqs, psd = welch_psd(x, FS, nperseg=256, noverlap=128.0)
        assert psd.size == freqs.size == 90
        # and an all-but-total float overlap shrinks below the new nperseg
        freqs2, psd2 = welch_psd(x, FS, nperseg=256, noverlap=255.0)
        assert psd2.size == 90

    def test_short_signal_explicit_nfft_respected_after_shrink(self):
        x = white_noise(60)
        freqs, psd = welch_psd(x, FS, nperseg=256, nfft=128)
        assert psd.size == freqs.size == 128

    def test_bartlett_short_signal_degrades_like_welch(self):
        x = white_noise(50, seed=5)
        freqs, psd = bartlett_psd(x, FS, nperseg=4096)
        assert psd.size == 50
        freqs_p, psd_p = periodogram(x, FS, window="rectangular")
        np.testing.assert_allclose(psd, psd_p, rtol=1e-12)

    def test_bad_noverlap_raises(self):
        with pytest.raises(ValueError):
            welch_psd(white_noise(1024), FS, nperseg=256, noverlap=256)

    def test_bad_nperseg_raises(self):
        with pytest.raises(ValueError):
            welch_psd(white_noise(1024), FS, nperseg=1)


def segment_loop_psd(x, fs, nperseg, noverlap, window, nfft=None):
    """The per-segment Welch/Bartlett loop, one FFT per segment."""
    x = np.asarray(x, dtype=complex)
    if x.size < nperseg:
        noverlap = int(noverlap * x.size / nperseg)
        nperseg = x.size
    step = nperseg - int(noverlap)
    nfft = nperseg if nfft is None else nfft
    w = get_window(window, nperseg, periodic=True)
    scale = fs * np.sum(w**2)
    acc = np.zeros(nfft)
    count = 0
    for start in range(0, x.size - nperseg + 1, step):
        acc += np.abs(np.fft.fft(x[start : start + nperseg] * w, nfft)) ** 2
        count += 1
    freqs = np.fft.fftfreq(nfft, d=1.0 / fs)
    return np.fft.fftshift(freqs), np.fft.fftshift(acc / (count * scale))


class TestSegmentAverageEqualsLoop:
    """welch_psd/bartlett_psd (one-row batch calls) equal the per-segment loop."""

    @pytest.mark.parametrize("n", [5000, 257, 100])
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("nfft", [None, 512])
    def test_welch(self, n, real, nfft):
        x = white_noise(n, seed=n)
        x = x.real if real else x
        got = welch_psd(x, FS, nperseg=256, nfft=nfft)
        ref = segment_loop_psd(x, FS, 256, 128, "hann", nfft)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize("n", [5000, 100])
    @pytest.mark.parametrize("real", [False, True])
    def test_bartlett(self, n, real):
        x = white_noise(n, seed=n + 1)
        x = x.real if real else x
        got = bartlett_psd(x, FS, nperseg=512)
        ref = segment_loop_psd(x, FS, 512, 0, "rectangular")
        np.testing.assert_array_equal(got[1], ref[1])

    def test_welch_custom_overlap_and_window(self):
        x = white_noise(3001, seed=9)
        got = welch_psd(x, FS, nperseg=200, noverlap=150, window="hamming")
        ref = segment_loop_psd(x, FS, 200, 150, "hamming")
        np.testing.assert_array_equal(got[1], ref[1])

    def test_too_short_keeps_serial_wording(self):
        with pytest.raises(ValueError, match="PSD needs at least 2 samples, got 1"):
            welch_psd(np.ones(1, dtype=complex), FS)



class TestWelchBatchEdgeShapes:
    """welch_psd_batch's segment reduction at its edge shapes equals the loop."""

    @pytest.mark.parametrize(
        ("rows", "n", "nperseg", "noverlap", "nfft"),
        [
            (3, 256, 256, 128, None),  # one segment
            (2, 64, 2, 1, None),  # nfft 2
            (5, 257, 2, 0, None),  # nfft 2, odd tail
            (1, 40000, 8, 4, None),  # one row, ~10k segments
            (64, 2048, 16, 8, 33),  # tall stack, odd zero-padded nfft
        ],
    )
    def test_rows_equal_segment_loop(self, rows, n, nperseg, noverlap, nfft):
        rng = np.random.default_rng(n + rows)
        x = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        freqs, psd = welch_psd_batch(x, FS, nperseg=nperseg, noverlap=noverlap, nfft=nfft)
        for i in range(rows):
            ref = segment_loop_psd(x[i], FS, nperseg, noverlap, "hann", nfft)
            np.testing.assert_array_equal(freqs, ref[0])
            np.testing.assert_array_equal(psd[i], ref[1])


class TestEstimateSpectrum:
    def test_total_power_matches(self):
        x = white_noise(65536, power=2.5)
        est = estimate_spectrum(x, FS)
        assert est.total_power == pytest.approx(2.5, rel=0.1)

    def test_floor_matches_noise_density(self):
        x = white_noise(65536, power=1.0)
        est = estimate_spectrum(x, FS)
        assert est.floor == pytest.approx(1.0 / FS, rel=0.15)

    def test_power_in_band(self):
        # Narrowband signal centred at +2 MHz: all power in [1,3] MHz.
        x = frequency_shift(white_noise(65536), 2e6, FS)
        from repro.dsp import apply_fir, lowpass_taps

        base = apply_fir(white_noise(65536), lowpass_taps(201, 0.4e6, FS))
        x = frequency_shift(base, 2e6, FS)
        est = estimate_spectrum(x, FS)
        in_band = est.power_in_band(1e6, 3e6)
        assert in_band == pytest.approx(est.total_power, rel=0.05)

    def test_methods_agree_on_total(self):
        x = white_noise(16384, power=1.0)
        welch = estimate_spectrum(x, FS, method="welch").total_power
        bart = estimate_spectrum(x, FS, method="bartlett").total_power
        peri = estimate_spectrum(x, FS, method="periodogram").total_power
        assert welch == pytest.approx(bart, rel=0.1)
        assert welch == pytest.approx(peri, rel=0.1)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            estimate_spectrum(white_noise(512), FS, method="music")

    def test_bin_width(self):
        est = estimate_spectrum(white_noise(4096), FS, nperseg=256)
        assert est.bin_width == pytest.approx(FS / 256)


class TestOccupiedBandwidth:
    def test_tone_is_narrow(self):
        n = np.arange(65536)
        x = np.exp(2j * np.pi * 1e6 / FS * n) + white_noise(65536, power=1e-6)
        freqs, psd = welch_psd(x, FS, nperseg=1024)
        assert occupied_bandwidth(freqs, psd) < 0.05 * FS

    def test_white_noise_fills_band(self):
        x = white_noise(65536)
        freqs, psd = welch_psd(x, FS, nperseg=256)
        assert occupied_bandwidth(freqs, psd, fraction=0.99) > 0.9 * FS

    def test_bandlimited_noise_measures_bandwidth(self):
        from repro.dsp import apply_fir, lowpass_taps

        x = apply_fir(white_noise(262144), lowpass_taps(401, 2.5e6, FS))
        freqs, psd = welch_psd(x, FS, nperseg=512)
        bw = occupied_bandwidth(freqs, psd, fraction=0.98)
        assert 4e6 < bw < 6.5e6  # two-sided ~5 MHz

    def test_zero_psd_gives_zero(self):
        freqs = np.linspace(-1, 1, 64)
        assert occupied_bandwidth(freqs, np.zeros(64)) == 0.0

    def test_bad_fraction_raises(self):
        freqs = np.linspace(-1, 1, 64)
        with pytest.raises(ValueError):
            occupied_bandwidth(freqs, np.ones(64), fraction=1.5)

    def test_comb_jammer_counts_all_teeth(self):
        # Two tones far apart: occupied bandwidth counts both, not the gap.
        n = np.arange(65536)
        x = np.exp(2j * np.pi * 5e6 / FS * n) + np.exp(-2j * np.pi * 5e6 / FS * n)
        freqs, psd = welch_psd(x, FS, nperseg=1024)
        bw = occupied_bandwidth(freqs, psd, fraction=0.9)
        assert bw < 0.1 * FS  # far less than the 10 MHz spanned gap


class TestHelpers:
    def test_band_power_full_band_is_total(self):
        x = white_noise(16384, power=2.0)
        freqs, psd = welch_psd(x, FS, nperseg=256)
        assert band_power(freqs, psd, -FS / 2, FS / 2) == pytest.approx(2.0, rel=0.1)

    def test_band_power_bad_range_raises(self):
        freqs = np.linspace(-1, 1, 16)
        with pytest.raises(ValueError):
            band_power(freqs, np.ones(16), 0.5, -0.5)

    def test_noise_floor_median(self):
        psd = np.ones(100)
        psd[:10] = 1000.0  # strong narrow jammer does not move the floor
        assert noise_floor(psd) == pytest.approx(1.0)

    def test_noise_floor_empty_raises(self):
        with pytest.raises(ValueError):
            noise_floor(np.array([]))
