"""Unit tests for the channel substrate (AWGN, impairments, medium)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel import (
    IDEAL_FRONT_END,
    Impairments,
    Medium,
    MediumSource,
    add_awgn,
    complex_awgn,
    noise_power_for_snr,
)
from repro.utils import signal_power

FS = 20e6


class TestComplexAwgn:
    def test_power_calibration(self):
        noise = complex_awgn(100_000, 3.7, rng=0)
        assert signal_power(noise) == pytest.approx(3.7, rel=0.03)

    def test_circular_symmetry(self):
        noise = complex_awgn(100_000, 1.0, rng=1)
        assert np.var(noise.real) == pytest.approx(np.var(noise.imag), rel=0.05)
        assert abs(np.mean(noise)) < 0.02

    def test_zero_power(self):
        noise = complex_awgn(100, 0.0, rng=2)
        np.testing.assert_array_equal(noise, 0)

    def test_zero_samples(self):
        assert complex_awgn(0, 1.0).size == 0

    def test_negative_samples_raises(self):
        with pytest.raises(ValueError):
            complex_awgn(-1, 1.0)

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            complex_awgn(10, -1.0)

    def test_deterministic_with_seed(self):
        np.testing.assert_array_equal(complex_awgn(50, 1.0, rng=7), complex_awgn(50, 1.0, rng=7))


    @pytest.mark.parametrize("n", [0, 1, 7, 480_000])
    @pytest.mark.parametrize("seed", [0, 5, 123])
    @pytest.mark.parametrize("power", [0.0, 0.37, 1.0, 12.5])
    def test_one_draw_equals_two_draw_formula(self, n, seed, power):
        gen = np.random.default_rng(seed)
        two_draw = np.sqrt(power / 2.0) * (gen.normal(size=n) + 1j * gen.normal(size=n))
        noise = complex_awgn(n, power, rng=seed)
        assert noise.dtype == two_draw.dtype and noise.shape == two_draw.shape
        np.testing.assert_array_equal(noise.view(np.uint64), two_draw.view(np.uint64))


class TestAddAwgn:
    def test_snr_calibration(self):
        n = np.arange(100_000)
        signal = np.exp(2j * np.pi * 0.01 * n)
        noisy = add_awgn(signal, 10.0, rng=3)
        noise = noisy - signal
        snr = signal_power(signal) / signal_power(noise)
        assert 10 * np.log10(snr) == pytest.approx(10.0, abs=0.2)

    def test_reference_power_override(self):
        signal = np.ones(50_000, dtype=complex) * 0.1  # power 0.01
        noisy = add_awgn(signal, 0.0, rng=4, reference_power=1.0)
        noise_p = signal_power(noisy - signal)
        assert noise_p == pytest.approx(1.0, rel=0.05)

    def test_empty_signal(self):
        assert add_awgn(np.array([], dtype=complex), 10.0).size == 0

    def test_silent_signal_raises(self):
        with pytest.raises(ValueError):
            add_awgn(np.zeros(10, dtype=complex), 10.0)

    def test_noise_power_for_snr(self):
        x = np.ones(100, dtype=complex) * 2.0  # power 4
        assert noise_power_for_snr(x, 10.0) == pytest.approx(0.4)

    @given(st.floats(min_value=-20, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_snr_property(self, snr_db):
        rng = np.random.default_rng(5)
        signal = rng.normal(size=40_000) + 1j * rng.normal(size=40_000)
        noisy = add_awgn(signal, snr_db, rng=6)
        measured = 10 * np.log10(signal_power(signal) / signal_power(noisy - signal))
        assert measured == pytest.approx(snr_db, abs=0.5)


class TestImpairments:
    def test_ideal_is_noop(self):
        x = np.exp(2j * np.pi * 0.01 * np.arange(256))
        out = IDEAL_FRONT_END.apply(x, FS)
        np.testing.assert_array_equal(out, x)
        assert IDEAL_FRONT_END.is_ideal

    def test_cfo_shifts_spectrum(self):
        x = np.ones(8192, dtype=complex)
        imp = Impairments(cfo_hz=1e6)
        out = imp.apply(x, FS)
        spec = np.fft.fftshift(np.abs(np.fft.fft(out)))
        freqs = np.fft.fftshift(np.fft.fftfreq(8192, 1 / FS))
        assert freqs[np.argmax(spec)] == pytest.approx(1e6, abs=2 * FS / 8192)

    def test_phase_rotation(self):
        x = np.ones(16, dtype=complex)
        out = Impairments(phase_rad=np.pi / 2).apply(x, FS)
        np.testing.assert_allclose(out, 1j * x, atol=1e-12)

    def test_timing_offset_delays(self):
        x = np.zeros(128, dtype=complex)
        x[64] = 1.0
        out = Impairments(timing_offset_samples=2.0).apply(x, FS)
        assert np.argmax(np.abs(out)) == 66

    def test_clock_skew_changes_length_slightly(self):
        x = np.ones(100_000, dtype=complex)
        out = Impairments(clock_skew_ppm=100.0).apply(x, FS)
        assert 0 < out.size - x.size < 20 or 0 < x.size - out.size < 20 or out.size == x.size

    def test_power_preserved_under_cfo_phase(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        out = Impairments(cfo_hz=3e3, phase_rad=1.0).apply(x, FS)
        assert signal_power(out) == pytest.approx(signal_power(x), rel=1e-9)

    def test_typical_sdr_in_range(self):
        imp = Impairments.typical_sdr(rng=np.random.default_rng(9))
        assert abs(imp.cfo_hz) <= 5e3
        assert abs(imp.phase_rad) <= np.pi
        assert 0 <= imp.timing_offset_samples <= 1.0
        assert abs(imp.clock_skew_ppm) <= 2.5
        assert not imp.is_ideal

    def test_empty_signal(self):
        out = Impairments(cfo_hz=1.0).apply(np.array([], dtype=complex), FS)
        assert out.size == 0

    def test_bad_sample_rate_raises(self):
        with pytest.raises(ValueError):
            Impairments(cfo_hz=1.0).apply(np.ones(4, dtype=complex), 0.0)


class TestMedium:
    def unit_signal(self, n=50_000, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        return x / np.sqrt(signal_power(x))

    def test_snr_calibration(self):
        medium = Medium(FS)
        s = self.unit_signal()
        block = medium.combine(s, snr_db=7.0, rng=1)
        noise = block.samples - s
        assert 10 * np.log10(1.0 / signal_power(noise)) == pytest.approx(7.0, abs=0.3)
        assert block.snr_db == pytest.approx(7.0, abs=1e-9)

    def test_sjr_calibration(self):
        medium = Medium(FS)
        s = self.unit_signal(seed=2)
        j = self.unit_signal(seed=3)
        block = medium.combine(s, snr_db=100.0, jammer=j, sjr_db=-12.0, rng=4)
        jam_component = block.samples - s - (block.samples - s - j * np.sqrt(10 ** 1.2))
        # verify through the reported powers instead of reconstructing
        assert block.sjr_db == pytest.approx(-12.0, abs=1e-9)
        total_excess = signal_power(block.samples) - 1.0
        assert total_excess == pytest.approx(10 ** 1.2, rel=0.1)

    def test_no_jammer_reports_inf_sjr(self):
        medium = Medium(FS)
        block = medium.combine(self.unit_signal(seed=5), snr_db=10.0, rng=6)
        assert block.sjr_db == float("inf")
        assert block.jammer_power == 0.0

    def test_jammer_delay_zero_pads_head(self):
        medium = Medium(FS)
        s = np.ones(1000, dtype=complex)
        j = np.ones(1000, dtype=complex)
        block = medium.combine(s, snr_db=300.0, jammer=j, sjr_db=0.0, jammer_delay_samples=400, rng=7)
        head = block.samples[:400] - s[:400]
        tail = block.samples[400:] - s[400:]
        assert signal_power(head) < 1e-6
        assert signal_power(tail) == pytest.approx(1.0, rel=0.05)

    def test_negative_delay_raises(self):
        medium = Medium(FS)
        with pytest.raises(ValueError, match=r"jammer_delay_samples: must be >= 0, got -1"):
            medium.combine(np.ones(10, dtype=complex), 10.0, jammer=np.ones(10, dtype=complex), jammer_delay_samples=-1)

    def test_negative_delay_raises_even_without_jammer(self):
        # the delay field is validated unconditionally — a bad value must
        # not slip through just because the jammer happens to be None
        medium = Medium(FS)
        with pytest.raises(ValueError, match=r"jammer_delay_samples: must be >= 0, got -7"):
            medium.combine(np.ones(10, dtype=complex), 10.0, jammer_delay_samples=-7)

    def test_non_integer_delay_raises(self):
        medium = Medium(FS)
        with pytest.raises(ValueError, match=r"jammer_delay_samples: expected an integer"):
            medium.combine(
                np.ones(10, dtype=complex), 10.0,
                jammer=np.ones(10, dtype=complex), jammer_delay_samples=2.5,
            )
        with pytest.raises(ValueError, match=r"jammer_delay_samples: expected an integer"):
            medium.combine(
                np.ones(10, dtype=complex), 10.0,
                jammer=np.ones(10, dtype=complex), jammer_delay_samples=True,
            )

    def test_short_jammer_padded(self):
        medium = Medium(FS)
        s = np.ones(1000, dtype=complex)
        j = np.ones(100, dtype=complex)
        block = medium.combine(s, snr_db=300.0, jammer=j, sjr_db=0.0, rng=8)
        assert signal_power(block.samples[500:] - s[500:]) < 1e-6

    def test_long_jammer_truncated(self):
        medium = Medium(FS)
        s = np.ones(100, dtype=complex)
        j = np.ones(1000, dtype=complex)
        block = medium.combine(s, snr_db=300.0, jammer=j, sjr_db=0.0, rng=9)
        assert block.samples.size == 100

    def test_empty_signal_raises(self):
        with pytest.raises(ValueError):
            Medium(FS).combine(np.array([], dtype=complex), 10.0)

    def test_zero_power_signal_raises(self):
        with pytest.raises(ValueError):
            Medium(FS).combine(np.zeros(10, dtype=complex), 10.0)

    def test_deterministic_with_seed(self):
        medium = Medium(FS)
        s = self.unit_signal(seed=10)
        a = medium.combine(s, snr_db=5.0, rng=11).samples
        b = medium.combine(s, snr_db=5.0, rng=11).samples
        np.testing.assert_array_equal(a, b)


class TestMediumSuperpose:
    """The N-source generalization behind network-scale runs."""

    def unit_signal(self, n=50_000, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        return x / np.sqrt(signal_power(x))

    def test_combine_is_superpose_with_one_jammer_source(self):
        # the equivalence wall: the classic entry point and the N-source
        # form must agree bit-for-bit, including the drawn noise
        medium = Medium(FS)
        s = self.unit_signal(seed=20)
        j = self.unit_signal(seed=21)
        for sjr_db, delay in [(-12.0, 0), (0.0, 137), (8.5, 400)]:
            a = medium.combine(s, snr_db=9.0, jammer=j, sjr_db=sjr_db, jammer_delay_samples=delay, rng=22)
            b = medium.superpose(
                s, snr_db=9.0,
                sources=(MediumSource(samples=j, power_db=-sjr_db, delay_samples=delay, kind="jammer"),),
                rng=22,
            )
            np.testing.assert_array_equal(a.samples, b.samples)
            assert a.jammer_power == b.jammer_power
            assert a.noise_power == b.noise_power

    def test_zero_sources_is_unjammed_combine(self):
        medium = Medium(FS)
        s = self.unit_signal(seed=23)
        a = medium.combine(s, snr_db=6.0, rng=24)
        b = medium.superpose(s, snr_db=6.0, rng=24)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert b.interference_power == 0.0
        assert b.sir_db == float("inf")

    def test_interference_power_calibration(self):
        medium = Medium(FS)
        s = self.unit_signal(seed=25)
        other = self.unit_signal(seed=26)
        block = medium.superpose(
            s, snr_db=300.0,
            sources=(MediumSource(samples=other, power_db=-18.0),),
            rng=27,
        )
        # the realized cross-link power lands 18 dB under the signal
        assert block.sir_db == pytest.approx(18.0, abs=1e-9)
        assert signal_power(block.samples - s) == pytest.approx(10 ** -1.8, rel=0.05)
        assert block.jammer_power == 0.0

    def test_multi_source_buckets_and_order(self):
        medium = Medium(FS)
        s = self.unit_signal(seed=28)
        interferer = self.unit_signal(seed=29)
        jammer = self.unit_signal(seed=30)
        block = medium.superpose(
            s, snr_db=300.0,
            sources=(
                MediumSource(samples=interferer, power_db=-20.0, label="links[1]"),
                MediumSource(samples=jammer, power_db=10.0, kind="jammer"),
            ),
            rng=31,
        )
        assert block.interference_power == pytest.approx(10 ** -2.0)
        assert block.jammer_power == pytest.approx(10 ** 1.0)
        assert block.sjr_db == pytest.approx(-10.0, abs=1e-9)
        # sources add linearly: the composite equals the two singles' sum
        one = medium.superpose(
            s, snr_db=300.0,
            sources=(MediumSource(samples=interferer, power_db=-20.0),), rng=31,
        )
        two = medium.superpose(
            s, snr_db=300.0,
            sources=(MediumSource(samples=jammer, power_db=10.0, kind="jammer"),), rng=31,
        )
        np.testing.assert_allclose(block.samples, one.samples + two.samples - s, rtol=0, atol=1e-9)

    def test_source_delay_and_truncation(self):
        medium = Medium(FS)
        s = np.ones(1000, dtype=complex)
        src = MediumSource(samples=np.ones(2000, dtype=complex), power_db=0.0, delay_samples=600)
        block = medium.superpose(s, snr_db=300.0, sources=(src,), rng=32)
        assert block.samples.size == 1000
        assert signal_power(block.samples[:600] - s[:600]) < 1e-12
        assert signal_power(block.samples[600:] - s[600:]) == pytest.approx(1.0, rel=0.05)

    def test_reference_power_override(self):
        medium = Medium(FS)
        s = 2.0 * self.unit_signal(seed=33)  # actual power 4x the reference
        block = medium.superpose(s, snr_db=10.0, rng=34, reference_power=1.0)
        assert block.signal_power == 1.0
        assert block.noise_power == pytest.approx(0.1)

    def test_source_validation_names_the_label(self):
        with pytest.raises(ValueError, match=r"links\[3\]\.delay_samples: must be >= 0"):
            MediumSource(samples=np.ones(4, dtype=complex), power_db=0.0, delay_samples=-2, label="links[3]")
        with pytest.raises(ValueError, match=r"source\.power_db: expected a number"):
            MediumSource(samples=np.ones(4, dtype=complex), power_db="loud")
        with pytest.raises(ValueError, match=r"source\.kind: must be 'interference' or 'jammer'"):
            MediumSource(samples=np.ones(4, dtype=complex), power_db=0.0, kind="friendly")

    def test_non_source_entry_rejected(self):
        with pytest.raises(ValueError, match=r"sources: expected MediumSource"):
            Medium(FS).superpose(np.ones(10, dtype=complex), 10.0, sources=(np.ones(10),), rng=0)
