"""The adversary zoo: adaptive jammers, spec audits, and the arena.

Three walls in one file:

* **Spec round-trips** — every registered jammer type survives
  ``spec() -> jammer_from_spec -> spec()`` losslessly, audited by
  :func:`verify_spec_roundtrip`; silently dropped constructor fields
  raise *field-named* errors (the regression class behind the
  ``MatchedReactiveJammer.reaction_fraction`` and nested rate-inheritance
  fixes).
* **Driver bit-identity** — each adaptive jammer produces identical
  statistics on the serial, batched, and worker-pool drivers at several
  seeds, extending the batch-equivalence wall to the tournament runner.
* **Semantics** — the zero head of the latent reactive jammer, the
  delayed-copy law of the repeater, tone placement of the multitone
  attacker, and the converge/diverge boundary of the learning follower.

Plus the :class:`~repro.arena.ArenaSpec` validation surface, the
tournament runner (cache, checkpoint, advantage metric), the CLI
``run --tournament`` path, and the frozen golden tournament cells.
"""

import json
import os

import numpy as np
import pytest

from repro.arena import (
    NO_JAMMER,
    TOURNAMENT_COLUMNS,
    ArenaError,
    ArenaSpec,
    TournamentResult,
    evaluate_arena_cell,
    run_tournament,
)
from repro.cli import main
from repro.core import BHSSConfig, LinkSimulator
from repro.core.transmitter import BHSSTransmitter
from repro.hopping.bands import BandwidthSet
from repro.jamming import (
    FollowerJammer,
    Jammer,
    LatentReactiveJammer,
    MatchedReactiveJammer,
    MultiToneJammer,
    RepeaterJammer,
    jammer_from_spec,
    jammer_names,
    verify_spec_roundtrip,
)
from repro.jamming.registry import JAMMER_REGISTRY
from repro.runtime import ParallelExecutor, ResultCache, SweepCheckpoint, stable_hash
from repro.utils.units import signal_power

FS = 20e6

#: deterministic construction specs for the whole registry — the spec
#: round-trip wall sweeps these; extend when registering a new type.
ROUNDTRIP_SPECS = {
    "none": {"type": "none"},
    "noise": {"type": "noise", "bandwidth": 2.5e6, "sample_rate": FS},
    "tone": {"type": "tone", "frequency": 1e6, "sample_rate": FS},
    "sweep": {
        "type": "sweep",
        "f_start": -2e6,
        "f_stop": 2e6,
        "sample_rate": FS,
        "sweep_duration": 1e-3,
    },
    "comb": {"type": "comb", "frequencies": [0.5e6, 2e6], "sample_rate": FS, "seed": 5},
    "hopping": {
        "type": "hopping",
        "bandwidths": [1.25e6, 2.5e6],
        "sample_rate": FS,
        "dwell_samples": 2048,
        "seed": 5,
    },
    "pulsed": {
        "type": "pulsed",
        "inner": {"type": "tone", "frequency": 1.5e6, "sample_rate": FS},
        "duty_cycle": 0.5,
        "period_samples": 4096,
    },
    "reactive": {
        "type": "reactive",
        "sample_rate": FS,
        "reaction_samples": 2048,
        "initial_bandwidth": 2.5e6,
    },
    "latent-reactive": {
        "type": "latent-reactive",
        "sample_rate": FS,
        "bandwidth": 2.5e6,
        "threshold_db": -6.0,
        "sense_window": 64,
        "turnaround_samples": 512,
    },
    "repeater": {"type": "repeater", "delay_samples": 32, "num_taps": 3},
    "multitone": {
        "type": "multitone",
        "sample_rate": FS,
        "placement_bandwidth": 0.15625e6,
        "num_tones": 4,
    },
    "follower": {
        "type": "follower",
        "sample_rate": FS,
        "initial_bandwidth": 2.5e6,
        "learning_rate": 0.5,
        "sense_noise_db": 1.0,
    },
}

ADAPTIVE_TYPES = ("latent-reactive", "repeater", "multitone", "follower")


def small_config(**overrides):
    """A three-band config small enough for many tournaments per test."""
    overrides.setdefault("bandwidth_set", BandwidthSet.paper_default(count=3))
    overrides.setdefault("payload_bytes", 2)
    overrides.setdefault("symbols_per_hop", 2)
    overrides.setdefault("seed", 11)
    return BHSSConfig(**overrides)


def small_arena(jammers, **overrides):
    overrides.setdefault("name", "zoo")
    overrides.setdefault("config", small_config())
    overrides.setdefault("patterns", ("linear",))
    overrides.setdefault("hop_ranges", (1, 3))
    overrides.setdefault("snr_db", 12.0)
    overrides.setdefault("sjr_db", -6.0)
    overrides.setdefault("packets", 3)
    overrides.setdefault("seed", 0)
    return ArenaSpec(jammers=tuple(jammers), **overrides)


def transmit_packet(packet_index=0, config=None):
    """One real victim packet: ``(TransmittedPacket, profile)``."""
    packet = BHSSTransmitter(config or small_config()).transmit(None, packet_index)
    return packet, packet.bandwidth_profile()


# ---------------------------------------------------------------------------
# spec round-trips and the silently-dropped-field audit
# ---------------------------------------------------------------------------

class TestSpecRoundTrips:
    def test_every_registered_type_has_a_roundtrip_spec(self):
        assert sorted(ROUNDTRIP_SPECS) == jammer_names()

    @pytest.mark.parametrize("name", sorted(ROUNDTRIP_SPECS))
    def test_spec_roundtrip_is_lossless(self, name):
        jammer = jammer_from_spec(ROUNDTRIP_SPECS[name])
        audited = verify_spec_roundtrip(jammer)
        assert audited["type"] == name
        rebuilt = jammer_from_spec(audited)
        assert rebuilt.spec() == audited

    @pytest.mark.parametrize("name", ADAPTIVE_TYPES)
    def test_adaptive_spec_lists_every_constructor_field(self, name):
        # The audit in verify_spec_roundtrip only sees dropped fields
        # whose values differ from the default; the zoo's own jammers are
        # held to the stronger bar — every constructor field serialized.
        import inspect

        cls = JAMMER_REGISTRY[name]
        jammer = jammer_from_spec(ROUNDTRIP_SPECS[name])
        params = set(inspect.signature(cls.__init__).parameters) - {"self"}
        assert params <= set(jammer.spec())

    def test_follower_optional_clamp_roundtrips(self):
        jammer = FollowerJammer(
            FS, 10e6, min_bandwidth=0.15625e6, max_bandwidth=10e6
        )
        spec = verify_spec_roundtrip(jammer)
        rebuilt = jammer_from_spec(spec)
        assert rebuilt.min_bandwidth == pytest.approx(0.15625e6)
        assert rebuilt.max_bandwidth == pytest.approx(10e6)

    def test_follower_unclamped_roundtrips_none(self):
        spec = FollowerJammer(FS, 10e6).spec()
        assert spec["min_bandwidth"] is None and spec["max_bandwidth"] is None
        rebuilt = jammer_from_spec(spec)
        assert rebuilt.min_bandwidth is None and rebuilt.max_bandwidth is None

    def test_reactive_fraction_field_is_not_dropped(self):
        # Regression: reaction_fraction is conditional in spec() — the
        # audit must prove it survives when set and defaults when absent.
        jammer = MatchedReactiveJammer(FS, 2048, 10e6, reaction_fraction=0.25)
        spec = verify_spec_roundtrip(jammer)
        assert spec["reaction_fraction"] == pytest.approx(0.25)
        bare = verify_spec_roundtrip(MatchedReactiveJammer(FS, 2048, 10e6))
        assert "reaction_fraction" not in bare

    def test_dropped_field_raises_field_named_error(self):
        class LeakyJammer(LatentReactiveJammer):
            def spec(self):
                out = super().spec()
                out["type"] = "leaky"
                del out["turnaround_samples"]  # the deliberate drop
                return out

        JAMMER_REGISTRY["leaky"] = LeakyJammer
        try:
            jammer = LeakyJammer(FS, 2.5e6, turnaround_samples=999)
            with pytest.raises(ValueError, match="turnaround_samples"):
                verify_spec_roundtrip(jammer)
        finally:
            del JAMMER_REGISTRY["leaky"]

    def test_drifting_field_raises_field_named_error(self):
        class DriftingJammer(MultiToneJammer):
            def spec(self):
                out = super().spec()
                out["type"] = "drifting"
                out["num_tones"] = self.num_tones + 1  # corrupt on the way out
                return out

        JAMMER_REGISTRY["drifting"] = DriftingJammer
        try:
            with pytest.raises(ValueError, match="num_tones"):
                verify_spec_roundtrip(DriftingJammer(FS, 1e6, num_tones=3))
        finally:
            del JAMMER_REGISTRY["drifting"]

    def test_unknown_spec_field_names_the_field(self):
        with pytest.raises(ValueError, match="bogus_knob"):
            jammer_from_spec({"type": "repeater", "bogus_knob": 1})

    def test_unknown_type_lists_registry(self):
        with pytest.raises(ValueError, match="registered types"):
            jammer_from_spec({"type": "quantum"})


class TestRateInheritance:
    """The registry's sample-rate injection, including the nested fix."""

    @pytest.mark.parametrize(
        "name", ["latent-reactive", "multitone", "follower"]
    )
    def test_adaptive_specs_inherit_the_link_rate(self, name):
        spec = {k: v for k, v in ROUNDTRIP_SPECS[name].items() if k != "sample_rate"}
        jammer = jammer_from_spec(spec, sample_rate=FS)
        assert jammer.sample_rate == pytest.approx(FS)

    def test_inner_spec_inherits_rate_one_level(self):
        jammer = jammer_from_spec(
            {
                "type": "pulsed",
                "inner": {"type": "tone", "frequency": 1e6},
                "duty_cycle": 0.5,
                "period_samples": 1024,
            },
            sample_rate=FS,
        )
        assert jammer.inner.sample_rate == pytest.approx(FS)

    def test_nested_inner_specs_inherit_rate(self):
        # Regression: pulsed-in-pulsed previously dropped the injected
        # rate at depth two, because PulsedJammer.from_spec rebuilds its
        # inner jammer without a sample_rate argument.
        jammer = jammer_from_spec(
            {
                "type": "pulsed",
                "inner": {
                    "type": "pulsed",
                    "inner": {"type": "tone", "frequency": 1e6},
                    "duty_cycle": 0.5,
                    "period_samples": 512,
                },
                "duty_cycle": 0.5,
                "period_samples": 1024,
            },
            sample_rate=FS,
        )
        assert jammer.inner.inner.sample_rate == pytest.approx(FS)

    def test_explicit_rate_beats_injection_at_depth(self):
        jammer = jammer_from_spec(
            {
                "type": "pulsed",
                "inner": {"type": "tone", "frequency": 1e6, "sample_rate": 2 * FS},
                "duty_cycle": 0.5,
                "period_samples": 1024,
            },
            sample_rate=FS,
        )
        assert jammer.inner.sample_rate == pytest.approx(2 * FS)

    def test_injection_does_not_mutate_the_caller_spec(self):
        spec = {
            "type": "pulsed",
            "inner": {"type": "tone", "frequency": 1e6},
            "duty_cycle": 0.5,
            "period_samples": 1024,
        }
        jammer_from_spec(spec, sample_rate=FS)
        assert "sample_rate" not in spec["inner"]


# ---------------------------------------------------------------------------
# serial == batched == pool, per adaptive jammer
# ---------------------------------------------------------------------------

class TestDriverBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ADAPTIVE_TYPES)
    def test_serial_equals_batched(self, name, seed):
        stats = {}
        for label, batch in (("serial", 0), ("batched", 2)):
            link = LinkSimulator(small_config())
            stats[label] = link.run_packets_batched(
                5,
                snr_db=8.0,
                sjr_db=-5.0,
                jammer=jammer_from_spec(ROUNDTRIP_SPECS[name]),
                seed=seed,
                batch_size=batch,
                cache=False,
            )
        assert stats["serial"] == stats["batched"]
        assert stats["serial"].filter_usage == stats["batched"].filter_usage

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ADAPTIVE_TYPES)
    def test_pool_equals_serial_through_the_arena(self, name, seed):
        spec = small_arena(
            [("none", dict(NO_JAMMER)), (name, dict(ROUNDTRIP_SPECS[name]))],
            seed=seed,
        )
        serial = run_tournament(
            spec, executor=ParallelExecutor(0), cache=False, checkpoint=False
        )
        if not ParallelExecutor.fork_available():
            pytest.skip("no fork on this platform")
        pooled = run_tournament(
            spec, executor=ParallelExecutor(2), cache=False, checkpoint=False
        )
        assert pooled.records == serial.records


# ---------------------------------------------------------------------------
# latent reactive: detect, turn around, jam the tail
# ---------------------------------------------------------------------------

class TestLatentReactiveSemantics:
    def make(self, **overrides):
        kwargs = dict(
            sample_rate=FS, bandwidth=2.5e6, threshold_db=-6.0,
            sense_window=64, turnaround_samples=256,
        )
        kwargs.update(overrides)
        return LatentReactiveJammer(**kwargs)

    def test_head_is_exactly_zero_until_turnaround(self):
        jammer = self.make()
        packet, profile = transmit_packet()
        jammer.observe_victim(packet.waveform, profile)
        start = jammer.jam_start(packet.num_samples)
        wave = jammer.waveform(packet.num_samples, np.random.default_rng(0))
        assert 0 < start < packet.num_samples
        assert np.all(wave[:start] == 0)
        assert np.any(wave[start:] != 0)

    def test_whole_packet_power_is_unit(self):
        jammer = self.make()
        packet, profile = transmit_packet()
        jammer.observe_victim(packet.waveform, profile)
        wave = jammer.waveform(packet.num_samples, np.random.default_rng(1))
        assert signal_power(wave) == pytest.approx(1.0)

    def test_no_observation_means_no_jamming(self):
        wave = self.make().waveform(4096, np.random.default_rng(0))
        assert np.all(wave == 0)

    def test_silent_observation_is_not_detected(self):
        jammer = self.make()
        jammer.observe_victim(np.zeros(4096, dtype=complex), [(4096, 2.5e6)])
        assert jammer.detect_index() is None
        assert np.all(jammer.waveform(4096, np.random.default_rng(0)) == 0)

    def test_detector_fires_at_the_energy_onset(self):
        jammer = self.make(sense_window=32, turnaround_samples=0)
        observed = np.zeros(4096, dtype=complex)
        observed[500:] = 1.0  # energy arrives at sample 500
        jammer.observe_victim(observed, [(4096, 2.5e6)])
        detect = jammer.detect_index()
        assert detect is not None
        assert 500 <= detect < 500 + 64

    def test_turnaround_beyond_packet_never_jams(self):
        jammer = self.make(turnaround_samples=10**6)
        packet, profile = transmit_packet()
        jammer.observe_victim(packet.waveform, profile)
        assert jammer.jam_start(packet.num_samples) == packet.num_samples
        wave = jammer.waveform(packet.num_samples, np.random.default_rng(0))
        assert np.all(wave == 0)

    def test_more_turnaround_never_jams_earlier(self):
        packet, profile = transmit_packet()
        starts = []
        for tau in (0, 128, 512, 2048):
            jammer = self.make(turnaround_samples=tau)
            jammer.observe_victim(packet.waveform, profile)
            starts.append(jammer.jam_start(packet.num_samples))
        assert starts == sorted(starts)


# ---------------------------------------------------------------------------
# repeater: the victim's waveform, delayed and re-normalized
# ---------------------------------------------------------------------------

class TestRepeaterSemantics:
    def test_single_tap_output_is_a_delayed_scaled_copy(self):
        delay = 64
        jammer = RepeaterJammer(delay_samples=delay, num_taps=1)
        packet, profile = transmit_packet()
        jammer.observe_victim(packet.waveform, profile)
        n = packet.num_samples
        wave = jammer.waveform(n, np.random.default_rng(0))
        assert np.all(wave[:delay] == 0)
        keep = n - delay
        replay = wave[delay:]
        victim = packet.waveform[:keep]
        # One complex gain relates every sample: the replay is the victim.
        scale = replay[np.argmax(np.abs(victim))] / victim[np.argmax(np.abs(victim))]
        np.testing.assert_allclose(replay, scale * victim, rtol=1e-9, atol=1e-12)

    def test_output_power_is_unit(self):
        jammer = RepeaterJammer(delay_samples=32, num_taps=1)
        packet, profile = transmit_packet()
        jammer.observe_victim(packet.waveform, profile)
        wave = jammer.waveform(packet.num_samples, np.random.default_rng(0))
        assert signal_power(wave) == pytest.approx(1.0)

    def test_no_observation_is_silence(self):
        wave = RepeaterJammer().waveform(2048, np.random.default_rng(0))
        assert wave.dtype == np.complex128
        assert np.all(wave == 0)

    def test_delay_beyond_packet_is_silence(self):
        jammer = RepeaterJammer(delay_samples=10**6)
        packet, profile = transmit_packet()
        jammer.observe_victim(packet.waveform, profile)
        assert np.all(jammer.waveform(packet.num_samples, np.random.default_rng(0)) == 0)

    def test_filtered_repeat_is_deterministic_in_the_stream(self):
        packet, profile = transmit_packet()
        waves = []
        for _ in range(2):
            jammer = RepeaterJammer(delay_samples=16, num_taps=5)
            jammer.observe_victim(packet.waveform, profile)
            waves.append(jammer.waveform(packet.num_samples, np.random.default_rng(7)))
        np.testing.assert_array_equal(waves[0], waves[1])
        assert signal_power(waves[0]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# multitone: K tones inside the placement band
# ---------------------------------------------------------------------------

class TestMultiToneSemantics:
    def test_tones_stay_inside_the_placement_band(self):
        jammer = MultiToneJammer(FS, 0.15625e6, num_tones=6)
        freqs = jammer.tone_frequencies()
        assert freqs.size == 6
        assert np.all(np.abs(freqs) <= 0.15625e6 / 2)
        np.testing.assert_allclose(freqs, -freqs[::-1])  # symmetric placement

    def test_for_hop_range_targets_the_narrowest_band(self):
        bands = BandwidthSet.paper_default().bandwidths
        jammer = MultiToneJammer.for_hop_range(FS, bands, num_tones=4)
        assert jammer.placement_bandwidth == pytest.approx(min(bands))

    def test_unit_power(self):
        wave = MultiToneJammer(FS, 1e6, num_tones=4).waveform(
            8192, np.random.default_rng(0)
        )
        assert wave.dtype == np.complex128
        assert signal_power(wave) == pytest.approx(1.0)

    def test_spectrum_concentrates_at_the_tone_frequencies(self):
        jammer = MultiToneJammer(FS, 2e6, num_tones=3)
        n = 1 << 14
        wave = jammer.waveform(n, np.random.default_rng(3))
        spectrum = np.abs(np.fft.fft(wave))
        grid = np.fft.fftfreq(n, 1.0 / FS)
        peak_freqs = sorted(grid[np.argsort(spectrum)[-3:]])
        np.testing.assert_allclose(
            peak_freqs, sorted(jammer.tone_frequencies()), atol=FS / n + 1.0
        )

    def test_placement_wider_than_nyquist_rejected(self):
        with pytest.raises(ValueError, match="placement_bandwidth"):
            MultiToneJammer(FS, 3 * FS)

    def test_empty_hop_range_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            MultiToneJammer.for_hop_range(FS, [])


# ---------------------------------------------------------------------------
# follower: learn the band, or chase a moving target
# ---------------------------------------------------------------------------

class TestFollowerSemantics:
    def observe_and_jam(self, jammer, bandwidth, packets, rng):
        for _ in range(packets):
            jammer.observe_victim(np.ones(256, dtype=complex), [(256, bandwidth)])
            jammer.waveform(256, rng)

    def test_converges_on_a_static_band(self):
        jammer = FollowerJammer(FS, 10e6, learning_rate=0.5, sense_noise_db=0.0)
        self.observe_and_jam(jammer, 0.625e6, 12, np.random.default_rng(0))
        # 4 octaves of initial error decay as 0.5^12 with a noiseless sensor
        assert jammer.bandwidth_estimate == pytest.approx(0.625e6, rel=1e-2)

    def test_stays_dispersed_under_randomized_hopping(self):
        static = FollowerJammer(FS, 10e6, learning_rate=0.5, sense_noise_db=0.0)
        hopper = FollowerJammer(FS, 10e6, learning_rate=0.5, sense_noise_db=0.0)
        rng = np.random.default_rng(0)
        bands = BandwidthSet.paper_default().bandwidths  # 7 octave-spaced bands
        for k in range(24):
            static.observe_victim(np.ones(256, dtype=complex), [(256, 0.625e6)])
            static.waveform(256, rng)
            hopper.observe_victim(
                np.ones(256, dtype=complex), [(256, bands[(3 * k) % len(bands)])]
            )
            hopper.waveform(256, rng)
        tail = np.log2(static.estimate_history[-8:])
        assert np.ptp(tail) < 0.01  # converged: estimates pinned
        hop_tail = np.log2(hopper.estimate_history[-8:])
        assert np.ptp(hop_tail) > 1.0  # chasing: estimates swing over octaves

    def test_reset_restores_the_initial_estimate(self):
        jammer = FollowerJammer(FS, 10e6, learning_rate=0.9, sense_noise_db=0.0)
        self.observe_and_jam(jammer, 0.3125e6, 5, np.random.default_rng(0))
        assert jammer.bandwidth_estimate != pytest.approx(10e6)
        jammer.reset()
        assert jammer.bandwidth_estimate == pytest.approx(10e6)
        assert jammer.estimate_history == []

    def test_clamp_bounds_the_estimate(self):
        jammer = FollowerJammer(
            FS, 5e6, learning_rate=1.0, sense_noise_db=0.0,
            min_bandwidth=1.25e6, max_bandwidth=10e6,
        )
        self.observe_and_jam(jammer, 0.15625e6, 4, np.random.default_rng(0))
        assert jammer.bandwidth_estimate == pytest.approx(1.25e6)

    def test_invalid_clamp_order_rejected(self):
        with pytest.raises(ValueError, match="min_bandwidth"):
            FollowerJammer(FS, 5e6, min_bandwidth=10e6, max_bandwidth=1e6)

    def test_statefulness_flags(self):
        assert FollowerJammer(FS, 5e6).is_stateful
        assert not LatentReactiveJammer(FS, 2.5e6).is_stateful
        assert not RepeaterJammer().is_stateful
        assert not MultiToneJammer(FS, 1e6).is_stateful


# ---------------------------------------------------------------------------
# arena spec validation surface
# ---------------------------------------------------------------------------

class TestArenaSpec:
    def test_dict_round_trip_is_lossless(self):
        spec = small_arena(
            [("none", dict(NO_JAMMER)), ("rep", {"type": "repeater"})],
            patterns=("linear", "parabolic"),
            description="round trip",
        )
        assert ArenaSpec.from_dict(spec.to_dict()) == spec

    def test_jammers_sorted_by_label(self):
        spec = small_arena([("zeta", dict(NO_JAMMER)), ("alpha", {"type": "repeater"})])
        assert spec.jammer_labels == ("alpha", "zeta")
        labels = [c[0] for c in spec.cells()]
        assert labels == sorted(labels)

    def test_num_cells_is_the_grid_product(self):
        spec = small_arena(
            [("none", dict(NO_JAMMER)), ("rep", {"type": "repeater"})],
            patterns=("linear", "parabolic"),
            hop_ranges=(1, 2, 3),
        )
        assert spec.num_cells == 2 * 2 * 3 == len(spec.cells())

    def test_static_cell_pins_the_widest_band(self):
        spec = small_arena([("none", dict(NO_JAMMER))])
        config = spec.cell_config("parabolic", 1)
        widest = max(spec.config.bandwidth_set.bandwidths)
        assert config.fixed_bandwidth == pytest.approx(widest)
        assert config.pattern == "linear"  # canonical: pattern is moot when static
        assert len(config.bandwidth_set) == 1

    def test_hopping_cell_keeps_the_k_widest_bands(self):
        spec = small_arena([("none", dict(NO_JAMMER))], hop_ranges=(1, 2))
        config = spec.cell_config("linear", 2)
        expected = sorted(spec.config.bandwidth_set.bandwidths, reverse=True)[:2]
        assert sorted(config.bandwidth_set.bandwidths, reverse=True) == expected
        assert config.fixed_bandwidth is None

    def test_baseline_label_finds_the_none_jammer(self):
        spec = small_arena([("quiet", dict(NO_JAMMER)), ("rep", {"type": "repeater"})])
        assert spec.baseline_label == "quiet"
        no_base = small_arena([("rep", {"type": "repeater"})])
        assert no_base.baseline_label is None

    @pytest.mark.parametrize(
        "mutation, match",
        [
            (dict(jammers=()), "jammers"),
            (dict(patterns=("spiral",)), "patterns"),
            (dict(patterns=("linear", "linear")), "patterns"),
            (dict(hop_ranges=(0,)), "hop_ranges"),
            (dict(hop_ranges=(9,)), "hop_ranges"),
            (dict(hop_ranges=(1, 1)), "hop_ranges"),
            (dict(packets=0), "packets"),
            (dict(snr_db="high"), "snr_db"),
            (dict(name=""), "name"),
        ],
    )
    def test_field_named_validation_errors(self, mutation, match):
        kwargs = dict(
            name="bad",
            config=small_config(),
            jammers=(("none", dict(NO_JAMMER)),),
            patterns=("linear",),
            hop_ranges=(1,),
            packets=2,
        )
        kwargs.update(mutation)
        with pytest.raises(ArenaError, match=match):
            ArenaSpec(**kwargs)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ArenaError, match="duplicate"):
            small_arena([("a", dict(NO_JAMMER)), ("a", {"type": "repeater"})])

    def test_from_dict_deep_validates_jammer_specs(self):
        data = small_arena([("none", dict(NO_JAMMER))]).to_dict()
        data["jammers"]["bad"] = {"type": "multitone", "num_tones": 0}
        with pytest.raises(ArenaError, match="bad"):
            ArenaSpec.from_dict(data)

    def test_load_error_carries_the_source_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"name": "x", "jammers": {"n": {"type": "none"}},
                                    "hop_ranges": [0]}))
        with pytest.raises(ArenaError, match="broken.json"):
            ArenaSpec.load(str(path))


# ---------------------------------------------------------------------------
# tournament runner: fan-out, cache, checkpoint, advantage
# ---------------------------------------------------------------------------

def two_jammer_arena(**overrides):
    return small_arena(
        [
            ("none", dict(NO_JAMMER)),
            ("rep", {"type": "repeater", "delay_samples": 64}),
        ],
        **overrides,
    )


class TestRunTournament:
    def test_records_follow_cell_order_and_columns(self):
        spec = two_jammer_arena()
        result = run_tournament(spec, cache=False, checkpoint=False)
        assert [(r["jammer"], r["num_bands"]) for r in result.records] == [
            ("none", 1), ("none", 3), ("rep", 1), ("rep", 3),
        ]
        table = result.to_sweep_result()
        assert table.columns == TOURNAMENT_COLUMNS
        assert len(table.rows) == spec.num_cells

    def test_cache_round_trip(self, tmp_path):
        spec = two_jammer_arena()
        root = str(tmp_path / "cache")
        first = run_tournament(spec, cache=root, checkpoint=False)
        probe = ResultCache(root)
        payload = {"arena": spec.to_dict(), "cache": probe}
        for i in range(spec.num_cells):
            assert evaluate_arena_cell(payload, i) == first.records[i]
        assert probe.hits == spec.num_cells
        assert probe.misses == 0

    def test_static_cells_share_one_cache_entry_across_patterns(self, tmp_path):
        # hop range 1 canonicalizes the pattern away, so the static cell
        # of every pattern is *the same content* — one miss, then hits.
        spec = small_arena(
            [("none", dict(NO_JAMMER))],
            patterns=("linear", "parabolic"),
            hop_ranges=(1,),
        )
        root = str(tmp_path / "cache")
        result = run_tournament(
            spec, executor=ParallelExecutor(0), cache=root, checkpoint=False
        )
        assert len(result.records) == 2
        a, b = result.records
        assert a["pattern"] == "linear" and b["pattern"] == "parabolic"
        assert a["stats"] == b["stats"]

    def test_checkpoint_resume_skips_finished_cells(self, tmp_path):
        spec = two_jammer_arena()
        root = str(tmp_path / "ckpt")
        full = run_tournament(spec, cache=False, checkpoint=False)
        key = stable_hash({"arena": spec.to_dict()})
        ck = SweepCheckpoint(root, key, total=spec.num_cells)
        ck.record(0, full.records[0])
        ck.record(2, full.records[2])
        ck.flush()
        resumed = run_tournament(spec, cache=False, checkpoint=root)
        assert resumed.records == full.records
        assert resumed.timing is not None
        assert resumed.timing.point_seconds[0] == 0.0
        assert resumed.timing.point_seconds[1] > 0.0
        assert SweepCheckpoint(root, key, total=spec.num_cells).load() == {}

    def test_jammer_advantage_is_the_mean_delta_vs_baseline(self):
        spec = two_jammer_arena()
        result = run_tournament(spec, cache=False, checkpoint=False)
        matrix = result.resilience_matrix("per")
        expected = np.mean(
            [
                matrix[("rep", "linear", k)] - matrix[("none", "linear", k)]
                for k in spec.hop_ranges
            ]
        )
        assert result.jammer_advantage("per") == {"rep": pytest.approx(expected)}

    def test_jammer_advantage_requires_a_baseline(self):
        spec = small_arena([("rep", {"type": "repeater"})])
        result = run_tournament(spec, cache=False, checkpoint=False)
        with pytest.raises(ArenaError, match="baseline"):
            result.jammer_advantage()
        assert result.aggregates()["jammer_advantage"] == {}

    def test_resilience_matrix_rejects_unknown_metric(self):
        result = TournamentResult(spec=two_jammer_arena())
        with pytest.raises(ValueError, match="metric"):
            result.resilience_matrix("happiness")

    def test_cell_stats_reconstructs_link_stats(self):
        spec = two_jammer_arena()
        result = run_tournament(spec, cache=False, checkpoint=False)
        stats = result.cell_stats("rep", "linear", 3)
        assert stats.num_packets == spec.packets
        with pytest.raises(KeyError, match="no cell"):
            result.cell_stats("ghost", "linear", 3)

    def test_cell_index_out_of_range(self):
        spec = two_jammer_arena()
        with pytest.raises(ArenaError, match="cell index"):
            spec.build_cell(spec.num_cells)


# ---------------------------------------------------------------------------
# CLI: run --tournament, scenario routing
# ---------------------------------------------------------------------------

class TestArenaCLI:
    @pytest.fixture()
    def arena_file(self, tmp_path):
        return two_jammer_arena().save(str(tmp_path / "arena.json"))

    def test_run_tournament_prints_matrix_and_advantage(self, arena_file, capsys):
        assert main(["run", "--tournament", arena_file]) == 0
        out = capsys.readouterr().out
        assert "resilience matrix" in out
        assert "jammer advantage" in out

    def test_run_tournament_writes_csv(self, arena_file, tmp_path, capsys):
        csv_path = str(tmp_path / "out.csv")
        assert main(["run", "--tournament", arena_file, "-o", csv_path]) == 0
        header = open(csv_path).readline().strip().split(",")
        assert header == list(TOURNAMENT_COLUMNS)

    def test_run_requires_exactly_one_input(self, arena_file, capsys):
        assert main(["run"]) == 2
        assert main(["run", "--tournament", arena_file, "--scenario", arena_file]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_run_invalid_arena_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"jammers": {"n": {"type": "none"}}}))
        assert main(["run", "--tournament", str(path)]) == 2
        assert "name" in capsys.readouterr().err

    def test_scenario_validate_routes_arena_files(self, arena_file, capsys):
        assert main(["scenario", "validate", arena_file]) == 0
        out = capsys.readouterr().out
        assert "cells" in out and "jammer(s)" in out

    def test_scenario_list_labels_arena_rows(self, arena_file, capsys):
        assert main(["scenario", "list", os.path.dirname(arena_file)]) == 0
        assert "arena (2 jammers)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# golden tournament cells
# ---------------------------------------------------------------------------

class TestGoldenArenaCells:
    @pytest.fixture(scope="class")
    def frozen(self):
        from tests.golden.regenerate_arena import OUTPUT

        if not os.path.exists(OUTPUT):
            pytest.skip("golden fixture missing; run tests/golden/regenerate_arena.py")
        with open(OUTPUT) as fh:
            return json.load(fh)

    @pytest.fixture(scope="class")
    def regenerated(self):
        from tests.golden.regenerate_arena import generate

        return generate()

    def test_same_cell_set(self, frozen, regenerated):
        assert sorted(frozen) == sorted(regenerated)

    def test_cells_match_exactly(self, frozen, regenerated):
        # JSON round-trips Python floats exactly; any numerics drift in
        # the adaptive jammers or the tournament runner fails here.
        for name, record in frozen.items():
            assert regenerated[name] == record, f"golden cell {name} drifted"

    def test_frozen_cells_cover_distinct_jammers(self, frozen):
        jammers = {record["jammer"] for record in frozen.values()}
        assert len(jammers) >= 2
