"""Unit tests for the end-to-end link simulator and statistics."""

import pytest

from repro.channel import Impairments
from repro.core import BHSSConfig, LinkSimulator
from repro.jamming import (
    BandlimitedNoiseJammer,
    HoppingJammer,
    MatchedReactiveJammer,
    NoJammer,
)


def make_link(**kw):
    filtering = kw.pop("filtering", True)
    cfg = BHSSConfig.paper_default(payload_bytes=8, seed=11, **kw)
    if not filtering:
        cfg = cfg.without_filtering()
    return LinkSimulator(cfg)


class TestRunPacket:
    def test_clean_packet_accepted(self):
        out = make_link().run_packet(snr_db=20.0, rng=0)
        assert out.accepted
        assert out.bit_errors == 0
        assert out.total_bits == 64

    def test_low_snr_fails(self):
        out = make_link().run_packet(snr_db=-20.0, rng=1)
        assert not out.accepted
        assert out.bit_errors > 0

    def test_explicit_payload(self):
        out = make_link().run_packet(snr_db=20.0, rng=2, payload=b"abcdefgh")
        assert out.accepted
        assert out.receive.payload == b"abcdefgh"

    def test_bit_error_rate_property(self):
        out = make_link().run_packet(snr_db=-18.0, rng=3)
        assert 0 < out.bit_error_rate <= 1.0

    def test_jammer_with_infinite_sjr_ignored(self):
        jam = BandlimitedNoiseJammer(5e6, 20e6)
        out = make_link().run_packet(snr_db=20.0, sjr_db=float("inf"), jammer=jam, rng=4)
        assert out.accepted

    def test_infinite_sjr_seed_comparable_to_finite(self):
        """sjr=inf must consume the jammer RNG exactly like a finite SJR.

        An SJR sweep that includes inf as its unjammed baseline must see
        the same noise realization at every point: a +300 dB jammer is
        physically negligible (power 1e-30 of the signal), so at the same
        seed its packet outcomes must match the inf point bit for bit.
        Before the gating fix the inf branch skipped the jammer draw and
        the two points silently diverged in their noise streams.
        """
        link = make_link()
        for k, snr in enumerate([18.0, 3.0, -3.0]):
            at_inf = link.run_packet(
                snr_db=snr, sjr_db=float("inf"),
                jammer=BandlimitedNoiseJammer(2.5e6, 20e6), rng=40 + k,
            )
            negligible = link.run_packet(
                snr_db=snr, sjr_db=300.0,
                jammer=BandlimitedNoiseJammer(2.5e6, 20e6), rng=40 + k,
            )
            assert at_inf.accepted == negligible.accepted
            assert at_inf.bit_errors == negligible.bit_errors

    def test_no_jammer_class_equivalent_to_none(self):
        a = make_link().run_packet(snr_db=15.0, jammer=None, rng=5)
        b = make_link().run_packet(snr_db=15.0, jammer=NoJammer(), sjr_db=0.0, rng=5)
        assert a.accepted == b.accepted

    def test_reactive_jammer_gets_observation(self):
        jam = MatchedReactiveJammer(20e6, reaction_samples=0, initial_bandwidth=10e6)
        make_link().run_packet(snr_db=15.0, sjr_db=-5.0, jammer=jam, rng=6)
        assert jam._profile  # link fed it the transmitted profile

    def test_strong_matched_fixed_jammer_breaks_fixed_link(self):
        link = make_link(fixed_bandwidth=10e6)
        jam = BandlimitedNoiseJammer(10e6, 20e6)
        out = link.run_packet(snr_db=20.0, sjr_db=-20.0, jammer=jam, rng=7)
        assert not out.accepted


class TestRunPackets:
    def test_aggregation(self):
        stats = make_link().run_packets(5, snr_db=20.0, seed=1)
        assert stats.num_packets == 5
        assert stats.num_accepted == 5
        assert stats.packet_error_rate == 0.0
        assert stats.bit_error_rate == 0.0
        assert stats.total_bits == 5 * 64

    def test_deterministic_given_seed(self):
        a = make_link().run_packets(4, snr_db=3.0, seed=9)
        b = make_link().run_packets(4, snr_db=3.0, seed=9)
        assert a.num_accepted == b.num_accepted
        assert a.bit_errors == b.bit_errors

    def test_per_between_zero_and_one(self):
        jam = BandlimitedNoiseJammer(2.5e6, 20e6)
        stats = make_link().run_packets(6, snr_db=8.0, sjr_db=-8.0, jammer=jam, seed=2)
        assert 0.0 <= stats.packet_error_rate <= 1.0

    def test_filter_usage_aggregated(self):
        jam = BandlimitedNoiseJammer(0.625e6, 20e6)
        stats = make_link().run_packets(3, snr_db=15.0, sjr_db=-12.0, jammer=jam, seed=3)
        assert sum(stats.filter_usage.values()) > 0

    def test_zero_packets_raises(self):
        with pytest.raises(ValueError):
            make_link().run_packets(0, snr_db=10.0)

    def test_throughput_scales_with_success(self):
        stats = make_link().run_packets(3, snr_db=25.0, seed=4)
        assert stats.throughput_bps == pytest.approx(stats.data_rate_bps)
        jam = BandlimitedNoiseJammer(10e6, 20e6)
        jammed = make_link().run_packets(3, snr_db=0.0, sjr_db=-25.0, jammer=jam, seed=5)
        assert jammed.throughput_bps < stats.throughput_bps


class TestDataRate:
    def test_fixed_bandwidth_rate(self):
        link = make_link(fixed_bandwidth=10e6)
        # 10 MHz -> 1.25 Mb/s gross; x payload fraction (16 of 32 symbols)
        gross = 10e6 / 8
        frac = 16 / 32
        assert link.data_rate_bps() == pytest.approx(gross * frac)

    def test_hopping_rate_uses_expected_bandwidth(self):
        link = make_link(pattern="exponential")
        gross = 6.72e6 / 8
        frac = 16 / 32
        assert link.data_rate_bps() == pytest.approx(gross * frac, rel=0.01)

    def test_linear_pattern_rate(self):
        link = make_link(pattern="linear")
        assert link.data_rate_bps() == pytest.approx(2.835e6 / 8 * 16 / 32, rel=0.01)


class TestImpairedLink:
    def test_small_cfo_with_phase_tracking_survives(self):
        imp = Impairments(cfo_hz=200.0, phase_rad=0.2)
        cfg = BHSSConfig.paper_default(payload_bytes=8, seed=13)
        link = LinkSimulator(cfg, impairments=imp)
        stats = link.run_packets(3, snr_db=20.0, seed=6)
        assert stats.num_accepted >= 2

    def test_ideal_impairments_no_phase_tracking(self):
        cfg = BHSSConfig.paper_default(payload_bytes=8, seed=13)
        link = LinkSimulator(cfg, impairments=Impairments())
        stats = link.run_packets(2, snr_db=20.0, seed=7)
        assert stats.num_accepted == 2


class TestBHSSBeatFixedUnderReactiveJamming:
    """The paper's headline scenario as an integration test."""

    def test_hopping_beats_fixed_against_reactive_jammer(self):
        # Reactive jammer with a reaction time of one hop dwell: always
        # matched to a *fixed* link, always stale against a hopping one.
        sjr = -12.0
        snr = 18.0
        n_pkt = 8

        fixed_link = make_link(fixed_bandwidth=10e6)
        hop_link = make_link(pattern="linear")

        # reaction time ~ one widest-bandwidth dwell
        tau = 4 * 16 * 4  # symbols_per_hop * complex chips * sps at 10 MHz
        fixed_stats = fixed_link.run_packets(
            n_pkt,
            snr_db=snr,
            sjr_db=sjr,
            jammer=MatchedReactiveJammer(20e6, tau, initial_bandwidth=10e6),
            seed=8,
        )
        hop_stats = hop_link.run_packets(
            n_pkt,
            snr_db=snr,
            sjr_db=sjr,
            jammer=MatchedReactiveJammer(20e6, tau, initial_bandwidth=10e6),
            seed=8,
        )
        assert hop_stats.packet_error_rate <= fixed_stats.packet_error_rate

    def test_filtering_receiver_beats_plain_under_hopping_jammer(self):
        jam_factory = lambda: HoppingJammer(
            [10e6, 5e6, 2.5e6, 1.25e6, 0.625e6, 0.3125e6, 0.15625e6],
            20e6,
            dwell_samples=4096,
            seed=99,
        )
        with_filter = make_link(pattern="parabolic").run_packets(
            8, snr_db=15.0, sjr_db=-12.0, jammer=jam_factory(), seed=9
        )
        without = make_link(pattern="parabolic", filtering=False).run_packets(
            8, snr_db=15.0, sjr_db=-12.0, jammer=jam_factory(), seed=9
        )
        assert with_filter.bit_error_rate <= without.bit_error_rate


class TestStatsIsolation:
    def test_filter_usage_copied_on_construction(self):
        from repro.core.link import LinkStats

        usage = {"lowpass": 2, "none": 1}
        stats = LinkStats(
            num_packets=3, num_accepted=2, total_bits=192, bit_errors=4,
            data_rate_bps=1e6, filter_usage=usage,
        )
        usage["excision"] = 99  # caller mutates its dict afterwards
        usage["lowpass"] = 0
        assert stats.filter_usage == {"lowpass": 2, "none": 1}

    def test_to_dict_returns_a_copy(self):
        from repro.core.link import LinkStats

        stats = LinkStats(
            num_packets=1, num_accepted=1, total_bits=64, bit_errors=0,
            data_rate_bps=1e6, filter_usage={"none": 1},
        )
        stats.to_dict()["filter_usage"]["none"] = 7
        assert stats.filter_usage == {"none": 1}


class TestStatsSerialization:
    def test_to_dict_json_roundtrip(self):
        import json

        stats = make_link().run_packets(2, snr_db=20.0, seed=10)
        d = stats.to_dict()
        text = json.dumps(d)
        back = json.loads(text)
        assert back["num_packets"] == 2
        assert back["per_ci_low"] <= back["packet_error_rate"] <= back["per_ci_high"]
        assert set(back["filter_usage"]) <= {"none", "lowpass", "excision"}

    def test_counters_rebuild_the_stats(self):
        import json

        from repro.core.link import LinkStats

        stats = make_link().run_packets(2, snr_db=20.0, seed=10)
        counters = stats.counters()
        assert list(counters) == [
            "num_packets", "num_accepted", "total_bits",
            "bit_errors", "data_rate_bps", "filter_usage",
        ]
        assert LinkStats(**counters) == stats
        assert LinkStats(**json.loads(json.dumps(counters))) == stats
        counters["filter_usage"]["none"] = -1
        assert stats.filter_usage.get("none") != -1
