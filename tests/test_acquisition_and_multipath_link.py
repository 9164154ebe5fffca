"""Tests for code-phase acquisition, the multipath-aware link, and the
CLI sweep subcommand."""

import numpy as np
import pytest

from repro.channel import MultipathChannel
from repro.cli import main
from repro.core import BHSSConfig, LinkSimulator
from repro.runtime import ParallelExecutor
from repro.spread import BPSKDSSS, acquire_code_phase, lfsr_sequence, random_pn_sequence


class TestCodeAcquisition:
    def test_finds_known_offset(self):
        code = lfsr_sequence(9)  # 511-chip m-sequence
        for offset in [0, 1, 17, 255, 510]:
            received = np.roll(code, offset)
            acq = acquire_code_phase(received, code)
            assert acq.acquired
            assert acq.offset == offset

    def test_metric_strong_for_msequence(self):
        code = lfsr_sequence(8)
        acq = acquire_code_phase(np.roll(code, 42), code)
        # m-sequence sidelobes are -1/N: the metric is enormous
        assert acq.metric > 50.0

    def test_acquires_under_noise(self):
        rng = np.random.default_rng(0)
        code = lfsr_sequence(10)  # 1023 chips
        received = np.roll(code, 321) + rng.normal(scale=2.0, size=code.size)  # -6 dB/chip
        acq = acquire_code_phase(received, code)
        assert acq.acquired and acq.offset == 321

    def test_rejects_wrong_code(self):
        code_a = random_pn_sequence(512, seed=1)
        code_b = random_pn_sequence(512, seed=2)
        acq = acquire_code_phase(code_a, code_b, threshold=2.0)
        assert not acq.acquired

    def test_rejects_pure_noise(self):
        rng = np.random.default_rng(3)
        code = random_pn_sequence(512, seed=4)
        acq = acquire_code_phase(rng.normal(size=512), code, threshold=2.0)
        assert not acq.acquired

    def test_enables_unsynchronized_despreading(self):
        """The point of acquisition: despread a stream whose chip phase
        is unknown."""
        L = 64
        modem = BPSKDSSS(spreading_factor=L, seed=5)
        bits = np.array([1, -1, 1, 1, -1, -1, 1, -1], dtype=float)
        chips = modem.spread(bits)
        offset = 37
        # circular rotation stands in for an unknown stream start
        received = np.roll(chips, offset)
        acq = acquire_code_phase(received, chips)
        assert acq.acquired and acq.offset == offset
        realigned = np.roll(received, -acq.offset)
        np.testing.assert_array_equal(np.sign(modem.despread(realigned)), bits)

    def test_validation(self):
        code = random_pn_sequence(64, seed=6)
        with pytest.raises(ValueError):
            acquire_code_phase(code[:32], code)
        with pytest.raises(ValueError):
            acquire_code_phase(code[:4], code[:4])
        with pytest.raises(ValueError):
            acquire_code_phase(code, code, threshold=1.0)


class TestMultipathLink:
    def test_flat_channel_equivalent_to_none(self):
        cfg = BHSSConfig.paper_default(seed=31, payload_bytes=8)
        flat = MultipathChannel(num_taps=1, seed=1)
        out = LinkSimulator(cfg, channel=flat).run_packet(snr_db=20.0, rng=0)
        assert out.accepted

    def test_narrow_hops_more_robust_over_multipath(self):
        """With the channel's absolute phase resolved (as a preamble-
        synchronized receiver would), hops below the coherence bandwidth
        are flat-faded and decode; wide hops suffer inter-chip
        interference."""
        from repro.core import BHSSReceiver, BHSSTransmitter

        channel = MultipathChannel(num_taps=16, decay_samples=5.3, seed=3, line_of_sight=0.0)

        def per(bw, packets=5):
            cfg = BHSSConfig.paper_default(seed=97, payload_bytes=8).with_fixed_bandwidth(bw)
            tx, rx = BHSSTransmitter(cfg), BHSSReceiver(cfg)
            failures = 0
            for k in range(packets):
                packet = tx.transmit(packet_index=k)
                faded = channel.apply(packet.waveform)
                train = min(2048, packet.num_samples // 2)
                phase = np.angle(np.vdot(packet.waveform[:train], faded[:train]))
                result = rx.receive(faded * np.exp(-1j * phase), packet_index=k, phase_track=True)
                failures += int(not result.accepted)
            return failures / packets

        assert per(0.3125e6) == 0.0
        assert per(10e6) > 0.5

    def test_multipath_degrades_wideband(self):
        cfg = BHSSConfig.paper_default(seed=33, payload_bytes=8).with_fixed_bandwidth(10e6)
        channel = MultipathChannel(num_taps=16, decay_samples=6.0, seed=3, line_of_sight=0.0)
        faded = LinkSimulator(cfg, channel=channel).run_packets(6, snr_db=25.0, seed=2)
        clean = LinkSimulator(cfg).run_packets(6, snr_db=25.0, seed=2)
        assert faded.packet_error_rate >= clean.packet_error_rate


class TestCliSweep:
    def test_sweep_runs_and_reports(self, capsys):
        code = main(
            [
                "sweep",
                "--packets", "2",
                "--payload-bytes", "4",
                "--snr", "20",
                "--sjr-list", "5,-5",
                "--jammer", "noise",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PER/BER vs SJR" in out
        assert "95% CI" in out

    def test_sweep_writes_csv(self, tmp_path, capsys):
        path = str(tmp_path / "sweep.csv")
        code = main(
            [
                "sweep",
                "--packets", "2",
                "--payload-bytes", "4",
                "--sjr-list", "0",
                "--jammer", "none",
                "-o", path,
            ]
        )
        assert code == 0
        text = open(path).read()
        assert text.startswith("sjr_db,per,per_lo,per_hi,ber")
        assert len(text.splitlines()) == 2

    @pytest.mark.skipif(
        not ParallelExecutor.fork_available(), reason="fork start method unavailable"
    )
    def test_hopping_sweep_identical_serial_and_pooled(self, tmp_path, monkeypatch, capsys):
        # The hopping jammer is stateful: each grid point must build its
        # own, or the serial run (one shared payload) would carry jammer
        # state from point to point while pool workers start fresh.
        def sweep(name):
            path = str(tmp_path / name)
            argv = [
                "sweep", "--jammer", "hopping", "--packets", "3", "--payload-bytes", "4",
                "--snr", "15", "--sjr-list", "0,-4,-8", "-o", path,
            ]
            assert main(argv) == 0
            return open(path).read()

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        serial = sweep("serial.csv")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert sweep("pooled.csv") == serial
