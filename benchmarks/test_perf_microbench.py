"""Performance microbenchmarks of the simulation hot paths.

Not a paper experiment — these time the kernels that dominate every
signal-level sweep, so performance regressions in the DSP substrate show
up here before they silently double the Figure-13/14 runtimes.  These run
with pytest-benchmark's normal multi-round statistics (unlike the
experiment benchmarks, which execute once).
"""

import json
import os

import numpy as np
import pytest

from repro.analysis import run_sweep
from repro.core import BHSSConfig, BHSSReceiver, BHSSTransmitter, ControlLogic, LinkSimulator
from repro.dsp import apply_fir, design_excision_filter, lowpass_taps, welch_psd
from repro.jamming import BandlimitedNoiseJammer, bandlimited_noise
from repro.phy import ChipModulator
from repro.runtime import ParallelExecutor
from repro.utils.rng import make_rng
from repro.spread import SixteenAryDSSS

from _common import RESULTS_DIR

FS = 20e6
rng = make_rng(0)
BLOCK = (rng.normal(size=262144) + 1j * rng.normal(size=262144)) / np.sqrt(2)
TAPS_LPF = lowpass_taps(513, 2.5e6, FS)


@pytest.mark.benchmark(group="perf-dsp")
def test_perf_apply_fir_overlap_save(benchmark):
    benchmark(apply_fir, BLOCK, TAPS_LPF, "compensated")


@pytest.mark.benchmark(group="perf-dsp")
def test_perf_welch_psd(benchmark):
    benchmark(welch_psd, BLOCK, FS, 128)


@pytest.mark.benchmark(group="perf-dsp")
def test_perf_excision_design(benchmark):
    jammed = BLOCK + 10 * bandlimited_noise(BLOCK.size, 0.625e6, FS, rng=1)
    benchmark(design_excision_filter, jammed, FS, 257)


@pytest.mark.benchmark(group="perf-dsp")
def test_perf_bandlimited_noise(benchmark):
    benchmark(bandlimited_noise, 131072, 2.5e6, FS, 2)


@pytest.mark.benchmark(group="perf-phy")
def test_perf_modulate(benchmark):
    mod = ChipModulator("half_sine")
    chips = np.where(rng.random(4096) > 0.5, 1.0, -1.0)
    benchmark(mod.modulate, chips, 16)


@pytest.mark.benchmark(group="perf-phy")
def test_perf_demodulate(benchmark):
    mod = ChipModulator("half_sine")
    chips = np.where(rng.random(4096) > 0.5, 1.0, -1.0)
    wave = mod.modulate(chips, 16)
    benchmark(mod.demodulate, wave, 16)


@pytest.mark.benchmark(group="perf-phy")
def test_perf_despread(benchmark):
    modem = SixteenAryDSSS(seed=1)
    symbols = rng.integers(0, 16, size=256)
    chips = modem.spread(symbols)
    benchmark(modem.despread, chips)


@pytest.mark.benchmark(group="perf-system")
def test_perf_transmit_packet(benchmark):
    tx = BHSSTransmitter(BHSSConfig.paper_default(seed=3, payload_bytes=16))
    benchmark(tx.transmit, None, 0)


@pytest.mark.benchmark(group="perf-system")
def test_perf_receive_packet(benchmark):
    cfg = BHSSConfig.paper_default(seed=3, payload_bytes=16)
    packet = BHSSTransmitter(cfg).transmit()
    receiver = BHSSReceiver(cfg)
    benchmark(receiver.receive, packet.waveform)


@pytest.mark.benchmark(group="perf-system")
def test_perf_control_decision(benchmark):
    logic = ControlLogic(sample_rate=FS)
    jammed = BLOCK[:65536] + 5 * bandlimited_noise(65536, 0.625e6, FS, rng=4)
    benchmark(logic.decide, jammed, 10e6)


def _sweep_point(link, snr_db):
    """One point of the parallel-sweep benchmark (a pool runner, so module-level)."""
    stats = link.run_packets(
        4, snr_db=snr_db, sjr_db=-10.0,
        jammer=BandlimitedNoiseJammer(2.5e6, FS), seed=3,
        executor=ParallelExecutor(0), cache=False,
    )
    return {"snr_db": snr_db, "per": stats.packet_error_rate, "ber": stats.bit_error_rate}


def test_perf_parallel_sweep_speedup():
    """Parallel sweep engine: bit-identical to serial, tracked speedup.

    Times a multi-point link sweep once serially and once across a
    4-process pool, asserts the results match exactly (the engine's
    determinism contract), and writes the wall times to a BENCH JSON so
    the speedup is tracked across PRs.  The >= 2x speedup assertion only
    applies on machines with >= 4 cores — on smaller runners the pool
    path is still exercised and timed, just not held to the ratio.
    """
    workers = 4
    cfg = BHSSConfig.paper_default(payload_bytes=4, seed=17)
    link = LinkSimulator(cfg)
    snrs = [float(s) for s in np.linspace(0.0, 18.0, 8)]
    serial = ParallelExecutor(0)
    columns = ["snr_db", "per", "ber"]
    base = run_sweep(columns, snrs, _sweep_point, link, executor=serial)
    pool = run_sweep(columns, snrs, _sweep_point, link, executor=ParallelExecutor(workers))
    assert pool.rows == base.rows  # determinism: parallel == serial, bit for bit

    speedup = base.timing.wall_seconds / pool.timing.wall_seconds
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_parallel_sweep.json"), "w") as fh:
        json.dump(
            {
                "points": len(snrs),
                "packets_per_point": 4,
                "workers": workers,
                "cpu_count": os.cpu_count(),
                "serial": base.timing.to_dict(),
                "parallel": pool.timing.to_dict(),
                "speedup": speedup,
            },
            fh,
            indent=2,
        )
    print(f"\nparallel sweep speedup: {speedup:.2f}x "
          f"(serial {base.timing.wall_seconds:.2f} s, pool {pool.timing.wall_seconds:.2f} s)")
    if ParallelExecutor.fork_available() and (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, f"expected >= 2x speedup on >= 4 cores, got {speedup:.2f}x"
