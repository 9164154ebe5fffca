"""Regenerate the golden DSP vectors and the example CSVs.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

The vectors (``golden_vectors.npz``) freeze the *serial* reference
pipeline's output for a fixed, fully seeded scenario: the transmitted
waveform at every hop stretch factor, the eq.-3 excision taps designed
against a tone jammer, and the despread soft-decision outputs.
``tests/test_golden_vectors.py`` then checks that both the serial and the
batched pipelines still reproduce them — a drift detector that pins
today's numerics, not just serial/batched agreement.

``examples/<name>.csv`` is what ``repro-bhss run -o`` writes for each
bundled ``examples/scenarios/<name>.json``, run serially with every
``REPRO_*`` variable cleared; the same test module reruns each spec and
compares the bytes.

Only regenerate after an *intentional* numerics change, and say why in
the commit message.
"""

from __future__ import annotations

import glob
import os

import numpy as np

from repro.analysis import write_csv
from repro.cli import run_spec_file
from repro.core.config import BHSSConfig
from repro.core.control import ControlLogic
from repro.jamming.registry import ToneJammer
from repro.phy.qpsk import ChipModulator

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT = os.path.join(HERE, "golden_vectors.npz")
EXAMPLE_CSVS = os.path.join(HERE, "examples")
EXAMPLE_SPECS = sorted(
    glob.glob(os.path.join(os.path.dirname(os.path.dirname(HERE)), "examples", "scenarios", "*.json"))
)

# Every generation input is pinned here; the test imports these so the
# recomputation can't drift away from the fixture's provenance.
MODEM_SEED = 21
SYMBOLS = np.array([3, 14, 0, 7, 9, 12, 1, 5], dtype=np.int64)
START_CHIP = 96
NOISE_SEED = 2024
NOISE_SCALE = 0.05
TONE_FREQ = 1.25e6
TONE_BLOCK = 4096
TONE_SJR_SCALE = 3.0  # tone amplitude relative to unit signal power


def build_pieces():
    config = BHSSConfig.paper_default(seed=11)
    modem = config.build_modem()
    modulator = ChipModulator(config.pulse)
    control = ControlLogic(
        sample_rate=config.sample_rate,
        excision_taps=config.excision_taps,
        lpf_transition_fraction=config.lpf_transition_fraction,
        pulse=config.pulse,
    )
    return config, modem, modulator, control


def generate() -> dict[str, np.ndarray]:
    config, modem, modulator, control = build_pieces()
    vectors: dict[str, np.ndarray] = {"symbols": SYMBOLS}

    chips = modem.spread(SYMBOLS, start_chip=START_CHIP)
    vectors["chips"] = chips

    # -- transmit waveform per hop stretch factor --------------------------
    for bandwidth in config.bandwidth_set.bandwidths:
        sps = config.bandwidth_set.sps(bandwidth)
        vectors[f"tx_wave_sps{sps}"] = modulator.modulate(chips, sps)

    # -- excision taps against a tone jammer -------------------------------
    rng = np.random.default_rng(NOISE_SEED)
    tone = ToneJammer(TONE_FREQ, config.sample_rate).waveform(TONE_BLOCK)
    noise = (
        rng.standard_normal(TONE_BLOCK) + 1j * rng.standard_normal(TONE_BLOCK)
    ) * NOISE_SCALE
    jammed_block = TONE_SJR_SCALE * tone + noise
    vectors["jammed_block"] = jammed_block
    vectors["excision_taps"] = control.excision_for(jammed_block)

    # -- despread soft symbols ---------------------------------------------
    sps = config.bandwidth_set.sps(config.bandwidth_set.bandwidths[2])
    wave = vectors[f"tx_wave_sps{sps}"]
    noisy = wave + NOISE_SCALE * (
        rng.standard_normal(wave.size) + 1j * rng.standard_normal(wave.size)
    )
    vectors["rx_wave"] = noisy
    soft = modulator.demodulate(noisy, sps, num_chips=chips.size)
    vectors["soft_chips"] = soft
    result = modem.despread(soft, start_chip=START_CHIP)
    vectors["despread_symbols"] = result.symbols
    vectors["despread_scores"] = result.scores
    vectors["despread_quality"] = result.quality
    return vectors


def example_name(spec_path: str) -> str:
    return os.path.splitext(os.path.basename(spec_path))[0]


def write_example_csv(spec_path: str, out_path: str) -> str:
    """``repro-bhss run <spec> -o <out_path>``, serial, ``REPRO_*`` cleared."""
    for knob in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[knob]
    return write_csv(run_spec_file(spec_path), out_path)


def main() -> None:
    vectors = generate()
    np.savez_compressed(OUTPUT, **vectors)
    total = sum(v.nbytes for v in vectors.values())
    print(f"wrote {OUTPUT}: {len(vectors)} arrays, {total / 1024:.0f} KiB uncompressed")
    for spec_path in EXAMPLE_SPECS:
        csv_path = os.path.join(EXAMPLE_CSVS, f"{example_name(spec_path)}.csv")
        print(f"wrote {write_example_csv(spec_path, csv_path)}")


if __name__ == "__main__":
    main()
