"""Golden-vector regression tests for the DSP pipeline.

``tests/golden/golden_vectors.npz`` freezes the serial reference outputs
for a pinned scenario (see ``tests/golden/regenerate.py``).  Two layers of
checking:

* the serial pipeline still reproduces the frozen vectors (``allclose``
  with a tight tolerance — catches accidental numerics drift);
* the batched pipeline reproduces the serial pipeline **exactly**
  (``array_equal`` — the bit-for-bit contract, on the same fixed data the
  fixtures pin down).

Every bundled example spec's ``run -o`` CSV is pinned byte for byte too.
"""

import os

import numpy as np
import pytest

from tests.golden.regenerate import (
    EXAMPLE_CSVS,
    EXAMPLE_SPECS,
    OUTPUT,
    START_CHIP,
    SYMBOLS,
    build_pieces,
    example_name,
    generate,
    write_example_csv,
)

pytestmark = pytest.mark.skipif(
    not os.path.exists(OUTPUT), reason="golden fixture missing; run tests/golden/regenerate.py"
)


@pytest.fixture(scope="module")
def golden():
    with np.load(OUTPUT) as data:
        return {k: data[k] for k in data.files}


@pytest.fixture(scope="module")
def regenerated():
    return generate()


class TestSerialMatchesGolden:
    def test_same_vector_set(self, golden, regenerated):
        assert sorted(golden) == sorted(regenerated)

    def test_chips_exact(self, golden, regenerated):
        np.testing.assert_array_equal(golden["chips"], regenerated["chips"])

    def test_all_vectors_close(self, golden, regenerated):
        for name, frozen in golden.items():
            np.testing.assert_allclose(
                regenerated[name], frozen, rtol=1e-10, atol=1e-12, err_msg=name
            )

    def test_despread_decisions_exact(self, golden, regenerated):
        # Decisions are integers; "close" is not a meaningful notion.
        np.testing.assert_array_equal(
            golden["despread_symbols"], regenerated["despread_symbols"]
        )


class TestBatchedMatchesSerial:
    """Batched primitives on the golden inputs, compared exactly."""

    def test_tx_waveform_per_alpha(self, golden):
        config, modem, modulator, _ = build_pieces()
        chips = modem.spread(SYMBOLS, start_chip=START_CHIP)
        for bandwidth in config.bandwidth_set.bandwidths:
            sps = config.bandwidth_set.sps(bandwidth)
            stacked = modulator.modulate_batch(np.stack([chips, chips[::-1]]), sps)
            np.testing.assert_array_equal(stacked[0], golden[f"tx_wave_sps{sps}"])
            np.testing.assert_array_equal(
                stacked[1], modulator.modulate(chips[::-1], sps)
            )

    def test_excision_taps_for_tone(self, golden):
        _, _, _, control = build_pieces()
        block = golden["jammed_block"]
        stacked = control.excision_for_batch(np.stack([block, block]))
        np.testing.assert_array_equal(stacked[0], golden["excision_taps"])
        np.testing.assert_array_equal(stacked[1], golden["excision_taps"])

    def test_despread_soft_symbols(self, golden):
        config, modem, modulator, _ = build_pieces()
        sps = config.bandwidth_set.sps(config.bandwidth_set.bandwidths[2])
        noisy = golden["rx_wave"]
        num_chips = golden["chips"].size
        soft = modulator.demodulate_batch(
            np.stack([noisy, noisy]), sps, num_chips=num_chips
        )
        np.testing.assert_array_equal(soft[0], golden["soft_chips"])
        result = modem.despread_batch(soft, start_chip=START_CHIP)
        np.testing.assert_array_equal(result.symbols[0], golden["despread_symbols"])
        np.testing.assert_array_equal(result.scores[0], golden["despread_scores"])
        np.testing.assert_array_equal(result.quality[0], golden["despread_quality"])


class TestExampleCsvs:
    """``repro-bhss run -o`` on every bundled example spec, byte for byte."""

    def test_every_example_is_pinned(self):
        pinned = sorted(f[: -len(".csv")] for f in os.listdir(EXAMPLE_CSVS))
        assert len(EXAMPLE_SPECS) == 9
        assert pinned == [example_name(p) for p in EXAMPLE_SPECS]

    @pytest.mark.parametrize("spec_path", EXAMPLE_SPECS, ids=example_name)
    def test_csv_bytes_unchanged(self, spec_path, tmp_path, monkeypatch):
        for knob in [k for k in os.environ if k.startswith("REPRO_")]:
            monkeypatch.delenv(knob)
        out = write_example_csv(spec_path, str(tmp_path / "out.csv"))
        with open(out, "rb") as got, open(
            os.path.join(EXAMPLE_CSVS, f"{example_name(spec_path)}.csv"), "rb"
        ) as pinned:
            assert got.read() == pinned.read()
