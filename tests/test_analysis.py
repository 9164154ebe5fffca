"""Unit tests for the analysis harness (thresholds, sweeps)."""

import os

import numpy as np
import pytest

from repro.analysis import (
    SweepResult,
    ThresholdSearch,
    env_scale,
    min_snr_for_per,
    power_advantage_db,
    run_sweep,
    write_csv,
)
from repro.core import BHSSConfig, LinkSimulator
from repro.jamming import BandlimitedNoiseJammer


def make_link(**kw):
    filtering = kw.pop("filtering", True)
    cfg = BHSSConfig.paper_default(payload_bytes=4, seed=21, **kw)
    if not filtering:
        cfg = cfg.without_filtering()
    return LinkSimulator(cfg)


FAST = ThresholdSearch(snr_low=-10.0, snr_high=30.0, tolerance_db=2.0, packets_per_point=6)


class TestThresholdSearch:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdSearch(target_per=0.0)
        with pytest.raises(ValueError):
            ThresholdSearch(snr_low=10.0, snr_high=0.0)
        with pytest.raises(ValueError):
            ThresholdSearch(tolerance_db=0.0)
        with pytest.raises(ValueError):
            ThresholdSearch(packets_per_point=0)

    def test_unjammed_threshold_is_low(self):
        link = make_link(fixed_bandwidth=10e6)
        t = min_snr_for_per(link, search=FAST, seed=1)
        assert t < 15.0

    def test_matched_strong_jammer_censored_high(self):
        link = make_link(fixed_bandwidth=10e6)
        jam = BandlimitedNoiseJammer(10e6, 20e6)
        t = min_snr_for_per(link, sjr_db=-25.0, jammer=jam, search=FAST, seed=2)
        assert t == FAST.snr_high  # hopeless: censored at the top

    def test_threshold_monotone_in_jammer_power(self):
        link = make_link(fixed_bandwidth=10e6, filtering=False)
        jam = BandlimitedNoiseJammer(10e6, 20e6)
        t_weak = min_snr_for_per(link, sjr_db=5.0, jammer=jam, search=FAST, seed=3)
        t_strong = min_snr_for_per(link, sjr_db=-8.0, jammer=jam, search=FAST, seed=3)
        assert t_strong >= t_weak

    def test_power_advantage_of_filtering(self):
        """The paper's core claim at one canonical point: narrow jammer,
        wide signal — filtering buys double-digit dB."""
        jam_factory = lambda: BandlimitedNoiseJammer(0.625e6, 20e6)
        adv, t_base, t_filt = power_advantage_db(
            make_link(fixed_bandwidth=10e6, filtering=False),
            make_link(fixed_bandwidth=10e6),
            sjr_db=-15.0,
            jammer_factory=jam_factory,
            search=FAST,
            seed=4,
        )
        assert adv > 5.0
        assert t_base > t_filt


def _square_record(_payload, x):
    return {"x": x, "y": x * x}


def _sum_record(offset, point):
    a, b = point  # tuple points arrive whole
    return {"s": offset + a + b}


class TestSweepResult:
    def test_add_and_columns(self):
        r = SweepResult(columns=("a", "b"))
        r.add(a=1, b=2)
        r.add(b=4, a=3)
        assert r.column("a") == [1, 3]
        assert r.as_table_rows() == [[1, 2], [3, 4]]

    def test_missing_column_raises(self):
        r = SweepResult(columns=("a", "b"))
        with pytest.raises(ValueError):
            r.add(a=1)

    def test_unknown_column_raises(self):
        r = SweepResult(columns=("a",))
        with pytest.raises(KeyError):
            r.column("z")

    def test_filtered(self):
        r = SweepResult(columns=("kind", "v"))
        r.add(kind="x", v=1)
        r.add(kind="y", v=2)
        r.add(kind="x", v=3)
        assert r.filtered(kind="x").column("v") == [1, 3]

    def test_run_sweep_scalars(self):
        r = run_sweep(["x", "y"], [1, 2, 3], _square_record)
        assert r.column("y") == [1, 4, 9]

    def test_run_sweep_tuples(self):
        r = run_sweep(["s"], [(1, 2), (3, 4)], _sum_record, 10)
        assert r.column("s") == [13, 17]

    def test_write_csv(self, tmp_path):
        r = SweepResult(columns=("a", "b"))
        r.add(a=1, b=2.5)
        path = write_csv(r, str(tmp_path / "out" / "r.csv"))
        text = open(path).read()
        assert "a,b" in text and "1,2.5" in text


class TestEnvScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert env_scale() == 1.0

    def test_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert env_scale() == 2.5

    def test_bad_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "abc")
        with pytest.raises(ValueError):
            env_scale()

    def test_nonpositive_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0")
        with pytest.raises(ValueError):
            env_scale()
