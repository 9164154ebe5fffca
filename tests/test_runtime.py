"""Unit tests for the parallel execution runtime (pool, cache, timing)."""

import json
import os

import numpy as np
import pytest

from repro.analysis import run_sweep
from repro.core import BHSSConfig, ControlLogic, LinkSimulator
from repro.core.receiver import BHSSReceiver
from repro.jamming import BandlimitedNoiseJammer, HoppingJammer
from repro.runtime import (
    MapReport,
    ParallelExecutor,
    ResultCache,
    SweepTiming,
    canonical,
    resolve_workers,
    stable_hash,
)

FORK = ParallelExecutor.fork_available()
needs_fork = pytest.mark.skipif(not FORK, reason="fork start method unavailable")


def make_link(**kw):
    return LinkSimulator(BHSSConfig.paper_default(payload_bytes=4, seed=21, **kw))


# Module-level pool runners: map_spec re-imports them in the workers.

def _identity(_payload, x):
    return x


def _square(_payload, x):
    return x * x


def _boom(_payload, _x):
    raise RuntimeError("worker failure")


def _nested_probe(_payload, _x):
    from repro.runtime import executor as executor_module

    # Inside a pool worker the module flag is set and any nested
    # executor must take the serial path.
    return executor_module._IN_WORKER and not ParallelExecutor(8).parallel


def _x_record(_payload, x):
    return {"x": x}


def _bracket_record(_payload, p):
    return {"bracket": p, "width": p[1] - p[0]}


def _link_sweep_point(link, snr):
    stats = link.run_packets(
        3, snr_db=snr, sjr_db=-6.0,
        jammer=BandlimitedNoiseJammer(2.5e6, 20e6), seed=4,
        executor=ParallelExecutor(0), cache=False,
    )
    return {"snr": snr, "per": stats.packet_error_rate, "ber": stats.bit_error_rate}


class TestResolveWorkers:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 0
        assert not ParallelExecutor().parallel

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers() == 4

    def test_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers()

    def test_negative_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.raises(ValueError):
            resolve_workers()

    def test_one_means_serial(self):
        assert not ParallelExecutor(1).parallel


class TestParallelExecutor:
    def test_serial_map_order(self):
        ex = ParallelExecutor(0)
        assert ex.map_spec(_square, None, [3, 1, 2]).values == (9, 1, 4)

    def test_empty_items(self):
        report = ParallelExecutor(2).map_spec(_identity, None, [])
        assert report.values == ()
        assert report.wall_seconds == 0.0

    @needs_fork
    def test_pool_preserves_input_order(self):
        items = list(range(17))
        assert ParallelExecutor(4).map_spec(_identity, None, items).values == tuple(items)

    @needs_fork
    def test_pool_worker_exception_propagates(self):
        with pytest.raises(RuntimeError):
            ParallelExecutor(2).map_spec(_boom, None, [1, 2, 3])

    @needs_fork
    def test_no_nested_pools(self):
        flags = ParallelExecutor(2).map_spec(_nested_probe, None, [0, 1, 2]).values
        assert all(flags)

    def test_map_timed_report(self):
        report = ParallelExecutor(0).map_spec(_identity, None, [1, 2])
        assert isinstance(report, MapReport)
        assert len(report.seconds) == 2
        assert report.workers == 1
        assert 0.0 <= report.utilization <= 1.0


class TestCanonicalAndHash:
    def test_dict_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2.5}) == stable_hash({"b": 2.5, "a": 1})

    def test_numpy_equals_python(self):
        assert stable_hash({"x": np.float64(1.5)}) == stable_hash({"x": 1.5})
        assert canonical(np.array([1.0, 2.0])) == [repr(1.0), repr(2.0)]

    def test_distinguishes_values(self):
        assert stable_hash({"seed": 1}) != stable_hash({"seed": 2})

    def test_config_fingerprint_stable_and_discriminating(self):
        a = canonical(BHSSConfig.paper_default(seed=1))
        b = canonical(BHSSConfig.paper_default(seed=1))
        c = canonical(BHSSConfig.paper_default(seed=2))
        assert stable_hash(a) == stable_hash(b)
        assert stable_hash(a) != stable_hash(c)

    def test_inf_and_bytes(self):
        assert stable_hash(float("inf")) != stable_hash(float("-inf"))
        assert canonical(b"\x01\x02") == {"__bytes__": "0102"}


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = {"config": "x", "seed": 3}
        assert cache.get(key) is None
        cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put({"k": 1}, {"v": 1})
        path = cache._path(stable_hash({"k": 1}))
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.get({"k": 1}) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put({"k": 1}, {"v": 1})
        cache.put({"k": 2}, {"v": 2})
        assert cache.clear() == 2
        assert cache.get({"k": 1}) is None

    def test_from_env_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert ResultCache.from_env() is None
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert ResultCache.from_env() is None

    def test_from_env_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "c"))
        cache = ResultCache.from_env()
        assert cache is not None
        assert cache.root == str(tmp_path / "c")


class TestLinkParallelEquivalence:
    """Same seed => identical LinkStats, serial or pooled (the contract)."""

    @needs_fork
    def test_unjammed_batch_identical(self):
        link = make_link()
        a = link.run_packets(6, snr_db=6.0, seed=5, executor=ParallelExecutor(0), cache=False)
        b = link.run_packets(6, snr_db=6.0, seed=5, executor=ParallelExecutor(3), cache=False)
        assert a == b

    @needs_fork
    def test_jammed_batch_identical(self):
        link = make_link()
        jam = lambda: BandlimitedNoiseJammer(2.5e6, 20e6)
        a = link.run_packets(
            8, snr_db=10.0, sjr_db=-8.0, jammer=jam(), seed=2,
            executor=ParallelExecutor(0), cache=False,
        )
        b = link.run_packets(
            8, snr_db=10.0, sjr_db=-8.0, jammer=jam(), seed=2,
            executor=ParallelExecutor(4), cache=False,
        )
        assert a == b
        assert a.filter_usage == b.filter_usage

    @needs_fork
    def test_stateful_jammer_forces_serial_path(self):
        link = make_link()
        jam = lambda: HoppingJammer([10e6, 2.5e6], 20e6, dwell_samples=4096, seed=9)
        a = link.run_packets(
            5, snr_db=10.0, sjr_db=-8.0, jammer=jam(), seed=2,
            executor=ParallelExecutor(0), cache=False,
        )
        b = link.run_packets(
            5, snr_db=10.0, sjr_db=-8.0, jammer=jam(), seed=2,
            executor=ParallelExecutor(4), cache=False,
        )
        assert a == b  # pooled call fell back to the ordered serial loop

    @needs_fork
    def test_pool_ships_the_live_link(self):
        # ablation_filters swaps the receiver after construction; the pool
        # must run that very link, not one rebuilt from its config.
        cfg = BHSSConfig.paper_default(payload_bytes=4, seed=21, fixed_bandwidth=10e6)
        link = LinkSimulator(cfg)
        control = ControlLogic(sample_rate=cfg.sample_rate, pulse=cfg.pulse, peak_margin_db=500.0)
        link.receiver = BHSSReceiver(cfg, control=control)
        run = lambda lnk, workers: lnk.run_packets(
            6, snr_db=15.0, sjr_db=-10.0, jammer=BandlimitedNoiseJammer(0.625e6, 20e6),
            seed=2, executor=ParallelExecutor(workers), cache=False,
        )
        serial = run(link, 0)
        assert run(link, 2) == serial
        assert run(LinkSimulator(cfg), 0).filter_usage != serial.filter_usage

    def test_chunk_bounds_cover_range(self):
        bounds = LinkSimulator._chunk_bounds(10, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        covered = [k for a, b in bounds for k in range(a, b)]
        assert covered == list(range(10))
        assert LinkSimulator._chunk_bounds(1, 8) == [(0, 1)]

    def test_run_packets_cache_hit(self, tmp_path):
        link = make_link()
        cache = ResultCache(str(tmp_path))
        a = link.run_packets(3, snr_db=12.0, seed=7, cache=cache)
        assert cache.hits == 0
        b = link.run_packets(3, snr_db=12.0, seed=7, cache=cache)
        assert cache.hits == 1
        assert a == b

    def test_cache_distinguishes_operating_points(self, tmp_path):
        link = make_link()
        cache = ResultCache(str(tmp_path))
        link.run_packets(3, snr_db=12.0, seed=7, cache=cache)
        link.run_packets(3, snr_db=13.0, seed=7, cache=cache)
        link.run_packets(3, snr_db=12.0, seed=8, cache=cache)
        link.run_packets(4, snr_db=12.0, seed=7, cache=cache)
        assert cache.hits == 0

    def test_stateful_jammer_never_cached(self, tmp_path):
        link = make_link()
        cache = ResultCache(str(tmp_path))
        jam = lambda: HoppingJammer([10e6, 2.5e6], 20e6, dwell_samples=4096, seed=9)
        link.run_packets(3, snr_db=10.0, sjr_db=-5.0, jammer=jam(), seed=1, cache=cache)
        link.run_packets(3, snr_db=10.0, sjr_db=-5.0, jammer=jam(), seed=1, cache=cache)
        assert cache.hits == 0 and cache.misses == 0

    def test_cache_false_disables_env_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        link = make_link()
        link.run_packets(2, snr_db=12.0, seed=7, cache=False)
        link.run_packets(2, snr_db=12.0, seed=7, cache=False)
        assert not any(
            name.endswith(".json")
            for _root, _dirs, files in os.walk(tmp_path)
            for name in files
        )


class TestSweepParallelEquivalence:
    @needs_fork
    def test_link_sweep_rows_identical(self):
        link = make_link()
        grid = [0.0, 5.0, 10.0, 15.0]
        columns = ["snr", "per", "ber"]
        serial = run_sweep(columns, grid, _link_sweep_point, link, executor=ParallelExecutor(0))
        pooled = run_sweep(columns, grid, _link_sweep_point, link, executor=ParallelExecutor(4))
        assert serial.rows == pooled.rows
        assert serial == pooled  # timing differs but is excluded from equality

    def test_timing_attached(self):
        result = run_sweep(["x"], [1, 2, 3], _x_record, executor=ParallelExecutor(0))
        assert isinstance(result.timing, SweepTiming)
        assert result.timing.num_points == 3
        assert result.timing.wall_seconds > 0
        assert result.timing.workers == 1
        assert json.dumps(result.timing.to_dict())  # JSON-able for BENCH files

    def test_tuple_scalar_points_not_splatted_with_unpack_false(self):
        # Regression: a grid of (lo, hi) bracket "scalars" used to be
        # silently splatted into evaluate(lo, hi); points now always
        # arrive whole.
        grid = [(0.0, 1.0), (2.0, 5.0)]
        result = run_sweep(["bracket", "width"], grid, _bracket_record)
        assert result.column("bracket") == grid
        assert result.column("width") == [1.0, 3.0]

    def test_closure_evaluator_rejected(self):
        with pytest.raises(ValueError, match="spec runner"):
            run_sweep(["x"], [1, 2], lambda _payload, x: {"x": x})


class TestSweepTiming:
    def test_derived_quantities(self):
        t = SweepTiming(wall_seconds=2.0, point_seconds=(1.0, 1.0, 2.0), workers=2, packets=40)
        assert t.busy_seconds == 4.0
        assert t.utilization == 1.0
        assert t.points_per_second == 1.5
        assert t.packets_per_second == 20.0
        assert "pkt/s" in t.summary()

    def test_zero_wall_is_safe(self):
        t = SweepTiming(wall_seconds=0.0, point_seconds=(), workers=1)
        assert t.utilization == 0.0
        assert t.points_per_second == 0.0
        assert t.packets_per_second is None

    def test_raw_utilization_is_not_clamped(self):
        # Overlapping worker timers can report busy > workers * wall; the
        # display value clamps but the diagnostic one must not.
        t = SweepTiming(wall_seconds=1.0, point_seconds=(0.9, 0.8), workers=1)
        assert t.raw_utilization == pytest.approx(1.7)
        assert t.utilization == 1.0
        assert t.to_dict()["raw_utilization"] == pytest.approx(1.7)
        assert t.to_dict()["utilization"] == 1.0

    def test_utilization_matches_raw_when_below_one(self):
        t = SweepTiming(wall_seconds=4.0, point_seconds=(1.0, 1.0), workers=2)
        assert t.raw_utilization == pytest.approx(0.25)
        assert t.utilization == t.raw_utilization

    def test_empty_sweep(self):
        t = SweepTiming(wall_seconds=0.5, point_seconds=(), workers=4)
        assert t.num_points == 0
        assert t.busy_seconds == 0.0
        assert t.utilization == 0.0
        assert t.points_per_second == 0.0
        d = t.to_dict()
        assert d["num_points"] == 0
        assert d["point_seconds"] == []
        assert "packets" not in d
        assert t.summary().startswith("timing: 0 points")

    def test_packets_per_second_with_batch_fields(self):
        t = SweepTiming(
            wall_seconds=2.0, point_seconds=(1.0,), workers=1, packets=256, batch_size=64
        )
        assert t.packets_per_second == 128.0
        d = t.to_dict()
        assert d["packets"] == 256
        assert d["packets_per_second"] == 128.0
        assert d["batch_size"] == 64
        assert "batch 64" in t.summary()

    def test_serial_batch_size_renders_as_serial(self):
        t = SweepTiming(wall_seconds=1.0, point_seconds=(0.5,), workers=1, batch_size=1)
        assert "serial packets" in t.summary()
        assert t.to_dict()["batch_size"] == 1

    def test_unknown_batch_size_omitted(self):
        t = SweepTiming(wall_seconds=1.0, point_seconds=(0.5,), workers=1)
        assert "batch_size" not in t.to_dict()
        assert "batch" not in t.summary()

    def test_cache_hits_in_summary(self):
        t = SweepTiming(wall_seconds=1.0, point_seconds=(0.1, 0.1), workers=1, cache_hits=1)
        assert "cache hits 1/2" in t.summary()
        assert t.to_dict()["cache_hits"] == 1


class TestCacheIntegrity:
    def test_entries_are_checksummed_on_disk(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put({"k": 1}, {"per": 0.25})
        with open(cache._path(stable_hash({"k": 1}))) as fh:
            doc = json.load(fh)
        assert set(doc) == {"sha256", "value"}
        assert doc["value"] == {"per": 0.25}
        assert len(doc["sha256"]) == 64

    def test_legacy_plain_dict_entry_still_served(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = cache._path(stable_hash({"k": 1}))
        os.makedirs(os.path.dirname(path))
        with open(path, "w") as fh:
            json.dump({"per": 0.5}, fh)  # pre-checksum entry format
        assert cache.get({"k": 1}) == {"per": 0.5}
        assert cache.corrupt == 0

    def test_checksum_mismatch_quarantined_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put({"k": 1}, {"per": 0.25})
        path = cache._path(stable_hash({"k": 1}))
        with open(path) as fh:
            doc = json.load(fh)
        doc["value"]["per"] = 0.75  # tamper without re-hashing
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get({"k": 1}) is None
        assert cache.corrupt == 1 and cache.misses == 1
        assert not os.path.exists(path)  # moved aside, never served again
        assert os.listdir(os.path.join(str(tmp_path), "quarantine"))

    def test_undecodable_bytes_are_corrupt(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put({"k": 1}, {"per": 0.25})
        path = cache._path(stable_hash({"k": 1}))
        with open(path, "wb") as fh:
            fh.write(b"\xff\xfe garbage")
        with pytest.warns(RuntimeWarning):
            assert cache.get({"k": 1}) is None

    def test_verify_counts_and_gc_cleans(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put({"k": 1}, {"v": 1})
        cache.put({"k": 2}, {"v": 2})
        legacy = cache._path(stable_hash({"k": 3}))
        os.makedirs(os.path.dirname(legacy), exist_ok=True)
        with open(legacy, "w") as fh:
            json.dump({"v": 3}, fh)
        bad = cache._path(stable_hash({"k": 1}))
        with open(bad, "a") as fh:
            fh.write("bit rot")
        audit = cache.verify()
        assert (audit.entries, audit.valid, audit.legacy, audit.corrupt) == (3, 1, 1, 1)
        assert audit.corrupt_paths == (bad,)
        assert not audit.ok
        swept = cache.gc()
        assert swept.removed == 1 and swept.ok
        assert (swept.entries, swept.valid, swept.legacy) == (2, 1, 1)
        assert cache.verify().ok  # verify is read-only; gc actually cleaned

    def test_gc_removes_quarantined_and_tmp_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put({"k": 1}, {"v": 1})
        path = cache._path(stable_hash({"k": 1}))
        with open(path, "w") as fh:
            fh.write("{nope")
        with pytest.warns(RuntimeWarning):
            cache.get({"k": 1})  # quarantines
        stray = os.path.join(str(tmp_path), "ab", "leftover.tmp")
        os.makedirs(os.path.dirname(stray), exist_ok=True)
        with open(stray, "w") as fh:
            fh.write("partial write")
        assert cache.verify().quarantined == 1
        swept = cache.gc()
        assert swept.removed == 2  # the quarantined entry + the stray tmp
        assert swept.quarantined == 0
        assert not os.path.exists(stray)

    def test_put_on_unwritable_root_warns_once_and_degrades(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file where the cache root should be")
        cache = ResultCache(str(blocker))
        with pytest.warns(RuntimeWarning, match="cannot write result cache"):
            cache.put({"k": 1}, {"v": 1})
        cache.put({"k": 2}, {"v": 2})  # second failure is silent
        assert cache.get({"k": 1}) is None  # sweep just runs uncached

    def test_put_still_raises_on_unjsonable_value(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(TypeError):
            cache.put({"k": 1}, {"v": object()})


class TestRetriesReporting:
    def test_map_report_defaults_to_zero_retries(self):
        report = MapReport(values=(1,), seconds=(0.5,), wall_seconds=0.5, workers=1)
        assert report.retries == 0

    def test_sweep_timing_retries_in_dict_and_summary(self):
        t = SweepTiming(wall_seconds=1.0, point_seconds=(0.5,), workers=2, retries=3)
        assert t.to_dict()["retries"] == 3
        assert "retries 3" in t.summary()

    def test_sweep_timing_zero_retries_omitted(self):
        t = SweepTiming(wall_seconds=1.0, point_seconds=(0.5,), workers=2)
        assert "retries" not in t.to_dict()
        assert "retries" not in t.summary()
