"""Checkpoint/resume tests: interrupted sweeps resume bit-identically.

The contract under test: a sweep killed mid-run (SIGINT at the
supervisor, a worker dying, a crashed process) leaves an atomic
checkpoint of its completed grid points, and rerunning the same sweep
recomputes *only* the unfinished points — with final rows bit-identical
to an uninterrupted run, because records round-trip through JSON
exactly and merge in grid order.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.analysis import run_sweep
from repro.runtime import (
    ParallelExecutor,
    SweepCheckpoint,
    TaskFailure,
    make_checkpoint,
    resolve_checkpoint_dir,
    stable_hash,
)
from repro.scenario import Scenario, run_scenario

FORK = ParallelExecutor.fork_available()
needs_fork = pytest.mark.skipif(not FORK, reason="fork start method unavailable")

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO = os.path.join(REPO, "examples", "scenarios", "tone_excision.json")


@pytest.fixture(autouse=True)
def _no_ambient_knobs(monkeypatch):
    for var in ("REPRO_FAULTS", "REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_CHECKPOINT"):
        monkeypatch.delenv(var, raising=False)


class TestResolveCheckpointDir:
    def test_unset_and_off_disable(self, monkeypatch):
        assert resolve_checkpoint_dir() is None
        for off in ("0", "off", "no", "false", ""):
            monkeypatch.setenv("REPRO_CHECKPOINT", off)
            assert resolve_checkpoint_dir() is None

    def test_on_selects_default_dir(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT", "1")
        path = resolve_checkpoint_dir()
        assert path is not None and path.endswith(os.path.join("repro-bhss", "checkpoints"))

    def test_path_value(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHECKPOINT", str(tmp_path / "ck"))
        assert resolve_checkpoint_dir() == str(tmp_path / "ck")


class TestSweepCheckpoint:
    def test_roundtrip(self, tmp_path):
        ck = SweepCheckpoint(str(tmp_path), "k" * 40, total=4)
        ck.record(0, {"per": 0.125})
        ck.record(3, {"per": 0.5})
        fresh = SweepCheckpoint(str(tmp_path), "k" * 40, total=4)
        assert fresh.load() == {0: {"per": 0.125}, 3: {"per": 0.5}}

    def test_float_bit_exact_roundtrip(self, tmp_path):
        value = {"per": 0.1 + 0.2, "snr": 1e-17, "t": 3.141592653589793}
        ck = SweepCheckpoint(str(tmp_path), "key", total=1)
        ck.record(0, value)
        loaded = SweepCheckpoint(str(tmp_path), "key", total=1).load()
        assert loaded[0] == value  # exact equality, not approx

    def test_interval_batches_flushes(self, tmp_path):
        ck = SweepCheckpoint(str(tmp_path), "key", total=10, interval=3)
        ck.record(0, {})
        ck.record(1, {})
        assert not os.path.exists(ck.path)
        ck.record(2, {})
        assert os.path.exists(ck.path)

    def test_wrong_key_or_total_ignored(self, tmp_path):
        ck = SweepCheckpoint(str(tmp_path), "aaa", total=2)
        ck.record(0, {"v": 1})
        assert SweepCheckpoint(str(tmp_path), "aaa", total=3).load() == {}
        other = SweepCheckpoint(str(tmp_path), "bbb", total=2)
        assert other.load() == {}  # different key -> different file

    def test_corrupt_checkpoint_ignored_with_warning(self, tmp_path):
        ck = SweepCheckpoint(str(tmp_path), "key", total=2)
        ck.record(0, {"v": 1})
        with open(ck.path) as fh:
            doc = json.load(fh)
        doc["payload"]["done"]["0"] = {"v": 999}  # tamper without re-hashing
        with open(ck.path, "w") as fh:
            json.dump(doc, fh)
        with pytest.warns(RuntimeWarning, match="checksum"):
            assert SweepCheckpoint(str(tmp_path), "key", total=2).load() == {}

    def test_unparsable_checkpoint_ignored(self, tmp_path):
        ck = SweepCheckpoint(str(tmp_path), "key", total=2)
        ck.record(0, {"v": 1})
        with open(ck.path, "w") as fh:
            fh.write("{nope")
        assert SweepCheckpoint(str(tmp_path), "key", total=2).load() == {}

    def test_out_of_range_index_ignored(self, tmp_path):
        ck = SweepCheckpoint(str(tmp_path), "key", total=2)
        ck.record(1, {"v": 1})
        assert SweepCheckpoint(str(tmp_path), "key", total=1).load() == {}

    def test_complete_removes_file(self, tmp_path):
        ck = SweepCheckpoint(str(tmp_path), "key", total=1)
        ck.record(0, {"v": 1})
        assert os.path.exists(ck.path)
        ck.complete()
        assert not os.path.exists(ck.path)

    def test_unwritable_dir_warns_once_and_continues(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        ck = SweepCheckpoint(str(blocker / "sub"), "key", total=2)
        with pytest.warns(RuntimeWarning, match="cannot write sweep checkpoint"):
            ck.record(0, {"v": 1})
        ck.record(1, {"v": 2})  # second flush failure is silent
        assert ck.completed() == {0: {"v": 1}, 1: {"v": 2}}

    def test_make_checkpoint_normalization(self, tmp_path, monkeypatch):
        assert make_checkpoint(False, "k", 3) is None
        assert make_checkpoint(None, "k", 3) is None  # env unset
        monkeypatch.setenv("REPRO_CHECKPOINT", str(tmp_path))
        from_env = make_checkpoint(None, "k", 3)
        assert from_env is not None and from_env.directory == str(tmp_path)
        explicit = make_checkpoint(str(tmp_path / "x"), "k", 3)
        assert explicit is not None and explicit.directory == str(tmp_path / "x")
        ready = SweepCheckpoint(str(tmp_path), "other", 5)
        assert make_checkpoint(ready, "k", 3) is ready


# Module-level sweep evaluators: run_sweep re-imports them in pool workers.

def _interrupt_at_three(seen, x):
    seen.append(x)  # the serial path hands every point the same payload list
    if x == 3.0 and len(seen) <= 4:
        raise KeyboardInterrupt
    return TestRunSweepResume._evaluate(None, x)


def _counting(recomputed, x):
    recomputed.append(x)
    return TestRunSweepResume._evaluate(None, x)


def _fail_at_four(_payload, x):
    if x == 4.0:
        raise ValueError("grid point is broken")
    return TestRunSweepResume._evaluate(None, x)


def _interrupt_at_two(_payload, x):
    if x == 2.0:
        raise KeyboardInterrupt
    return TestRunSweepResume._evaluate(None, x)


def _constant(_payload, _point):
    return {"x": 1.0}


def _mark_then_die(paths, x):
    marks, armed = paths
    open(os.path.join(marks, f"{int(x)}.{os.getpid()}.{time.monotonic_ns()}"), "w").close()
    if x == 5.0 and os.path.exists(armed):
        os.kill(os.getpid(), signal.SIGINT)  # die mid-task
        time.sleep(10.0)  # never reached
    return _scaled(None, x)


def _scaled(_payload, x):
    return {"x": x, "y": x * 0.375}


class TestRunSweepResume:
    @staticmethod
    def _grid():
        return [float(i) for i in range(6)]

    @staticmethod
    def _evaluate(_payload, x):
        return {"x": x, "y": x / 3.0}

    def test_interrupted_serial_sweep_resumes_bit_identically(self, tmp_path):
        seen: list = []
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                ("x", "y"), self._grid(), _interrupt_at_three, seen, checkpoint=str(tmp_path)
            )
        assert os.listdir(tmp_path)  # checkpoint survived the interrupt

        recomputed: list = []
        resumed = run_sweep(
            ("x", "y"), self._grid(), _counting, recomputed, checkpoint=str(tmp_path)
        )
        baseline = run_sweep(("x", "y"), self._grid(), self._evaluate, checkpoint=False)
        assert resumed.rows == baseline.rows
        assert recomputed == [3.0, 4.0, 5.0]  # finished points were not re-run
        assert os.listdir(tmp_path) == []  # completed sweep removes its file

    def test_terminal_failure_flushes_checkpoint(self, tmp_path):
        with pytest.raises(TaskFailure) as info:
            run_sweep(
                ("x", "y"), self._grid(), _fail_at_four,
                executor=ParallelExecutor(0, retries=0), checkpoint=str(tmp_path),
            )
        assert info.value.index == 4  # names the failing grid point
        files = os.listdir(tmp_path)
        assert len(files) == 1
        with open(tmp_path / files[0]) as fh:
            done = json.load(fh)["payload"]["done"]
        assert sorted(done) == ["0", "1", "2", "3"]

    def test_env_knob_enables_checkpointing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT", str(tmp_path))

        with pytest.raises(KeyboardInterrupt):
            run_sweep(("x", "y"), self._grid(), _interrupt_at_two)
        assert os.listdir(tmp_path)
        result = run_sweep(("x", "y"), self._grid(), self._evaluate)
        baseline = run_sweep(("x", "y"), self._grid(), self._evaluate, checkpoint=False)
        assert result.rows == baseline.rows

    def test_checkpoint_key_pins_identity(self, tmp_path):
        run = lambda key: run_sweep(
            ("x", "y"), self._grid(), self._evaluate,
            checkpoint=make_checkpoint(str(tmp_path), key, 6),
        )
        result = run("run-a")
        assert result.rows == run_sweep(("x", "y"), self._grid(), self._evaluate).rows

    def test_unhashable_grid_requires_explicit_key(self, tmp_path):
        grid = [object(), object()]
        with pytest.raises(ValueError, match="checkpoint_key"):
            run_sweep(("x",), grid, _constant, checkpoint=str(tmp_path))
        result = run_sweep(
            ("x",), grid, _constant, checkpoint=str(tmp_path), checkpoint_key="objects-run"
        )
        assert result.column("x") == [1.0, 1.0]


class TestScenarioResume:
    def test_preseeded_checkpoint_skips_completed_points(self, tmp_path):
        scenario = Scenario.load(SCENARIO)
        points = scenario.points()
        baseline = run_scenario(scenario, executor=ParallelExecutor(0), cache=False)
        # Fabricate a checkpoint claiming point 0 finished with sentinel
        # values: the resumed run must trust it (skip recomputation).
        sentinel = dict(baseline.rows[0], per=0.123456789)
        ck = SweepCheckpoint(str(tmp_path), stable_hash(scenario.to_dict()), len(points))
        ck.record(0, sentinel)
        resumed = run_scenario(scenario, cache=False, checkpoint=str(tmp_path))
        assert resumed.rows[0] == sentinel
        assert resumed.rows[1:] == baseline.rows[1:]
        assert resumed.timing is not None
        assert resumed.timing.point_seconds[0] == 0.0  # not recomputed

    def test_mismatched_scenario_recomputes_everything(self, tmp_path):
        scenario = Scenario.load(SCENARIO)
        ck = SweepCheckpoint(str(tmp_path), "stale-key", len(scenario.points()))
        ck.record(0, {"snr_db": -1.0})
        baseline = run_scenario(scenario, executor=ParallelExecutor(0), cache=False)
        result = run_scenario(scenario, cache=False, checkpoint=str(tmp_path))
        assert result.rows == baseline.rows  # stale checkpoint never poisons


@needs_fork
class TestParallelInterrupt:
    def test_worker_death_checkpoints_then_resumes_bit_identically(self, tmp_path):
        """A sweep killed mid-flight (dead worker) resumes from checkpoint.

        The dying worker stands in for SIGINT/OOM against a pool child:
        the supervisor must classify it, tear the pool down cleanly, and
        the checkpoint must let a rerun skip every completed point.
        """
        ckdir = tmp_path / "ck"
        marks = tmp_path / "marks"
        marks.mkdir()
        armed = tmp_path / "armed"
        armed.touch()
        grid = [float(i) for i in range(8)]
        paths = (str(marks), str(armed))

        with pytest.raises(TaskFailure):
            run_sweep(
                ("x", "y"), grid, _mark_then_die, paths,
                executor=ParallelExecutor(2, retries=0),
                checkpoint=str(ckdir), checkpoint_key="interrupt-run",
            )
        # pool torn down cleanly: no stray children
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not multiprocessing.active_children()

        files = os.listdir(ckdir)
        assert len(files) == 1
        with open(ckdir / files[0]) as fh:
            done = {int(i) for i in json.load(fh)["payload"]["done"]}
        assert done  # something finished before the death

        armed.unlink()
        for mark in marks.iterdir():
            mark.unlink()
        resumed = run_sweep(
            ("x", "y"), grid, _mark_then_die, paths,
            executor=ParallelExecutor(2, retries=0),
            checkpoint=str(ckdir), checkpoint_key="interrupt-run",
        )
        baseline = run_sweep(("x", "y"), grid, _scaled, checkpoint=False)
        assert resumed.rows == baseline.rows
        recomputed = {int(name.split(".")[0]) for name in os.listdir(marks)}
        assert recomputed.isdisjoint(done)  # only unfinished points re-ran
        assert os.listdir(ckdir) == []
