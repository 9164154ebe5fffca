"""Chaos tests: deterministic fault injection proves every recovery path.

The acceptance bar of the fault-tolerant runtime is not "handles errors"
but "finishes with **bit-identical** results": under injected crashes,
hangs and cache corruption, a sweep must produce exactly the rows a
fault-free serial run produces.  These tests inject each fault kind
through ``REPRO_FAULTS`` (seeded, so every run injects the same faults)
and compare against fault-free baselines with plain ``==``.
"""

import multiprocessing
import os
import time

import pytest

from repro.analysis import run_sweep
from repro.runtime import (
    FaultPlan,
    InjectedCrash,
    ParallelExecutor,
    ResultCache,
    TaskError,
    TaskFailure,
    TaskTimeout,
    WorkerCrash,
    resolve_retries,
    resolve_timeout,
)
from repro.scenario import Scenario, run_scenario

FORK = ParallelExecutor.fork_available()
needs_fork = pytest.mark.skipif(not FORK, reason="fork start method unavailable")

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO = os.path.join(REPO, "examples", "scenarios", "tone_excision.json")


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """Fault/supervision knobs must come only from each test."""
    for var in ("REPRO_FAULTS", "REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_CHECKPOINT"):
        monkeypatch.delenv(var, raising=False)


# Module-level pool runners: map_spec re-imports them in the workers.

def _identity(_payload, x):
    return x


def _times(k, x):
    return x * k


def _plus(k, x):
    return x + k


def _append_then_interrupt(calls, x):
    calls.append(x)  # the serial path hands every item the same payload list
    raise KeyboardInterrupt


def _fail_on_two(_payload, x):
    if x == 2:
        raise ValueError("bad point")
    return x


def _sleep_in_workers(seconds, x):
    from repro.runtime import executor as executor_module

    if executor_module._IN_WORKER:
        time.sleep(seconds)
    return x


def _die_on_one(_payload, x):
    if x == 1:
        os._exit(17)
    return x


def _sum_record(_payload, point):
    a, b = point
    return {"a": a, "b": b, "s": a + b}


def crashing_seed(n_tasks: int, probability: float = 0.5, kind: str = "crash") -> int:
    """A fault seed under which at least one of ``n_tasks`` draws fires."""
    for seed in range(1000):
        plan = FaultPlan(**{kind.replace("-", "_"): probability}, seed=seed)
        if any(plan.should(kind, str(i)) for i in range(n_tasks)):
            return seed
    raise AssertionError("no firing seed found — probabilities broken?")


class TestFaultPlanParsing:
    def test_full_spec(self):
        plan = FaultPlan.parse("crash:0.05, hang:0.02, corrupt-cache:0.01, seed:7")
        assert plan == FaultPlan(crash=0.05, hang=0.02, corrupt_cache=0.01, seed=7)

    def test_defaults_are_all_off(self):
        plan = FaultPlan.parse("")
        assert plan.crash == plan.hang == plan.corrupt_cache == 0.0
        assert not plan.should("crash", "0")

    def test_hang_seconds(self):
        assert FaultPlan.parse("hang:1,hang-seconds:0.25").hang_seconds == 0.25

    def test_unknown_kind_names_source(self):
        with pytest.raises(ValueError, match="REPRO_FAULTS.*oom"):
            FaultPlan.parse("oom:0.5")

    def test_bad_probability_raises(self):
        with pytest.raises(ValueError, match="must be a number"):
            FaultPlan.parse("crash:lots")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultPlan.parse("crash:1.5")

    def test_entry_without_value_raises(self):
        with pytest.raises(ValueError, match="kind:value"):
            FaultPlan.parse("crash")

    def test_bad_seed_and_hang_seconds(self):
        with pytest.raises(ValueError, match="seed must be an integer"):
            FaultPlan.parse("seed:x")
        with pytest.raises(ValueError, match="hang-seconds must be positive"):
            FaultPlan.parse("hang-seconds:0")

    def test_from_env(self, monkeypatch):
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "  ")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "crash:0.5,seed:3")
        assert FaultPlan.from_env() == FaultPlan(crash=0.5, seed=3)

    def test_protocol_kinds_parse_into_fields(self):
        plan = FaultPlan.parse("drop-handshake:0.3, desync:0.2, seed:9")
        assert plan == FaultPlan(drop_handshake=0.3, desync=0.2, seed=9)
        assert plan.crash == plan.hang == plan.corrupt_cache == 0.0

    def test_duplicate_kind_rejected_with_kind_named(self):
        with pytest.raises(ValueError, match="'crash' appears more than once"):
            FaultPlan.parse("crash:0.1,crash:0.2")
        with pytest.raises(ValueError, match="'desync' appears more than once"):
            FaultPlan.parse("desync:0.1,hang:0.2,desync:0.1")


class TestFaultDeterminism:
    def test_should_is_pure(self):
        plan = FaultPlan(crash=0.5, seed=4)
        draws = [plan.should("crash", "11") for _ in range(10)]
        assert len(set(draws)) == 1

    def test_decisions_vary_across_indices_and_seeds(self):
        plan = FaultPlan(crash=0.5, seed=crashing_seed(16))
        per_index = [plan.should("crash", str(i)) for i in range(16)]
        assert any(per_index) and not all(per_index)

    def test_certain_crash_fires_only_on_first_attempt(self):
        plan = FaultPlan(crash=1.0)
        with pytest.raises(InjectedCrash):
            plan.maybe_inject(0, 0)
        plan.maybe_inject(0, 1)  # retries are never re-faulted

    def test_zero_probability_never_fires(self):
        plan = FaultPlan()
        for i in range(32):
            assert not plan.should("crash", str(i))

    def test_should_rejects_unknown_kind_by_name(self):
        plan = FaultPlan(crash=0.5)
        with pytest.raises(ValueError, match="unknown fault kind 'oom'"):
            plan.should("oom", "0")

    def test_protocol_kind_draws_are_independent_substreams(self):
        seed = crashing_seed(16, kind="desync")
        plan = FaultPlan(drop_handshake=0.5, desync=0.5, seed=seed)
        desync = [plan.should("desync", str(i)) for i in range(16)]
        drops = [plan.should("drop-handshake", str(i)) for i in range(16)]
        assert any(desync)
        assert desync != drops  # keyed per-kind, not a shared coin


class TestResolvers:
    def test_timeout_unset_and_zero_mean_no_limit(self, monkeypatch):
        assert resolve_timeout() is None
        monkeypatch.setenv("REPRO_TIMEOUT", "0")
        assert resolve_timeout() is None

    def test_timeout_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
        assert resolve_timeout() == 2.5

    def test_timeout_garbage_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_TIMEOUT"):
            resolve_timeout()
        monkeypatch.setenv("REPRO_TIMEOUT", "-3")
        with pytest.raises(ValueError, match="REPRO_TIMEOUT"):
            resolve_timeout()

    def test_retries_default_and_values(self, monkeypatch):
        assert resolve_retries() == 2
        monkeypatch.setenv("REPRO_RETRIES", "0")
        assert resolve_retries() == 0
        monkeypatch.setenv("REPRO_RETRIES", "5")
        assert resolve_retries() == 5

    def test_retries_garbage_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "-1")
        with pytest.raises(ValueError, match="REPRO_RETRIES"):
            resolve_retries()
        monkeypatch.setenv("REPRO_RETRIES", "many")
        with pytest.raises(ValueError, match="REPRO_RETRIES"):
            resolve_retries()

    def test_executor_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "9")
        monkeypatch.setenv("REPRO_RETRIES", "4")
        ex = ParallelExecutor(2)
        assert ex.timeout == 9.0 and ex.retries == 4
        explicit = ParallelExecutor(2, timeout=0, retries=0)
        assert explicit.timeout is None and explicit.retries == 0


class TestSerialRecovery:
    def test_crash_faults_recover_bit_identically(self, monkeypatch):
        items = list(range(8))
        baseline = ParallelExecutor(0).map_spec(_times, 1.5, items).values
        seed = crashing_seed(len(items))
        monkeypatch.setenv("REPRO_FAULTS", f"crash:0.5,seed:{seed}")
        report = ParallelExecutor(0, retries=2).map_spec(_times, 1.5, items)
        assert report.values == baseline
        assert report.retries > 0

    def test_keyboard_interrupt_is_never_retried(self):
        calls: list = []
        with pytest.raises(KeyboardInterrupt):
            ParallelExecutor(0, retries=5).map_spec(_append_then_interrupt, calls, [1, 2, 3])
        assert calls == [1]

    def test_terminal_task_error_carries_index_and_cause(self):
        with pytest.raises(TaskError) as info:
            ParallelExecutor(0, retries=1).map_spec(_fail_on_two, None, [0, 1, 2, 3])
        assert info.value.index == 2
        assert info.value.attempts == 2
        assert isinstance(info.value.__cause__, ValueError)
        assert isinstance(info.value, TaskFailure)
        assert isinstance(info.value, RuntimeError)  # historical except clauses

    def test_terminal_injected_crash_is_worker_crash(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:1.0")
        with pytest.raises(WorkerCrash) as info:
            ParallelExecutor(0, retries=0).map_spec(_identity, None, [0, 1])
        assert info.value.index == 0
        assert info.value.attempts == 1


@needs_fork
class TestPoolRecovery:
    def test_crash_faults_recover_bit_identically(self, monkeypatch):
        items = list(range(10))
        baseline = ParallelExecutor(0).map_spec(_plus, 0.25, items).values
        seed = crashing_seed(len(items))
        monkeypatch.setenv("REPRO_FAULTS", f"crash:0.5,seed:{seed}")
        report = ParallelExecutor(3, retries=2).map_spec(_plus, 0.25, items)
        assert report.values == baseline
        assert report.retries > 0

    def test_hang_faults_recover_via_timeout(self, monkeypatch):
        items = list(range(6))
        baseline = ParallelExecutor(0).map_spec(_times, 3, items).values
        seed = crashing_seed(len(items), kind="hang")
        monkeypatch.setenv("REPRO_FAULTS", f"hang:0.5,hang-seconds:5,seed:{seed}")
        report = ParallelExecutor(2, timeout=0.3, retries=2).map_spec(_times, 3, items)
        assert report.values == baseline
        assert report.retries > 0

    def test_timeout_terminal_is_task_timeout(self):
        with pytest.raises(TaskTimeout) as info:
            ParallelExecutor(2, timeout=0.2, retries=0).map_spec(_sleep_in_workers, 5.0, [0, 1, 2])
        assert info.value.timeout == 0.2
        assert info.value.attempts == 1

    def test_dead_child_is_worker_crash(self):
        with pytest.raises(WorkerCrash):
            ParallelExecutor(2, retries=0).map_spec(_die_on_one, None, [0, 1, 2])

    def test_unhealthy_pool_degrades_to_serial(self):
        # Hang in pool workers on *every* attempt: timeouts burn pool
        # restarts until the supervisor abandons the pool, and the serial
        # tail (where _IN_WORKER is false) must still finish the map.
        report = ParallelExecutor(2, timeout=0.2, retries=100).map_spec(
            _sleep_in_workers, 30.0, list(range(4))
        )
        assert report.values == (0, 1, 2, 3)

    def test_supervisor_interrupt_tears_down_pool(self):
        def interrupt(_index, _value):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ParallelExecutor(2).map_spec(_identity, None, range(8), on_result=interrupt)
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not multiprocessing.active_children()


class TestCacheCorruptionRecovery:
    def test_corrupted_put_is_detected_and_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt-cache:1.0")
        store = ResultCache(str(tmp_path))
        store.put({"k": 1}, {"v": 2.5})
        # the injected bit-flip must break the checksum, never serve garbage
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert store.get({"k": 1}) is None
        assert store.corrupt == 1
        assert os.path.isdir(os.path.join(str(tmp_path), "quarantine"))

    def test_cached_scenario_identical_under_corruption(self, tmp_path, monkeypatch):
        scenario = Scenario.load(SCENARIO)
        baseline = run_scenario(scenario, executor=ParallelExecutor(0), cache=False)
        monkeypatch.setenv("REPRO_FAULTS", "corrupt-cache:1.0")
        cache_dir = str(tmp_path / "cache")
        first = run_scenario(scenario, executor=ParallelExecutor(0), cache=cache_dir)
        second = run_scenario(scenario, executor=ParallelExecutor(0), cache=cache_dir)
        assert first.rows == baseline.rows
        assert second.rows == baseline.rows


class TestFaultedScenarioBitIdentity:
    """The hard gate: a full scenario sweep under the issue's fault plan."""

    PLAN = "crash:0.1,hang:0.05,corrupt-cache:0.05,hang-seconds:0.2"

    def _seed_with_task_faults(self, n_points: int) -> int:
        for seed in range(2000):
            plan = FaultPlan.parse(f"{self.PLAN},seed:{seed}")
            if any(
                plan.should("crash", str(i)) or plan.should("hang", str(i))
                for i in range(n_points)
            ):
                return seed
        raise AssertionError("no fault-firing seed found")

    @needs_fork
    def test_faulted_parallel_sweep_matches_fault_free_serial(self, tmp_path, monkeypatch):
        scenario = Scenario.load(SCENARIO)
        n_points = len(scenario.points())
        baseline = run_scenario(scenario, executor=ParallelExecutor(0), cache=False)
        seed = self._seed_with_task_faults(n_points)
        monkeypatch.setenv("REPRO_FAULTS", f"{self.PLAN},seed:{seed}")
        faulted = run_scenario(
            scenario,
            executor=ParallelExecutor(2, timeout=5.0, retries=3),
            cache=str(tmp_path / "cache"),
        )
        assert faulted.rows == baseline.rows
        assert faulted.timing is not None
        assert faulted.timing.retries > 0  # the plan actually injected faults

    def test_faulted_serial_sweep_matches_fault_free_serial(self, tmp_path, monkeypatch):
        scenario = Scenario.load(SCENARIO)
        baseline = run_scenario(scenario, executor=ParallelExecutor(0), cache=False)
        seed = self._seed_with_task_faults(len(scenario.points()))
        monkeypatch.setenv("REPRO_FAULTS", f"{self.PLAN},seed:{seed}")
        faulted = run_scenario(
            scenario,
            executor=ParallelExecutor(0, retries=3),
            cache=str(tmp_path / "cache"),
        )
        assert faulted.rows == baseline.rows

    def test_raw_grid_sweep_identical_under_faults(self, monkeypatch):
        grid = [(float(i), float(i) / 2) for i in range(7)]
        baseline = run_sweep(("a", "b", "s"), grid, _sum_record, executor=ParallelExecutor(0))
        seed = crashing_seed(len(grid))
        monkeypatch.setenv("REPRO_FAULTS", f"crash:0.5,seed:{seed}")
        faulted = run_sweep(
            ("a", "b", "s"), grid, _sum_record, executor=ParallelExecutor(0, retries=2)
        )
        assert faulted.rows == baseline.rows
        assert faulted.timing is not None
        assert faulted.timing.retries > 0
