"""The grid driver's contract, held by every workload that goes through it.

``run_sweep``, ``run_scenario``, ``run_session``, ``run_network`` and
``run_tournament`` are thin adapters over :func:`repro.runtime.run_grid`,
so each gets the same checkpoint/fault behaviour: a terminal failure
names its grid index and leaves a checkpoint of exactly the finished
points, a fault-free rerun recomputes only the rest, its rows equal an
uninterrupted run's, and completion removes the checkpoint.  The cache
arguments of the four spec runners are resolved by one helper too.
"""

import dataclasses
import json
import os

import pytest

from repro.analysis import run_sweep
from repro.arena import ArenaSpec, run_tournament
from repro.network import NetworkSpec, run_network
from repro.protocol import SessionSpec, run_session
from repro.runtime import (
    FaultPlan,
    ParallelExecutor,
    ResultCache,
    TaskFailure,
    resolve_cache,
    run_grid,
)
from repro.scenario import Scenario, run_scenario

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = os.path.join(REPO, "examples", "scenarios")


@pytest.fixture(autouse=True)
def _no_ambient_knobs(monkeypatch):
    for var in (
        "REPRO_FAULTS", "REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_CHECKPOINT",
        "REPRO_CACHE", "REPRO_WORKERS", "REPRO_SYNC_RETRIES", "REPRO_SYNC_TIMEOUT",
    ):
        monkeypatch.delenv(var, raising=False)


class Spy(ParallelExecutor):
    """A serial, retry-free executor that records the items of every map."""

    def __init__(self):
        super().__init__(0, timeout=0, retries=0)
        self.mapped = []

    def map_spec(self, runner, spec, items, **kwargs):
        items = list(items)
        self.mapped.append(items)
        return super().map_spec(runner, spec, items, **kwargs)


def _example(cls, name, **changes):
    return dataclasses.replace(cls.load(os.path.join(EXAMPLES, name)), **changes)


def _third(_payload, x):
    return {"x": x, "y": x / 3.0}


def _sweep_case():
    grid = [0.0, 1.0, 2.0, 3.0]

    def run(executor, checkpoint):
        return run_sweep(("x", "y"), grid, _third, executor=executor, checkpoint=checkpoint).rows

    return run, grid


def _scenario_case():
    scenario = _example(Scenario, "tone_excision.json", packets=2)

    def run(executor, checkpoint):
        return run_scenario(scenario, executor=executor, cache=False, checkpoint=checkpoint).rows

    return run, scenario.points()


def _session_case():
    spec = _example(SessionSpec, "session_follower.json", sjr_db=(-4.0, -2.0, 0.0))

    def run(executor, checkpoint):
        return run_session(spec, executor=executor, cache=False, checkpoint=checkpoint).rows

    return run, spec.points()


def _network_case():
    spec = _example(NetworkSpec, "network_mesh4.json", packets=2)

    def run(executor, checkpoint):
        return run_network(spec, executor=executor, cache=False, checkpoint=checkpoint).records

    return run, list(range(spec.num_links))


def _tournament_case():
    spec = _example(ArenaSpec, "arena_small.json", packets=2)

    def run(executor, checkpoint):
        return run_tournament(spec, executor=executor, cache=False, checkpoint=checkpoint).records

    return run, list(range(spec.num_cells))


CASES = {
    "sweep": _sweep_case,
    "scenario": _scenario_case,
    "session": _session_case,
    "network": _network_case,
    "tournament": _tournament_case,
}


def _crash_plan(total):
    """A ``REPRO_FAULTS`` value whose first crash lands strictly inside the grid."""
    for seed in range(200):
        plan = FaultPlan.parse(f"crash:0.5,seed:{seed}")
        crashes = [i for i in range(total) if plan.should("crash", str(i))]
        if crashes and 0 < crashes[0] < total:
            return f"crash:0.5,seed:{seed}", crashes[0]
    raise AssertionError("no fault seed crashes mid-grid")


@pytest.mark.parametrize("case", sorted(CASES))
def test_terminal_failure_checkpoints_and_resumes(case, tmp_path, monkeypatch):
    run, items = CASES[case]()
    total = len(items)
    baseline = run(ParallelExecutor(0), False)
    faults, first_crash = _crash_plan(total)

    monkeypatch.setenv("REPRO_FAULTS", faults)
    with pytest.raises(TaskFailure) as info:
        run(Spy(), str(tmp_path))
    assert info.value.index == first_crash  # names the failing grid index

    files = os.listdir(tmp_path)
    assert len(files) == 1
    with open(tmp_path / files[0]) as fh:
        done = json.load(fh)["payload"]["done"]
    assert sorted(int(i) for i in done) == list(range(first_crash))

    monkeypatch.delenv("REPRO_FAULTS")
    spy = Spy()
    resumed = run(spy, str(tmp_path))
    assert spy.mapped == [list(items[first_crash:])]  # only unfinished points
    assert resumed == baseline
    assert os.listdir(tmp_path) == []


def _value(seen, item):
    seen.append(item)  # the serial path hands every item the same payload list
    return {"v": item}


def _interrupt_after_first(_payload, item):
    if item != 5:
        raise KeyboardInterrupt
    return {"v": item}


class TestRunGrid:
    def test_key_is_not_computed_without_a_checkpoint(self):
        def key():
            raise AssertionError("key computed for an uncheckpointed grid")

        records, timing = run_grid(key, [1, 2], _value, [], Spy(), checkpoint=False)
        assert records == [{"v": 1}, {"v": 2}]
        assert len(timing.point_seconds) == 2
        assert timing.packets is None and timing.batch_size is None

    def test_resume_maps_only_pending_items(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            run_grid(
                lambda: "grid-key", [5, 6, 7], _interrupt_after_first, None, Spy(),
                checkpoint=str(tmp_path),
            )
        seen: list = []
        records, timing = run_grid(
            lambda: "grid-key", [5, 6, 7], _value, seen, Spy(),
            checkpoint=str(tmp_path), packets=9,
        )
        assert seen == [6, 7]
        assert records == [{"v": 5}, {"v": 6}, {"v": 7}]
        assert timing.point_seconds[0] == 0.0  # loaded points cost nothing
        assert timing.packets == 9
        assert os.listdir(tmp_path) == []


class TestResolveCache:
    def test_arguments(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(True).root == str(tmp_path / ".cache" / "repro-bhss")
        assert resolve_cache("somewhere").root == "somewhere"
        store = ResultCache(str(tmp_path / "c"))
        assert resolve_cache(store) is store
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "env"))
        assert resolve_cache(None).root == str(tmp_path / "env")


def _cache_files(root):
    return [
        name
        for _dirs, _sub, names in os.walk(root)
        for name in names
        if name.endswith(".json")
    ]


SPEC_RUNNERS = {
    "scenario": lambda cache: run_scenario(
        _example(Scenario, "noise_narrowband.json", packets=2),
        executor=ParallelExecutor(0), cache=cache, checkpoint=False,
    ),
    "session": lambda cache: run_session(
        _example(SessionSpec, "session_follower.json"),
        executor=ParallelExecutor(0), cache=cache, checkpoint=False,
    ),
    "network": lambda cache: run_network(
        _example(NetworkSpec, "network_mesh4.json", packets=2),
        executor=ParallelExecutor(0), cache=cache, checkpoint=False,
    ),
    "tournament": lambda cache: run_tournament(
        _example(ArenaSpec, "arena_small.json", packets=2),
        executor=ParallelExecutor(0), cache=cache, checkpoint=False,
    ),
}


@pytest.mark.parametrize("kind", sorted(SPEC_RUNNERS))
def test_cache_true_uses_the_default_root(kind, tmp_path, monkeypatch):
    home = tmp_path / "home"
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.chdir(cwd)
    SPEC_RUNNERS[kind](True)
    assert os.listdir(cwd) == []  # no directory literally named "True"
    assert _cache_files(home / ".cache" / "repro-bhss")


@pytest.mark.parametrize("kind", sorted(SPEC_RUNNERS))
def test_cache_none_defers_to_env(kind, tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE", str(root))
    first = SPEC_RUNNERS[kind](None)
    assert _cache_files(root)
    again = SPEC_RUNNERS[kind](None)
    assert first == again


def test_session_cache_key_keeps_protocol_faults(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE", str(root))
    SPEC_RUNNERS["session"](None)
    clean = len(_cache_files(root))
    assert clean
    monkeypatch.setenv("REPRO_FAULTS", "desync:0.5")
    SPEC_RUNNERS["session"](None)
    assert len(_cache_files(root)) == 2 * clean  # a faulted run never aliases a clean entry
