"""Tests of the benchmark's own machinery.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests -q``.
"""

import copy
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import compare, hostenv, run, spans  # noqa: E402
from perfbench.workloads import MOVERS, Workload, digest, make_spec  # noqa: E402

WORKLOADS = run.WORKLOADS


def _without_seeds(value):
    """``value`` with every RNG seed (keys ``seed`` and ``key``) blanked."""
    if isinstance(value, dict):
        return {k: None if k in ("seed", "key") else _without_seeds(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_without_seeds(v) for v in value]
    return value


def _seeds_of(value) -> list:
    if isinstance(value, dict):
        return [v for k, v in value.items() if k in ("seed", "key")] + [
            s for v in value.values() for s in _seeds_of(v)
        ]
    if isinstance(value, list):
        return [s for v in value for s in _seeds_of(v)]
    return []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_deterministic_per_seed_and_sized_alike_across_seeds(workload):
    assert make_spec(workload, 3) == make_spec(workload, 3)
    assert _without_seeds(make_spec(workload, 3)) == _without_seeds(make_spec(workload, 4))
    assert _seeds_of(make_spec(workload, 3)) != _seeds_of(make_spec(workload, 4))


def test_network_run_seeds_are_unique():
    seeds = [link["seed"] for link in make_spec("network-mesh", 0)["links"]]
    assert len(set(seeds)) == len(seeds)


def _span(sid, parent, start, end, name="x", pid=1):
    return spans.Span(sid, parent, name, start, end, pid)


def test_self_time_subtracts_the_union_of_nested_and_overlapping_children():
    tree = [
        _span("p", None, 0.0, 10.0, "parent"),
        _span("a", "p", 1.0, 3.0, "child", pid=2),
        _span("b", "p", 2.0, 5.0, "child", pid=3),  # overlaps a (another worker)
        _span("g", "a", 1.5, 2.5, "grandchild", pid=2),
        _span("c", "p", 9.0, 12.0, "child"),  # only 1 s lies inside the parent
    ]
    own = spans.self_times(tree)
    assert own["p"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["a"] == pytest.approx(1.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["g"] == pytest.approx(1.0)
    totals = spans.LayerTotals.of(tree, main_pid=1)
    assert totals.self_s["child"] == pytest.approx(1.0 + 3.0 + 3.0)
    assert totals.inclusive_s["child"] == pytest.approx(2.0 + 3.0 + 3.0)
    assert totals.top_level_s == pytest.approx(10.0)


def test_tracer_records_parents_and_restores_originals():
    from repro.dsp import fir

    original = fir.apply_fir
    tracer = spans.Tracer(worker_dir=".")
    tracer.install()
    try:
        assert fir.apply_fir is not original
        import numpy as np

        with tracer.span("outer"):
            fir.apply_fir(np.ones(8, dtype=complex), np.ones(3))
    finally:
        tracer.uninstall()
    assert fir.apply_fir is original
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["dsp.fir"].parent == by_name["outer"].id
    assert by_name["dsp.fir"].counts["fir_calls"] == 1


def _small(name: str, seed: int, workdir: str) -> Workload:
    """A workload whose grid is shrunk to a few seconds of work."""
    spec = copy.deepcopy(make_spec(name, seed))
    if name == "scenario-sweep":
        spec["packets"] = 4
        spec["grid"]["sjr_db"] = [-10.0]
    elif name == "session-follower":
        spec["traffic"]["num_messages"] = 1
        spec["grid"]["sjr_db"] = [-5.0]
    else:
        spec["packets"] = 1
    return Workload(name, seed, workdir, spec=spec)


def test_gate_fails_on_a_perturbed_row(tmp_path):
    bench = _small("network-mesh", 12345, str(tmp_path))
    good = bench.run_round()
    assert run.check(bench, [good], reference={}) == []
    recorded = {"network-mesh": {"12345": digest(good.rows)}}
    assert run.check(bench, [good], reference=recorded) == []

    bad = copy.deepcopy(good)
    index = bench.seed % bench.points
    bad.rows[index]["ber"] += 1e-12
    assert run.check(bench, [bad], reference={})  # serial-path recomputation
    assert run.check(bench, [bad], reference=recorded)  # recorded digest
    assert run.check(bench, [good, bad], reference={})  # rounds disagree


def test_pin_knobs_drops_inherited_knobs_and_sets_explicit_values():
    environ = {
        "REPRO_CACHE": "/somewhere",
        "REPRO_FAULTS": "crash:1.0",
        "REPRO_BATCH": "3",
        "REPRO_SOMETHING_NEW": "1",
        "PATH": "/bin",
    }
    pinned = hostenv.pin_knobs(2, environ)
    assert environ["PATH"] == "/bin"
    assert {k: v for k, v in environ.items() if k.startswith("REPRO_")} == pinned
    assert pinned["REPRO_WORKERS"] == "2"
    assert pinned["REPRO_BATCH"] == "64"
    for knob in ("REPRO_CACHE", "REPRO_FAULTS", "REPRO_SOMETHING_NEW", "REPRO_CHECKPOINT"):
        assert knob not in environ


def test_pinned_environment_reaches_the_program(monkeypatch):
    from repro.runtime import FaultPlan, ResultCache, resolve_batch, resolve_workers

    environ = dict(os.environ, REPRO_CACHE="/nonexistent/cache", REPRO_FAULTS="crash:1.0")
    monkeypatch.setattr(os, "environ", environ)
    hostenv.pin_knobs(0, environ)
    assert ResultCache.from_env() is None
    assert FaultPlan.from_env() is None
    assert resolve_batch() == 64
    assert resolve_workers() == 0


def test_every_wrapper_fires_and_every_mover_reads_nonzero(tmp_path):
    fired: set[str] = set()
    for name in WORKLOADS:
        bench = _small(name, 0, str(tmp_path))
        tracer = spans.Tracer(str(tmp_path))
        tracer.install()
        try:
            rnd = bench.run_round(tracer.span)
        finally:
            tracer.uninstall()
        tracer.merge_workers()
        fired |= {s.name for s in tracer.spans}
        totals = spans.LayerTotals.of(tracer.spans, tracer.pid)
        layer = spans.layer_metrics(totals, 1, rnd.seconds)
        zero = [m for m in MOVERS[name] if m in layer and not layer[m]]
        assert zero == [], f"{name}: {zero}"
    expected = {span for _, _, span, _ in spans.WRAPPED}
    expected |= {"grid.run", "network.interferer_synth"}
    assert expected <= fired, sorted(expected - fired)


def test_every_metric_of_benchmark_json_is_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    totals = spans.LayerTotals({}, {}, {}, 0.0)
    layer = set(spans.layer_metrics(totals, 1, 0.0))
    layer |= {"trace.overhead_ratio", "link.batch_speedup", "failed_ratio"}
    assert layer == {m["name"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert set(MOVERS) == set(WORKLOADS)
    assert set().union(*MOVERS.values()) <= layer


def test_compare_verdicts():
    old = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 1.3 for v in old]
    assert compare.verdict(old, faster, True, 0.1) == "better"
    assert compare.verdict(old, [v * 0.7 for v in old], True, 0.1) == "worse"
    assert compare.verdict(old, list(reversed(old)), True, 0.1) == "unchanged"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, list(reversed(noisy)), True, 0.1) == "unresolved"
    assert compare.verdict(old, faster, False, None) == "worse"


def test_run_without_program_source_exits_nonzero(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "network-mesh", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
