"""The four benchmark workloads: inputs from a seed, one round, a reference.

A workload's inputs are plain spec dicts made by :func:`make_spec` from the
workload seed alone.  The seed picks the run seeds (the per-packet noise and
jammer draws) and the session traffic; sizes and the links' pre-shared keys
(hop schedules) are fixed, so every seed does the same DSP work and the
spread between seeds measures the program, not its inputs.
A *round* is one pass over the workload's whole grid through the program's
public grid runner, closed-loop from one client: the next round starts when
the previous one has returned.  Only ``tournament-pool`` uses worker
processes (2).

Importing this module imports ``repro``; ``run.py`` puts the checkout's
``src`` first on ``sys.path`` before it does.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Iterator

from repro.arena import ArenaSpec, run_tournament
from repro.core.link import LinkSimulator
from repro.network import NetworkSpec
from repro.network.runner import evaluate_network_link, run_network
from repro.protocol.runner import evaluate_session_point, run_session
from repro.protocol.spec import SessionSpec
from repro.runtime import ParallelExecutor
from repro.scenario import Scenario
from repro.scenario.runner import evaluate_scenario_point, run_scenario

from perfbench.hostenv import WORKERS

#: Per-layer metrics that must read nonzero on each workload: the layers the
#: workload exists to load.  A traced run fails its gate when one reads zero,
#: so a renamed function cannot silently drop a layer from the trace.
MOVERS = {
    "scenario-sweep": (
        "core.tx_s", "core.tx_samples", "jamming.draw_s", "jamming.samples",
        "channel.medium_s", "channel.awgn_s", "channel.sources", "core.rx_s", "core.rx_rows",
        "core.score_s", "core.control_s", "core.filter_excision", "core.filter_lowpass",
        "dsp.fir_s", "dsp.fir_calls", "dsp.fir_bytes", "dsp.psd_s", "dsp.psd_calls",
        "phy.modem_s", "spread.dsss_s", "link.batch_speedup",
    ),
    "session-follower": (
        "channel.medium_s", "channel.awgn_s", "core.rx_s", "core.rx_rows", "core.control_s",
        "dsp.fir_s", "dsp.psd_s", "protocol.data_slots", "protocol.handshake_slots",
        "protocol.useful_ratio", "protocol.path_build_s", "protocol.framing_s",
    ),
    "tournament-pool": (
        "runtime.map_s", "runtime.busy_s", "runtime.idle_s", "runtime.utilization",
        "cache.gets", "cache.puts", "cache.hit_ratio", "cache.get_s", "cache.put_s",
        "checkpoint.flushes", "checkpoint.flush_s", "checkpoint.bytes",
    ),
    "network-mesh": (
        "core.tx_s", "jamming.draw_s", "jamming.samples", "channel.medium_s", "channel.awgn_s",
        "channel.sources", "network.interferer_synth_s", "network.links",
    ),
}

#: The executor settings every workload passes explicitly (no env lookup).
RETRIES = 2


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` distinct RNG seeds for one workload seed."""
    return random.Random(f"{workload}:{seed}").sample(range(1, 1 << 31), count)


def make_spec(workload: str, seed: int) -> dict:
    """The workload's input spec for ``seed``, as plain JSON data."""
    if workload == "scenario-sweep":
        (run_seed,) = _seeds(workload, seed, 1)
        return {
            "name": "perf-scenario-sweep",
            "config": {"pattern": "parabolic", "seed": 42},
            # 1.25 MHz: narrower than the widest hop, wider than the narrowest,
            # so the receiver both excises and low-passes.
            "jammer": {"type": "noise", "bandwidth": 1.25e6},
            "grid": {"snr_db": [15.0], "sjr_db": [-10.0, -5.0, 0.0]},
            "packets": 64,
            "seed": run_seed,
        }
    if workload == "session-follower":
        traffic_seed, run_seed = _seeds(workload, seed, 2)
        return {
            "name": "perf-session-follower",
            "config": {
                "pattern": "parabolic",
                "seed": 42,
                "payload_bytes": 16,
                "symbols_per_hop": 4,
            },
            "jammer": {"type": "follower", "initial_bandwidth": 10e6},
            "seed_generator": {"type": "counter", "key": 7},
            "traffic": {"num_messages": 6, "message_bytes": 24, "seed": traffic_seed},
            "grid": {"snr_db": [15.0], "sjr_db": [-5.0, -3.0, -1.0]},
            "seed": run_seed,
            "packets_per_epoch": 6,
            "crc_fail_threshold": 4,
            "resync_retries": 3,
            "sync_timeout": 4,
        }
    if workload == "tournament-pool":
        (run_seed,) = _seeds(workload, seed, 1)
        return {
            "name": "perf-tournament-pool",
            "config": {
                "bandwidth_set": {
                    "bandwidths": [10e6, 5e6, 2.5e6, 1.25e6],
                    "sample_rate": 20e6,
                },
                "pattern": "linear",
                "payload_bytes": 4,
                "seed": 7,
            },
            "jammers": {
                "follower": {
                    "type": "follower",
                    "initial_bandwidth": 10e6,
                    "learning_rate": 0.5,
                    "sense_noise_db": 1.0,
                },
                "latent": {
                    "type": "latent-reactive",
                    "bandwidth": 10e6,
                    "sense_window": 64,
                    "threshold_db": -6.0,
                    "turnaround_samples": 2048,
                },
                "noise": {"type": "noise", "bandwidth": 2.5e6},
                "none": {"type": "none"},
                "tone": {"type": "tone", "frequency": 150e3},
            },
            "patterns": ["linear", "parabolic", "exponential"],
            # hop range k keeps the k widest bands: ratios 1, 2, 4 and 8.
            "hop_ranges": [1, 2, 3, 4],
            "snr_db": 15.0,
            "sjr_db": -8.0,
            "packets": 2,
            "seed": run_seed,
        }
    if workload == "network-mesh":
        run_seeds = _seeds(workload, seed, 8)
        patterns = ("linear", "parabolic", "linear", "exponential")
        jammers = (
            {"type": "tone", "frequency": 150e3},
            {"type": "noise", "bandwidth": 312.5e3},
            {"type": "tone", "frequency": -200e3},
            {"type": "noise", "bandwidth": 625e3},
        )
        links = [
            {
                "name": f"n{i}",
                "config": {"pattern": patterns[i % 4], "seed": 20 + i, "payload_bytes": 2},
                "seed": run_seeds[i],
                "snr_db": 15.0,
                "sjr_db": -6.0 if i % 2 == 0 else -8.0,
                "jammer": jammers[i % 4],
            }
            for i in range(8)
        ]
        coupling = [[-20.0 if abs(i - j) == 1 else None for j in range(8)] for i in range(8)]
        return {"name": "perf-network-mesh", "links": links, "coupling_db": coupling, "packets": 8}
    raise KeyError(f"unknown workload {workload!r}")


def digest(rows: list) -> str:
    """SHA-256 of the rows' exact JSON (floats print with every digit)."""
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


@contextlib.contextmanager
def knob(name: str, value: str) -> Iterator[None]:
    """Set one ``REPRO_*`` knob for the block, then restore it."""
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


@dataclass
class Round:
    """One pass over a workload's grid."""

    rows: list
    packets: int
    seconds: float


class Workload:
    """A workload's validated inputs plus how to run and check them."""

    def __init__(self, name: str, seed: int, workdir: str, spec: dict | None = None) -> None:
        """``spec`` replaces the inputs :func:`make_spec` makes (tests shrink them)."""
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.spec = make_spec(name, seed) if spec is None else spec
        self.executor = ParallelExecutor(WORKERS.get(name, 0), timeout=0, retries=RETRIES)
        self._rounds = 0
        if name == "scenario-sweep":
            self.obj: Any = Scenario.from_dict(copy.deepcopy(self.spec))
            self.points = len(self.obj.points())
        elif name == "session-follower":
            self.obj = SessionSpec.from_dict(copy.deepcopy(self.spec))
            self.points = len(self.obj.points())
        elif name == "tournament-pool":
            self.obj = ArenaSpec.from_dict(copy.deepcopy(self.spec))
            self.points = self.obj.num_cells
        else:
            self.obj = NetworkSpec.from_dict(copy.deepcopy(self.spec))
            self.points = self.obj.num_links

    def warm(self) -> None:
        """Build a link and send one packet, so lazy first-use set-up is done."""
        if self.name == "tournament-pool":
            config, jammer, *_ = self.obj.build_cell(0)
            link = LinkSimulator(config)
        elif self.name == "network-mesh":
            link_spec = self.obj.links[0]
            link, jammer = LinkSimulator(link_spec.config), link_spec.build_jammer()
        else:
            link, jammer = Scenario(
                name="warm", config=self.obj.config, jammer=dict(self.spec["jammer"])
            ).build()
        link.run_packets_batched(1, snr_db=15.0, sjr_db=-5.0, jammer=jammer, seed=0, cache=False)

    def run_round(self, span: Callable[[str], ContextManager[None]] | None = None) -> Round:
        """One timed pass over the grid through the program's grid runner.

        ``span`` (a tracer's ``span`` method) records the runner call as the
        ``grid.run`` span.
        """
        scope = span("grid.run") if span is not None else contextlib.nullcontext()
        if self.name == "tournament-pool":
            # A fresh cache and checkpoint directory every round, so every
            # round does the same cache reads and writes.
            base = os.path.join(self.workdir, f"round-{self._rounds}")
            self._rounds += 1
            start = time.perf_counter()
            with scope:
                result = run_tournament(
                    self.obj,
                    executor=self.executor,
                    cache=os.path.join(base, "cache"),
                    checkpoint=os.path.join(base, "checkpoint"),
                )
            seconds = time.perf_counter() - start
            shutil.rmtree(base, ignore_errors=True)
            return Round(result.records, self.obj.packets * self.points, seconds)
        start = time.perf_counter()
        with scope:
            if self.name == "scenario-sweep":
                result = run_scenario(
                    self.obj, executor=self.executor, cache=False, checkpoint=False
                )
            elif self.name == "session-follower":
                result = run_session(
                    self.obj, executor=self.executor, cache=False, checkpoint=False
                )
            else:
                result = run_network(
                    self.obj, executor=self.executor, cache=False, checkpoint=False
                )
        seconds = time.perf_counter() - start
        if self.name == "network-mesh":
            return Round(result.records, self.obj.packets * self.points, seconds)
        rows = result.rows
        if self.name == "session-follower":
            # On-air slots the protocol consumed, not slots simulated.
            return Round(rows, int(sum(r["data_tx"] + r["handshake_tx"] for r in rows)), seconds)
        return Round(rows, self.obj.packets * self.points, seconds)

    def serial_rows(self, indices: list[int]) -> list:
        """Grid points ``indices`` recomputed in-process through the serial path.

        The serial path is the per-packet link (``REPRO_BATCH=0``), no pool,
        no cache.  ``tournament-pool`` always recomputes every cell, so its
        pooled rows are checked against serial rows in full.
        """
        if self.name == "tournament-pool":
            serial = ParallelExecutor(0, timeout=0, retries=RETRIES)
            return run_tournament(self.obj, executor=serial, cache=False, checkpoint=False).records
        with knob("REPRO_BATCH", "0"):
            if self.name == "scenario-sweep":
                payload = {"scenario": self.obj.to_dict(), "cache": False}
                points = self.obj.points()
                return [evaluate_scenario_point(payload, points[i]) for i in indices]
            if self.name == "session-follower":
                payload = {"session": self.obj.to_dict(), "cache": False}
                points = self.obj.points()
                return [evaluate_session_point(payload, points[i]) for i in indices]
            payload = {"network": self.obj.to_dict(), "cache": False}
            return [evaluate_network_link(payload, i) for i in indices]

    def batch_speedup(self) -> tuple[float, bool]:
        """Serial ÷ batched wall time of one scenario-sweep point, and bit-identity."""
        scenario = Scenario.from_dict(make_spec("scenario-sweep", self.seed))
        link, jammer = scenario.build()
        snr_db, sjr_db = scenario.points()[1]
        args = dict(snr_db=snr_db, sjr_db=sjr_db, jammer=jammer, seed=scenario.seed, cache=False)
        start = time.perf_counter()
        plain = link.run_packets(
            scenario.packets, executor=ParallelExecutor(0, timeout=0, retries=RETRIES), **args
        )
        middle = time.perf_counter()
        batched = link.run_packets_batched(scenario.packets, batch_size=64, **args)
        end = time.perf_counter()
        return (middle - start) / (end - middle), plain == batched
