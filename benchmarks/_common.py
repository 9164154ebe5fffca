"""Shared infrastructure for the per-figure/table benchmark harnesses.

Each benchmark module regenerates one table or figure of the paper:
it computes the same rows/series the paper reports, prints them (run
pytest with ``-s`` to see the tables inline), writes them to
``benchmarks/results/`` as CSV + text, and asserts the qualitative
*shape* findings the paper states (who wins, where the minima are,
rough magnitudes) — absolute numbers are simulator-dependent.

Experiment sizes default to economical settings; set ``REPRO_SCALE``
(e.g. ``REPRO_SCALE=5``) to multiply the packet budgets toward the
paper's 10 000-packets-per-point fidelity.
"""

from __future__ import annotations

import json
import os

from repro.analysis import SweepResult, ThresholdSearch, env_scale, write_csv
from repro.runtime import ParallelExecutor
from repro.utils import format_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The paper's testbed jams well above the noise floor; 25 dB of
#: jammer-to-noise ratio puts the 50 %-PER thresholds of all receivers
#: inside the search bracket while leaving ~25 dB of headroom for the
#: filtering gains.
JNR_DB = 25.0


def default_search(packets: int = 12, tolerance_db: float = 1.0) -> ThresholdSearch:
    """A threshold search sized by ``REPRO_SCALE``."""
    scale = env_scale()
    return ThresholdSearch(
        snr_low=-12.0,
        snr_high=45.0,
        tolerance_db=tolerance_db,
        packets_per_point=max(4, int(round(packets * scale))),
    )


def save_and_print(result: SweepResult, name: str, title: str) -> str:
    """Persist a sweep as CSV + formatted text and print the table.

    When the sweep carries timing telemetry (it came out of
    ``run_sweep``), the one-line summary is printed under the table and
    the full telemetry is written as a ``.timing.json`` sidecar, so
    speedups are tracked next to the results they time.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    csv_path = write_csv(result, os.path.join(RESULTS_DIR, f"{name}.csv"))
    table = format_table(result.columns, result.as_table_rows(), title=title)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(table + "\n")
    print()
    print(table)
    if result.timing is not None:
        print(result.timing.summary())
        with open(os.path.join(RESULTS_DIR, f"{name}.timing.json"), "w") as fh:
            json.dump(result.timing.to_dict(), fh, indent=2)
    return csv_path


def pool_executor() -> ParallelExecutor:
    """The ``REPRO_WORKERS``-configured executor for benchmark sweeps."""
    return ParallelExecutor()


def run_once(benchmark, fn):
    """Run an experiment exactly once under the pytest-benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
