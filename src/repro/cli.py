"""Command-line interface for the BHSS library.

Installed as ``repro-bhss`` (see ``pyproject.toml``); also runnable as
``python -m repro.cli``.  Subcommands:

``info``
    Print the configured system's parameters (bandwidth set, hop range,
    patterns with their expected bandwidth/throughput, processing gain).
``simulate``
    Run packets through the jammed link and report PER / BER / goodput.
``threshold``
    Bisect the minimum SNR for the 50 %-PER operating point (the paper's
    power-advantage building block).
``optimize``
    Re-run the Monte-Carlo maximin hop-weight optimization (Table 1's
    parabolic pattern).
``record``
    Generate one packet and write it as a ``.cf32`` recording + JSON
    sidecar for external SDR tooling.
``theory``
    Evaluate the eq.-(11)/(12) improvement bound for one (Bp, Bj) pair.
``run``
    Execute a declarative scenario JSON file (``--scenario file.json``)
    over its (SNR x SJR) grid, an N-link shared-spectrum network file
    (``--network file.json``) over its links, a jammer-tournament
    arena (``--tournament file.json``) over its strategy x pattern x
    hop-range grid, or a seed-synchronized session (``--session
    file.json``, see ``repro.protocol``) over its operating points, and
    print/export the tidy result table plus the run-type-specific
    aggregates (fairness for networks, the resilience matrix and
    jammer-advantage summary for tournaments, delivery/goodput/re-sync
    stats for sessions).
``scenario``
    Tooling for scenario, network, arena *and* session files:
    ``scenario validate <paths...>`` parse-validates files or
    directories of them (files with a ``links`` array route to the
    network loader, files with a ``jammers`` map to the arena loader,
    files with a ``traffic`` map to the session loader); ``scenario
    list [dir]`` summarizes a directory (default
    ``examples/scenarios``).  ``run``, ``validate`` and ``list`` share
    one ``WORKLOADS`` table (loader, runner, printed summaries per kind)
    and one ``spec_kind`` detector for that routing.
``cache``
    Integrity tooling for the ``REPRO_CACHE`` result store:
    ``cache verify [dir]`` audits every entry against its checksum
    (exit 1 on corruption), ``cache gc [dir]`` deletes corrupt entries,
    quarantined files and stray temp files.
``lint``
    Project-invariant static analysis (``repro-lint``): RNG discipline,
    dtype discipline, batch/serial symmetry, registry round-trips, env
    knob docs, mutable defaults and the frozen mypy baseline.

Exit-code convention, shared by every finding-producing subcommand
(``lint``, ``scenario validate``, ``cache verify``): **0** clean, **1**
findings or check failures, **2** usage/input errors (bad paths, unknown
names).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis import SweepResult, ThresholdSearch, min_snr_for_per, run_sweep, write_csv
from repro.arena import ArenaError, ArenaSpec, TournamentResult, run_tournament
from repro.core import BHSSConfig, BHSSTransmitter, LinkSimulator, theory
from repro.hopping import (
    expected_bandwidth,
    expected_throughput,
    maximin_score_db,
    optimize_parabolic_weights,
    pattern_weights,
)
from repro.jamming import (
    BandlimitedNoiseJammer,
    HoppingJammer,
    NoJammer,
    SweepJammer,
    ToneJammer,
)
from repro.network import NetworkError, NetworkResult, NetworkSpec, run_network
from repro.protocol import SessionError, SessionSpec, run_session
from repro.scenario import Scenario, ScenarioError, run_scenario
from repro.utils import format_table, save_recording

__all__ = ["main", "build_parser"]

PATTERN_CHOICES = ["linear", "exponential", "parabolic"]


def _add_link_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pattern", choices=PATTERN_CHOICES, default="parabolic", help="hop distribution")
    parser.add_argument("--fixed-bandwidth", type=float, default=None, metavar="HZ", help="disable hopping, pin to this bandwidth")
    parser.add_argument("--payload-bytes", type=int, default=16, help="payload size per packet")
    parser.add_argument("--symbols-per-hop", type=int, default=4, help="symbols per hop dwell")
    parser.add_argument("--seed", type=int, default=0, help="pre-shared link seed")
    parser.add_argument("--fec", default="none", help="channel code: none/rep3/rep5/hamming74/hamming1511")
    parser.add_argument("--no-filtering", action="store_true", help="disable the receiver's jammer filtering")


def _add_jammer_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jammer",
        choices=["none", "noise", "tone", "sweep", "hopping"],
        default="noise",
        help="jammer type",
    )
    parser.add_argument("--jammer-bandwidth", type=float, default=2.5e6, metavar="HZ", help="noise-jammer bandwidth")
    parser.add_argument("--jammer-frequency", type=float, default=1e6, metavar="HZ", help="tone-jammer frequency")
    parser.add_argument("--jammer-pattern", choices=PATTERN_CHOICES, default="linear", help="hopping-jammer distribution")
    parser.add_argument("--jammer-seed", type=int, default=1234, help="the attacker's own random seed")


def _build_config(args) -> BHSSConfig:
    config = BHSSConfig.paper_default(
        pattern=args.pattern,
        seed=args.seed,
        payload_bytes=args.payload_bytes,
        symbols_per_hop=args.symbols_per_hop,
        fec=args.fec,
    )
    if args.fixed_bandwidth is not None:
        config = config.with_fixed_bandwidth(args.fixed_bandwidth)
    if args.no_filtering:
        config = config.without_filtering()
    return config


def _build_jammer(args, config: BHSSConfig):
    fs = config.sample_rate
    if args.jammer == "none":
        return NoJammer()
    if args.jammer == "noise":
        return BandlimitedNoiseJammer(args.jammer_bandwidth, fs)
    if args.jammer == "tone":
        return ToneJammer(args.jammer_frequency, fs)
    if args.jammer == "sweep":
        half = min(args.jammer_bandwidth, fs * 0.9) / 2
        return SweepJammer(-half, half, fs, sweep_duration=1e-3)
    bands = config.bandwidth_set.as_array()
    return HoppingJammer(
        bands,
        fs,
        dwell_samples=16384,
        weights=pattern_weights(args.jammer_pattern, bands),
        seed=args.jammer_seed,
    )


def cmd_info(args) -> int:
    config = _build_config(args)
    bands = config.bandwidth_set
    print("BHSS system configuration")
    print(f"  sample rate       : {config.sample_rate / 1e6:g} MS/s")
    print(f"  bandwidths (MHz)  : {[round(b / 1e6, 5) for b in bands.bandwidths]}")
    print(f"  hop range         : {bands.hop_range:g}x")
    print(f"  processing gain   : {config.processing_gain_db:.2f} dB")
    print(f"  symbols per hop   : {config.symbols_per_hop}")
    print(f"  FEC               : {config.fec}")
    print(f"  frame symbols     : {config.frame_symbols()} (air: {config.air_symbols()})")
    rows = []
    for name in PATTERN_CHOICES:
        w = pattern_weights(name, bands.as_array())
        rows.append(
            [
                name,
                f"{expected_bandwidth(bands.as_array(), w) / 1e6:.3f}",
                f"{expected_throughput(bands.as_array(), w) / 1e3:.0f}",
                f"{maximin_score_db(w, bands.as_array()):.2f}",
            ]
        )
    print()
    print(
        format_table(
            ["pattern", "avg BW (MHz)", "throughput (kb/s)", "worst-case gamma (dB)"],
            rows,
            title="Hop patterns (Table 1)",
        )
    )
    return 0


def cmd_simulate(args) -> int:
    config = _build_config(args)
    link = LinkSimulator(config)
    jammer = _build_jammer(args, config)
    stats = link.run_packets(
        args.packets,
        snr_db=args.snr,
        sjr_db=args.sjr,
        jammer=jammer,
        seed=args.run_seed,
    )
    print(f"jammer        : {jammer.description}")
    print(f"packets       : {stats.num_packets} ({stats.num_accepted} accepted)")
    print(f"PER           : {stats.packet_error_rate:.3f}")
    print(f"BER           : {stats.bit_error_rate:.5f}")
    print(f"goodput       : {stats.throughput_bps / 1e3:.1f} kb/s")
    if any(stats.filter_usage.values()):
        print(f"filter usage  : {stats.filter_usage}")
    return 0


def cmd_threshold(args) -> int:
    config = _build_config(args)
    link = LinkSimulator(config)
    jammer = _build_jammer(args, config)
    search = ThresholdSearch(
        snr_low=args.snr_low,
        snr_high=args.snr_high,
        tolerance_db=args.tolerance,
        packets_per_point=args.packets,
    )
    threshold = min_snr_for_per(
        link, jnr_db=args.jnr, jammer=jammer, search=search, seed=args.run_seed
    )
    print(f"jammer               : {jammer.description} at JNR {args.jnr:g} dB")
    print(f"min SNR for <50% PER : {threshold:.2f} dB")
    if threshold >= args.snr_high:
        print("  (censored at the top of the search bracket — link is jammer-bound)")
    return 0


def cmd_optimize(args) -> int:
    config = _build_config(args)
    bands = config.bandwidth_set.as_array()
    best = optimize_parabolic_weights(bands, num_trials=args.trials, seed=args.run_seed)
    rows = [
        [f"{bands[i] / 1e6:.5g}", f"{100 * best.weights[i]:.2f}"] for i in range(bands.size)
    ]
    print(format_table(["bandwidth (MHz)", "probability (%)"], rows, title="Maximin hop weights"))
    print(f"worst-case expected gamma : {best.score_db:.2f} dB")
    print(f"worst jammer bandwidth    : {best.worst_jammer_bandwidth / 1e6:.5g} MHz")
    return 0


def cmd_record(args) -> int:
    config = _build_config(args)
    packet = BHSSTransmitter(config).transmit(packet_index=args.packet_index)
    save_recording(
        args.output,
        packet.waveform,
        sample_rate=config.sample_rate,
        annotations={
            "pattern": str(config.pattern if isinstance(config.pattern, str) else "custom"),
            "payload_bytes": config.payload_bytes,
            "packet_index": args.packet_index,
            "hop_profile_mhz": [bw / 1e6 for _n, bw in packet.bandwidth_profile()],
        },
    )
    print(f"wrote {packet.num_samples} samples to {args.output} (+ .json sidecar)")
    return 0


def _sweep_point(payload: dict, sjr: float) -> dict:
    """One ``repro-bhss sweep`` grid point: PER/BER of the link at SJR ``sjr``.

    Each point builds its own jammer, so every point is a pure function of
    its SJR and the sweep parallelizes (REPRO_WORKERS) bit-identically to
    the serial run.
    """
    link, args = payload["link"], payload["args"]
    stats = link.run_packets(
        args.packets, snr_db=args.snr, sjr_db=sjr,
        jammer=_build_jammer(args, link.config), seed=args.run_seed,
    )
    lo, hi = stats.per_confidence_interval()
    return {
        "sjr_db": sjr,
        "per": stats.packet_error_rate,
        "per_lo": lo,
        "per_hi": hi,
        "ber": stats.bit_error_rate,
    }


def cmd_sweep(args) -> int:
    config = _build_config(args)
    sjrs = [float(s) for s in args.sjr_list.split(",")]
    result = run_sweep(
        ["sjr_db", "per", "per_lo", "per_hi", "ber"],
        sjrs,
        _sweep_point,
        {"link": LinkSimulator(config), "args": args},
    )
    rows = [
        [f"{r['sjr_db']:g}", f"{r['per']:.3f}", f"[{r['per_lo']:.2f},{r['per_hi']:.2f}]", f"{r['ber']:.5f}"]
        for r in result.rows
    ]
    print(
        format_table(
            ["SJR (dB)", "PER", "95% CI", "BER"],
            rows,
            title=f"PER/BER vs SJR at SNR {args.snr:g} dB — {_build_jammer(args, config).description}",
        )
    )
    if result.timing is not None:
        print(result.timing.summary())
    if args.output:
        csv_lines = [
            "sjr_db,per,per_lo,per_hi,ber",
            *(
                f"{r['sjr_db']:g},{r['per']:.6f},{r['per_lo']:.6f},{r['per_hi']:.6f},{r['ber']:.6f}"
                for r in result.rows
            ),
        ]
        with open(args.output, "w") as fh:
            fh.write("\n".join(csv_lines) + "\n")
        print(f"\nwrote {args.output}")
    return 0


def cmd_reproduce(args) -> int:
    from repro.analysis.experiments import REGISTRY

    if args.list or args.experiment is None:
        rows = [[name, desc] for name, (_fn, desc) in sorted(REGISTRY.items())]
        print(format_table(["experiment", "reproduces"], rows, title="Available experiments"))
        return 0
    try:
        fn, desc = REGISTRY[args.experiment]
    except KeyError:
        print(f"unknown experiment {args.experiment!r}; use --list", file=sys.stderr)
        return 2
    print(f"running {args.experiment}: {desc} (scale {args.scale:g}) ...")
    kwargs = {}
    if args.experiment not in ("fig07", "fig08", "fig09", "fig10", "fig11", "tab1"):
        kwargs["scale"] = args.scale
    outcome = fn(**kwargs)
    results = outcome if isinstance(outcome, tuple) else (outcome,)
    for i, result in enumerate(results):
        assert isinstance(result, SweepResult)
        print()
        print(format_table(result.columns, result.as_table_rows()))
        if args.output:
            suffix = f"_{i}" if len(results) > 1 else ""
            base, ext = [*args.output.rsplit(".", 1), "csv"][:2]
            path = write_csv(result, f"{base}{suffix}.{ext}")
            print(f"wrote {path}")
    return 0


def _scenario_size(s: Scenario) -> str:
    return f"{len(s.points())} points x {s.packets} packets"


def _network_size(n: NetworkSpec) -> str:
    return f"{n.num_links} links x {n.packets} packets, {n.num_jammers} jammer(s)"


def _link_cells(r: dict) -> list:
    """PER, its 95% CI, BER and goodput of one link-level record."""
    return [
        f"{r['per']:.3f}",
        f"[{r['per_lo']:.2f},{r['per_hi']:.2f}]",
        f"{r['ber']:.5f}",
        f"{r['throughput_bps'] / 1e3:.1f}",
    ]


def _scenario_row(r: dict) -> list:
    return [f"{r['snr_db']:g}", f"{r['sjr_db']:g}", *_link_cells(r)]


def _network_row(r: dict) -> list:
    return [r["link"], *_scenario_row(r)]


def _tournament_row(r: dict) -> list:
    return [r["jammer"], r["pattern"], f"{r['num_bands']}", f"{r['hop_range']:g}", *_link_cells(r)]


def _session_row(r: dict) -> list:
    return [
        f"{r['snr_db']:g}",
        f"{r['sjr_db']:g}",
        f"{r['delivery_ratio']:.3f}",
        f"{r['goodput_bps'] / 1e3:.1f}",
        f"{r['data_per']:.3f}",
        f"{r['desync_count']:g}",
        f"{r['resync_count']:g}",
        f"{r['mean_resync_latency']:.1f}",
        "yes" if r["degraded"] else "no",
    ]


def _network_summary(spec: NetworkSpec, result: NetworkResult) -> list[str]:
    agg = result.aggregates()
    return [
        f"network throughput {agg['network_throughput_bps'] / 1e3:.1f} kb/s, "
        f"Jain fairness {agg['fairness']:.4f}, mean PER {agg['mean_per']:.3f}"
    ]


def _tournament_summary(spec: ArenaSpec, result: TournamentResult) -> list[str]:
    if spec.baseline_label is None:
        return ['(no {"type": "none"} baseline jammer: jammer-advantage summary skipped)']
    advantage = result.jammer_advantage()
    if not advantage:
        return []
    summary = ", ".join(f"{k} {v:+.3f}" for k, v in sorted(advantage.items()))
    return [f"jammer advantage (PER points vs {spec.baseline_label!r}): {summary}"]


def _no_summary(spec: Any, result: Any) -> list[str]:
    return []


@dataclass(frozen=True)
class Workload:
    """How ``run``, ``scenario validate`` and ``scenario list`` treat one kind of spec file.

    ``runner(spec, checkpoint=...)`` evaluates a loaded spec; its result
    table is printed (``columns``/``row``/``title``) and written as CSV,
    and ``summary`` adds the kind's aggregate lines.  ``size``,
    ``validated`` and ``listed`` describe a spec in the ``run`` header,
    the ``validate`` line and the ``list`` table.
    """

    help: str
    spec: Any
    error: type[Exception]
    runner: Callable[..., Any]
    size: Callable[[Any], str]
    title: str
    columns: tuple[str, ...]
    row: Callable[[dict], list]
    validated: Callable[[Any], str]
    listed: Callable[[Any], tuple[str, str]]
    summary: Callable[[Any, Any], list[str]] = _no_summary


_LINK_COLUMNS = ("SNR (dB)", "SJR (dB)", "PER", "95% CI", "BER", "goodput (kb/s)")

#: spec-file kinds, keyed by their ``run`` flag (in help order)
WORKLOADS: dict[str, Workload] = {
    "scenario": Workload(
        help="scenario JSON file",
        spec=Scenario,
        error=ScenarioError,
        runner=run_scenario,
        size=_scenario_size,
        title="scenario",
        columns=_LINK_COLUMNS,
        row=_scenario_row,
        validated=_scenario_size,
        listed=lambda s: (str(s.jammer.get("type", "?")), f"{len(s.points())}x{s.packets}"),
    ),
    "network": Workload(
        help="N-link network JSON file (see repro.network.NetworkSpec)",
        spec=NetworkSpec,
        error=NetworkError,
        runner=run_network,
        size=_network_size,
        title="network",
        columns=("link", *_LINK_COLUMNS),
        row=_network_row,
        validated=_network_size,
        listed=lambda n: (f"network ({n.num_jammers} jammed)", f"{n.num_links} links x{n.packets}"),
        summary=_network_summary,
    ),
    "tournament": Workload(
        help="jammer-tournament arena JSON file (see repro.arena.ArenaSpec)",
        spec=ArenaSpec,
        error=ArenaError,
        runner=run_tournament,
        size=lambda a: (
            f"{len(a.jammers)} jammers x {len(a.patterns)} patterns x "
            f"{len(a.hop_ranges)} hop ranges = {a.num_cells} cells x {a.packets} packets"
        ),
        title="resilience matrix",
        columns=("jammer", "pattern", "bands", "hop range", *_LINK_COLUMNS[2:]),
        row=_tournament_row,
        validated=lambda a: (
            f"{a.num_cells} cells x {a.packets} packets, {len(a.jammers)} jammer(s)"
        ),
        listed=lambda a: (f"arena ({len(a.jammers)} jammers)", f"{a.num_cells} cells x{a.packets}"),
        summary=_tournament_summary,
    ),
    "session": Workload(
        help="seed-synchronized session JSON file (see repro.protocol.SessionSpec)",
        spec=SessionSpec,
        error=SessionError,
        runner=run_session,
        size=lambda s: (
            f"{len(s.points())} operating points, "
            f"{s.traffic.num_messages} messages x {s.traffic.message_bytes} bytes "
            f"({s.num_fragments()} fragments), "
            f"retry budget {s.resync_retries} x {s.sync_timeout}"
        ),
        title="session",
        columns=(
            "SNR (dB)", "SJR (dB)", "delivery", "goodput (kb/s)", "data PER",
            "desyncs", "resyncs", "resync slots", "degraded",
        ),
        row=_session_row,
        validated=lambda s: (
            f"{len(s.points())} points, "
            f"{s.traffic.num_messages} messages x {s.traffic.message_bytes} bytes"
        ),
        listed=lambda s: (
            f"session ({s.jammer.get('type', '?')})",
            f"{len(s.points())} pts x{s.traffic.num_messages} msgs",
        ),
    ),
}

#: every loader's validation error, for commands that read any kind of file
_SPEC_ERRORS = tuple(w.error for w in WORKLOADS.values())


def spec_kind(data: object) -> str:
    """The :data:`WORKLOADS` kind of a parsed spec file.

    A ``links`` array makes a network, else a ``jammers`` map an arena
    (tournament), else a ``traffic`` map a session; anything else —
    including a document that is not a JSON object — is a scenario, whose
    loader names the problem.
    """
    if isinstance(data, dict):
        for key, kind in (("links", "network"), ("jammers", "tournament"), ("traffic", "session")):
            if key in data:
                return kind
    return "scenario"


def _load_spec_file(path: str) -> tuple[Workload, Any]:
    """The workload and loaded spec of one file (raises the kind's error).

    The file is parsed once; an unreadable or unparsable file goes to the
    scenario loader, whose error message names the problem.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return WORKLOADS["scenario"], Scenario.load(path)
    workload = WORKLOADS[spec_kind(data)]
    return workload, workload.spec.from_dict(data, source=path)


def cmd_run(args) -> int:
    given = [kind for kind in WORKLOADS if getattr(args, kind)]
    if len(given) != 1:
        print(
            "run: exactly one of --scenario, --network, --tournament or --session "
            "is required",
            file=sys.stderr,
        )
        return 2
    kind = given[0]
    workload = WORKLOADS[kind]
    try:
        spec = workload.spec.load(getattr(args, kind))
    except workload.error as exc:
        print(str(exc), file=sys.stderr)
        return 2
    label = f" — {spec.description}" if spec.description else ""
    print(f"{kind} {spec.name!r}{label}: {workload.size(spec)}")
    result = workload.runner(spec, checkpoint=args.checkpoint)
    table = result if isinstance(result, SweepResult) else result.to_sweep_result()
    rows = [workload.row(r) for r in table.rows]
    print(format_table(list(workload.columns), rows, title=f"{workload.title}: {spec.name}"))
    for line in workload.summary(spec, result):
        print(line)
    if table.timing is not None:
        print(table.timing.summary())
    if args.output:
        print(f"wrote {write_csv(table, args.output)}")
    return 0


def _scenario_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of scenario JSON files."""
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(
                sorted(
                    os.path.join(path, name)
                    for name in os.listdir(path)
                    if name.endswith(".json")
                )
            )
        else:
            files.append(path)
    return files


def cmd_scenario_validate(args) -> int:
    files = _scenario_files(args.paths)
    if not files:
        print("no scenario files found", file=sys.stderr)
        return 2
    failures = 0
    for path in files:
        try:
            workload, spec = _load_spec_file(path)
        except _SPEC_ERRORS as exc:
            failures += 1
            print(f"FAIL  {exc}")
            continue
        print(f"ok    {path}: {spec.name} ({workload.validated(spec)})")
    print(f"{len(files) - failures}/{len(files)} scenario files valid")
    return 1 if failures else 0


def cmd_scenario_list(args) -> int:
    files = _scenario_files([args.directory])
    if not files:
        print(f"no scenario files in {args.directory!r}", file=sys.stderr)
        return 2
    rows = []
    for path in files:
        try:
            workload, spec = _load_spec_file(path)
        except _SPEC_ERRORS:
            rows.append([os.path.basename(path), "(invalid)", "-", "-", "-"])
            continue
        rows.append(
            [os.path.basename(path), spec.name, *workload.listed(spec), spec.description[:48]]
        )
    print(
        format_table(
            ["file", "name", "jammer", "points x packets", "description"],
            rows,
            title=f"scenarios in {args.directory}",
        )
    )
    return 0


def _cache_store(directory: str | None):
    """The result cache named on the command line or by ``REPRO_CACHE``."""
    from repro.runtime import ResultCache

    if directory:
        return ResultCache(directory)
    store = ResultCache.from_env()
    if store is None:
        print(
            "no cache directory given and REPRO_CACHE is unset "
            "(pass a directory or set REPRO_CACHE)",
            file=sys.stderr,
        )
    return store


def cmd_cache_verify(args) -> int:
    store = _cache_store(args.directory)
    if store is None:
        return 2
    audit = store.verify()
    print(f"cache {store.root}")
    print(f"  entries     : {audit.entries}")
    print(f"  valid       : {audit.valid}")
    if audit.legacy:
        print(f"  legacy      : {audit.legacy} (pre-checksum entries, still served)")
    print(f"  corrupt     : {audit.corrupt}")
    if audit.quarantined:
        print(f"  quarantined : {audit.quarantined}")
    for path in audit.corrupt_paths:
        print(f"  CORRUPT {path}")
    if audit.corrupt:
        print("cache verify: FAILED (run `repro-bhss cache gc` to clean)", file=sys.stderr)
        return 1
    print("cache verify: ok")
    return 0


def cmd_cache_gc(args) -> int:
    store = _cache_store(args.directory)
    if store is None:
        return 2
    audit = store.gc()
    print(f"cache {store.root}")
    print(f"  removed     : {audit.removed} (corrupt entries, quarantined and temp files)")
    print(f"  remaining   : {audit.entries} entries ({audit.valid} valid, {audit.legacy} legacy)")
    return 0


def cmd_lint(args) -> int:
    from repro.lint import all_rules, format_findings, run_lint

    if args.list_rules:
        rows = [[rule.id, rule.description] for rule in all_rules()]
        print(format_table(["rule", "enforces"], rows, title="repro-lint rules"))
        return 0
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        report = run_lint(args.paths, root=args.root, rules=rules)
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(format_findings(report, args.format))
    return 0 if report.ok else 1


def cmd_theory(args) -> int:
    gamma_db = theory.improvement_factor_db(args.bp, args.bj, args.jammer_power, args.noise_power)
    print(f"Bp = {args.bp:g} Hz, Bj = {args.bj:g} Hz (ratio {args.bp / args.bj:g})")
    print(f"gamma upper bound = {float(gamma_db):.2f} dB")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bhss",
        description="Bandwidth Hopping Spread Spectrum (CoNEXT 2015) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="show the configured system")
    _add_link_options(p_info)
    p_info.set_defaults(func=cmd_info)

    p_sim = sub.add_parser("simulate", help="run packets through the jammed link")
    _add_link_options(p_sim)
    _add_jammer_options(p_sim)
    p_sim.add_argument("--packets", type=int, default=20)
    p_sim.add_argument("--snr", type=float, default=15.0, help="signal-to-noise ratio (dB)")
    p_sim.add_argument("--sjr", type=float, default=-10.0, help="signal-to-jammer ratio (dB)")
    p_sim.add_argument("--run-seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_thr = sub.add_parser("threshold", help="min SNR for the 50%% PER point")
    _add_link_options(p_thr)
    _add_jammer_options(p_thr)
    p_thr.add_argument("--jnr", type=float, default=25.0, help="jammer power over noise (dB)")
    p_thr.add_argument("--packets", type=int, default=12)
    p_thr.add_argument("--snr-low", type=float, default=-12.0)
    p_thr.add_argument("--snr-high", type=float, default=45.0)
    p_thr.add_argument("--tolerance", type=float, default=1.0)
    p_thr.add_argument("--run-seed", type=int, default=0)
    p_thr.set_defaults(func=cmd_threshold)

    p_opt = sub.add_parser("optimize", help="Monte-Carlo maximin hop weights")
    _add_link_options(p_opt)
    p_opt.add_argument("--trials", type=int, default=3000)
    p_opt.add_argument("--run-seed", type=int, default=0)
    p_opt.set_defaults(func=cmd_optimize)

    p_rec = sub.add_parser("record", help="write one packet as a .cf32 recording")
    _add_link_options(p_rec)
    p_rec.add_argument("--output", "-o", default="bhss_packet.cf32")
    p_rec.add_argument("--packet-index", type=int, default=0)
    p_rec.set_defaults(func=cmd_record)

    p_swp = sub.add_parser("sweep", help="PER/BER vs SJR sweep (optionally to CSV)")
    _add_link_options(p_swp)
    _add_jammer_options(p_swp)
    p_swp.add_argument("--packets", type=int, default=20)
    p_swp.add_argument("--snr", type=float, default=15.0)
    p_swp.add_argument("--sjr-list", default="5,0,-5,-10,-15", help="comma-separated SJR values (dB)")
    p_swp.add_argument("--output", "-o", default=None, help="also write a CSV here")
    p_swp.add_argument("--run-seed", type=int, default=0)
    p_swp.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="re-run a paper table/figure experiment")
    p_rep.add_argument("experiment", nargs="?", default=None, help="experiment name (see --list)")
    p_rep.add_argument("--list", action="store_true", help="list available experiments")
    p_rep.add_argument("--scale", type=float, default=1.0, help="packet-budget multiplier")
    p_rep.add_argument("--output", "-o", default=None, help="write result CSV(s) here")
    p_rep.set_defaults(func=cmd_reproduce)

    p_run = sub.add_parser(
        "run",
        help="execute a declarative scenario, network, tournament, or session JSON file",
    )
    for kind, workload in WORKLOADS.items():
        p_run.add_argument(f"--{kind}", default=None, metavar="FILE", help=workload.help)
    p_run.add_argument("--output", "-o", default=None, help="also write the result CSV here")
    p_run.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="checkpoint completed grid points here and resume interrupted runs "
        "(default: the REPRO_CHECKPOINT environment knob)",
    )
    p_run.set_defaults(func=cmd_run)

    p_scn = sub.add_parser("scenario", help="validate or list scenario files")
    scn_sub = p_scn.add_subparsers(dest="scenario_command", required=True)
    p_val = scn_sub.add_parser("validate", help="parse-validate scenario files or directories")
    p_val.add_argument("paths", nargs="+", help="scenario JSON files and/or directories")
    p_val.set_defaults(func=cmd_scenario_validate)
    p_lst = scn_sub.add_parser("list", help="summarize a directory of scenario files")
    p_lst.add_argument("directory", nargs="?", default="examples/scenarios")
    p_lst.set_defaults(func=cmd_scenario_list)

    p_cache = sub.add_parser("cache", help="verify or clean the on-disk result cache")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cv = cache_sub.add_parser("verify", help="audit every entry against its checksum")
    p_cv.add_argument("directory", nargs="?", default=None, help="cache root (default: REPRO_CACHE)")
    p_cv.set_defaults(func=cmd_cache_verify)
    p_cg = cache_sub.add_parser("gc", help="delete corrupt, quarantined and temp files")
    p_cg.add_argument("directory", nargs="?", default=None, help="cache root (default: REPRO_CACHE)")
    p_cg.set_defaults(func=cmd_cache_gc)

    p_lint = sub.add_parser("lint", help="project-invariant static analysis (repro-lint)")
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to scan (default: src)",
    )
    p_lint.add_argument(
        "--format", choices=["pretty", "json", "github"], default="pretty",
        help="output style (github emits PR-diff annotations)",
    )
    p_lint.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all; see --list-rules)",
    )
    p_lint.add_argument(
        "--root", default=".",
        help="repository root anchoring report paths and docs/pyproject cross-checks",
    )
    p_lint.add_argument("--list-rules", action="store_true", help="print the rule table and exit")
    p_lint.set_defaults(func=cmd_lint)

    p_thy = sub.add_parser("theory", help="evaluate the SNR improvement bound")
    p_thy.add_argument("--bp", type=float, required=True, help="signal bandwidth (Hz)")
    p_thy.add_argument("--bj", type=float, required=True, help="jammer bandwidth (Hz)")
    p_thy.add_argument("--jammer-power", type=float, default=20.0, help="jammer power over chip (dB)")
    p_thy.add_argument("--noise-power", type=float, default=0.01, help="per-chip noise variance")
    p_thy.set_defaults(func=cmd_theory)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # output piped into e.g. `head` that exited early — not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
