"""Programmatic reproduction of every table and figure of the paper.

Each ``figure*`` / ``table*`` / ``ablation*`` / ``ext_*`` function
computes one experiment and returns a tidy
:class:`~repro.analysis.sweep.SweepResult` (or a tuple of them) — the
same rows/series the paper reports.  The benchmark files under
``benchmarks/`` call these functions and assert the paper's qualitative
findings on the results; the ``repro-bhss reproduce`` CLI subcommand and
user code call them directly.

``scale`` multiplies the per-point packet budgets of the signal-level
experiments (default from the ``REPRO_SCALE`` environment variable;
``scale=10`` approaches the paper's 10 000 packets per point).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

import numpy as np

from repro.analysis.sweep import SweepResult, env_scale, run_sweep
from repro.analysis.thresholds import ThresholdSearch, min_snr_for_per
from repro.core import BHSSConfig, ControlLogic, FHSSLink, FHSSLinkConfig, LinkSimulator, theory
from repro.core.receiver import BHSSReceiver
from repro.hopping import (
    PAPER_PARABOLIC_WEIGHTS,
    expected_bandwidth,
    expected_throughput,
    exponential_weights,
    linear_weights,
    maximin_score_db,
    optimize_parabolic_weights,
    paper_bandwidths,
)
from repro.jamming import jammer_from_spec
from repro.phy.fec import get_codec

__all__ = [
    "JNR_DB",
    "default_search",
    "figure07",
    "figure08",
    "figure09",
    "figure10",
    "figure11",
    "table1",
    "figure13",
    "figure14",
    "table2",
    "validation_ber",
    "ablation_dwells",
    "ablation_filters",
    "ablation_fec",
    "ext_fhss_vs_bhss",
    "ext_multipath",
    "ext_network",
    "ext_arena",
    "ext_protocol",
    "REGISTRY",
]

#: The jammer sits this many dB above the noise floor in every measured
#: experiment — a strong jammer, as in the paper's testbed, leaving the
#: thresholds inside the search bracket with headroom for the gains.
JNR_DB = 25.0

FS = 20e6

#: Figure 7/8's jammer powers and noise level (paper's sigma_n^2 = 0.01).
FIG7_JAMMER_POWERS_DB = [10.0, 20.0, 30.0]
FIG7_NOISE_POWER = 0.01

#: Figures 9/10: dense log grid approximating the continuous hop range 100.
FIG9_BANDWIDTHS = np.logspace(0, -2, 33)
FIG9_WEIGHTS = np.full(FIG9_BANDWIDTHS.size, 1.0 / FIG9_BANDWIDTHS.size)
FIG9_FIXED_RATIOS = [1.0, 0.3, 0.1, 0.03, 0.01]
FIG9_SJR_DB = -20.0
FIG9_L_DB = 20.0

#: Figure 11 rate equalization uses the 7-value octave set (see
#: EXPERIMENTS.md: the paper's quoted 25.4 dB pins this down).
FIG11_BANDWIDTHS = 1.0 / 2.0 ** np.arange(7)
FIG11_WEIGHTS = np.full(7, 1.0 / 7.0)
FIG11_PACKET_BITS = 500 * 8

PATTERNS = ["linear", "exponential", "parabolic"]


def _paper_config(**spec) -> BHSSConfig:
    """A paper-default configuration from a declarative field spec.

    Thin wrapper over :meth:`BHSSConfig.from_dict` — the experiments below
    describe their links as plain spec dicts, the same vocabulary scenario
    JSON files use, so every measured figure is reproducible from data.
    """
    return BHSSConfig.from_dict(spec)


def _noise(bandwidth: float, centre: float = 0.0):
    """A band-limited noise jammer from its registry spec."""
    spec = {"type": "noise", "bandwidth": float(bandwidth)}
    if centre:
        spec["centre"] = float(centre)
    return jammer_from_spec(spec, sample_rate=FS)


def default_search(packets: int = 12, tolerance_db: float = 1.0, scale: float | None = None) -> ThresholdSearch:
    """A threshold search sized by ``scale`` (default: ``REPRO_SCALE``)."""
    if scale is None:
        scale = env_scale()
    return ThresholdSearch(
        snr_low=-12.0,
        snr_high=45.0,
        tolerance_db=tolerance_db,
        packets_per_point=max(4, int(round(packets * scale))),
    )


# ---------------------------------------------------------------------------
# analytic figures (Section 5)
# ---------------------------------------------------------------------------

def _bound_record(_payload: None, r: float) -> dict:
    """One Figure-7/8 grid point: the γ bound at ratio ``r`` per jammer power."""
    gammas = [
        float(theory.improvement_factor_db(1.0, 1.0 / r, p_db, FIG7_NOISE_POWER))
        for p_db in FIG7_JAMMER_POWERS_DB
    ]
    return {
        "bp_over_bj": float(r),
        "gamma_db_10dBm": gammas[0],
        "gamma_db_20dBm": gammas[1],
        "gamma_db_30dBm": gammas[2],
    }


def figure07(num_points: int = 81) -> SweepResult:
    """Figure 7: γ upper bound vs Bp/Bj for 10/20/30 dB jammers."""
    return run_sweep(
        ("bp_over_bj", "gamma_db_10dBm", "gamma_db_20dBm", "gamma_db_30dBm"),
        np.logspace(-2, 2, num_points),
        _bound_record,
    )


def figure08(num_points: int = 61) -> SweepResult:
    """Figure 8: the Figure-7 bound zoomed to Bp/Bj in [0.5, 2]."""
    return run_sweep(
        ("bp_over_bj", "gamma_db_10dBm", "gamma_db_20dBm", "gamma_db_30dBm"),
        np.linspace(0.5, 2.0, num_points),
        _bound_record,
    )


def _fig9_record(_payload: None, e: float) -> dict:
    """One Figure-9 grid point: all BER curves at Eb/N0 ``e`` dB."""
    record = {
        "ebno_db": float(e),
        "dsss_fhss": float(theory.ber_from_ebno(float(e), FIG9_SJR_DB, FIG9_L_DB, gamma=1.0)),
    }
    for r in FIG9_FIXED_RATIOS:
        record[f"bhss_bj_{r}"] = float(
            theory.bhss_ber(
                float(e), FIG9_SJR_DB, FIG9_L_DB, FIG9_BANDWIDTHS, FIG9_WEIGHTS,
                r * FIG9_BANDWIDTHS.max(),
            )
        )
    record["bhss_bj_random"] = float(
        theory.bhss_ber(
            float(e), FIG9_SJR_DB, FIG9_L_DB, FIG9_BANDWIDTHS, FIG9_WEIGHTS,
            FIG9_BANDWIDTHS, jammer_weights=FIG9_WEIGHTS,
        )
    )
    return record


def figure09(num_points: int = 21) -> SweepResult:
    """Figure 9: BER vs Eb/N0 for DSSS/FHSS and BHSS (SJR −20 dB, L = 20 dB)."""
    columns = (
        ["ebno_db", "dsss_fhss"]
        + [f"bhss_bj_{r}" for r in FIG9_FIXED_RATIOS]
        + ["bhss_bj_random"]
    )
    return run_sweep(tuple(columns), np.linspace(0.0, 20.0, num_points), _fig9_record)


def _fig10_record(ebno_db: float, r: float) -> dict:
    """One Figure-10 grid point: BER per SJR at jammer bandwidth ratio ``r``."""
    out = {"bj_over_max_bp": float(r)}
    for sjr in [-10.0, -15.0, -20.0]:
        ber = theory.bhss_ber(
            ebno_db, sjr, FIG9_L_DB, FIG9_BANDWIDTHS, FIG9_WEIGHTS, r * FIG9_BANDWIDTHS.max()
        )
        out[f"ber_sjr_{sjr:.0f}dB"] = float(ber)
    return out


def figure10(num_points: int = 41, ebno_db: float = 15.0) -> SweepResult:
    """Figure 10: BHSS BER vs jammer bandwidth per SJR (−10/−15/−20 dB)."""
    return run_sweep(
        ("bj_over_max_bp", "ber_sjr_-10dB", "ber_sjr_-15dB", "ber_sjr_-20dB"),
        np.logspace(-2, 0, num_points),
        _fig10_record,
        ebno_db,
    )


def _fig11_record(dsss_curve: np.ndarray, point: tuple[int, float]) -> dict:
    """One Figure-11 grid point ``(i, e)``: throughput curves at Eb/N0 ``e`` dB."""
    i, e = point
    out = {"ebno_db": float(e), "dsss_fhss": float(dsss_curve[i])}
    for r in FIG9_FIXED_RATIOS:
        out[f"bhss_bj_{r}"] = float(
            theory.throughput_curve(
                float(e), FIG9_SJR_DB, FIG11_PACKET_BITS, FIG9_L_DB,
                bandwidths=FIG11_BANDWIDTHS, hop_weights=FIG11_WEIGHTS,
                jammer_bandwidths=r * FIG11_BANDWIDTHS.max(),
            )
        )
    out["bhss_bj_random"] = float(
        theory.throughput_curve(
            float(e), FIG9_SJR_DB, FIG11_PACKET_BITS, FIG9_L_DB,
            bandwidths=FIG11_BANDWIDTHS, hop_weights=FIG11_WEIGHTS,
            jammer_bandwidths=FIG11_BANDWIDTHS, jammer_weights=FIG11_WEIGHTS,
        )
    )
    return out


def figure11(num_points: int = 36) -> SweepResult:
    """Figure 11: normalized throughput vs Eb/N0 at equal rate."""
    ebno = np.linspace(-5.0, 30.0, num_points)
    l_dsss = theory.equal_rate_processing_gain_db(FIG9_L_DB, FIG11_BANDWIDTHS, FIG11_WEIGHTS)
    columns = (
        ["ebno_db", "dsss_fhss"]
        + [f"bhss_bj_{r}" for r in FIG9_FIXED_RATIOS]
        + ["bhss_bj_random"]
    )
    dsss_curve = theory.throughput_curve(ebno, FIG9_SJR_DB, FIG11_PACKET_BITS, l_dsss)
    return run_sweep(tuple(columns), list(enumerate(ebno)), _fig11_record, dsss_curve)


def table1(num_trials: int = 3000, seed: int = 0) -> tuple[SweepResult, SweepResult]:
    """Table 1: the three hop distributions + re-run maximin optimization.

    Returns ``(per_bandwidth_rows, summary_rows)``.
    """
    bws = paper_bandwidths()
    lin = linear_weights(7)
    exp = exponential_weights(bws)
    par_paper = PAPER_PARABOLIC_WEIGHTS
    optimized = optimize_parabolic_weights(bws, num_trials=num_trials, seed=seed)

    result = SweepResult(
        columns=(
            "bandwidth_mhz",
            "linear_pct",
            "exponential_pct",
            "parabolic_paper_pct",
            "parabolic_optimized_pct",
        )
    )
    for i, bw in enumerate(bws):
        result.add(
            bandwidth_mhz=float(bw / 1e6),
            linear_pct=float(100 * lin[i]),
            exponential_pct=float(100 * exp[i]),
            parabolic_paper_pct=float(100 * par_paper[i]),
            parabolic_optimized_pct=float(100 * optimized.weights[i]),
        )
    summary = SweepResult(
        columns=("pattern", "avg_bandwidth_mhz", "throughput_kbps", "maximin_gamma_db")
    )
    for name, w in [
        ("linear", lin),
        ("exponential", exp),
        ("parabolic (paper)", par_paper),
        ("parabolic (re-optimized)", optimized.weights),
    ]:
        summary.add(
            pattern=name,
            avg_bandwidth_mhz=float(expected_bandwidth(bws, w) / 1e6),
            throughput_kbps=float(expected_throughput(bws, w) / 1e3),
            maximin_gamma_db=float(maximin_score_db(w, bws)),
        )
    return result, summary


# ---------------------------------------------------------------------------
# measured experiments (Section 6)
# ---------------------------------------------------------------------------

def _fig13_point(payload: dict, point: tuple[float, float]) -> dict:
    """One Figure-13 constellation ``(bp, bj)``: filtered vs eq.-(5) thresholds."""
    bp, bj = point
    search = payload["search"]
    cfg = _paper_config(
        seed=payload["seed"], payload_bytes=payload["payload_bytes"], fixed_bandwidth=float(bp)
    )
    link_filtered = LinkSimulator(cfg)
    link_baseline = LinkSimulator(cfg.as_theory_baseline())
    jammer = _noise(bj)
    t_filt = min_snr_for_per(link_filtered, jnr_db=JNR_DB, jammer=jammer, search=search, seed=3)
    t_base = min_snr_for_per(link_baseline, jnr_db=JNR_DB, jammer=jammer, search=search, seed=3)
    return {
        "bp_mhz": float(bp / 1e6),
        "bj_mhz": float(bj / 1e6),
        "ratio": float(bp / bj),
        "thr_filtered_db": float(t_filt),
        "thr_unfiltered_db": float(t_base),
        "advantage_db": float(t_base - t_filt),
    }


def figure13(scale: float | None = None, payload_bytes: int = 4, seed: int = 17) -> tuple[SweepResult, SweepResult]:
    """Figure 13: power advantage for the 49 fixed bandwidth constellations.

    Returns ``(per_constellation, mean_by_ratio)``; the baseline is the
    eq.-(5) receiver (see DESIGN.md).
    """
    search = default_search(packets=6, tolerance_db=1.5, scale=scale)
    bandwidths = BHSSConfig.paper_default().bandwidth_set.as_array()
    per_pair = run_sweep(
        ("bp_mhz", "bj_mhz", "ratio", "thr_filtered_db", "thr_unfiltered_db", "advantage_db"),
        [(float(bp), float(bj)) for bp in bandwidths for bj in bandwidths],
        _fig13_point,
        {"search": search, "seed": seed, "payload_bytes": payload_bytes},
    )

    groups: dict[float, list[float]] = defaultdict(list)
    for row in per_pair.rows:
        groups[round(np.log2(row["ratio"]), 6)].append(row["advantage_db"])
    by_ratio = SweepResult(columns=("ratio", "advantage_db", "theory_bound_db", "num_constellations"))
    for log_ratio in sorted(groups):
        ratio = 2.0 ** log_ratio
        bound = float(theory.improvement_factor_db(ratio, 1.0, JNR_DB, 1.0))
        by_ratio.add(
            ratio=float(ratio),
            advantage_db=float(np.mean(groups[log_ratio])),
            theory_bound_db=bound,
            num_constellations=len(groups[log_ratio]),
        )
    return per_pair, by_ratio


def _fig14_point(payload: dict, point: tuple[str, float]) -> dict:
    """One Figure-14 point ``(pattern, bj)``: hopping link threshold vs the baseline."""
    pattern, bj = point
    link = LinkSimulator(_paper_config(**payload["base"], pattern=pattern))
    t = min_snr_for_per(link, jnr_db=JNR_DB, jammer=_noise(bj), search=payload["search"], seed=5)
    t_base = payload["t_base"]
    return {
        "pattern": pattern,
        "bj_mhz": float(bj / 1e6),
        "threshold_db": float(t),
        "baseline_db": float(t_base),
        "advantage_db": float(t_base - t),
    }


def figure14(
    scale: float | None = None,
    payload_bytes: int = 8,
    symbols_per_hop: int = 16,
    seed: int = 17,
) -> SweepResult:
    """Figure 14: power advantage per hop pattern vs fixed jammers."""
    search = default_search(packets=8, tolerance_db=1.0, scale=scale)
    base = dict(seed=seed, payload_bytes=payload_bytes, symbols_per_hop=symbols_per_hop)
    bandwidths = _paper_config(**base).bandwidth_set.as_array()
    baseline = LinkSimulator(_paper_config(**base, fixed_bandwidth=10e6))
    t_base = min_snr_for_per(baseline, jnr_db=JNR_DB, jammer=_noise(10e6), search=search, seed=5)
    return run_sweep(
        ("pattern", "bj_mhz", "threshold_db", "baseline_db", "advantage_db"),
        [(pattern, float(bj)) for pattern in PATTERNS for bj in bandwidths],
        _fig14_point,
        {"search": search, "base": base, "t_base": t_base},
    )


def _table2_cell(payload: dict, point: tuple[str, str]) -> dict:
    """One Table-2 cell ``(signal pattern, jammer pattern)``.

    The hopping jammer is stateful, so each cell builds its own from the
    payload's plain spec fields.
    """
    sig, jam = point
    link = LinkSimulator(_paper_config(**payload["base"], pattern=sig))
    jammer = jammer_from_spec(
        {
            "type": "hopping",
            "bandwidths": payload["bandwidths"],
            "dwell_samples": payload["jammer_dwell_samples"],
            "weights": jam,
            "seed": 101,
        },
        sample_rate=FS,
    )
    t = min_snr_for_per(link, jnr_db=JNR_DB, jammer=jammer, search=payload["search"], seed=7)
    return {
        "signal_pattern": sig,
        "jammer_pattern": jam,
        "threshold_db": float(t),
        "advantage_db": float(payload["t_base"] - t),
    }


def table2(
    scale: float | None = None,
    payload_bytes: int = 8,
    symbols_per_hop: int = 16,
    jammer_dwell_samples: int = 16384,
    seed: int = 23,
) -> SweepResult:
    """Table 2: power advantage matrix, hopping signal x hopping jammer."""
    search = default_search(packets=8, tolerance_db=1.0, scale=scale)
    base = dict(seed=seed, payload_bytes=payload_bytes, symbols_per_hop=symbols_per_hop)
    bandwidths = _paper_config(**base).bandwidth_set.as_array()
    baseline = LinkSimulator(_paper_config(**base, fixed_bandwidth=10e6))
    t_base = min_snr_for_per(baseline, jnr_db=JNR_DB, jammer=_noise(10e6), search=search, seed=7)
    return run_sweep(
        ("signal_pattern", "jammer_pattern", "threshold_db", "advantage_db"),
        [(sig, jam) for sig in PATTERNS for jam in PATTERNS],
        _table2_cell,
        {
            "search": search,
            "base": base,
            "bandwidths": [float(b) for b in bandwidths],
            "jammer_dwell_samples": jammer_dwell_samples,
            "t_base": t_base,
        },
    )


def validation_ber(scale: float | None = None, payload_bytes: int = 16, seed: int = 61) -> tuple[SweepResult, SweepResult]:
    """Validation: simulator vs eq.-(7) (waterfall + matched-jamming ≡ noise)."""
    if scale is None:
        scale = env_scale()
    packets = max(6, int(round(12 * scale)))
    cfg = _paper_config(seed=seed, payload_bytes=payload_bytes, fixed_bandwidth=10e6)
    link = LinkSimulator(cfg)

    def ber(snr_db, sjr_db=float("inf"), jammer=None, run_seed=0):
        return float(
            link.run_packets(packets, snr_db=snr_db, sjr_db=sjr_db, jammer=jammer, seed=run_seed).bit_error_rate
        )

    waterfall = SweepResult(columns=("snr_db", "ber"))
    for snr in [-18.0, -15.0, -12.0, -9.0, -6.0]:
        waterfall.add(snr_db=snr, ber=ber(snr, run_seed=1))

    jam = _noise(10e6)
    matched = SweepResult(columns=("sjr_db", "ber_jammed", "ber_unjammed_at_sjr_plus_gain"))
    for sjr in [-16.0, -13.0, -10.0]:
        matched.add(
            sjr_db=sjr,
            ber_jammed=ber(30.0, sjr_db=sjr, jammer=jam, run_seed=2),
            # full-band noise vs 10 MHz in-band jammer: 3 dB occupancy term
            ber_unjammed_at_sjr_plus_gain=ber(sjr - 3.0, run_seed=3),
        )
    return waterfall, matched


# ---------------------------------------------------------------------------
# ablations and extensions (ours)
# ---------------------------------------------------------------------------

def _dwells_point(payload: dict, sph: int) -> dict:
    """One dwell-ablation point: the exponential-pattern link at ``sph`` symbols per hop."""
    cfg = _paper_config(
        pattern="exponential", seed=payload["seed"], payload_bytes=payload["payload_bytes"],
        symbols_per_hop=sph,
    )
    t = min_snr_for_per(
        LinkSimulator(cfg), jnr_db=JNR_DB, jammer=_noise(payload["jammer_bandwidth"]),
        search=payload["search"], seed=9,
    )
    return {
        "symbols_per_hop": sph,
        "dwells_per_packet": int(-(-cfg.frame_symbols() // sph)),
        "threshold_db": float(t),
        "advantage_db": float(payload["t_base"] - t),
    }


def ablation_dwells(
    scale: float | None = None,
    payload_bytes: int = 8,
    jammer_bandwidth: float = 2.5e6,
    seed: int = 29,
) -> SweepResult:
    """Ablation: power advantage vs hop-dwell count per packet."""
    search = default_search(packets=8, tolerance_db=1.0, scale=scale)
    baseline = LinkSimulator(
        _paper_config(seed=seed, payload_bytes=payload_bytes, fixed_bandwidth=10e6)
    )
    t_base = min_snr_for_per(baseline, jnr_db=JNR_DB, jammer=_noise(10e6), search=search, seed=9)
    return run_sweep(
        ("symbols_per_hop", "dwells_per_packet", "threshold_db", "advantage_db"),
        [4, 8, 16, 32],
        _dwells_point,
        {
            "search": search,
            "seed": seed,
            "payload_bytes": payload_bytes,
            "jammer_bandwidth": jammer_bandwidth,
            "t_base": t_base,
        },
    )


def ablation_filters(scale: float | None = None, payload_bytes: int = 4, seed: int = 37) -> SweepResult:
    """Ablation: per-filter decomposition (full / lpf-only / ef-only / none)."""
    search = default_search(packets=8, tolerance_db=1.0, scale=scale)

    def make_link(bp: float, variant: str) -> LinkSimulator:
        cfg = _paper_config(seed=seed, payload_bytes=payload_bytes, fixed_bandwidth=float(bp))
        if variant == "none":
            return LinkSimulator(cfg.without_filtering())
        kwargs = dict(sample_rate=cfg.sample_rate, pulse=cfg.pulse)
        if variant == "lpf-only":
            kwargs["peak_margin_db"] = 500.0
        elif variant == "ef-only":
            kwargs["wide_ratio"] = 1e6
        link = LinkSimulator(cfg)
        link.receiver = BHSSReceiver(cfg, control=ControlLogic(**kwargs))
        return link

    scenarios = [("narrow jammer", 10e6, 0.625e6), ("wide jammer", 0.625e6, 10e6)]
    result = SweepResult(columns=("scenario", "variant", "threshold_db"))
    for label, bp, bj in scenarios:
        for variant in ["full", "lpf-only", "ef-only", "none"]:
            t = min_snr_for_per(
                make_link(bp, variant), jnr_db=JNR_DB,
                jammer=_noise(bj), search=search, seed=11,
            )
            result.add(scenario=label, variant=variant, threshold_db=float(t))
    return result


def ablation_fec(
    scale: float | None = None,
    payload_bytes: int = 8,
    jammer_bandwidth: float = 2.5e6,
    seed: int = 41,
) -> SweepResult:
    """Ablation: FEC + cross-dwell interleaving vs uncoded."""
    search = default_search(packets=8, tolerance_db=1.0, scale=scale)
    result = SweepResult(
        columns=("fec", "code_rate", "air_symbols", "threshold_db", "coding_gain_db")
    )
    thresholds: dict[str, float] = {}
    for fec in ["none", "hamming74", "hamming1511", "rep3", "rep5"]:
        cfg = _paper_config(
            pattern="linear", seed=seed, payload_bytes=payload_bytes, symbols_per_hop=4, fec=fec
        )
        t = min_snr_for_per(
            LinkSimulator(cfg), jnr_db=JNR_DB,
            jammer=_noise(jammer_bandwidth), search=search, seed=13,
        )
        thresholds[fec] = t
        result.add(
            fec=fec,
            code_rate=float(get_codec(fec).rate),
            air_symbols=int(cfg.air_symbols()),
            threshold_db=float(t),
            coding_gain_db=float(thresholds["none"] - t),
        )
    return result


def ext_fhss_vs_bhss(scale: float | None = None, payload_bytes: int = 8, seed: int = 67) -> SweepResult:
    """Extension: empirical FHSS baseline vs BHSS at equal spectrum."""
    search = default_search(packets=8, tolerance_db=1.0, scale=scale)
    fhss = FHSSLink(FHSSLinkConfig(payload_bytes=payload_bytes, seed=seed, symbols_per_hop=4))
    bhss = LinkSimulator(
        _paper_config(
            pattern="parabolic", seed=seed, payload_bytes=payload_bytes, symbols_per_hop=16
        )
    )

    def fhss_min_snr(jammer) -> float:
        def per_at(snr_db):
            per, _ = fhss.run_packets(
                search.packets_per_point, snr_db=snr_db, sjr_db=snr_db - JNR_DB,
                jammer=jammer, seed=15,
            )
            return per

        lo, hi = search.snr_low, search.snr_high
        if per_at(hi) > search.target_per:
            return hi
        if per_at(lo) <= search.target_per:
            return lo
        while hi - lo > search.tolerance_db:
            mid = 0.5 * (lo + hi)
            if per_at(mid) <= search.target_per:
                hi = mid
            else:
                lo = mid
        return hi

    scenarios = [
        ("full-band 10 MHz", _noise(10e6)),
        ("partial-band 1.25 MHz", _noise(1.25e6, centre=2.5e6)),
        ("narrow 0.156 MHz", _noise(0.15625e6, centre=-1e6)),
    ]
    result = SweepResult(
        columns=("jammer", "fhss_threshold_db", "bhss_threshold_db", "bhss_advantage_db")
    )
    for label, jammer in scenarios:
        t_fhss = fhss_min_snr(jammer)
        t_bhss = min_snr_for_per(bhss, jnr_db=JNR_DB, jammer=jammer, search=search, seed=15)
        result.add(
            jammer=label,
            fhss_threshold_db=float(t_fhss),
            bhss_threshold_db=float(t_bhss),
            bhss_advantage_db=float(t_fhss - t_bhss),
        )
    return result


def ext_multipath(scale: float | None = None, payload_bytes: int = 8, seed: int = 97) -> SweepResult:
    """Extension: PER per hop bandwidth over multipath, ± MMSE equalizer."""
    from repro.channel import channel_from_spec
    from repro.core import BHSSTransmitter
    from repro.sync import equalize, estimate_channel, mmse_equalizer_taps

    if scale is None:
        scale = env_scale()
    packets = max(4, int(round(6 * scale)))
    # A pure-Rayleigh (no line of sight) 16-tap channel: ~1.25 MHz
    # coherence bandwidth, deep frequency selectivity for the wide hops.
    channel_taps = 16

    def run(bandwidth: float, equalized: bool) -> float:
        cfg = _paper_config(seed=seed, payload_bytes=payload_bytes, fixed_bandwidth=float(bandwidth))
        tx, rx = BHSSTransmitter(cfg), BHSSReceiver(cfg)
        channel = channel_from_spec(
            {"type": "multipath", "num_taps": channel_taps, "decay_samples": 5.3,
             "seed": 3, "line_of_sight": 0.0}
        )
        failures = 0
        for k in range(packets):
            packet = tx.transmit(packet_index=k)
            faded = channel.apply(packet.waveform)
            train = min(2048, packet.num_samples // 2)
            if equalized:
                h_est = estimate_channel(faded[:train], packet.waveform[:train], num_taps=channel_taps + 2)
                w = mmse_equalizer_taps(h_est, num_taps=256, noise_power=1e-3)
                faded = equalize(faded, w)
            else:
                phase = np.angle(np.vdot(packet.waveform[:train], faded[:train]))
                faded = faded * np.exp(-1j * phase)
            result = rx.receive(faded, packet_index=k, phase_track=True)
            failures += int(not (result.accepted and result.payload == packet.payload))
        return failures / packets

    result = SweepResult(columns=("bandwidth_mhz", "per_plain", "per_equalized"))
    for bw in [10e6, 5e6, 2.5e6, 1.25e6, 0.625e6, 0.3125e6]:
        result.add(
            bandwidth_mhz=float(bw / 1e6),
            per_plain=float(run(bw, False)),
            per_equalized=float(run(bw, True)),
        )
    return result


def ext_network(
    scale: float | None = None,
    num_links: int = 6,
    payload_bytes: int = 2,
    seed: int = 211,
) -> SweepResult:
    """Extension: network throughput and Jain fairness vs jammer count.

    ``num_links`` BHSS links share one spectrum with nearest-neighbour
    chain coupling at -20 dB; every link carries a personal jammer
    (alternating tone/noise, distinct parameters), and the sweep
    activates them 0..N at a time (:func:`jammer_count_sweep`), so the
    rows trace how aggregate goodput and Jain fairness degrade as the
    jammer population grows.
    """
    from repro.network import LinkSpec, NetworkSpec, jammer_count_sweep

    if scale is None:
        scale = env_scale()
    packets = max(2, int(round(4 * scale)))
    links = []
    for i in range(num_links):
        if i % 2 == 0:
            jammer = {"type": "tone", "frequency": float(150e3 * (i + 1))}
            sjr_db = -6.0
        else:
            jammer = {"type": "noise", "bandwidth": float(312.5e3 * (i + 1))}
            sjr_db = -8.0
        links.append(
            LinkSpec(
                name=f"n{i}",
                config=_paper_config(
                    pattern=PATTERNS[i % len(PATTERNS)],
                    seed=seed + i,
                    payload_bytes=payload_bytes,
                ),
                seed=1000 + i,
                snr_db=15.0,
                sjr_db=sjr_db,
                jammer=jammer,
            )
        )
    coupling = tuple(
        tuple(-20.0 if abs(i - j) == 1 else None for j in range(num_links))
        for i in range(num_links)
    )
    spec = NetworkSpec(
        name=f"ext-network-{num_links}",
        links=tuple(links),
        coupling_db=coupling,
        packets=packets,
        description="chain-coupled network behind the fairness-vs-jammer-count figure",
    )
    return jammer_count_sweep(spec)


def ext_arena(
    scale: float | None = None,
    payload_bytes: int = 2,
    seed: int = 223,
) -> SweepResult:
    """Extension: adversary-zoo tournament — the resilience matrix.

    Pits the adaptive jammer strategies (latent reactive, repeater,
    optimal multitone, learning follower) plus the unjammed baseline
    against a static-band link (hop range 1) and full seven-bandwidth
    randomized hopping, for two hop patterns, all at one common
    (SNR, SJR) operating point.  The rows are the tournament's
    resilience matrix; the ``jammer-advantage`` summary (mean PER
    degradation vs baseline) is in ``TournamentResult.aggregates()``
    when run through :func:`repro.arena.run_tournament` directly.
    """
    from repro.arena import ArenaSpec, run_tournament

    if scale is None:
        scale = env_scale()
    packets = max(2, int(round(6 * scale)))
    spec = ArenaSpec(
        name="ext-arena",
        config=_paper_config(seed=seed, payload_bytes=payload_bytes),
        jammers=(
            ("none", {"type": "none"}),
            ("latent", {"type": "latent-reactive", "bandwidth": 10e6,
                        "turnaround_samples": 2048}),
            ("repeater", {"type": "repeater", "delay_samples": 64, "num_taps": 3}),
            ("multitone", {"type": "multitone", "placement_bandwidth": 0.15625e6,
                           "num_tones": 4}),
            ("follower", {"type": "follower", "initial_bandwidth": 10e6}),
        ),
        patterns=("linear", "parabolic"),
        hop_ranges=(1, 7),
        snr_db=15.0,
        sjr_db=-10.0,
        packets=packets,
        seed=seed,
        description="adversary zoo vs static-band and randomized hopping",
    )
    return run_tournament(spec).to_sweep_result()


def ext_protocol(
    scale: float | None = None,
    payload_bytes: int = 16,
    seed: int = 251,
) -> SweepResult:
    """Extension: session layer vs a learning follower — delivery and re-sync.

    Runs the seed-synchronized session of :mod:`repro.protocol` against
    the learning follower jammer in two modes at each SJR: ``static``
    (hopping disabled, pinned to the widest band — the band the follower
    converges on) and ``hopping`` (randomized parabolic bandwidth
    hopping with per-epoch seed rotation).  Rows carry the session-level
    outcomes — message-delivery ratio, goodput, data-plane PER,
    desync/re-sync counts and mean re-sync latency — and the headline
    result is that randomized hopping sustains a strictly higher
    delivery ratio than the static band at equal SJR, because the
    follower's bandwidth estimate keeps chasing the rotating schedule
    instead of parking on it.
    """
    from repro.protocol import MessageTrafficSpec, SessionSpec, run_session

    if scale is None:
        scale = env_scale()
    num_messages = max(1, int(round(2 * scale)))
    # Slow hopping (one dwell spans the whole frame): each packet rides a
    # single band, so the follower's lagging bandwidth estimate misses
    # most hopped packets while it stays locked onto a static band — the
    # regime where randomized hopping's delivery advantage is starkest.
    config = _paper_config(seed=seed, payload_bytes=payload_bytes, symbols_per_hop=16)
    widest = float(np.max(config.bandwidth_set.as_array()))
    traffic = MessageTrafficSpec(num_messages=num_messages, message_bytes=24, seed=seed + 1)
    modes = (
        ("static", config.with_fixed_bandwidth(widest)),
        ("hopping", config),
    )
    combined = SweepResult(columns=("mode", "snr_db", "sjr_db", "delivery_ratio",
                                    "goodput_bps", "data_per", "desync_count",
                                    "resync_count", "mean_resync_latency", "degraded"))
    for mode, mode_config in modes:
        spec = SessionSpec(
            name=f"ext-protocol-{mode}",
            config=mode_config,
            traffic=traffic,
            jammer={"type": "follower", "initial_bandwidth": 10e6},
            snr_db=(15.0,),
            sjr_db=(-4.0, -8.0),
            seed=seed,
            packets_per_epoch=6,
            resync_retries=3,
            sync_timeout=4,
            max_slots=96,
            description="session delivery under a learning follower",
        )
        result = run_session(spec)
        for row in result.rows:
            combined.add(
                mode=mode,
                snr_db=row["snr_db"],
                sjr_db=row["sjr_db"],
                delivery_ratio=row["delivery_ratio"],
                goodput_bps=row["goodput_bps"],
                data_per=row["data_per"],
                desync_count=row["desync_count"],
                resync_count=row["resync_count"],
                mean_resync_latency=row["mean_resync_latency"],
                degraded=row["degraded"],
            )
    return combined


#: experiment name -> (callable, one-line description)
REGISTRY: dict[str, tuple[Callable, str]] = {
    "fig07": (figure07, "SNR improvement bound vs Bp/Bj (Figure 7)"),
    "fig08": (figure08, "bound zoom on ratios [0.5, 2] (Figure 8)"),
    "fig09": (figure09, "BER vs Eb/N0, BHSS vs DSSS/FHSS (Figure 9)"),
    "fig10": (figure10, "BER vs jammer bandwidth per SJR (Figure 10)"),
    "fig11": (figure11, "normalized throughput vs Eb/N0 (Figure 11)"),
    "tab1": (table1, "hop distributions + maximin optimization (Table 1)"),
    "fig13": (figure13, "power advantage, 49 fixed constellations (Figure 13)"),
    "fig14": (figure14, "power advantage per hop pattern (Figure 14)"),
    "tab2": (table2, "hopping signal x hopping jammer matrix (Table 2)"),
    "validation": (validation_ber, "simulator vs eq.-(7) cross-check"),
    "ablation-dwells": (ablation_dwells, "power advantage vs dwells per packet"),
    "ablation-filters": (ablation_filters, "per-filter decomposition"),
    "ablation-fec": (ablation_fec, "FEC + interleaving vs uncoded"),
    "ext-fhss": (ext_fhss_vs_bhss, "empirical FHSS baseline vs BHSS"),
    "ext-multipath": (ext_multipath, "multipath PER per bandwidth, +/- equalizer"),
    "ext-network": (ext_network, "network throughput + Jain fairness vs jammer count"),
    "ext-arena": (ext_arena, "adversary-zoo tournament: resilience matrix + jammer advantage"),
    "ext-protocol": (ext_protocol, "session delivery/goodput/re-sync vs a learning follower"),
}
