"""End-to-end link simulation: transmitter → jammed AWGN medium → receiver.

This is the software equivalent of the paper's Figure-12 testbed: a BHSS
transmitter and receiver joined by the calibrated medium, with any of the
jammer models injected at a configured signal-to-jammer ratio.  The
statistics it reports — packet error rate against the CRC, bit error rate
against the known payload, throughput — are the quantities every
experimental figure of Section 6 is built from.

The synthesis and demodulation halves of the chain live in
:mod:`repro.core.paths` (:class:`TxPath` / :class:`RxPath`);
:class:`LinkSimulator` composes them around the medium and owns the
batching, caching, and fan-out policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.channel.impairments import Impairments
from repro.channel.link_medium import Medium
from repro.core.config import BHSSConfig
from repro.core.paths import PacketOutcome, RxPath, TxPath, draw_jammer_wave
from repro.core.receiver import BHSSReceiver, ReceiveResult
from repro.core.transmitter import BHSSTransmitter, TransmittedPacket
from repro.jamming.base import Jammer
from repro.runtime import ParallelExecutor, ResultCache, canonical, resolve_batch, resolve_cache
from repro.utils.rng import child_rng, make_rng

__all__ = ["LinkSimulator", "PacketOutcome", "LinkStats"]


def _spec_view(obj: Any) -> Any:
    """A serializable fingerprint of a link component for cache keys.

    Prefers the component's declarative spec (``spec()`` / ``to_dict()``)
    so that a link built from scenario JSON and one built in code hash to
    the same cache entry; objects without a spec (custom jammers, ad-hoc
    channels) fall back to the structural :func:`canonical` view.
    """
    if obj is None:
        return None
    for attr in ("spec", "to_dict"):
        method = getattr(obj, attr, None)
        if callable(method):
            try:
                return method()
            except NotImplementedError:
                break
    return canonical(obj)


@dataclass(frozen=True)
class LinkStats:
    """Aggregate statistics over a packet batch."""

    num_packets: int
    num_accepted: int
    total_bits: int
    bit_errors: int
    data_rate_bps: float
    filter_usage: dict

    def __post_init__(self) -> None:
        # Defensive copy: the stats must not alias the caller's counter
        # dict (frozen dataclasses are only as immutable as their fields).
        object.__setattr__(self, "filter_usage", dict(self.filter_usage))

    @property
    def packet_error_rate(self) -> float:
        """Fraction of packets whose CRC (or structure) failed."""
        if self.num_packets == 0:
            return 0.0
        return 1.0 - self.num_accepted / self.num_packets

    def to_dict(self) -> dict:
        """Flat JSON-friendly dict of counts and derived rates."""
        lo, hi = self.per_confidence_interval()
        return {
            "num_packets": self.num_packets,
            "num_accepted": self.num_accepted,
            "total_bits": self.total_bits,
            "bit_errors": self.bit_errors,
            "packet_error_rate": self.packet_error_rate,
            "per_ci_low": lo,
            "per_ci_high": hi,
            "bit_error_rate": self.bit_error_rate,
            "data_rate_bps": self.data_rate_bps,
            "throughput_bps": self.throughput_bps,
            "filter_usage": dict(self.filter_usage),
        }

    def per_confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson score interval for the packet error rate.

        The PER at small packet counts carries real statistical
        uncertainty; the Wilson interval stays sane at the 0/1 edges
        (unlike the normal approximation).  ``z = 1.96`` gives 95 %.
        """
        n = self.num_packets
        if n == 0:
            return (0.0, 1.0)
        p = self.packet_error_rate
        denom = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / denom
        half = (z / denom) * float(np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)))
        return (max(0.0, centre - half), min(1.0, centre + half))

    @property
    def bit_error_rate(self) -> float:
        """Raw payload bit error rate across all packets."""
        return self.bit_errors / self.total_bits if self.total_bits else 0.0

    @property
    def throughput_bps(self) -> float:
        """Goodput: data rate times packet success fraction (eq. 17)."""
        return self.data_rate_bps * (1.0 - self.packet_error_rate)


class LinkSimulator:
    """Runs packets through transmitter → medium (+ jammer) → receiver.

    Parameters
    ----------
    config:
        The shared link configuration; transmitter and receiver are both
        derived from it (same seed = synchronized schedule and scrambler).
    impairments:
        Optional front-end impairments applied to the received waveform.
        When set, reception goes through the acquiring/synchronizing path
        implicitly via the receiver's phase tracking; for the benchmark
        sweeps the ideal front end (the default) keeps results about the
        *filtering* mechanism, as in the paper's theory section.
    channel:
        Optional propagation channel (e.g.
        :class:`repro.channel.MultipathChannel`) applied to the *signal*
        path before the jammer and noise are superposed.  The jammer path
        stays flat — the attacker is assumed to position itself for a
        clean shot at the receiver; a faded jammer would only be weaker.
        The paper's coax testbed corresponds to ``None``.
    """

    def __init__(
        self,
        config: BHSSConfig,
        impairments: Impairments | None = None,
        channel: Any = None,
    ) -> None:
        self.config = config
        self.tx_path = TxPath(config, channel=channel)
        self.rx_path = RxPath(config, impairments=impairments)
        self.medium = Medium(config.sample_rate)

    # The component attributes predate the TxPath/RxPath split; they keep
    # working (including assignment — ablations swap the receiver) by
    # delegating to the owning path.

    @property
    def transmitter(self) -> BHSSTransmitter:
        """The synthesis path's transmitter."""
        return self.tx_path.transmitter

    @transmitter.setter
    def transmitter(self, value: BHSSTransmitter) -> None:
        self.tx_path.transmitter = value

    @property
    def receiver(self) -> BHSSReceiver:
        """The demodulation path's receiver."""
        return self.rx_path.receiver

    @receiver.setter
    def receiver(self, value: BHSSReceiver) -> None:
        self.rx_path.receiver = value

    @property
    def channel(self) -> Any:
        """The synthesis path's propagation channel (``None`` = coax)."""
        return self.tx_path.channel

    @channel.setter
    def channel(self, value: Any) -> None:
        self.tx_path.channel = value

    @property
    def impairments(self) -> Impairments | None:
        """The demodulation path's front-end impairments."""
        return self.rx_path.impairments

    @impairments.setter
    def impairments(self, value: Impairments | None) -> None:
        self.rx_path.impairments = value

    # -- single packet ----------------------------------------------------------

    def run_packet(
        self,
        snr_db: float,
        sjr_db: float = float("inf"),
        jammer: Jammer | None = None,
        packet_index: int = 0,
        rng: int | np.random.Generator | None = None,
        payload: bytes | None = None,
        jammer_delay_samples: int = 0,
    ) -> PacketOutcome:
        """Simulate one packet and compare what was decoded to the truth."""
        gen = make_rng(rng)
        packet, tx_wave = self.tx_path.emit(packet_index, payload)
        jam_wave = draw_jammer_wave(jammer, packet, sjr_db, gen)
        block = self.medium.combine(
            tx_wave,
            snr_db=snr_db,
            jammer=jam_wave,
            sjr_db=sjr_db,
            jammer_delay_samples=jammer_delay_samples,
            rng=gen,
        )
        return self.rx_path.receive_packet(packet, block.samples, packet_index)

    def _score_packet(self, packet: TransmittedPacket, result: ReceiveResult) -> PacketOutcome:
        """Compare one receive result against the transmitted truth."""
        return self.rx_path.score(packet, result)

    def _symbol_region_bit_errors(self, sent_symbols: np.ndarray, got_symbols: np.ndarray) -> int:
        """Bit errors across the payload symbol region (nibble XOR popcount)."""
        return self.rx_path.symbol_region_bit_errors(sent_symbols, got_symbols)

    # -- batches ---------------------------------------------------------------

    def run_packets(
        self,
        num_packets: int,
        snr_db: float,
        sjr_db: float = float("inf"),
        jammer: Jammer | None = None,
        seed: int = 0,
        payload: bytes | None = None,
        jammer_delay_samples: int = 0,
        executor: ParallelExecutor | None = None,
        cache: "ResultCache | str | bool | None" = None,
    ) -> LinkStats:
        """Simulate a batch of packets and aggregate the statistics.

        Every packet ``k`` draws from the independent stream
        ``child_rng(seed, "packet", str(k))``, so the batch can be split
        into contiguous chunks and fanned out over ``executor`` (default:
        the ``REPRO_WORKERS``-configured pool; serial when unset) with
        bit-identical aggregate statistics.  Stateful jammers (hoppers,
        sweepers — see :attr:`Jammer.is_stateful`) must see packets in
        order and therefore always run on the serial path.

        With ``cache`` (default: the ``REPRO_CACHE``-configured on-disk
        cache, disabled when unset) the aggregated statistics of
        memoryless-jammer batches are memoized under a stable hash of
        (config fingerprint, operating point, seed, packet budget).
        ``cache=False`` forces caching off regardless of the environment
        (used by timing benchmarks); ``True`` or a directory path selects
        that store (:func:`~repro.runtime.cache.resolve_cache`).
        """
        if num_packets < 1:
            raise ValueError(f"num_packets must be >= 1, got {num_packets}")
        ex = executor if executor is not None else ParallelExecutor()
        store = resolve_cache(cache)
        order_free = jammer is None or not jammer.is_stateful

        key = None
        if store is not None and order_free:
            key = self._stats_cache_key(
                num_packets, snr_db, sjr_db, jammer, seed, payload, jammer_delay_samples
            )
            hit = store.get(key)
            if hit is not None:
                return LinkStats(**hit)

        chunk_kwargs = dict(
            snr_db=snr_db,
            sjr_db=sjr_db,
            jammer=jammer,
            seed=seed,
            payload=payload,
            jammer_delay_samples=jammer_delay_samples,
        )
        if ex.parallel and order_free and num_packets >= 2:
            bounds = self._chunk_bounds(num_packets, ex.workers)
            # Ships the live link, not a config rebuild: callers may swap its
            # receiver or channel after construction.
            report = ex.map_spec(_packet_chunk, {"link": self, **chunk_kwargs}, bounds)
            partials = list(report.values)
        else:
            partials = [self._run_packet_chunk(0, num_packets, **chunk_kwargs)]

        accepted = 0
        bit_errors = 0
        total_bits = 0
        usage: dict[str, int] = {}
        for part_accepted, part_bit_errors, part_total_bits, part_usage in partials:
            accepted += part_accepted
            bit_errors += part_bit_errors
            total_bits += part_total_bits
            for filter_kind, count in part_usage.items():
                usage[filter_kind] = usage.get(filter_kind, 0) + count
        stats = LinkStats(
            num_packets=num_packets,
            num_accepted=accepted,
            total_bits=total_bits,
            bit_errors=bit_errors,
            data_rate_bps=self.data_rate_bps(),
            filter_usage=usage,
        )
        if key is not None:
            store.put(key, self._stats_payload(stats))
        return stats

    def _stats_cache_key(
        self,
        num_packets: int,
        snr_db: float,
        sjr_db: float,
        jammer: Jammer | None,
        seed: int,
        payload: bytes | None,
        jammer_delay_samples: int,
    ) -> dict:
        """The on-disk cache key of a packet batch's aggregate statistics.

        Shared verbatim between :meth:`run_packets` and
        :meth:`run_packets_batched` — the two paths are bit-identical, so
        a result computed by either serves the other.
        """
        return {
            "kind": "LinkSimulator.run_packets",
            "config": _spec_view(self.config),
            "impairments": _spec_view(self.impairments),
            "channel": _spec_view(self.channel),
            "num_packets": int(num_packets),
            "snr_db": canonical(float(snr_db)),
            "sjr_db": canonical(float(sjr_db)),
            "jammer": _spec_view(jammer),
            "seed": int(seed),
            "payload": canonical(payload),
            "jammer_delay_samples": int(jammer_delay_samples),
        }

    @staticmethod
    def _stats_payload(stats: LinkStats) -> dict:
        return {
            "num_packets": stats.num_packets,
            "num_accepted": stats.num_accepted,
            "total_bits": stats.total_bits,
            "bit_errors": stats.bit_errors,
            "data_rate_bps": stats.data_rate_bps,
            "filter_usage": stats.filter_usage,
        }

    def run_packets_batched(
        self,
        num_packets: int,
        snr_db: float,
        sjr_db: float = float("inf"),
        jammer: Jammer | None = None,
        seed: int = 0,
        payload: bytes | None = None,
        jammer_delay_samples: int = 0,
        batch_size: int | None = None,
        cache: "ResultCache | str | bool | None" = None,
    ) -> LinkStats:
        """Vectorized :meth:`run_packets`: stack packets, same statistics.

        Simulates ``batch_size`` packets per stacked call (default: the
        ``REPRO_BATCH``-configured size, 64 when unset) and returns
        **bit-identical** :class:`LinkStats` to the serial path for every
        ``(seed, operating point)``.  The contract that makes this exact:

        * packet ``k`` draws from ``child_rng(seed, "packet", str(k))``
          exactly as in :meth:`run_packets`, and everything that consumes
          randomness — the jammer waveform, then the medium noise — runs
          in a strictly ordered per-packet loop (this also preserves
          stateful jammers' packet-order state evolution);
        * only the deterministic DSP (pulse shaping, filtering, matched
          filtering, despreading, spectral estimation) is stacked, through
          batch primitives whose rows are bit-identical to their serial
          counterparts.

        Batches share the serial path's result cache entries (same key),
        so a warm cache serves either path.  Front-end impairments force
        ``phase_track``, whose Costas recursion has nothing to batch —
        that configuration falls back to :meth:`run_packets`, as does
        ``batch_size <= 1``.
        """
        if num_packets < 1:
            raise ValueError(f"num_packets must be >= 1, got {num_packets}")
        batch = resolve_batch() if batch_size is None else max(0, int(batch_size))
        common = dict(
            snr_db=snr_db,
            sjr_db=sjr_db,
            jammer=jammer,
            seed=seed,
            payload=payload,
            jammer_delay_samples=jammer_delay_samples,
        )
        if batch <= 1 or (self.impairments is not None and not self.impairments.is_ideal):
            return self.run_packets(num_packets, cache=cache, **common)

        store = resolve_cache(cache)
        order_free = jammer is None or not jammer.is_stateful
        key = None
        if store is not None and order_free:
            key = self._stats_cache_key(
                num_packets, snr_db, sjr_db, jammer, seed, payload, jammer_delay_samples
            )
            hit = store.get(key)
            if hit is not None:
                return LinkStats(**hit)

        accepted = 0
        bit_errors = 0
        total_bits = 0
        usage: dict[str, int] = {}
        for start in range(0, num_packets, batch):
            indices = list(range(start, min(start + batch, num_packets)))
            packets = self.transmitter.transmit_batch(indices, payload=payload)
            received: list[np.ndarray] = []
            for k, packet in zip(indices, packets):
                gen = child_rng(seed, "packet", str(k))
                tx_wave = self.tx_path.propagate(packet.waveform)
                jam_wave = draw_jammer_wave(jammer, packet, sjr_db, gen)
                block = self.medium.combine(
                    tx_wave,
                    snr_db=snr_db,
                    jammer=jam_wave,
                    sjr_db=sjr_db,
                    jammer_delay_samples=jammer_delay_samples,
                    rng=gen,
                )
                received.append(block.samples)
            results = self.receiver.receive_batch(
                received,
                payload_len=len(packets[0].payload),
                packet_indices=indices,
            )
            for packet, result in zip(packets, results):
                outcome = self.rx_path.score(packet, result)
                accepted += int(outcome.accepted)
                bit_errors += outcome.bit_errors
                total_bits += outcome.total_bits
                for kind, count in result.filter_usage().items():
                    usage[kind] = usage.get(kind, 0) + count
        stats = LinkStats(
            num_packets=num_packets,
            num_accepted=accepted,
            total_bits=total_bits,
            bit_errors=bit_errors,
            data_rate_bps=self.data_rate_bps(),
            filter_usage=usage,
        )
        if key is not None:
            store.put(key, self._stats_payload(stats))
        return stats

    @staticmethod
    def _chunk_bounds(num_packets: int, workers: int) -> list[tuple[int, int]]:
        """Contiguous ``(start, stop)`` packet ranges for the pool.

        A few chunks per worker keeps stragglers from serializing the
        tail; chunk boundaries do not affect results (packet seeding is
        per-index), only load balance.
        """
        target = max(1, min(num_packets, 4 * workers))
        edges = np.linspace(0, num_packets, target + 1).astype(int)
        return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]

    def _run_packet_chunk(
        self,
        start: int,
        stop: int,
        snr_db: float,
        sjr_db: float,
        jammer: Jammer | None,
        seed: int,
        payload: bytes | None,
        jammer_delay_samples: int,
    ) -> tuple[int, int, int, dict[str, int]]:
        """Aggregate packets ``start..stop-1``; the serial inner loop."""
        accepted = 0
        bit_errors = 0
        total_bits = 0
        usage: dict[str, int] = {}
        for k in range(start, stop):
            outcome = self.run_packet(
                snr_db=snr_db,
                sjr_db=sjr_db,
                jammer=jammer,
                packet_index=k,
                rng=child_rng(seed, "packet", str(k)),
                payload=payload,
                jammer_delay_samples=jammer_delay_samples,
            )
            accepted += int(outcome.accepted)
            bit_errors += outcome.bit_errors
            total_bits += outcome.total_bits
            for kind, count in outcome.receive.filter_usage().items():
                usage[kind] = usage.get(kind, 0) + count
        return accepted, bit_errors, total_bits, usage

    def data_rate_bps(self) -> float:
        """Average payload data rate of the configured link in bits/second.

        Computed from the expected hop bandwidth; see
        :meth:`TxPath.data_rate_bps`, which owns the calculation.
        """
        return self.tx_path.data_rate_bps()


def _packet_chunk(payload: dict, bounds: tuple[int, int]) -> tuple[int, int, int, dict[str, int]]:
    """Pool runner of :meth:`LinkSimulator.run_packets`: one packet range."""
    kwargs = dict(payload)
    link = kwargs.pop("link")
    return link._run_packet_chunk(*bounds, **kwargs)
