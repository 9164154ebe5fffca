"""Spans around the benchmark's calls into each layer of ``repro``.

The benchmark does not instrument the program.  For a traced round it swaps
each public function or method listed in :data:`WRAPPED` for a timing
wrapper, everywhere the program looks the name up (every ``repro`` module
that binds the function, or the class that defines the method), and puts the
originals back afterwards.  A span records its name, start, end, parent span
and the process it ran in; spans stay in memory and are written out as JSON
lines when the run ends.

Pool workers are forked while a traced round runs, so they inherit the
wrappers and the open-span stack: the span of the task a worker runs has the
supervisor's ``runtime.map_spec`` span as parent.  After every task a worker
appends the spans it recorded to ``worker-<pid>.jsonl`` in the tracer's
directory and drops them; :meth:`Tracer.merge_workers` reads them back, so a
pooled run is traced as completely as a serial one even when the pool is
terminated after its last task.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Iterator

Count = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    """One timed call: ``[start, end]`` in ``time.perf_counter`` seconds."""

    id: str
    parent: str | None
    name: str
    start: float
    end: float
    pid: int
    counts: dict | None = None


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default: Any = None) -> Any:
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _tx_samples(args: tuple, kwargs: dict, out: Any) -> dict:
    packets = out if isinstance(out, list) else [out]
    return {"tx_samples": sum(p.num_samples for p in packets)}


def _jam_samples(args: tuple, kwargs: dict, out: Any) -> dict:
    return {"jam_samples": 0 if out is None else int(out.size)}


def _sources(args: tuple, kwargs: dict, out: Any) -> dict:
    return {"sources": len(_arg(args, kwargs, 3, "sources", ()))}


def _rx_rows(args: tuple, kwargs: dict, out: Any) -> dict:
    return {"rx_rows": len(out) if isinstance(out, list) else 1}


def _filters(args: tuple, kwargs: dict, out: Any) -> dict:
    counts: dict[str, int] = defaultdict(int)
    for decision in out if isinstance(out, list) else [out]:
        counts[f"filter_{decision.kind.value}"] += 1
    return dict(counts)


def _fir(args: tuple, kwargs: dict, out: Any) -> dict:
    moved = int(getattr(out, "nbytes", 0))
    for value in (*args[:2], *kwargs.values()):
        moved += int(getattr(value, "nbytes", 0))
    return {"fir_calls": 1, "fir_bytes": moved}


def _psd(args: tuple, kwargs: dict, out: Any) -> dict:
    return {"psd_calls": 1}


def _session(args: tuple, kwargs: dict, out: Any) -> dict:
    return {
        "data_slots": out.data_tx,
        "handshake_slots": out.handshake_tx,
        "data_accepted": out.data_accepted,
        "resyncs": out.resync_count,
    }


def _link(args: tuple, kwargs: dict, out: Any) -> dict:
    return {"links": 1}


def _map_report(args: tuple, kwargs: dict, out: Any) -> dict:
    return {
        "busy_s": out.busy_seconds,
        "capacity_s": out.workers * out.wall_seconds,
        "retries": out.retries,
    }


def _cache_get(args: tuple, kwargs: dict, out: Any) -> dict:
    return {"gets": 1, "hits": int(out is not None)}


def _cache_put(args: tuple, kwargs: dict, out: Any) -> dict:
    return {"puts": 1}


def _checkpoint(args: tuple, kwargs: dict, out: Any) -> dict:
    path = args[0].path
    return {"flushes": 1, "bytes": os.path.getsize(path) if os.path.exists(path) else 0}


#: (module, attribute, span name, counter) for every wrapped call.  A dotted
#: attribute is a method, patched on its class; a plain one is a function,
#: patched in every ``repro`` module that binds it.
WRAPPED: tuple[tuple[str, str, str, Count | None], ...] = (
    ("repro.core.transmitter", "BHSSTransmitter.transmit", "core.tx", _tx_samples),
    ("repro.core.transmitter", "BHSSTransmitter.transmit_batch", "core.tx", _tx_samples),
    ("repro.core.paths", "TxPath.emit", "core.emit", None),
    ("repro.core.paths", "TxPath.synthesize", "core.synthesize", None),
    ("repro.core.paths", "draw_jammer_wave", "jamming.draw", _jam_samples),
    ("repro.channel.link_medium", "Medium.combine", "channel.medium", None),
    ("repro.channel.link_medium", "Medium.superpose", "channel.medium", _sources),
    ("repro.channel.awgn", "complex_awgn", "channel.awgn", None),
    ("repro.core.receiver", "BHSSReceiver.receive", "core.rx", _rx_rows),
    ("repro.core.receiver", "BHSSReceiver.receive_batch", "core.rx", _rx_rows),
    ("repro.core.paths", "RxPath.score", "core.score", None),
    ("repro.core.control", "ControlLogic.decide", "core.control", _filters),
    ("repro.core.control", "ControlLogic.decide_batch", "core.control", _filters),
    ("repro.dsp.fir", "apply_fir", "dsp.fir", _fir),
    ("repro.dsp.fir", "apply_fir_batch", "dsp.fir", _fir),
    ("repro.dsp.fir", "fft_convolve", "dsp.fir", _fir),
    ("repro.dsp.fir", "fft_convolve_batch", "dsp.fir", _fir),
    ("repro.dsp.spectral", "welch_psd", "dsp.psd", _psd),
    ("repro.dsp.spectral", "welch_psd_batch", "dsp.psd", _psd),
    ("repro.phy.qpsk", "ChipModulator.modulate", "phy.modem", None),
    ("repro.phy.qpsk", "ChipModulator.modulate_batch", "phy.modem", None),
    ("repro.phy.qpsk", "ChipModulator.demodulate", "phy.modem", None),
    ("repro.phy.qpsk", "ChipModulator.demodulate_batch", "phy.modem", None),
    ("repro.spread.dsss", "SixteenAryDSSS.spread", "spread.dsss", None),
    ("repro.spread.dsss", "SixteenAryDSSS.spread_batch", "spread.dsss", None),
    ("repro.spread.dsss", "SixteenAryDSSS.despread", "spread.dsss", None),
    ("repro.spread.dsss", "SixteenAryDSSS.despread_batch", "spread.dsss", None),
    ("repro.core.link", "LinkSimulator.run_packets", "core.link", None),
    ("repro.core.link", "LinkSimulator.run_packets_batched", "core.link", None),
    ("repro.core.paths", "TxPath.__init__", "protocol.path_build", None),
    ("repro.core.paths", "RxPath.__init__", "protocol.path_build", None),
    ("repro.protocol.packetizer", "build_fragment", "protocol.framing", None),
    ("repro.protocol.packetizer", "parse_fragment", "protocol.framing", None),
    ("repro.protocol.packetizer", "Reassembler.add", "protocol.framing", None),
    ("repro.protocol.session", "SessionManager.run", "protocol.session", _session),
    ("repro.network.simulator", "NetworkSimulator.run_link", "network.run_link", _link),
    ("repro.runtime.executor", "ParallelExecutor.map_spec", "runtime.map_spec", _map_report),
    ("repro.runtime.executor", "_run_spec_indexed", "runtime.task", None),
    ("repro.runtime.cache", "ResultCache.get", "cache.get", _cache_get),
    ("repro.runtime.cache", "ResultCache.put", "cache.put", _cache_put),
    ("repro.runtime.checkpoint", "SweepCheckpoint.flush", "checkpoint.flush", _checkpoint),
)

#: A ``TxPath.synthesize`` call made directly by a network link (not through
#: ``TxPath.emit``) re-synthesizes a neighbour's transmission.
_RENAME = {("core.synthesize", "network.run_link"): "network.interferer_synth"}


def _repro_bindings() -> list[tuple[Any, str, Any]]:
    """``(module, name, value)`` for every global of every loaded ``repro`` module."""
    return [
        (mod, key, value)
        for mod in list(sys.modules.values())
        if getattr(mod, "__name__", "").startswith("repro") and hasattr(mod, "__dict__")
        for key, value in list(vars(mod).items())
    ]


def _write_spans(path: str, mode: str, spans: Iterable[Span]) -> None:
    with open(path, mode) as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


class Tracer:
    """In-memory span recorder; :meth:`install` turns the wrappers on."""

    def __init__(self, worker_dir: str) -> None:
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: list[Span] = []
        self._stack: list[tuple[str, str]] = []
        self._seq = 0
        self._patches: list[tuple[Any, str, Any, Any]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> tuple[str, str | None, str]:
        self._seq += 1
        sid = f"{os.getpid()}.{self._seq}"
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            name = _RENAME.get((name, parent[1]), name)
        self._stack.append((sid, name))
        return sid, None if parent is None else parent[0], name

    def _close(self, opened: tuple, start: float, counts: dict | None = None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        sid, parent, name = opened
        self.spans.append(Span(sid, parent, name, start, end, os.getpid(), counts))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A ``with`` block recorded as one span."""
        opened = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(opened, start)

    def wrap(self, fn: Callable, name: str, count: Count | None) -> Callable:
        """``fn`` recorded as a span named ``name``, counted by ``count``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            opened = tracer._open(name)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(opened, start)
                raise
            counts = count(args, kwargs, out) if count is not None else None
            tracer._close(opened, start, counts)
            return out

        if name == "runtime.task":
            return self._flushing(traced)
        return traced

    def _flushing(self, task: Callable) -> Callable:
        """Wrap a pool task so a worker hands its spans back after each task."""
        tracer = self

        @functools.wraps(task)
        def flushed(*args: Any, **kwargs: Any) -> Any:
            mark = len(tracer.spans)
            try:
                return task(*args, **kwargs)
            finally:
                if os.getpid() != tracer.pid:
                    tracer._flush_worker(mark)

        return flushed

    def _flush_worker(self, mark: int) -> None:
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.jsonl")
        _write_spans(path, "a", self.spans[mark:])
        del self.spans[mark:]

    def merge_workers(self) -> None:
        """Move the spans pool workers wrote into :attr:`spans`."""
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "worker-*.jsonl"))):
            with open(path) as fh:
                self.spans.extend(Span(**json.loads(line)) for line in fh)
            os.unlink(path)

    def export(self, path: str) -> None:
        """Write every span as one JSON line."""
        _write_spans(path, "w", self.spans)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Swap every :data:`WRAPPED` call for its traced wrapper."""
        if self._patches:
            return
        for module_name, attr, name, count in WRAPPED:
            module = importlib.import_module(module_name)
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self.wrap(original, name, count))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, count)
            for mod, key, value in _repro_bindings():
                if value is original:
                    self._patch(mod, key, original, wrapper)

    def _patch(self, owner: Any, key: str, original: Any, wrapper: Any) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original, wrapper))

    def uninstall(self) -> None:
        """Put every original back.

        A module first imported while the wrappers were installed bound the
        wrapper under its own name; those bindings are restored too.
        """
        originals = {id(wrapper): (wrapper, original) for _, _, original, wrapper in self._patches}
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        for mod, key, value in _repro_bindings():
            wrapped = originals.get(id(value))
            if wrapped is not None and wrapped[0] is value:
                setattr(mod, key, wrapped[1])


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may run in other processes (pool workers) and overlap each
    other; only the union of their intervals is subtracted.
    """
    spans = list(spans)
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: max(0.0, span.end - span.start - covered(children[span.id], span.start, span.end))
        for span in spans
    }


@dataclass
class LayerTotals:
    """Per-name sums over a set of spans."""

    self_s: dict[str, float]
    inclusive_s: dict[str, float]
    counts: dict[str, float]
    top_level_s: float

    @classmethod
    def of(cls, spans: list[Span], main_pid: int) -> "LayerTotals":
        own = self_times(spans)
        self_s: dict[str, float] = defaultdict(float)
        inclusive_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        top = 0.0
        for span in spans:
            self_s[span.name] += own[span.id]
            inclusive_s[span.name] += span.end - span.start
            for key, value in (span.counts or {}).items():
                counts[key] += value
            if span.parent is None and span.pid == main_pid:
                top += span.end - span.start
        return cls(dict(self_s), dict(inclusive_s), dict(counts), top)


def layer_metrics(totals: LayerTotals, rounds: int, traced_wall: float) -> dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json``, per traced round."""
    s, incl, c = totals.self_s, totals.inclusive_s, totals.counts

    def own(name: str) -> float:
        return s.get(name, 0.0) / rounds

    def count(key: str) -> float:
        return c.get(key, 0.0) / rounds

    on_air = c.get("data_slots", 0.0) + c.get("handshake_slots", 0.0)
    capacity = c.get("capacity_s", 0.0)
    gets = c.get("gets", 0.0)
    return {
        "core.tx_s": own("core.tx"),
        "core.tx_samples": count("tx_samples"),
        "jamming.draw_s": own("jamming.draw"),
        "jamming.samples": count("jam_samples"),
        "channel.medium_s": own("channel.medium"),
        "channel.awgn_s": own("channel.awgn"),
        "channel.sources": count("sources"),
        "core.rx_s": own("core.rx"),
        "core.rx_rows": count("rx_rows"),
        "core.score_s": own("core.score"),
        "core.control_s": own("core.control"),
        "core.filter_excision": count("filter_excision"),
        "core.filter_lowpass": count("filter_lowpass"),
        "core.filter_none": count("filter_none"),
        "dsp.fir_s": own("dsp.fir"),
        "dsp.fir_calls": count("fir_calls"),
        "dsp.fir_bytes": count("fir_bytes"),
        "dsp.psd_s": own("dsp.psd"),
        "dsp.psd_calls": count("psd_calls"),
        "phy.modem_s": own("phy.modem"),
        "spread.dsss_s": own("spread.dsss"),
        "protocol.data_slots": count("data_slots"),
        "protocol.handshake_slots": count("handshake_slots"),
        "protocol.useful_ratio": c.get("data_accepted", 0.0) / on_air if on_air else 0.0,
        "protocol.resyncs": count("resyncs"),
        "protocol.path_build_s": own("protocol.path_build"),
        "protocol.framing_s": own("protocol.framing"),
        "network.interferer_synth_s": incl.get("network.interferer_synth", 0.0) / rounds,
        "network.links": count("links"),
        "grid.self_s": own("grid.run"),
        "runtime.map_s": own("runtime.map_spec"),
        "runtime.busy_s": count("busy_s"),
        "runtime.idle_s": (capacity - c.get("busy_s", 0.0)) / rounds,
        "runtime.utilization": min(1.0, c.get("busy_s", 0.0) / capacity) if capacity else 0.0,
        "runtime.retries": count("retries"),
        "cache.gets": count("gets"),
        "cache.puts": count("puts"),
        "cache.hit_ratio": c.get("hits", 0.0) / gets if gets else 0.0,
        "cache.get_s": own("cache.get"),
        "cache.put_s": own("cache.put"),
        "checkpoint.flushes": count("flushes"),
        "checkpoint.flush_s": own("checkpoint.flush"),
        "checkpoint.bytes": count("bytes"),
        "trace.unattributed_s": max(0.0, traced_wall - totals.top_level_s) / rounds,
    }
