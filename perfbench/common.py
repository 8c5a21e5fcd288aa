"""Shared plumbing for the workloads: timing samples, percentiles, spans.

A workload records every timed call into a :class:`Samples` ledger
(plain ``perf_counter`` durations, always on) and, during a traced pass,
also opens a :mod:`repro.obs` span around the same call so the layer's
own spans nest under it.  Nothing here reaches into the program's
internals: spans and counters come back through the public
``obs.configure(record=True)`` recorder.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from typing import Any

from repro import obs

#: The span that encloses one whole pass of a workload.
PASS_SPAN = "bench.pass"
#: Spans whose self time is the benchmark's own work, not a layer's.
GLUE_SPANS = (PASS_SPAN, "bench.session")


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


class Samples:
    """Named lists of durations (seconds) for one pass."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = defaultdict(list)

    @contextmanager
    def timed(self, name: str, **attrs: Any):
        """Time a block into ``times[name]``; a ``bench.<name>`` span
        wraps it whenever a recorder is active."""
        with obs.span(f"bench.{name}", **attrs):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.times[name].append(time.perf_counter() - start)

    def call(self, name: str, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
        with self.timed(name):
            return fn(*args, **kwargs)

    def total(self, name: str) -> float:
        return sum(self.times.get(name, ()))


class Recording:
    """The spans and counters of one traced pass."""

    def __init__(self, recorder: obs.InMemoryRecorder) -> None:
        self.spans = list(recorder.spans)
        registry = recorder.registry
        self.counters = {k: c.value for k, c in registry.counters.items()}
        self._children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span.parent_id is not None:
                self._children[span.parent_id].append(span)

    def wall(self, name: str) -> float:
        """Total wall seconds of every span called ``name``."""
        return sum(s.wall for s in self.spans if s.name == name)

    def self_time(self, span) -> float:
        """A span's duration minus the time its child spans cover."""
        return span.wall - sum(c.wall for c in self._children[span.span_id])

    def self_wall(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.spans if s.name == name)

    def count(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def self_by_name(self) -> dict[str, float]:
        """Self seconds rolled up per span name."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += self.self_time(span)
        return dict(out)


def run_pass(body: Callable[[Samples], Any], traced: bool) -> tuple[Samples, float, Any, Recording | None]:
    """Run one pass of ``body`` and return ``(samples, wall, result,
    recording)``; ``recording`` is ``None`` for an untraced pass."""
    gc.collect()
    samples = Samples()
    recorder = obs.configure(record=True) if traced else None
    try:
        start = time.perf_counter()
        with obs.span(PASS_SPAN):
            result = body(samples)
        wall = time.perf_counter() - start
    finally:
        if traced:
            obs.shutdown()
    recording = Recording(recorder) if recorder is not None else None
    return samples, wall, result, recording


def own_peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of another process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def clustering_layers(out: dict, passes) -> None:
    """The clustering-layer metrics of traced passes: they carry the whole
    cost of ``corpus`` and a small share of ``catalog``."""
    n = len(passes)

    def med(fn) -> tuple[float, int]:
        return (median(fn(p) for p in passes), n)

    out["core.cluster_s"] = med(lambda p: p.samples.total("core.cluster"))
    out["core.cluster.self_s"] = med(
        lambda p: p.recording.wall("cluster.relation") - p.recording.wall("relation.map")
    )
    out["parallel.relation_map_s"] = med(lambda p: p.recording.wall("relation.map"))
    out["parallel.map_s"] = med(lambda p: p.recording.wall("parallel.map"))
    out["parallel.items"] = med(lambda p: p.recording.count("parallel.items"))
    out["parallel.chunks"] = med(lambda p: p.recording.count("parallel.chunks"))
    out["core.godin.build_s"] = med(lambda p: p.recording.wall("godin.build"))
    out["core.godin.freeze_s"] = med(lambda p: p.recording.wall("godin.freeze"))
