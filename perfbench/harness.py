"""Shared plumbing of the benchmark: spans, statistics, run records.

Nothing here imports the program under test; workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
"""Scratch space inside the checkout (disk cache tiers, span dumps)."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default rule); 0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    position = (len(data) - 1) * q
    lo = math.floor(position)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (position - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call into a layer, recorded by the benchmark's own code."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """In-memory span store; written out once, when the run ends.

    Times are ``time.perf_counter`` readings.  A span's *self time* is
    its duration minus the part of its interval that its children
    cover, so self times of a span tree add up to the root's duration.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        request: str,
        parent: Optional[int] = None,
    ) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, start, end, parent, request))
        return span_id

    def self_times(self) -> Dict[int, float]:
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(
                children.get(span.span_id, ()), key=lambda c: c.start
            ):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.span_id] = span.duration - covered
        return result

    def tree_self_by_name(self, root: int) -> Dict[str, float]:
        """Self time per span name over the subtree under ``root``."""
        selfs = self.self_times()
        members = {root}
        totals: Dict[str, float] = {}
        for span in self.spans:  # parents are always added first
            if span.span_id in members or span.parent in members:
                members.add(span.span_id)
                totals[span.name] = (
                    totals.get(span.name, 0.0) + selfs[span.span_id]
                )
        return totals

    def self_by_name(self, name: str) -> List[float]:
        selfs = self.self_times()
        return [selfs[s.span_id] for s in self.spans if s.name == name]

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                            "self_s": selfs[span.span_id],
                        }
                    )
                    + "\n"
                )


@dataclass
class Decomposition:
    """One operation's latency split into layer times plus a residual."""

    request: str
    latency_s: float
    layers: Dict[str, float]
    residual_s: float
    """``latency_s`` minus the sum of ``layers``: what no timed layer
    covers.  It is small only where the layers are timed independently
    of the latency (a replay, or spans that leave gaps)."""


def decompose(
    request: str, latency_s: float, layers: Mapping[str, float]
) -> Decomposition:
    """Attribute ``latency_s`` to ``layers``; the rest is the residual."""
    attributed = dict(layers)
    return Decomposition(
        request, latency_s, attributed, latency_s - sum(attributed.values())
    )


def residual_share(decompositions: Iterable[Decomposition]) -> float:
    items = list(decompositions)
    total = sum(d.latency_s for d in items)
    if total <= 0:
        return 0.0
    return sum(abs(d.residual_s) for d in items) / total


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
def _bits(value: object) -> object:
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def same_bits(a: Mapping[str, object], b: Mapping[str, object]) -> bool:
    """Bit-for-bit equality of two reducer dicts (NaN equals NaN)."""
    if set(a) != set(b):
        return False
    return all(
        type(a[k]) is type(b[k]) and _bits(a[k]) == _bits(b[k]) for k in a
    )


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def self_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident set among reaped child processes, MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """``VmHWM`` of a live process, MiB, or ``None`` where unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def stop_resource_tracker() -> None:
    """Stop and reap the ``multiprocessing`` resource tracker, if running.

    Shared-memory fleets start it as a child of this process; stopping
    it here means the benchmark leaves no process behind when it exits.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    try:
        return (ROOT / ".git" / ref[5:]).read_text(encoding="ascii").strip()
    except OSError:
        packed = ROOT / ".git" / "packed-refs"
        try:
            for line in packed.read_text(encoding="ascii").splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        except OSError:
            pass
    return "unknown"


def environment(seed: int) -> Dict[str, object]:
    import numpy

    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    refused: int = 0
    wrong: int = 0
    checked: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    """End-to-end metrics by name (including the two shares that are
    reported but not registered in BENCHMARK.json)."""
    layers: Dict[str, float] = field(default_factory=dict)
    """Per-layer metrics (traced runs only)."""
    info: Dict[str, object] = field(default_factory=dict)
    decompositions: List[Decomposition] = field(default_factory=list)
    spans: Optional[SpanLog] = None

    @property
    def errors(self) -> int:
        return self.failed + self.refused + self.wrong

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.checked > 0

    def error_share(self) -> float:
        return self.errors / self.attempted if self.attempted else 1.0
