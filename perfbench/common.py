"""Shared pieces of the benchmark: paths, statistics, spans, tallies.

Nothing here imports the program; ``ROOT``/``SRC`` only locate it.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: everything a run writes (traces, manifests, the serve cache) lives
#: here, inside the checkout; the root .gitignore names it.
OUT = ROOT / ".perfbench-out"

#: percentiles the tail metric may report, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest ladder percentile that
    leaves at least ten samples beyond it.

    A sample too small for any ladder rung (fewer than 40 values)
    reports its maximum as percentile 100 — the caller prints that
    reading as such, never as a tail estimate.
    """
    n = len(values)
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= 10:
            return percentile(values, q), q, n
    return max(values), 100.0, n


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped descendant
    (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class SpanLog:
    """The benchmark's own spans, kept in memory until the run ends.

    Each span records its name, start and end (``perf_counter``
    seconds), the span that caused it, and the shared ``trace_id`` of
    the cell, instance or request it belongs to.  Program span trees
    (``repro.obs`` records) are attached under a benchmark span.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict[str, Any]] = []

    def add(
        self, name: str, start: float, end: float, *,
        parent: int | None = None, trace_id: str | None = None,
        **tags: Any,
    ) -> int | None:
        if not self.enabled:
            return None
        sid = len(self.records)
        self.records.append({
            "id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "trace_id": trace_id, "tags": tags,
        })
        return sid

    def attach(
        self, records: Iterable[dict[str, Any]], *, parent: int | None,
        trace_id: str,
    ) -> None:
        """Append a program span tree (``repro.obs.to_records`` output)
        with its ids rebased into this log."""
        if not self.enabled:
            return
        base = len(self.records)
        for rec in records:
            if rec.get("type") == "counters":
                continue
            local_parent = rec["parent"]
            self.records.append({
                "id": base + rec["id"],
                "name": rec["name"],
                "start": rec["start"],
                "end": rec["end"],
                "parent": parent if local_parent is None
                else base + local_parent,
                "trace_id": trace_id,
                "tags": rec.get("tags", {}),
                "counters": rec.get("counters", {}),
                "program": True,
            })

    def write(self, path: Path, header: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "manifest", **header}) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec, default=str) + "\n")


@dataclass
class Phase:
    """Attempted / succeeded / failed operations of one run phase."""

    name: str
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def tally(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if ok:
            self.succeeded += 1
        else:
            self.failed += 1
            if note and len(self.notes) < 8:
                self.notes.append(note)

