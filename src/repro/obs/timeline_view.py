"""Timeline analysis and rendering (simulated-trace views).

A :class:`~repro.platform.timeline.Timeline` records what the simulated
machine did; this module turns that record into the numbers and pictures a
performance engineer asks for:

* :func:`utilization` — per-resource busy fraction over the makespan (the
  "was the GPU idle while the CPU finished?" question that motivates
  balanced partitioning in the first place);
* :func:`idle_spans` — the gaps on one resource;
* :func:`critical_summary` — which phase dominates the makespan;
* :func:`render_gantt` — a plain-text Gantt chart for terminals;
* :func:`validate_timeline` — opt-in schedule hazard check (delegates to
  :mod:`repro.analysis.hazards`).

These views live in the observability layer, not in :mod:`repro.platform`,
because they *consume* traces rather than produce simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.platform.timeline import Span, Timeline
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class ResourceUtilization:
    """Busy statistics for one resource over a timeline."""

    resource: str
    busy_ms: float
    makespan_ms: float
    n_spans: int

    @property
    def busy_fraction(self) -> float:
        return self.busy_ms / self.makespan_ms if self.makespan_ms else 0.0


def _merged_busy_ms(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total covered time of the intervals, counting overlapped stretches once.

    Interval-union sweep, vectorized: sort by ``(start, end)``, track the
    running segment end with a cumulative max, and open a new segment
    wherever the next start clears it.
    """
    order = np.lexsort((ends, starts))
    s = starts[order]
    run_end = np.maximum.accumulate(ends[order])
    new_seg = np.empty(s.size, dtype=bool)
    new_seg[0] = True
    new_seg[1:] = s[1:] > run_end[:-1]
    seg_last = np.flatnonzero(np.concatenate((new_seg[1:], [True])))
    return float(np.sum(run_end[seg_last] - s[new_seg]))


def utilization(timeline: Timeline) -> dict[str, ResourceUtilization]:
    """Per-resource utilization over the timeline's makespan.

    Busy time is measured on merged intervals, so spans that overlap on one
    resource (a hazard, but one hand-built traces can contain) count each
    covered instant once — a resource can never exceed 100% utilization.
    """
    lanes: dict[str, list[Span]] = {}
    for span in timeline.spans:
        lanes.setdefault(span.resource, []).append(span)
    return {
        resource: ResourceUtilization(
            resource=resource,
            busy_ms=_merged_busy_ms(
                np.array([s.start_ms for s in spans], dtype=np.float64),
                np.array([s.end_ms for s in spans], dtype=np.float64),
            ),
            makespan_ms=timeline.total_ms,
            n_spans=len(spans),
        )
        for resource, spans in lanes.items()
    }


def idle_spans(timeline: Timeline, resource: str) -> list[tuple[float, float]]:
    """Gaps ``(start, end)`` where *resource* sits idle inside the makespan.

    Overlapping spans on the same resource are merged before gap detection
    (the simulator never schedules true self-overlap, but merged pricing
    helpers may record abutting spans).
    """
    spans = sorted(
        (s for s in timeline.spans if s.resource == resource),
        key=lambda s: s.start_ms,
    )
    gaps: list[tuple[float, float]] = []
    cursor = 0.0
    for span in spans:
        if span.start_ms > cursor + 1e-12:
            gaps.append((cursor, span.start_ms))
        cursor = max(cursor, span.end_ms)
    if cursor + 1e-12 < timeline.total_ms:
        gaps.append((cursor, timeline.total_ms))
    return gaps


def critical_summary(timeline: Timeline, top: int = 5) -> list[tuple[str, float]]:
    """The *top* spans by duration, as ``(label, duration_ms)``."""
    if top < 1:
        raise ValidationError("top must be >= 1")
    spans = sorted(timeline.spans, key=lambda s: s.duration_ms, reverse=True)
    return [(s.label, s.duration_ms) for s in spans[:top]]


def render_gantt(timeline: Timeline, width: int = 64) -> str:
    """Plain-text Gantt chart: one row per resource, '#' where busy.

    Rows are ordered cpu, gpu*, pcie, then anything else alphabetically;
    durations quantize to ``makespan / width`` buckets (a span shorter than
    one bucket still paints one cell, so nothing disappears).
    """
    if width < 8:
        raise ValidationError("width must be >= 8")
    makespan_ms = timeline.total_ms
    if makespan_ms == 0 or not len(timeline):
        return "(empty timeline)"

    def order_key(name: str) -> tuple[int, str]:
        if name == "cpu":
            return (0, name)
        if name.startswith("gpu"):
            return (1, name)
        if name == "pcie":
            return (2, name)
        return (3, name)

    resources = sorted({s.resource for s in timeline.spans}, key=order_key)
    label_w = max(len(r) for r in resources)
    scale = width / makespan_ms
    lines = [
        f"{'':{label_w}}  0{'.' * (width - 8)}{makespan_ms:7.2f}ms",
    ]
    for resource in resources:
        row = [" "] * width
        for span in timeline.spans:
            if span.resource != resource:
                continue
            a = int(span.start_ms * scale)
            b = max(a + 1, int(span.end_ms * scale))
            for i in range(a, min(b, width)):
                row[i] = "#"
        lines.append(f"{resource:{label_w}}  {''.join(row)}")
    return "\n".join(lines)


def validate_timeline(timeline: Timeline, source: str = "<timeline>") -> None:
    """Opt-in schedule validation: raise on any recorded hazard.

    Delegates to :func:`repro.analysis.hazards.check_timeline` (imported
    lazily — the analysis layer depends on this package, not vice versa)
    and raises :class:`ValidationError` listing every finding.  Simulation
    hot paths call this only when trace validation is switched on; see
    ``ExperimentConfig.validate_traces``.
    """
    from repro.analysis.hazards import check_timeline

    findings = check_timeline(timeline, source=source)
    if findings:
        detail = "; ".join(f"{f.code} {f.message}" for f in findings)
        raise ValidationError(f"schedule hazards in {source}: {detail}")
