"""Per-stage cost profiles derived from a span tree.

A profile answers "where did the time go" for one check or one whole CLI
run: wall milliseconds per pipeline stage (parse / plan / compile /
compress / normalise / refine), summing consistently with the end-to-end
time.

The aggregation is by *exclusive* (self) time: each span contributes its
duration minus the durations of its direct children, bucketed under the
span's name.  Because every span's time is counted exactly once, the stage
totals -- including the ``other`` bucket collecting structural spans
(``run``/``check``/``case``) and untraced residue -- sum to the root span's
duration by construction, which is what lets benchmarks gate "stage sums
within 10% of wall time" without a race against measurement noise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .trace import Span, Tracer

#: canonical pipeline stage order for tables and JSON
STAGE_ORDER: Tuple[str, ...] = (
    "parse",
    "plan",
    "compile",
    "compress",
    "normalise",
    "refine",
)

#: spans that merely *contain* stages; their exclusive time is overhead
STRUCTURAL_SPANS = frozenset({"run", "check", "case"})

#: the bucket structural/unknown self time falls into
OTHER_STAGE = "other"


class Profile:
    """Wall-time breakdown of one traced region, per stage."""

    def __init__(
        self,
        total_ms: float,
        stages: Dict[str, float],
        counts: Dict[str, int],
        metrics: Optional[Dict[str, object]] = None,
        name: str = "profile",
    ) -> None:
        self.total_ms = total_ms
        self.stages = stages
        self.counts = counts
        self.metrics = metrics if metrics is not None else {}
        self.name = name

    def stage_ms(self, stage: str) -> float:
        return self.stages.get(stage, 0.0)

    def stage_sum(self) -> float:
        """Sum of every stage bucket; equals ``total_ms`` by construction."""
        return sum(self.stages.values())

    def ordered_stages(self) -> List[Tuple[str, float]]:
        """Stages in canonical order, then extras alphabetically, other last."""
        ordered: List[Tuple[str, float]] = []
        for stage in STAGE_ORDER:
            if stage in self.stages:
                ordered.append((stage, self.stages[stage]))
        extras = sorted(
            name
            for name in self.stages
            if name not in STAGE_ORDER and name != OTHER_STAGE
        )
        ordered.extend((name, self.stages[name]) for name in extras)
        if OTHER_STAGE in self.stages:
            ordered.append((OTHER_STAGE, self.stages[OTHER_STAGE]))
        return ordered

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "total_ms": round(self.total_ms, 3),
            "stages": {
                stage: round(ms, 3) for stage, ms in self.stages.items()
            },
            "spans": dict(self.counts),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "Profile":
        """Rebuild a profile from :meth:`as_dict` output.

        The inverse (up to rounding) of :meth:`as_dict`; batch workers ship
        their per-job profiles across the process boundary this way.
        """
        return cls(
            float(doc.get("total_ms", 0.0)),
            {stage: float(ms) for stage, ms in (doc.get("stages") or {}).items()},
            {stage: int(n) for stage, n in (doc.get("spans") or {}).items()},
            dict(doc.get("metrics") or {}),
            str(doc.get("name", "profile")),
        )

    def table(self) -> str:
        """The human-readable per-stage table behind ``--profile``."""
        total = self.total_ms or 1e-9
        lines = [
            "profile [{}]".format(self.name),
            "{:<12} {:>10} {:>7} {:>7}".format("stage", "ms", "%", "spans"),
            "-" * 38,
        ]
        for stage, ms in self.ordered_stages():
            lines.append(
                "{:<12} {:>10.3f} {:>6.1f}% {:>7}".format(
                    stage, ms, 100.0 * ms / total, self.counts.get(stage, 0)
                )
            )
        lines.append("-" * 38)
        lines.append(
            "{:<12} {:>10.3f} {:>6.1f}%".format("total", self.total_ms, 100.0)
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "Profile({!r}, {:.3f} ms, {} stages)".format(
            self.name, self.total_ms, len(self.stages)
        )


def _subtree(spans: Sequence[Span], root: Span) -> List[Span]:
    """*root* plus every transitive child, from a flat span list.

    A :class:`Tracer` appends each span when it opens, and a span opened
    while *root* is open is its descendant, so the subtree is the run of
    spans starting at *root* whose parents lie in it: the walk costs the
    subtree's size, not the tracer's.  The children are then gathered in
    the same depth-first order as a scan of the whole list would give, so
    profiles sum their floats in the same order.
    """
    start = root.span_id - 1  # a tracer numbers spans from 1 as it appends
    if not (0 <= start < len(spans) and spans[start] is root):
        block: Sequence[Span] = spans  # recorded elsewhere: scan everything
    else:
        members = {root.span_id}
        end = start + 1
        while end < len(spans) and spans[end].parent_id in members:
            members.add(spans[end].span_id)
            end += 1
        block = spans[start:end]
    children: Dict[Optional[int], List[Span]] = {}
    for span in block:
        children.setdefault(span.parent_id, []).append(span)
    collected: List[Span] = []
    stack = [root]
    while stack:
        span = stack.pop()
        collected.append(span)
        stack.extend(children.get(span.span_id, ()))
    return collected


def aggregate_spans(
    spans: Sequence[Span],
    total_ms: Optional[float] = None,
    metrics: Optional[Dict[str, object]] = None,
    name: str = "profile",
) -> Profile:
    """Fold a span set into a per-stage profile by exclusive time.

    *total_ms* defaults to the summed duration of the set's root spans
    (spans whose parent is absent from the set).  Structural spans
    (``run``/``check``/``case``) and any untraced residue land in the
    ``other`` bucket, so ``stage_sum() == total_ms`` always holds.
    """
    ids = {span.span_id for span in spans}
    child_ms: Dict[int, float] = {}
    roots_ms = 0.0
    for span in spans:
        if span.parent_id in ids:
            child_ms[span.parent_id] = (
                child_ms.get(span.parent_id, 0.0) + span.duration_ms
            )
        else:
            roots_ms += span.duration_ms
    if total_ms is None:
        total_ms = roots_ms
    stages: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for span in spans:
        exclusive = span.duration_ms - child_ms.get(span.span_id, 0.0)
        stage = OTHER_STAGE if span.name in STRUCTURAL_SPANS else span.name
        stages[stage] = stages.get(stage, 0.0) + exclusive
        counts[stage] = counts.get(stage, 0) + 1
    # untraced residue: wall time of the region not covered by any span
    residue = total_ms - sum(stages.values())
    if abs(residue) > 1e-9:
        stages[OTHER_STAGE] = stages.get(OTHER_STAGE, 0.0) + residue
        counts.setdefault(OTHER_STAGE, 0)
    return Profile(total_ms, stages, counts, metrics, name)


def profile_of(tracer: Tracer, root: Span, name: Optional[str] = None) -> Profile:
    """The per-stage profile of one root span's subtree."""
    return aggregate_spans(
        _subtree(tracer.spans, root),
        total_ms=root.duration_ms,
        metrics=tracer.metrics.snapshot(),
        name=name if name is not None else str(root.tags.get("name", root.name)),
    )


def overall_profile(tracer: Tracer, name: str = "run") -> Profile:
    """One profile over everything the tracer recorded."""
    return aggregate_spans(
        tracer.spans, metrics=tracer.metrics.snapshot(), name=name
    )


def merge_profiles(profiles: Sequence[Profile], name: str = "batch") -> Profile:
    """Fold many profiles into one by summation.

    Stage milliseconds, span counts, and numeric metrics are summed;
    non-numeric metric values keep the first occurrence.  The merged total
    is the *sum of member totals* -- aggregate compute, not wall time -- so
    a 4-worker batch's merged profile can exceed its wall clock; that gap
    is the parallel speedup.  ``stage_sum() == total_ms`` still holds
    because it holds for each member.
    """
    total_ms = 0.0
    stages: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    metrics: Dict[str, object] = {}
    for profile in profiles:
        total_ms += profile.total_ms
        for stage, ms in profile.stages.items():
            stages[stage] = stages.get(stage, 0.0) + ms
        for stage, n in profile.counts.items():
            counts[stage] = counts.get(stage, 0) + n
        for key, value in profile.metrics.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                existing = metrics.get(key, 0)
                if isinstance(existing, (int, float)) and not isinstance(
                    existing, bool
                ):
                    metrics[key] = existing + value
                    continue
            metrics.setdefault(key, value)
    return Profile(total_ms, stages, counts, metrics, name)
