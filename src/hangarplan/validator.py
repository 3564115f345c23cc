"""Semantic feasibility checker for hangar plans.

Each check implements the operational meaning of one constraint family of the
model: boundaries, schedule windows, buffered non-overlap of co-present
aircraft, minimum movement separation, exit/entry path blocking, and the fixed
state of current aircraft.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import (
    TOL,
    Assignment,
    CostBreakdown,
    Instance,
    Kind,
    Solution,
    evaluate_cost,
    intervals_overlap,
    lanes_overlap,
    x_separated,
)


class ViolationKind(str, Enum):
    OUT_OF_BOUNDS = "OutOfBounds"
    SPATIAL_OVERLAP = "SpatialOverlap"
    SERVICE_TOO_SHORT = "ServiceTooShort"
    EARLY_ROLL_IN = "EarlyRollIn"
    MOVEMENT_TOO_CLOSE = "MovementTooClose"
    EXIT_BLOCKED = "ExitBlocked"
    ENTRY_BLOCKED = "EntryBlocked"
    CURRENT_STATE_MISMATCH = "CurrentStateMismatch"
    NEGATIVE_TIME = "NegativeTime"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    aircraft: tuple[str, ...]
    detail: str
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    feasible: bool
    violations: tuple[Violation, ...]
    cost: CostBreakdown


class Infeasible(Exception):
    """A plan the validator rejects where a feasible one is required."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(explain(report))


def _movement_events(instance: Instance, by_id: dict[str, Assignment]):
    """(time, aircraft_id, label) for every separation-relevant movement:
    roll-ins of accepted future aircraft plus roll-outs of all accepted
    aircraft.  Current roll-ins are fixed at zero and exempt."""
    events = []
    for a in instance.all_aircraft():
        asg = by_id[a.id]
        if not asg.accept:
            continue
        if a.kind is Kind.FUTURE:
            events.append((asg.roll_in, a.id, "roll-in"))
        events.append((asg.roll_out, a.id, "roll-out"))
    return events


def validate(instance: Instance, solution: Solution) -> ValidationReport:
    """Run every check and report all violations; no short-circuiting."""
    cost = evaluate_cost(instance, solution)  # raises MissingAssignment first
    by_id = solution.by_id()
    h = instance.hangar
    violations: list[Violation] = []

    def add(kind, aircraft, detail, magnitude):
        if magnitude > TOL:
            violations.append(Violation(kind, tuple(aircraft), detail, magnitude))

    accepted = [(a, by_id[a.id]) for a in instance.all_aircraft() if by_id[a.id].accept]

    # 1. Bounds and 2. schedule windows, per accepted aircraft.
    for spec, asg in accepted:
        if asg.x < h.buffer - TOL:
            add(ViolationKind.OUT_OF_BOUNDS, [spec.id],
                f"{spec.id}: left edge {asg.x:.3f} < buffer {h.buffer}", h.buffer - asg.x)
        if asg.x + spec.width > h.hw - h.buffer + TOL:
            add(ViolationKind.OUT_OF_BOUNDS, [spec.id],
                f"{spec.id}: right edge {asg.x + spec.width:.3f} > {h.hw - h.buffer}",
                asg.x + spec.width - (h.hw - h.buffer))
        if asg.y < h.buffer - TOL:
            add(ViolationKind.OUT_OF_BOUNDS, [spec.id],
                f"{spec.id}: bottom edge {asg.y:.3f} < buffer {h.buffer}", h.buffer - asg.y)
        if asg.y + spec.length > h.hl - h.buffer + TOL:
            add(ViolationKind.OUT_OF_BOUNDS, [spec.id],
                f"{spec.id}: top edge {asg.y + spec.length:.3f} > {h.hl - h.buffer}",
                asg.y + spec.length - (h.hl - h.buffer))

        if spec.kind is Kind.FUTURE and asg.roll_in < spec.eta - TOL:
            add(ViolationKind.EARLY_ROLL_IN, [spec.id],
                f"{spec.id}: roll-in {asg.roll_in:.3f} before ETA {spec.eta:.3f}",
                spec.eta - asg.roll_in)
        if asg.roll_out - asg.roll_in < spec.service - TOL:
            add(ViolationKind.SERVICE_TOO_SHORT, [spec.id],
                f"{spec.id}: stay {asg.roll_out - asg.roll_in:.3f} < service {spec.service:.3f}",
                spec.service - (asg.roll_out - asg.roll_in))
        if asg.roll_in < -TOL or asg.roll_out < -TOL:
            add(ViolationKind.NEGATIVE_TIME, [spec.id],
                f"{spec.id}: negative movement time", max(-asg.roll_in, -asg.roll_out))

    # 3. Buffered separation of co-present pairs.
    for i, (sa, aa) in enumerate(accepted):
        for sb, ab in accepted[i + 1:]:
            if not intervals_overlap((aa.roll_in, aa.roll_out), (ab.roll_in, ab.roll_out)):
                continue
            gaps = [
                aa.x - (ab.x + sb.width + h.buffer),
                ab.x - (aa.x + sa.width + h.buffer),
                aa.y - (ab.y + sb.length + h.buffer),
                ab.y - (aa.y + sa.length + h.buffer),
            ]
            if max(gaps) < -TOL:
                add(ViolationKind.SPATIAL_OVERLAP, [sa.id, sb.id],
                    f"{sa.id}/{sb.id}: co-present without buffered separation",
                    -max(gaps))

    # 4. Movement separation.
    events = sorted(_movement_events(instance, by_id))
    for (t1, id1, k1), (t2, id2, k2) in zip(events, events[1:]):
        gap = t2 - t1
        if gap < h.eps_t - TOL:
            add(ViolationKind.MOVEMENT_TOO_CLOSE, sorted({id1, id2}),
                f"{k1} of {id1} at {t1:.3f} and {k2} of {id2} at {t2:.3f} "
                f"closer than eps_t={h.eps_t}", h.eps_t - gap)

    # 5./6. Exit and entry blocking at every movement event.
    for sa, aa in accepted:
        for sb, ab in accepted:
            if sa.id == sb.id:
                continue
            blocked_geom = (x_separated(ab.y, aa.y, sa.length, h.buffer)
                            and lanes_overlap(aa.x, sa.width, ab.x, sb.width, h.buffer))
            if not blocked_geom:
                continue
            # b above a in the same lane: a cannot move while b is present.
            if ab.roll_in < aa.roll_out - TOL and aa.roll_out < ab.roll_out - TOL:
                add(ViolationKind.EXIT_BLOCKED, [sa.id, sb.id],
                    f"{sa.id}: exit at {aa.roll_out:.3f} blocked by {sb.id} "
                    f"(departs {ab.roll_out:.3f})",
                    ab.roll_out + h.eps_t - aa.roll_out)
            if ab.roll_in < aa.roll_in - TOL and aa.roll_in < ab.roll_out - TOL:
                add(ViolationKind.ENTRY_BLOCKED, [sa.id, sb.id],
                    f"{sa.id}: entry at {aa.roll_in:.3f} blocked by {sb.id} "
                    f"(departs {ab.roll_out:.3f})",
                    ab.roll_out + h.eps_t - aa.roll_in)

    # 7. Fixed state of current aircraft.
    for c in instance.current:
        asg = by_id[c.id]
        if not asg.accept:
            add(ViolationKind.CURRENT_STATE_MISMATCH, [c.id],
                f"{c.id}: current aircraft marked rejected", 1.0)
            continue
        dev = max(abs(asg.x - c.x_init), abs(asg.y - c.y_init), abs(asg.roll_in))
        if dev > TOL:
            add(ViolationKind.CURRENT_STATE_MISMATCH, [c.id],
                f"{c.id}: position/roll-in deviates from fixed initial state by {dev:.3f}",
                dev)

    violations.sort(key=lambda v: (v.kind.value, v.magnitude, v.aircraft))
    return ValidationReport(
        feasible=not violations,
        violations=tuple(violations),
        cost=cost,
    )


def explain(report: ValidationReport) -> str:
    """Deterministic human-readable rendering of a report."""
    if report.feasible:
        return "feasible"
    lines = [f"infeasible: {len(report.violations)} violation(s)"]
    for v in report.violations:
        lines.append(f"  [{v.kind.value}] {v.detail} (magnitude {v.magnitude:.6g})")
    return "\n".join(lines)
