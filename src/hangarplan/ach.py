"""Deterministic constructive heuristic: prioritize, then place one aircraft
at a time on the spatial grid at the earliest roll-in time where it fits.

Roll-in candidates are the lattice times ``eta + k * eps_t`` up to the
break-even time, where the delay cost reaches the rejection penalty.  The
search over them is event-driven.  The grid scan's answer depends on time only
through comparisons of the roll-in time, and of the points of the roll-out
walk, with the committed roll-ins and roll-outs and with the ``eps_t``
separation window around each committed movement.  After a miss the search
therefore jumps to the first lattice index at which such a point may reach
the next of those thresholds; every index it skips would give the same miss.
It evaluates the same lattice times as stepping ``k`` one by one and finds the
same first fit.

An aircraft is rejected when the break-even time is passed, or when no
threshold is left ahead of any point: from then on every scan would miss.  So
the search terminates for every valid instance, also when ``p_arr = 0`` makes
the break-even time infinite.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    TOL,
    AircraftSpec,
    Assignment,
    Instance,
    Kind,
    Provenance,
    Solution,
    intervals_overlap,
    is_above,
    lanes_overlap,
)

#: One committed placement: the aircraft and its (final) assignment.
Committed = tuple[AircraftSpec, Assignment]


@dataclass(frozen=True)
class PlacementCandidate:
    x: float
    y: float
    t_in: float
    t_out: float

    @property
    def score(self) -> float:
        return self.x + self.y


def prioritize(instance: Instance) -> list[str]:
    """Future aircraft ids sorted by (-p_rej, eta, service, id)."""
    return [f.id for f in sorted(instance.future,
                                 key=lambda f: (-f.p_rej, f.eta, f.service, f.id))]


def max_admissible_time(aircraft: AircraftSpec) -> float:
    """Latest roll-in time before rejecting becomes cheaper than delaying."""
    if aircraft.p_arr is None or aircraft.p_arr <= 0:
        return math.inf
    return aircraft.eta + aircraft.p_rej / aircraft.p_arr


def _events(fixed: Sequence[Committed]) -> list[float]:
    """Separation-relevant movement times of the committed schedule, sorted."""
    ts = []
    for spec, asg in fixed:
        if not asg.accept:
            continue
        if spec.kind is Kind.FUTURE:
            ts.append(asg.roll_in)
        ts.append(asg.roll_out)
    return sorted(ts)


def _separated(t: float, events: Sequence[float], eps_t: float) -> bool:
    """True iff t keeps eps_t from every event.  Float subtraction is
    monotone, so the nearest event is one of t's two neighbours in the sorted
    list."""
    i = bisect_left(events, t)
    return all(abs(e - t) >= eps_t - TOL for e in events[max(0, i - 1):i + 1])


def _next_separated(t0: float, events: Sequence[float], eps_t: float) -> float:
    """Smallest t0 + k * eps_t (k >= 0) that keeps eps_t from every event."""
    k = 0
    while not _separated(t0 + k * eps_t, events, eps_t):
        k += 1
    return t0 + k * eps_t


def resolve_roll_out(aircraft: AircraftSpec, t_in: float,
                     fixed_schedule: Sequence[Committed],
                     eps_t: float = 0.1) -> float:
    """Smallest time >= t_in + service keeping eps_t separation from every
    committed movement, stepping in eps_t increments."""
    return _next_separated(t_in + aircraft.service, _events(fixed_schedule), eps_t)


def _pair_ok(aircraft: AircraftSpec, x: float, y: float, t_in: float, t_out: float,
             spec_b: AircraftSpec, asg_b: Assignment, buffer: float) -> bool:
    """All pairwise conditions against one committed aircraft: buffered
    non-overlap while co-present and no blocking at any of the four movement
    events of the pair."""
    if not asg_b.accept:
        return True
    in_b, out_b = asg_b.roll_in, asg_b.roll_out
    co_present = intervals_overlap((t_in, t_out), (in_b, out_b))
    lane = lanes_overlap(x, aircraft.width, asg_b.x, spec_b.width, buffer)
    if co_present:
        y_sep = (y >= asg_b.y + spec_b.length + buffer - TOL
                 or asg_b.y >= y + aircraft.length + buffer - TOL)
        if not y_sep and lane:
            return False
    if lane:
        b_above = is_above(asg_b.y, spec_b.length, y, aircraft.length, buffer)
        c_above = is_above(y, aircraft.length, asg_b.y, spec_b.length, buffer)
        # candidate's own entry and exit must not be blocked by b
        if b_above and in_b < t_in - TOL and t_in < out_b - TOL:
            return False
        if b_above and in_b < t_out - TOL and t_out < out_b - TOL:
            return False
        # candidate must not block b's committed entry or exit
        if c_above and t_in < in_b - TOL and in_b < t_out - TOL:
            return False
        if c_above and t_in < out_b - TOL and out_b < t_out - TOL:
            return False
    return True


def is_valid_spot(aircraft: AircraftSpec, x: float, y: float, t_in: float,
                  fixed_schedule: Sequence[Committed], instance: Instance,
                  t_out: Optional[float] = None) -> bool:
    """Scalar reference check for one candidate placement.

    True iff the placement keeps the partial plan feasible: in bounds, buffered
    non-overlap against co-present aircraft, eps_t movement separation, and no
    entry/exit blocking in either direction.
    """
    h = instance.hangar
    if x < h.buffer - TOL or x + aircraft.width > h.hw - h.buffer + TOL:
        return False
    if y < h.buffer - TOL or y + aircraft.length > h.hl - h.buffer + TOL:
        return False
    if t_out is None:
        t_out = resolve_roll_out(aircraft, t_in, fixed_schedule, h.eps_t)
    events = _events(fixed_schedule)
    if not _separated(t_in, events, h.eps_t):
        return False
    if not _separated(t_out, events, h.eps_t):
        return False
    return all(_pair_ok(aircraft, x, y, t_in, t_out, sb, ab, h.buffer)
               for sb, ab in fixed_schedule)


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step + TOL))
    if n < 0:
        return np.asarray([])
    return lo + step * np.arange(n + 1)


def find_best_placement(aircraft: AircraftSpec, t_in: float,
                        fixed_schedule: Sequence[Committed],
                        instance: Instance) -> Optional[PlacementCandidate]:
    """Exhaustive grid scan at roll-in time t_in; returns the valid spot with
    minimal x + y (ties: smaller y, then smaller x), or None."""
    h = instance.hangar
    xs = _grid(h.buffer, h.hw - h.buffer - aircraft.width, h.grid_step)
    ys = _grid(h.buffer, h.hl - h.buffer - aircraft.length, h.grid_step)
    if xs.size == 0 or ys.size == 0:
        return None

    events = _events(fixed_schedule)
    if not _separated(t_in, events, h.eps_t):
        return None
    t_out = resolve_roll_out(aircraft, t_in, fixed_schedule, h.eps_t)

    valid = np.ones((xs.size, ys.size), dtype=bool)
    X = xs[:, None]
    Y = ys[None, :]
    for spec_b, asg_b in fixed_schedule:
        if not asg_b.accept:
            continue
        in_b, out_b = asg_b.roll_in, asg_b.roll_out
        lane = ((X > asg_b.x - aircraft.width - h.buffer + TOL)
                & (X < asg_b.x + spec_b.width + h.buffer - TOL))
        co_present = intervals_overlap((t_in, t_out), (in_b, out_b))
        if co_present:
            y_overlap = ((Y > asg_b.y - aircraft.length - h.buffer + TOL)
                         & (Y < asg_b.y + spec_b.length + h.buffer - TOL))
            valid &= ~(lane & y_overlap)
        b_above = Y <= asg_b.y - aircraft.length - h.buffer + TOL
        c_above = Y >= asg_b.y + spec_b.length + h.buffer - TOL
        if (in_b < t_in - TOL and t_in < out_b - TOL) or \
           (in_b < t_out - TOL and t_out < out_b - TOL):
            valid &= ~(lane & b_above)
        if (t_in < in_b - TOL and in_b < t_out - TOL) or \
           (t_in < out_b - TOL and out_b < t_out - TOL):
            valid &= ~(lane & c_above)
        if not valid.any():
            return None

    if not valid.any():
        return None
    score = X + Y
    best = np.min(score[valid])
    tie = valid & (np.abs(score - best) < 1e-9)
    yi = np.min(np.where(tie.any(axis=0))[0])
    xi = np.min(np.where(tie[:, yi])[0])
    return PlacementCandidate(float(xs[xi]), float(ys[yi]), t_in, t_out)


def _commit_current(instance: Instance) -> list[Committed]:
    """Pre-commit current aircraft: fixed position, roll-in 0, minimal-shift
    roll-out respecting blocking order (aircraft above in the lane leave
    first) and movement separation."""
    h = instance.hangar
    fixed: list[Committed] = []
    order = sorted(instance.current, key=lambda c: (-c.y_init, c.id))
    for c in order:
        t0 = c.service
        for spec_b, asg_b in fixed:
            if (is_above(asg_b.y, spec_b.length, c.y_init, c.length, h.buffer)
                    and lanes_overlap(c.x_init, c.width, asg_b.x, spec_b.width, h.buffer)):
                t0 = max(t0, asg_b.roll_out + h.eps_t)
        t_out = _next_separated(t0, _events(fixed), h.eps_t)
        fixed.append((c, Assignment(
            aircraft_id=c.id, accept=True, x=c.x_init, y=c.y_init,
            roll_in=0.0, roll_out=t_out,
            d_arr=0.0, d_dep=max(0.0, t_out - c.etd))))
    return fixed


def _thresholds(fixed: Sequence[Committed], events: Sequence[float],
                eps_t: float) -> list[float]:
    """Sorted times near which a time comparison of the grid scan can switch:
    every committed roll-in and roll-out, and both edges of the eps_t window
    around every movement event.  Each comparison switches within TOL of one
    of them."""
    ts = {t for _, asg in fixed if asg.accept for t in (asg.roll_in, asg.roll_out)}
    ts.update(e + d for e in events for d in (-eps_t, eps_t))
    return sorted(ts)


def _steps_to_next_threshold(points: Sequence[float], thresholds: Sequence[float],
                             eps_t: float) -> Optional[int]:
    """Lattice steps to the first roll-in at which one of the points may come
    within 2*TOL of the nearest threshold above it; at least one.  All points
    move with the roll-in, so every roll-in skipped keeps each point more than
    2*TOL below its next threshold, beyond reach of every switch.  None when
    no threshold lies above any point."""
    gap = math.inf
    for p in points:
        i = bisect_right(thresholds, p - 2 * TOL)
        if i < len(thresholds):
            gap = min(gap, thresholds[i] - p)
    if gap == math.inf:
        return None
    return max(1, math.ceil((gap - 2 * TOL) / eps_t))


def _earliest_fit(aircraft: AircraftSpec, fixed: Sequence[Committed],
                  instance: Instance) -> Optional[PlacementCandidate]:
    """Best spot at the first lattice roll-in eta + k * eps_t where the grid
    scan finds one, or None when the aircraft must be rejected."""
    h = instance.hangar
    t_max = max_admissible_time(aircraft)
    events = _events(fixed)
    thresholds = _thresholds(fixed, events, h.eps_t)
    k = 0
    while True:
        t = aircraft.eta + k * h.eps_t
        if t > t_max + TOL:
            return None
        cand = find_best_placement(aircraft, t, fixed, instance)
        if cand is not None:
            return cand
        # The scan reads t and every point of the roll-out walk.
        base = t + aircraft.service
        walk = round((_next_separated(base, events, h.eps_t) - base) / h.eps_t)
        points = [t] + [base + i * h.eps_t for i in range(walk + 1)]
        step = _steps_to_next_threshold(points, thresholds, h.eps_t)
        if step is None:
            return None
        k += step


def solve(instance: Instance) -> Solution:
    """Run the full heuristic.

    Current aircraft keep their spots and leave in blocking order.  Each
    future aircraft, in priority order, takes the best grid spot at the
    earliest lattice roll-in where one exists, found by the event-driven
    search of the module docstring, or is rejected once the break-even time
    passes or no later roll-in can fit.  Rejection is a normal outcome, and
    the search terminates for every valid instance.
    """
    fixed = _commit_current(instance)
    by_id = {f.id: f for f in instance.future}
    assignments: dict[str, Assignment] = {s.id: a for s, a in fixed}

    for fid in prioritize(instance):
        f = by_id[fid]
        cand = _earliest_fit(f, fixed, instance)
        if cand is None:
            assignments[fid] = Assignment(aircraft_id=fid, accept=False)
            continue
        asg = Assignment(
            aircraft_id=fid, accept=True, x=cand.x, y=cand.y,
            roll_in=cand.t_in, roll_out=cand.t_out,
            d_arr=max(0.0, cand.t_in - f.eta),
            d_dep=max(0.0, cand.t_out - f.etd))
        fixed.append((f, asg))
        assignments[fid] = asg

    ordered = tuple(assignments[a.id] for a in instance.all_aircraft())
    return Solution(instance_label=instance.label, assignments=ordered,
                    provenance=Provenance.HEURISTIC)
