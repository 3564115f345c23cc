"""Deterministic constructive heuristic: prioritize, then place one aircraft
at a time on ``core.grid`` at the earliest roll-in time where it fits.

Roll-in candidates are the lattice times ``eta + k * eps_t`` up to the
break-even time, where the delay cost reaches the rejection penalty.  The
search over them is event-driven.  The grid scan's answer depends on time only
through comparisons of the roll-in time t, and of the points of the roll-out
walk from t + service, with the committed roll-ins and roll-outs and the
``eps_t`` window around each committed movement.  After a miss the search
jumps to the first lattice index at which t or t + service may reach the next
of those thresholds (``_steps_to_next_threshold``); every index skipped gives
the same miss, so the search finds the first fit of stepping ``k`` by one.

An aircraft is rejected when the break-even time is passed, or when no
threshold is left ahead of any point: from then on every scan would miss.
Every threshold is at most the instance's horizon M_T <= ``core.MAX_HORIZON``,
where one float step is at most 1.2e-7 h, and ``HangarConfig`` keeps ``eps_t``
above 2 * TOL = 2e-6 h, more than 16 such steps.  So each lattice step moves t
forward, t passes the last threshold after finitely many steps, and the search
terminates for every valid instance, also when ``p_arr = 0`` makes the
break-even time infinite.

The search of one aircraft prepares, once against its committed schedule,
what every scan reads that does not depend on the roll-in time
(``prepare_scan``): the two grids and their scores, the sorted movement
events, and for each accepted committed aircraft its stay, its movements and
four index ranges on the grids.  A scan at one roll-in then makes only the
time tests, and clears one slice of the grid for each test that holds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    GRID_TOL,
    TOL,
    AircraftSpec,
    Assignment,
    Instance,
    Provenance,
    Solution,
    grid,
    intervals_overlap,
    lanes_overlap,
    movement_times,
    next_separated,
    separated,
    window_blocks,
    x_separated,
)

#: One committed placement: the aircraft and its (final) assignment.
Committed = tuple[AircraftSpec, Assignment]


def prioritize(instance: Instance) -> list[AircraftSpec]:
    """Future aircraft sorted by (-p_rej, eta, service, id)."""
    return sorted(instance.future, key=lambda f: (-f.p_rej, f.eta, f.service, f.id))


def max_admissible_time(aircraft: AircraftSpec) -> float:
    """Latest roll-in time before rejecting becomes cheaper than delaying."""
    if aircraft.p_arr == 0:
        return math.inf
    return aircraft.eta + aircraft.p_rej / aircraft.p_arr


def _events(fixed: Sequence[Committed]) -> list[float]:
    """Separation-relevant movement times of the committed schedule, sorted."""
    return sorted(t for spec, asg in fixed if asg.accept
                  for t in movement_times(spec, asg.roll_in, asg.roll_out))


def resolve_roll_out(aircraft: AircraftSpec, t_in: float,
                     fixed_schedule: Sequence[Committed],
                     eps_t: float = 0.1) -> float:
    """Smallest time >= t_in + service keeping eps_t separation from every
    committed movement, stepping in eps_t increments.

    Nothing under ``src/`` calls it.  It stays only because the benchmark's
    traced run wraps it by name; it goes once the benchmark stops naming it."""
    return next_separated(t_in + aircraft.service, _events(fixed_schedule), eps_t)


class Scan(NamedTuple):
    """What the grid scan of one aircraft next to one committed schedule reads
    that does not depend on the roll-in time, and the hangar's ``eps_t``.

    ``committed`` holds, for each accepted committed aircraft b, its stay
    ``(roll_in, roll_out)``, its movements and four index ranges.  ``lane``
    indexes ``xs``: the x cells whose buffered width overlaps b's.  ``band``,
    ``below`` and ``above`` index ``ys``: the y cells whose buffered footprint
    overlaps b's, lies below b, or lies above b.  The grids ascend, so each
    range is one slice.
    """

    xs: np.ndarray
    ys: np.ndarray
    score: np.ndarray
    events: list[float]
    committed: list[tuple[tuple[float, float], list[float], slice, slice, slice, slice]]
    eps_t: float


def prepare_scan(aircraft: AircraftSpec, fixed_schedule: Sequence[Committed],
                 instance: Instance) -> Scan:
    """The time-invariant part of ``find_best_placement`` for ``aircraft``
    next to ``fixed_schedule``."""
    h = instance.hangar
    xs = grid(h.buffer, h.hw - h.buffer - aircraft.width, h.grid_step)
    ys = grid(h.buffer, h.hl - h.buffer - aircraft.length, h.grid_step)
    committed = []
    for spec_b, asg_b in fixed_schedule:
        if not asg_b.accept:
            continue
        # on an ascending grid, v > lower holds from searchsorted(lower,
        # "right") on, and v < upper below searchsorted(upper, "left")
        x_lo = int(np.searchsorted(xs, asg_b.x - aircraft.width - h.buffer + GRID_TOL, "right"))
        x_hi = int(np.searchsorted(xs, asg_b.x + spec_b.width + h.buffer - GRID_TOL, "left"))
        y_lo = int(np.searchsorted(ys, asg_b.y - aircraft.length - h.buffer + GRID_TOL, "right"))
        y_hi = int(np.searchsorted(ys, asg_b.y + spec_b.length + h.buffer - GRID_TOL, "left"))
        committed.append(((asg_b.roll_in, asg_b.roll_out),
                          movement_times(spec_b, asg_b.roll_in, asg_b.roll_out),
                          slice(x_lo, x_hi), slice(y_lo, y_hi),
                          slice(0, y_lo), slice(y_hi, None)))
    return Scan(xs, ys, xs[:, None] + ys[None, :], _events(fixed_schedule), committed,
                h.eps_t)


def find_best_placement(aircraft: AircraftSpec, t_in: float,
                        scan: Scan) -> Optional[Assignment]:
    """Exhaustive grid scan at roll-in time t_in: the aircraft accepted at the
    valid spot with minimal x + y (ties: smaller y, then smaller x) from t_in
    to its roll-out, or None when no spot is valid.

    ``scan`` is ``prepare_scan`` of the aircraft next to the committed
    schedule; the time search prepares it once for all the roll-ins of the
    aircraft.  Per roll-in the scan tests only times: the separation of t_in,
    the roll-out walk, and for each committed aircraft co-presence and the
    two blocking windows, each of which clears a slice.
    """
    if scan.xs.size == 0 or scan.ys.size == 0:
        return None

    eps_t = scan.eps_t
    if not separated(t_in, scan.events, eps_t):
        return None
    t_out = next_separated(t_in + aircraft.service, scan.events, eps_t)
    window = (t_in, t_out)
    moves = movement_times(aircraft, t_in, t_out)

    valid = np.ones(scan.score.shape, dtype=bool)
    for stay, moves_b, lane, band, below, above in scan.committed:
        # a window that contains a movement overlaps the other stay, so only
        # co-present aircraft can collide with or block the candidate
        if not intervals_overlap(window, stay):
            continue
        valid[lane, band] = False
        # b parked above the candidate must not cover the candidate's
        # movements, and the candidate parked above b must not cover b's
        if window_blocks(stay, moves):
            valid[lane, below] = False
        if window_blocks(window, moves_b):
            valid[lane, above] = False
        if not valid.any():
            return None

    score = scan.score
    best = np.min(score[valid])
    tie = valid & (np.abs(score - best) < 1e-9)
    yi = np.min(np.where(tie.any(axis=0))[0])
    xi = np.min(np.where(tie[:, yi])[0])
    return Assignment.placed(aircraft, float(scan.xs[xi]), float(scan.ys[yi]), t_in, t_out)


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
            if (x_separated(asg_b.y, c.y_init, c.length, h.buffer)
                    and lanes_overlap(c.x_init, c.width, asg_b.x, spec_b.width, h.buffer)):
                t0 = max(t0, asg_b.roll_out + h.eps_t)
        t_out = next_separated(t0, _events(fixed), h.eps_t)
        fixed.append((c, Assignment.placed(c, c.x_init, c.y_init, 0.0, t_out)))
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
    no threshold lies above any point.  Of a roll-out walk from p = t + service,
    p alone sets the step.  A walk that moves starts with an event e within
    eps_t - TOL of p.  Events are thresholds, as is e + eps_t, so one of the
    two lies above p - 2*TOL and less than eps_t - TOL above p: step 1."""
    gap = math.inf
    for p in points:
        i = bisect_right(thresholds, p - 2 * TOL)
        if i < len(thresholds):
            gap = min(gap, thresholds[i] - p)
    if gap == math.inf:
        return None
    return max(1, math.ceil((gap - 2 * TOL) / eps_t))


def _earliest_fit(aircraft: AircraftSpec, fixed: Sequence[Committed],
                  instance: Instance) -> Optional[Assignment]:
    """The grid scan's assignment at the first lattice roll-in eta + k * eps_t
    where it finds a spot, or None when the aircraft must be rejected."""
    h = instance.hangar
    t_max = max_admissible_time(aircraft)
    scan = prepare_scan(aircraft, fixed, instance)
    thresholds = _thresholds(fixed, scan.events, h.eps_t)
    k = 0
    while True:
        t = aircraft.eta + k * h.eps_t
        if t > t_max + TOL:
            return None
        asg = find_best_placement(aircraft, t, scan)
        if asg is not None:
            return asg
        step = _steps_to_next_threshold([t, t + aircraft.service], thresholds, h.eps_t)
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
    for f in prioritize(instance):
        asg = _earliest_fit(f, fixed, instance)
        if asg is not None:
            fixed.append((f, asg))
    return Solution.compose(instance, (asg for _, asg in fixed), Provenance.HEURISTIC)
