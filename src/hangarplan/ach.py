"""Deterministic constructive heuristic: prioritize, then place one aircraft
at a time on ``core.grid`` at the earliest roll-in time where it fits.

Roll-in candidates are the lattice times ``eta + k * eps_t`` up to the
break-even time, where the delay cost reaches the rejection penalty.  The
search over them has one skip rule.  After a scan at t misses, or is skipped
because a committed aircraft that fills the grid covers t (``_earliest_fit``),
each proof of the miss gives a time before which every roll-in misses too,
and the search goes to the first lattice index at or past the later of them
(``_first_index_at``).  One proof is the thresholds: the grid scan's answer
depends on time only through comparisons of t, and of the points of the
roll-out walk from t + service, with the committed movements and the edges
of the ``eps_t`` window around each, so it holds until t or t + service
comes within 2 * TOL of its next threshold (``_shift_to_next_threshold``).
A parked aircraft's roll-in at 0 is none: its stay starts before 0
(``core.presence``) and it is no movement, so no scan compares it.  The
other is the roll-out less TOL of the filling aircraft that stays longest;
in the default hangar one aircraft nearly always fills the grid of the next,
and its whole stay costs no scan.  Every index skipped is a miss, so the
search finds the first fit of stepping ``k`` by one.

An aircraft with a grid cell is rejected only past the break-even time.  A
scan at t misses only when t lies within eps_t - TOL of a committed movement
e, and then e or e + eps_t is a threshold above t - 2 * TOL, or when a
committed stay is still open at t, and its roll-out is an event above t.
Each skip moves ``k`` forward by at least one.  Every threshold is at most
the horizon M_T <= ``core.MAX_HORIZON``, where one float step is at most
1.2e-7 h, and ``HangarConfig`` keeps ``eps_t`` above 2 * TOL = 2e-6 h, more
than 16 such steps.  So t passes the last threshold after finitely many
steps, and there every scan fits: the search terminates for every valid
instance, and places the aircraft when ``p_arr = 0`` makes the break-even
time infinite.

The search of one aircraft prepares, once against its committed schedule,
what every scan reads that does not depend on the roll-in time
(``prepare_scan``): the two grid axes, the sorted movement events, and for
each accepted committed aircraft its stay, its movements and the runs of
cells its footprint bars on each axis (``core.barred``).  A scan at one
roll-in then makes only the time tests, bars one rectangle of cells for each
co-present aircraft, and looks only at the first free cell of column 0 and
of the columns where a rectangle ends (``core.first_free_cells``, shared
with ``instgen``'s packing), so its cost does not depend on the number of
cells (``find_best_placement``).  An aircraft whose grid is empty is
rejected before the search.

``solve`` is the constructive heuristic: one run of the loop
(``_solve_order``) over ``prioritize``'s order.  ``improve`` runs that loop
again on up to ``IMPROVE_MOVES`` orders, each one rejected request moved
ahead of the aircraft it waits for, and keeps an order only if its plan
costs less.  Each re-run starts from the committed prefix of the index the
request moves to, since the aircraft ahead of it are searched as before.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple, Optional, Sequence

from .core import (
    TOL,
    AircraftSpec,
    Assignment,
    Instance,
    Provenance,
    Solution,
    barred,
    evaluate_cost,
    first_free_cells,
    grid,
    intervals_overlap,
    lanes_overlap,
    movement_times,
    next_separated,
    presence,
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

    ``xs`` and ``ys`` are the two axes of the grid, ascending, as lists.
    ``committed`` holds, for each accepted committed aircraft b, its stay
    (``core.presence``), its movements and four index bounds
    (``core.barred``): the x cells ``[x_lo, x_hi)`` are those whose buffered
    width overlaps b's, its lane; the y cells ``[y_lo, y_hi)`` those whose
    buffered length overlaps b's, its band; the y cells ``[0, y_lo)`` lie
    below b and ``[y_hi, ny)`` above it.  A scan holds O(nx + ny + k)
    values, not one per cell.
    """

    xs: list[float]
    ys: list[float]
    events: list[float]
    committed: list[tuple[tuple[float, float], list[float], int, int, int, int]]
    eps_t: float


def prepare_scan(aircraft: AircraftSpec, fixed_schedule: Sequence[Committed],
                 instance: Instance) -> Scan:
    """The time-invariant part of ``find_best_placement`` for ``aircraft``
    next to ``fixed_schedule``: O(nx + ny) for the grids, and one bisection
    per committed bound."""
    h = instance.hangar
    xs = grid(h.buffer, h.hw - h.buffer - aircraft.width, h.grid_step)
    ys = grid(h.buffer, h.hl - h.buffer - aircraft.length, h.grid_step)
    committed = []
    for spec_b, asg_b in fixed_schedule:
        if not asg_b.accept:
            continue
        committed.append((
            presence(spec_b, asg_b.roll_in, asg_b.roll_out),
            movement_times(spec_b, asg_b.roll_in, asg_b.roll_out),
            *barred(xs, aircraft.width, asg_b.x, spec_b.width, h.buffer),
            *barred(ys, aircraft.length, asg_b.y, spec_b.length, h.buffer)))
    return Scan(xs, ys, _events(fixed_schedule), committed, h.eps_t)


def find_best_placement(aircraft: AircraftSpec, t_in: float,
                        scan: Scan) -> Optional[Assignment]:
    """Grid scan at roll-in time t_in: the aircraft accepted at the valid
    cell with minimal x + y (scores within 1e-9 tie; ties: smaller y, then
    smaller x) from t_in to its roll-out, or None when no cell is valid.

    ``scan`` is ``prepare_scan`` of the aircraft next to the committed
    schedule; the time search prepares it once for all the roll-ins of the
    aircraft.  Per roll-in the scan makes only time tests: the separation of
    t_in, the roll-out walk, and for each committed aircraft b co-presence and
    the two blocking windows.  Each co-present b then bars one rectangle of
    cells: its lane, times its band, widened to row 0 when b's stay blocks
    the candidate's movements and to the top row when the candidate's window
    blocks b's movements.

    Only the candidates of ``core.first_free_cells``, one per column 0 or
    ``x_hi`` at its first free row, can win: of them, the cell with the
    least score, first by y then x within 1e-9 of it, is the cell a scan of
    every cell would choose, for any grid step, in O(k^2) for k co-present
    aircraft whatever the number of cells.
    """
    eps_t = scan.eps_t
    if not separated(t_in, scan.events, eps_t):
        return None
    t_out = next_separated(t_in + aircraft.service, scan.events, eps_t)
    window = (t_in, t_out)
    moves = movement_times(aircraft, t_in, t_out)

    xs, ys = scan.xs, scan.ys
    rects = []
    for stay, moves_b, x_lo, x_hi, y_lo, y_hi in scan.committed:
        # a window that contains a movement overlaps the other stay, so only
        # co-present aircraft can collide with or block the candidate
        if not intervals_overlap(window, stay):
            continue
        # b parked above the candidate must not cover the candidate's
        # movements, and the candidate parked above b must not cover b's;
        # below, band and above are adjacent unless footprints and buffer
        # sum to less than 2 * GRID_TOL, where below and above overlap
        below = window_blocks(stay, moves)
        above = window_blocks(window, moves_b)
        rects.append((0 if below else min(y_lo, y_hi) if above else y_lo,
                      len(ys) if above else max(y_lo, y_hi) if below else y_hi,
                      x_lo, x_hi))
    found = [(xs[c] + ys[r], r, c) for r, c in first_free_cells(rects, len(xs), len(ys))]
    if not found:
        return None
    best = min(found)[0]
    yi, xi = min((row, c) for score, row, c in found if abs(score - best) < 1e-9)
    return Assignment.placed(aircraft, xs[xi], ys[yi], t_in, t_out)


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


def _thresholds(events: Sequence[float], eps_t: float) -> list[float]:
    """Sorted times near which a time comparison of the grid scan can switch:
    every committed movement and both edges of the eps_t window around it.
    Each comparison switches within TOL of one of them."""
    return sorted({e + d for e in events for d in (-eps_t, 0.0, eps_t)})


def _shift_to_next_threshold(points: Sequence[float],
                             thresholds: Sequence[float]) -> Optional[float]:
    """The shift at which the first of the points, all moved by it together,
    comes within 2*TOL of the nearest threshold above it; None when no
    threshold lies above any point.  Every smaller shift keeps each point
    more than 2*TOL below its next threshold, beyond reach of every switch.
    Of a roll-out walk from p = t + service, p alone sets the lattice step.
    A walk that moves starts with an event e within eps_t - TOL of p.  Events
    are thresholds, as is e + eps_t, so one of the two lies above p - 2*TOL
    and less than eps_t - TOL above p: the shift of p is below eps_t, and the
    search goes to the next index."""
    shift = math.inf
    for p in points:
        i = bisect_right(thresholds, p - 2 * TOL)
        if i < len(thresholds):
            shift = min(shift, thresholds[i] - 2 * TOL - p)
    return None if shift == math.inf else shift


def _first_index_at(time: float, eta: float, eps_t: float, k: int) -> int:
    """The first lattice index after k whose roll-in eta + j * eps_t is at
    least ``time``.  The quotient only guesses it; the roll-ins, which do not
    decrease with j, are compared to ``time`` on both sides of the guess."""
    j = max(k + 1, math.ceil((time - eta) / eps_t))
    while j > k + 1 and eta + (j - 1) * eps_t >= time:
        j -= 1
    while eta + j * eps_t < time:
        j += 1
    return j


def _earliest_fit(aircraft: AircraftSpec, fixed: Sequence[Committed],
                  instance: Instance) -> Optional[Assignment]:
    """The grid scan's assignment at the first lattice roll-in eta + k * eps_t
    where it finds a spot, or None when the aircraft must be rejected.

    A committed aircraft b fills the grid when its bounds are the whole axes,
    ``x_lo == 0``, ``x_hi == nx``, ``y_lo == 0`` and ``y_hi == ny``.  Let
    (s0, s1) be its stay.  At a roll-in t with t < s1 - TOL and
    s0 < t + service - TOL the scan misses: its roll-out is at least
    t + service, so b is co-present, and the rectangle b bars, whichever
    blocking windows hold, is every row of every column.  Both tests keep
    holding as t grows up to s1 - TOL, so such a t is not scanned, and the
    search skips to at least the latest s1 - TOL of the filling aircraft
    that cover it.  Its roll-out is a threshold ahead of t, as one is after
    every miss, so the aircraft is rejected only past its break-even time."""
    h = instance.hangar
    t_max = max_admissible_time(aircraft)
    scan = prepare_scan(aircraft, fixed, instance)
    nx, ny = len(scan.xs), len(scan.ys)
    if not nx or not ny:
        return None
    fills = [stay for stay, _, x_lo, x_hi, y_lo, y_hi in scan.committed
             if (x_lo, x_hi, y_lo, y_hi) == (0, nx, 0, ny)]
    thresholds = _thresholds(scan.events, h.eps_t)
    k = 0
    while True:
        t = aircraft.eta + k * h.eps_t
        if t > t_max + TOL:
            return None
        ends = [s1 - TOL for s0, s1 in fills
                if t < s1 - TOL and s0 < t + aircraft.service - TOL]
        if not ends:
            asg = find_best_placement(aircraft, t, scan)
            if asg is not None:
                return asg
        shift = _shift_to_next_threshold([t, t + aircraft.service], thresholds)
        k = _first_index_at(max([t + shift, *ends]), aircraft.eta, h.eps_t, k)


def _solve_order(instance: Instance, order: Sequence[AircraftSpec],
                 prefixes: Sequence[tuple[Committed, ...]] = ()
                 ) -> list[tuple[Committed, ...]]:
    """The heuristic's loop over ``order``: the committed list before each
    aircraft of it, and the final list last (``len(order) + 1`` lists).

    Each aircraft's search reads only the list committed before it, so a run
    whose order agrees with an earlier run's on its first ``len(prefixes) - 1``
    aircraft may resume from that run's first lists, ``prefixes``: it keeps
    them and searches the rest of ``order`` from ``prefixes[-1]``.  Without
    them it starts at the current aircraft, committed by ``_commit_current``."""
    kept = list(prefixes) or [tuple(_commit_current(instance))]
    fixed = list(kept[-1])
    for f in order[len(kept) - 1:]:
        asg = _earliest_fit(f, fixed, instance)
        if asg is not None:
            fixed.append((f, asg))
        kept.append(tuple(fixed))
    return kept


def _plan(instance: Instance, committed: Sequence[Committed]) -> Solution:
    """The heuristic's plan that accepts the ``committed`` aircraft."""
    return Solution.compose(instance, (asg for _, asg in committed), Provenance.HEURISTIC)


def solve(instance: Instance) -> Solution:
    """Run the full heuristic.

    Current aircraft keep their spots and leave in blocking order.  Each
    future aircraft, in priority order, takes the best grid spot at the
    earliest lattice roll-in where one exists, found by the event-driven
    search of the module docstring, or is rejected once the break-even time
    passes, or at once when its grid is empty.  Rejection is a normal
    outcome, and the search terminates for every valid instance.
    """
    return _plan(instance, _solve_order(instance, prioritize(instance))[-1])


#: Re-insertion moves that ``improve`` tries on the priority order.
IMPROVE_MOVES = 4


def improve(instance: Instance) -> Solution:
    """The heuristic's plan after up to ``IMPROVE_MOVES`` re-insertion moves
    on its priority order; never costlier than ``solve``.

    The moves walk the order once, front to back, and try each request that
    the best plan so far rejects.  A move takes request r out of the order
    and puts it back just before the first aircraft ahead of r that the plan
    accepts with a stay overlapping r's window
    ``(eta, max_admissible_time + service)``, or at the front when there is
    none.  The loop then runs again from that index, on the stored prefix,
    and the new order is kept only if its plan costs less by more than 1e-9.
    The walk goes on after r's old index, whose later aircraft keep their
    indices; a rejected request already at the front has no move.  Every plan
    comes out of the heuristic's own loop, and the moves depend only on the
    instance."""
    order = prioritize(instance)
    prefixes = _solve_order(instance, order)
    cost = evaluate_cost(instance, _plan(instance, prefixes[-1])).total
    moves = 0
    for i in range(1, len(order)):
        if moves == IMPROVE_MOVES:
            break
        accepted = {spec.id: asg for spec, asg in prefixes[-1]}
        r = order[i]
        if r.id in accepted:
            continue
        moves += 1
        window = (r.eta, max_admissible_time(r) + r.service)
        j = next((j for j, f in enumerate(order[:i]) if f.id in accepted and intervals_overlap(
            window, presence(f, accepted[f.id].roll_in, accepted[f.id].roll_out))), 0)
        moved = order[:j] + [r] + order[j:i] + order[i + 1:]
        moved_prefixes = _solve_order(instance, moved, prefixes[:j + 1])
        moved_cost = evaluate_cost(instance, _plan(instance, moved_prefixes[-1])).total
        if moved_cost < cost - 1e-9:
            order, prefixes, cost = moved, moved_prefixes, moved_cost
    return _plan(instance, prefixes[-1])
