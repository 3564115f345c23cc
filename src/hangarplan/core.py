"""Shared domain types, geometry helpers, Big-M derivation, and the cost evaluator.

It also holds the solver-side movement rules that ``ach`` and ``exact`` share.
``validator`` and ``milp`` keep their own encodings of these rules on purpose:
their agreement is a check only while the two stay independent.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

#: Absolute comparison tolerance for times (hours) and coordinates (meters).
TOL = 1e-6

#: Slack of the grid tests of the solvers and of ``instgen``'s packing (m): TOL
#: less a margin above the rounding of hangar-scale sums, so every cell they
#: accept passes the validator's TOL test.
GRID_TOL = TOL - 1e-9

#: Largest placement grid a hangar may ask for, in cells.
MAX_GRID_CELLS = 10**6

#: Largest time horizon M_T (``derive_big_m``) an instance may have, in hours.
#: Up to it one float step is at most 1.2e-7 h, inside TOL; at 3e10 h it is
#: 3.8e-6 h, and sums of times no longer round within TOL.
MAX_HORIZON = 1e9

#: Largest length an instance or a plan may hold, in meters: hangar sides,
#: buffer, footprints and positions.  By the argument of MAX_HORIZON, one
#: float step at 1e9 m is 1.2e-7 m, inside TOL.
MAX_LENGTH = 1e9


def _check_length(owner: str, name: str, value: Optional[float]) -> None:
    """Refuse a length whose size passes MAX_LENGTH."""
    if value is not None and abs(value) > MAX_LENGTH:
        raise ValueError(f"{owner}{name} {value!r} m exceeds {MAX_LENGTH:g} m, past which "
                         "lengths lose the precision of the tolerance")


class MissingAssignment(Exception):
    """A solution lacks an assignment for some aircraft of the instance."""


class Kind(str, Enum):
    CURRENT = "current"
    FUTURE = "future"


class Provenance(str, Enum):
    HEURISTIC = "heuristic"
    ORACLE = "oracle"
    IMPORTED = "imported"
    MANUAL = "manual"


@dataclass(frozen=True)
class AircraftSpec:
    """Physical footprint, schedule targets, and penalty economics of one aircraft.

    Current aircraft carry a fixed initial position (``x_init``/``y_init``) and
    interpret ``service`` as the remaining service time.  Future aircraft carry
    rejection and arrival-delay penalties instead.
    """

    id: str
    kind: Kind
    width: float
    length: float
    eta: float
    etd: float
    service: float
    p_dep: float = 0.0
    p_rej: Optional[float] = None
    p_arr: Optional[float] = None
    x_init: Optional[float] = None
    y_init: Optional[float] = None
    vip: bool = False

    def __post_init__(self) -> None:
        for name in ("width", "length", "eta", "etd", "service", "p_dep",
                     "p_rej", "p_arr", "x_init", "y_init"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{self.id}: {name} must be finite, got {value}")
        for name in ("width", "length", "x_init", "y_init"):
            _check_length(f"{self.id}: ", name, getattr(self, name))
        for name in ("p_dep", "p_rej", "p_arr"):
            if (getattr(self, name) or 0.0) < 0:
                raise ValueError(f"{self.id}: {name} must be non-negative")
        if self.width <= 0 or self.length <= 0:
            raise ValueError(f"{self.id}: footprint must be positive")
        if self.service <= 0:
            raise ValueError(f"{self.id}: service time must be positive")
        if self.eta < 0:
            raise ValueError(f"{self.id}: eta must be non-negative")
        if self.kind is Kind.CURRENT:
            if self.x_init is None or self.y_init is None:
                raise ValueError(f"{self.id}: current aircraft needs x_init/y_init")
        else:
            if self.p_rej is None or self.p_arr is None:
                raise ValueError(f"{self.id}: future aircraft needs p_rej/p_arr")
            if self.x_init is not None or self.y_init is not None:
                raise ValueError(f"{self.id}: future aircraft must not carry an initial position")


@dataclass(frozen=True)
class HangarConfig:
    """Hangar geometry, safety buffer, and the small model constants."""

    hw: float = 65.0
    hl: float = 60.0
    buffer: float = 5.0
    eps_t: float = 0.1
    eps_p: float = 0.001
    grid_step: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hw", "hl", "buffer", "eps_t", "eps_p", "grid_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"hangar {name} must be finite, got {getattr(self, name)}")
        for name in ("hw", "hl", "buffer"):
            _check_length("hangar ", name, getattr(self, name))
        if self.hw <= 0 or self.hl <= 0:
            raise ValueError("hangar dimensions must be positive")
        if self.buffer < 0:
            raise ValueError("buffer must be non-negative")
        if self.eps_t <= 2 * TOL:
            raise ValueError(f"eps_t {self.eps_t!r} h must exceed 2*TOL = {2 * TOL:g} h, "
                             "below which a lattice step may not move a roll-in time")
        if self.eps_p < 0:
            raise ValueError("eps_p must be non-negative")
        if self.grid_step <= 0:
            raise ValueError("grid_step must be positive")
        # each axis counted as ``grid_count`` counts a request's cells, for a
        # footprint of size 0: no request has more cells
        cells = (grid_count(self.buffer, self.hw - self.buffer, self.grid_step)
                 * grid_count(self.buffer, self.hl - self.buffer, self.grid_step))
        if cells > MAX_GRID_CELLS:
            raise ValueError(f"grid_step {self.grid_step} gives more than "
                             f"{MAX_GRID_CELLS} grid cells")


@dataclass(frozen=True)
class Instance:
    """A hangar plus the current (C) and future (F) aircraft sets."""

    hangar: HangarConfig
    current: tuple[AircraftSpec, ...] = ()
    future: tuple[AircraftSpec, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "current", tuple(self.current))
        object.__setattr__(self, "future", tuple(self.future))
        ids = [a.id for a in self.all_aircraft()]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate aircraft ids")
        for a in self.current:
            if a.kind is not Kind.CURRENT:
                raise ValueError(f"{a.id}: listed under current but kind={a.kind}")
        for a in self.future:
            if a.kind is not Kind.FUTURE:
                raise ValueError(f"{a.id}: listed under future but kind={a.kind}")
            # the rows and both solvers separate only the movements of two
            # different aircraft; a parked aircraft moves only once
            if a.service < self.hangar.eps_t - TOL:
                raise ValueError(f"{a.id}: service {a.service} is shorter than "
                                 f"eps_t {self.hangar.eps_t}")
        m_t = derive_big_m(self)[0]
        if m_t > MAX_HORIZON:
            raise ValueError(f"time horizon M_T = {m_t:.6g} h exceeds {MAX_HORIZON:g} h, "
                             "past which times lose the precision of the tolerance")
        self._check_worst_cost()
        self._check_initial_layout()

    def _check_worst_cost(self) -> None:
        """Refuse an instance on which some plan's cost is not finite.  A
        plan's delays are at most MAX_HORIZON past eta, or past etd where it
        is not negative, and its positions at most MAX_LENGTH on each axis,
        so each cost term is at most the term of the same name here."""
        worst = 0.0
        for field, term in (
                ("p_rej", sum(f.p_rej for f in self.future)),
                ("p_arr", MAX_HORIZON * sum(f.p_arr for f in self.future)),
                ("p_dep", sum(a.p_dep * (MAX_HORIZON + max(0.0, -a.etd))
                              for a in self.all_aircraft())),
                ("eps_p", 2.0 * MAX_LENGTH * self.hangar.eps_p * len(self.future))):
            worst += term
            if not math.isfinite(worst):
                raise ValueError(f"the worst-case plan cost is not finite once the {field} "
                                 f"term is added: its delays of {MAX_HORIZON:g} h and "
                                 f"positions of {MAX_LENGTH:g} m overflow")

    def _check_initial_layout(self) -> None:
        h = self.hangar
        for a in self.current:
            if (a.x_init < h.buffer - TOL or a.x_init + a.width > h.hw - h.buffer + TOL
                    or a.y_init < h.buffer - TOL or a.y_init + a.length > h.hl - h.buffer + TOL):
                raise ValueError(f"{a.id}: initial position violates buffered hangar bounds")
        for i, a in enumerate(self.current):
            for b in self.current[i + 1:]:
                # the validator's gaps, rounded as it rounds them, so that a
                # plan keeping the parked aircraft in place can validate
                gaps = (a.x_init - (b.x_init + b.width + h.buffer),
                        b.x_init - (a.x_init + a.width + h.buffer),
                        a.y_init - (b.y_init + b.length + h.buffer),
                        b.y_init - (a.y_init + a.length + h.buffer))
                if max(gaps) < -TOL:
                    raise ValueError(f"{a.id}/{b.id}: initial positions violate buffered separation")

    def all_aircraft(self) -> tuple[AircraftSpec, ...]:
        return self.current + self.future


@dataclass(frozen=True)
class Assignment:
    """Per-aircraft decisions: acceptance, placement, and movement times."""

    aircraft_id: str
    accept: bool
    x: float = 0.0
    y: float = 0.0
    roll_in: float = 0.0
    roll_out: float = 0.0
    d_arr: float = 0.0
    d_dep: float = 0.0

    @classmethod
    def placed(cls, spec: AircraftSpec, x: float, y: float,
               roll_in: float, roll_out: float) -> Assignment:
        """``spec`` accepted at (x, y) from roll_in to roll_out, with its
        delays measured against its eta and etd."""
        return cls(spec.id, True, x, y, roll_in, roll_out, *delays(spec, roll_in, roll_out))


@dataclass(frozen=True)
class Solution:
    """A complete plan: one assignment per aircraft of the instance."""

    instance_label: str
    assignments: tuple[Assignment, ...]
    provenance: Provenance = Provenance.MANUAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", tuple(self.assignments))
        ids = [a.aircraft_id for a in self.assignments]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate assignments")
        # the rules that bound an instance's M_T and lengths, here for the
        # times and positions of a plan
        for a in self.assignments:
            if a.roll_in > MAX_HORIZON or a.roll_out > MAX_HORIZON:
                field = "roll_in" if a.roll_in > MAX_HORIZON else "roll_out"
                raise ValueError(f"{a.aircraft_id}: {field} {getattr(a, field)!r} h "
                                 f"exceeds {MAX_HORIZON:g} h, past which times lose "
                                 "the precision of the tolerance")
            _check_length(f"{a.aircraft_id}: ", "x", a.x)
            _check_length(f"{a.aircraft_id}: ", "y", a.y)

    @classmethod
    def compose(cls, instance: Instance, placed: Iterable[Assignment],
                provenance: Provenance) -> Solution:
        """The plan of ``instance`` that accepts the ``placed`` assignments
        and rejects every other aircraft, in ``all_aircraft()`` order."""
        by_id = {asg.aircraft_id: asg for asg in placed}
        return cls(instance.label, tuple(by_id.get(a.id) or Assignment(a.id, False)
                                         for a in instance.all_aircraft()), provenance)

    def by_id(self) -> dict[str, Assignment]:
        return {a.aircraft_id: a for a in self.assignments}


@dataclass(frozen=True)
class CostBreakdown:
    """The four objective components and their total."""

    rejection: float
    arrival_delay: float
    departure_delay: float
    positioning: float
    total: float


# ---------------------------------------------------------------------------
# Geometry / interval helpers
# ---------------------------------------------------------------------------

def x_separated(xa: float, xb: float, wb: float, buffer: float) -> bool:
    """True iff interval b (at xb, width wb) lies fully below the interval
    starting at xa with the buffer, i.e. ``xb + wb + buffer <= xa`` within
    tolerance.  Works for either axis: on the y axis it reads "a sits fully
    above b", the geometric half of the blocking rule."""
    return xb + wb + buffer <= xa + TOL


def axis_separated(xa: float, wa: float, xb: float, wb: float, buffer: float) -> bool:
    """Buffered separation on one axis, in either direction."""
    return x_separated(xa, xb, wb, buffer) or x_separated(xb, xa, wa, buffer)


def lanes_overlap(ax: float, aw: float, bx: float, bw: float, buffer: float) -> bool:
    """True iff the buffered x-extents of two aircraft are not separated in
    either direction, i.e. they share a movement lane to the open front."""
    return not axis_separated(ax, aw, bx, bw, buffer)


def intervals_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Open-interval overlap on a set of positive measure."""
    return a[0] < b[1] - TOL and b[0] < a[1] - TOL


# ---------------------------------------------------------------------------
# Solver-side placement grid and movement rules (shared by ach and exact)
# ---------------------------------------------------------------------------

def lattice_index(value: float, lo: float, step: float, n: float, strict: bool) -> int:
    """The first k in [0, n] whose cell lo + step * k is above value (strict:
    not below the next float up) or not below it.  The quotient guesses k,
    clamped to [0, n] before its int conversion (n = math.inf: no last cell);
    the cells, which do not decrease with k, are compared on both sides."""
    value = math.nextafter(value, math.inf) if strict else value
    q = (value - lo) / step
    k = 0 if q <= 0.0 else math.ceil(q if q < n else n)
    while k > 0 and lo + step * (k - 1) >= value:
        k -= 1
    while k < n and lo + step * k < value:
        k += 1
    return k


def grid_count(lo: float, hi: float, step: float) -> int:
    """Cells lo + step * k not past hi by more than GRID_TOL, counted up to one
    past MAX_GRID_CELLS, so that ``HangarConfig`` sees a count past the limit."""
    return lattice_index(hi + GRID_TOL, lo, step, MAX_GRID_CELLS + 1, strict=True)


def snap_up(value: float, lo: float, step: float) -> float:
    """The first cell lo + step * k not below value by more than GRID_TOL."""
    return lo + step * lattice_index(value - GRID_TOL, lo, step, math.inf, strict=False)


def barred(lo: float, step: float, n: int, size: float, at: float, at_size: float,
           buffer: float) -> tuple[int, int]:
    """The run ``[first, last)`` of the n cells ``lo + step * k`` where a
    ``size`` long footprint is not buffer-separated, by more than GRID_TOL,
    from an ``at_size`` long one at ``at``; empty when none is."""
    return (lattice_index(at - size - buffer + GRID_TOL, lo, step, n, strict=True),
            lattice_index(at + at_size + buffer - GRID_TOL, lo, step, n, strict=False))


def first_free_cells(rects: list[tuple[int, int, int, int]], nx: int,
                     ny: int) -> list[tuple[int, int]]:
    """For column 0 and each column where a rectangle ends, ``(row, col)`` of
    the lowest row of that column that no rectangle covers, when both are on
    the ``nx`` x ``ny`` grid.  A rectangle ``(row_lo, row_hi, col_lo,
    col_hi)`` of non-negative indices bars rows ``[row_lo, row_hi)`` of
    columns ``[col_lo, col_hi)``; an empty or inverted run bars nothing, and
    a run may pass the grid.  ``rects`` is sorted in place.

    Take a free cell (i, j), column i and row j, and let c be the largest of
    0 and the rectangles' right ends at most i.  Every rectangle that covers
    column c also covers i, so the first free row r of column c is at most
    j.  So the least ``(row, col)`` of the free cells is a candidate, the
    bottom-left rule's first fit (Chazelle, IEEE Trans. Computers C-32(8),
    1983).  On ascending axes ``xs``, ``ys`` the score ``xs[c] + ys[r]`` is at
    most that of (i, j), as float addition is monotone, so the least score is
    a candidate's too, and so is the first cell by row, then column, of
    those within a margin of it.  The cost is O(k^2) for k rectangles,
    whatever the number of cells."""
    rects.sort()
    cells = []
    for col in {0, *[rect[3] for rect in rects]}:
        if col >= nx:
            continue
        row = 0
        for row_lo, row_hi, col_lo, col_hi in rects:
            # sorted by lower row: no later rectangle covers this row either
            if row_lo > row:
                break
            if col_lo <= col < col_hi and row_hi > row:
                row = row_hi
        if row < ny:
            cells.append((row, col))
    return cells


def movement_times(spec: AircraftSpec, roll_in: float, roll_out: float) -> list[float]:
    """The movements of one stay that need eps_t separation and a clear lane:
    roll-in and roll-out, except a current aircraft's fixed roll-in."""
    return [roll_out] if spec.kind is Kind.CURRENT else [roll_in, roll_out]


def separated(t: float, events: Sequence[float], eps_t: float) -> bool:
    """True iff t keeps eps_t from every event of the sorted list; by float
    monotonicity the nearest event is one of t's two neighbours."""
    i = bisect_left(events, t)
    if i < len(events) and abs(events[i] - t) < eps_t - TOL:
        return False
    return i == 0 or abs(events[i - 1] - t) >= eps_t - TOL


def next_separated(t0: float, events: Sequence[float], eps_t: float) -> float:
    """Smallest t0 + k * eps_t (k >= 0) that keeps eps_t from every event of
    the sorted list."""
    k = 0
    while not separated(t0 + k * eps_t, events, eps_t):
        k += 1
    return t0 + k * eps_t


def delays(spec: AircraftSpec, roll_in: float, roll_out: float) -> tuple[float, float]:
    """(arrival delay, departure delay) of a stay from roll_in to roll_out."""
    return max(0.0, roll_in - spec.eta), max(0.0, roll_out - spec.etd)


def presence(spec: AircraftSpec, roll_in: float, roll_out: float) -> tuple[float, float]:
    """The window an aircraft is in the hangar: a parked one from before 0."""
    return (-math.inf if spec.kind is Kind.CURRENT else roll_in, roll_out)


def window_blocks(window: tuple[float, float], moves: Iterable[float]) -> bool:
    """True iff the presence window of an aircraft strictly contains one of the
    movements of another.  Parked above it in a shared lane, the first blocks
    the second's path to the open front at that movement."""
    for e in moves:
        if window[0] < e - TOL and e < window[1] - TOL:
            return True
    return False


# ---------------------------------------------------------------------------
# Big-M derivation and cost evaluation
# ---------------------------------------------------------------------------

def derive_big_m(instance: Instance) -> tuple[float, float, float]:
    """(M_T, M_X, M_Y), the constants that relax the MILP's disjunctive rows:

    - M_T = max eta + sum over all aircraft of (service + 2 eps_t) + eps_t;
    - M_X = max(hw, max width + buffer);
    - M_Y = max(hl, max length + buffer).

    They keep every plan of ``ach`` and of the oracle in the row system.  A
    rejected aircraft has all its variables at 0.  Every row relaxed by M_T
    then holds when each movement plus eps_t is at most M_T.  Every row
    relaxed by M_X needs M_X >= hw, and M_X >= width + buffer of a rejected
    aircraft, whose X is 0; M_Y likewise.

    Both solvers commit the aircraft in order: the parked ones first, then
    ``ach``'s priority order or the oracle's branching order.  Let T be the
    latest movement of the aircraft committed before one aircraft (0 before
    the first).  Past T the hangar is empty.  So at the first lattice or event
    roll-in past T + eps_t, at most max(eta, T + 2 eps_t), the aircraft
    fits if it fits at all, and its roll-out walk meets no event.  An earlier
    fit walks its roll-out at most to T + 2 eps_t.  So its roll-out is at most
    max(eta, T + 2 eps_t) + service <= max eta + T + 2 eps_t + service, and by
    induction every movement is at most M_T - eps_t.
    """
    h = instance.hangar
    aircraft = instance.all_aircraft()
    max_eta = max((f.eta for f in instance.future), default=0.0)
    m_t = max_eta + sum(a.service + 2.0 * h.eps_t for a in aircraft) + h.eps_t
    m_x = max([h.hw] + [a.width + h.buffer for a in aircraft])
    m_y = max([h.hl] + [a.length + h.buffer for a in aircraft])
    return m_t, m_x, m_y


def evaluate_cost(instance: Instance, solution: Solution) -> CostBreakdown:
    """Total operational cost of a solution.

    Delays are recomputed from roll-in/out versus ETA/ETD, never read from the
    assignment, so the cost is well defined for imported or hand-built plans.
    Rejected aircraft contribute only their rejection penalty.
    """
    by_id = solution.by_id()
    for a in instance.all_aircraft():
        if a.id not in by_id:
            raise MissingAssignment(a.id)

    rejection = 0.0
    arrival = 0.0
    departure = 0.0
    positioning = 0.0
    eps_p = instance.hangar.eps_p

    for a in instance.all_aircraft():
        asg = by_id[a.id]
        if asg.accept:
            d_arr, d_dep = delays(a, asg.roll_in, asg.roll_out)
            departure += a.p_dep * d_dep
            if a.kind is Kind.FUTURE:
                arrival += a.p_arr * d_arr
                positioning += eps_p * (asg.x + asg.y)
        elif a.kind is Kind.FUTURE:
            rejection += a.p_rej

    total = rejection + arrival + departure + positioning
    return CostBreakdown(rejection, arrival, departure, positioning, total)
