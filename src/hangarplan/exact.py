"""Desk-scale exact oracle.

Depth-first branch and bound over acceptance subsets, event-driven roll-in
candidates, and grid placements, certifying the optimum relative to that
discretization.  The placement grid is ``core``'s, the one ``ach`` scans.
Placements are optimized for every accepted prefix (each accept branch) by a
second depth-first search over the pairwise separation disjunctions.  Each
choice is a monotone constraint on one axis (a lower bound, a cap, or a
difference edge); adding it raises the parent's least fixpoint (snapped up to
the grid by ``core.snap_up``) by worklist propagation.  A branch is cut once a
position passes its wall or cap, or once its coordinate sum exceeds the best
layout found so far.  The prefix's minimal layout is carried down its subtree:
a completion only adds separation pairs, so a prefix with no layout is cut and
its coordinate sum bounds every completion's, and a complete schedule reuses
the layout of its last accepted prefix.  So are the prefix's separation
options: an accept branch builds only the pairs of its new aircraft
(``_pair_options``) and merges them with its parent's by key, which keeps the
search order, and so the node count, of options built all at once.  An option
indexes a flat position list per aircraft (x of free aircraft i at 2i, y at
2i + 1), so it does not depend on the prefix length.  The prefix's walls
(each aircraft's largest grid x and y) are carried down the same way, each
aircraft's computed once when it is branched on.  An aircraft with no grid
cell is never branched on as accepted, only as rejected.  Both searches
share one node budget.
They are module-level recursive functions over explicit arguments and one
``_Search`` record, so a call leaves no cyclic garbage.  The record keeps the
incumbent as the search builds it, its cost, accepted schedule and layout;
the plan is composed, validated and costed once, when the search ends.  An
equal-cost leaf replaces the incumbent only if its ``_vector`` is smaller.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from . import ach, validator
from .core import (
    GRID_TOL,
    TOL,
    AircraftSpec,
    Assignment,
    CostBreakdown,
    HangarConfig,
    Instance,
    Provenance,
    Solution,
    delays,
    intervals_overlap,
    movement_times,
    next_separated,
    presence,
    separated,
    snap_up,
    window_blocks,
)
from .io import ParseError


class InstanceTooLarge(ParseError):
    """The instance exceeds the documented desk-scale bound, which
    ``solve-exact --allow-large`` lifts; an input error, so the CLI exits 3."""


class OracleStatus(str, Enum):
    PROVEN_OPTIMAL_ON_GRID = "ProvenOptimalOnGrid"
    BUDGET_EXHAUSTED = "BudgetExhausted"


@dataclass(frozen=True)
class OracleConfig:
    node_budget: int = 2_000_000
    time_budget: float = 300.0
    allow_large: bool = False

    def __post_init__(self) -> None:
        if self.node_budget <= 0 or not self.time_budget > 0:
            raise ValueError("budgets must be positive, got node_budget "
                             f"{self.node_budget}, time_budget {self.time_budget}")


@dataclass
class OracleResult:
    solution: Solution
    cost: CostBreakdown
    status: OracleStatus
    nodes_explored: int


MAX_FUTURE = 4


class _Budget:
    def __init__(self, config: OracleConfig):
        self.node_budget = config.node_budget
        self.deadline = time.monotonic() + config.time_budget
        self.nodes = 0
        self.exhausted = False

    def tick(self) -> bool:
        self.nodes += 1
        if self.nodes > self.node_budget or time.monotonic() > self.deadline:
            self.exhausted = True
        return self.exhausted


def _min_positioning(instance: Instance,
                     free: Sequence[tuple[AircraftSpec, float, float]],
                     options: list, walls: list[float], budget: _Budget):
    """Minimal sum-of-coordinates grid layout for the accepted future aircraft
    of a schedule prefix, or None if spatially infeasible.

    ``free``: (spec, roll_in, roll_out) triples.  ``options``: the prefix's
    keyed separation options, ``_pair_options(h, free, fixed, 0)`` or the
    parent prefix's merged with those of its new aircraft.  ``walls``: the
    prefix's position limits, indexed as the options index positions (x of
    free aircraft i at 2i, y at 2i + 1): hw - buffer - width and
    hl - buffer - length.  ``_branch`` carries them down with the options.
    Every aircraft of ``free`` must have a grid cell (buffer at most its
    walls, within GRID_TOL): the branch and bound never accepts one that has
    none.  Returns (positioning_sum, {id: (x, y)}); ties in the sum go to the
    smaller layout tuple.

    Depth-first over the co-present pairs, one separation option per level.
    Positions are the least fixpoint of the chosen constraints and only grow
    down a branch, so a branch is cut when a position passes its wall or cap
    or when its sum exceeds the best total found so far.  Each closed branch,
    a complete layout or a cut, is one node of ``budget``, so the count never
    exceeds the number of option combinations.
    """
    h = instance.hangar
    if not free:
        return 0.0, {}
    succ: list[list[tuple[int, float]]] = [[] for _ in walls]
    best = _layout_search(h, options, succ, budget, 0, [h.buffer] * len(walls), walls, None)
    if best is None:
        return None
    return best[0], {spec.id: xy for (spec, _, _), xy in zip(free, best[1])}


def _pair_options(h: HangarConfig, free: Sequence[tuple[AircraftSpec, float, float]],
                  fixed: Sequence[tuple[AircraftSpec, Assignment]], first: int) -> list:
    """The separation options of the co-present pairs whose later free aircraft
    is free[j] for some j >= first, keyed (i, 0, j) for free aircraft i < j and
    (j, 1, k) for parked aircraft k, in key order: the search order.

    An option is one constraint (v, u, value, cap) on the flat position list,
    x of free aircraft i at index 2i and y at 2i + 1.  With u None it is
    pos[v] >= value and pos[v] <= cap; otherwise the difference edge
    pos[v] >= snap(pos[u] + value).  A pair's options are: each of the two
    right of the other (buffered), then each above the other, which the upper
    one may only be if the lower one never moves while it is present: never
    a request below a parked aircraft, whose stay starts before 0
    (``core.presence``) and so holds the roll-in of every co-present request.
    """
    keyed = []
    for j in range(first, len(free)):
        b, b_in, b_out = free[j]
        b_stay = (b_in, b_out)
        b_moves = movement_times(b, b_in, b_out)
        for i in range(j):
            a, a_in, a_out = free[i]
            if not intervals_overlap((a_in, a_out), b_stay):
                continue
            opts = [(2 * i, 2 * j, b.width + h.buffer, math.inf),
                    (2 * j, 2 * i, a.width + h.buffer, math.inf)]
            if not window_blocks((a_in, a_out), b_moves):
                opts.append((2 * i + 1, 2 * j + 1, b.length + h.buffer, math.inf))
            if not window_blocks(b_stay, movement_times(a, a_in, a_out)):
                opts.append((2 * j + 1, 2 * i + 1, a.length + h.buffer, math.inf))
            keyed.append(((i, 0, j), opts))
        for k, (c, asg) in enumerate(fixed):
            c_stay = presence(c, asg.roll_in, asg.roll_out)
            if not intervals_overlap(b_stay, c_stay):
                continue
            # right of or above the parked aircraft is a lower bound, left of it a cap
            opts = [(2 * j, None, snap_up(asg.x + c.width + h.buffer, h.buffer, h.grid_step),
                     math.inf),
                    (2 * j, None, h.buffer, asg.x - b.width - h.buffer)]
            if not window_blocks(b_stay, movement_times(c, asg.roll_in, asg.roll_out)):
                opts.append((2 * j + 1, None,
                             snap_up(asg.y + c.length + h.buffer, h.buffer, h.grid_step),
                             math.inf))
            keyed.append(((j, 1, k), opts))
    keyed.sort()  # the keys are unique, so no two option lists are compared
    return keyed


def _total(pos: list[float]) -> float:
    # x_i + y_i per aircraft in aircraft order: sum(pos) rounds differently
    return sum(pos[i] + pos[i + 1] for i in range(0, len(pos), 2))


def _settle(h: HangarConfig, succ: list[list[tuple[int, float]]], pos: list[float],
            limit: list[float], v: int, value: float) -> bool:
    """Raise pos[v] to value and propagate along the edges ``succ``; positions only grow, so
    passing a wall or cap (a positive cycle ends up passing a wall) fails the branch."""
    work = [(v, value)]
    while work:
        v, value = work.pop()
        if value > pos[v]:
            pos[v] = value
            for w, gap in succ[v]:
                work.append((w, snap_up(value + gap, h.buffer, h.grid_step)))
        if pos[v] > limit[v] + GRID_TOL:
            return False
    return True


def _layout_search(h: HangarConfig, options: list, succ: list[list[tuple[int, float]]],
                   budget: _Budget, k: int, pos: list[float], limit: list[float], best):
    """The better of ``best`` (a (total, layout) pair or None) and the best layout below
    level ``k`` of ``options``; edges go onto ``succ`` down a branch, off on the way back."""
    if k == len(options):
        if budget.tick():
            return best
        cand = (_total(pos), tuple(zip(pos[::2], pos[1::2])))
        return cand if best is None or cand < best else best
    for v, u, value, cap in options[k][1]:
        if budget.exhausted:
            return best
        child, child_limit = pos[:], limit[:]
        if u is not None:
            succ[u].append((v, value))
            value = snap_up(child[u] + value, h.buffer, h.grid_step)
        child_limit[v] = min(child_limit[v], cap)
        # the partial sum only grows; ties stay for the layout tie-break
        if (_settle(h, succ, child, child_limit, v, value)
                and (best is None or _total(child) <= best[0])):
            best = _layout_search(h, options, succ, budget, k + 1, child, child_limit, best)
        else:
            budget.tick()
        if u is not None:
            succ[u].pop()
    return best


def _time_candidates(spec: AircraftSpec, events: list[float], eps_t: float,
                     t_max: float) -> list[float]:
    """Separated roll-ins in [eta, t_max]: eta, and eps_t after each event."""
    cands = [spec.eta] + [e + eps_t for e in events if e + eps_t > spec.eta - TOL]
    return [t for t in sorted(set(cands))
            if t <= t_max + TOL and separated(t, events, eps_t)]


@dataclass
class _Search:
    """The branch and bound's fixed inputs and its incumbent, kept as the
    search builds it: its cost, its accepted schedule and its layout."""
    instance: Instance
    budget: _Budget
    fixed_current: list[tuple[AircraftSpec, Assignment]]
    order: list[AircraftSpec]
    cost: float
    free: list[tuple[AircraftSpec, float, float]]
    layout: dict[str, tuple[float, float]]


def solve_exact(instance: Instance, config: Optional[OracleConfig] = None) -> OracleResult:
    """The search's best plan.  ``ProvenOptimalOnGrid`` certifies it over the
    grid and the oracle's own roll-in candidates (``_time_candidates``), not
    over every feasible plan.  The search decides the requests in
    ``prioritize``'s order, and offers each one its eta and eps_t after each
    movement of the aircraft decided before it.  So it never yields a plan in
    which a request waits for a request later in that order to leave, nor one
    with any other lattice roll-in eta + k * eps_t, and ``ach`` can beat it:
    ``tests/test_exact.py::missed_roll_in_instance`` is such a lattice
    roll-in, and ``test_oracle_never_worse_than_heuristic_in_another_order``
    such a wait."""
    config = config or OracleConfig()
    if len(instance.future) > MAX_FUTURE and not config.allow_large:
        raise InstanceTooLarge(
            f"{len(instance.future)} future aircraft (documented bound {MAX_FUTURE}); "
            "solve-exact --allow-large lifts the bound")

    fixed_current = ach._commit_current(instance)
    current_cost = sum(a.p_dep * asg.d_dep for (a, asg) in fixed_current)
    order = ach.prioritize(instance)
    # Fallback incumbent: keep the current aircraft, reject everything else,
    # at the total the search reaches on that leaf.
    search = _Search(instance, _Budget(config), fixed_current, order,
                     sum((spec.p_rej for spec in order), current_cost), [], {})
    _branch(search, 0, [], [], [], ach._events(fixed_current), current_cost, (0.0, {}))

    solution = Solution.compose(
        instance,
        [asg for _, asg in fixed_current]
        + [Assignment.placed(spec, *search.layout[spec.id], t_in, t_out)
           for spec, t_in, t_out in search.free],
        Provenance.ORACLE)
    report = validator.validate(instance, solution)
    if not report.feasible:  # pragma: no cover - search soundness guard
        raise AssertionError("oracle produced infeasible candidate:\n"
                             + validator.explain(report))
    status = (OracleStatus.BUDGET_EXHAUSTED if search.budget.exhausted
              else OracleStatus.PROVEN_OPTIMAL_ON_GRID)
    return OracleResult(solution, report.cost, status, search.budget.nodes)


def _leaf(search: _Search, free: list[tuple[AircraftSpec, float, float]],
          committed_cost: float, res: tuple[float, dict[str, tuple[float, float]]]) -> None:
    total = committed_cost + search.instance.hangar.eps_p * res[0]
    if (total < search.cost - 1e-9
            or (abs(total - search.cost) <= 1e-9
                and _vector(search.instance, free, res[1])
                < _vector(search.instance, search.free, search.layout))):
        search.cost, search.free, search.layout = total, free, res[1]


def _branch(search: _Search, idx: int, free: list[tuple[AircraftSpec, float, float]],
            options: list, walls: list[float], events: list[float], committed_cost: float,
            res: tuple[float, dict[str, tuple[float, float]]]) -> None:
    # ``free`` is the accepted prefix, in priority order, ``options`` its
    # keyed separation options, ``walls`` its position limits and ``res`` its
    # minimal layout: every completion keeps these separation pairs and adds
    # its own, so res[0] bounds the positioning sum of the subtree.
    h, budget = search.instance.hangar, search.budget
    if budget.tick() or committed_cost + h.eps_p * res[0] > search.cost + TOL:
        return
    if idx == len(search.order):
        _leaf(search, free, committed_cost, res)
        return
    spec = search.order[idx]
    x_wall, y_wall = h.hw - h.buffer - spec.width, h.hl - h.buffer - spec.length
    if h.buffer <= min(x_wall, y_wall) + GRID_TOL:  # else no grid cell: only rejected
        accepted_walls = walls + [x_wall, y_wall]
        t_max = ach.max_admissible_time(spec)
        for t in _time_candidates(spec, events, h.eps_t, t_max):
            t_out = next_separated(t + spec.service, events, h.eps_t)
            d_arr, d_dep = delays(spec, t, t_out)
            cost = committed_cost + spec.p_arr * d_arr + spec.p_dep * d_dep
            if cost + h.eps_p * res[0] > search.cost + TOL:
                continue  # the parent's layout already bounds this child out
            accepted = free + [(spec, t, t_out)]
            pairs = sorted(options + _pair_options(h, accepted, search.fixed_current, len(free)))
            child = _min_positioning(search.instance, accepted, pairs, accepted_walls, budget)
            if child is not None:  # no layout for the prefix, none for any completion
                _branch(search, idx + 1, accepted, pairs, accepted_walls,
                        sorted(events + [t, t_out]), cost, child)
            if budget.exhausted:
                return
    _branch(search, idx + 1, free, options, walls, events, committed_cost + spec.p_rej, res)


def _vector(instance: Instance, free: Sequence[tuple[AircraftSpec, float, float]],
            layout: dict[str, tuple[float, float]]) -> tuple:
    """The equal-cost tie-break key of the plan ``solve_exact`` composes from
    ``free`` and ``layout``: (0|1, x, y, roll_in, roll_out) per future aircraft
    in instance order, as its assignments read.  The current aircraft would
    lead every plan's key with the same entries, so they are left out."""
    placed = {spec.id: (0, *layout[spec.id], t_in, t_out) for spec, t_in, t_out in free}
    return tuple(placed.get(f.id, (1, 0.0, 0.0, 0.0, 0.0)) for f in instance.future)
