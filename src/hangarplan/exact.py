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
the layout of its last accepted prefix.  Both searches share one node budget.
They are module-level recursive functions over explicit arguments and one
``_Search`` record, so a call leaves no cyclic garbage.
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
    evaluate_cost,
    intervals_overlap,
    movement_times,
    next_separated,
    separated,
    snap_up,
    window_blocks,
)
from .io import ParseError


class InstanceTooLarge(ParseError):
    """The instance exceeds the documented desk-scale bound (override with
    ``allow_large=True``); an input error, so the CLI exits 3."""


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

# Pairwise separation options: (kind, first, second); a_right_b means the
# first aircraft sits fully right of the second (buffered), a_above_b likewise
# in y.
_RIGHT = "right"
_ABOVE = "above"


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
                     fixed: Sequence[tuple[AircraftSpec, Assignment]],
                     budget: _Budget):
    """Minimal sum-of-coordinates grid layout for the accepted future aircraft
    of a schedule prefix, or None if spatially infeasible.

    ``free``: (spec, roll_in, roll_out) triples.  ``fixed``: committed current
    aircraft.  Returns (positioning_sum, {id: (x, y)}); ties in the sum go to
    the smaller layout tuple.

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
    walls = ([h.hw - h.buffer - spec.width for spec, _, _ in free]
             + [h.hl - h.buffer - spec.length for spec, _, _ in free])
    if any(h.buffer > wall + GRID_TOL for wall in walls):
        return None  # an aircraft with no grid cell

    entities = [(spec, t_in, t_out, None) for spec, t_in, t_out in free] + \
               [(spec, asg.roll_in, asg.roll_out, (asg.x, asg.y)) for spec, asg in fixed]

    # Pairs needing a separation choice: co-present with at least one free.
    # Upper i blocks lower j's path: i above j only if j never moves while i is present.
    n_free = len(free)
    options = []
    for i in range(len(entities)):
        for j in range(i + 1, len(entities)):
            if ((entities[i][3] is not None and entities[j][3] is not None)
                    or not intervals_overlap(entities[i][1:3], entities[j][1:3])):
                continue
            opts = [(_RIGHT, i, j), (_RIGHT, j, i)]
            if not window_blocks(entities[i][1:3], movement_times(*entities[j][:3])):
                opts.append((_ABOVE, i, j))
            if not window_blocks(entities[j][1:3], movement_times(*entities[i][:3])):
                opts.append((_ABOVE, j, i))
            options.append([_compile_option(h, entities, n_free, *o) for o in opts])

    succ: list[list[tuple[int, float]]] = [[] for _ in walls]
    best = _layout_search(h, options, succ, budget, 0, [h.buffer] * len(walls), walls, None)
    if best is None:
        return None
    return best[0], {free[i][0].id: best[1][i] for i in range(n_free)}


def _compile_option(h: HangarConfig, entities: list, n_free: int,
                    kind: str, hi: int, lo: int) -> tuple[int, Optional[int], float, float]:
    """One constraint (v, u, value, cap) on the flat position list: x of free aircraft
    i at index i, y at n_free + i.  With u None it is pos[v] >= value and pos[v] <=
    cap; otherwise the difference edge pos[v] >= snap(pos[u] + value)."""
    axis = 0 if kind == _RIGHT else 1
    off = axis * n_free
    size = entities[lo][0].width if axis == 0 else entities[lo][0].length
    gap = size + h.buffer
    hi_fixed, lo_fixed = entities[hi][3], entities[lo][3]
    if lo_fixed is not None:
        return off + hi, None, snap_up(lo_fixed[axis] + gap, h.buffer, h.grid_step), math.inf
    if hi_fixed is not None:
        # the free aircraft must stay below/left of the fixed one
        return off + lo, None, h.buffer, hi_fixed[axis] - size - h.buffer
    return off + hi, off + lo, gap, math.inf


def _total(pos: list[float]) -> float:
    # x_i + y_i per aircraft in aircraft order: sum(pos) rounds differently
    n = len(pos) // 2
    return sum(pos[i] + pos[n + i] for i in range(n))


def _settle(h: HangarConfig, succ: list[list[tuple[int, float]]], pos: list[float],
            limit: list[float], v: int, value: float) -> bool:
    """Raise pos[v] to value and propagate along the edges ``succ``; positions only grow, so
    passing a wall or cap (a positive cycle ends up passing a wall) fails the branch."""
    work = [(v, value)]
    while work:
        v, value = work.pop()
        if value > pos[v]:
            pos[v] = value
            work.extend((w, snap_up(value + gap, h.buffer, h.grid_step)) for w, gap in succ[v])
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
        n_free = len(pos) // 2
        cand = (_total(pos), tuple(zip(pos[:n_free], pos[n_free:])))
        return cand if best is None or cand < best else best
    for v, u, value, cap in options[k]:
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
    """The branch and bound's fixed inputs and its incumbent."""
    instance: Instance
    budget: _Budget
    fixed_current: list[tuple[AircraftSpec, Assignment]]
    order: list[AircraftSpec]
    cost: float
    vector: tuple
    solution: Solution


def solve_exact(instance: Instance, config: Optional[OracleConfig] = None) -> OracleResult:
    config = config or OracleConfig()
    if len(instance.future) > MAX_FUTURE and not config.allow_large:
        raise InstanceTooLarge(
            f"{len(instance.future)} future aircraft (documented bound {MAX_FUTURE}); "
            "pass allow_large=True to override")

    fixed_current = ach._commit_current(instance)
    current_cost = sum(a.p_dep * asg.d_dep for (a, asg) in fixed_current)
    # Fallback incumbent: keep the current aircraft, reject everything else.
    all_reject = _compose(instance, fixed_current, [], {})
    search = _Search(instance, _Budget(config), fixed_current,
                     ach.prioritize(instance), evaluate_cost(instance, all_reject).total,
                     _vector(all_reject), all_reject)
    _branch(search, 0, [], ach._events(fixed_current), current_cost, (0.0, {}))

    status = (OracleStatus.BUDGET_EXHAUSTED if search.budget.exhausted
              else OracleStatus.PROVEN_OPTIMAL_ON_GRID)
    return OracleResult(search.solution, evaluate_cost(instance, search.solution), status,
                        search.budget.nodes)


def _leaf(search: _Search, free: list[tuple[AircraftSpec, float, float]],
          committed_cost: float, res: tuple[float, dict[str, tuple[float, float]]]) -> None:
    total = committed_cost + search.instance.hangar.eps_p * res[0]
    solution = _compose(search.instance, search.fixed_current, free, res[1])
    vec = _vector(solution)
    if (total < search.cost - 1e-9
            or (abs(total - search.cost) <= 1e-9 and vec < search.vector)):
        report = validator.validate(search.instance, solution)
        if not report.feasible:  # pragma: no cover - search soundness guard
            raise AssertionError("oracle produced infeasible candidate:\n"
                                 + validator.explain(report))
        search.cost, search.vector, search.solution = total, vec, solution


def _branch(search: _Search, idx: int, free: list[tuple[AircraftSpec, float, float]],
            events: list[float], committed_cost: float,
            res: tuple[float, dict[str, tuple[float, float]]]) -> None:
    # ``free`` is the accepted prefix, in priority order, and ``res`` its
    # minimal layout: every completion keeps these separation pairs and
    # adds its own, so res[0] bounds the positioning sum of the subtree.
    h, budget = search.instance.hangar, search.budget
    if budget.tick() or committed_cost + h.eps_p * res[0] > search.cost + TOL:
        return
    if idx == len(search.order):
        _leaf(search, free, committed_cost, res)
        return
    spec = search.order[idx]
    t_max = ach.max_admissible_time(spec)
    for t in _time_candidates(spec, events, h.eps_t, t_max):
        t_out = next_separated(t + spec.service, events, h.eps_t)
        d_arr, d_dep = delays(spec, t, t_out)
        cost = committed_cost + spec.p_arr * d_arr + spec.p_dep * d_dep
        if cost + h.eps_p * res[0] > search.cost + TOL:
            continue  # the parent's layout already bounds this child out
        accepted = free + [(spec, t, t_out)]
        child = _min_positioning(search.instance, accepted, search.fixed_current, budget)
        if child is not None:  # no layout for the prefix, none for any completion
            _branch(search, idx + 1, accepted, sorted(events + [t, t_out]), cost, child)
        if budget.exhausted:
            return
    _branch(search, idx + 1, free, events, committed_cost + spec.p_rej, res)


def _compose(instance: Instance,
             fixed_current: Sequence[tuple[AircraftSpec, Assignment]],
             free: Sequence[tuple[AircraftSpec, float, float]],
             layout: dict[str, tuple[float, float]]) -> Solution:
    assignments = {asg.aircraft_id: asg for _, asg in fixed_current}
    for f in instance.future:
        assignments[f.id] = Assignment(aircraft_id=f.id, accept=False)
    for spec, t_in, t_out in free:
        assignments[spec.id] = Assignment.placed(spec, *layout[spec.id], t_in, t_out)
    ordered = tuple(assignments[a.id] for a in instance.all_aircraft())
    return Solution(instance_label=instance.label, assignments=ordered,
                    provenance=Provenance.ORACLE)


def _vector(solution: Solution):
    # _compose lists the assignments in the instance's aircraft order
    return tuple((0 if a.accept else 1, a.x, a.y, a.roll_in, a.roll_out)
                 for a in solution.assignments)
