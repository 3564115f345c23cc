"""Constructive heuristic: prioritization, placement scan, time search,
and feasibility of its output."""

import itertools
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hangarplan import ach, instgen, io, milp, validator
from hangarplan.core import (
    TOL,
    Assignment,
    HangarConfig,
    Instance,
    Kind,
    Provenance,
    Solution,
    axis_separated,
    evaluate_cost,
    grid,
    lanes_overlap,
    next_separated,
    x_separated,
)
from hangarplan.validator import ViolationKind

from conftest import (accept, edge_instances, make_current, make_future, make_instance, specs,
                      time_limit)


class TestPrioritize:
    def test_rejection_penalty_dominates(self):
        inst = make_instance(future=[
            make_future("a", p_rej=700.0, eta=0.0),
            make_future("b", p_rej=900.0, eta=50.0)])
        assert [f.id for f in ach.prioritize(inst)] == ["b", "a"]

    def test_eta_breaks_penalty_ties(self):
        inst = make_instance(future=[
            make_future("a", p_rej=800.0, eta=50.0),
            make_future("b", p_rej=800.0, eta=10.0)])
        assert [f.id for f in ach.prioritize(inst)] == ["b", "a"]

    def test_service_then_id_break_remaining_ties(self):
        inst = make_instance(future=[
            make_future("b", p_rej=800.0, eta=0.0, service=100.0),
            make_future("a", p_rej=800.0, eta=0.0, service=100.0),
            make_future("c", p_rej=800.0, eta=0.0, service=90.0)])
        assert [f.id for f in ach.prioritize(inst)] == ["c", "a", "b"]


class TestMaxAdmissibleTime:
    def test_break_even_formula(self):
        f = make_future("a", eta=20.0, p_rej=800.0, p_arr=10.0)
        assert ach.max_admissible_time(f) == pytest.approx(100.0)

    def test_zero_arrival_penalty_means_unbounded(self):
        f = make_future("a", p_arr=0.0)
        assert math.isinf(ach.max_admissible_time(f))


class TestResolveRollOut:
    def test_unconstrained(self):
        f = make_future("a", service=100.0)
        assert ach.resolve_roll_out(f, 10.0, []) == pytest.approx(110.0)

    def test_shifts_off_existing_event(self):
        f = make_future("a", service=100.0)
        blocker = make_future("b", service=110.0)
        fixed = [(blocker, accept("b", 40.0, 5.0, 0.0, 110.0))]
        # plain roll-out would land exactly on b's event; one slot later
        assert ach.resolve_roll_out(f, 10.0, fixed) == pytest.approx(110.1)

    def test_multiple_shifts(self):
        f = make_future("a", service=100.0)
        fixed = [(make_future("b", service=110.0), accept("b", 40.0, 5.0, 0.0, 110.0)),
                 (make_future("c", service=110.1), accept("c", 40.0, 33.0, 0.0, 110.1))]
        assert ach.resolve_roll_out(f, 10.0, fixed) == pytest.approx(110.2)


#: Violations of the candidate's movement times alone, the same at every cell.
TIME_ONLY = {ViolationKind.EARLY_ROLL_IN, ViolationKind.SERVICE_TOO_SHORT,
             ViolationKind.NEGATIVE_TIME, ViolationKind.MOVEMENT_TOO_CLOSE}


def spot_checker(aircraft, t_in, fixed, instance):
    """Reference spot check through the validator: a function of (x, y) that
    places the candidate there from t_in to the heuristic's roll-out next to
    the committed aircraft, and looks only at violations that name it.  The
    committed plan itself need not be feasible.

    Each rule of the validator that can name the candidate looks at the
    candidate alone (bounds, schedule) or at the candidate and one other
    aircraft (overlap, blocking, movement separation: when a candidate's
    movement is too close to another, so is its neighbour in time, which is
    no farther).  So the candidate is validated next to one committed aircraft
    at a time, first next to the one that last rejected a cell.  A violation
    of its movement times rejects every cell at once."""
    t_out = ach.resolve_roll_out(aircraft, t_in, fixed, instance.hangar.eps_t)

    def pair(others):
        specs = [spec for spec, _ in others] + [aircraft]
        sub = Instance(hangar=instance.hangar,
                       current=[s for s in specs if s.kind is Kind.CURRENT],
                       future=[s for s in specs if s.kind is Kind.FUTURE])
        return sub, tuple(asg for _, asg in others)
    pairs = [pair([b]) for b in fixed] or [pair([])]
    mistimed = []

    def is_valid(x, y):
        if mistimed:
            return False
        candidate = Assignment(aircraft.id, True, x=x, y=y, roll_in=t_in, roll_out=t_out)
        for i, (sub, committed) in enumerate(pairs):
            report = validator.validate(sub, Solution("spot", committed + (candidate,)))
            kinds = {v.kind for v in report.violations if aircraft.id in v.aircraft}
            if kinds:
                mistimed.extend(kinds & TIME_ONLY)
                pairs.insert(0, pairs.pop(i))
                return False
        return True
    return is_valid


def is_valid_spot(aircraft, x, y, t_in, fixed, instance):
    return spot_checker(aircraft, t_in, fixed, instance)(x, y)


def brute_force_placement(aircraft, t_in, fixed, instance):
    """(x, y) of the grid cell with minimal x + y (then y, then x) that passes
    the validator's spot check, or None."""
    h = instance.hangar
    is_valid = spot_checker(aircraft, t_in, fixed, instance)
    cells = []
    i = 0
    while h.buffer + i * h.grid_step + aircraft.width <= h.hw - h.buffer + 1e-9:
        x = h.buffer + i * h.grid_step
        j = 0
        while h.buffer + j * h.grid_step + aircraft.length <= h.hl - h.buffer + 1e-9:
            y = h.buffer + j * h.grid_step
            cells.append((x + y, y, x))
            j += 1
        i += 1
    return next(((x, y) for _, y, x in sorted(cells) if is_valid(x, y)), None)


class TestValidSpot:
    def setup_method(self):
        self.inst = make_instance(
            future=[make_future("a"), make_future("b")])
        self.f = specs(self.inst)["a"]

    def test_in_bounds_empty_hangar(self):
        assert is_valid_spot(self.f, 5.0, 5.0, 0.0, [], self.inst)

    def test_wall_buffer_enforced(self):
        assert not is_valid_spot(self.f, 4.0, 5.0, 0.0, [], self.inst)
        assert not is_valid_spot(self.f, 5.0, 40.0, 0.0, [], self.inst)

    def test_copresent_overlap_rejected(self):
        fixed = [(specs(self.inst)["b"],
                  accept("b", 5.0, 5.0, 0.0, 100.0))]
        assert not is_valid_spot(self.f, 10.0, 5.0, 0.2, fixed, self.inst)
        assert is_valid_spot(self.f, 34.0, 5.0, 0.2, fixed, self.inst)

    def test_exit_blocking_checked_for_candidate(self):
        # b below leaves at 100 while the candidate (above) would stay past it
        fixed = [(specs(self.inst)["b"], accept("b", 5.0, 5.0, 0.2, 100.0))]
        assert not is_valid_spot(self.f, 5.0, 32.0, 0.0, fixed, self.inst)

    def test_blocking_checked_against_candidate(self):
        # candidate below a longer-staying aircraft would trap itself
        fixed = [(specs(self.inst)["b"], accept("b", 5.0, 32.0, 0.0, 200.0))]
        assert not is_valid_spot(self.f, 5.0, 5.0, 0.2, fixed, self.inst)

    def test_separation_of_roll_in_times(self):
        fixed = [(specs(self.inst)["b"], accept("b", 36.0, 5.0, 0.0, 100.0))]
        assert not is_valid_spot(self.f, 5.0, 5.0, 0.05, fixed, self.inst)
        assert is_valid_spot(self.f, 5.0, 5.0, 0.1, fixed, self.inst)


def place(aircraft, t_in, fixed, instance):
    """The grid scan at one roll-in, on a scan prepared for it alone."""
    return ach.find_best_placement(aircraft, t_in, ach.prepare_scan(aircraft, fixed, instance))


class TestFindBestPlacement:
    def test_origin_corner_when_empty(self):
        inst = make_instance(future=[make_future("a")])
        cand = place(specs(inst)["a"], 0.0, [], inst)
        assert (cand.x, cand.y) == (5.0, 5.0)
        assert cand.roll_out == pytest.approx(100.0)

    def test_matches_scalar_reference(self):
        # the rectangle scan must agree with the scalar spot check on every cell
        inst = make_instance(
            future=[make_future("a"), make_future("b"), make_future("x", width=26.0, length=24.0)])
        fixed = [
            (specs(inst)["b"], accept("b", 5.0, 5.0, 0.0, 150.0)),
            (specs(inst)["x"], accept("x", 36.0, 33.0, 0.3, 90.0)),
        ]
        f = specs(inst)["a"]
        t_in = 0.6
        cand = place(f, t_in, fixed, inst)
        best = brute_force_placement(f, t_in, fixed, inst)
        assert best is not None and cand is not None
        assert (cand.x, cand.y) == best

    @pytest.mark.parametrize("b_y,b_in,b_out,t_in", [
        (32.0, 0.0, 200.0, 0.2),   # b parked above would block a's exit
        (5.0, 0.2, 100.0, 0.0),    # a parked above would block b's exit
    ], ids=["under-parked", "over-leaving"])
    def test_blocking_masks_match_brute_force(self, b_y, b_in, b_out, t_in):
        inst = make_instance(future=[make_future("a"), make_future("b")])
        fixed = [(specs(inst)["b"], accept("b", 5.0, b_y, b_in, b_out))]
        f = specs(inst)["a"]
        cand = place(f, t_in, fixed, inst)
        assert (cand.x, cand.y) == brute_force_placement(f, t_in, fixed, inst) == (34.0, 5.0)

    def test_tie_breaks_prefer_smaller_y(self):
        inst = make_instance(future=[make_future("a")])
        cand = place(specs(inst)["a"], 0.0, [], inst)
        # (5, 5) beats any other x+y=10 cell by the y-then-x rule
        assert (cand.x, cand.y) == (5.0, 5.0)

    def test_none_when_hangar_occupied(self):
        inst = make_instance(future=[make_future("a"),
                                     make_future("big", width=45.0, length=48.0)])
        fixed = [(specs(inst)["big"], accept("big", 5.0, 5.0, 0.0, 300.0))]
        assert place(specs(inst)["a"], 0.2, fixed, inst) is None


class TestCommitCurrent:
    def test_departure_order_top_first(self):
        # two stacked current aircraft: the upper must leave before the lower
        lower = make_current("lo", x=5.0, y=5.0, service=200.0)
        upper = make_current("up", x=5.0, y=32.0, service=100.0)
        inst = make_instance(current=[lower, upper])
        fixed = dict((s.id, a) for s, a in ach._commit_current(inst))
        assert fixed["up"].roll_out == pytest.approx(100.0)
        assert fixed["lo"].roll_out == pytest.approx(200.0)

    def test_lower_waits_for_upper(self):
        lower = make_current("lo", x=5.0, y=5.0, service=100.0)
        upper = make_current("up", x=5.0, y=32.0, service=200.0)
        inst = make_instance(current=[lower, upper])
        fixed = dict((s.id, a) for s, a in ach._commit_current(inst))
        assert fixed["up"].roll_out == pytest.approx(200.0)
        assert fixed["lo"].roll_out == pytest.approx(200.1)


class TestSolve:
    def test_empty_instance(self):
        inst = make_instance()
        sol = ach.solve(inst)
        assert sol.assignments == ()
        assert sol.provenance is Provenance.HEURISTIC

    def test_single_aircraft_at_eta_and_origin(self):
        f = make_future("a", eta=12.0, service=100.0)
        inst = make_instance(future=[f])
        sol = ach.solve(inst)
        asg = sol.by_id()["a"]
        assert asg.accept
        assert (asg.x, asg.y) == (5.0, 5.0)
        assert asg.roll_in == pytest.approx(12.0)
        assert asg.roll_out == pytest.approx(112.0)

    def test_rejects_when_delay_exceeds_break_even(self):
        # a giant current aircraft occupies the hangar past t_max
        c = make_current("c", width=45.0, length=48.0, x=5.0, y=5.0,
                         service=300.0)
        f = make_future("a", eta=0.0, service=100.0, p_rej=800.0, p_arr=10.0)
        inst = make_instance(future=[f], current=[c])
        sol = ach.solve(inst)
        assert not sol.by_id()["a"].accept

    def test_accepts_with_delay_when_worthwhile(self):
        c = make_current("c", width=45.0, length=48.0, x=5.0, y=5.0,
                         service=50.0)
        f = make_future("a", eta=0.0, service=100.0, p_rej=800.0, p_arr=10.0)
        inst = make_instance(future=[f], current=[c])
        sol = ach.solve(inst)
        asg = sol.by_id()["a"]
        assert asg.accept
        assert asg.roll_in == pytest.approx(50.1)  # right after c departs

    def test_break_even_bound_holds(self):
        for seed in range(10):
            inst = instgen.generate(instgen.GeneratorConfig(n_future=6, seed=seed))
            sol = ach.solve(inst)
            for f in inst.future:
                asg = sol.by_id()[f.id]
                if asg.accept:
                    d_arr = max(0.0, asg.roll_in - f.eta)
                    assert f.p_arr * d_arr <= f.p_rej + 1e-6

    def test_output_always_validates(self):
        for seed in range(8):
            inst = instgen.generate(instgen.GeneratorConfig(
                n_future=5, n_current=1, seed=seed))
            sol = ach.solve(inst)
            report = validator.validate(inst, sol)
            assert report.feasible, f"seed {seed}:\n{validator.explain(report)}"

    def test_deterministic(self):
        inst = instgen.generate(instgen.GeneratorConfig(n_future=6, seed=77))
        assert ach.solve(inst) == ach.solve(inst)

    def test_runtime_medium_instance(self):
        import time
        inst = instgen.generate(instgen.GeneratorConfig(n_future=40, seed=1))
        t0 = time.perf_counter()
        sol = ach.solve(inst)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        assert validator.validate(inst, sol).feasible


def instgen_draws():
    for n, n_current, congestion, seed in itertools.product(
            (3, 6, 12), (0, 1, 2), (1.0, 0.2), range(3)):
        yield instgen.generate(instgen.GeneratorConfig(
            n_future=n, n_current=n_current, seed=seed, congestion=congestion))


def assert_improves(inst):
    """``ach.improve``'s plan validates, costs no more than ``ach.solve``'s
    and is the same on a second run."""
    plan = ach.improve(inst)
    report = validator.validate(inst, plan)
    assert report.feasible, validator.explain(report)
    assert plan.provenance is Provenance.HEURISTIC
    assert report.cost.total <= evaluate_cost(inst, ach.solve(inst)).total
    assert ach.improve(inst) == plan
    return report.cost.total


def milp_optimum(inst):
    """The optimum of the instance's row system, solved to a zero gap."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    a = milp.to_arrays(milp.build_model(inst))
    matrix = sparse.coo_array((a.vals, (a.rows, a.cols)),
                              shape=(len(a.row_lower), len(a.columns)))
    res = optimize.milp(a.cost, integrality=a.integrality,
                        bounds=optimize.Bounds(a.col_lower, a.col_upper),
                        constraints=optimize.LinearConstraint(matrix, a.row_lower, a.row_upper),
                        options={"mip_rel_gap": 0})
    assert res.status == 0, res.message
    return res.fun


class TestImprove:
    def test_instgen_plans_validate_and_never_cost_more(self):
        assert sum(assert_improves(inst) < evaluate_cost(inst, ach.solve(inst)).total
                   for inst in instgen_draws()) > 0

    @settings(max_examples=60, deadline=timedelta(seconds=30))
    @given(instance=edge_instances())
    def test_edge_plans_validate_and_never_cost_more(self, instance):
        with time_limit(25.0):
            assert_improves(instance)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 7), n_current=st.integers(0, 2),
           congestion=st.sampled_from([1.0, 0.2]), seed=st.integers(0, 10_000))
    def test_run_from_stored_prefix_equals_full_run(self, data, n, n_current,
                                                     congestion, seed):
        inst = instgen.generate(instgen.GeneratorConfig(
            n_future=n, n_current=n_current, seed=seed, congestion=congestion))
        first = data.draw(st.permutations(inst.future))
        start = data.draw(st.integers(0, n))
        order = first[:start] + data.draw(st.permutations(first[start:]))
        stored = ach._solve_order(inst, first)
        assert ach._solve_order(inst, order, stored[:start + 1]) == ach._solve_order(inst, order)

    def test_never_below_the_milp_optimum(self):
        # every plan of ach is a point of the row system, so none costs less
        # than its optimum
        for n, n_current, seed, congestion in itertools.product(
                (1, 2, 3), (0, 1), range(8), (1.0, 0.2)):
            inst = instgen.generate(instgen.GeneratorConfig(
                n_future=n, n_current=n_current, seed=seed, congestion=congestion))
            optimum = milp_optimum(inst)
            cost = evaluate_cost(inst, ach.improve(inst)).total
            assert cost >= optimum - 1e-6 * max(1.0, abs(optimum)), (n, n_current, seed)

    def test_move_puts_request_ahead_of_the_aircraft_it_waits_for(self):
        # "a" comes first by its penalty and fills the hangar past "b"'s
        # break-even time; put ahead of "a", "b" leaves after 20 h, and "a"
        # waits 20.1 h for 201 in place of b's rejection at 1,500
        a = make_future("a", width=45.0, length=48.0, service=100.0, p_rej=2000.0)
        b = make_future("b", width=45.0, length=48.0, service=20.0, p_rej=1500.0,
                        p_arr=100.0)
        inst = make_instance(future=[a, b])
        assert not ach.solve(inst).by_id()["b"].accept
        plan = ach.improve(inst).by_id()
        assert plan["b"].roll_in == 0.0
        assert plan["a"].roll_in == pytest.approx(20.1)


class TestTermination:
    """``p_arr = 0`` makes the break-even time infinite; an aircraft that can
    never fit must still be rejected, not searched for ever.  Nor may a step
    of the smallest valid ``eps_t`` fail to move the roll-in time."""

    @pytest.mark.parametrize("n,n_current", [(2, 0), (5, 1), (8, 2), (12, 0)])
    def test_smallest_eps_t_terminates(self, n, n_current):
        inst = instgen.generate(instgen.GeneratorConfig(
            n_future=n, n_current=n_current, seed=1, hangar=HangarConfig(eps_t=2.1e-6)))
        with time_limit(10.0):
            sol = ach.solve(inst)
        assert validator.validate(inst, sol).feasible

    @pytest.mark.parametrize("placed_first", [False, True])
    def test_never_fitting_aircraft_rejected(self, placed_first):
        wide = make_future("wide", width=500.0, p_arr=0.0)
        placed = make_future("a", p_rej=900.0)
        inst = make_instance(future=[wide, placed] if placed_first else [wide])
        with time_limit(10.0):
            sol = ach.solve(inst)
        assert not sol.by_id()["wide"].accept
        if placed_first:
            assert sol.by_id()["a"].accept

    @pytest.mark.parametrize("hangar,some_without_cell", [
        (HangarConfig(), False), (HangarConfig(hw=50.0, hl=50.0), True)],
        ids=["default", "50x50"])
    def test_zero_arrival_penalty_places_every_request_with_a_cell(self, hangar,
                                                                   some_without_cell):
        # a request with a grid cell is rejected only past its break-even
        # time, which p_arr = 0 makes infinite; in the 50 x 50 m hangar the
        # catalog's two longest models have no cell
        def cells(side, size):
            return grid(hangar.buffer, side - hangar.buffer - size, hangar.grid_step)
        without_cell = 0
        for n, n_current, congestion, seed in itertools.product(
                (3, 6, 12), (0, 2), (1.0, 0.2), range(2)):
            drawn = instgen.generate(instgen.GeneratorConfig(
                n_future=n, n_current=n_current, seed=seed, congestion=congestion,
                hangar=hangar))
            inst = replace(drawn, future=tuple(replace(f, p_arr=0.0) for f in drawn.future))
            has_cell = {f.id: bool(cells(hangar.hw, f.width) and cells(hangar.hl, f.length))
                        for f in inst.future}
            for plan in (ach.solve(inst), ach.improve(inst)):
                accepted = {a.aircraft_id: a.accept for a in plan.assignments}
                assert all(accepted[f] == has_cell[f] for f in has_cell), (n, n_current, seed)
            without_cell += list(has_cell.values()).count(False)
        assert (without_cell > 0) == some_without_cell

    def test_empty_grid_rejected_without_a_scan(self, monkeypatch):
        # before the early return, the search of "wide" walked the
        # thresholds of the two parked aircraft and scanned 46 times
        gen = instgen.generate(instgen.GeneratorConfig(n_future=12, n_current=2, seed=3))
        wide = make_future("wide", width=500.0, p_arr=0.0)
        inst = Instance(hangar=gen.hangar, current=gen.current, future=gen.future + (wide,))
        scanned = Counter()
        scan = ach.find_best_placement

        def counting(aircraft, t_in, prepared):
            scanned[aircraft.id] += 1
            return scan(aircraft, t_in, prepared)
        monkeypatch.setattr(ach, "find_best_placement", counting)
        sol = ach.solve(inst)
        assert not sol.by_id()["wide"].accept and scanned["wide"] == 0
        assert sum(scanned.values()) > 0


def stepping_solve(instance):
    """Reference search: step roll-in by eps_t from eta up to the break-even
    time and scan the grid at every step, on one scan prepared per aircraft.
    It terminates only for finite break-even times."""
    h = instance.hangar
    fixed = ach._commit_current(instance)
    assignments = {s.id: a for s, a in fixed}
    for f in ach.prioritize(instance):
        t_max = ach.max_admissible_time(f)
        assignments[f.id] = Assignment(aircraft_id=f.id, accept=False)
        scan = ach.prepare_scan(f, fixed, instance)
        k = 0
        while f.eta + k * h.eps_t <= t_max + TOL:
            asg = ach.find_best_placement(f, f.eta + k * h.eps_t, scan)
            if asg is not None:
                fixed.append((f, asg))
                assignments[f.id] = asg
                break
            k += 1
    return Solution(instance_label=instance.label,
                    assignments=tuple(assignments[a.id] for a in instance.all_aircraft()),
                    provenance=Provenance.HEURISTIC)


def _assert_matches_stepping(n, n_current, congestion, multiplier, seed,
                             hangar=HangarConfig()):
    inst = instgen.generate(instgen.GeneratorConfig(
        n_future=n, n_current=n_current, seed=seed, congestion=congestion,
        rejection_multiplier=multiplier, hangar=hangar))
    got = json.dumps(io.solution_to_dict(ach.solve(inst)))
    want = json.dumps(io.solution_to_dict(stepping_solve(inst)))
    assert got == want


#: (n_future, n_current, congestion, rejection multiplier, seed): every n from
#: 2 to 8, each current count, and each congestion/penalty pair several times.
EQUIVALENCE_CASES = [
    (2, 0, 0.2, 10.0, 1), (2, 2, 1.0, 1.0, 2),
    (3, 1, 1.0, 10.0, 3), (3, 0, 0.2, 1.0, 4),
    (4, 2, 0.2, 10.0, 5), (4, 1, 1.0, 1.0, 6),
    (5, 0, 1.0, 10.0, 7), (5, 2, 0.2, 1.0, 8),
    (6, 1, 0.2, 10.0, 9), (6, 0, 1.0, 1.0, 10),
    (7, 2, 1.0, 10.0, 11), (7, 1, 0.2, 1.0, 12),
    (8, 0, 0.2, 10.0, 13), (8, 2, 1.0, 1.0, 14),
]

#: The same kind of cases in a 120 x 100 m hangar, where one committed
#: aircraft seldom fills the grid of the next, so the search mostly steps
#: from threshold to threshold without jumping past a stay.
WIDE_EQUIVALENCE_CASES = [
    (3, 0, 0.2, 10.0, 21), (4, 2, 1.0, 1.0, 22),
    (5, 1, 0.2, 10.0, 23), (6, 2, 0.2, 1.0, 24),
    (7, 0, 1.0, 10.0, 25), (8, 1, 0.2, 10.0, 26),
]


class TestEventDrivenSearch:
    """The event-driven search must reproduce the plain stepping search byte
    for byte."""

    @pytest.mark.parametrize("n,n_current,congestion,multiplier,seed", EQUIVALENCE_CASES)
    def test_matches_stepping_reference(self, n, n_current, congestion, multiplier, seed):
        _assert_matches_stepping(n, n_current, congestion, multiplier, seed)

    @pytest.mark.parametrize("n,n_current,congestion,multiplier,seed", WIDE_EQUIVALENCE_CASES)
    def test_matches_stepping_reference_in_a_wide_hangar(self, n, n_current, congestion,
                                                         multiplier, seed):
        _assert_matches_stepping(n, n_current, congestion, multiplier, seed,
                                 HangarConfig(hw=120.0, hl=100.0))

    @settings(max_examples=5, deadline=timedelta(seconds=20))
    @given(n=st.integers(2, 8), n_current=st.integers(0, 2),
           congestion=st.sampled_from([0.2, 1.0]),
           multiplier=st.sampled_from([1.0, 10.0]),
           seed=st.integers(0, 2**31 - 1))
    def test_matches_stepping_reference_generated(self, n, n_current, congestion,
                                                  multiplier, seed):
        _assert_matches_stepping(n, n_current, congestion, multiplier, seed)


def held_out_scan(n, n_current, congestion, seed, pick, hl, hw=65.0, grid_step=1.0):
    """An instgen plan with one future aircraft held out: the instance, the
    held aircraft, the rest of the plan as the committed schedule, and the
    roll-ins to scan at, on the lattice from eta and next to every committed
    movement, where the separation and blocking windows switch."""
    # the 100 m hangar stacks aircraft in a lane, so blocking decides
    inst = instgen.generate(instgen.GeneratorConfig(
        n_future=n, n_current=n_current, seed=seed, congestion=congestion,
        hangar=HangarConfig(hw=hw, hl=hl, grid_step=grid_step)))
    plan = ach.solve(inst)
    held = inst.future[pick % n]
    fixed = [(a, plan.by_id()[a.id]) for a in inst.all_aircraft() if a.id != held.id]
    eps_t = inst.hangar.eps_t
    times = [held.eta + k * eps_t for k in range(4)] + sorted(
        e + d for e in ach._events(fixed)
        for d in (-eps_t, 0.0, eps_t, 2 * eps_t)
        if e + d >= held.eta)
    return inst, held, fixed, times


class TestJumpFromRollInAndService:
    """After a miss, the roll-in t and t + service give the step that t and
    every point of the roll-out walk give together."""

    @settings(max_examples=20, deadline=timedelta(seconds=30))
    @given(n=st.integers(2, 8), n_current=st.integers(0, 2),
           congestion=st.sampled_from([0.2, 1.0]),
           seed=st.integers(0, 2**31 - 1), pick=st.integers(0, 7),
           hl=st.sampled_from([60.0, 100.0]))
    def test_step_equals_step_of_whole_walk(self, n, n_current, congestion, seed, pick, hl):
        inst, held, fixed, times = held_out_scan(n, n_current, congestion, seed, pick, hl)
        eps_t = inst.hangar.eps_t
        events = ach._events(fixed)
        thresholds = ach._thresholds(events, eps_t)

        def step(t, points):
            # shifts may differ where both reach the same lattice index
            shift = ach._shift_to_next_threshold(points, thresholds)
            return None if shift is None else ach._first_index_at(t + shift, t, eps_t, 0)
        for t in times:
            base = t + held.service
            walk = round((next_separated(base, events, eps_t) - base) / eps_t)
            points = [t] + [base + i * eps_t for i in range(walk + 1)]
            assert step(t, [t, base]) == step(t, points), t


class TestFirstIndexAt:
    """The quotient only guesses the first lattice index at or past a time;
    the roll-ins on both sides of the guess decide it."""

    @pytest.mark.parametrize("time,eta,eps_t,guess,index", [
        (65.87, 41.87, 0.2, 121, 120),   # the quotient rounds up past the index
        (235.02, 16.62, 0.7, 312, 313),  # the quotient rounds down below it
    ], ids=["guess-above", "guess-below"])
    def test_corrects_the_quotient(self, time, eta, eps_t, guess, index):
        assert math.ceil((time - eta) / eps_t) == guess
        assert ach._first_index_at(time, eta, eps_t, 0) == index
        assert eta + (index - 1) * eps_t < time <= eta + index * eps_t


class TestThresholdAheadAfterEveryMiss:
    """A scan at t misses only within eps_t - TOL of a committed movement, or
    while a committed stay is open at t, and a filling aircraft skips t only
    while its stay is open: each leaves a threshold ahead of t, so the time
    search never runs out of them before the aircraft fits."""

    @settings(max_examples=20, deadline=timedelta(seconds=30))
    @given(n=st.integers(2, 8), n_current=st.integers(0, 2),
           congestion=st.sampled_from([0.2, 1.0]),
           seed=st.integers(0, 2**31 - 1), pick=st.integers(0, 7),
           hl=st.sampled_from([60.0, 100.0]), hw=st.sampled_from([65.0, 120.0]))
    def test_threshold_ahead_after_every_miss_and_skip(self, n, n_current, congestion, seed,
                                                       pick, hl, hw):
        inst, held, fixed, times = held_out_scan(n, n_current, congestion, seed, pick, hl, hw)
        scan = ach.prepare_scan(held, fixed, inst)
        eps_t = inst.hangar.eps_t
        thresholds = ach._thresholds(scan.events, eps_t)
        whole = (0, len(scan.xs), 0, len(scan.ys))
        # halfway between the times too, where a roll-in just after the last
        # movement misses on its separation alone
        for t in times + [t + eps_t / 2 for t in times]:
            skipped = any(tuple(bounds) == whole and t < s1 - TOL and s0 < t + held.service - TOL
                          for (s0, s1), _, *bounds in scan.committed)
            if skipped or ach.find_best_placement(held, t, scan) is None:
                assert ach._shift_to_next_threshold([t, t + held.service],
                                                    thresholds) is not None, t


class TestJumpPastFillingAircraft:
    """A committed aircraft whose lane times band covers the whole grid of
    the candidate bars every cell while both are in the hangar, so the time
    search skips those roll-ins without a scan."""

    @settings(max_examples=20, deadline=timedelta(seconds=30))
    @given(n=st.integers(2, 8), n_current=st.integers(0, 2),
           congestion=st.sampled_from([0.2, 1.0]),
           seed=st.integers(0, 2**31 - 1), pick=st.integers(0, 7),
           hl=st.sampled_from([60.0, 100.0]), hw=st.sampled_from([65.0, 120.0]))
    def test_scan_misses_at_every_skipped_roll_in(self, n, n_current, congestion, seed,
                                                  pick, hl, hw):
        inst, held, fixed, _ = held_out_scan(n, n_current, congestion, seed, pick, hl, hw)
        scan = ach.prepare_scan(held, fixed, inst)
        whole = (0, len(scan.xs), 0, len(scan.ys))
        eps_t = inst.hangar.eps_t
        for (s0, s1), _, *bounds in scan.committed:
            if tuple(bounds) != whole:
                continue
            k = 0
            while held.eta + k * eps_t < s1 - TOL:
                t = held.eta + k * eps_t
                if s0 < t + held.service - TOL:
                    assert ach.find_best_placement(held, t, scan) is None, t
                k += 1

    def test_waiting_behind_a_filling_aircraft_scans_at_most_twice(self, monkeypatch):
        # the congested family of the benchmark: one scan right after the
        # filling aircraft leaves, which misses while its roll-out is within
        # eps_t, and one that fits; elsewhere in the family an aircraft may
        # still wait on two others side by side, which no single one fills
        scans, jumped, searching = Counter(), set(), []
        prepare, scan, jump = ach.prepare_scan, ach.find_best_placement, ach._first_index_at

        def preparing(aircraft, *args):
            prepared = prepare(aircraft, *args)
            searching.append((aircraft, prepared))
            return prepared

        def counting_scan(aircraft, *args):
            scans[aircraft.id] += 1
            return scan(aircraft, *args)

        def counting_jump(time, eta, eps_t, k):
            # every skip goes through here; mark the aircraft only when a
            # filling stay covers the roll-in it skips without a scan
            aircraft, prepared = searching[-1]
            whole = (0, len(prepared.xs), 0, len(prepared.ys))
            t = eta + k * eps_t
            if any(tuple(bounds) == whole and t < s1 - TOL and s0 < t + aircraft.service - TOL
                   for (s0, s1), _, *bounds in prepared.committed):
                jumped.add(aircraft.id)
            return jump(time, eta, eps_t, k)
        monkeypatch.setattr(ach, "prepare_scan", preparing)
        monkeypatch.setattr(ach, "find_best_placement", counting_scan)
        monkeypatch.setattr(ach, "_first_index_at", counting_jump)
        waited = 0
        for seed in range(20):
            inst = instgen.generate(instgen.GeneratorConfig(
                n_future=4, seed=seed, congestion=0.2, rejection_multiplier=10.0))
            scans.clear()
            jumped.clear()
            ach.solve(inst)
            assert all(scans[a] <= 2 for a in jumped), (seed, scans)
            waited += len(jumped)
        assert waited >= 40


def congested_family(hangar=HangarConfig()):
    """The benchmark's congested draws: 32 instances of four requests with
    compressed arrivals and tenfold rejection penalties."""
    return [instgen.GeneratorConfig(n_future=4, seed=100_000 + i, congestion=0.2,
                                    rejection_multiplier=10.0, hangar=hangar)
            for i in range(32)]


#: Three instance families, and the most grid scans (``find_best_placement``
#: calls) that ``ach.solve`` and ``ach.improve`` may make over each: the
#: counts of the search when the bounds were set.
SCAN_FAMILIES = {
    "congested": congested_family(),
    "pipeline": [instgen.GeneratorConfig(n_future=12, n_current=i % 3, seed=100_000 + i)
                 for i in range(38)],
    "congested_wide": congested_family(HangarConfig(hw=120.0, hl=100.0)),
}
SCAN_BOUNDS = [("congested", "solve", 213), ("congested", "improve", 247),
               ("pipeline", "solve", 162), ("pipeline", "improve", 772),
               ("congested_wide", "solve", 317), ("congested_wide", "improve", 317)]


class TestScanCount:
    """The time search's efficiency: the benchmark times it but does not
    gate its scan count, so a skip that proves fewer misses shows here."""

    @pytest.mark.parametrize("family,solver,bound", SCAN_BOUNDS)
    def test_scans_at_most_the_bound(self, monkeypatch, family, solver, bound):
        instances = [instgen.generate(c) for c in SCAN_FAMILIES[family]]
        scans = Counter()
        scan = ach.find_best_placement

        def counting(*args):
            scans["all"] += 1
            return scan(*args)
        monkeypatch.setattr(ach, "find_best_placement", counting)
        for inst in instances:
            getattr(ach, solver)(inst)
        assert scans["all"] <= bound


def cell(assignment):
    return None if assignment is None else (assignment.x, assignment.y)


class TestScanAgainstValidator:
    """The grid scan must pick the cell that a brute force over the whole
    grid, judged by the validator alone, picks next to a committed plan."""

    @settings(max_examples=5, deadline=timedelta(seconds=30))
    @given(n=st.integers(2, 8), n_current=st.integers(0, 2),
           congestion=st.sampled_from([0.2, 1.0]),
           seed=st.integers(0, 2**31 - 1), pick=st.integers(0, 7),
           picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=2),
           hl=st.sampled_from([60.0, 100.0]))
    def test_best_cell_matches_brute_force(self, n, n_current, congestion, seed,
                                           pick, picks, hl):
        inst, held, fixed, times = held_out_scan(n, n_current, congestion, seed, pick, hl)
        for i in picks:
            t_in = times[i % len(times)]
            got = cell(place(held, t_in, fixed, inst))
            assert got == brute_force_placement(held, t_in, fixed, inst), t_in

    @settings(max_examples=20, deadline=timedelta(seconds=60))
    @given(n=st.integers(2, 8), n_current=st.integers(0, 2),
           congestion=st.sampled_from([0.2, 1.0]),
           seed=st.integers(0, 2**31 - 1), pick=st.integers(0, 7),
           hl=st.sampled_from([60.0, 100.0]), hw=st.sampled_from([65.0, 120.0]),
           grid_step=st.sampled_from([1.0, 0.5, 2.3]))
    def test_reused_scan_matches_brute_force(self, n, n_current, congestion, seed,
                                             pick, hl, hw, grid_step):
        # one prepared scan serves every roll-in, as in the time search; the
        # wide hangar and the uneven steps move the columns where rectangles end
        inst, held, fixed, times = held_out_scan(n, n_current, congestion, seed, pick, hl,
                                                 hw, grid_step)
        scan = ach.prepare_scan(held, fixed, inst)
        for t_in in times:
            reused = ach.find_best_placement(held, t_in, scan)
            assert reused == place(held, t_in, fixed, inst), t_in
            assert cell(reused) == brute_force_placement(held, t_in, fixed, inst), t_in


def check_scan_ranges(aircraft, placed, inst):
    """Prepare the scan of ``aircraft`` next to the committed aircraft
    ``placed`` ((spec, x, y) each), and compare it with brute forces: the
    cells of each pair of index bounds with the cells that the geometry
    predicates of ``core`` pick one by one, and the scan's cell with ``brute_force_placement``.  The
    committed aircraft stay in two ways: leaving last, which bars their
    footprint and the cells below them, and leaving first, which bars their
    footprint and the cells above them.  Returns the scan."""
    h = inst.hangar
    stays = [(0.0, 200.0, 0.2), (0.2, 100.0, 0.0)]  # (b in, b out, candidate in)
    for b_in, b_out, t_in in stays:
        fixed = [(spec, accept(spec.id, x, y, b_in, b_out)) for spec, x, y in placed]
        scan = ach.prepare_scan(aircraft, fixed, inst)
        xs, ys = scan.xs, scan.ys
        for (spec, x, y), (_, _, x_lo, x_hi, y_lo, y_hi) in zip(placed, scan.committed):
            assert list(range(x_lo, x_hi)) == [
                i for i, cx in enumerate(xs)
                if lanes_overlap(cx, aircraft.width, x, spec.width, h.buffer)]
            assert list(range(y_lo, y_hi)) == [
                j for j, cy in enumerate(ys)
                if not axis_separated(cy, aircraft.length, y, spec.length, h.buffer)]
            assert list(range(y_lo)) == [
                j for j, cy in enumerate(ys)
                if x_separated(y, cy, aircraft.length, h.buffer)]
            assert list(range(y_hi, len(ys))) == [
                j for j, cy in enumerate(ys)
                if x_separated(cy, y, spec.length, h.buffer)]
        got = ach.find_best_placement(aircraft, t_in, scan)
        assert cell(got) == brute_force_placement(aircraft, t_in, fixed, inst), (b_in, t_in)
    return scan


class TestScanRanges:
    """Edge cases of the index bounds that a prepared scan holds for each
    committed aircraft, each against the brute forces of
    ``check_scan_ranges``."""

    def test_step_that_does_not_divide_the_hangar(self):
        # 2.3 m cells: neither the grids nor b's edges fall on whole metres
        inst = make_instance(hangar=HangarConfig(grid_step=2.3))
        a = make_future("a", width=10.0, length=10.0)
        b = make_future("b", width=12.0, length=12.0)
        scan = check_scan_ranges(a, [(b, 9.6, 5.0)], inst)
        assert round(scan.xs[-1], 6) == 48.7 and round(scan.ys[-1], 6) == 44.1
        # lane [0, 10), band [0, 8), nothing below, above from 8 on
        assert scan.committed[0][2:] == (0, 10, 0, 8)

    def test_committed_aircraft_flush_with_walls(self):
        inst = make_instance()
        a = make_future("a")
        # b in the top left corner, c in the bottom right corner
        b = make_future("b", width=20.0, length=20.0)
        c = make_future("c", width=20.0, length=20.0)
        scan = check_scan_ranges(a, [(b, 5.0, 35.0), (c, 40.0, 5.0)], inst)
        nx, ny = len(scan.xs), len(scan.ys)
        (_, _, b_x_lo, _, _, b_y_hi), (_, _, _, c_x_hi, c_y_lo, _) = scan.committed
        # b's lane starts at the left wall and nothing lies above it; c's lane
        # ends at the right wall and nothing lies below it
        assert b_x_lo == 0 and b_y_hi == ny
        assert c_x_hi == nx and c_y_lo == 0

    def test_lane_covering_the_whole_x_grid(self):
        inst = make_instance()
        a = make_future("a")
        wide = make_future("wide", width=55.0, length=20.0)
        scan = check_scan_ranges(a, [(wide, 5.0, 5.0)], inst)
        assert scan.committed[0][2:4] == (0, len(scan.xs))

    def test_empty_below_and_above(self):
        inst = make_instance()
        a = make_future("a")
        long = make_future("long", width=20.0, length=30.0)
        scan = check_scan_ranges(a, [(long, 5.0, 5.0)], inst)
        # the band is every row, so nothing lies below or above
        assert scan.committed[0][4:] == (0, len(scan.ys))

    @pytest.mark.parametrize("width,length", [(60.0, 22.0), (24.0, 52.0)],
                             ids=["too-wide", "too-long"])
    def test_aircraft_too_large_for_the_hangar(self, width, length):
        inst = make_instance()
        a = make_future("a", width=width, length=length)
        b = make_future("b")
        scan = check_scan_ranges(a, [(b, 5.0, 5.0)], inst)
        assert len(scan.xs) * len(scan.ys) == 0
        assert place(a, 0.0, [], inst) is None

    def test_footprints_within_grid_tol_overlap_below_and_above(self):
        # footprints and buffer that sum to less than 2 * GRID_TOL leave an
        # empty band, and the rows from y_hi to y_lo lie both below and above
        # b; b's stay blocks the candidate below it, so those rows are barred
        inst = make_instance(hangar=HangarConfig(hw=1e-5, hl=1e-5, buffer=0.0,
                                                 grid_step=1e-6))
        a = make_future("a", width=5e-6, length=1e-7, service=5.0)
        b = make_future("b", width=1e-5, length=1e-7)
        fixed = [(b, accept("b", 0.0, 5e-6, 0.0, 200.0))]
        scan = ach.prepare_scan(a, fixed, inst)
        assert scan.committed[0][2:] == (0, len(scan.xs), 6, 5)
        got = ach.find_best_placement(a, 0.2, scan)
        assert cell(got) == (0.0, scan.ys[6])
        plan = Solution("spot", (fixed[0][1], got))
        assert validator.validate(make_instance(future=[a, b], hangar=inst.hangar), plan).feasible


class TestScanMemory:
    def test_scan_holds_the_axes_not_the_cells(self):
        # 443 x 401 cells: a mask or a score per cell would take megabytes
        inst = make_instance(hangar=HangarConfig(grid_step=0.07))
        a = make_future("a")
        b = make_future("b")
        fixed = [(b, accept("b", 5.0, 5.0, 0.0, 200.0))]
        tracemalloc.start()
        try:
            scan = ach.prepare_scan(a, fixed, inst)
            got = ach.find_best_placement(a, 0.2, scan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(scan.xs), len(scan.ys)) == (443, 401)
        assert got is not None and peak < 100_000


class TestPreparedOncePerAircraft:
    """The time search builds the committed movement list once per aircraft,
    not once per scan, and walks the roll-out only inside the scan."""

    @staticmethod
    def solve_counting(monkeypatch, n_current, names):
        """Calls of each ``ach`` function in ``names`` while ``ach.solve``
        runs on an instance of the congested family in a 120 x 100 m hangar,
        where requests wait many eps_t steps before they fit; and the
        instance.  In the default hangar the search jumps past the aircraft
        that fill the grid, and scans once or twice per request."""
        inst = instgen.generate(instgen.GeneratorConfig(
            n_future=8, n_current=n_current, seed=4, congestion=0.2,
            rejection_multiplier=10.0, hangar=HangarConfig(hw=120.0, hl=100.0)))
        calls = Counter()

        def counting(name):
            fn = getattr(ach, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(ach, name, wrapper)

        for name in names:
            counting(name)
        ach.solve(inst)
        return calls, inst

    @pytest.mark.parametrize("n_current", [0, 2])
    def test_events_built_once_per_search(self, monkeypatch, n_current):
        calls, inst = self.solve_counting(
            monkeypatch, n_current, ("_events", "_earliest_fit", "find_best_placement"))
        assert calls["find_best_placement"] > 10 * calls["_earliest_fit"]
        assert calls["_events"] <= calls["_earliest_fit"] + len(inst.current)

    @pytest.mark.parametrize("n_current", [0, 2])
    def test_roll_out_walked_once_per_scan(self, monkeypatch, n_current):
        # parked aircraft walk their roll-out once each, before the search
        calls, inst = self.solve_counting(
            monkeypatch, n_current, ("next_separated", "find_best_placement"))
        assert calls["find_best_placement"] > 10
        assert calls["next_separated"] <= calls["find_best_placement"] + len(inst.current)
