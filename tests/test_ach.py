"""Constructive heuristic: prioritization, placement scan, time search,
and feasibility of its output."""

import json
import math
from collections import Counter
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hangarplan import ach, instgen, io, validator
from hangarplan.core import (
    TOL,
    Assignment,
    HangarConfig,
    Instance,
    Kind,
    Provenance,
    Solution,
    axis_separated,
    lanes_overlap,
    next_separated,
    x_separated,
)

from conftest import accept, make_current, make_future, make_instance, specs, time_limit


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


def is_valid_spot(aircraft, x, y, t_in, fixed, instance):
    """Reference spot check through the validator: place the candidate at
    (x, y) from t_in to the heuristic's roll-out next to the committed
    aircraft, and look only at violations that name it.  The committed plan
    itself need not be feasible."""
    t_out = ach.resolve_roll_out(aircraft, t_in, fixed, instance.hangar.eps_t)
    specs = [spec for spec, _ in fixed] + [aircraft]
    sub = Instance(hangar=instance.hangar,
                   current=[s for s in specs if s.kind is Kind.CURRENT],
                   future=[s for s in specs if s.kind is Kind.FUTURE])
    candidate = Assignment(aircraft.id, True, x=x, y=y, roll_in=t_in, roll_out=t_out)
    plan = Solution("spot", tuple(asg for _, asg in fixed) + (candidate,))
    report = validator.validate(sub, plan)
    return not any(aircraft.id in v.aircraft for v in report.violations)


def brute_force_placement(aircraft, t_in, fixed, instance):
    """(x, y) of the grid cell with minimal x + y (then y, then x) that passes
    ``is_valid_spot``, or None."""
    h = instance.hangar
    best = None
    i = 0
    while h.buffer + i * h.grid_step + aircraft.width <= h.hw - h.buffer + 1e-9:
        x = h.buffer + i * h.grid_step
        j = 0
        while h.buffer + j * h.grid_step + aircraft.length <= h.hl - h.buffer + 1e-9:
            y = h.buffer + j * h.grid_step
            key = (x + y, y, x)
            if (best is None or key < best) and is_valid_spot(aircraft, x, y, t_in,
                                                              fixed, instance):
                best = key
            j += 1
        i += 1
    return None if best is None else (best[2], best[1])


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
        # vectorized scan must agree with the scalar spot check on every cell
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


def _assert_matches_stepping(n, n_current, congestion, multiplier, seed):
    inst = instgen.generate(instgen.GeneratorConfig(
        n_future=n, n_current=n_current, seed=seed, congestion=congestion,
        rejection_multiplier=multiplier))
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


class TestEventDrivenSearch:
    """The event-driven search must reproduce the plain stepping search byte
    for byte."""

    @pytest.mark.parametrize("n,n_current,congestion,multiplier,seed", EQUIVALENCE_CASES)
    def test_matches_stepping_reference(self, n, n_current, congestion, multiplier, seed):
        _assert_matches_stepping(n, n_current, congestion, multiplier, seed)

    @settings(max_examples=5, deadline=timedelta(seconds=20))
    @given(n=st.integers(2, 8), n_current=st.integers(0, 2),
           congestion=st.sampled_from([0.2, 1.0]),
           multiplier=st.sampled_from([1.0, 10.0]),
           seed=st.integers(0, 2**31 - 1))
    def test_matches_stepping_reference_generated(self, n, n_current, congestion,
                                                  multiplier, seed):
        _assert_matches_stepping(n, n_current, congestion, multiplier, seed)


def held_out_scan(n, n_current, congestion, seed, pick, hl):
    """An instgen plan with one future aircraft held out: the instance, the
    held aircraft, the rest of the plan as the committed schedule, and the
    roll-ins to scan at, on the lattice from eta and next to every committed
    movement, where the separation and blocking windows switch."""
    # the 100 m hangar stacks aircraft in a lane, so blocking decides
    inst = instgen.generate(instgen.GeneratorConfig(
        n_future=n, n_current=n_current, seed=seed, congestion=congestion,
        hangar=HangarConfig(hl=hl)))
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
        thresholds = ach._thresholds(fixed, events, eps_t)
        for t in times:
            base = t + held.service
            walk = round((next_separated(base, events, eps_t) - base) / eps_t)
            points = [t] + [base + i * eps_t for i in range(walk + 1)]
            assert ach._steps_to_next_threshold([t, base], thresholds, eps_t) == \
                ach._steps_to_next_threshold(points, thresholds, eps_t), t


def cell(assignment):
    return None if assignment is None else (assignment.x, assignment.y)


class TestScanAgainstValidator:
    """The vectorized grid scan must pick the cell that a brute force over the
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

    @settings(max_examples=4, deadline=timedelta(seconds=60))
    @given(n=st.integers(2, 8), n_current=st.integers(0, 2),
           congestion=st.sampled_from([0.2, 1.0]),
           seed=st.integers(0, 2**31 - 1), pick=st.integers(0, 7),
           hl=st.sampled_from([60.0, 100.0]))
    def test_reused_scan_matches_brute_force(self, n, n_current, congestion, seed,
                                             pick, hl):
        # one prepared scan serves every roll-in, as in the time search
        inst, held, fixed, times = held_out_scan(n, n_current, congestion, seed, pick, hl)
        scan = ach.prepare_scan(held, fixed, inst)
        for t_in in times:
            reused = ach.find_best_placement(held, t_in, scan)
            assert reused == place(held, t_in, fixed, inst), t_in
            assert cell(reused) == brute_force_placement(held, t_in, fixed, inst), t_in


def range_indices(size, index_range):
    return list(range(size))[index_range]


def check_scan_ranges(aircraft, placed, inst):
    """Prepare the scan of ``aircraft`` next to the committed aircraft
    ``placed`` ((spec, x, y) each), and compare it with brute forces: each
    index range with the cells that the geometry predicates of ``core`` pick
    one by one, and the scan's cell with ``brute_force_placement``.  The
    committed aircraft stay in two ways: leaving last, which bars their
    footprint and the cells below them, and leaving first, which bars their
    footprint and the cells above them.  Returns the scan."""
    h = inst.hangar
    stays = [(0.0, 200.0, 0.2), (0.2, 100.0, 0.0)]  # (b in, b out, candidate in)
    for b_in, b_out, t_in in stays:
        fixed = [(spec, accept(spec.id, x, y, b_in, b_out)) for spec, x, y in placed]
        scan = ach.prepare_scan(aircraft, fixed, inst)
        xs, ys = list(scan.xs), list(scan.ys)
        for (spec, x, y), (_, _, lane, band, below, above) in zip(placed, scan.committed):
            assert range_indices(len(xs), lane) == [
                i for i, cx in enumerate(xs)
                if lanes_overlap(cx, aircraft.width, x, spec.width, h.buffer)]
            assert range_indices(len(ys), band) == [
                j for j, cy in enumerate(ys)
                if not axis_separated(cy, aircraft.length, y, spec.length, h.buffer)]
            assert range_indices(len(ys), below) == [
                j for j, cy in enumerate(ys)
                if x_separated(y, cy, aircraft.length, h.buffer)]
            assert range_indices(len(ys), above) == [
                j for j, cy in enumerate(ys)
                if x_separated(cy, y, spec.length, h.buffer)]
        got = ach.find_best_placement(aircraft, t_in, scan)
        assert cell(got) == brute_force_placement(aircraft, t_in, fixed, inst), (b_in, t_in)
    return scan


class TestScanRanges:
    """Edge cases of the index ranges that a prepared scan holds for each
    committed aircraft, each against the brute forces of
    ``check_scan_ranges``."""

    def test_step_that_does_not_divide_the_hangar(self):
        # 2.3 m cells: neither the grids nor b's edges fall on whole metres
        inst = make_instance(hangar=HangarConfig(grid_step=2.3))
        a = make_future("a", width=10.0, length=10.0)
        b = make_future("b", width=12.0, length=12.0)
        scan = check_scan_ranges(a, [(b, 9.6, 5.0)], inst)
        assert round(scan.xs[-1], 6) == 48.7 and round(scan.ys[-1], 6) == 44.1
        _, _, lane, band, below, above = scan.committed[0]
        assert (lane, band, below, above) == (
            slice(0, 10), slice(0, 8), slice(0, 0), slice(8, None))

    def test_committed_aircraft_flush_with_walls(self):
        inst = make_instance()
        a = make_future("a")
        # b in the top left corner, c in the bottom right corner
        b = make_future("b", width=20.0, length=20.0)
        c = make_future("c", width=20.0, length=20.0)
        scan = check_scan_ranges(a, [(b, 5.0, 35.0), (c, 40.0, 5.0)], inst)
        nx, ny = scan.xs.size, scan.ys.size
        (_, _, b_lane, _, _, b_above), (_, _, c_lane, _, c_below, _) = scan.committed
        assert b_lane.start == 0 and range_indices(ny, b_above) == []
        assert c_lane.stop == nx and range_indices(ny, c_below) == []

    def test_lane_covering_the_whole_x_grid(self):
        inst = make_instance()
        a = make_future("a")
        wide = make_future("wide", width=55.0, length=20.0)
        scan = check_scan_ranges(a, [(wide, 5.0, 5.0)], inst)
        lane = scan.committed[0][2]
        assert range_indices(scan.xs.size, lane) == list(range(scan.xs.size))

    def test_empty_below_and_above(self):
        inst = make_instance()
        a = make_future("a")
        long = make_future("long", width=20.0, length=30.0)
        scan = check_scan_ranges(a, [(long, 5.0, 5.0)], inst)
        _, _, _, band, below, above = scan.committed[0]
        assert range_indices(scan.ys.size, band) == list(range(scan.ys.size))
        assert range_indices(scan.ys.size, below) == range_indices(scan.ys.size, above) == []

    @pytest.mark.parametrize("width,length", [(60.0, 22.0), (24.0, 52.0)],
                             ids=["too-wide", "too-long"])
    def test_aircraft_too_large_for_the_hangar(self, width, length):
        inst = make_instance()
        a = make_future("a", width=width, length=length)
        b = make_future("b")
        scan = check_scan_ranges(a, [(b, 5.0, 5.0)], inst)
        assert scan.xs.size * scan.ys.size == 0
        assert place(a, 0.0, [], inst) is None


class TestPreparedOncePerAircraft:
    """The time search builds the committed movement list once per aircraft,
    not once per scan, and walks the roll-out only inside the scan."""

    @staticmethod
    def solve_counting(monkeypatch, n_current, names):
        """Calls of each ``ach`` function in ``names`` while ``ach.solve``
        runs on an instance of the congested family, where requests wait
        many eps_t steps before they fit; and the instance."""
        inst = instgen.generate(instgen.GeneratorConfig(
            n_future=4, n_current=n_current, seed=1, congestion=0.2,
            rejection_multiplier=10.0))
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
