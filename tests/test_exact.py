"""Exact oracle: trivial optima, equality with an unpruned brute force,
dominance over the heuristic, budgets, and model consistency."""

import gc
import itertools
import json
import math
from dataclasses import replace
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hangarplan import ach, exact, instgen, io, milp, validator
from hangarplan.core import (TOL, AircraftSpec, HangarConfig, Kind, evaluate_cost,
                             intervals_overlap)

from conftest import (
    TINY_HANGAR,
    brute_force_optimum,
    make_current,
    make_future,
    make_instance,
    time_limit,
)


class TestTrivialOptima:
    def test_single_aircraft_positioning_only(self):
        f = make_future("a", eta=12.0, service=100.0)
        inst = make_instance(future=[f])
        res = exact.solve_exact(inst)
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        asg = res.solution.by_id()["a"]
        assert asg.accept
        assert (asg.x, asg.y) == (5.0, 5.0)
        assert asg.roll_in == pytest.approx(12.0)
        assert res.cost.total == pytest.approx(0.001 * 10.0)

    def test_oversized_aircraft_all_rejected(self):
        f1 = make_future("a", width=60.0, length=58.0, p_rej=700.0)
        f2 = make_future("b", width=60.0, length=58.0, p_rej=900.0)
        inst = make_instance(future=[f1, f2])
        res = exact.solve_exact(inst)
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        assert not any(a.accept for a in res.solution.assignments)
        assert res.cost.total == pytest.approx(1600.0)

    def test_empty_instance(self):
        res = exact.solve_exact(make_instance())
        assert res.cost.total == 0.0
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID


def tiny_future(aid, *, eta=0.0, width=10.0, length=10.0, service=30.0,
                slack=10.0, p_rej=300.0, p_arr=30.0, p_dep=20.0):
    return make_future(aid, width=width, length=length, eta=eta,
                       service=service, slack=slack, p_rej=p_rej,
                       p_arr=p_arr, p_dep=p_dep)


def brute_fixtures():
    """(name, instance) pairs small enough for the unpruned cross-product."""
    fixtures = []

    # one aircraft, empty hangar
    fixtures.append(("single", make_instance(
        future=[tiny_future("a")], hangar=TINY_HANGAR)))

    # two aircraft that fit simultaneously side by side
    fixtures.append(("side-by-side", make_instance(
        future=[tiny_future("a", width=6.0, length=10.0),
                tiny_future("b", width=6.0, length=10.0, eta=0.5)],
        hangar=TINY_HANGAR)))

    # mutually exclusive footprints with overlapping windows: delaying the
    # cheaper aircraft (generous ETD slack, so no departure delay) beats
    # rejecting it
    fixtures.append(("delay-vs-reject", make_instance(
        future=[tiny_future("a", p_rej=900.0, p_arr=10.0),
                tiny_future("b", eta=1.0, p_rej=600.0, p_arr=10.0, slack=40.0)],
        hangar=TINY_HANGAR)))

    # a current aircraft that must depart before the future one fits
    fixtures.append(("current-blocks", make_instance(
        current=[make_current("c", width=10.0, length=10.0, x=2.0, y=2.0,
                              service=20.0, slack=5.0)],
        future=[tiny_future("a", p_arr=10.0)],
        hangar=TINY_HANGAR)))

    return fixtures


class TestBruteForceEquality:
    @pytest.mark.parametrize("name,inst", brute_fixtures(),
                             ids=[n for n, _ in brute_fixtures()])
    def test_pruned_equals_unpruned(self, name, inst):
        res = exact.solve_exact(inst)
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        brute_cost, _ = brute_force_optimum(inst)
        assert res.cost.total == pytest.approx(brute_cost, abs=1e-9)

    def test_delay_beats_rejection_in_fixture(self):
        inst = dict(brute_fixtures())["delay-vs-reject"]
        res = exact.solve_exact(inst)
        assert all(a.accept for a in res.solution.assignments)
        assert res.cost.arrival_delay > 0.0


class TestDominanceAndConsistency:
    def test_oracle_never_worse_than_heuristic(self):
        for seed in range(12):
            inst = instgen.generate(instgen.GeneratorConfig(
                n_future=2, n_current=1, seed=seed))
            res = exact.solve_exact(inst)
            assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
            ach_cost = evaluate_cost(inst, ach.solve(inst)).total
            assert res.cost.total <= ach_cost + 1e-6, f"seed {seed}"

    def test_solutions_validate_and_satisfy_model(self):
        for seed in range(6):
            inst = instgen.generate(instgen.GeneratorConfig(n_future=3, seed=seed))
            res = exact.solve_exact(inst)
            assert validator.validate(inst, res.solution).feasible
            model = milp.build_model(inst)
            point = milp.derive_binaries(inst, res.solution, model)
            assert milp.check_satisfaction(model, point) == [], f"seed {seed}"

    def test_rejection_penalty_monotonicity(self):
        for seed in range(6):
            inst = instgen.generate(instgen.GeneratorConfig(n_future=3, seed=seed))
            doubled = make_instance(
                future=[replace(f, p_rej=2.0 * f.p_rej) for f in inst.future],
                current=inst.current, hangar=inst.hangar)
            n_base = sum(a.accept for a in exact.solve_exact(inst).solution.assignments)
            n_doubled = sum(a.accept
                            for a in exact.solve_exact(doubled).solution.assignments)
            assert n_doubled >= n_base, f"seed {seed}"

    def test_deterministic(self):
        inst = instgen.generate(instgen.GeneratorConfig(n_future=3, seed=4))
        r1 = exact.solve_exact(inst)
        r2 = exact.solve_exact(inst)
        assert r1.solution == r2.solution
        assert r1.nodes_explored == r2.nodes_explored


class TestTimeGridCrossCheck:
    def test_grid_mode_terminates_with_zero_delay_penalty(self):
        # p_arr = 0 makes the break-even time infinite; grid candidates must
        # still stop at the last event
        wide = tiny_future("wide", width=500.0, p_arr=0.0)
        a = tiny_future("a", p_rej=900.0)
        inst = make_instance(future=[a, wide], hangar=TINY_HANGAR)
        with time_limit(1.0):
            res = exact.solve_exact(inst, exact.OracleConfig(time_grid_step=0.5))
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        assert res.solution.by_id()["a"].accept
        assert not res.solution.by_id()["wide"].accept


    def test_grid_mode_matches_event_driven(self):
        # the event-driven candidate restriction must not miss the optimum
        c = make_current("c", width=10.0, length=10.0, x=2.0, y=2.0,
                         service=20.0, slack=5.0, )
        inst = make_instance(current=[c], future=[tiny_future("a", p_arr=30.0)],
                             hangar=TINY_HANGAR)
        event = exact.solve_exact(inst)
        grid = exact.solve_exact(inst, exact.OracleConfig(time_grid_step=0.1))
        assert event.cost.total == pytest.approx(grid.cost.total, abs=1e-9)


class TestGuardsAndBudgets:
    def test_instance_too_large(self):
        inst = make_instance(future=[tiny_future(f"a{k}") for k in range(5)],
                             hangar=TINY_HANGAR)
        with pytest.raises(exact.InstanceTooLarge):
            exact.solve_exact(inst)

    def test_allow_large_override(self):
        inst = make_instance(
            future=[tiny_future(f"a{k}", eta=60.0 * k) for k in range(5)],
            hangar=TINY_HANGAR)
        res = exact.solve_exact(inst, exact.OracleConfig(
            allow_large=True, node_budget=50_000, time_budget=30.0))
        assert validator.validate(inst, res.solution).feasible

    def test_budget_exhaustion_still_feasible(self):
        inst = instgen.generate(instgen.GeneratorConfig(n_future=3, seed=2))
        res = exact.solve_exact(inst, exact.OracleConfig(node_budget=3))
        assert res.status is exact.OracleStatus.BUDGET_EXHAUSTED
        assert validator.validate(inst, res.solution).feasible

    def test_invalid_budgets(self):
        with pytest.raises(ValueError):
            exact.OracleConfig(node_budget=0)
        with pytest.raises(ValueError):
            exact.OracleConfig(time_budget=-1.0)
        with pytest.raises(ValueError):
            exact.OracleConfig(time_budget=float("nan"))
        # a step that is not positive and finite never ends the grid candidates
        for step in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                exact.OracleConfig(time_grid_step=step)


def product_min_positioning(instance, free, fixed, budget):
    """Reference layout search: every combination of the pairwise separation
    options (``itertools.product``), each solved by a from-scratch fixpoint.
    One budget node per combination."""
    h = instance.hangar
    step = h.grid_step
    if not free:
        return 0.0, {}
    for spec, _, _ in free:
        if (spec.width > h.hw - 2 * h.buffer + TOL
                or spec.length > h.hl - 2 * h.buffer + TOL):
            return None

    entities = [(spec, t_in, t_out, None) for spec, t_in, t_out in free] + \
               [(spec, asg.roll_in, asg.roll_out, (asg.x, asg.y)) for spec, asg in fixed]

    pairs = []
    for i in range(len(entities)):
        for j in range(i + 1, len(entities)):
            if entities[i][3] is not None and entities[j][3] is not None:
                continue
            if intervals_overlap(entities[i][1:3], entities[j][1:3]):
                pairs.append((i, j))

    def above_ok(upper, lower):
        # no movement of lower (a current aircraft only rolls out) strictly
        # inside upper's stay
        _, u_in, u_out, _ = entities[upper]
        spec, lo_in, lo_out, _ = entities[lower]
        events = [lo_out] if spec.kind is Kind.CURRENT else [lo_in, lo_out]
        return not any(e - u_in > TOL and u_out - e > TOL for e in events)

    options_per_pair = []
    for i, j in pairs:
        opts = [(exact._RIGHT, i, j), (exact._RIGHT, j, i)]
        if above_ok(i, j):
            opts.append((exact._ABOVE, i, j))
        if above_ok(j, i):
            opts.append((exact._ABOVE, j, i))
        options_per_pair.append(opts)

    n_free = len(free)
    best = None

    def wall(axis, i):
        spec = entities[i][0]
        if axis == "x":
            return h.hw - h.buffer - spec.width
        return h.hl - h.buffer - spec.length

    for combo in itertools.product(*options_per_pair):
        if budget.tick():
            break
        lower = {}
        upper = {}
        for kind, hi, lo_idx in combo:
            axis = "x" if kind == exact._RIGHT else "y"
            size = (entities[lo_idx][0].width if axis == "x"
                    else entities[lo_idx][0].length)
            gap = size + h.buffer
            hi_fixed = entities[hi][3]
            lo_fixed = entities[lo_idx][3]
            if lo_fixed is not None:
                base = lo_fixed[0] if axis == "x" else lo_fixed[1]
                lower.setdefault((axis, hi), []).append(("const", base + gap))
            elif hi_fixed is not None:
                cap = hi_fixed[0] if axis == "x" else hi_fixed[1]
                key = (axis, lo_idx)
                upper[key] = min(upper.get(key, math.inf), cap - size - h.buffer)
            else:
                lower.setdefault((axis, hi), []).append(("var", lo_idx, gap))

        pos = {("x", i): h.buffer for i in range(n_free)}
        pos.update({("y", i): h.buffer for i in range(n_free)})
        feasible = True
        changed = True
        passes = 0
        while changed and feasible:
            changed = False
            passes += 1
            if passes > n_free + 2:
                feasible = False  # positive cycle
                break
            for (axis, i), cons in lower.items():
                req = h.buffer
                for c in cons:
                    if c[0] == "const":
                        req = max(req, c[1])
                    else:
                        req = max(req, pos[(axis, c[1])] + c[2])
                req = exact._snap_up(req, h.buffer, step)
                if req > pos[(axis, i)] + 1e-9:
                    pos[(axis, i)] = req
                    changed = True
                if req > wall(axis, i) + TOL:
                    feasible = False
                    break
        if (not feasible
                or any(pos[key] > cap + TOL for key, cap in upper.items())
                or any(pos[("x", i)] > wall("x", i) + TOL
                       or pos[("y", i)] > wall("y", i) + TOL for i in range(n_free))):
            continue
        total = sum(pos[("x", i)] + pos[("y", i)] for i in range(n_free))
        layout = tuple((pos[("x", i)], pos[("y", i)]) for i in range(n_free))
        if best is None or (total, layout) < best:
            best = (total, layout)

    if best is None:
        return None
    total, layout = best
    return total, {free[i][0].id: layout[i] for i in range(n_free)}


def _generate(n, n_current, congestion, multiplier, seed):
    return instgen.generate(instgen.GeneratorConfig(
        n_future=n, n_current=n_current, seed=seed, congestion=congestion,
        rejection_multiplier=multiplier))


def _solve_both(inst, node_budget=2_000_000):
    config = exact.OracleConfig(node_budget=node_budget)
    got = exact.solve_exact(inst, config)
    with mock.patch.object(exact, "_min_positioning", product_min_positioning):
        want = exact.solve_exact(inst, config)
    return got, want


def _assert_matches_product(got, want):
    assert got.status is want.status
    assert (json.dumps(io.solution_to_dict(got.solution))
            == json.dumps(io.solution_to_dict(want.solution)))
    assert got.cost == want.cost
    assert got.nodes_explored <= want.nodes_explored


#: (n_future, n_current, congestion, rejection multiplier, seed): n from 1 to 4,
#: each current count, each congestion/penalty pair; the product reference
#: needs at most about 60,000 combinations on each.
PRODUCT_CASES = [
    (1, 0, 0.2, 10.0, 1), (1, 2, 1.0, 1.0, 2),
    (2, 0, 1.0, 10.0, 3), (2, 1, 1.0, 1.0, 1007),
    (2, 2, 0.2, 10.0, 1015), (2, 2, 1.0, 10.0, 1021),
    (3, 0, 0.2, 1.0, 4), (3, 1, 0.2, 10.0, 1027),
    (3, 2, 1.0, 1.0, 1042), (3, 2, 0.2, 1.0, 1038),
    (4, 0, 0.2, 10.0, 5), (4, 1, 1.0, 1.0, 1055),
    (4, 1, 0.2, 1.0, 1049), (4, 2, 1.0, 1.0, 1068),
    (4, 2, 1.0, 10.0, 1071),
]


class TestPrunedLayoutSearch:
    """The pruned depth-first layout search must give the product
    enumeration's plans byte for byte, with no more budget nodes."""

    @pytest.mark.parametrize("n,n_current,congestion,multiplier,seed", PRODUCT_CASES)
    def test_matches_product_reference(self, n, n_current, congestion, multiplier, seed):
        got, want = _solve_both(_generate(n, n_current, congestion, multiplier, seed))
        assert want.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        _assert_matches_product(got, want)

    def test_equal_sums_go_to_smaller_layout(self):
        # identical co-present aircraft: both side-by-side orders sum alike
        inst = make_instance(future=[make_future("a"), make_future("b", eta=0.5)])
        got, want = _solve_both(inst)
        _assert_matches_product(got, want)
        assert (got.solution.by_id()["a"].x, got.solution.by_id()["b"].x) == (5.0, 34.0)

    @pytest.mark.parametrize("parked,future,placed", [
        ((45.5, 5.5), [("a", 17.3, 19.1), ("b", 13.6, 15.2), ("d", 11.9, 25.4)], "cad"),
        ((5.5, 5.5), [("a", 17.3, 45.2), ("b", 13.6, 44.6)], "cab"),
    ], ids=["beside-parked", "row-after-parked"])
    def test_sizes_off_the_grid(self, parked, future, placed):
        # widths, lengths and a parked position that are not grid multiples,
        # so every bound, cap and edge needs its snap to the grid
        c = make_current("c", width=10.3, length=9.7, x=parked[0], y=parked[1],
                         service=60.0)
        inst = make_instance(current=[c], future=[
            make_future(aid, width=w, length=ln, eta=1.0 + k)
            for k, (aid, w, ln) in enumerate(future)])
        got, want = _solve_both(inst)
        assert want.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        assert "".join(a.aircraft_id for a in want.solution.assignments if a.accept) == placed
        _assert_matches_product(got, want)

    @settings(max_examples=6, deadline=timedelta(seconds=20))
    @given(n=st.integers(1, 4), n_current=st.integers(0, 2),
           congestion=st.sampled_from([0.2, 1.0]),
           multiplier=st.sampled_from([1.0, 10.0]),
           seed=st.integers(0, 2**31 - 1))
    def test_matches_product_reference_generated(self, n, n_current, congestion,
                                                 multiplier, seed):
        # a reference stopped by its budget has no optimum to compare with
        got, want = _solve_both(_generate(n, n_current, congestion, multiplier, seed),
                                100_000)
        assume(want.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID)
        _assert_matches_product(got, want)


def never_together(eps_p):
    """Two large requests that can never stand in the default hangar at the
    same time (36 + 30 plus three buffers of 5 exceed its width of 65, and
    38 + 30 plus three buffers its length of 60) and whose windows overlap,
    ahead of two small requests in the priority order."""
    large = [make_future("a", width=36.0, length=38.0, service=20.0, p_rej=2000.0, p_arr=5.0),
             make_future("b", width=30.0, length=30.0, eta=1.0, service=20.0,
                         p_rej=1500.0, p_arr=5.0)]
    small = [make_future(f"c{k}", width=10.0, length=10.0, eta=2.0 + 3.0 * k, service=4.0,
                         slack=100.0, p_rej=300.0, p_arr=2.0, p_dep=1.0)
             for k in range(2)]
    return make_instance(future=large + small, hangar=HangarConfig(eps_p=eps_p))


class TestPrefixPruning:
    """The branch and bound lays out every accepted prefix and carries that
    layout down: a prefix with no layout is cut, and its coordinate sum
    bounds every completion's."""

    @settings(max_examples=30, deadline=timedelta(seconds=20))
    @given(n=st.integers(1, 4), n_current=st.integers(0, 2),
           congestion=st.sampled_from([0.2, 1.0]),
           multiplier=st.sampled_from([1.0, 10.0]),
           seed=st.integers(0, 2**31 - 1), data=st.data())
    def test_prefix_layout_bounds_the_full_layout(self, n, n_current, congestion,
                                                  multiplier, seed, data):
        inst = _generate(n, n_current, congestion, multiplier, seed)
        fixed = ach._commit_current(inst)
        free = []
        for spec in data.draw(st.permutations(inst.future)):
            roll_in = spec.eta + data.draw(st.integers(0, 600)) * 0.1
            stay = spec.service + data.draw(st.integers(0, 100)) * 0.1
            free.append((spec, roll_in, roll_in + stay))
        k = data.draw(st.integers(0, len(free)))
        budget = exact._Budget(exact.OracleConfig())
        prefix = exact._min_positioning(inst, free[:k], fixed, budget)
        full = exact._min_positioning(inst, free, fixed, budget)
        assume(not budget.exhausted)
        if prefix is None:
            assert full is None
        elif full is not None:
            assert prefix[0] <= full[0] + TOL

    @pytest.mark.parametrize("grid_step,eps_p,b_in,c1_in,cost,nodes", [
        # nodes when only complete schedules were laid out: 90, 6,933 and 105
        (None, 0.001, 20.1, 6.1, 97.755, 30),
        (2.0, 0.001, 21.0, 7.0, 104.055, 62),
        (None, 1.0, 20.1, 6.1, 152.7, 34),  # the layout sum also bounds the cost
    ], ids=["events", "time-grid-2", "positioning-weight-1"])
    def test_pair_that_never_fits_together(self, grid_step, eps_p, b_in, c1_in, cost,
                                           nodes):
        # b waits for a to leave; below the roll-in times of b inside a's stay
        # the small requests are no longer enumerated
        res = exact.solve_exact(never_together(eps_p),
                                exact.OracleConfig(time_grid_step=grid_step))
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        placed = {a.aircraft_id: (a.x, a.y, a.roll_in, a.roll_out)
                  for a in res.solution.assignments if a.accept}
        assert placed == {"a": (20.0, 5.0, 0.0, 20.0),
                          "b": (5.0, 5.0, b_in, pytest.approx(b_in + 20.0)),
                          "c0": (5.0, 5.0, 2.0, 6.0),
                          "c1": (5.0, 5.0, c1_in, pytest.approx(c1_in + 4.0))}
        assert res.cost.total == pytest.approx(cost, abs=1e-9)
        assert res.nodes_explored == nodes


class TestNoCyclicGarbage:
    """The searches are plain recursive functions over explicit arguments, so
    a call leaves nothing for the cyclic collector: reference counting frees
    all it drops."""

    @pytest.mark.parametrize("n_current,config", [
        (0, exact.OracleConfig()),
        (2, exact.OracleConfig()),
        (0, exact.OracleConfig(time_grid_step=0.5)),
        (0, exact.OracleConfig(node_budget=3)),
    ], ids=["oracle-family", "parked", "time-grid", "budget-stop"])
    def test_no_cyclic_garbage(self, collector, n_current, config):
        inst = _generate(4, n_current, 0.2, 1.0, 7_400_000)
        exact.solve_exact(inst, config)  # warm-up: caches filled on first use are not garbage
        gc.disable()
        gc.collect()
        res = exact.solve_exact(inst, config)
        assert gc.collect() == 0
        assert res.status is (exact.OracleStatus.BUDGET_EXHAUSTED if config.node_budget == 3
                              else exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID)
