"""Exact oracle: trivial optima, equality with an unpruned brute force,
dominance over the heuristic, budgets, and model consistency."""

import gc
import itertools
import json
import math
from dataclasses import replace
from datetime import timedelta
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hangarplan import ach, exact, instgen, io, milp, validator
from hangarplan.core import (GRID_TOL, MAX_HORIZON, TOL, AircraftSpec, HangarConfig, Kind,
                             Provenance, Solution, derive_big_m, evaluate_cost,
                             intervals_overlap, movement_times, presence, separated, snap_up,
                             window_blocks)

from conftest import (
    TINY_HANGAR,
    brute_force_optimum,
    edge_instances,
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


def missed_roll_in_instance():
    """A request ``a0`` that fits only by rolling in between the events that
    ``exact._time_candidates`` offers: the oracle, proven optimal on its
    candidates, rejects it at 1,942.037, while ``ach`` plans 1,242.047."""
    return make_instance(
        current=[make_current("c0", width=24.0, length=22.0, x=36.0, y=5.0,
                              service=133.0, etd=70.9, p_dep=20.0)],
        future=[make_future("a0", width=26.0, length=22.0, eta=30.7, etd=120.7,
                            service=88.6, p_rej=700.0, p_arr=0.0, p_dep=60.0),
                make_future("a2", width=55.0, length=22.0, eta=48.6, etd=159.5,
                            service=71.4, p_rej=7000.0, p_arr=30.0, p_dep=60.0)])


class TestDominanceAndConsistency:
    def test_oracle_never_worse_than_heuristic(self):
        for seed in range(12):
            inst = instgen.generate(instgen.GeneratorConfig(
                n_future=2, n_current=1, seed=seed))
            res = exact.solve_exact(inst)
            assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
            ach_cost = evaluate_cost(inst, ach.solve(inst)).total
            assert res.cost.total <= ach_cost + 1e-6, f"seed {seed}"

    @pytest.mark.xfail(strict=True, reason=(
        "ach rolls a0 in at eta + 7 eps_t = 31.4, so that a2's exit at 120.0 "
        "steps a0's roll-out walk to 120.1; _time_candidates offers a0 only its "
        "eta and eps_t after each event, and the oracle rejects a0"))
    def test_oracle_never_worse_than_heuristic_off_instgen(self):
        inst = missed_roll_in_instance()
        res = exact.solve_exact(inst)
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        assert res.cost.total <= evaluate_cost(inst, ach.solve(inst)).total + 1e-6

    @pytest.mark.xfail(strict=True, reason=(
        "the oracle offers a request only its eta and eps_t after the movements "
        "of requests earlier in prioritize's order: a01 never waits for a03, "
        "which comes later, to leave, and the oracle rejects a03"))
    def test_oracle_never_worse_than_heuristic_in_another_order(self):
        inst = instgen.generate(instgen.GeneratorConfig(n_future=3, seed=2))
        res = exact.solve_exact(inst)
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        by_id = {f.id: f for f in inst.future}
        committed = ach._solve_order(inst, [by_id[i] for i in ("a03", "a01", "a02")])[-1]
        plan = Solution.compose(inst, (asg for _, asg in committed), Provenance.HEURISTIC)
        assert validator.validate(inst, plan).feasible
        assert res.cost.total <= evaluate_cost(inst, plan).total + 1e-6

    @settings(max_examples=100, deadline=timedelta(seconds=30))
    @given(instance=edge_instances())
    def test_edge_plans_agree_with_the_rows(self, instance):
        """Both solvers' plans validate, and their derived points satisfy
        every row at the validator's cost."""
        with time_limit(25.0):
            model = milp.build_model(instance)
            for solution in (ach.solve(instance), exact.solve_exact(instance).solution):
                rep = validator.validate(instance, solution)
                assert rep.feasible, validator.explain(rep)
                point = milp.derive_binaries(instance, solution, model)
                assert milp.check_satisfaction(model, point) == []
                assert milp.objective_value(model, point) == pytest.approx(
                    rep.cost.total, rel=1e-6)

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


def lattice_candidates(spec, events, eps_t, t_max, *, step):
    """Reference roll-in candidates: every separated ``eta + k * step`` up to
    t_max, stopping at the first one at or after the last event + eps_t (the
    horizon of the event-driven candidates; t_max is inf when p_arr = 0)."""
    horizon = events[-1] + eps_t if events else spec.eta
    cands = [spec.eta]
    while cands[-1] < horizon - TOL and cands[-1] <= t_max + TOL:
        cands.append(spec.eta + len(cands) * step)
    return [t for t in sorted(set(round(t, 9) for t in cands))
            if t <= t_max + TOL and separated(t, events, eps_t)]


class TestTimeGridCrossCheck:
    def test_grid_mode_matches_event_driven(self):
        # the event-driven candidate restriction must not miss the optimum
        c = make_current("c", width=10.0, length=10.0, x=2.0, y=2.0,
                         service=20.0, slack=5.0, )
        inst = make_instance(current=[c], future=[tiny_future("a", p_arr=30.0)],
                             hangar=TINY_HANGAR)
        event = exact.solve_exact(inst)
        with mock.patch.object(exact, "_time_candidates",
                               partial(lattice_candidates, step=0.1)):
            grid = exact.solve_exact(inst)
        assert event.cost.total == pytest.approx(grid.cost.total, abs=1e-9)

    def test_roll_in_at_eta_keeps_full_precision(self):
        # an eta with more than 9 decimals: rounded up, the roll-in at eta
        # would cost an arrival delay that ach does not pay
        f = make_future("f", width=20.0, length=30.0, eta=33.65082706969816,
                        service=15.723995732250549, p_rej=100.0, p_arr=10.0, p_dep=0.0)
        inst = make_instance(future=[f])
        sol = ach.solve(inst)
        res = exact.solve_exact(inst)
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        assert res.solution.by_id()["f"].roll_in == f.eta
        assert res.cost.total == evaluate_cost(inst, sol).total == pytest.approx(0.01)


class TestGuardsAndBudgets:
    def test_instance_too_large(self):
        inst = make_instance(future=[tiny_future(f"a{k}") for k in range(5)],
                             hangar=TINY_HANGAR)
        with pytest.raises(exact.InstanceTooLarge, match="solve-exact --allow-large"):
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

    def test_budget_stop_at_a_complete_layout_keeps_the_best_so_far(self):
        # one aircraft and no pairs: the search's first node is a complete
        # layout, which a spent budget leaves out
        h = HangarConfig()
        walls = [h.hw - h.buffer - 24.0, h.hl - h.buffer - 22.0]

        def search(spent):
            budget = exact._Budget(exact.OracleConfig(node_budget=1))
            budget.nodes = spent
            best = exact._layout_search(h, [], [[], []], budget, 0, [h.buffer] * 2, walls, None)
            return best, budget.exhausted
        assert search(0) == ((10.0, ((5.0, 5.0),)), False)
        assert search(1) == (None, True)

    def test_invalid_budgets(self):
        with pytest.raises(ValueError):
            exact.OracleConfig(node_budget=0)
        with pytest.raises(ValueError):
            exact.OracleConfig(time_budget=-1.0)
        with pytest.raises(ValueError):
            exact.OracleConfig(time_budget=float("nan"))


#: The reference's separation options: (kind, first, second) with the first
#: aircraft fully right of (above) the second, buffered.
_RIGHT = "right"
_ABOVE = "above"


def product_min_positioning(instance, free, fixed, budget):
    """Reference layout search: every combination of the pairwise separation
    options (``itertools.product``), each solved by a from-scratch fixpoint.
    One budget node per combination."""
    h = instance.hangar
    step = h.grid_step
    if not free:
        return 0.0, {}
    for spec, _, _ in free:
        if (spec.width > h.hw - 2 * h.buffer + GRID_TOL
                or spec.length > h.hl - 2 * h.buffer + GRID_TOL):
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
        opts = [(_RIGHT, i, j), (_RIGHT, j, i)]
        if above_ok(i, j):
            opts.append((_ABOVE, i, j))
        if above_ok(j, i):
            opts.append((_ABOVE, j, i))
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
            axis = "x" if kind == _RIGHT else "y"
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
                req = snap_up(req, h.buffer, step)
                if req > pos[(axis, i)] + 1e-9:
                    pos[(axis, i)] = req
                    changed = True
                if req > wall(axis, i) + GRID_TOL:
                    feasible = False
                    break
        if (not feasible
                or any(pos[key] > cap + GRID_TOL for key, cap in upper.items())
                or any(pos[("x", i)] > wall("x", i) + GRID_TOL
                       or pos[("y", i)] > wall("y", i) + GRID_TOL for i in range(n_free))):
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


def _product_for_options(instance, free, options, walls, budget):
    # the reference builds its own options from the parked aircraft
    return product_min_positioning(instance, free, ach._commit_current(instance), budget)


def _solve_both(inst, node_budget=2_000_000):
    config = exact.OracleConfig(node_budget=node_budget)
    got = exact.solve_exact(inst, config)
    with mock.patch.object(exact, "_min_positioning", _product_for_options):
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


def _drawn_stays(inst, data):
    """The instance's requests in a drawn order, each with a drawn stay of at
    least its service from a drawn roll-in at or after its eta."""
    free = []
    for spec in data.draw(st.permutations(inst.future)):
        roll_in = spec.eta + data.draw(st.integers(0, 600)) * 0.1
        stay = spec.service + data.draw(st.integers(0, 100)) * 0.1
        free.append((spec, roll_in, roll_in + stay))
    return free


def _walls(h, free):
    """The position limits of ``free``, indexed as ``exact._pair_options``
    indexes positions."""
    return [wall for spec, _, _ in free
            for wall in (h.hw - h.buffer - spec.width, h.hl - h.buffer - spec.length)]


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
        free = _drawn_stays(inst, data)
        k = data.draw(st.integers(0, len(free)))
        budget = exact._Budget(exact.OracleConfig())

        def layout(free):
            options = exact._pair_options(inst.hangar, free, fixed, 0)
            return exact._min_positioning(inst, free, options, _walls(inst.hangar, free), budget)

        prefix, full = layout(free[:k]), layout(free)
        assume(not budget.exhausted)
        if prefix is None:
            assert full is None
        elif full is not None:
            assert prefix[0] <= full[0] + TOL

    @pytest.mark.parametrize("eps_p,b_in,c1_in,cost,nodes", [
        # nodes when only complete schedules were laid out: 90 and 105
        (0.001, 20.1, 6.1, 97.755, 30),
        (1.0, 20.1, 6.1, 152.7, 34),  # the layout sum also bounds the cost
    ], ids=["events", "positioning-weight-1"])
    def test_pair_that_never_fits_together(self, eps_p, b_in, c1_in, cost, nodes):
        # b waits for a to leave; below the roll-in times of b inside a's stay
        # the small requests are no longer enumerated
        res = exact.solve_exact(never_together(eps_p))
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        placed = {a.aircraft_id: (a.x, a.y, a.roll_in, a.roll_out)
                  for a in res.solution.assignments if a.accept}
        assert placed == {"a": (20.0, 5.0, 0.0, 20.0),
                          "b": (5.0, 5.0, b_in, pytest.approx(b_in + 20.0)),
                          "c0": (5.0, 5.0, 2.0, 6.0),
                          "c1": (5.0, 5.0, c1_in, pytest.approx(c1_in + 4.0))}
        assert res.cost.total == pytest.approx(cost, abs=1e-9)
        assert res.nodes_explored == nodes


#: Oracle node counts on instgen instances with tenfold rejection penalties:
#: (hangar, n_future, n_current, seed, congestion, nodes).
NODE_PINS = [
    (HangarConfig(), 4, 2, 23, 1.0, 137),
    (HangarConfig(), 4, 0, 3, 1.0, 131),
    (HangarConfig(hw=120, hl=100), 4, 1, 7, 1.0, 306),
    (HangarConfig(hw=120, hl=100), 3, 2, 2, 0.2, 75),
]


class TestCarriedOptions:
    """Each accept branch carries its prefix's separation options and builds
    only the pairs of the aircraft it adds.  Merged by key, they keep the
    search order of options built at once, so node counts, and with them the
    meaning of a node budget, do not depend on how the options were built."""

    @settings(max_examples=30, deadline=timedelta(seconds=20))
    @given(n=st.integers(1, 4), n_current=st.integers(0, 2),
           congestion=st.sampled_from([0.2, 1.0]),
           multiplier=st.sampled_from([1.0, 10.0]),
           seed=st.integers(0, 2**31 - 1), data=st.data())
    def test_merged_aircraft_by_aircraft(self, n, n_current, congestion, multiplier,
                                         seed, data):
        inst = _generate(n, n_current, congestion, multiplier, seed)
        fixed = ach._commit_current(inst)
        free = _drawn_stays(inst, data)
        options = []
        for j in range(len(free)):
            options = sorted(options + exact._pair_options(inst.hangar, free[:j + 1], fixed, j))
        assert options == exact._pair_options(inst.hangar, free, fixed, 0)

    @pytest.mark.parametrize("hangar,n,n_current,seed,congestion,nodes", NODE_PINS)
    def test_node_counts(self, hangar, n, n_current, seed, congestion, nodes):
        inst = instgen.generate(instgen.GeneratorConfig(
            n_future=n, n_current=n_current, seed=seed, hangar=hangar,
            congestion=congestion, rejection_multiplier=10.0))
        res = exact.solve_exact(inst)
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        assert res.nodes_explored == nodes


class TestNeverBelowParked:
    """``core.presence`` starts a parked stay before 0, so a request present
    with a parked aircraft rolls in during its stay, and may not be laid out
    below it: ``_pair_options`` offers no such option."""

    @settings(max_examples=30, deadline=timedelta(seconds=20))
    @given(n=st.integers(1, 4), n_current=st.integers(1, 2),
           congestion=st.sampled_from([0.2, 1.0]),
           multiplier=st.sampled_from([1.0, 10.0]),
           seed=st.integers(0, 2**31 - 1), at_zero=st.booleans(), data=st.data())
    def test_copresent_request_moves_inside_the_parked_stay(self, n, n_current, congestion,
                                                            multiplier, seed, at_zero, data):
        inst = _generate(n, n_current, congestion, multiplier, seed)
        fixed = ach._commit_current(inst)
        free = _drawn_stays(inst, data)
        if at_zero:
            # the same stays from a roll-in at 0, where the parked stays must
            # already be open; the rule reads no eta
            free = [(spec, 0.0, roll_out - roll_in) for spec, roll_in, roll_out in free]
        for spec, roll_in, roll_out in free:
            for c, asg in fixed:
                stay = presence(c, asg.roll_in, asg.roll_out)
                if intervals_overlap((roll_in, roll_out), stay):
                    assert window_blocks(stay, movement_times(spec, roll_in, roll_out))


class TestCarriedWalls:
    """Each aircraft's walls are computed once, where it is branched on, and
    carried down with the options.  An aircraft with no grid cell is only
    branched on as rejected: every accept branch of it would end in no
    layout before its first node, so node counts do not change."""

    @pytest.mark.parametrize("width,length", [(70.0, 20.0), (20.0, 70.0)],
                             ids=["wider", "longer"])
    @pytest.mark.parametrize("with_fitting,nodes,cost", [(False, 2, 900.0),
                                                         (True, 6, 900.035)],
                             ids=["alone", "with-fitting"])
    def test_no_cell_request_never_laid_out(self, width, length, with_fitting, nodes, cost):
        parked = make_current("c", width=20.0, length=20.0, service=50.0, etd=60.0)
        future = [make_future("f", width=width, length=length, eta=10.0, service=50.0,
                              etd=100.0, p_rej=900.0)]
        if with_fitting:
            future.append(make_future("g", width=20.0, length=20.0, eta=10.0, service=50.0,
                                      etd=100.0, p_rej=900.0))
        inst = make_instance(future=future, current=[parked])
        with mock.patch.object(exact, "_min_positioning",
                               wraps=exact._min_positioning) as spy:
            res = exact.solve_exact(inst)
        assert all(spec.id != "f" for call in spy.call_args_list for spec, _, _ in call.args[1])
        assert spy.called == with_fitting
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        assert res.nodes_explored == nodes
        assert res.cost.total == pytest.approx(cost, abs=1e-9)
        placed = {a.aircraft_id: (a.x, a.y, a.roll_in, a.roll_out)
                  for a in res.solution.assignments if a.accept}
        want = {"c": (5.0, 5.0, 0.0, 50.0)}
        if with_fitting:
            want["g"] = (30.0, 5.0, 10.0, 60.0)
        assert placed == want


class TestHorizon:
    """Up to the horizon bound of 1e9 h a float step stays inside TOL, so
    both solvers' plans validate on instances shifted that late."""

    @settings(max_examples=10, deadline=timedelta(seconds=20))
    @given(n=st.integers(1, 3), n_current=st.integers(0, 2),
           congestion=st.sampled_from([0.2, 1.0]), seed=st.integers(0, 2**31 - 1),
           share=st.floats(0.0, 1.0))
    def test_shifted_plans_validate(self, n, n_current, congestion, seed, share):
        inst = _generate(n, n_current, congestion, 1.0, seed)
        offset = share * (MAX_HORIZON - derive_big_m(inst)[0] - 1.0)
        shifted = replace(inst, future=tuple(
            replace(f, eta=f.eta + offset, etd=f.etd + offset) for f in inst.future))
        for solution in (ach.solve(shifted), exact.solve_exact(shifted).solution):
            assert validator.validate(shifted, solution).feasible


class TestNoCyclicGarbage:
    """The searches are plain recursive functions over explicit arguments, so
    a call leaves nothing for the cyclic collector: reference counting frees
    all it drops."""

    @pytest.mark.parametrize("n_current,config", [
        (0, exact.OracleConfig()),
        (2, exact.OracleConfig()),
        (0, exact.OracleConfig(node_budget=3)),
    ], ids=["oracle-family", "parked", "budget-stop"])
    def test_no_cyclic_garbage(self, collector, n_current, config):
        inst = _generate(4, n_current, 0.2, 1.0, 7_400_000)
        exact.solve_exact(inst, config)  # warm-up: caches filled on first use are not garbage
        gc.disable()
        gc.collect()
        res = exact.solve_exact(inst, config)
        assert gc.collect() == 0
        assert res.status is (exact.OracleStatus.BUDGET_EXHAUSTED if config.node_budget == 3
                              else exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID)


class TestPlanComposedOnce:
    """The incumbent is kept as a schedule and a layout; the plan is composed,
    validated and costed once, when the search ends, whatever ended it."""

    @pytest.mark.parametrize("inst,config,status", [
        # two incumbents before the optimum
        (_generate(4, 0, 0.2, 1.0, 7_400_007), exact.OracleConfig(),
         exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID),
        (_generate(4, 0, 0.2, 1.0, 7_400_007), exact.OracleConfig(node_budget=3),
         exact.OracleStatus.BUDGET_EXHAUSTED),
        # placing the request costs 0.01 in positioning, more than rejecting it
        (make_instance(future=[make_future("a", p_rej=0.001)]), exact.OracleConfig(),
         exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID),
    ], ids=["optimum", "budget-stop", "reject-all"])
    def test_validated_once(self, inst, config, status):
        with mock.patch.object(exact.validator, "validate", wraps=validator.validate) as spy:
            res = exact.solve_exact(inst, config)
        assert spy.call_count == 1
        assert res.status is status
        assert res.cost == validator.validate(inst, res.solution).cost

    def test_equal_costs_go_to_the_smallest_plan_in_instance_order(self):
        # three identical requests, each filling the hangar for the whole
        # window: the plans that accept one cost the same, and the one that
        # accepts b, listed first, has the smallest (0|1, x, y, in, out) key
        inst = make_instance(future=[
            make_future(aid, width=45.0, length=48.0, eta=0.0, etd=100.0, service=100.0,
                        p_dep=20.0, p_rej=10.0, p_arr=10.0) for aid in "bac"])
        assert [a.id for a in ach.prioritize(inst)] == ["a", "b", "c"]
        res = exact.solve_exact(inst)
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        assert [a.aircraft_id for a in res.solution.assignments if a.accept] == ["b"]
        assert res.cost.total == pytest.approx(20.01)
        assert res.nodes_explored == 19


def parked_beside(step, parked_width, request_width):
    """A request of width ``request_width`` next to a parked aircraft of width
    ``parked_width`` at (5, 5), in the default hangar on a grid of ``step``: 50
    m long, the parked aircraft leaves no room above or below it."""
    c = make_current("c", width=parked_width, length=50.0, service=100.0, etd=200.0)
    f = make_future("f", width=request_width, length=30.0, eta=10.0, service=50.0,
                    etd=200.0, p_rej=900.0, p_arr=10.0, p_dep=20.0)
    return make_instance(current=[c], future=[f], hangar=HangarConfig(grid_step=step))


#: Nudges of a grid multiple around the TOL of the bound and separation tests;
#: two of them can add up to TOL exactly.
NUDGES = [-2e-6, -1.5e-6, -1e-6, -5e-7, 0.0, 5e-7, 9.9e-7, 1e-6, 1.5e-6, 2e-6]


def _length(step, lo, hi):
    """A length in [lo, hi] that is off the grid of ``step``: any float, or a
    grid multiple moved by one of NUDGES."""
    near = st.builds(lambda k, d: k * step + d,
                     st.integers(math.ceil(lo / step), math.floor(hi / step)),
                     st.sampled_from(NUDGES))
    return st.floats(lo, hi) | near.filter(lambda v: lo <= v <= hi)


class TestSharedGrid:
    """``ach`` and the oracle search the one grid of ``core.grid`` and
    ``core.snap_up``, whose slack GRID_TOL lies just inside the validator's
    TOL: every ``ach`` plan validates, and a proven oracle optimum is never
    worse than it."""

    def test_request_past_the_wall_by_more_than_tol_is_rejected(self):
        # at x = 35, the first cell clear of the parked aircraft, the request
        # passes the wall (65 - 5 - 25.0000015) by 1.5e-6 m
        inst = parked_beside(2.0, 24.0, 25.0000015)
        sol = ach.solve(inst)
        assert validator.validate(inst, sol).feasible
        assert not sol.by_id()["f"].accept
        res = exact.solve_exact(inst)
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        assert res.cost.total <= evaluate_cost(inst, sol).total + 1e-9

    def test_gap_short_of_a_cell_by_less_than_tol_snaps_down(self):
        # the parked aircraft ends 5e-7 m past x = 25, so the separated cell
        # x = 30 is 5e-7 m short of the buffer: within TOL, as ach finds
        inst = parked_beside(1.0, 20.0000005, 20.0)
        sol = ach.solve(inst)
        assert validator.validate(inst, sol).feasible
        assert sol.by_id()["f"].x == 30.0
        res = exact.solve_exact(inst)
        assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        assert res.solution.by_id()["f"].x == 30.0
        assert res.cost.total == pytest.approx(0.035, abs=1e-12)
        assert res.cost.total == evaluate_cost(inst, sol).total

    @settings(max_examples=200, deadline=timedelta(seconds=20))
    @given(step=st.sampled_from([0.5, 0.7, 1.0, 2.0, 2.3]), n_parked=st.integers(1, 2),
           n=st.integers(1, 3), data=st.data())
    def test_oracle_never_worse_than_ach_off_the_grid(self, step, n_parked, n, data):
        h = HangarConfig(grid_step=step)
        parked = []
        for k in range(n_parked):
            width = data.draw(_length(step, 5.0, 40.0))
            length = data.draw(_length(step, 5.0, 40.0))
            x = data.draw(_length(step, h.buffer, h.hw - h.buffer - width))
            y = data.draw(_length(step, h.buffer, h.hl - h.buffer - length))
            parked.append(make_current(f"c{k}", width=width, length=length, x=x, y=y,
                                       service=data.draw(st.integers(10, 150))))
        future = [make_future(f"f{k}", width=data.draw(_length(step, 5.0, 40.0)),
                              length=data.draw(_length(step, 5.0, 40.0)),
                              eta=data.draw(st.integers(0, 100)),
                              service=data.draw(st.integers(10, 80)),
                              p_rej=900.0, p_arr=10.0)
                  for k in range(n)]
        try:
            inst = make_instance(current=parked, future=future, hangar=h)
        except ValueError:  # parked aircraft out of bounds or overlapping
            assume(False)
        sol = ach.solve(inst)
        assert validator.validate(inst, sol).feasible
        res = exact.solve_exact(inst)
        if res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID:
            assert res.cost.total <= evaluate_cost(inst, sol).total + 1e-9
