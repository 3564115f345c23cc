"""Domain types, geometry predicates, Big-M derivation, and cost evaluation."""

import math
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hangarplan.core import (
    GRID_TOL,
    MAX_HORIZON,
    MAX_LENGTH,
    TOL,
    AircraftSpec,
    Assignment,
    HangarConfig,
    Instance,
    Kind,
    MissingAssignment,
    Provenance,
    Solution,
    axis_separated,
    derive_big_m,
    evaluate_cost,
    first_free_cells,
    grid,
    intervals_overlap,
    lanes_overlap,
    movement_times,
    next_separated,
    separated,
    snap_up,
    window_blocks,
    x_separated,
)

from conftest import (
    accept,
    make_current,
    make_future,
    make_instance,
    manual_solution,
    rects_separated,
)


class TestAircraftSpec:
    def test_future_requires_penalties(self):
        with pytest.raises(ValueError):
            AircraftSpec(id="a", kind=Kind.FUTURE, width=10, length=10,
                         eta=0, etd=130, service=100)

    def test_current_requires_initial_position(self):
        with pytest.raises(ValueError):
            AircraftSpec(id="c", kind=Kind.CURRENT, width=10, length=10,
                         eta=0, etd=130, service=100)

    def test_future_must_not_carry_position(self):
        with pytest.raises(ValueError):
            make_future("a").__class__(
                id="a", kind=Kind.FUTURE, width=10, length=10, eta=0, etd=130,
                service=100, p_rej=800, p_arr=10, x_init=5.0, y_init=5.0)

    @pytest.mark.parametrize("bad", [
        dict(width=0.0), dict(length=-1.0), dict(service=0.0), dict(eta=-1.0),
    ])
    def test_invalid_scalars(self, bad):
        kwargs = dict(width=10.0, length=10.0, eta=0.0, service=100.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            make_future("a", **kwargs)

    @pytest.mark.parametrize("field", ["p_dep", "p_rej", "p_arr"])
    def test_negative_penalty(self, field):
        # a negative p_dep pays a plan for staying late, so no plan is
        # optimal, and the solvers' bounds assume non-negative cost terms
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            make_future("a", **{field: -20.0})
        make_future("a", **{field: 0.0})
        with pytest.raises(ValueError, match="p_dep must be non-negative"):
            make_current("c", p_dep=-1.0)


class TestHangarConfig:
    def test_defaults(self):
        h = HangarConfig()
        assert (h.hw, h.hl, h.buffer) == (65.0, 60.0, 5.0)
        assert (h.eps_t, h.eps_p, h.grid_step) == (0.1, 0.001, 1.0)

    @pytest.mark.parametrize("bad", [
        dict(hw=0), dict(hl=-1), dict(buffer=-1), dict(eps_t=0),
        dict(eps_p=-0.1), dict(grid_step=0), dict(grid_step=1e-9),
        dict(grid_step=5e-324),
        dict(eps_t=1e-12), dict(eps_t=2e-6),  # at most 2*TOL
    ])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            HangarConfig(**bad)

    def test_grid_cell_bound(self):
        HangarConfig(hw=999.0, hl=999.0, grid_step=1.0)  # 1000 x 1000 cells
        with pytest.raises(ValueError, match="grid cells"):
            HangarConfig(hw=1000.0, hl=999.0, grid_step=1.0)


class TestInstance:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            make_instance(future=[make_future("a"), make_future("a")])

    def test_kind_list_mismatch(self):
        with pytest.raises(ValueError):
            Instance(hangar=HangarConfig(), current=(make_future("a"),))

    def test_current_out_of_bounds(self):
        with pytest.raises(ValueError):
            make_instance(current=[make_current("c", x=0.0, y=5.0)])

    def test_current_overlap(self):
        with pytest.raises(ValueError):
            make_instance(current=[make_current("c1", x=5, y=5),
                                   make_current("c2", x=6, y=6)])

    def test_current_overlap_as_the_validator_rounds_it(self):
        # 22.4999985 - (6.4999985 + 11.000001 + 5) rounds to -1.000000001e-6,
        # past -TOL, though 6.4999985 + 11.000001 + 5 <= 22.4999985 + TOL
        with pytest.raises(ValueError, match="buffered separation"):
            make_instance(current=[
                make_current("c0", width=5.0, length=11.000001, x=5.0, y=6.4999985),
                make_current("c1", width=5.0, length=5.0, x=5.0, y=22.4999985)])

    def test_request_service_shorter_than_eps_t(self):
        # the rows and both solvers separate only the movements of two
        # different aircraft, so one stay must keep eps_t on its own
        with pytest.raises(ValueError, match="shorter than eps_t"):
            make_instance(future=[make_future("a", service=0.05)])
        make_instance(future=[make_future("a", service=0.1 - 1e-7)])
        # a parked aircraft moves only once
        make_instance(current=[make_current("c", service=0.05)])

    def test_time_horizon_bound(self):
        # M_T = eta + (service + 2 eps_t) + eps_t; past 1e9 h a float step
        # nears TOL, so the instance is refused
        def request_at(eta):
            return make_instance(future=[make_future("a", eta=eta, service=100.0)])

        eta = MAX_HORIZON - 100.3
        assert MAX_HORIZON - 2e-3 < derive_big_m(request_at(eta - 1e-3))[0] <= MAX_HORIZON
        with pytest.raises(ValueError, match="time horizon"):
            request_at(eta + 1e-3)
        with pytest.raises(ValueError, match="time horizon"):
            request_at(1e308)

    def test_length_bound(self):
        # past 1e9 m a float step nears TOL, as past the time horizon bound
        past = MAX_LENGTH * (1 + 1e-15)
        make_instance(future=[make_future("a", width=MAX_LENGTH)])
        for field, make in [
                ("width", lambda: make_future("a", width=past)),
                ("length", lambda: make_future("a", length=-past)),
                ("x_init", lambda: make_current("c", x=-past)),
                ("y_init", lambda: make_current("c", y=past)),
                ("hw", lambda: HangarConfig(hw=past)),
                ("hl", lambda: HangarConfig(hl=past)),
                ("buffer", lambda: HangarConfig(buffer=past))]:
            with pytest.raises(ValueError, match=f"{field} .* m exceeds 1e\\+09 m"):
                make()
        for field in ("x", "y"):
            with pytest.raises(ValueError, match=f"a: {field} .* m exceeds 1e\\+09 m"):
                Solution("", (Assignment("a", True, **{field: -past}),))

    @pytest.mark.parametrize("field, records", [
        # at k = 1 the term is 1e308, at k = 2 it passes the largest float
        ("p_rej", lambda k: {"future": [make_future("a", p_rej=k * 0.5e308),
                                        make_future("b", p_rej=k * 0.5e308, eta=200.0)]}),
        ("p_arr", lambda k: {"future": [make_future("a", p_arr=k * (1e308 / MAX_HORIZON))]}),
        ("p_dep", lambda k: {"current": [make_current("c", p_dep=k * (1e308 / MAX_HORIZON))]}),
        ("p_dep", lambda k: {"current": [make_current("c", p_dep=k, etd=-1e308)]}),
        ("eps_p", lambda k: {"future": [make_future("a")],
                             "hangar": HangarConfig(eps_p=k * (0.5e308 / MAX_LENGTH))}),
    ])
    def test_worst_case_cost_bound(self, field, records):
        # no plan's cost passes the worst case, which must be finite
        make_instance(**records(1.0))
        with pytest.raises(ValueError, match=f"not finite once the {field} term"):
            make_instance(**records(2.0))

    def test_lookup(self):
        inst = make_instance(future=[make_future("a")], current=[make_current("c")])
        assert [a.id for a in inst.all_aircraft()] == ["c", "a"]
        assert [a.kind for a in inst.all_aircraft()] == [Kind.CURRENT, Kind.FUTURE]


class TestGeometry:
    def test_x_separated_exact_buffer(self):
        # b at [0, 10], buffer 5: a at 15 is the first separated coordinate
        assert x_separated(15.0, 0.0, 10.0, 5.0)
        assert not x_separated(14.9, 0.0, 10.0, 5.0)

    def test_axis_separated_symmetric(self):
        assert axis_separated(0.0, 10.0, 15.0, 10.0, 5.0)
        assert axis_separated(15.0, 10.0, 0.0, 10.0, 5.0)
        assert not axis_separated(0.0, 10.0, 14.0, 10.0, 5.0)

    def test_rects_separated_one_axis_suffices(self):
        assert rects_separated(0, 0, 10, 10, 15, 0, 10, 10, 5)
        assert rects_separated(0, 0, 10, 10, 0, 15, 10, 10, 5)
        assert not rects_separated(0, 0, 10, 10, 14, 14, 10, 10, 5)

    def test_lanes_overlap(self):
        assert lanes_overlap(0.0, 10.0, 14.0, 10.0, 5.0)
        assert not lanes_overlap(0.0, 10.0, 15.0, 10.0, 5.0)

    def test_is_above(self):
        # on the y axis x_separated reads "sits fully above": over an
        # aircraft at [10, 32] with buffer 5, y = 37 is the first such cell
        assert x_separated(37.0, 10.0, 22.0, 5.0)
        assert not x_separated(36.0, 10.0, 22.0, 5.0)

    def test_intervals_overlap_open(self):
        assert intervals_overlap((0.0, 10.0), (5.0, 15.0))
        # touching endpoints share no positive-measure time
        assert not intervals_overlap((0.0, 10.0), (10.0, 20.0))
        assert not intervals_overlap((0.0, 10.0), (20.0, 30.0))



class TestPlacementGrid:
    """The one placement grid of the heuristic and the oracle."""

    def test_grid_cells(self):
        assert grid(5.0, 36.0, 2.0) == [5.0 + 2.0 * k for k in range(16)]
        assert grid(5.0, 5.0, 2.0) == [5.0]
        assert grid(5.0, 5.0 - 2 * TOL, 2.0) == []
        assert grid(5.0, 60.0 - 1e308, 1.0) == []  # a 1e308 m wide aircraft

    def test_grid_last_cell_within_tol_of_the_wall(self):
        # at step 2, a wall 1.5e-6 m below the cell 35 leaves it out; one
        # 0.5e-6 m below keeps it, as the validator's bound test does
        assert grid(5.0, 35.0 - 1.5e-6, 2.0)[-1] == 33.0
        assert grid(5.0, 35.0 - 0.5e-6, 2.0)[-1] == 35.0

    def test_snap_up(self):
        assert snap_up(30.0 + 9.9e-7, 5.0, 1.0) == 30.0  # just under 1e-6 above the cell
        assert snap_up(30.0 + 1.5e-6, 5.0, 1.0) == 31.0
        assert snap_up(30.0, 5.0, 1.0) == 30.0
        assert snap_up(-3.0, 5.0, 1.0) == 5.0

    @pytest.mark.parametrize("step", [0.5, 0.7, 1.0, 2.0, 2.3])
    def test_snap_up_is_the_first_grid_cell_not_below(self, step):
        cells = grid(5.0, 60.0, step)
        for cell in cells[:-1]:
            for nudge in (-2e-6, -1e-6, -5e-7, 0.0, 5e-7, 1e-6, 2e-6, 0.3 * step):
                value = cell + nudge
                assert snap_up(value, 5.0, step) == [c for c in cells if c >= value - GRID_TOL][0]


def free_cells(rects, nx, ny):
    """Every cell of the nx x ny grid, as (row, col), that no rectangle bars."""
    return [(row, col) for row in range(ny) for col in range(nx)
            if not any(row_lo <= row < row_hi and col_lo <= col < col_hi
                       for row_lo, row_hi, col_lo, col_hi in rects)]


@st.composite
def barred_grids(draw):
    """Up to 6 rectangles on a grid of up to 8 x 8 cells, in no order: runs
    of indices up to 10, so some are empty or inverted and some pass the
    grid; and ascending axes whose steps round."""
    nx, ny = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    index = st.integers(0, 10)
    rects = draw(st.lists(st.tuples(index, index, index, index), max_size=6))
    steps = st.sampled_from([0.1, 0.7, 1.0, 3.7])
    step_x, step_y = draw(steps), draw(steps)
    xs = [5.0 + step_x * k for k in range(nx)]
    ys = [5.0 + step_y * k for k in range(ny)]
    return rects, xs, ys


class TestFirstFreeCells:
    """``core.first_free_cells`` against a scan of every cell."""

    @settings(max_examples=300, deadline=None)
    @given(query=barred_grids())
    @example(query=([], [], [5.0, 6.0]))  # no column
    @example(query=([], [5.0, 6.0], []))  # no row
    @example(query=([(2, 1, 0, 2), (0, 2, 2, 1)], [5.0, 6.0], [5.0, 6.0]))  # inverted runs
    @example(query=([(0, 9, 0, 1), (1, 9, 1, 9)], [5.0, 6.0], [5.0, 6.0]))  # past the grid
    def test_matches_per_cell_scan(self, query):
        rects, xs, ys = query
        free = free_cells(rects, len(xs), len(ys))
        found = first_free_cells(list(rects), len(xs), len(ys))
        assert set(found) <= set(free)
        # the first fit of instgen's packing and the least score of ach's scan
        assert min(found, default=None) == min(free, default=None)
        assert min((xs[c] + ys[r] for r, c in found), default=None) == \
            min((xs[c] + ys[r] for r, c in free), default=None)


class TestMovementRules:
    """The solver-side movement rules shared by the heuristic and the oracle."""

    def test_movement_times_exempt_current_roll_in(self):
        assert movement_times(make_future("a"), 2.0, 102.0) == [2.0, 102.0]
        assert movement_times(make_current("c"), 0.0, 100.0) == [100.0]

    def test_separated_exactly_eps_t_apart(self):
        assert separated(1.1, [1.0], 0.1)
        assert separated(0.9, [1.0], 0.1)
        assert separated(1.1, [1.0, 1.2], 0.1)

    def test_separated_just_inside_tolerance(self):
        # eps_t - TOL/2 still counts as separated; eps_t - 2 TOL does not
        assert separated(1.0 + 0.1 - TOL / 2, [1.0], 0.1)
        assert separated(1.0 - 0.1 + TOL / 2, [1.0], 0.1)
        assert not separated(1.0 + 0.1 - 2 * TOL, [1.0], 0.1)
        assert not separated(1.05, [0.0, 1.0, 2.0], 0.1)

    def test_separated_checks_both_neighbours(self):
        events = [0.0, 1.0, 1.15, 5.0]
        assert not separated(1.07, events, 0.1)  # close to the right neighbour only
        assert not separated(1.22, events, 0.1)  # close to the left neighbour only
        assert separated(1.25, events, 0.1)
        assert separated(3.0, [], 0.1)

    def test_next_separated_steps_in_eps_t(self):
        assert next_separated(2.0, [], 0.1) == 2.0
        assert next_separated(1.0, [1.0], 0.1) == pytest.approx(1.1)
        assert next_separated(1.0, [1.0, 1.1], 0.1) == pytest.approx(1.2)
        # a start eps_t - TOL/2 past an event is already separated
        assert next_separated(1.1 - TOL / 2, [1.0], 0.1) == 1.1 - TOL / 2

    def test_window_blocks_strict_interior(self):
        assert window_blocks((0.0, 10.0), [5.0])
        assert window_blocks((0.0, 10.0), [20.0, 5.0])
        # a movement at either edge of the window is not blocked
        assert not window_blocks((0.0, 10.0), [0.0, 10.0])
        assert not window_blocks((0.0, 10.0), [TOL / 2, 10.0 - TOL / 2])
        assert window_blocks((0.0, 10.0), [2 * TOL])
        assert not window_blocks((0.0, 10.0), [])

    def test_window_blocks_current_roll_in_exempt(self):
        # a window around t = 0 blocks a future roll-in there, but a current
        # aircraft is already parked at t = 0 and only moves to leave
        window = (-1.0, 50.0)
        current = make_current("c", service=100.0)
        assert not window_blocks(window, movement_times(current, 0.0, 100.0))
        assert window_blocks(window, movement_times(current, 0.0, 40.0))
        assert window_blocks(window, movement_times(make_future("f"), 0.0, 100.0))


def _separated_reference(t, events, eps_t):
    """``separated`` as a generator over the two bisect neighbours."""
    i = bisect_left(events, t)
    return all(abs(e - t) >= eps_t - TOL for e in events[max(0, i - 1):i + 1])


def _window_blocks_reference(window, moves):
    """``window_blocks`` as a generator over the movements."""
    return any(window[0] < e - TOL and e < window[1] - TOL for e in moves)


#: Offsets around a boundary of the tolerance tests.
NEAR = [0.0, TOL, -TOL, TOL / 2, -TOL / 2, 2 * TOL, -2 * TOL]

#: Times: any float, one on the 0.1 h lattice of the solvers' roll-ins, or
#: one within 1e-5 h of 0, where ``w + TOL < e`` and ``w < e - TOL`` can
#: round apart.
TIMES = (st.floats(0.0, 1e4) | st.integers(0, 10**5).map(lambda k: k * 0.1)
         | st.floats(0.0, 1e-5))


def _ulps(value, k):
    """value moved k ulps."""
    for _ in range(abs(k)):
        value = math.nextafter(value, math.copysign(math.inf, k))
    return value


def _near(base, gap):
    """base - (gap + d) and base + (gap + d) for every d in NEAR, each also
    moved up to 2 ulps either way."""
    return [_ulps(base + sign * (gap + d), k)
            for sign in (-1.0, 1.0) for d in NEAR for k in range(-2, 3)]


@st.composite
def _with_duplicates(draw, values):
    """``values`` plus a drawn repeat of some of them, sorted."""
    values = draw(values)
    repeats = draw(st.lists(st.sampled_from(values), max_size=3)) if values else []
    return sorted(values + repeats)


class TestKernelEquivalence:
    """``separated`` and ``window_blocks`` return exactly what their
    generator forms return, at and around every tolerance boundary: for each
    time near one on its own, then for a drawn list of them."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), t=TIMES, eps_t=st.sampled_from([0.1, 0.7, 1.0, 2.3]))
    def test_separated(self, data, t, eps_t):
        near = _near(t, eps_t)
        for e in near:
            assert separated(t, [e], eps_t) is _separated_reference(t, [e], eps_t)
        anywhere = st.floats(t - 3 * eps_t, t + 3 * eps_t) | st.just(t)
        events = data.draw(_with_duplicates(
            st.lists(st.sampled_from(near) | anywhere, max_size=3)))
        assert separated(t, events, eps_t) is _separated_reference(t, events, eps_t)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), start=TIMES,
           length=st.floats(0.0, 500.0) | st.sampled_from([TOL, 2 * TOL, 3 * TOL]))
    def test_window_blocks(self, data, start, length):
        window = (start, start + length)
        near = _near(window[0], 0.0) + _near(window[1], 0.0)
        for e in near:
            assert window_blocks(window, [e]) is _window_blocks_reference(window, [e])
        anywhere = st.floats(start - 10.0, start + length + 10.0)
        moves = data.draw(_with_duplicates(
            st.lists(st.sampled_from(near) | anywhere, max_size=2)))
        assert window_blocks(window, moves) is _window_blocks_reference(window, moves)


class TestBigM:
    def test_empty_instance(self):
        inst = make_instance()
        assert derive_big_m(inst) == (pytest.approx(0.1), 65.0, 60.0)

    def test_time_constant_is_latest_eta_plus_all_stays_and_spacings(self):
        # max eta + sum of (service + 2 eps_t) + eps_t, at eps_t = 0.1
        inst = make_instance(
            future=[make_future("a", eta=50.0, service=100.0),
                    make_future("b", eta=200.0, service=300.0)],
            current=[make_current("c", service=80.0)])
        m_t, m_x, m_y = derive_big_m(inst)
        assert m_t == pytest.approx(200.0 + 100.0 + 300.0 + 80.0 + 3 * 0.2 + 0.1)
        assert (m_x, m_y) == (65.0, 60.0)

    def test_distance_constants_cover_an_aircraft_larger_than_the_hangar(self):
        inst = make_instance(future=[make_future("a", width=70.0, length=20.0),
                                     make_future("b", width=20.0, length=58.0)])
        _, m_x, m_y = derive_big_m(inst)
        assert (m_x, m_y) == (75.0, 63.0)


class TestEvaluateCost:
    def test_all_rejected(self):
        inst = make_instance(future=[make_future("a", p_rej=700.0),
                                     make_future("b", p_rej=900.0)])
        sol = manual_solution(inst, {})
        cost = evaluate_cost(inst, sol)
        assert cost.rejection == pytest.approx(1600.0)
        assert cost.total == pytest.approx(1600.0)

    def test_delays_recomputed_not_read(self):
        f = make_future("a", eta=10.0, service=100.0, slack=20.0)
        inst = make_instance(future=[f])
        # stored d_arr/d_dep are wrong on purpose; evaluator must ignore them
        asg = Assignment("a", True, x=5.0, y=5.0, roll_in=15.0, roll_out=140.0,
                         d_arr=99.0, d_dep=99.0)
        cost = evaluate_cost(inst, manual_solution(inst, {"a": asg}))
        assert cost.arrival_delay == pytest.approx(10.0 * 5.0)
        assert cost.departure_delay == pytest.approx(20.0 * (140.0 - 130.0))
        assert cost.positioning == pytest.approx(0.001 * 10.0)
        assert cost.total == pytest.approx(50.0 + 200.0 + 0.01)

    def test_current_positioning_not_charged(self):
        c = make_current("c", x=20.0, y=20.0, service=100.0)
        inst = make_instance(current=[c])
        sol = manual_solution(inst, {"c": accept("c", 20.0, 20.0, 0.0, 100.0,
                                                 etd=c.etd)})
        assert evaluate_cost(inst, sol).total == pytest.approx(0.0)

    def test_missing_assignment(self):
        inst = make_instance(future=[make_future("a")])
        sol = Solution(instance_label="x", assignments=())
        with pytest.raises(MissingAssignment):
            evaluate_cost(inst, sol)

    def test_total_is_sum_of_components(self):
        f = make_future("a", eta=0.0, service=100.0)
        inst = make_instance(future=[f])
        sol = manual_solution(inst, {"a": accept("a", 7.0, 9.0, 2.0, 140.0,
                                                 eta=f.eta, etd=f.etd)})
        c = evaluate_cost(inst, sol)
        assert c.total == pytest.approx(
            c.rejection + c.arrival_delay + c.departure_delay + c.positioning)


class TestSolutionCompose:
    def test_instance_order_and_rejections(self):
        c = make_current("c")
        fb = make_future("b", eta=150.0)
        inst = make_instance(future=[make_future("a"), fb, make_future("z")], current=[c],
                             label="plan-7")
        placed = [accept("b", 5.0, 5.0, 150.0, 250.0, eta=fb.eta, etd=fb.etd),
                  accept("c", 5.0, 5.0, 0.0, 100.0, etd=c.etd)]
        sol = Solution.compose(inst, placed, Provenance.ORACLE)
        assert [a.aircraft_id for a in sol.assignments] == ["c", "a", "b", "z"]
        assert sol.assignments == (placed[1], Assignment("a", False), placed[0],
                                   Assignment("z", False))
        assert (sol.instance_label, sol.provenance) == ("plan-7", Provenance.ORACLE)


class TestSolutionTimes:
    """A plan holds no time past the horizon bound that instances keep."""

    @pytest.mark.parametrize("field", ["roll_in", "roll_out"])
    @pytest.mark.parametrize("accepted", [True, False])
    def test_time_past_the_horizon_bound(self, field, accepted):
        times = {"roll_in": 10.0, "roll_out": 110.0, field: MAX_HORIZON + 1.0}
        with pytest.raises(ValueError, match=rf"^a: {field} 1000000001.0 h exceeds 1e\+09 h"):
            Solution("plan", (Assignment("b", False), Assignment("a", accepted, **times)))

    def test_time_at_the_horizon_bound(self):
        sol = Solution("plan", (Assignment("a", True, roll_in=MAX_HORIZON - 1.0,
                                           roll_out=MAX_HORIZON),))
        assert sol.assignments[0].roll_out == MAX_HORIZON


def test_version_matches_pyproject():
    import hangarplan
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert hangarplan.__version__ == project["version"]
