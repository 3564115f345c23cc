"""Semantic feasibility checks: one directed fixture per violation kind,
the departure-deadlock scenario, and report mechanics."""

import pytest

from hangarplan import validator
from hangarplan.core import Assignment, MissingAssignment, Solution
from hangarplan.validator import ViolationKind

from conftest import (
    accept,
    directed_fixtures,
    make_current,
    make_future,
    make_instance,
    manual_solution,
)

FIXTURES = directed_fixtures()


class TestDirectedFixtures:
    @pytest.mark.parametrize("kind", list(ViolationKind), ids=lambda k: k.value)
    def test_each_kind_detected(self, kind):
        inst, sol = FIXTURES[kind]
        report = validator.validate(inst, sol)
        assert not report.feasible
        assert kind in {v.kind for v in report.violations}, \
            validator.explain(report)

    @pytest.mark.parametrize("kind", list(ViolationKind), ids=lambda k: k.value)
    def test_no_unrelated_violations(self, kind):
        # each fixture is minimal: it trips only its own rule (plus, for the
        # negative-time case, the implied early roll-in)
        inst, sol = FIXTURES[kind]
        report = validator.validate(inst, sol)
        allowed = {kind}
        if kind is ViolationKind.NEGATIVE_TIME:
            allowed.add(ViolationKind.EARLY_ROLL_IN)
        assert {v.kind for v in report.violations} <= allowed, \
            validator.explain(report)


class TestFeasibleCases:
    def test_empty_instance(self):
        inst = make_instance()
        report = validator.validate(inst, manual_solution(inst, {}))
        assert report.feasible
        assert report.cost.total == 0.0

    def test_all_rejected_is_feasible(self):
        inst = make_instance(future=[make_future("a"), make_future("b")])
        report = validator.validate(inst, manual_solution(inst, {}))
        assert report.feasible
        assert report.cost.rejection == pytest.approx(1600.0)

    def test_rejected_current_is_not_feasible(self):
        inst = make_instance(current=[make_current("c")])
        report = validator.validate(inst, manual_solution(inst, {}))
        assert not report.feasible
        assert report.violations[0].kind is ViolationKind.CURRENT_STATE_MISMATCH

    def test_clean_two_aircraft_plan(self):
        fa = make_future("a", eta=0.0, service=100.0)
        fb = make_future("b", eta=0.0, service=100.0)
        inst = make_instance(future=[fa, fb])
        sol = manual_solution(inst, {
            "a": accept("a", 5.0, 5.0, 0.0, 100.0, eta=fa.eta, etd=fa.etd),
            "b": accept("b", 36.0, 5.0, 0.2, 100.4, eta=fb.eta, etd=fb.etd)})
        report = validator.validate(inst, sol)
        assert report.feasible, validator.explain(report)


class TestParkedAtTimeZero:
    """A parked aircraft is in the hangar from before the plan starts, as the
    rows' fixed ``InIn`` has it."""

    def test_entry_at_zero_beneath_it_is_blocked(self):
        c = make_current("c", y=32.0, service=50.0)
        f = make_future("f", eta=0.0)
        inst = make_instance(current=[c], future=[f])
        report = validator.validate(inst, manual_solution(inst, {
            "c": accept("c", 5.0, 32.0, 0.0, 50.0, etd=c.etd),
            "f": accept("f", 5.0, 5.0, 0.0, 100.0, eta=f.eta, etd=f.etd)}))
        assert {v.kind for v in report.violations} == {ViolationKind.ENTRY_BLOCKED}

    def test_parked_beneath_parked_is_not_an_entry(self):
        c1 = make_current("c1", y=5.0, service=50.1)
        c2 = make_current("c2", y=32.0, service=50.0)
        inst = make_instance(current=[c1, c2])
        report = validator.validate(inst, manual_solution(inst, {
            "c1": accept("c1", 5.0, 5.0, 0.0, 50.1, etd=c1.etd),
            "c2": accept("c2", 5.0, 32.0, 0.0, 50.0, etd=c2.etd)}))
        assert report.feasible, validator.explain(report)


class TestDepartureDeadlock:
    """Lower aircraft with ETD 100 trapped behind an upper lane-mate that
    stays until 120: leaving on time is flagged, waiting out the blocker
    (plus one separation slot) is feasible."""

    def _instance(self):
        fa = make_future("a", eta=0.0, service=100.0, slack=0.0)   # ETD 100
        fb = make_future("b", eta=0.0, service=119.8, slack=10.0)
        return make_instance(future=[fa, fb]), fa, fb

    def _solution(self, inst, fa, fb, roll_out_a):
        return manual_solution(inst, {
            "a": accept("a", 5.0, 5.0, 0.0, roll_out_a, eta=fa.eta, etd=fa.etd),
            "b": accept("b", 5.0, 32.0, 0.2, 120.0, eta=fb.eta, etd=fb.etd)})

    def test_on_time_exit_is_blocked(self):
        inst, fa, fb = self._instance()
        report = validator.validate(inst, self._solution(inst, fa, fb, 100.0))
        assert not report.feasible
        kinds = {v.kind for v in report.violations}
        assert kinds == {ViolationKind.EXIT_BLOCKED}

    def test_delayed_exit_is_feasible(self):
        inst, fa, fb = self._instance()
        report = validator.validate(inst, self._solution(inst, fa, fb, 120.1))
        assert report.feasible, validator.explain(report)
        # the delay is charged against aircraft a's ETD of 100
        assert report.cost.departure_delay == pytest.approx(20.0 * 20.1)

    def test_exit_inside_blocker_window_still_blocked(self):
        inst, fa, fb = self._instance()
        report = validator.validate(inst, self._solution(inst, fa, fb, 110.0))
        assert ViolationKind.EXIT_BLOCKED in {v.kind for v in report.violations}


class TestReportMechanics:
    def test_missing_assignment_raises(self):
        inst = make_instance(future=[make_future("a")])
        sol = Solution(instance_label="x", assignments=())
        with pytest.raises(MissingAssignment):
            validator.validate(inst, sol)

    def test_missing_assignment_names_the_aircraft(self):
        inst = make_instance(future=[make_future("a"), make_future("b")])
        sol = Solution(instance_label="x",
                       assignments=(Assignment(aircraft_id="a", accept=False),))
        with pytest.raises(MissingAssignment) as exc:
            validator.validate(inst, sol)
        assert exc.value.args == ("b",)

    def test_all_violations_reported_not_just_first(self):
        f = make_future("a", eta=10.0, service=100.0)
        inst = make_instance(future=[f])
        sol = manual_solution(inst, {
            "a": Assignment("a", True, x=1.0, y=5.0, roll_in=5.0, roll_out=50.0)})
        report = validator.validate(inst, sol)
        kinds = {v.kind for v in report.violations}
        assert {ViolationKind.OUT_OF_BOUNDS, ViolationKind.EARLY_ROLL_IN,
                ViolationKind.SERVICE_TOO_SHORT} <= kinds

    def test_violations_sorted_deterministically(self):
        inst, sol = FIXTURES[ViolationKind.SPATIAL_OVERLAP]
        r1 = validator.validate(inst, sol)
        r2 = validator.validate(inst, sol)
        assert r1.violations == r2.violations

    def test_explain_feasible(self):
        inst = make_instance()
        assert validator.explain(validator.validate(inst, manual_solution(inst, {}))) == "feasible"

    def test_explain_lists_each_violation(self):
        inst, sol = FIXTURES[ViolationKind.OUT_OF_BOUNDS]
        text = validator.explain(validator.validate(inst, sol))
        assert "OutOfBounds" in text
        assert text.startswith("infeasible")
