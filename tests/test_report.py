"""Frame enumeration, SVG geometry, HTML report content, and determinism."""

import re

from hangarplan import ach, instgen, report, validator
from hangarplan.core import evaluate_cost

from conftest import accept, make_current, make_future, make_instance, manual_solution


def feasible_frames(inst, sol):
    """The drawn frames of a feasible plan, as ``cli render`` hands them to
    the renderers once the plan has passed validation."""
    assert validator.validate(inst, sol).feasible
    return report.draw_frames(inst, sol)


def cost_and_frames(inst, sol):
    """The cost and the drawn frames of a feasible plan."""
    return evaluate_cost(inst, sol), feasible_frames(inst, sol)


def simple_plan():
    f = make_future("a", eta=10.0, service=100.0)
    inst = make_instance(future=[f])
    sol = manual_solution(inst, {
        "a": accept("a", 5.0, 5.0, 10.0, 110.0, eta=f.eta, etd=f.etd)})
    return inst, sol


class TestFrameEnumeration:
    def test_empty_instance_single_frame(self):
        inst = make_instance()
        frames = report.build_frames(inst, manual_solution(inst, {}))
        assert len(frames) == 1
        assert frames[0].time == 0.0
        assert frames[0].parked == ()

    def test_single_aircraft_three_frames(self):
        inst, sol = simple_plan()
        frames = report.build_frames(inst, sol)
        assert [f.time for f in frames] == [0.0, 10.0, 110.0]
        assert frames[1].arriving == ("a",)
        assert frames[2].departing == ("a",)
        assert frames[0].parked == ()

    def test_frame_count_is_events_plus_initial(self):
        inst = instgen.generate(instgen.GeneratorConfig(
            n_future=5, n_current=1, seed=3))
        sol = ach.solve(inst)
        frames = report.build_frames(inst, sol)
        events = set()
        for a in sol.assignments:
            if a.accept:
                events.add(round(a.roll_in, 9))
                events.add(round(a.roll_out, 9))
        assert len(frames) == len(events | {0.0})

    def test_current_aircraft_not_marked_arriving(self):
        c = make_current("c", service=100.0)
        inst = make_instance(current=[c])
        sol = manual_solution(inst, {"c": accept("c", 5.0, 5.0, 0.0, 100.0,
                                                 etd=c.etd)})
        frames = report.build_frames(inst, sol)
        assert frames[0].arriving == ()
        assert frames[0].parked[0][0] == "c"


class TestRenderFrames:
    def test_files_named_by_index_and_time(self, tmp_path):
        inst, sol = simple_plan()
        paths = report.render_frames(feasible_frames(inst, sol), tmp_path)
        assert [p.name for p in paths] == [
            "frame_000_0.00.svg", "frame_001_10.00.svg", "frame_002_110.00.svg"]

    def test_rectangle_matches_assignment(self, tmp_path):
        inst, sol = simple_plan()
        paths = report.render_frames(feasible_frames(inst, sol), tmp_path)
        svg = paths[1].read_text()
        # x=5 -> 24 + 5*8 = 64 px; y+length=27 -> 24 + (60-27)*8 = 288 px
        assert '<rect x="64.0" y="288.0" width="192.0" height="176.0"' in svg
        assert "a</text>" in svg

    def test_colors_follow_status(self, tmp_path):
        inst, sol = simple_plan()
        paths = report.render_frames(feasible_frames(inst, sol), tmp_path)
        assert report.COLOR_ARRIVING in paths[1].read_text()
        assert report.COLOR_DEPARTING in paths[2].read_text()
        assert report.COLOR_ARRIVING not in paths[2].read_text()

    def test_byte_deterministic(self, tmp_path):
        inst = instgen.generate(instgen.GeneratorConfig(n_future=4, seed=6))
        sol = ach.solve(inst)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        p1 = report.render_frames(feasible_frames(inst, sol), d1)
        p2 = report.render_frames(feasible_frames(inst, sol), d2)
        assert [p.name for p in p1] == [p.name for p in p2]
        for a, b in zip(p1, p2):
            assert a.read_bytes() == b.read_bytes()

    def test_svg_is_valid_xml(self, tmp_path):
        import xml.etree.ElementTree as ET
        inst, sol = simple_plan()
        for p in report.render_frames(feasible_frames(inst, sol), tmp_path):
            ET.fromstring(p.read_text())


class TestRenderReport:
    def test_all_rejected_tables(self, tmp_path):
        c = make_current("c", service=100.0)
        inst = make_instance(future=[make_future("a"), make_future("b")],
                             current=[c])
        sol = manual_solution(inst, {"c": accept("c", 5.0, 5.0, 0.0, 100.0,
                                                 etd=c.etd)})
        out = report.render_report(inst, sol, *cost_and_frames(inst, sol),
                                   tmp_path / "report.html")
        html = out.read_text()
        # rejected table lists both future aircraft with their penalties
        assert html.count("<td>a</td>") + html.count("<td>b</td>") == 2
        assert "800" in html
        # accepted table holds only the current aircraft
        assert "<td>c</td><td>current</td>" in html

    def test_cost_breakdown_totals(self, tmp_path):
        inst, sol = simple_plan()
        cost = evaluate_cost(inst, sol)
        html = report.render_report(inst, sol, *cost_and_frames(inst, sol),
                                    tmp_path / "r.html").read_text()
        assert f"<td>{cost.total:.3f}</td>" in html

    def test_self_contained(self, tmp_path):
        inst, sol = simple_plan()
        html = report.render_report(inst, sol, *cost_and_frames(inst, sol),
                                    tmp_path / "r.html").read_text()
        assert "<svg" in html           # frames and timeline are inline
        assert "http-equiv" not in html
        assert not re.search(r'src="https?://', html)

    def test_byte_deterministic(self, tmp_path):
        inst = instgen.generate(instgen.GeneratorConfig(n_future=3, seed=8))
        sol = ach.solve(inst)
        a = report.render_report(inst, sol, *cost_and_frames(inst, sol), tmp_path / "a.html")
        b = report.render_report(inst, sol, *cost_and_frames(inst, sol), tmp_path / "b.html")
        assert a.read_bytes() == b.read_bytes()

