"""End-to-end command-line workflows, exit codes, and output formats."""

import copy
import csv
import gc
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
import weakref
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hangarplan import ach, cli, exact, instgen, io, milp, report, validator
from hangarplan.core import MAX_LENGTH, evaluate_cost

from conftest import (
    LP_EDITS,
    NON_FINITE,
    accept,
    instance_doc_with,
    make_current,
    make_future,
    make_instance,
    manual_solution,
    perturb_lp,
    time_limit,
)


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args, **kwargs):
    return runner.invoke(cli.main, args, catch_exceptions=False, **kwargs)


class TestGen:
    def test_writes_instance(self, runner, tmp_path):
        out = tmp_path / "inst.json"
        res = run(runner, ["gen", "--n", "3", "--seed", "5", "-o", str(out)])
        assert res.exit_code == 0
        inst = io.load_instance(out)
        assert len(inst.future) == 3
        assert inst.label == "Inst-03-0005"

    def test_flags_forwarded(self, runner, tmp_path):
        base, comp = tmp_path / "b.json", tmp_path / "c.json"
        run(runner, ["gen", "--n", "4", "--seed", "5", "-o", str(base)])
        run(runner, ["gen", "--n", "4", "--seed", "5", "--congestion", "0.2",
                     "--high-rejection", "--n-current", "1", "-o", str(comp)])
        b, c = io.load_instance(base), io.load_instance(comp)
        assert len(c.current) == 1
        assert c.future[0].p_rej == pytest.approx(10.0 * b.future[0].p_rej)

    @pytest.mark.parametrize("congestion", ["1e12", "1e308"])
    def test_past_the_horizon_bound_exit_3(self, runner, tmp_path, congestion):
        # 1e12 stretches the etas past the 1e9 h horizon bound, 1e308
        # overflows them; either way one error line and no file
        out = tmp_path / "inst.json"
        with warnings.catch_warnings():
            # nor a warning: the etas are floats, and overflow to inf silently
            warnings.simplefilter("error", RuntimeWarning)
            res = run(runner, ["gen", "--n", "3", "--seed", "1", "--congestion", congestion,
                               "-o", str(out)])
        assert res.exit_code == 3
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("counts,field", [
        (["--n", "1000000000000"], "n_future"),
        (["--n", "1", "--n-current", "1000000000000"], "n_current"),
    ])
    def test_count_no_instance_can_hold_exit_3(self, runner, tmp_path, counts, field):
        # refused before any draw, so no draw runs out of memory
        out = tmp_path / "inst.json"
        res = run(runner, ["gen", *counts, "--seed", "1", "-o", str(out)])
        assert res.exit_code == 3
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {field} 1000000000000 ")
        assert not out.exists()

    def test_many_parked_aircraft_pack_quickly(self, runner, tmp_path):
        # at most four parked aircraft fit the default hangar, so the packing
        # starts from four of the smallest model
        out = tmp_path / "inst.json"
        with time_limit(10.0):
            res = run(runner, ["gen", "--n", "1", "--n-current", "100000", "--seed", "1",
                               "-o", str(out)])
        assert res.exit_code == 0
        assert len(io.load_instance(out).current) == 4

    def test_reproducible(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(runner, ["gen", "--n", "3", "--seed", "9", "-o", str(a)])
        run(runner, ["gen", "--n", "3", "--seed", "9", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSolveAndValidate:
    def _gen(self, runner, tmp_path, n=3, seed=1):
        inst = tmp_path / "inst.json"
        run(runner, ["gen", "--n", str(n), "--seed", str(seed), "-o", str(inst)])
        return inst

    def test_solve_ach_validates(self, runner, tmp_path):
        inst = self._gen(runner, tmp_path)
        sol = tmp_path / "sol.json"
        res = run(runner, ["solve-ach", "-i", str(inst), "-o", str(sol)])
        assert res.exit_code == 0
        res = run(runner, ["validate", "-i", str(inst), "-s", str(sol)])
        assert res.exit_code == 0
        assert "feasible" in res.output

    def test_solve_ach_writes_the_improved_plan(self, runner, tmp_path):
        inst = self._gen(runner, tmp_path, n=3, seed=2)
        sol = tmp_path / "sol.json"
        res = run(runner, ["solve-ach", "-i", str(inst), "-o", str(sol)])
        assert res.output == f"wrote {sol} (total cost 1688.63)\n"
        instance = io.load_instance(inst)
        assert io.load_solution(sol) == ach.improve(instance)
        assert ach.improve(instance) != ach.solve(instance)

    @pytest.mark.parametrize("placed_first", [False, True])
    def test_solve_ach_rejects_never_fitting_zero_delay_penalty(
            self, runner, tmp_path, placed_first):
        wide = make_future("wide", width=500.0, p_arr=0.0)
        placed = make_future("a", p_rej=900.0)
        ip, sp = tmp_path / "i.json", tmp_path / "s.json"
        io.save_instance(make_instance(future=[wide, placed] if placed_first else [wide]), ip)
        with time_limit(10.0):
            res = run(runner, ["solve-ach", "-i", str(ip), "-o", str(sp)])
        assert res.exit_code == 0
        sol = io.load_solution(sp)
        assert not sol.by_id()["wide"].accept
        if placed_first:
            assert sol.by_id()["a"].accept

    @pytest.mark.parametrize("command", ["solve-ach", "solve-exact"])
    @pytest.mark.parametrize("side", ["width", "length"])
    def test_solvers_reject_a_request_longer_than_any_grid(
            self, runner, tmp_path, command, side):
        # a side of 1e9 m, the longest an instance may hold, leaves no grid
        # cell, however far the scan would run
        huge = make_future("huge", **{side: MAX_LENGTH})
        ip, sp = tmp_path / "i.json", tmp_path / "s.json"
        io.save_instance(make_instance(future=[huge, make_future("a")]), ip)
        with time_limit(10.0):
            res = run(runner, [command, "-i", str(ip), "-o", str(sp)])
        assert res.exit_code == 0, res.output
        sol = io.load_solution(sp)
        assert not sol.by_id()["huge"].accept
        assert sol.by_id()["a"].accept
        assert run(runner, ["validate", "-i", str(ip), "-s", str(sp)]).exit_code == 0

    def test_validate_json_output(self, runner, tmp_path):
        inst = self._gen(runner, tmp_path)
        sol = tmp_path / "sol.json"
        run(runner, ["solve-ach", "-i", str(inst), "-o", str(sol)])
        res = run(runner, ["validate", "-i", str(inst), "-s", str(sol), "--json"])
        data = json.loads(res.output)
        assert data["feasible"] is True
        assert "cost" in data and "total" in data["cost"]

    def test_validate_infeasible_exit_2(self, runner, tmp_path):
        f = make_future("a")
        instance = make_instance(future=[f])
        sol = manual_solution(instance, {"a": accept("a", 1.0, 5.0, 0.0, 100.0)})
        ip, sp = tmp_path / "i.json", tmp_path / "s.json"
        io.save_instance(instance, ip)
        io.save_solution(sol, sp)
        res = run(runner, ["validate", "-i", str(ip), "-s", str(sp)])
        assert res.exit_code == 2
        assert "OutOfBounds" in res.output

    def test_parse_error_exit_3(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        sol = tmp_path / "sol.json"
        sol.write_text("{}")
        res = run(runner, ["validate", "-i", str(bad), "-s", str(sol)])
        assert res.exit_code == 3

    @pytest.mark.parametrize("command", ["validate", "render"])
    def test_missing_assignment_exit_3(self, runner, tmp_path, command):
        instance = make_instance(future=[make_future("a"), make_future("b")])
        sol = manual_solution(instance, {"a": accept("a", 5.0, 5.0, 0.0, 100.0)})
        doc = io.solution_to_dict(sol)
        del doc["assignments"][1]
        ip, sp = tmp_path / "i.json", tmp_path / "s.json"
        io.save_instance(instance, ip)
        sp.write_text(json.dumps(doc))
        extra = ["-o", str(tmp_path / "frames")] if command == "render" else []
        res = run(runner, [command, "-i", str(ip), "-s", str(sp), *extra])
        assert res.exit_code == 3
        assert "no assignment for b" in res.output

    @pytest.mark.parametrize("command", ["validate", "render"])
    def test_extra_assignment_exit_3(self, runner, tmp_path, command):
        ip, sp = tmp_path / "i.json", tmp_path / "s.json"
        run(runner, ["gen", "--n", "3", "--seed", "1", "-o", str(ip)])
        run(runner, ["solve-ach", "-i", str(ip), "-o", str(sp)])
        doc = json.loads(sp.read_text())
        doc["assignments"].append({**doc["assignments"][0], "aircraft_id": "zzz",
                                   "accept": True, "x": -50.0})
        sp.write_text(json.dumps(doc))
        out = tmp_path / "frames"
        extra = ["-o", str(out)] if command == "render" else []
        res = run(runner, [command, "-i", str(ip), "-s", str(sp), *extra])
        assert res.exit_code == 3
        assert "Traceback" not in res.output
        errors = [ln for ln in res.output.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "zzz" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("field", ["service", "eta", "width", "hw"])
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_solve_ach_non_finite_exit_3(self, runner, tmp_path, field, value):
        ip = tmp_path / "i.json"
        doc = instance_doc_with(make_instance(future=[make_future("a")]), field, value)
        ip.write_text(json.dumps(doc))
        with time_limit(10.0):
            res = run(runner, ["solve-ach", "-i", str(ip), "-o", str(tmp_path / "s.json")])
        assert res.exit_code == 3
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("field", ["p_dep", "p_rej", "p_arr"])
    def test_negative_penalty_exit_3(self, runner, tmp_path, field):
        ip = tmp_path / "i.json"
        doc = instance_doc_with(make_instance(future=[make_future("a")]), field, -20.0)
        ip.write_text(json.dumps(doc))
        res = run(runner, ["solve-exact", "-i", str(ip), "-o", str(tmp_path / "s.json")])
        assert res.exit_code == 3
        assert f"{field} must be non-negative" in res.output

    @pytest.mark.parametrize("command", ["solve-ach", "solve-exact", "validate"])
    def test_service_shorter_than_eps_t_exit_3(self, runner, tmp_path, command):
        # roll-in and roll-out of the one request would come closer than eps_t
        instance = make_instance(future=[make_future(
            "a", width=20.0, length=20.0, eta=1.0, etd=5.0, service=1.0,
            p_rej=900.0, p_arr=10.0)])
        ip, sp = tmp_path / "i.json", tmp_path / "s.json"
        io.save_solution(manual_solution(instance, {}), sp)
        ip.write_text(json.dumps(instance_doc_with(instance, "service", 0.05)))
        flag = "-s" if command == "validate" else "-o"
        res = run(runner, [command, "-i", str(ip), flag, str(sp)])
        assert res.exit_code == 3
        assert "a: service 0.05 is shorter than eps_t 0.1" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("command", ["solve-ach", "solve-exact", "export-milp"])
    def test_eta_past_the_horizon_bound_exit_3(self, runner, tmp_path, command):
        # an instance written by hand: gen refuses to write one
        doc = io.instance_to_dict(make_instance(future=[make_future("a")]))
        doc["future"][0].update(eta=1e14, etd=1e14)
        ip, out = tmp_path / "far.json", tmp_path / "far_out"
        ip.write_text(json.dumps(doc))
        res = run(runner, [command, "-i", str(ip), "-o", str(out)])
        assert res.exit_code == 3
        errors = [ln for ln in res.output.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "exceeds 1e+09 h" in errors[0]
        assert not out.exists()

    def test_eps_t_below_the_floor_exit_3(self, runner, tmp_path):
        # at 1e-12 h a lattice step does not move a roll-in time, and
        # solve-ach on this instance would never return
        inst, sol = self._gen(runner, tmp_path, n=2), tmp_path / "sol.json"
        run(runner, ["solve-ach", "-i", str(inst), "-o", str(sol)])
        doc = json.loads(inst.read_text())
        doc["hangar"]["eps_t"] = 1e-12
        inst.write_text(json.dumps(doc))
        res = run(runner, ["validate", "-i", str(inst), "-s", str(sol)])
        assert res.exit_code == 3
        lines = res.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "eps_t" in lines[0]

    def test_solve_ach_too_many_grid_cells_exit_3(self, runner, tmp_path):
        doc = instance_doc_with(make_instance(future=[make_future("a")]),
                                "grid_step", 1e-9)
        ip = tmp_path / "i.json"
        ip.write_text(json.dumps(doc))
        with time_limit(10.0):
            res = run(runner, ["solve-ach", "-i", str(ip), "-o", str(tmp_path / "s.json")])
        assert res.exit_code == 3
        assert "grid cells" in res.output

    def test_solve_exact_small(self, runner, tmp_path):
        inst = self._gen(runner, tmp_path, n=2)
        sol = tmp_path / "opt.json"
        res = run(runner, ["solve-exact", "-i", str(inst), "-o", str(sol)])
        assert res.exit_code == 0
        assert "ProvenOptimalOnGrid" in res.output

    @pytest.mark.parametrize("n_current,seed,cost,nodes", [(0, 1, 2921.01, 31),
                                                         (2, 2, 3107.01, 37)])
    def test_solve_exact_pinned_node_count(self, runner, tmp_path, n_current, seed,
                                           cost, nodes):
        # the oracle's cost and node count at the default rejection penalties
        inst, sol = tmp_path / "inst.json", tmp_path / "opt.json"
        run(runner, ["gen", "--n", "4", "--n-current", str(n_current), "--seed", str(seed),
                     "-o", str(inst)])
        res = run(runner, ["solve-exact", "-i", str(inst), "-o", str(sol)])
        assert res.exit_code == 0
        assert "ProvenOptimalOnGrid" in res.output
        assert f"cost {cost:.6g}, nodes {nodes})" in res.output
        assert run(runner, ["validate", "-i", str(inst), "-s", str(sol)]).exit_code == 0

    def test_solve_exact_budget_exit_4(self, runner, tmp_path):
        inst = self._gen(runner, tmp_path, n=3)
        sol = tmp_path / "opt.json"
        res = run(runner, ["solve-exact", "-i", str(inst), "-o", str(sol),
                           "--node-budget", "2"])
        assert res.exit_code == 4
        assert "BudgetExhausted" in res.output


class TestModelRoundTrip:
    def test_export_import(self, runner, tmp_path):
        inst_p = tmp_path / "inst.json"
        run(runner, ["gen", "--n", "2", "--seed", "3", "-o", str(inst_p)])
        lp = tmp_path / "model.lp"
        res = run(runner, ["export-milp", "-i", str(inst_p), "-o", str(lp)])
        assert res.exit_code == 0
        assert "Minimize" in lp.read_text()

        # build a point from the heuristic solution and re-import it
        from hangarplan import ach
        instance = io.load_instance(inst_p)
        solution = ach.solve(instance)
        point = milp.derive_binaries(instance, solution, milp.build_model(instance))
        point_p = tmp_path / "point.txt"
        point_p.write_text("\n".join(f"{k} {v}" for k, v in point.items()))
        out = tmp_path / "imported.json"
        res = run(runner, ["import", "-i", str(inst_p), "-m", str(lp),
                           "-p", str(point_p), "-o", str(out)])
        assert res.exit_code == 0
        imported = io.load_solution(out)
        assert [a.accept for a in imported.assignments] == \
            [a.accept for a in solution.assignments]

    def test_export_frees_the_model_before_the_collector_resumes(self, runner, tmp_path,
                                                                  collector):
        # the collector counts allocations while paused: a model alive when it
        # resumes is scanned by its next pass
        inst_p, lp = tmp_path / "inst.json", tmp_path / "model.lp"
        run(runner, ["gen", "--n", "4", "--n-current", "2", "--seed", "3", "-o", str(inst_p)])
        build_model, enable = milp.build_model, gc.enable
        built, alive_at_enable = [], []

        def tracked_build(instance):
            model = build_model(instance)
            built.append(weakref.ref(model))
            return model

        def tracked_enable():
            if built:
                alive_at_enable.append(built[0]() is not None)
            enable()

        gc.enable()
        with mock.patch.object(milp, "build_model", tracked_build), \
                mock.patch.object(gc, "enable", tracked_enable):
            res = run(runner, ["export-milp", "-i", str(inst_p), "-o", str(lp)])
        assert res.exit_code == 0
        assert len(built) == 1
        assert alive_at_enable[:1] == [False]

    def test_import_infeasible_exit_2(self, runner, tmp_path):
        inst_p = tmp_path / "inst.json"
        run(runner, ["gen", "--n", "1", "--seed", "3", "-o", str(inst_p)])
        lp = tmp_path / "model.lp"
        run(runner, ["export-milp", "-i", str(inst_p), "-o", str(lp)])
        point_p = tmp_path / "point.txt"
        point_p.write_text("Accept(a01) 1\nX(a01) 1\nY(a01) 5\n"
                           "Rollin(a01) 0\nRollout(a01) 200\n")
        out = tmp_path / "x.json"
        res = run(runner, ["import", "-i", str(inst_p), "-m", str(lp),
                           "-p", str(point_p), "-o", str(out)])
        assert res.exit_code == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_import_non_finite_point_exit_3(self, runner, tmp_path, value):
        inst_p = tmp_path / "inst.json"
        run(runner, ["gen", "--n", "1", "--seed", "3", "-o", str(inst_p)])
        lp = tmp_path / "model.lp"
        run(runner, ["export-milp", "-i", str(inst_p), "-o", str(lp)])
        point_p = tmp_path / "point.txt"
        point_p.write_text(f"Accept(a01) 1\nX(a01) {value}\nY(a01) 5\n"
                           "Rollin(a01) 0\nRollout(a01) 200\n")
        res = run(runner, ["import", "-i", str(inst_p), "-m", str(lp),
                           "-p", str(point_p), "-o", str(tmp_path / "x.json")])
        assert res.exit_code == 3
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda lp: lp.replace("Bounds\n", "Bounds\n garbage line\n"),
                     id="bounds"),
        pytest.param(lambda lp: lp.replace(" obj:", " obj", 1), id="objective"),
        pytest.param(lambda lp: lp.replace("Subject To\n", "Subject To\n + 1 X(a01)\n"),
                     id="continuation"),
        pytest.param(lambda lp: lp.replace("eq5_darr(a01): + 1", "eq5_darr(a01): 1"),
                     id="term-without-sign"),
        pytest.param(lambda lp: lp.replace("eq5_darr(a01): + 1", "eq5_darr(a01): +"),
                     id="term-without-coefficient"),
        pytest.param(lambda lp: lp.replace("eq5_darr(a01): + 1 DArr(a01)",
                                           "eq5_darr(a01): + 1 DArr(a01) stray"),
                     id="stray-token-in-row"),
        pytest.param(lambda lp: lp.replace(" obj: + ", " obj: stray + "),
                     id="stray-token-in-objective"),
        pytest.param(lambda lp: re.sub(r"(eq8_xmax\(a01\):.*)\n", r"\1 <= 90\n", lp),
                     id="second-rhs"),
        pytest.param(lambda lp: re.sub(r"(eq5_darr\(a01\):).*(>=)", r"\1 \2", lp),
                     id="no-valid-term"),
        pytest.param(lambda lp: lp.replace("eq5_darr(a01): + 1", "eq5_darr(a01): + nan"),
                     id="non-finite-coefficient"),
        pytest.param(lambda lp: lp.replace(" Const = 1\n", " Const = 1 1\n"),
                     id="stray-token-in-bound"),
        pytest.param(lambda lp: lp.replace(" Const = 1\n", " Const = 1\n Const = 1\n"),
                     id="bound-twice"),
        pytest.param(lambda lp: lp.replace(" Const = 1\n", " 1 <= Const <= 1\n"),
                     id="ranged-bound"),
    ])
    def test_import_malformed_lp_exit_3(self, runner, tmp_path, edit):
        inst_p = tmp_path / "inst.json"
        run(runner, ["gen", "--n", "1", "--seed", "3", "-o", str(inst_p)])
        lp = tmp_path / "model.lp"
        run(runner, ["export-milp", "-i", str(inst_p), "-o", str(lp)])
        text = lp.read_text()
        lp.write_text(edit(text))
        assert lp.read_text() != text
        point_p = tmp_path / "point.txt"
        point_p.write_text("Accept(a01) 0\n")
        res = run(runner, ["import", "-i", str(inst_p), "-m", str(lp),
                           "-p", str(point_p), "-o", str(tmp_path / "x.json")])
        assert res.exit_code == 3
        assert "Traceback" not in res.output

    def test_import_builds_no_rows(self, runner, tmp_path):
        # import checks the whole LP file with the reader that takes only its
        # outline, and builds no model
        inst_p, lp = tmp_path / "inst.json", tmp_path / "model.lp"
        run(runner, ["gen", "--n", "2", "--seed", "3", "-o", str(inst_p)])
        run(runner, ["export-milp", "-i", str(inst_p), "-o", str(lp)])
        point_p = tmp_path / "point.txt"
        point_p.write_text("Accept(a01) 0\nAccept(a02) 0\n")
        with mock.patch.object(milp, "parse_lp", wraps=milp.parse_lp) as parse, \
                mock.patch.object(milp, "build_model", wraps=milp.build_model) as build:
            res = run(runner, ["import", "-i", str(inst_p), "-m", str(lp),
                               "-p", str(point_p), "-o", str(tmp_path / "x.json")])
        assert res.exit_code == 0
        assert parse.call_count == 1
        assert build.call_count == 0

    def test_export_id_that_cannot_be_an_lp_name_exit_3(self, runner, tmp_path):
        # the other commands take such ids; only the LP text cannot hold them
        inst_p, sol, lp = tmp_path / "inst.json", tmp_path / "sol.json", tmp_path / "model.lp"
        run(runner, ["gen", "--n", "2", "--seed", "1", "-o", str(inst_p)])
        doc = json.loads(inst_p.read_text())
        for refused in [" ", "\t", ":", "\\", "/", "+", "-", "*", "^", "<", ">", "=", "[", "]"]:
            aid = f"a{refused}01"
            for aircraft, name in zip(doc["future"], [aid, "b:2"]):
                aircraft["id"] = name
            inst_p.write_text(json.dumps(doc))
            assert run(runner, ["solve-ach", "-i", str(inst_p), "-o", str(sol)]).exit_code == 0
            assert run(runner, ["validate", "-i", str(inst_p), "-s", str(sol)]).exit_code == 0
            res = run(runner, ["export-milp", "-i", str(inst_p), "-o", str(lp)])
            assert res.exit_code == 3
            assert "Traceback" not in res.output
            assert [ln for ln in res.output.splitlines() if ln.startswith("error:")] == \
                [f"error: aircraft id {aid!r} cannot go into an LP model: it contains "
                 r"whitespace or one of , : \ / + - * ^ < > = [ ]"]
            assert not lp.exists()

    def test_export_ids_with_commas_exit_3(self, runner, tmp_path):
        # the pairs (a, "b,c") and ("a,b", c) would both be Right(a,b,c)
        inst_p = tmp_path / "inst.json"
        run(runner, ["gen", "--n", "4", "--seed", "1", "-o", str(inst_p)])
        doc = json.loads(inst_p.read_text())
        for aircraft, aid in zip(doc["future"], ["a", "b,c", "a,b", "c"]):
            aircraft["id"] = aid
        inst_p.write_text(json.dumps(doc))
        lp = tmp_path / "model.lp"
        res = run(runner, ["export-milp", "-i", str(inst_p), "-o", str(lp)])
        assert res.exit_code == 3
        assert "Traceback" not in res.output
        errors = [ln for ln in res.output.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "'b,c'" in errors[0]
        assert not lp.exists()

    def test_import_undeclared_name_exit_3(self, runner, tmp_path):
        inst_p = tmp_path / "inst.json"
        run(runner, ["gen", "--n", "2", "--seed", "1", "-o", str(inst_p)])
        lp = tmp_path / "model.lp"
        run(runner, ["export-milp", "-i", str(inst_p), "-o", str(lp)])
        point_p = tmp_path / "point.txt"
        point_p.write_text("Accpet(a01) 1\nBogus 7\n")
        out = tmp_path / "x.json"
        res = run(runner, ["import", "-i", str(inst_p), "-m", str(lp),
                           "-p", str(point_p), "-o", str(out)])
        assert res.exit_code == 3
        assert "Traceback" not in res.output
        errors = [ln for ln in res.output.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "Accpet(a01)" in errors[0] and "Bogus" not in errors[0]
        assert not out.exists()

    def test_import_name_set_twice_exit_3(self, runner, tmp_path):
        inst_p = tmp_path / "inst.json"
        run(runner, ["gen", "--n", "2", "--seed", "1", "-o", str(inst_p)])
        lp = tmp_path / "model.lp"
        run(runner, ["export-milp", "-i", str(inst_p), "-o", str(lp)])
        point_p = tmp_path / "point.txt"
        point_p.write_text("Accept(a01) 0\nAccept(a02) 1\nAccept(a02) 0\n")
        out = tmp_path / "x.json"
        res = run(runner, ["import", "-i", str(inst_p), "-m", str(lp),
                           "-p", str(point_p), "-o", str(out)])
        assert res.exit_code == 3
        assert "Traceback" not in res.output
        errors = [ln for ln in res.output.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "Accept(a02)" in errors[0]
        assert "line 3" in errors[0] and "line 2" in errors[0]
        assert not out.exists()

    def test_import_model_of_other_instance_exit_3(self, runner, tmp_path):
        inst_p, other_p = tmp_path / "inst.json", tmp_path / "other.json"
        run(runner, ["gen", "--n", "2", "--seed", "1", "-o", str(inst_p)])
        run(runner, ["gen", "--n", "3", "--seed", "2", "-o", str(other_p)])
        lp = tmp_path / "model.lp"
        run(runner, ["export-milp", "-i", str(other_p), "-o", str(lp)])
        point_p = tmp_path / "point.txt"
        point_p.write_text("Accept(a01) 0\n")
        res = run(runner, ["import", "-i", str(inst_p), "-m", str(lp),
                           "-p", str(point_p), "-o", str(tmp_path / "x.json")])
        assert res.exit_code == 3
        assert "Traceback" not in res.output


#: The chain of commands, run in one process: the instance's label and its
#: first request's id are not ASCII, and the point comes from the heuristic
#: plan.
UTF8_CHAIN = """
import json
from hangarplan import cli, io, milp

def hangarplan(*args):
    cli.main(list(args), standalone_mode=False)

hangarplan("gen", "--n", "2", "--n-current", "1", "--seed", "3", "-o", "inst.json")
doc = io.read_file("inst.json", "instance", io.parse_json)
doc["label"] = doc["future"][0]["id"] = "r\u00e9q_\u03b1"
with open("inst.json", "w", encoding="utf-8") as f:
    json.dump(doc, f)
hangarplan("solve-ach", "-i", "inst.json", "-o", "sol.json")
hangarplan("export-milp", "-i", "inst.json", "-o", "model.lp")
instance = io.load_instance("inst.json")
point = milp.derive_binaries(instance, io.load_solution("sol.json"), milp.build_model(instance))
with open("point.txt", "w", encoding="utf-8") as f:
    f.writelines(f"{k} {v!r}\\n" for k, v in point.items())
hangarplan("import", "-i", "inst.json", "-m", "model.lp", "-p", "point.txt", "-o", "imported.json")
hangarplan("render", "-i", "inst.json", "-s", "imported.json", "-o", "frames", "--html")
hangarplan("compare", "inst.json", "-o", "gap.csv")
"""


class TestUtf8Files:
    def test_every_file_is_written_as_utf8(self, tmp_path):
        """The chain runs with Python's warning for a text file opened
        without an encoding raised as an error, so a writer that would use
        the locale's encoding fails it."""
        src = Path(cli.__file__).parents[1]
        res = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", UTF8_CHAIN],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, encoding="utf-8", timeout=120)
        assert res.returncode == 0, res.stderr
        instance = io.load_instance(tmp_path / "inst.json")
        assert (tmp_path / "model.lp").read_bytes() == \
            milp.export_lp(milp.build_model(instance)).encode("utf-8")
        for out in ("frames/report.html", "gap.csv"):
            assert "r\u00e9q_\u03b1" in (tmp_path / out).read_text(encoding="utf-8")

    def test_export_file_is_export_lp(self, runner, tmp_path):
        # more than one block of rows, and rows that wrap at LINE_WIDTH
        doc = io.instance_to_dict(instgen.generate(instgen.GeneratorConfig(
            n_future=8, n_current=1, seed=2)))
        for k, aircraft in enumerate([*doc["current"], *doc["future"]]):
            aircraft["id"] = f"aircraft_with_a_long_id_{k:02d}"
        inst_p, lp = tmp_path / "inst.json", tmp_path / "model.lp"
        inst_p.write_text(json.dumps(doc), encoding="utf-8")
        assert run(runner, ["export-milp", "-i", str(inst_p), "-o", str(lp)]).exit_code == 0
        model = milp.build_model(io.load_instance(inst_p))
        text = milp.export_lp(model)
        assert len(model.rows) > milp._BLOCK_ROWS
        assert any(ln.startswith("  ") for ln in text.splitlines())
        assert lp.read_bytes() == text.encode("utf-8")


class TestRender:
    def test_frames_and_html(self, runner, tmp_path):
        inst = tmp_path / "inst.json"
        sol = tmp_path / "sol.json"
        run(runner, ["gen", "--n", "2", "--seed", "4", "-o", str(inst)])
        run(runner, ["solve-ach", "-i", str(inst), "-o", str(sol)])
        out = tmp_path / "frames"
        res = run(runner, ["render", "-i", str(inst), "-s", str(sol),
                           "-o", str(out), "--html"])
        assert res.exit_code == 0
        assert list(out.glob("frame_*.svg"))
        assert (out / "report.html").exists()

    def test_html_validates_once(self, runner, tmp_path):
        # frames and report share one validation of the plan
        inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
        run(runner, ["gen", "--n", "2", "--seed", "4", "-o", str(inst)])
        run(runner, ["solve-ach", "-i", str(inst), "-o", str(sol)])
        with mock.patch.object(validator, "validate", wraps=validator.validate) as spy:
            res = run(runner, ["render", "-i", str(inst), "-s", str(sol),
                               "-o", str(tmp_path / "frames"), "--html"])
        assert res.exit_code == 0
        assert spy.call_count == 1

    def test_html_draws_each_frame_once(self, runner, tmp_path):
        # the frame files and the report's gallery share one drawing
        inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
        run(runner, ["gen", "--n", "2", "--seed", "4", "-o", str(inst)])
        run(runner, ["solve-ach", "-i", str(inst), "-o", str(sol)])
        out = tmp_path / "frames"
        with mock.patch.object(report, "frame_svg", wraps=report.frame_svg) as spy:
            res = run(runner, ["render", "-i", str(inst), "-s", str(sol),
                               "-o", str(out), "--html"])
        assert res.exit_code == 0
        frames = sorted(out.glob("frame_*.svg"))
        assert spy.call_count == len(frames) > 0
        html = (out / "report.html").read_text()
        assert all(f.read_text() in html for f in frames)

    def test_html_of_a_plan_that_accepts_nothing(self, runner, tmp_path):
        # every request is wider than the hangar, so the timeline is empty
        wide = [make_future(aid, width=500.0) for aid in ("a", "b")]
        ip, sp, out = tmp_path / "i.json", tmp_path / "s.json", tmp_path / "frames"
        io.save_instance(make_instance(future=wide), ip)
        run(runner, ["solve-ach", "-i", str(ip), "-o", str(sp)])
        assert not any(a.accept for a in io.load_solution(sp).assignments)
        res = run(runner, ["render", "-i", str(ip), "-s", str(sp), "-o", str(out), "--html"])
        assert res.exit_code == 0
        assert "no accepted aircraft" in (out / "report.html").read_text()

    @pytest.mark.parametrize("html", [False, True], ids=["frames", "html"])
    def test_infeasible_exit_2(self, runner, tmp_path, html):
        # the CLI judges the plan: the validator's explanation, then the
        # error line, and no frame or report is written
        f = make_future("a")
        instance = make_instance(future=[f])
        bad = manual_solution(instance, {"a": accept("a", 1.0, 5.0, 0.0, 100.0)})
        ip, sp = tmp_path / "i.json", tmp_path / "s.json"
        io.save_instance(instance, ip)
        io.save_solution(bad, sp)
        res = run(runner, ["render", "-i", str(ip), "-s", str(sp),
                           "-o", str(tmp_path / "frames")] + ["--html"] * html)
        assert res.exit_code == 2
        explanation = validator.explain(validator.validate(instance, bad))
        assert res.output == (explanation + "\n"
                              "error: solution is infeasible; nothing rendered\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["i.json", "s.json"]


class TestPlanTimePastTheHorizon:
    """A plan time past the 1e9 h horizon bound is bad input to every command
    that reads a plan: exit 3 and one error line that names the aircraft and
    the field, where it was taken as a feasible plan of infinite cost."""

    ERROR = "a01: roll_in 1e+308 h exceeds 1e+09 h"

    def _instance(self, runner, tmp_path):
        inst_p = tmp_path / "inst.json"
        assert run(runner, ["gen", "--n", "2", "--seed", "3", "-o", str(inst_p)]).exit_code == 0
        return inst_p

    def _assert_one_error(self, res):
        assert res.exit_code == 3
        assert "Traceback" not in res.output
        errors = [ln for ln in res.output.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and self.ERROR in errors[0], res.output

    def test_import_exit_3(self, runner, tmp_path):
        inst_p = self._instance(runner, tmp_path)
        lp, point_p = tmp_path / "m.lp", tmp_path / "p.txt"
        run(runner, ["export-milp", "-i", str(inst_p), "-o", str(lp)])
        point_p.write_text("Accept(a01) 1\nX(a01) 5\nY(a01) 5\n"
                           "Rollin(a01) 1e308\nRollout(a01) 1.7e308\n")
        out = tmp_path / "imported.json"
        self._assert_one_error(run(runner, ["import", "-i", str(inst_p), "-m", str(lp),
                                            "-p", str(point_p), "-o", str(out)]))
        assert not out.exists()

    @pytest.mark.parametrize("args", [["validate", "--json"], ["render", "--html"]])
    def test_plan_file_exit_3(self, runner, tmp_path, args):
        inst_p, plan_p = self._instance(runner, tmp_path), tmp_path / "plan.json"
        plan_p.write_text(json.dumps({"instance_label": "Inst-02-0003", "assignments": [
            {"aircraft_id": "a01", "accept": True, "x": 5.0, "y": 5.0,
             "roll_in": 1e308, "roll_out": 1.7e308},
            {"aircraft_id": "a02", "accept": False, "x": 0.0, "y": 0.0,
             "roll_in": 0.0, "roll_out": 0.0}]}))
        frames = tmp_path / "frames"
        command, flag = args
        out = ["-o", str(frames)] if command == "render" else []
        self._assert_one_error(run(runner, [command, "-i", str(inst_p), "-s", str(plan_p),
                                            flag, *out]))
        assert not frames.exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


#: An instance with a parked aircraft and two requests, and its ``ach`` plan.
BOUND_INSTANCE = make_instance(future=[make_future("a01"), make_future("a02", eta=150.0)],
                               current=[make_current("c01")])
BOUND_PLAN = ach.solve(BOUND_INSTANCE)


def _all_rejected(doc):
    """A plan document of the instance document ``doc`` that rejects every
    request and keeps every parked aircraft in place."""
    placed = [{"aircraft_id": a["id"], "accept": True, "x": a["x_init"], "y": a["y_init"],
               "roll_in": 0.0, "roll_out": a["service"]} for a in doc["current"]]
    rejected = [{"aircraft_id": a["id"], "accept": False, "x": 0.0, "y": 0.0,
                 "roll_in": 0.0, "roll_out": 0.0} for a in doc["future"]]
    return {"instance_label": doc["label"], "assignments": placed + rejected}


def _huge_p_rej(doc, plan):
    for aircraft in doc["future"]:
        aircraft["p_rej"] = 1.7e308


def _huge_position(doc, plan):
    plan["assignments"][0].update(accept=True, x=1.7e308, y=1.7e308, roll_in=0.0,
                                  roll_out=100.0)


def _huge_hangar(doc, plan):
    doc["hangar"].update(hw=1.7e308, hl=1.7e308, grid_step=1e306)


#: Numbers up to 1.7e308 in size: any float, or one of magnitude 10^k for k
#: up to 308, where sums and products overflow.
HUGE_NUMBERS = st.one_of(
    st.floats(-1.7e308, 1.7e308),
    st.builds(lambda sign, k: sign * 1.7 * 10.0 ** k, st.sampled_from([-1.0, 1.0]),
              st.integers(0, 308)))


class TestNumbersPastTheBounds:
    """A number that makes a length pass 1e9 m, or the worst-case plan cost
    overflow, is bad input: exit 3 and one error line that names the field,
    where ``validate --json`` printed ``Infinity`` and ``export-milp`` wrote
    ``inf`` into the LP file."""

    @pytest.mark.parametrize("edit, error, commands", [
        pytest.param(_huge_p_rej, "not finite once the p_rej term",
                     ["validate", "export-milp"], id="p_rej"),
        pytest.param(_huge_position, "a01: x 1.7e+308 m exceeds 1e+09 m", ["validate"],
                     id="position"),
        pytest.param(_huge_hangar, "hangar hw 1.7e+308 m exceeds 1e+09 m",
                     ["validate", "export-milp"], id="hangar"),
    ])
    def test_exit_3(self, runner, tmp_path, edit, error, commands):
        doc = io.instance_to_dict(make_instance(future=[make_future("a01"),
                                                        make_future("a02", eta=150.0)]))
        plan = _all_rejected(doc)
        edit(doc, plan)
        inst_p, plan_p, lp = tmp_path / "inst.json", tmp_path / "plan.json", tmp_path / "m.lp"
        inst_p.write_text(json.dumps(doc))
        plan_p.write_text(json.dumps(plan))
        args = {"validate": ["validate", "--json", "-i", str(inst_p), "-s", str(plan_p)],
                "export-milp": ["export-milp", "-i", str(inst_p), "-o", str(lp)]}
        for command in commands:
            res = run(runner, args[command])
            assert res.exit_code == 3, res.output
            assert "Traceback" not in res.output
            errors = [ln for ln in res.output.splitlines() if ln.startswith("error:")]
            assert len(errors) == 1 and error in errors[0], res.output
        assert not lp.exists()

    @settings(max_examples=100, deadline=timedelta(seconds=30))
    @given(data=st.data())
    def test_validate_json_is_finite(self, data):
        """With up to four number fields of the instance and the plan each
        set, in every record that has it, to a number drawn up to 1.7e308
        in size, a load exits 3, or ``validate --json`` prints JSON with no
        non-finite constant."""
        docs = {"instance": io.instance_to_dict(BOUND_INSTANCE),
                "solution": io.solution_to_dict(BOUND_PLAN)}
        records = [docs["instance"]["hangar"], *docs["instance"]["current"],
                   *docs["instance"]["future"], *docs["solution"]["assignments"]]
        keys = sorted({k for r in records for k, v in r.items() if type(v) is float})
        for key in data.draw(st.lists(st.sampled_from(keys), max_size=4, unique=True)):
            value = data.draw(HUGE_NUMBERS)
            for record in records:
                if key in record:
                    record[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            ip, sp = Path(tmp) / "i.json", Path(tmp) / "s.json"
            ip.write_text(json.dumps(docs["instance"]))
            sp.write_text(json.dumps(docs["solution"]))
            res = CliRunner().invoke(cli.main, ["validate", "--json", "-i", str(ip),
                                                "-s", str(sp)])
        assert res.exit_code in (0, 2, 3), (res.output, res.exception)
        if res.exit_code != 3:
            json.loads(res.stdout, parse_constant=_reject_constant)


#: The README, whose CLI block the chain below runs as written.
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(*names: str) -> list[list[str]]:
    """The arguments of each ``hangarplan`` line of the README's CLI block
    whose command is one of ``names``, split as a shell splits them."""
    block = README.read_text(encoding="utf-8").split("## CLI usage", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("hangarplan ")]
    return [args for args in lines if args[0] in names]


def test_readme_chain_runs_as_written(runner, tmp_path, monkeypatch):
    """The README's example commands that need no file of the user's own
    exit 0, one after the other in one directory."""
    monkeypatch.chdir(tmp_path)
    commands = readme_commands("gen", "solve-ach", "solve-exact", "validate",
                               "export-milp", "render")
    assert [args[0] for args in commands] == [
        "gen", "gen", "solve-ach", "solve-exact", "validate", "export-milp", "render"]
    for args in commands:
        res = run(runner, args)
        assert res.exit_code == 0, (args, res.output)


class TestCompare:
    def test_csv_columns_and_gap(self, runner, tmp_path):
        paths = []
        for seed in (1, 2):
            p = tmp_path / f"i{seed}.json"
            run(runner, ["gen", "--n", "2", "--seed", str(seed), "-o", str(p)])
            paths.append(str(p))
        out = tmp_path / "cmp.csv"
        res = run(runner, ["compare", *paths, "-o", str(out), "--json"])
        assert res.exit_code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        assert list(rows[0]) == ["label", "ach_cost", "oracle_cost", "gap_pct",
                                 "ach_time", "oracle_time", "error", "ach_improved_cost"]
        for r in rows:
            assert float(r["gap_pct"]) >= -1e-6
            assert r["error"] == ""
            assert float(r["ach_improved_cost"]) <= float(r["ach_cost"])
        printed = json.loads(res.stdout[res.stdout.index("["):])
        assert [list(r) for r in printed] == [list(rows[0])] * 2

    def test_improved_cost_is_the_cost_of_solve_ach(self, runner, tmp_path):
        # the oracle proves 1,996.010 here, ach.solve plans the same and
        # ach.improve 1,688.631
        inst, sol, out = (tmp_path / name for name in ("inst.json", "sol.json", "cmp.csv"))
        run(runner, ["gen", "--n", "3", "--seed", "2", "-o", str(inst)])
        run(runner, ["solve-ach", "-i", str(inst), "-o", str(sol)])
        run(runner, ["compare", str(inst), "-o", str(out)])
        [row] = csv.DictReader(out.open())
        planned = evaluate_cost(io.load_instance(inst), io.load_solution(sol)).total
        assert float(row["ach_improved_cost"]) == pytest.approx(planned, abs=1e-6)
        assert float(row["ach_cost"]) == pytest.approx(1996.01, abs=1e-6)
        assert float(row["gap_pct"]) == 0.0
        assert planned == pytest.approx(1688.630957, abs=1e-6)

    def test_gap_of_two_zero_costs_is_zero(self, runner, tmp_path):
        inst, out = tmp_path / "inst.json", tmp_path / "cmp.csv"
        run(runner, ["gen", "--n", "0", "--seed", "1", "-o", str(inst)])
        run(runner, ["compare", str(inst), "-o", str(out)])
        [row] = csv.DictReader(out.open())
        assert (row["ach_cost"], row["oracle_cost"], row["gap_pct"], row["error"]) == \
            ("0.000000", "0.000000", "0.00", "")

    def test_bad_instance_recorded_not_fatal(self, runner, tmp_path):
        good = tmp_path / "good.json"
        run(runner, ["gen", "--n", "1", "--seed", "1", "-o", str(good)])
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        out = tmp_path / "cmp.csv"
        res = run(runner, ["compare", str(good), str(bad), "-o", str(out)])
        assert res.exit_code == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["error"] == ""
        assert rows[1]["error"].startswith("parse")

    def test_budget_stop_recorded_in_error(self, runner, tmp_path):
        # two requests that fill the hangar: proven in 9 nodes, stopped at 3
        pair = [make_future(aid, width=45.0, length=48.0, etd=300.0, p_rej=5000.0)
                for aid in ("a", "b")]
        inst = tmp_path / "serialized.json"
        io.save_instance(make_instance(future=pair), inst)
        out = tmp_path / "cmp.csv"
        res = run(runner, ["compare", str(inst), "--node-budget", "3", "-o", str(out)])
        assert res.exit_code == 0
        [row] = csv.DictReader(out.open())
        assert row["oracle_cost"] == row["gap_pct"] == ""
        assert row["error"] == "oracle: BudgetExhausted after 4 nodes"
        run(runner, ["compare", str(inst), "-o", str(out)])
        [row] = csv.DictReader(out.open())
        assert float(row["oracle_cost"]) == pytest.approx(1001.02)
        assert row["error"] == ""

    def test_unwritable_output_solves_nothing(self, runner, tmp_path):
        inst = tmp_path / "inst.json"
        run(runner, ["gen", "--n", "2", "--seed", "1", "-o", str(inst)])
        out = tmp_path / "missing" / "cmp.csv"
        with mock.patch.object(exact, "solve_exact") as oracle, \
                mock.patch.object(ach, "solve") as heuristic, \
                mock.patch.object(ach, "improve") as improved:
            res = run(runner, ["compare", str(inst), "-o", str(out)])
        assert res.exit_code == 3
        oracle.assert_not_called()
        heuristic.assert_not_called()
        improved.assert_not_called()


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": {"n_future": 2, "seed": 7}}))
        out = tmp_path / "inst.json"
        res = run(runner, ["--config", str(cfg), "gen", "-o", str(out)])
        assert res.exit_code == 0
        assert io.load_instance(out).label == "Inst-02-0007"

    def test_flags_beat_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": {"n_future": 2, "seed": 7}}))
        out = tmp_path / "inst.json"
        run(runner, ["--config", str(cfg), "gen", "--seed", "8", "-o", str(out)])
        assert io.load_instance(out).label == "Inst-02-0008"

    def test_values_convert_as_on_the_command_line(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": {"n_future": "2", "seed": 7,
                                           "congestion": 1, "high_rejection": True}}))
        out = tmp_path / "inst.json"
        res = run(runner, ["--config", str(cfg), "gen", "-o", str(out)])
        assert res.exit_code == 0
        flagged = tmp_path / "flagged.json"
        run(runner, ["gen", "--n", "2", "--seed", "7", "--high-rejection", "-o", str(flagged)])
        assert out.read_text() == flagged.read_text()

    def test_compare_instances_from_config(self, runner, tmp_path):
        inst_p = tmp_path / "inst.json"
        run(runner, ["gen", "--n", "1", "--seed", "1", "-o", str(inst_p)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"compare": {"instances": [str(inst_p)],
                                               "node_budget": 1000}}))
        out = tmp_path / "cmp.csv"
        res = run(runner, ["--config", str(cfg), "compare", "-o", str(out)])
        assert res.exit_code == 0
        assert [r["error"] for r in csv.DictReader(out.read_text().splitlines())] == [""]


#: Option values and config files that name no valid run.
BAD_OPTIONS = {
    "n-negative": ["gen", "--n", "-1", "--seed", "1"],
    "n-current-negative": ["gen", "--n", "2", "--n-current", "-1", "--seed", "1"],
    "seed-negative": ["gen", "--n", "2", "--seed", "-1"],
    "congestion-nan": ["gen", "--n", "2", "--seed", "1", "--congestion", "nan"],
    "congestion-zero": ["gen", "--n", "2", "--seed", "1", "--congestion", "0"],
    "congestion-negative": ["gen", "--n", "2", "--seed", "1", "--congestion", "-1"],
    "node-budget-zero": ["solve-exact", "--node-budget", "0"],
    "time-budget-nan": ["solve-exact", "--time-budget", "nan"],
    "time-budget-zero": ["solve-exact", "--time-budget", "0"],
    "compare-node-budget-zero": ["compare", "--node-budget", "0"],
    "compare-time-budget-nan": ["compare", "--time-budget", "nan"],
    "config-list": ["--config", [1]],
    "config-number": ["--config", 5],
    "config-command-not-object": ["--config", {"gen": 5}],
    "config-unknown-command": ["--config", {"generate": {}}],
    "config-unknown-option": ["--config", {"gen": {"bogus": 1}}],
    "config-int-as-text": ["--config", {"gen": {"n_future": "x"}}],
    "config-int-as-fraction": ["--config", {"gen": {"n_future": 3.5}}],
    "config-int-as-bool": ["--config", {"gen": {"n_future": True}}],
    "config-int-as-list": ["--config", {"gen": {"n_future": [1]}}],
    "config-int-as-null": ["--config", {"gen": {"seed": None}}],
    "config-flag-as-text": ["--config", {"gen": {"high_rejection": "x"}}],
    "config-float-as-object": ["--config", {"gen": {"congestion": {"a": 1}}}],
    "config-other-command": ["--config", {"solve-exact": {"node_budget": "many"}}],
    "config-instances-not-list": ["--config", {"compare": {"instances": "i.json"}}],
    "config-instance-missing": ["--config", {"compare": {"instances": ["missing.json"]}}],
}


@pytest.mark.parametrize("case", list(BAD_OPTIONS))
def test_bad_option_value_exit_3(runner, tmp_path, case):
    args = list(BAD_OPTIONS[case])
    if args[0] in ("solve-exact", "compare"):
        inst_p = tmp_path / "inst.json"
        run(runner, ["gen", "--n", "1", "--seed", "3", "-o", str(inst_p)])
        args += ["-i", str(inst_p)] if args[0] == "solve-exact" else [str(inst_p)]
    if args[0] == "--config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(args[1]))
        args = ["--config", str(cfg), "gen", "--n", "1", "--seed", "1"]
    res = run(runner, args + ["-o", str(tmp_path / "out.json")])
    assert res.exit_code == 3
    lines = res.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


#: click's own usage errors, each with the start of click's message.
USAGE_ERRORS = {
    "gen-without-n": (["gen", "--seed", "1", "-o", "x.json"], "Missing option '--n'"),
    "gen-n-not-int": (["gen", "--n", "x", "--seed", "1", "-o", "x.json"],
                      "Invalid value for '--n': 'x' is not a valid integer"),
    "unknown-command": (["bogus"], "No such command 'bogus'"),
    "missing-instance-file": (["solve-ach", "-i", "missing.json", "-o", "x.json"],
                              "Invalid value for '-i': File 'missing.json' does not exist"),
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_error_exit_3(runner, tmp_path, case):
    """Usage errors are input errors: exit 3, not 2, the infeasible-plan code;
    click's usage message is kept."""
    args, message = USAGE_ERRORS[case]
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = run(runner, args)
    assert res.exit_code == 3
    assert "Usage:" in res.output and f"Error: {message}" in res.output


@pytest.mark.parametrize("args", [["--help"], ["gen", "--help"]])
def test_help_exit_0(runner, args):
    res = run(runner, args)
    assert res.exit_code == 0 and "Usage:" in res.output


def _set(path, value):
    """An edit of a JSON document that sets the value at ``path``."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


#: (document, edit): each edit breaks the type of one field or record.
TYPE_CASES = {
    "width-true": ("instance", _set(("future", 0, "width"), True)),
    "width-huge-int": ("instance", _set(("future", 0, "width"), 10**400)),
    "vip-string": ("instance", _set(("future", 0, "vip"), "yes")),
    "future-entry-not-object": ("instance", _set(("future",), [5])),
    "future-not-list": ("instance", _set(("future",), 5)),
    "accept-string": ("solution", _set(("assignments", 0, "accept"), "false")),
    "x-string": ("solution", _set(("assignments", 0, "x"), "x")),
    "x-nan": ("solution", _set(("assignments", 0, "x"), float("nan"))),
    "d-arr-bool": ("solution", _set(("assignments", 0, "d_arr"), False)),
    "assignment-not-object": ("solution", _set(("assignments",), [5])),
    "aircraft-id-number": ("solution", _set(("assignments", 0, "aircraft_id"), 7)),
}


class TestTypeGate:
    """Fields of the wrong JSON type are parse errors at the file boundary."""

    @pytest.mark.parametrize("case", list(TYPE_CASES))
    def test_parse_error_and_exit_3(self, runner, tmp_path, case):
        which, edit = TYPE_CASES[case]
        instance = make_instance(future=[make_future("a")])
        docs = {"instance": io.instance_to_dict(instance),
                "solution": io.solution_to_dict(manual_solution(
                    instance, {"a": accept("a", 5.0, 5.0, 0.0, 100.0)}))}
        edit(docs[which])
        ip, sp = tmp_path / "i.json", tmp_path / "s.json"
        ip.write_text(json.dumps(docs["instance"]))
        sp.write_text(json.dumps(docs["solution"]))
        load = io.load_instance if which == "instance" else io.load_solution
        with pytest.raises(io.ParseError):
            load(ip if which == "instance" else sp)
        res = run(runner, ["validate", "--json", "-i", str(ip), "-s", str(sp)])
        assert res.exit_code == 3
        assert "Traceback" not in res.output


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _slots(doc, path=()):
    """Paths of every value inside a JSON document, and of every object key."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


#: Replacement values: wrong types, non-finite numbers, booleans, and times
#: past the horizon bound.
PERTURBATIONS = ["x", None, [], {}, True, False,
                 float("nan"), float("inf"), float("-inf"), 1e14, 1e308]


def _perturbed_instance(seed):
    return instgen.generate(instgen.GeneratorConfig(n_future=3, n_current=1, seed=seed))


def _instance_slot(seed, path):
    """The ``slot`` draw of ``TestPerturbedInput`` that picks ``path`` in the
    instance file of ``seed``."""
    return list(_slots(io.instance_to_dict(_perturbed_instance(seed)))).index(path)


class TestPerturbedInput:
    """A perturbed instance or solution file ends in exit 0, 2 or 3, never in
    a traceback."""

    @settings(max_examples=5, deadline=timedelta(seconds=30))
    @given(seed=st.integers(0, 2**31 - 1), which=st.sampled_from(["instance", "solution"]),
           slot=st.integers(0, 10**6),
           action=st.sampled_from(["drop"] + list(range(len(PERTURBATIONS)))))
    # a request side of 1e308 m once overflowed the placement grid's cell count
    @example(seed=0, which="instance", slot=_instance_slot(0, ("future", 0, "width")),
             action=PERTURBATIONS.index(1e308))
    @example(seed=0, which="instance", slot=_instance_slot(0, ("future", 0, "length")),
             action=PERTURBATIONS.index(1e308))
    def test_no_traceback(self, seed, which, slot, action):
        instance = _perturbed_instance(seed)
        docs = {"instance": io.instance_to_dict(instance),
                "solution": io.solution_to_dict(ach.solve(instance))}
        doc = docs[which]
        slots = list(_slots(doc))
        path = slots[slot % len(slots)]
        if action == "drop":
            # drop the nearest enclosing object field
            while not isinstance(_get(doc, path[:-1]), dict):
                path = path[:-1]
            del _get(doc, path[:-1])[path[-1]]
        else:
            _set(path, copy.deepcopy(PERTURBATIONS[action]))(doc)
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp:
            ip, sp, out = Path(tmp) / "i.json", Path(tmp) / "s.json", Path(tmp) / "out.json"
            ip.write_text(json.dumps(docs["instance"]))
            sp.write_text(json.dumps(docs["solution"]))
            for args in (["validate", "--json", "-i", str(ip), "-s", str(sp)],
                         ["solve-ach", "-i", str(ip), "-o", str(out)],
                         ["solve-exact", "-i", str(ip), "-o", str(out)]):
                with time_limit(20.0):
                    res = runner.invoke(cli.main, args)
                assert res.exit_code in (0, 2, 3), (path, action, res.output, res.exception)
                assert "Traceback" not in res.output
                if args[0] != "validate" and res.exit_code == 0:
                    # every plan a solver writes passes the validator
                    res = runner.invoke(cli.main, ["validate", "-i", str(ip), "-s", str(out)])
                    assert res.exit_code == 0, (path, action, args[0], res.output)


class TestPerturbedLp:
    """A perturbed LP file given to ``import`` ends in exit 0, 2 or 3, never
    in a traceback."""

    @settings(max_examples=10, deadline=timedelta(seconds=30))
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(0, 6), n_current=st.integers(0, 3),
           action=st.sampled_from(LP_EDITS),
           line_no=st.integers(0, 10**6), token_no=st.integers(0, 10**6))
    def test_import_no_traceback(self, seed, n, n_current, action, line_no, token_no):
        instance = instgen.generate(instgen.GeneratorConfig(
            n_future=n, n_current=n_current, seed=seed))
        model = milp.build_model(instance)
        point = milp.derive_binaries(instance, ach.solve(instance), model)
        text = perturb_lp(milp.export_lp(model), action, line_no, token_no)
        res = _import(instance, text, _point_text(point))
        assert res.exit_code in (0, 2, 3), (action, res.output, res.exception)
        assert "Traceback" not in res.output


def _point_text(point: dict[str, float]) -> str:
    return "".join(f"{k} {v!r}\n" for k, v in point.items())


def _import(instance, model_text: str, point_text: str):
    """``hangarplan import`` of the two texts for the instance."""
    with tempfile.TemporaryDirectory() as tmp:
        ip, lp, pp = Path(tmp) / "i.json", Path(tmp) / "m.lp", Path(tmp) / "p.txt"
        io.save_instance(instance, ip)
        lp.write_text(model_text)
        pp.write_text(point_text)
        with time_limit(20.0):
            return CliRunner().invoke(cli.main, ["import", "-i", str(ip), "-m", str(lp),
                                                 "-p", str(pp), "-o", str(Path(tmp) / "o.json")])


def _perturb_point(text: str, action: str, line_no: int) -> str:
    """One edit of a point file: drop or duplicate a line, swap a name and
    its value, set a value to text or to +-1e308, or flip an ``Accept``."""
    lines = text.splitlines()
    rows = [k for k, ln in enumerate(lines) if action != "flip" or ln.startswith("Accept(")]
    if not rows:
        return text
    i = rows[line_no % len(rows)]
    name, value = lines[i].split(" ")
    lines[i:i + 1] = {"drop": [], "duplicate": [lines[i]] * 2, "swap": [f"{value} {name}"],
                      "text": [f"{name} x1"], "huge": [f"{name} 1e308"],
                      "-huge": [f"{name} -1e308"],
                      "flip": [f"{name} {1.0 - float(value)!r}"]}[action]
    return "".join(ln + "\n" for ln in lines)


class TestPerturbedPoint:
    """A perturbed point file given to ``import`` ends in exit 0, 2 or 3,
    never in a traceback."""

    @settings(max_examples=10, deadline=timedelta(seconds=30))
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(0, 6), n_current=st.integers(0, 3),
           action=st.sampled_from(["drop", "duplicate", "swap", "text", "huge", "-huge",
                                   "flip"]),
           line_no=st.integers(0, 10**6))
    def test_import_no_traceback(self, seed, n, n_current, action, line_no):
        instance = instgen.generate(instgen.GeneratorConfig(
            n_future=n, n_current=n_current, seed=seed))
        model = milp.build_model(instance)
        point = milp.derive_binaries(instance, ach.solve(instance), model)
        res = _import(instance, milp.export_lp(model),
                      _perturb_point(_point_text(point), action, line_no))
        assert res.exit_code in (0, 2, 3), (action, res.output, res.exception)
        assert "Traceback" not in res.output


def _chain_files(runner, tmp: Path) -> dict[str, Path]:
    """The input files of the README chain for a two-request instance: the
    instance, its heuristic plan, its LP model and a point that rejects both
    requests."""
    files = {"i": tmp / "inst.json", "s": tmp / "sol.json",
             "m": tmp / "model.lp", "p": tmp / "point.txt"}
    run(runner, ["gen", "--n", "2", "--seed", "1", "-o", str(files["i"])])
    run(runner, ["solve-ach", "-i", str(files["i"]), "-o", str(files["s"])])
    run(runner, ["export-milp", "-i", str(files["i"]), "-o", str(files["m"])])
    files["p"].write_text("Accept(a01) 0\nAccept(a02) 0\n")
    return files


#: For each file input, a command that reads ``bad`` there and the chain's
#: files everywhere else.
FILE_INPUTS = {
    "-i": lambda f, bad: ["validate", "-i", bad, "-s", f["s"]],
    "-s": lambda f, bad: ["validate", "-i", f["i"], "-s", bad],
    "-m": lambda f, bad: ["import", "-i", f["i"], "-m", bad, "-p", f["p"],
                          "-o", f["i"].parent / "out.json"],
    "-p": lambda f, bad: ["import", "-i", f["i"], "-m", f["m"], "-p", bad,
                          "-o", f["i"].parent / "out.json"],
    "--config": lambda f, bad: ["--config", bad, "gen", "--n", "2", "--seed", "1",
                                "-o", f["i"].parent / "out.json"],
}

#: File contents that no input may turn into a traceback.
BAD_BYTES = {
    "non-utf8": b"\xff\xfe\x00bad",
    "deep-json": b"[" * 100_000,
    "huge-int": b"1" * 5000,
}

#: For each command that writes a file, its arguments with output ``out``.
WRITERS = {
    "gen": lambda f, out: ["gen", "--n", "2", "--seed", "1", "-o", out],
    "solve-ach": lambda f, out: ["solve-ach", "-i", f["i"], "-o", out],
    "solve-exact": lambda f, out: ["solve-exact", "-i", f["i"], "-o", out],
    "export-milp": lambda f, out: ["export-milp", "-i", f["i"], "-o", out],
    "import": lambda f, out: ["import", "-i", f["i"], "-m", f["m"], "-p", f["p"], "-o", out],
    "compare": lambda f, out: ["compare", f["i"], "-o", out],
}


def _assert_file_error(res, path):
    """Exit 3 with one ``error:`` line that names ``path``, and no traceback."""
    assert res.exit_code == 3, res.output
    assert "Traceback" not in res.output
    errors = [ln for ln in res.output.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and str(path) in errors[0], res.output


class TestFileErrors:
    """An input file that cannot be read, decoded as UTF-8 or parsed, and an
    output file that cannot be written, exit 3 with one ``error:`` line."""

    @pytest.mark.parametrize("content", list(BAD_BYTES))
    @pytest.mark.parametrize("which", list(FILE_INPUTS))
    def test_unreadable_input(self, runner, tmp_path, which, content):
        files = _chain_files(runner, tmp_path)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(BAD_BYTES[content])
        res = run(runner, [str(a) for a in FILE_INPUTS[which](files, bad)])
        _assert_file_error(res, bad)

    @pytest.mark.parametrize("command", list(WRITERS))
    def test_output_under_missing_directory(self, runner, tmp_path, command):
        files = _chain_files(runner, tmp_path)
        out = tmp_path / "missing" / "out"
        res = run(runner, [str(a) for a in WRITERS[command](files, out)])
        _assert_file_error(res, out)

    def test_render_under_a_file(self, runner, tmp_path):
        files = _chain_files(runner, tmp_path)
        out = files["i"] / "frames"
        res = run(runner, ["render", "-i", str(files["i"]), "-s", str(files["s"]),
                           "-o", str(out)])
        _assert_file_error(res, out)

    def test_broken_pipe_left_to_click(self):
        """A reader that stops reading the output is no input error: click
        ends quietly with exit 1."""
        def write():
            raise BrokenPipeError(32, "Broken pipe")
        with pytest.raises(BrokenPipeError):
            cli._bad_input_exits_parse(write)


class TestArbitraryBytes:
    """Arbitrary bytes as any one input file end in exit 0, 2 or 3, never in
    a traceback."""

    @settings(max_examples=10, deadline=timedelta(seconds=30))
    @given(data=st.binary(), which=st.sampled_from(list(FILE_INPUTS)))
    def test_no_traceback(self, data, which):
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp:
            files = _chain_files(runner, Path(tmp))
            bad = Path(tmp) / "bad.bin"
            bad.write_bytes(data)
            with time_limit(20.0):
                res = runner.invoke(cli.main, [str(a) for a in FILE_INPUTS[which](files, bad)])
        assert res.exit_code in (0, 2, 3), (which, data, res.output, res.exception)
        assert "Traceback" not in res.output
