"""Acceptance gate: ten end-to-end criteria over the full toolkit.

Each criterion is one test that prints a single ``criterion NN <name>: PASS``
(or FAIL/SKIP) line, so the verdict table can be read straight off the pytest
output.  Heavyweight artifacts (the heuristic sweep, the oracle sweep) are
computed once per module and shared across criteria.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import subprocess
import time
from contextlib import contextmanager

import pytest
from click.testing import CliRunner

from hangarplan import ach, cli, exact, instgen, io, milp, validator
from hangarplan.core import HangarConfig, evaluate_cost

from conftest import (
    FAMILY_BY_KIND,
    accept,
    brute_force_optimum,
    directed_fixtures,
    make_future,
    make_instance,
    manual_solution,
)
from test_exact import brute_fixtures


@contextmanager
def criterion(num: int, name: str):
    """Print exactly one verdict line for the enclosed criterion."""
    try:
        yield
    except pytest.skip.Exception:
        print(f"criterion {num:02d} {name}: SKIP")
        raise
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# Shared sweeps
# ---------------------------------------------------------------------------

#: >= 100 generated instances: every size 1..15, mixed seeds, with and
#: without schedule compression.
SWEEP_SPECS = (
    [(n, seed, 1.0) for n in range(1, 16) for seed in (0, 1, 2, 3)]
    + [(n, seed, 0.2) for n in range(1, 16) for seed in (0, 1, 2)]
)


@pytest.fixture(scope="module")
def heuristic_sweep():
    """Run the constructive heuristic plus validator over the full sweep.

    Returns (records, heuristic_seconds); each record bundles the instance,
    the heuristic solution, its validation report, the full row system, and
    the derived variable point.
    """
    records = []
    solve_seconds = 0.0
    for n, seed, congestion in SWEEP_SPECS:
        inst = instgen.generate(instgen.GeneratorConfig(
            n_future=n, n_current=n % 3, seed=seed, congestion=congestion))
        t0 = time.perf_counter()
        sol = ach.solve(inst)
        report = validator.validate(inst, sol)
        solve_seconds += time.perf_counter() - t0
        model = milp.build_model(inst)
        point = milp.derive_binaries(inst, sol, model)
        records.append((inst, sol, report, model, point))
    return records, solve_seconds


#: sha256 of the heuristic's plans over ``SWEEP_SPECS``: one line of
#: key-sorted solution JSON per instance, in sweep order.  A change that alters
#: a plan on purpose updates it and says why.
HEURISTIC_SWEEP_SHA256 = "58f2b3294f51d1da3a19a74ad7e4e69e6d6b4ce1fb5763bf028ed3d6978255d7"

#: sha256 of ``ach.improve``'s plans, the plans ``solve-ach`` writes, over
#: ``SWEEP_SPECS``, hashed as ``HEURISTIC_SWEEP_SHA256``.
IMPROVE_SWEEP_SHA256 = "2228683e2986de2758f0d09e4fe3f1a2ed488945cfc2df4794f35dd0777b6df9"

#: Hangars other than the default one, each with its own columns where the
#: grid scan's blocked rectangles end: wide, wide on a finer grid, mid-sized
#: on a finer grid, a step that divides no side, and no buffer.
WIDE_HANGARS = (
    HangarConfig(hw=120.0, hl=100.0),
    HangarConfig(hw=120.0, hl=100.0, buffer=2.5, grid_step=0.5),
    HangarConfig(hw=80.0, hl=70.0, buffer=2.5, grid_step=0.5),
    HangarConfig(grid_step=2.3),
    HangarConfig(hw=100.0, hl=100.0, buffer=0.0),
)

#: sha256 of the heuristic's plans in each of ``WIDE_HANGARS`` for n in
#: (3, 6, 10, 15, 20) with n % 3 parked aircraft, seeds 0-3 and congestion
#: 1.0 and 0.2: 200 instances, hashed as ``HEURISTIC_SWEEP_SHA256``.
WIDE_SWEEP_SHA256 = "79c031fe5de5dc8f430c83146704c0601e38ca6c8ad1f4eaff427d1c45d09a02"


@pytest.fixture(scope="module")
def oracle_sweep():
    """>= 50 small instances solved to proven grid optimality."""
    records = []
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        for seed in range(18):
            inst = instgen.generate(instgen.GeneratorConfig(
                n_future=n, n_current=seed % 2, seed=seed))
            records.append((inst, exact.solve_exact(inst)))
    return records, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

class TestAcceptance:
    def test_criterion_01_feasibility_closure(self, heuristic_sweep):
        with criterion(1, "feasibility closure"):
            records, solve_seconds = heuristic_sweep
            assert len(records) >= 100
            for inst, _, report, _, _ in records:
                assert report.feasible, \
                    f"{inst.label}: {[str(v) for v in report.violations]}"
                assert report.violations == ()
            assert solve_seconds < 300.0

    def test_criterion_02_row_system_equivalence(self, heuristic_sweep):
        with criterion(2, "validator/row-system equivalence"):
            records, _ = heuristic_sweep
            for inst, _, _, model, point in records:
                bad = [v for v in milp.check_satisfaction(model, point)
                       if v[1] > 1e-6]
                assert bad == [], f"{inst.label}: {bad[:5]}"
            fixtures = directed_fixtures()
            assert len(fixtures) == 9
            for kind, (inst, sol) in fixtures.items():
                assert not validator.validate(inst, sol).feasible
                model = milp.build_model(inst)
                point = milp.derive_binaries(inst, sol, model)
                violated = milp.check_satisfaction(model, point)
                assert violated, f"{kind}: no violated rows"
                families = {name.split("(")[0] for name, _ in violated}
                expected = FAMILY_BY_KIND[kind.value]
                assert families & expected, \
                    f"{kind}: violated {families}, expected one of {expected}"

    def test_criterion_03_oracle_dominance(self, oracle_sweep):
        with criterion(3, "oracle dominance"):
            records, elapsed = oracle_sweep
            assert len(records) >= 50
            for inst, res in records:
                assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
                heuristic = evaluate_cost(inst, ach.solve(inst)).total
                assert res.cost.total <= heuristic + 1e-6, inst.label
            for name, inst in brute_fixtures():
                if len(inst.future) > 2:
                    continue
                brute_cost, _ = brute_force_optimum(inst)
                res = exact.solve_exact(inst)
                assert res.cost.total == pytest.approx(brute_cost, abs=1e-9), name
            assert elapsed < 600.0

    def test_criterion_04_economic_break_even(self, heuristic_sweep):
        with criterion(4, "economic break-even"):
            records, _ = heuristic_sweep
            for inst, sol, _, _, _ in records:
                spec = {a.id: a for a in inst.future}
                for asg in sol.assignments:
                    if asg.aircraft_id in spec and asg.accept:
                        # the delay cost even with the roll-out at its earliest
                        sp = spec[asg.aircraft_id]
                        late = max(0.0, asg.roll_in + sp.service - sp.etd)
                        assert sp.p_arr * asg.d_arr + sp.p_dep * late <= sp.p_rej + 1e-6, \
                            f"{inst.label}/{asg.aircraft_id}"

    def test_criterion_05_blocking_fixture(self):
        with criterion(5, "exit-blocking fixture"):
            fa = make_future("a", eta=0.0, service=100.0, slack=0.0)   # ETD 100
            fb = make_future("b", eta=0.0, service=119.8, slack=10.0)
            inst = make_instance(future=[fa, fb])
            upper = accept("b", 5.0, 32.0, 0.2, 120.0, eta=fb.eta, etd=fb.etd)

            def plan(roll_out_a):
                return manual_solution(inst, {
                    "a": accept("a", 5.0, 5.0, 0.0, roll_out_a,
                                eta=fa.eta, etd=fa.etd),
                    "b": upper})

            # (a) on-time exit at ETD is blocked by the upper lane-mate
            blocked = plan(100.0)
            rep = validator.validate(inst, blocked)
            assert not rep.feasible
            assert {v.kind for v in rep.violations} == \
                {validator.ViolationKind.EXIT_BLOCKED}

            # (b) waiting until the blocker has left restores feasibility
            eps = inst.hangar.eps_t
            cleared = plan(120.0 + eps)
            assert validator.validate(inst, cleared).feasible

            # (c) the row system splits on exactly the same boundary
            model = milp.build_model(inst)
            violated = milp.check_satisfaction(
                model, milp.derive_binaries(inst, blocked, model))
            assert violated
            assert {name.split("(")[0] for name, _ in violated} == \
                {"eq17_exit_block"}
            assert milp.check_satisfaction(
                model, milp.derive_binaries(inst, cleared, model)) == []

    def test_criterion_06_objective_agreement(self, heuristic_sweep):
        with criterion(6, "objective agreement"):
            records, _ = heuristic_sweep
            for inst, _, report, model, point in records:
                obj = milp.objective_value(model, point)
                assert obj == pytest.approx(report.cost.total, abs=1e-6), \
                    inst.label

    def test_criterion_07_generator_statistics(self):
        with criterion(7, "generator statistics"):
            n = 500
            inst = instgen.generate(instgen.GeneratorConfig(n_future=n, seed=7))
            assert len(inst.future) == n
            vip_share = sum(f.vip for f in inst.future) / n
            half_width = 3.29053 * math.sqrt(0.2 * 0.8 / n)  # 99.9% binomial
            assert abs(vip_share - 0.2) <= half_width
            for f in inst.future:
                assert 100.0 <= f.service <= 400.0
                assert 24.0 <= f.etd - f.eta - f.service <= 72.0
                assert 0.0 <= f.eta <= n * 80.0

    def test_criterion_08_congestion_behavior(self):
        with criterion(8, "congestion behavior"):
            def rejected(inst):
                res = exact.solve_exact(inst)
                assert res.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
                return sum(not a.accept for a in res.solution.assignments)

            for seed in range(8):
                base = instgen.generate(instgen.GeneratorConfig(
                    n_future=3, seed=seed))
                compressed = instgen.generate(instgen.GeneratorConfig(
                    n_future=3, seed=seed, congestion=0.2))
                pricey = instgen.generate(instgen.GeneratorConfig(
                    n_future=3, seed=seed, congestion=0.2,
                    rejection_multiplier=10.0))
                assert rejected(compressed) >= rejected(base), f"seed {seed}"
                assert rejected(pricey) <= rejected(compressed), f"seed {seed}"

    def test_criterion_09_pipeline_determinism(self, tmp_path):
        with criterion(9, "pipeline determinism"):
            runner = CliRunner()

            def pipeline(root):
                root.mkdir()
                inst, sol = root / "inst.json", root / "sol.json"
                for args in (
                    ["gen", "--n", "4", "--n-current", "1", "--seed", "11",
                     "-o", str(inst)],
                    ["solve-ach", "-i", str(inst), "-o", str(sol)],
                    ["render", "-i", str(inst), "-s", str(sol),
                     "-o", str(root / "frames"), "--html"],
                ):
                    res = runner.invoke(cli.main, args, catch_exceptions=False)
                    assert res.exit_code == 0
                return sorted(p for p in root.rglob("*") if p.is_file())

            first = pipeline(tmp_path / "run1")
            second = pipeline(tmp_path / "run2")
            assert [p.name for p in first] == [p.name for p in second]
            assert len(first) >= 4   # instance, solution, frames, report
            for a, b in zip(first, second):
                assert a.read_bytes() == b.read_bytes(), a.name

    def test_criterion_10_external_solver_round_trip(self, tmp_path):
        with criterion(10, "external solver round trip"):
            solver = next((s for s in ("cbc", "glpsol", "highs", "scip",
                                       "cplex", "gurobi_cl")
                           if shutil.which(s)), None)
            if solver is None:
                pytest.skip("no external MIP solver on PATH")

            inst = instgen.generate(instgen.GeneratorConfig(n_future=2, seed=3))
            model = milp.build_model(inst)
            lp_path = tmp_path / "model.lp"
            lp_path.write_text(milp.export_lp(model))
            out_path = tmp_path / "solution.txt"
            if solver == "cbc":
                cmd = [solver, str(lp_path), "solve", "solu", str(out_path)]
            elif solver == "glpsol":
                cmd = [solver, "--lp", str(lp_path), "--output", str(out_path)]
            else:
                pytest.skip(f"no invocation recipe for {solver}")
            subprocess.run(cmd, check=True, capture_output=True, timeout=300)

            # Pull `name value` pairs for our variables out of the solver's
            # solution table, whatever surrounding columns it prints.
            names = set(model.variables)
            point_lines = []
            for line in out_path.read_text().splitlines():
                tokens = line.split()
                for i, tok in enumerate(tokens):
                    if tok in names:
                        value = next((t for t in tokens[i + 1:]
                                      if re.fullmatch(r"-?\d+(\.\d+)?([eE][+-]?\d+)?", t)),
                                     None)
                        if value is not None:
                            point_lines.append(f"{tok} {value}")
                        break
            outline = milp.LpOutline([a.id for a in inst.all_aircraft()],
                                     frozenset(model.variables))
            solution = milp.import_solution(outline, inst, "\n".join(point_lines))
            cost = evaluate_cost(inst, solution).total
            heuristic = evaluate_cost(inst, ach.solve(inst)).total
            assert cost <= heuristic + 1e-6


def plans_digest(plans):
    """sha256 of one line of key-sorted solution JSON per plan, in order."""
    digest = hashlib.sha256()
    for sol in plans:
        digest.update(json.dumps(io.solution_to_dict(sol), sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def test_heuristic_sweep_plans_pinned(heuristic_sweep):
    # only the heuristic's plans: the oracle's costs and Big-M sum with the
    # builtin sum(), whose rounding changed in Python 3.12
    records, _ = heuristic_sweep
    assert plans_digest(sol for _, sol, _, _, _ in records) == HEURISTIC_SWEEP_SHA256


def test_improved_sweep_plans_pinned(heuristic_sweep):
    records, _ = heuristic_sweep
    assert plans_digest(ach.improve(inst) for inst, _, _, _, _ in records) == \
        IMPROVE_SWEEP_SHA256


def test_heuristic_plans_pinned_outside_the_default_hangar():
    configs = [instgen.GeneratorConfig(n_future=n, n_current=n % 3, seed=seed,
                                       congestion=congestion, hangar=hangar)
               for hangar in WIDE_HANGARS for n in (3, 6, 10, 15, 20)
               for seed in range(4) for congestion in (1.0, 0.2)]
    assert plans_digest(ach.solve(instgen.generate(c)) for c in configs) == WIDE_SWEEP_SHA256
