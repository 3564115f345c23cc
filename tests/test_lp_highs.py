"""HiGHS reads the LP export as the row system it was written from.

HiGHS (Huangfu & Hall, "Parallelizing the dual revised simplex method",
Math. Prog. Comp. 10, 2018) is the solver that scipy bundles.  Its reading
of an exported file must equal ``milp.to_arrays`` of the model, and its
optimum of a small export must import as a plan of the same cost.  The tests
skip when scipy, its HiGHS class or one of the methods they call is missing.
"""

import itertools
import math

import numpy as np
import pytest
from click.testing import CliRunner

from hangarplan import cli, io, milp
from hangarplan.core import evaluate_cost

from test_milp import DATA, lp_sweep, mixed_instance, single_aircraft_instance

METHODS = ("readModel", "getLp", "run", "getSolution", "getInfo", "getModelStatus",
           "setOptionValue")

try:
    from scipy.optimize._highspy._core import _Highs
except ImportError as exc:
    pytest.skip(f"scipy's HiGHS class cannot be imported: {exc}", allow_module_level=True)
if any(not hasattr(_Highs, name) for name in METHODS):
    pytest.skip("scipy's HiGHS class lacks one of " + ", ".join(METHODS),
                allow_module_level=True)

#: ``_num`` writes 12 significant digits, which round by at most 5e-12.
RTOL = 1e-11

#: Every fifth instance of ``lp_sweep()``, by its place in the sweep: each n
#: and each number of parked aircraft, in each regime.
SWEEP_SLICE = dict(itertools.islice(enumerate(lp_sweep()), 0, None, 5))


def highs_reading(path):
    """A HiGHS instance that has read the LP file at ``path``."""
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    status = highs.readModel(str(path))
    assert status.name == "kOk", f"HiGHS cannot read {path.name}: {status}"
    return highs


def assert_reads_as_model(path, model):
    """HiGHS's reading of ``path`` equals ``to_arrays(model)``: names,
    pattern, open sides and integrality exactly, numbers within ``RTOL``."""
    lp = highs_reading(path).getLp()
    want = milp.to_arrays(model)
    # HiGHS orders columns by first appearance; map them by name
    assert sorted(lp.col_names_) == sorted(want.columns)
    index = {name: j for j, name in enumerate(want.columns)}
    order = np.array([index[name] for name in lp.col_names_], dtype=np.intp)
    assert list(lp.row_names_) == [row.name for row in model.rows]

    matrix = lp.a_matrix_
    assert matrix.format_.name == "kColwise"
    start = np.asarray(matrix.start_)
    got_cols = order[np.repeat(np.arange(lp.num_col_), np.diff(start))]
    got_rows = np.asarray(matrix.index_, dtype=np.intp)
    got_vals = np.asarray(matrix.value_, dtype=float)
    got, wanted = (np.lexsort((cols, rows)) for rows, cols in
                   ((got_rows, got_cols), (want.rows, want.cols)))
    assert np.array_equal(got_rows[got], want.rows[wanted])
    assert np.array_equal(got_cols[got], want.cols[wanted])
    np.testing.assert_allclose(got_vals[got], want.vals[wanted], rtol=RTOL, atol=0)

    for got_side, want_side in ((lp.row_lower_, want.row_lower),
                                (lp.row_upper_, want.row_upper),
                                (lp.col_lower_, want.col_lower[order]),
                                (lp.col_upper_, want.col_upper[order]),
                                (lp.col_cost_, want.cost[order])):
        got_side = np.asarray(got_side, dtype=float)
        assert np.array_equal(np.isinf(got_side), np.isinf(want_side))
        np.testing.assert_allclose(got_side, want_side, rtol=RTOL, atol=0)
    assert lp.offset_ == 0.0
    integrality = np.array([int(t) for t in lp.integrality_], dtype=np.uint8)
    assert np.array_equal(integrality if len(integrality) else np.zeros(lp.num_col_, np.uint8),
                          want.integrality[order])


class TestHighsReadsTheExport:
    def test_golden_single(self):
        assert_reads_as_model(DATA / "golden_single.lp",
                              milp.build_model(single_aircraft_instance()))

    @pytest.mark.xfail(strict=True, reason=(
        "the ids req-a01 and cur-c01 hold a '-', which the CPLEX LP format "
        "reads as an operator: HiGHS cannot parse the row eq2_accept(req-a01)"))
    def test_golden_mixed(self):
        assert_reads_as_model(DATA / "golden_mixed.lp", milp.build_model(mixed_instance()))

    @pytest.mark.parametrize("k", SWEEP_SLICE)
    def test_sweep(self, tmp_path, k):
        model = milp.build_model(SWEEP_SLICE[k])
        path = tmp_path / "model.lp"
        path.write_text(milp.export_lp(model), encoding="utf-8")
        assert_reads_as_model(path, model)


def test_highs_optimum_imports_at_its_cost(tmp_path):
    """HiGHS solves a small export to a zero gap; its columns, as a point
    file, import through the CLI as a plan whose cost is its objective."""
    runner = CliRunner()
    inst_p, lp_p = tmp_path / "inst.json", tmp_path / "model.lp"
    point_p, plan_p = tmp_path / "point.txt", tmp_path / "plan.json"
    for args in (["gen", "--n", "4", "--n-current", "1", "--seed", "1", "-o", str(inst_p)],
                 ["export-milp", "-i", str(inst_p), "-o", str(lp_p)]):
        assert runner.invoke(cli.main, args, catch_exceptions=False).exit_code == 0
    highs = highs_reading(lp_p)
    highs.setOptionValue("mip_rel_gap", 0.0)
    highs.run()
    assert highs.getModelStatus().name == "kOptimal"
    values = highs.getSolution().col_value
    point_p.write_text("".join(f"{name} {float(value)!r}\n"
                               for name, value in zip(highs.getLp().col_names_, values)))
    res = runner.invoke(cli.main, ["import", "-i", str(inst_p), "-m", str(lp_p),
                                   "-p", str(point_p), "-o", str(plan_p)],
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    objective = highs.getInfo().objective_function_value
    cost = evaluate_cost(io.load_instance(inst_p), io.load_solution(plan_p)).total
    assert math.isclose(cost, objective, rel_tol=1e-6)
