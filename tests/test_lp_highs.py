"""HiGHS reads the LP export as the row system it was written from.

HiGHS (Huangfu & Hall, "Parallelizing the dual revised simplex method",
Math. Prog. Comp. 10, 2018) is the solver that scipy bundles, and the one
reader that checks what the export means: ``milp.parse_lp`` checks only its
format and outline.  HiGHS's reading of an exported file must equal
``milp.to_arrays`` of the model, and its optimum of a small export must
import as a plan of the same cost.  The tests skip when scipy, its HiGHS
class or one of the methods they call is missing.
"""

import math
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings

from hangarplan import cli, io, milp
from hangarplan.core import evaluate_cost

from conftest import make_current, make_future, make_instance
from test_milp import (
    DATA,
    instgen_instances,
    lone_parked_instance,
    lp_sweep,
    mixed_instance,
    single_aircraft_instance,
    three_aircraft_instance,
)

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

#: Every instance of ``lp_sweep()``, by its place in the sweep, then two
#: small models: a parked aircraft and two requests, one with eta 0, and a
#: lone parked aircraft, whose X and Y are only in the Bounds section.
SWEEP = {**dict(enumerate(lp_sweep())), "three-aircraft": three_aircraft_instance(),
         "lone-parked": lone_parked_instance()}

#: The ASCII punctuation that HiGHS reads in a name, bar ``,`` (which pair
#: names use), and three non-ASCII letters.
NAME_MARKS = "!\"#$%&().;?@_`'{}|~\u00e9\u00fc\u03a9"


def highs_reading(path):
    """A HiGHS instance that has read the LP file at ``path``."""
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    status = highs.readModel(str(path))
    assert status.name == "kOk", f"HiGHS cannot read {path.name}: {status}"
    return highs


def assert_reads_as_model(path, model):
    """HiGHS's reading of ``path`` equals ``to_arrays(model)``: names, the
    place of every matrix entry, open sides and integrality exactly, numbers
    within ``RTOL``."""
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


def assert_export_reads_as_model(directory, model):
    """The export of ``model``, written under ``directory``, reads as it."""
    path = Path(directory) / "model.lp"
    path.write_text(milp.export_lp(model), encoding="utf-8")
    assert_reads_as_model(path, model)


class TestHighsReadsTheExport:
    def test_golden_single(self):
        assert_reads_as_model(DATA / "golden_single.lp",
                              milp.build_model(single_aircraft_instance()))

    def test_golden_mixed(self):
        assert_reads_as_model(DATA / "golden_mixed.lp", milp.build_model(mixed_instance()))

    @pytest.mark.parametrize("k", SWEEP)
    def test_sweep(self, tmp_path, k):
        assert_export_reads_as_model(tmp_path, milp.build_model(SWEEP[k]))

    @settings(max_examples=10, deadline=timedelta(seconds=10))
    @given(instance=instgen_instances())
    def test_generated(self, instance):
        with tempfile.TemporaryDirectory() as tmp:
            assert_export_reads_as_model(tmp, milp.build_model(instance))

    @pytest.mark.parametrize("mark", NAME_MARKS)
    def test_id_marks_that_lp_names_can_hold(self, tmp_path, mark):
        instance = make_instance(future=[make_future(f"a{mark}1"), make_future("a02", eta=40.0)],
                                 current=[make_current(f"c{mark}1")])
        model = milp.build_model(instance)
        assert_export_reads_as_model(tmp_path, model)
        outline = milp.parse_lp((tmp_path / "model.lp").read_text(encoding="utf-8"))
        assert outline == ([a.id for a in instance.all_aircraft()], set(model.variables))


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
