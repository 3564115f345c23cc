"""Model materialization: row/variable domain coverage, LP export and its
checked reading, the array form, binary derivation, satisfaction checking,
and solver-point import."""

import gc
import hashlib
import math
import random
import re
import tracemalloc
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hangarplan import ach, exact, instgen, io, milp, validator
from hangarplan.core import TOL, Assignment, HangarConfig, evaluate_cost
from hangarplan.io import ParseError
from hangarplan.validator import ViolationKind

from conftest import (
    FAMILY_BY_KIND,
    LP_EDITS,
    accept,
    directed_fixtures,
    make_current,
    make_future,
    make_instance,
    manual_solution,
    perturb_lp,
    time_limit,
)

DATA = Path(__file__).parent / "data"


def single_aircraft_instance():
    return make_instance(future=[make_future("a01", eta=12.0, service=100.0)],
                         label="golden-single")


def mixed_instance():
    """Current and future aircraft with long ids: the objective and the
    longest pairwise rows (eq13, eq17, eq18) wrap, the others do not."""
    return make_instance(
        future=[make_future("req_a01", eta=12.5, service=96.25),
                make_future("req_a02", eta=40.0, width=30.5, length=27.75,
                            p_arr=12.5, vip=True)],
        current=[make_current("cur_c01", x=5.0, y=5.0, service=60.0)],
        label="golden-mixed")


def lone_parked_instance():
    """One parked aircraft and no request: its X and Y are in no term."""
    return make_instance(current=[make_current("c01", x=7.5)])


def three_aircraft_instance():
    return make_instance(
        future=[make_future("a01", eta=0.0), make_future("a02", eta=40.0)],
        current=[make_current("c01")])


class TestBuildModelDomains:
    def test_single_future_counts(self):
        model = milp.build_model(single_aircraft_instance())
        named = {"X(a01)", "Y(a01)", "Rollin(a01)", "Rollout(a01)",
                 "DArr(a01)", "DDep(a01)", "Accept(a01)"}
        assert named | {milp.CONST_VAR} == set(model.variables)
        families = sorted(r.name.split("(", 1)[0] for r in model.rows)
        assert families == sorted([
            "eq2_accept", "eq3_rollin_eta", "eq4_servt", "eq5_darr",
            "eq6_ddep", "eq7_xmin", "eq8_xmax", "eq9_ymin", "eq10_ymax"])

    def test_pair_domain_coverage(self):
        """Every constraint family emits one row per element of its domain."""
        model = milp.build_model(three_aircraft_instance())
        ids = ["c01", "a01", "a02"]
        fut = {"a01", "a02"}
        ordered = [(a, b) for a in ids for b in ids if a != b]
        unordered = [(ids[i], ids[j]) for i in range(3) for j in range(i + 1, 3)]
        mixed = [(a, b) for a, b in ordered if a in fut or b in fut]
        f_ordered = [(a, b) for a, b in ordered if a in fut and b in fut]
        names = {r.name for r in model.rows}

        for f in fut:
            for fam in ("eq2_accept", "eq3_rollin_eta", "eq5_darr",
                        "eq7_xmin", "eq8_xmax", "eq9_ymin", "eq10_ymax"):
                assert f"{fam}({f})" in names
        for a in ids:
            assert f"eq4_servt({a})" in names
            assert f"eq6_ddep({a})" in names
        for a, b in ordered:
            assert f"eq11_right({a},{b})" in names
            assert f"eq12_above({a},{b})" in names
            assert f"eq14_outin({a},{b})" in names
            assert f"eq17_exit_block({a},{b})" in names
        for a, b in unordered:
            assert f"eq13_rel({a},{b})" in names
            assert f"eq15b_outout({a},{b})" in names
            assert f"eq16b_outout({a},{b})" in names
        for a, b in f_ordered:
            assert f"eq15_inin({a},{b})" in names
            assert f"eq16_inin({a},{b})" in names
        for a, b in mixed:
            assert f"eq16c_inout({a},{b})" in names
            assert f"eq16d_inout({a},{b})" in names
            assert f"eq18_entry_block({a},{b})" in names

        expected = (7 * 2 + 2 * 3 + 4 * len(ordered) + 3 * len(unordered)
                    + 2 * len(f_ordered) + 3 * len(mixed))
        assert len(model.rows) == expected

    def test_initial_conditions_are_bounds(self):
        model = milp.build_model(three_aircraft_instance())
        for name, fix in [("Accept(c01)", "fix19_accept(c01)"),
                          ("X(c01)", "fix20_xinit(c01)"),
                          ("Y(c01)", "fix21_yinit(c01)"),
                          ("Rollin(c01)", "fix22_rollin(c01)")]:
            v = model.variables[name]
            assert v.lb == v.ub
            assert v.fix_name == fix
        assert model.variables["InIn(c01,a01)"].lb == 1.0
        assert model.variables["InIn(c01,a01)"].ub == 1.0
        assert model.variables["InIn(a01,c01)"].ub == 0.0

    def test_quadratic_growth(self):
        def rows_at(n):
            inst = make_instance(future=[make_future(f"a{k:02d}", eta=10.0 * k)
                                         for k in range(n)])
            return len(milp.build_model(inst).rows)
        # second difference of a quadratic is constant
        r = [rows_at(n) for n in (2, 4, 6, 8)]
        assert r[3] - 2 * r[2] + r[1] == r[2] - 2 * r[1] + r[0]

    @pytest.mark.parametrize("aid", ["a 01", "b:2", "a\t1", "c\u00a0", "a,b", "req-a01", "a+1",
                                     "a/1", "a\\1", "a*1", "a^1", "a<1", "a>1", "a=1", "a[1]"])
    @pytest.mark.parametrize("kind", ["future", "current"])
    def test_id_that_cannot_be_an_lp_name(self, aid, kind):
        aircraft = make_future(aid) if kind == "future" else make_current(aid)
        inst = make_instance(**{kind: [aircraft]})
        with pytest.raises(ParseError, match=re.escape(repr(aid))):
            milp.build_model(inst)

    def test_integer_json_values_give_float_rhs(self):
        """An instance read from JSON keeps its integers, and every row's
        right-hand side is still a ``float``."""
        d = io.instance_to_dict(three_aircraft_instance())
        for record in [d["hangar"], *d["future"], *d["current"]]:
            for k, v in record.items():
                if isinstance(v, float) and v == int(v):
                    record[k] = int(v)
        model = milp.build_model(io.instance_from_dict(d))
        assert any(type(c) is int for r in model.rows for c, _ in r.terms)
        assert all(type(r.rhs) is float for r in model.rows)

    def test_epsilons_come_from_config(self):
        from hangarplan.core import HangarConfig, derive_big_m
        inst = make_instance(future=[make_future("a"), make_future("b", eta=300.0)],
                             hangar=HangarConfig(eps_t=0.5, eps_p=0.01))
        model = milp.build_model(inst)
        m_t = derive_big_m(inst)[0]
        row = {r.name: r for r in model.rows}["eq15_inin(a,b)"]
        assert row.rhs == pytest.approx(0.5 - 3.0 * m_t)
        assert dict((v, c) for c, v in model.objective)["X(a)"] == pytest.approx(0.01)


class TestExport:
    def test_golden_single_aircraft(self):
        text = milp.export_lp(milp.build_model(single_aircraft_instance()))
        golden = (DATA / "golden_single.lp").read_text()
        assert text == golden

    def test_golden_mixed_instance(self):
        text = milp.export_lp(milp.build_model(mixed_instance()))
        golden = (DATA / "golden_mixed.lp").read_text()
        assert text == golden
        # the golden file holds both one-line and wrapped rows
        lines = golden.splitlines()
        wrapped = {lines[i - 1].split(":")[0] for i, ln in enumerate(lines)
                   if ln.startswith("  ")}
        assert " obj" in wrapped
        assert any(name.startswith(" eq17_exit_block") for name in wrapped)
        assert any(ln.startswith(" eq2_accept") for ln in lines)
        assert not any(name.startswith(" eq2_accept") for name in wrapped)

    @pytest.mark.parametrize("width", [milp.LINE_WIDTH - 1, milp.LINE_WIDTH,
                                       milp.LINE_WIDTH + 1])
    def test_row_at_line_width(self, width):
        """A row is one line exactly when it fits, as ``_wrap`` has it."""
        name = "r" * (width - len(" : + 1 x <= 0"))
        model = milp.MilpModel({"x": milp.MilpVariable("x", milp.CONTINUOUS)},
                               [milp.MilpRow(name, ((1.0, "x"),), "<=", 0.0)],
                               ((1.0, "x"),))
        lines = milp.export_lp(model).splitlines()
        start = lines.index("Subject To") + 1
        got = lines[start:lines.index("Bounds")]
        assert got == milp._wrap(f" {name}:", "+ 1 x <= 0")
        assert len(got) == (1 if width <= milp.LINE_WIDTH else 2)
        assert max(map(len, got)) <= width

    def test_byte_stable(self):
        inst = three_aircraft_instance()
        assert milp.export_lp(milp.build_model(inst)) == \
            milp.export_lp(milp.build_model(inst))

    def test_variables_fixed_by_bounds_alone_survive(self):
        """A lone parked aircraft's X and Y are in no row and no objective
        term, only in the Bounds section, and the file still declares them."""
        model = milp.build_model(lone_parked_instance())
        assert not any(v == "X(c01)" for r in model.rows for _, v in r.terms)
        assert milp.parse_lp(milp.export_lp(model)).variables == set(model.variables)

    @pytest.mark.parametrize("kind, ub", [(milp.CONTINUOUS, 5.0), (milp.BINARY, math.inf)])
    def test_ranged_bound_refused(self, kind, ub):
        # the one bound line the export writes is ``name = value``
        model = milp.build_model(single_aircraft_instance())
        model.variables["x"] = milp.MilpVariable("x", kind, 0.0, ub)
        with pytest.raises(ValueError, match=re.escape(f"variable x: bounds [0.0, {ub}]")):
            milp.export_lp(model)

    def test_sweep_pinned(self):
        digest = hashlib.sha256()
        for inst in lp_sweep():
            digest.update(milp.export_lp(milp.build_model(inst)).encode())
        assert digest.hexdigest() == LP_SWEEP_SHA256


#: The regimes of the LP sweep: defaults, compressed arrivals with tenfold
#: rejection penalties, a large hangar, and a fine grid with a long eps_t.
LP_SWEEP_REGIMES = [
    {},
    {"congestion": 0.2, "rejection_multiplier": 10.0},
    {"hangar": HangarConfig(hw=120.0, hl=100.0)},
    {"hangar": HangarConfig(grid_step=0.3, eps_t=0.7)},
]


def lp_sweep():
    """Instances for every n in 0..12, 0..3 parked aircraft and each regime."""
    for n in range(13):
        for n_current in range(4):
            for k, regime in enumerate(LP_SWEEP_REGIMES):
                yield instgen.generate(instgen.GeneratorConfig(
                    n_future=n, n_current=n_current, seed=100 * n + 10 * n_current + k,
                    **regime))


#: sha256 of ``export_lp(build_model(inst))`` over ``lp_sweep()``, in sweep
#: order.  A change that alters the LP text on purpose updates it and says
#: why.  Verified on CPython 3.11.7 only: M_T is a builtin ``sum()``, whose
#: rounding changed in Python 3.12.
LP_SWEEP_SHA256 = "0227169cf1fc8a4e26a91e4e6002fa8c55281ecc70b5dfcfbad2339167964deb"


def wrap_per_token(prefix: str, body: str) -> list[str]:
    """``milp._wrap`` as a loop over the tokens: the reference it must equal."""
    lines = []
    cur = prefix
    for tok in body.split(" "):
        if len(cur) + 1 + len(tok) > milp.LINE_WIDTH and cur != prefix:
            lines.append(cur)
            cur = " "
        cur += " " + tok
    lines.append(cur)
    return lines


class TestWrap:
    @settings(max_examples=300)
    @given(prefix=st.text(st.characters(blacklist_characters=" \n"), max_size=259),
           tokens=st.lists(st.integers(1, 260), min_size=1, max_size=12), seed=st.integers(0, 25))
    def test_equals_the_per_token_loop(self, prefix, tokens, seed):
        # The prefix is " " and then no space, as " name:" is in the export,
        # so it never equals a continuation line, which the reference's
        # ``cur != prefix`` would take for an empty one.
        body = " ".join(chr(ord("a") + (seed + k) % 26) * n for k, n in enumerate(tokens))
        assert milp._wrap(" " + prefix, body) == wrap_per_token(" " + prefix, body)


def lp_statements(text: str) -> list[int]:
    """The statement each line of an LP text is in, as ``parse_lp`` groups
    lines: the objective with its section header, a row with its
    continuation lines, and each other line alone.  A skipped line (blank,
    or a ``\\`` comment) joins the statement before it."""
    index, section, statements = -1, None, []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped in milp._SECTIONS:
            section = stripped
            index += 1
        elif line and not line.startswith("\\") and not (
                section == "Minimize" or section == "Subject To" and ":" not in stripped):
            index += 1
        statements.append(index)
    return statements


class TestReadLp:
    """``parse_lp``, as ``read``, checks the LP text and names the first
    fault in it."""

    LP = ("Minimize\n obj: + 1 X(a01)\nSubject To\n r(a01): + 1 X(a01) >= 0\n"
          "Bounds\n{bounds}Binaries\nEnd\n")

    @pytest.mark.parametrize("read", [milp.parse_lp])
    @pytest.mark.parametrize("bounds", [" X(a01) = 5\n"])
    def test_bound_lines(self, read, bounds):
        read(self.LP.format(bounds=bounds))

    @pytest.mark.parametrize("read", [milp.parse_lp])
    @pytest.mark.parametrize("bounds", [" 0 <= X(a01) <= 5\n", " 0 <= X(a01) <= +inf\n"])
    def test_ranged_bound_line(self, read, bounds):
        # ``export_lp`` writes no ranged bound, so the reader takes none
        with pytest.raises(ParseError, match="cannot parse bound"):
            read(self.LP.format(bounds=bounds))

    @pytest.mark.parametrize("read", [milp.parse_lp])
    @pytest.mark.parametrize("bounds", [" X(a01) = 5 5\n", " 0 <= X(a01) <= 5 junk\n"])
    def test_bound_line_with_trailing_text(self, read, bounds):
        with pytest.raises(ParseError, match="cannot parse bound"):
            read(self.LP.format(bounds=bounds))

    @pytest.mark.parametrize("read", [milp.parse_lp])
    def test_variable_bounded_twice(self, read):
        with pytest.raises(ParseError, match=re.escape("X(a01) is bounded twice")):
            read(self.LP.format(bounds=" X(a01) = 5\n X(a01) = 7\n"))

    @pytest.mark.parametrize("read", [milp.parse_lp])
    @pytest.mark.parametrize("coef, rows, message", [
        # a bad number, then a row with no sense: the earlier row's error wins
        ("1", [" r1: + 1 X(a01) >= 0", " r2: + x1 X(a01) >= 0", " r3: + 1 X(a01) 0"],
         "bad number 'x1' in r2"),
        # a wrong sign, then a short row
        ("1", [" r1: + 1 X(a01) >= 0", " r2: * 1 X(a01) >= 0", " r3: + 1 >= 0"],
         "r2: expected a sign, got '*'"),
        ("1", [" r1: + 1 X(a01) >= 0", " r2: * 1 X(a01) >= 0", " r3: + 1 X(a01) + 2 >= 0"],
         "r2: expected a sign, got '*'"),
        # bad numbers in the objective and in a row: the objective's wins
        ("nan", [" r1: + inf X(a01) >= 0"], "non-finite number 'nan' in objective"),
    ])
    def test_first_of_two_faults(self, read, coef, rows, message):
        text = (f"Minimize\n obj: + {coef} X(a01)\nSubject To\n"
                + "".join(row + "\n" for row in rows) + "Bounds\nBinaries\nEnd\n")
        with pytest.raises(ParseError) as error:
            read(text)
        assert str(error.value) == message

    @pytest.mark.parametrize("read", [milp.parse_lp])
    @pytest.mark.parametrize("faults, bounds, message", [
        # a bad number, then a row with no sense in a later block
        ({10: " r10: + x1 X(a01) >= 0", 290: " r290: + 1 X(a01) 0"}, "",
         "bad number 'x1' in r10"),
        # a wrong sign, then a short row in a later block
        ({10: " r10: * 1 X(a01) >= 0", 290: " r290: + 1 >= 0"}, "",
         "r10: expected a sign, got '*'"),
        # a faulty row, then a bad bound line
        ({290: " r290: + 1 X(a01) 0"}, " X(a01) = 5 5\n",
         "cannot parse row r290"),
    ])
    def test_first_of_two_faults_in_different_blocks(self, read, faults, bounds, message):
        assert milp._BLOCK_ROWS < 290  # r10 and r290 fall in different blocks
        rows = "".join(faults.get(k, f" r{k}: + 1 X(a01) >= 0") + "\n" for k in range(1, 301))
        text = (f"Minimize\n obj: + 1 X(a01)\nSubject To\n{rows}"
                f"Bounds\n{bounds}Binaries\nEnd\n")
        with pytest.raises(ParseError) as error:
            read(text)
        assert str(error.value) == message

    @pytest.mark.parametrize("text, message", [
        # no objective: named when the rows begin, before a faulty row
        ("Subject To\n r1: + 1 X 0\nEnd\n", "objective has no name"),
        # a file with no rows: the objective is checked when its section ends
        ("Minimize\n obj: + nan X\nBounds\n X = 5 5\nEnd\n",
         "non-finite number 'nan' in objective"),
        ("Minimize\n obj: + 1 X\nBounds\n X = 5 5\nEnd\n", "cannot parse bound 'X = 5 5'"),
        ("Minimize\n obj: + 1 X +\n", "objective: 4 tokens do not form '± coef name' terms"),
    ])
    def test_objective_fault_before_what_follows(self, text, message):
        with pytest.raises(ParseError) as error:
            milp.parse_lp(text)
        assert str(error.value) == message

    @settings(max_examples=100, deadline=timedelta(seconds=30))
    @given(n=st.integers(5, 8), n_current=st.integers(0, 2), seed=st.integers(0, 2**16),
           first=st.tuples(st.sampled_from(LP_EDITS), st.integers(0, 10**6), st.integers(0, 10**6)),
           second=st.tuples(st.sampled_from(LP_EDITS), st.integers(0, 10**6), st.integers(0, 10**6)))
    def test_a_later_edit_keeps_the_first_fault(self, n, n_current, seed, first, second):
        """Of two edits of an export of one to four blocks of rows, the
        later one, at least two statements after the earlier, leaves the
        fault that the earlier one alone gives."""
        text = milp.export_lp(milp.build_model(instgen.generate(instgen.GeneratorConfig(
            n_future=n, n_current=n_current, seed=seed))))
        action, line_no, token_no = first
        one = perturb_lp(text, action, line_no, token_no)
        try:
            milp.parse_lp(one)
        except ParseError as error:
            message = str(error)
        else:
            assume(False)  # the earlier edit leaves a file that parses
        # An edit can join its line to the statement before it (a row that
        # loses its name, a deleted line before a continuation line), so the
        # later edit is at least two statements past the earlier one's.
        statement = lp_statements(one)
        i = min(line_no % len(text.splitlines()), len(statement) - 1)
        later = [j for j, k in enumerate(statement) if k >= statement[i] + 2]
        assume(later)
        action, line_no, token_no = second
        two = perturb_lp(one, action, later[line_no % len(later)], token_no)
        with pytest.raises(ParseError) as error:
            milp.parse_lp(two)
        assert str(error.value) == message

    def test_outline_holds_little_beyond_the_text(self):
        # a model of n = 25 requests and one parked aircraft: 6,952 rows
        instance = instgen.generate(instgen.GeneratorConfig(n_future=25, n_current=1, seed=1))
        text = milp.export_lp(milp.build_model(instance))
        tracemalloc.start()
        try:
            milp.parse_lp(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * len(text)


class TestDeriveBinaries:
    def test_stacked_layout_sets_above(self):
        fa = make_future("a", eta=0.0, service=100.0)
        fb = make_future("b", eta=0.0, service=119.8)
        inst = make_instance(future=[fa, fb])
        sol = manual_solution(inst, {
            "a": accept("a", 5.0, 5.0, 0.0, 120.1, eta=fa.eta, etd=fa.etd),
            "b": accept("b", 5.0, 32.0, 0.2, 120.0, eta=fb.eta, etd=fb.etd)})
        point = milp.derive_binaries(inst, sol, milp.build_model(inst))
        assert point["Above(b,a)"] == 1.0
        assert point["Above(a,b)"] == 0.0
        assert point["Right(a,b)"] == point["Right(b,a)"] == 0.0

    def test_disjoint_pair_sets_outin_one_way(self):
        fa = make_future("a", eta=0.0, service=100.0)
        fb = make_future("b", eta=150.0, service=100.0)
        inst = make_instance(future=[fa, fb])
        sol = manual_solution(inst, {
            "a": accept("a", 5.0, 5.0, 0.0, 100.0, eta=fa.eta, etd=fa.etd),
            "b": accept("b", 5.0, 5.0, 150.0, 250.0, eta=fb.eta, etd=fb.etd)})
        point = milp.derive_binaries(inst, sol, milp.build_model(inst))
        assert point["OutIn(a,b)"] == 1.0
        assert point["OutIn(b,a)"] == 0.0
        # spatial binaries stay zero for temporally disjoint pairs
        assert point["Right(a,b)"] == point["Above(a,b)"] == 0.0

    def test_rejected_aircraft_all_zero(self):
        # a giant long-staying current aircraft forces the request out
        c = make_current("c01", width=45.0, length=48.0, service=300.0)
        f = make_future("a01", eta=0.0, service=100.0, p_rej=800.0, p_arr=10.0)
        inst = make_instance(future=[f], current=[c])
        sol = ach.solve(inst)
        assert not sol.by_id()["a01"].accept
        point = milp.derive_binaries(inst, sol, milp.build_model(inst))
        assert point["Accept(a01)"] == 0.0
        assert point["X(a01)"] == 0.0
        for a, b in [("a01", "c01"), ("c01", "a01")]:
            assert point[f"Right({a},{b})"] == 0.0
            assert point[f"Above({a},{b})"] == 0.0
            assert point[f"OutIn({a},{b})"] == 0.0

    def test_rejected_record_with_fields_all_zero(self):
        # a hand-written plan may leave a rejected aircraft's fields set
        c = make_current("c", service=50.0)
        fa = make_future("a", eta=0.0)
        fb = make_future("b", eta=10.0)
        inst = make_instance(future=[fa, fb], current=[c])
        sol = manual_solution(inst, {
            "c": accept("c", 5.0, 5.0, 0.0, 50.0, etd=c.etd),
            "a": accept("a", 36.0, 5.0, 0.0, 100.0, eta=fa.eta, etd=fa.etd),
            "b": Assignment("b", False, x=7.0, y=3.0, roll_in=50.0, roll_out=150.0,
                            d_arr=40.0, d_dep=20.0)})
        point = milp.derive_binaries(inst, sol, milp.build_model(inst))
        for var in ("Accept", "X", "Y", "Rollin", "Rollout", "DArr", "DDep"):
            assert point[f"{var}(b)"] == 0.0
        pairs = [("c", "b"), ("a", "b"), ("b", "c"), ("b", "a")]
        expected = {f"{var}({p},{q})": 0.0 for p, q in pairs
                    for var in ("Right", "Above", "OutIn", "InIn", "InOut")}
        # ... but for the InIn that the parked aircraft fixes
        expected.update({"OutOut(c,b)": 0.0, "OutOut(a,b)": 0.0, "InIn(c,b)": 1.0})
        assert {name for name in point if "(b," in name or name.endswith(",b)")} == set(expected)
        assert {name: point[name] for name in expected} == expected

    @pytest.mark.parametrize("request_accepted", [True, False])
    def test_fixed_inin_of_parked_pairs(self, request_accepted):
        c1 = make_current("c1", service=50.0)
        c2 = make_current("c2", x=36.0, service=60.0)
        f = make_future("f", eta=70.0)
        inst = make_instance(future=[f], current=[c1, c2])
        plan = {"c1": accept("c1", 5.0, 5.0, 0.0, 50.0, etd=c1.etd),
                "c2": accept("c2", 36.0, 5.0, 0.0, 60.0, etd=c2.etd)}
        if request_accepted:
            plan["f"] = accept("f", 5.0, 32.0, 70.0, 170.0, eta=f.eta, etd=f.etd)
        model = milp.build_model(inst)
        point = milp.derive_binaries(inst, manual_solution(inst, plan), model)
        # a parked aircraft rolled in before every request: current -> future
        # 1, future -> current 0, current -> current 1
        expected = {"InIn(c1,c2)": 1.0, "InIn(c1,f)": 1.0, "InIn(c2,c1)": 1.0,
                    "InIn(c2,f)": 1.0, "InIn(f,c1)": 0.0, "InIn(f,c2)": 0.0}
        assert {name: v for name, v in point.items() if name.startswith("InIn(")} == expected
        # the same values as the model's fixing bounds
        for name, value in expected.items():
            assert model.variables[name].lb == model.variables[name].ub == value

    def test_point_follows_the_model_columns(self):
        # the point's values, in order, are the x vector of to_arrays' columns
        for inst in lp_sweep():
            model = milp.build_model(inst)
            point = milp.derive_binaries(inst, ach.solve(inst), model)
            assert list(point) == milp.to_arrays(model).columns

    def test_coincident_events_ambiguous(self):
        fa = make_future("a", eta=0.0, service=100.0)
        fb = make_future("b", eta=100.0, service=100.0)
        inst = make_instance(future=[fa, fb])
        sol = manual_solution(inst, {
            "a": accept("a", 5.0, 5.0, 0.0, 100.0, eta=fa.eta, etd=fa.etd),
            "b": accept("b", 5.0, 5.0, 100.0, 200.0, eta=fb.eta, etd=fb.etd)})
        with pytest.raises(milp.AmbiguousOrder):
            milp.derive_binaries(inst, sol, milp.build_model(inst))

    @pytest.mark.parametrize("b_x, b_stay, message", [
        (5.0, (100.0, 200.0), "OutIn(a,b): events coincide at t=100.0"),
        (40.0, (0.0, 50.0), "InIn(a,b): events coincide at t=0.0"),
        (40.0, (10.0, 100.0), "OutOut(a,b): events coincide at t=100.0"),
    ])
    def test_ambiguous_order_names_the_binary(self, b_x, b_stay, message):
        """The error names the binary whose order the coinciding events leave open."""
        fa = make_future("a", eta=0.0, service=100.0)
        fb = make_future("b", eta=b_stay[0], service=b_stay[1] - b_stay[0])
        inst = make_instance(future=[fa, fb])
        sol = manual_solution(inst, {
            "a": accept("a", 5.0, 5.0, 0.0, 100.0, eta=fa.eta, etd=fa.etd),
            "b": accept("b", b_x, 5.0, *b_stay, eta=fb.eta, etd=fb.etd)})
        with pytest.raises(milp.AmbiguousOrder) as error:
            milp.derive_binaries(inst, sol, milp.build_model(inst))
        assert str(error.value) == message


class TestCheckSatisfaction:
    def test_feasible_solutions_satisfy_all_rows(self):
        for seed in range(6):
            inst = instgen.generate(instgen.GeneratorConfig(
                n_future=4, n_current=1, seed=seed))
            sol = ach.solve(inst)
            model = milp.build_model(inst)
            point = milp.derive_binaries(inst, sol, model)
            assert milp.check_satisfaction(model, point) == [], f"seed {seed}"

    def test_rejection_point_satisfies_rows(self):
        model = milp.build_model(single_aircraft_instance())
        point = {name: 0.0 for name in model.variables}
        point[milp.CONST_VAR] = 1.0
        assert milp.check_satisfaction(model, point) == []

    @pytest.mark.parametrize("kind", list(ViolationKind), ids=lambda k: k.value)
    def test_directed_fixtures_hit_matching_family(self, kind):
        inst, sol = directed_fixtures()[kind]
        model = milp.build_model(inst)
        point = milp.derive_binaries(inst, sol, model)
        violated = milp.check_satisfaction(model, point)
        assert violated, "fixture unexpectedly satisfies the model"
        families = {name.split("(", 1)[0] for name, _ in violated}
        assert families & FAMILY_BY_KIND[kind.value], \
            f"violated {families}, expected overlap with {FAMILY_BY_KIND[kind.value]}"

    def test_deadlock_scenario_splits_on_eq17(self):
        fa = make_future("a", eta=0.0, service=100.0, slack=0.0)
        fb = make_future("b", eta=0.0, service=119.8, slack=10.0)
        inst = make_instance(future=[fa, fb])
        model = milp.build_model(inst)

        def solution(roll_out_a):
            return manual_solution(inst, {
                "a": accept("a", 5.0, 5.0, 0.0, roll_out_a, eta=fa.eta, etd=fa.etd),
                "b": accept("b", 5.0, 32.0, 0.2, 120.0, eta=fb.eta, etd=fb.etd)})

        bad = milp.check_satisfaction(
            model, milp.derive_binaries(inst, solution(100.0), model))
        assert any(name.startswith("eq17_exit_block") for name, _ in bad)
        good = milp.check_satisfaction(
            model, milp.derive_binaries(inst, solution(120.1), model))
        assert good == []

    def test_missing_variable(self):
        model = milp.build_model(single_aircraft_instance())
        with pytest.raises(milp.MissingVariable):
            milp.check_satisfaction(model, {"X(a01)": 0.0})

    def test_missing_variable_names_the_first_in_model_order(self):
        model = milp.build_model(three_aircraft_instance())
        names = list(model.variables)
        point = dict.fromkeys(names[:3] + names[4:9] + names[10:], 0.0)
        with pytest.raises(milp.MissingVariable) as error:
            milp.check_satisfaction(model, point)
        assert error.value.args == (names[3],)


def reference_check(model, point):
    """``check_satisfaction`` as a loop over rows, then bounds: the reference
    its array form must equal to the bit.  Each row adds its terms left to
    right from 0.0, as the builtin ``sum`` does up to Python 3.11 (3.12
    compensates its rounding)."""
    for name in model.variables:
        if name not in point:
            raise milp.MissingVariable(name)
    violated = []
    for row in model.rows:
        lhs = 0.0
        for coef, var in row.terms:
            lhs += coef * point[var]
        if row.sense == "<=":
            res = max(0.0, lhs - row.rhs)
        elif row.sense == ">=":
            res = max(0.0, row.rhs - lhs)
        else:
            res = abs(lhs - row.rhs)
        if res > TOL:
            violated.append((row.name, res))
    for v in model.variables.values():
        val = point[v.name]
        res = max(v.lb - val, val - v.ub, 0.0)
        if res > TOL:
            violated.append((v.fix_name or f"dom_nonneg({v.name})", res))
    return sorted(violated)


def perturbed(point, rng):
    """``point`` with 5 of its variables moved by ±1e-7, 1e-5, 0.3, 7 or 1e3."""
    moved = dict(point)
    for name in rng.sample(sorted(point), min(5, len(point))):
        moved[name] += rng.choice((-1.0, 1.0)) * rng.choice((1e-7, 1e-5, 0.3, 7.0, 1e3))
    return moved


def bits(violated):
    """(name, residual) pairs with each residual as its exact bits."""
    return [(name, res.hex()) for name, res in violated]


class TestToArrays:
    def test_model_of_no_aircraft(self):
        model = milp.build_model(instgen.generate(instgen.GeneratorConfig(n_future=0)))
        arrays = milp.to_arrays(model)
        assert arrays.columns == [milp.CONST_VAR]
        assert len(arrays.rows) == len(arrays.cols) == len(arrays.vals) == 0
        assert len(arrays.row_lower) == len(arrays.row_upper) == 0
        assert (arrays.col_lower.tolist(), arrays.col_upper.tolist()) == ([1.0], [1.0])
        assert arrays.cost.tolist() == [0.0] and arrays.integrality.tolist() == [0]

    def test_objective_with_no_terms(self):
        model = milp.MilpModel({"X(a01)": milp.MilpVariable("X(a01)", milp.CONTINUOUS)},
                               [milp.MilpRow("r(a01)", ((1.0, "X(a01)"),), ">=", 0.0)], ())
        cost = milp.to_arrays(model).cost
        assert cost.dtype == np.float64 and cost.tolist() == [0.0]

    def test_zero_coefficients_are_left_out(self):
        # a01's eta is 0, so eq3_rollin_eta(a01) holds "+ 0 Accept(a01)"
        model = milp.build_model(three_aircraft_instance())
        arrays = milp.to_arrays(model)
        row = [r.name for r in model.rows].index("eq3_rollin_eta(a01)")
        assert (0.0, "Accept(a01)") in model.rows[row].terms
        assert [arrays.columns[j] for j in arrays.cols[arrays.rows == row]] == ["Rollin(a01)"]
        assert 0.0 not in arrays.vals
        assert len(arrays.vals) == sum(c != 0 for r in model.rows for c, _ in r.terms)

    def test_senses_open_one_side(self):
        model = milp.build_model(single_aircraft_instance())
        arrays = milp.to_arrays(model)
        for row, lower, upper in zip(model.rows, arrays.row_lower, arrays.row_upper):
            assert (lower, upper) == {"<=": (-math.inf, row.rhs), ">=": (row.rhs, math.inf),
                                      "=": (row.rhs, row.rhs)}[row.sense]

    def test_check_satisfaction_equals_the_row_loop(self):
        """On the ``ach`` point and two perturbed points of each sweep
        instance, the same violations with the same bits."""
        rng = random.Random(31)
        with_violations = 0
        for inst in lp_sweep():
            model = milp.build_model(inst)
            point = milp.derive_binaries(inst, ach.solve(inst), model)
            for p in (point, perturbed(point, rng), perturbed(point, rng)):
                want = reference_check(model, p)
                assert bits(milp.check_satisfaction(model, p)) == bits(want)
                with_violations += bool(want)
        assert with_violations > 200


def assert_point_satisfies_rows(instance, solution):
    """The plan validates, and its derived point satisfies every row at the
    validator's cost."""
    rep = validator.validate(instance, solution)
    assert rep.feasible, validator.explain(rep)
    model = milp.build_model(instance)
    point = milp.derive_binaries(instance, solution, model)
    assert milp.check_satisfaction(model, point) == []
    assert milp.objective_value(model, point) == pytest.approx(rep.cost.total, abs=1e-6)


class TestBigMKeepsSolverPlans:
    """The big-M constants of ``core.derive_big_m`` keep the plans of both
    solvers in the row system."""

    def test_request_wider_than_the_hangar(self):
        # rejection puts X(f) at 0 beside the parked X(c) = 5; eq11_right(c,f)
        # needs M_X >= 70 + 5, more than the hangar's width
        c = make_current("c", width=20.0, length=20.0, service=50.0, etd=60.0)
        f = make_future("f", width=70.0, length=20.0, eta=10.0, etd=100.0,
                        service=50.0, p_rej=900.0, p_arr=10.0, p_dep=20.0)
        inst = make_instance(future=[f], current=[c])
        for solution in (ach.solve(inst), exact.solve_exact(inst).solution):
            assert not solution.by_id()["f"].accept
            assert_point_satisfies_rows(inst, solution)

    def test_serialized_pair_rolls_out_past_the_sum_of_services(self):
        # neither fits beside the other, so b rolls in at 100.1 and out at
        # 200.1, past the eta plus the services
        fa, fb = (make_future(i, width=45.0, length=48.0, eta=0.0, service=100.0,
                              etd=300.0, p_rej=5000.0, p_arr=10.0, p_dep=20.0)
                  for i in ("a", "b"))
        inst = make_instance(future=[fa, fb])
        result = exact.solve_exact(inst)
        assert result.status is exact.OracleStatus.PROVEN_OPTIMAL_ON_GRID
        assert result.cost.total == pytest.approx(1001.02)
        assert result.nodes_explored == 9
        for solution in (ach.solve(inst), result.solution):
            assert solution.by_id()["b"].roll_out == pytest.approx(200.1)
            assert_point_satisfies_rows(inst, solution)

    def test_identical_requests_accept_one(self):
        # three identical requests listed b, a, c, each filling the hangar for
        # the whole window: a plan accepts one of them and rejects two
        inst = make_instance(future=[
            make_future(aid, width=45.0, length=48.0, eta=0.0, etd=100.0, service=100.0,
                        p_dep=20.0, p_rej=10.0, p_arr=10.0) for aid in "bac"])
        for solution in (ach.solve(inst), exact.solve_exact(inst).solution):
            assert sum(a.accept for a in solution.assignments) == 1
            assert evaluate_cost(inst, solution).total == pytest.approx(20.01)
            assert_point_satisfies_rows(inst, solution)


class TestParkedAtTimeZero:
    """A parked aircraft is in the hangar from before the plan starts, as
    ``eq18_entry_block`` and the fixed ``InIn`` have it."""

    def test_request_due_at_zero_waits_for_the_parked_aircraft_above(self):
        # c fills the hangar's width at its back wall and leaves at 1, so f,
        # due at 0, rolls in beneath it once c has left
        h = HangarConfig(hw=40.0, hl=40.0, buffer=0.0, eps_t=2.5e-6)
        c = make_current("c", width=40.0, length=10.0, x=0.0, y=30.0, service=1.0, etd=1.0)
        f = make_future("f", width=40.0, length=10.0, eta=0.0, service=30.0, p_arr=0.0)
        inst = make_instance(current=[c], future=[f], hangar=h)
        for solution in (ach.solve(inst), exact.solve_exact(inst).solution):
            assert solution.by_id()["f"].roll_in == pytest.approx(1.0 + h.eps_t, abs=1e-9)
            assert_point_satisfies_rows(inst, solution)


@st.composite
def hand_built_instances(draw):
    """Small hangars, long eps_t, and requests up to 45 x 48 m, some of them
    larger than the hangar; 0-1 parked aircraft at the corner."""
    h = HangarConfig(hw=draw(st.sampled_from([40.0, 65.0])),
                     hl=draw(st.sampled_from([40.0, 60.0, 100.0])),
                     buffer=draw(st.sampled_from([0.0, 5.0])),
                     eps_t=draw(st.sampled_from([0.1, 1.0, 7.0, 30.0])),
                     grid_step=draw(st.sampled_from([1.0, 2.3, 5.0])))
    current = []
    if draw(st.booleans()):
        service = draw(st.integers(1, 150))
        current.append(make_current(
            "c", width=draw(st.integers(5, int(h.hw - 2 * h.buffer))),
            length=draw(st.integers(5, int(h.hl - 2 * h.buffer))),
            x=h.buffer, y=h.buffer, service=service,
            etd=service + draw(st.integers(0, 50))))
    future = []
    for k in range(draw(st.integers(1, 4))):
        eta = draw(st.integers(0, 100))
        service = h.eps_t + draw(st.integers(0, 100))
        future.append(make_future(
            f"f{k}", width=draw(st.integers(5, 45)), length=draw(st.integers(5, 48)),
            eta=eta, service=service, etd=eta + service + draw(st.integers(0, 50)),
            p_rej=draw(st.sampled_from([100.0, 900.0, 5000.0])),
            p_arr=draw(st.sampled_from([0.0, 10.0])),
            p_dep=draw(st.sampled_from([0.0, 20.0]))))
    return make_instance(current=current, future=future, hangar=h)


class TestSolverPlanProperties:
    """Criterion 02 on hand-built instances: a validated plan of ``ach``, and
    at n <= 3 of the oracle, has a derived point that satisfies every row."""

    @settings(max_examples=300, deadline=timedelta(seconds=30))
    @given(instance=hand_built_instances())
    def test_plan_points_satisfy_every_row(self, instance):
        with time_limit(25.0):
            plans = [ach.solve(instance)]
            if len(instance.future) <= 3:
                plans.append(exact.solve_exact(instance).solution)
            model = milp.build_model(instance)
            for solution in plans:
                if validator.validate(instance, solution).feasible:
                    point = milp.derive_binaries(instance, solution, model)
                    assert milp.check_satisfaction(model, point) == []


class TestObjective:
    def test_matches_cost_evaluator(self):
        for seed in range(6):
            inst = instgen.generate(instgen.GeneratorConfig(
                n_future=4, n_current=1, seed=seed))
            sol = ach.solve(inst)
            model = milp.build_model(inst)
            point = milp.derive_binaries(inst, sol, model)
            assert milp.objective_value(model, point) == pytest.approx(
                evaluate_cost(inst, sol).total, abs=1e-6)

    def test_all_reject_objective_is_penalty_sum(self):
        inst = three_aircraft_instance()
        sol = ach.solve(make_instance(current=inst.current))  # current only
        model = milp.build_model(inst)
        point = {name: 0.0 for name in model.variables}
        point[milp.CONST_VAR] = 1.0
        for c in inst.current:
            point[f"Accept({c.id})"] = 1.0
            point[f"X({c.id})"] = c.x_init
            point[f"Y({c.id})"] = c.y_init
            point[f"Rollout({c.id})"] = c.service
            for f in inst.future:
                point[f"InIn({c.id},{f.id})"] = 1.0
        assert milp.objective_value(model, point) == pytest.approx(
            sum(f.p_rej for f in inst.future))


def outline_of(instance, model):
    """The ``LpOutline`` that ``parse_lp`` gives of ``model``'s export."""
    return milp.LpOutline([a.id for a in instance.all_aircraft()], frozenset(model.variables))


class TestImport:
    def _point_text(self, point):
        return "\n".join(f"{k} {v}" for k, v in point.items())

    def test_round_trip_via_point_dump(self):
        inst = three_aircraft_instance()
        sol = ach.solve(inst)
        model = milp.build_model(inst)
        point = milp.derive_binaries(inst, sol, model)
        imported = milp.import_solution(outline_of(inst, model), inst, self._point_text(point))
        for a in inst.all_aircraft():
            orig, back = sol.by_id()[a.id], imported.by_id()[a.id]
            assert back.accept == orig.accept
            if orig.accept:
                assert back.x == pytest.approx(orig.x)
                assert back.roll_in == pytest.approx(orig.roll_in)
                assert back.roll_out == pytest.approx(orig.roll_out)

    def test_unlisted_variables_default_to_zero(self):
        inst = single_aircraft_instance()
        model = milp.build_model(inst)
        imported = milp.import_solution(outline_of(inst, model), inst, "Const 1\n")
        assert not imported.by_id()["a01"].accept

    def test_undeclared_name_rejected(self):
        # the first name the model does not declare, in file order
        inst = make_instance(future=[make_future("a01"), make_future("a02")])
        outline = milp.parse_lp(milp.export_lp(milp.build_model(inst)))
        with pytest.raises(ParseError, match=r"Accpet\(a01\)"):
            milp.import_solution(outline, inst, "X(a01) 5\nAccpet(a01) 1\nBogus 7\n")

    def test_model_of_other_instance_rejected(self):
        inst, other = three_aircraft_instance(), single_aircraft_instance()
        own = outline_of(inst, milp.build_model(inst))
        with pytest.raises(ParseError):
            milp.import_solution(outline_of(other, milp.build_model(other)), inst, "")
        reordered = milp.LpOutline(own.aircraft_ids[::-1], own.variables)
        with pytest.raises(ParseError):
            milp.import_solution(reordered, inst, "")

    def test_malformed_point(self):
        with pytest.raises(ParseError):
            milp.parse_point("X(a01) 1 2\n")
        with pytest.raises(ParseError):
            milp.parse_point("X(a01) notanumber\n")

    @pytest.mark.parametrize("text, message", [
        ("X(a01) notanumber", "bad number 'notanumber' in line 1"),
        ("X(a01) 1\nY(a01) inf\n", "non-finite number 'inf' in line 2"),
        ("A 1\nA 0", "line 2: A is already set on line 1"),
        ("A 1\n\nB 1 2\n", "line 3: expected 'name value', got 'B 1 2'"),
    ])
    def test_point_fault_names_its_line(self, text, message):
        with pytest.raises(ParseError) as error:
            milp.parse_point(text)
        assert str(error.value) == message

    def test_name_set_twice(self):
        with pytest.raises(ParseError, match=r"line 4: Accept\(a02\) is already set on line 2"):
            milp.parse_point("Accept(a01) 1\nAccept(a02) 1\n# again\nAccept(a02) 0\n")

    def test_comment_and_blank_lines_ignored(self):
        point = milp.parse_point("# header\n\nX(a01) 5.0\n\\ solver chatter\n")
        assert point == {"X(a01)": 5.0}

    def test_infeasible_point_rejected(self):
        inst = single_aircraft_instance()
        model = milp.build_model(inst)
        text = ("Accept(a01) 1\nX(a01) 1\nY(a01) 5\n"
                "Rollin(a01) 12\nRollout(a01) 112\n")
        with pytest.raises(validator.Infeasible) as exc:
            milp.import_solution(outline_of(inst, model), inst, text)
        kinds = {v.kind for v in exc.value.report.violations}
        assert ViolationKind.OUT_OF_BOUNDS in kinds
        assert str(exc.value) == validator.explain(exc.value.report)


#: The functions that run with the collector paused, each with a module
#: global its body calls.
PAUSED = {"build_model": "derive_big_m", "derive_binaries": "vAcc",
          "export_lp": "_num", "parse_lp": "_number", "parse_point": "_number"}


def paused_calls():
    """One call of each function in ``PAUSED``, on an instance with parked
    and requested aircraft."""
    inst = instgen.generate(instgen.GeneratorConfig(n_future=4, n_current=2, seed=3))
    sol = ach.solve(inst)
    model = milp.build_model(inst)
    text = milp.export_lp(model)
    point_text = "".join(f"{k} {v!r}\n" for k, v in milp.derive_binaries(inst, sol, model).items())
    return {
        "build_model": lambda: milp.build_model(inst),
        "export_lp": lambda: milp.export_lp(model),
        "parse_lp": lambda: milp.parse_lp(text),
        "derive_binaries": lambda: milp.derive_binaries(inst, sol, model),
        "parse_point": lambda: milp.parse_point(point_text),
    }


class TestCollectorPaused:
    """The row-system functions pause the cyclic collector and leave its
    state as they found it; the pause loses nothing, because they leave no
    cyclic garbage behind."""

    @pytest.mark.parametrize("name", PAUSED)
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, collector, monkeypatch, name, enabled):
        call = paused_calls()[name]
        helper = getattr(milp, PAUSED[name])
        seen = []

        def probe(*args, **kwargs):
            seen.append(gc.isenabled())
            return helper(*args, **kwargs)

        monkeypatch.setattr(milp, PAUSED[name], probe)
        (gc.enable if enabled else gc.disable)()
        call()
        assert gc.isenabled() is enabled
        assert seen and not any(seen)  # paused while the body ran

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_on_parse_error(self, collector, enabled):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ParseError):
            milp.parse_lp("Minimize\n obj: + 1\nEnd\n")
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("name", PAUSED)
    def test_no_cyclic_garbage(self, collector, name):
        call = paused_calls()[name]
        call()  # warm-up: caches filled on first use are not garbage
        gc.disable()
        gc.collect()
        call()
        assert gc.collect() == 0


@st.composite
def instgen_instances(draw):
    return instgen.generate(instgen.GeneratorConfig(
        n_future=draw(st.integers(0, 15)), n_current=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 2**31 - 1)),
        congestion=draw(st.sampled_from([0.2, 1.0])),
        rejection_multiplier=draw(st.sampled_from([1.0, 10.0]))))


class TestRowLayerProperties:
    """``export_lp`` and ``parse_lp`` on generated instances."""

    @settings(max_examples=10, deadline=timedelta(seconds=10))
    @given(instance=instgen_instances())
    def test_round_trip_keeps_the_model(self, instance):
        """The export reads back as the model's aircraft and variable names;
        HiGHS checks its rows (``tests/test_lp_highs.py``)."""
        model = milp.build_model(instance)
        outline = milp.parse_lp(milp.export_lp(model))
        assert outline.aircraft_ids == [a.id for a in instance.all_aircraft()]
        assert outline.variables == set(model.variables)


class TestHeuristicPlanProperties:
    """``ach`` plans of generated instances pass the validator, and their
    derived point satisfies every row at the validator's cost."""

    @settings(max_examples=10, deadline=timedelta(seconds=30))
    @given(instance=instgen_instances())
    def test_plan_point_satisfies_every_row(self, instance):
        with time_limit(25.0):
            solution = ach.solve(instance)
            rep = validator.validate(instance, solution)
            model = milp.build_model(instance)
            point = milp.derive_binaries(instance, solution, model)
            assert rep.feasible, validator.explain(rep)
            assert milp.check_satisfaction(model, point) == []
            assert milp.objective_value(model, point) == pytest.approx(rep.cost.total, abs=1e-6)
