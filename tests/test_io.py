"""JSON round-trips and structured parse errors."""

import copy
import dataclasses
import json

import pytest

from hangarplan import io
from hangarplan.core import Provenance

from conftest import (
    NON_FINITE,
    accept,
    instance_doc_with,
    make_current,
    make_future,
    make_instance,
    manual_solution,
    time_limit,
)


@pytest.fixture
def instance():
    return make_instance(
        future=[make_future("a01", eta=12.5, vip=True),
                make_future("a02", width=36.0, length=38.0, eta=40.0)],
        current=[make_current("c01", x=5.0, y=5.0)],
        label="Inst-02-0001")


class TestInstanceIO:
    def test_round_trip(self, instance, tmp_path):
        path = tmp_path / "inst.json"
        io.save_instance(instance, path)
        assert io.load_instance(path) == instance

    def test_dict_round_trip_preserves_fields(self, instance):
        d = io.instance_to_dict(instance)
        assert d["label"] == "Inst-02-0001"
        assert d["hangar"]["hw"] == 65.0
        assert d["future"][0]["p_rej"] == 800.0
        assert d["current"][0]["x_init"] == 5.0
        assert io.instance_from_dict(d) == instance

    def test_record_key_order(self, instance):
        # the key order of each record is the file format
        d = io.instance_to_dict(instance)
        assert list(d) == ["label", "hangar", "current", "future"]
        shared = ["id", "kind", "width", "length", "eta", "etd", "service", "p_dep", "vip"]
        assert list(d["current"][0]) == shared + ["x_init", "y_init"]
        assert list(d["future"][0]) == shared + ["p_rej", "p_arr"]

    def test_missing_field_named(self):
        d = {"hangar": {"hw": 65.0}}
        with pytest.raises(io.ParseError) as exc:
            io.instance_from_dict(d)
        assert exc.value.field == "hl"

    def test_missing_aircraft_field(self, instance):
        d = io.instance_to_dict(instance)
        del d["future"][0]["p_rej"]
        with pytest.raises(io.ParseError) as exc:
            io.instance_from_dict(d)
        assert exc.value.field == "p_rej"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(io.ParseError):
            io.load_instance(path)

    def test_non_object_document(self):
        with pytest.raises(io.ParseError):
            io.instance_from_dict([1, 2, 3])

    def test_semantic_violation_propagates(self, instance):
        d = io.instance_to_dict(instance)
        d["current"][0]["x_init"] = -10.0
        with pytest.raises(ValueError):
            io.instance_from_dict(d)


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("field", ["service", "eta", "width", "hw"])
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_load_instance_rejects(self, instance, tmp_path, field, value):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance_doc_with(instance, field, value)))
        with time_limit(10.0), pytest.raises(io.ParseError):
            io.load_instance(path)


class TestSolutionIO:
    def test_round_trip(self, instance, tmp_path):
        sol = manual_solution(instance, {
            "c01": accept("c01", 5.0, 5.0, 0.0, 100.0),
            "a01": accept("a01", 34.0, 5.0, 12.5, 112.5, eta=12.5),
        })
        path = tmp_path / "sol.json"
        io.save_solution(sol, path)
        assert io.load_solution(path) == sol

    def test_provenance_round_trip(self, instance, tmp_path):
        sol = manual_solution(instance, {})
        sol = sol.__class__(instance_label=sol.instance_label,
                            assignments=sol.assignments,
                            provenance=Provenance.ORACLE)
        path = tmp_path / "sol.json"
        io.save_solution(sol, path)
        assert io.load_solution(path).provenance is Provenance.ORACLE

    def test_assignment_records(self, instance):
        sol = manual_solution(instance, {
            "c01": accept("c01", 5.0, 5.0, 0.0, 100.0),
            "a01": accept("a01", 34.0, 5.0, 12.5, 112.5, eta=12.5),
        })
        d = io.solution_to_dict(sol)
        assert list(d) == ["instance_label", "provenance", "assignments"]
        for record, asg in zip(d["assignments"], sol.assignments):
            assert list(record) == ["aircraft_id", "accept", "x", "y",
                                    "roll_in", "roll_out", "d_arr", "d_dep"]
            assert record == dataclasses.asdict(asg)
            # a fresh dict: changing it leaves the assignment as it was
            assert record is not vars(asg)
            before = copy.copy(asg)
            record["x"] = -1.0
            assert asg == before

    def test_missing_assignments_key(self):
        with pytest.raises(io.ParseError) as exc:
            io.solution_from_dict({"instance_label": "x"})
        assert exc.value.field == "assignments"

    def test_truncated_assignment(self, instance, tmp_path):
        sol = manual_solution(instance, {})
        d = io.solution_to_dict(sol)
        del d["assignments"][0]["x"]
        with pytest.raises(io.ParseError):
            io.solution_from_dict(d)

    def test_file_is_stable_json(self, instance, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        io.save_instance(instance, p1)
        io.save_instance(instance, p2)
        assert p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_text())  # well-formed


def _append_copy(key):
    """An edit of a JSON document that repeats the first entry of ``key``."""
    return lambda doc: doc[key].append(copy.deepcopy(doc[key][0]))


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


#: (document, edit): each edit keeps every field's JSON type but describes
#: no valid instance or plan.
MALFORMED = {
    "duplicate-aircraft-ids": ("instance", _append_copy("future")),
    "current-listed-under-future": (
        "instance", lambda doc: doc["future"].append(doc["current"].pop())),
    "initial-position-out-of-bounds": (
        "instance", lambda doc: doc["current"][0].__setitem__("x_init", -10.0)),
    "duplicate-assignments": ("solution", _append_copy("assignments")),
    "provenance-bogus": ("solution", _set("provenance", "bogus")),
    "provenance-list": ("solution", _set("provenance", [1])),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_document_is_parse_error(instance, tmp_path, case):
    which, edit = MALFORMED[case]
    if which == "instance":
        doc, from_dict, load = io.instance_to_dict(instance), io.instance_from_dict, io.load_instance
    else:
        doc = io.solution_to_dict(manual_solution(instance, {}))
        from_dict, load = io.solution_from_dict, io.load_solution
    edit(doc)
    with pytest.raises(io.ParseError):
        from_dict(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(io.ParseError, match="doc.json"):
        load(path)
