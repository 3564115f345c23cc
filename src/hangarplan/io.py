"""JSON (de)serialization for instances and solutions, and the one reader
of input files.

Field names match the domain types one to one; times are hours, lengths are
meters, costs are dimensionless.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Callable, TypeVar, Union

from .core import (
    AircraftSpec,
    Assignment,
    HangarConfig,
    Instance,
    Kind,
    Provenance,
    Solution,
)

PathLike = Union[str, Path]
T = TypeVar("T")


class ParseError(ValueError):
    """An input the program refuses: a file that cannot be read, decoded or
    parsed, a document that is not valid, or an option value out of range."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)


_MISSING = object()


def _field(obj: dict, key: str, context: str, kind: type = object,
           default: Any = _MISSING) -> Any:
    """``obj[key]``, or ``default`` when it is absent and a default is given;
    ParseError unless ``obj`` is a JSON object and the value a ``kind``."""
    if not isinstance(obj, dict):
        raise ParseError(f"{context} must be a JSON object")
    value = obj.get(key, default)
    if value is _MISSING:
        raise ParseError(f"missing field in {context}", field=key)
    if not isinstance(value, kind):
        raise ParseError(f"{context}: expected a JSON {kind.__name__}, got {value!r}",
                         field=key)
    return value


def _number(obj: dict, key: str, context: str) -> float:
    """A required field holding a finite JSON number; booleans are refused."""
    value = _field(obj, key, context)
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return value
    except (TypeError, OverflowError):
        pass
    raise ParseError(f"{context}: expected a finite number, got {value!r}", field=key)


def _make(make: Callable[..., T], context: str, *args: Any, **kwargs: Any) -> T:
    """``make(*args, **kwargs)``, where a value the domain type refuses is a
    ParseError; one raised while reading the arguments keeps its field."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad {context}: {exc}") from exc


def read_file(path: PathLike, what: str, parse: Callable[[str], T]) -> T:
    """``parse`` of the UTF-8 text of the input file ``path``.  A file that
    cannot be read or decoded, or whose text ``parse`` refuses with a
    ParseError, raises a ParseError that names it as ``what``."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc


def parse_json(text: str) -> Any:
    """The JSON document in ``text``; ParseError if it is not one."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------

def hangar_from_dict(d: dict) -> HangarConfig:
    return _make(HangarConfig, "hangar record",
                 **{f.name: _number(d, f.name, "hangar") for f in fields(HangarConfig)})


#: An aircraft record's number fields in file order: the shared ones, then
#: (after ``vip``) those of its kind.
_SHARED_NUMBERS = ("width", "length", "eta", "etd", "service", "p_dep")
_KIND_NUMBERS = {Kind.FUTURE: ("p_rej", "p_arr"), Kind.CURRENT: ("x_init", "y_init")}


def aircraft_to_dict(a: AircraftSpec) -> dict:
    d: dict[str, Any] = {"id": a.id, "kind": a.kind.value}
    for k in _SHARED_NUMBERS + ("vip",) + _KIND_NUMBERS[a.kind]:
        d[k] = getattr(a, k)
    return d


def aircraft_from_dict(d: dict) -> AircraftSpec:
    aid = _field(d, "id", "aircraft", str)
    ctx = f"aircraft {aid}"
    kind = _make(Kind, f"aircraft record {aid}", _field(d, "kind", ctx))
    return _make(AircraftSpec, f"aircraft record {aid}", id=aid, kind=kind,
                 vip=_field(d, "vip", ctx, bool, False),
                 **{k: _number(d, k, ctx) for k in _SHARED_NUMBERS + _KIND_NUMBERS[kind]})


def instance_to_dict(inst: Instance) -> dict:
    return {
        "label": inst.label,
        "hangar": asdict(inst.hangar),
        "current": [aircraft_to_dict(a) for a in inst.current],
        "future": [aircraft_to_dict(a) for a in inst.future],
    }


def instance_from_dict(d: dict) -> Instance:
    return _make(
        Instance, "instance",
        hangar=hangar_from_dict(_field(d, "hangar", "instance")),
        current=tuple(map(aircraft_from_dict, _field(d, "current", "instance", list, []))),
        future=tuple(map(aircraft_from_dict, _field(d, "future", "instance", list, []))),
        label=_field(d, "label", "instance", str, ""),
    )


def save_instance(inst: Instance, path: PathLike) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=2) + "\n", encoding="utf-8")


def load_instance(path: PathLike) -> Instance:
    return read_file(path, "instance", lambda text: instance_from_dict(parse_json(text)))


# ---------------------------------------------------------------------------
# Solution
# ---------------------------------------------------------------------------

def assignment_from_dict(d: dict) -> Assignment:
    aid = _field(d, "aircraft_id", "assignment", str)
    ctx = f"assignment {aid}"
    return Assignment(
        aircraft_id=aid, accept=_field(d, "accept", ctx, bool),
        **{k: _number(d, k, ctx) for k in ("x", "y", "roll_in", "roll_out")},
        **{k: _number(d, k, ctx) for k in ("d_arr", "d_dep") if k in d},
    )


_ASSIGNMENT_KEYS = tuple(f.name for f in fields(Assignment))


def solution_to_dict(sol: Solution) -> dict:
    return {
        "instance_label": sol.instance_label,
        "provenance": sol.provenance.value,
        "assignments": [{k: getattr(a, k) for k in _ASSIGNMENT_KEYS}
                        for a in sol.assignments],
    }


def solution_from_dict(d: dict) -> Solution:
    return _make(
        Solution, "solution",
        instance_label=_field(d, "instance_label", "solution", str, ""),
        assignments=tuple(map(assignment_from_dict, _field(d, "assignments", "solution", list))),
        provenance=_make(Provenance, "solution", d.get("provenance", "manual")),
    )


def save_solution(sol: Solution, path: PathLike) -> None:
    Path(path).write_text(json.dumps(solution_to_dict(sol), indent=2) + "\n", encoding="utf-8")


def load_solution(path: PathLike) -> Solution:
    return read_file(path, "solution", lambda text: solution_from_dict(parse_json(text)))
