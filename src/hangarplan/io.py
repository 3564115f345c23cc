"""JSON (de)serialization for instances and solutions.

Field names match the domain types one to one; times are hours, lengths are
meters, costs are dimensionless.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

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


class ParseError(Exception):
    """Structurally invalid instance/solution document."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)


def _require(obj: dict, key: str, context: str) -> Any:
    if key not in obj:
        raise ParseError(f"missing field in {context}", field=key)
    return obj[key]


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------

def hangar_to_dict(h: HangarConfig) -> dict:
    return {"hw": h.hw, "hl": h.hl, "buffer": h.buffer,
            "eps_t": h.eps_t, "eps_p": h.eps_p, "grid_step": h.grid_step}


def hangar_from_dict(d: dict) -> HangarConfig:
    fields = {k: _require(d, k, "hangar")
              for k in ("hw", "hl", "buffer", "eps_t", "eps_p", "grid_step")}
    try:
        return HangarConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad hangar record: {exc}") from exc


def aircraft_to_dict(a: AircraftSpec) -> dict:
    d: dict[str, Any] = {
        "id": a.id, "kind": a.kind.value,
        "width": a.width, "length": a.length,
        "eta": a.eta, "etd": a.etd, "service": a.service,
        "p_dep": a.p_dep, "vip": a.vip,
    }
    if a.kind is Kind.FUTURE:
        d["p_rej"] = a.p_rej
        d["p_arr"] = a.p_arr
    else:
        d["x_init"] = a.x_init
        d["y_init"] = a.y_init
    return d


def aircraft_from_dict(d: dict) -> AircraftSpec:
    aid = _require(d, "id", "aircraft")
    kind = Kind(_require(d, "kind", f"aircraft {aid}"))
    common = dict(
        id=aid,
        kind=kind,
        width=_require(d, "width", f"aircraft {aid}"),
        length=_require(d, "length", f"aircraft {aid}"),
        eta=_require(d, "eta", f"aircraft {aid}"),
        etd=_require(d, "etd", f"aircraft {aid}"),
        service=_require(d, "service", f"aircraft {aid}"),
        p_dep=_require(d, "p_dep", f"aircraft {aid}"),
        vip=d.get("vip", False),
    )
    try:
        if kind is Kind.FUTURE:
            return AircraftSpec(**common,
                                p_rej=_require(d, "p_rej", f"aircraft {aid}"),
                                p_arr=_require(d, "p_arr", f"aircraft {aid}"))
        return AircraftSpec(**common,
                            x_init=_require(d, "x_init", f"aircraft {aid}"),
                            y_init=_require(d, "y_init", f"aircraft {aid}"))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad aircraft record {aid}: {exc}") from exc


def instance_to_dict(inst: Instance) -> dict:
    return {
        "label": inst.label,
        "hangar": hangar_to_dict(inst.hangar),
        "current": [aircraft_to_dict(a) for a in inst.current],
        "future": [aircraft_to_dict(a) for a in inst.future],
    }


def instance_from_dict(d: dict) -> Instance:
    if not isinstance(d, dict):
        raise ParseError("instance document must be a JSON object")
    return Instance(
        hangar=hangar_from_dict(_require(d, "hangar", "instance")),
        current=tuple(aircraft_from_dict(a) for a in d.get("current", [])),
        future=tuple(aircraft_from_dict(a) for a in d.get("future", [])),
        label=d.get("label", ""),
    )


def save_instance(inst: Instance, path: PathLike) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=2) + "\n")


def load_instance(path: PathLike) -> Instance:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return instance_from_dict(data)


# ---------------------------------------------------------------------------
# Solution
# ---------------------------------------------------------------------------

def assignment_to_dict(a: Assignment) -> dict:
    return {"aircraft_id": a.aircraft_id, "accept": a.accept,
            "x": a.x, "y": a.y, "roll_in": a.roll_in, "roll_out": a.roll_out,
            "d_arr": a.d_arr, "d_dep": a.d_dep}


def assignment_from_dict(d: dict) -> Assignment:
    aid = _require(d, "aircraft_id", "assignment")
    ctx = f"assignment {aid}"
    return Assignment(
        aircraft_id=aid,
        accept=bool(_require(d, "accept", ctx)),
        x=_require(d, "x", ctx), y=_require(d, "y", ctx),
        roll_in=_require(d, "roll_in", ctx), roll_out=_require(d, "roll_out", ctx),
        d_arr=d.get("d_arr", 0.0), d_dep=d.get("d_dep", 0.0),
    )


def solution_to_dict(sol: Solution) -> dict:
    return {
        "instance_label": sol.instance_label,
        "provenance": sol.provenance.value,
        "assignments": [assignment_to_dict(a) for a in sol.assignments],
    }


def solution_from_dict(d: dict) -> Solution:
    if not isinstance(d, dict):
        raise ParseError("solution document must be a JSON object")
    return Solution(
        instance_label=d.get("instance_label", ""),
        assignments=tuple(assignment_from_dict(a)
                          for a in _require(d, "assignments", "solution")),
        provenance=Provenance(d.get("provenance", "manual")),
    )


def save_solution(sol: Solution, path: PathLike) -> None:
    Path(path).write_text(json.dumps(solution_to_dict(sol), indent=2) + "\n")


def load_solution(path: PathLike) -> Solution:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return solution_from_dict(data)
