"""Materialized continuous-time MILP: variable/row construction, LP-format
export and re-parsing, binary derivation from semantic solutions, point
satisfaction checking, and solver-point import.

Row names follow ``eq<k>_<family>(<ids>)`` and are part of the external
contract.  Fixed initial conditions are variable bounds, not rows; bound
violations are reported under ``fix*``/``dom_nonneg`` names.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    TOL,
    Assignment,
    Instance,
    Kind,
    MissingAssignment,
    Provenance,
    Solution,
    derive_big_m,
    intervals_overlap,
    x_separated,
)
from .io import ParseError
from . import validator as _validator

CONTINUOUS = "continuous"
BINARY = "binary"


class AmbiguousOrder(Exception):
    """Two movement events coincide; no strict order can be derived."""


class MissingVariable(Exception):
    """A point does not assign every model variable."""


class InfeasibleImport(Exception):
    """An imported solver point fails semantic validation."""

    def __init__(self, report):
        self.report = report
        super().__init__(_validator.explain(report))


@dataclass(frozen=True)
class MilpVariable:
    name: str
    kind: str  # continuous | binary
    lb: float = 0.0
    ub: float = math.inf
    fix_name: Optional[str] = None  # reporting name for a fixing-bound violation


@dataclass(frozen=True)
class MilpRow:
    name: str
    terms: tuple[tuple[float, str], ...]
    sense: str  # "<=", ">=", "="
    rhs: float

    @property
    def family(self) -> str:
        return self.name.split("(", 1)[0]

    def lhs(self, point: dict[str, float]) -> float:
        return sum(c * point[v] for c, v in self.terms)

    def residual(self, point: dict[str, float]) -> float:
        """Amount by which the row is violated (0 if satisfied)."""
        lhs = self.lhs(point)
        if self.sense == "<=":
            return max(0.0, lhs - self.rhs)
        if self.sense == ">=":
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)


@dataclass
class MilpModel:
    variables: dict[str, MilpVariable]
    rows: list[MilpRow]
    objective: tuple[tuple[float, str], ...]
    aircraft_ids: list[str]


# ---------------------------------------------------------------------------
# Variable / row naming
# ---------------------------------------------------------------------------

def vX(a): return f"X({a})"
def vY(a): return f"Y({a})"
def vIn(a): return f"Rollin({a})"
def vOut(a): return f"Rollout({a})"
def vDArr(a): return f"DArr({a})"
def vDDep(a): return f"DDep({a})"
def vAcc(a): return f"Accept({a})"
def vRight(a, b): return f"Right({a},{b})"
def vAbove(a, b): return f"Above({a},{b})"
def vOutIn(a, b): return f"OutIn({a},{b})"
def vInIn(a, b): return f"InIn({a},{b})"
def vOutOut(a, b): return f"OutOut({a},{b})"
def vInOut(a, b): return f"InOut({a},{b})"

CONST_VAR = "Const"  # fixed to 1; carries the constant objective term


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------

def build_model(instance: Instance) -> MilpModel:
    h = instance.hangar
    m_t, m_x, m_y = derive_big_m(instance)
    eps = h.eps_t

    current = list(instance.current)
    future = list(instance.future)
    aircraft = current + future
    ids = [a.id for a in aircraft]
    spec = {a.id: a for a in aircraft}
    fut = {a.id for a in future}

    variables: dict[str, MilpVariable] = {}
    rows: list[MilpRow] = []

    def add_var(name, kind, lb=0.0, ub=math.inf, fix_name=None):
        variables[name] = MilpVariable(name, kind, lb, ub, fix_name)

    def add_row(name, terms, sense, rhs):
        rows.append(MilpRow(name, tuple(terms), sense, float(rhs)))

    # Continuous variables; current aircraft get fixed bounds in place of rows.
    for a in aircraft:
        if a.kind is Kind.CURRENT:
            add_var(vX(a.id), CONTINUOUS, a.x_init, a.x_init, f"fix20_xinit({a.id})")
            add_var(vY(a.id), CONTINUOUS, a.y_init, a.y_init, f"fix21_yinit({a.id})")
            add_var(vIn(a.id), CONTINUOUS, 0.0, 0.0, f"fix22_rollin({a.id})")
            add_var(vAcc(a.id), BINARY, 1.0, 1.0, f"fix19_accept({a.id})")
        else:
            add_var(vX(a.id), CONTINUOUS)
            add_var(vY(a.id), CONTINUOUS)
            add_var(vIn(a.id), CONTINUOUS)
            add_var(vAcc(a.id), BINARY, 0.0, 1.0)
        add_var(vOut(a.id), CONTINUOUS)
        add_var(vDDep(a.id), CONTINUOUS)
    for f in future:
        add_var(vDArr(f.id), CONTINUOUS)

    ordered = [(a, b) for a in ids for b in ids if a != b]
    unordered = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    mixed = [(a, b) for a, b in ordered if a in fut or b in fut]
    f_ordered = [(a, b) for a, b in ordered if a in fut and b in fut]

    for a, b in ordered:
        add_var(vRight(a, b), BINARY, 0.0, 1.0)
        add_var(vAbove(a, b), BINARY, 0.0, 1.0)
        add_var(vOutIn(a, b), BINARY, 0.0, 1.0)
        if a not in fut and b in fut:
            add_var(vInIn(a, b), BINARY, 1.0, 1.0, f"fix23_inin_cf({a},{b})")
        elif a in fut and b not in fut:
            add_var(vInIn(a, b), BINARY, 0.0, 0.0, f"fix24_inin_fc({a},{b})")
        elif a not in fut and b not in fut:
            add_var(vInIn(a, b), BINARY, 1.0, 1.0, f"fix25_inin_cd({a},{b})")
        else:
            add_var(vInIn(a, b), BINARY, 0.0, 1.0)
    for a, b in unordered:
        add_var(vOutOut(a, b), BINARY, 0.0, 1.0)
    for a, b in mixed:
        add_var(vInOut(a, b), BINARY, 0.0, 1.0)
    add_var(CONST_VAR, CONTINUOUS, 1.0, 1.0)

    # Objective: rejection constant folded into the fixed Const variable.
    obj: list[tuple[float, str]] = []
    rej_sum = sum(f.p_rej for f in future)
    if future:
        obj.append((rej_sum, CONST_VAR))
    for f in future:
        obj.append((-f.p_rej, vAcc(f.id)))
    for f in future:
        obj.append((f.p_arr, vDArr(f.id)))
    for a in aircraft:
        obj.append((a.p_dep, vDDep(a.id)))
    for f in future:
        obj.append((h.eps_p, vX(f.id)))
        obj.append((h.eps_p, vY(f.id)))
    if not future:
        obj.append((0.0, CONST_VAR))

    # Acceptance / scheduling.
    link = m_x + m_y + 4.0 * m_t
    for f in future:
        add_row(f"eq2_accept({f.id})",
                [(1.0, vX(f.id)), (1.0, vY(f.id)), (1.0, vIn(f.id)),
                 (1.0, vOut(f.id)), (1.0, vDArr(f.id)), (1.0, vDDep(f.id)),
                 (-link, vAcc(f.id))], "<=", 0.0)
        add_row(f"eq3_rollin_eta({f.id})",
                [(1.0, vIn(f.id)), (-f.eta, vAcc(f.id))], ">=", 0.0)
    for a in aircraft:
        add_row(f"eq4_servt({a.id})",
                [(1.0, vOut(a.id)), (-1.0, vIn(a.id)), (-a.service, vAcc(a.id))],
                ">=", 0.0)
    for f in future:
        add_row(f"eq5_darr({f.id})",
                [(1.0, vDArr(f.id)), (-1.0, vIn(f.id))], ">=", -f.eta)
    for a in aircraft:
        add_row(f"eq6_ddep({a.id})",
                [(1.0, vDDep(a.id)), (-1.0, vOut(a.id))], ">=", -a.etd)

    # Boundaries (future aircraft; current positions are fixed by bounds).
    for f in future:
        add_row(f"eq7_xmin({f.id})",
                [(1.0, vX(f.id)), (-h.buffer, vAcc(f.id))], ">=", 0.0)
        add_row(f"eq8_xmax({f.id})",
                [(1.0, vX(f.id)), (m_x, vAcc(f.id))],
                "<=", h.hw - h.buffer - f.width + m_x)
        add_row(f"eq9_ymin({f.id})",
                [(1.0, vY(f.id)), (-h.buffer, vAcc(f.id))], ">=", 0.0)
        add_row(f"eq10_ymax({f.id})",
                [(1.0, vY(f.id)), (m_y, vAcc(f.id))],
                "<=", h.hl - h.buffer - f.length + m_y)

    # Relative placement semantics.
    for a, b in ordered:
        add_row(f"eq11_right({a},{b})",
                [(1.0, vX(b)), (-1.0, vX(a)), (m_x, vRight(a, b))],
                "<=", m_x - spec[b].width - h.buffer)
        add_row(f"eq12_above({a},{b})",
                [(1.0, vY(b)), (-1.0, vY(a)), (m_y, vAbove(a, b))],
                "<=", m_y - spec[b].length - h.buffer)

    # Pairwise disjunction.
    for a, b in unordered:
        add_row(f"eq13_rel({a},{b})",
                [(1.0, vRight(b, a)), (1.0, vRight(a, b)),
                 (1.0, vAbove(b, a)), (1.0, vAbove(a, b)),
                 (1.0, vOutIn(a, b)), (1.0, vOutIn(b, a)),
                 (-1.0, vAcc(a)), (-1.0, vAcc(b))], ">=", -1.0)

    # Temporal ordering semantics.
    for a, b in ordered:
        add_row(f"eq14_outin({a},{b})",
                [(1.0, vOut(a)), (-1.0, vIn(b)), (m_t, vOutIn(a, b))],
                "<=", m_t - eps)
    for a, b in f_ordered:
        add_row(f"eq15_inin({a},{b})",
                [(1.0, vIn(b)), (-1.0, vIn(a)), (-m_t, vInIn(a, b)),
                 (-m_t, vAcc(a)), (-m_t, vAcc(b))], ">=", eps - 3.0 * m_t)
        add_row(f"eq16_inin({a},{b})",
                [(1.0, vIn(a)), (-1.0, vIn(b)), (m_t, vInIn(a, b)),
                 (-m_t, vAcc(a)), (-m_t, vAcc(b))], ">=", eps - 2.0 * m_t)
    for a, b in unordered:
        add_row(f"eq15b_outout({a},{b})",
                [(1.0, vOut(b)), (-1.0, vOut(a)), (-m_t, vOutOut(a, b)),
                 (-m_t, vAcc(a)), (-m_t, vAcc(b))], ">=", eps - 3.0 * m_t)
        add_row(f"eq16b_outout({a},{b})",
                [(1.0, vOut(a)), (-1.0, vOut(b)), (m_t, vOutOut(a, b)),
                 (-m_t, vAcc(a)), (-m_t, vAcc(b))], ">=", eps - 2.0 * m_t)
    for a, b in mixed:
        add_row(f"eq16c_inout({a},{b})",
                [(1.0, vOut(b)), (-1.0, vIn(a)), (-m_t, vInOut(a, b)),
                 (-m_t, vAcc(a)), (-m_t, vAcc(b))], ">=", eps - 3.0 * m_t)
        add_row(f"eq16d_inout({a},{b})",
                [(1.0, vIn(a)), (-1.0, vOut(b)), (m_t, vInOut(a, b)),
                 (-m_t, vAcc(a)), (-m_t, vAcc(b))], ">=", eps - 2.0 * m_t)

    # Blocking.
    for a, b in ordered:
        add_row(f"eq17_exit_block({a},{b})",
                [(1.0, vOut(a)), (-1.0, vOut(b)), (-m_t, vAbove(b, a)),
                 (m_t, vRight(a, b)), (m_t, vRight(b, a)), (-m_t, vInIn(a, b))],
                ">=", eps - 2.0 * m_t)
    for a, b in mixed:
        add_row(f"eq18_entry_block({a},{b})",
                [(1.0, vIn(a)), (-1.0, vOut(b)), (-m_t, vAbove(b, a)),
                 (m_t, vRight(a, b)), (m_t, vRight(b, a)), (m_t, vInIn(a, b))],
                ">=", eps - m_t)

    return MilpModel(variables=variables, rows=rows, objective=tuple(obj),
                     aircraft_ids=ids)


# ---------------------------------------------------------------------------
# LP text export / re-parse
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    return f"{x:.12g}"


def _terms_text(terms: Sequence[tuple[float, str]]) -> str:
    parts = []
    for coef, var in terms:
        sign = "-" if coef < 0 else "+"
        parts.append(f"{sign} {_num(abs(coef))} {var}")
    return " ".join(parts)


def _wrap(prefix: str, body: str, width: int = 200) -> list[str]:
    lines = []
    cur = prefix
    for tok in body.split(" "):
        if len(cur) + 1 + len(tok) > width and cur != prefix:
            lines.append(cur)
            cur = " "
        cur += " " + tok
    lines.append(cur)
    return lines


def export_lp(model: MilpModel) -> str:
    """Deterministic LP-format text (CPLEX dialect) of the model."""
    out: list[str] = ["\\ hangarplan model export", "Minimize"]
    out.extend(_wrap(" obj:", _terms_text(model.objective)))
    out.append("Subject To")
    for row in model.rows:
        sense = {"<=": "<=", ">=": ">=", "=": "="}[row.sense]
        body = f"{_terms_text(row.terms)} {sense} {_num(row.rhs)}"
        out.extend(_wrap(f" {row.name}:", body))
    out.append("Bounds")
    for v in model.variables.values():
        if v.lb == v.ub:
            out.append(f" {v.name} = {_num(v.lb)}")
        elif v.kind == CONTINUOUS:
            if v.lb != 0.0 or math.isfinite(v.ub):
                ub = _num(v.ub) if math.isfinite(v.ub) else "+inf"
                out.append(f" {_num(v.lb)} <= {v.name} <= {ub}")
    out.append("Binaries")
    binaries = [v.name for v in model.variables.values() if v.kind == BINARY]
    for i in range(0, len(binaries), 8):
        out.append(" " + " ".join(binaries[i:i + 8]))
    out.append("End")
    return "\n".join(out) + "\n"


def _number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"bad number {text!r} in {what}") from exc
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {text!r} in {what}")
    return value


def _parse_terms(tokens: Sequence[str], what: str) -> tuple[tuple[float, str], ...]:
    """``sign coef name`` triples; every token must belong to one."""
    if len(tokens) % 3:
        raise ParseError(f"{what}: {len(tokens)} tokens do not form '± coef name' terms")
    terms = []
    for sign, num, var in zip(tokens[0::3], tokens[1::3], tokens[2::3]):
        if sign != "+" and sign != "-":
            raise ParseError(f"{what}: expected a sign, got {sign!r}")
        terms.append((_number(num, what) * (-1.0 if sign == "-" else 1.0), var))
    return tuple(terms)


def _parse_bound(line: str) -> tuple[str, tuple[float, float]]:
    """``lo <= name <= hi`` (hi may be ``+inf``) or ``name = value``."""
    if "<=" in line:
        m = re.match(r"([0-9.eE+-]+)\s*<=\s*(\S+)\s*<=\s*(\S+)", line)
        if m:
            lo, name, hi = m.groups()
            return name, (_number(lo, line), math.inf if hi == "+inf" else _number(hi, line))
    else:
        m = re.match(r"(\S+)\s*=\s*([0-9.eE+-]+)", line)
        if m:
            name, val = m.groups()
            return name, (_number(val, line), _number(val, line))
    raise ParseError(f"cannot parse bound {line!r}")


def parse_lp(text: str) -> MilpModel:
    """Re-parse our own LP export into a row system (internal round-trip
    reader; not a general LP parser)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("\\")]
    # Re-join continuation lines (they start with a space but no "name:").
    section = None
    obj_text = ""
    row_chunks: list[str] = []
    bound_lines: list[str] = []
    binary_names: list[str] = []
    for ln in lines:
        stripped = ln.strip()
        if stripped in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            section = stripped
            continue
        if section is None:
            raise ParseError(f"line outside any section: {stripped!r}")
        if section == "Minimize":
            obj_text += " " + stripped
        elif section == "Subject To":
            if ":" in stripped:
                row_chunks.append(stripped)
            elif row_chunks:
                row_chunks[-1] += " " + stripped
            else:
                raise ParseError(f"continuation before the first row: {stripped!r}")
        elif section == "Bounds":
            bound_lines.append(stripped)
        elif section == "Binaries":
            binary_names.extend(stripped.split())

    if ":" not in obj_text:
        raise ParseError("objective has no name")
    objective = _parse_terms(obj_text.split(":", 1)[1].split(), "objective")

    rows: list[MilpRow] = []
    for chunk in row_chunks:
        name, body = chunk.split(":", 1)
        tokens = body.split()
        # one or more terms, then exactly one "sense rhs"
        if len(tokens) < 5 or tokens[-2] not in ("<=", ">=", "="):
            raise ParseError(f"cannot parse row {name}")
        rows.append(MilpRow(name.strip(), _parse_terms(tokens[:-2], name),
                            tokens[-2], _number(tokens[-1], name)))

    variables: dict[str, MilpVariable] = {}
    seen = set()
    for terms in [objective] + [r.terms for r in rows]:
        for _, var in terms:
            seen.add(var)
    bounds = dict(_parse_bound(ln) for ln in bound_lines)
    binary = set(binary_names)
    for name in sorted(seen):
        lb, ub = bounds.get(name, (0.0, math.inf))
        kind = BINARY if name in binary else CONTINUOUS
        variables[name] = MilpVariable(name, kind, lb, ub)

    # Accept variables are listed in the Binaries section in build order.
    aircraft_ids = [m.group(1) for m in
                    (re.fullmatch(r"Accept\((.+)\)", n) for n in binary_names)
                    if m]
    return MilpModel(variables=variables, rows=rows, objective=objective,
                     aircraft_ids=aircraft_ids)


# ---------------------------------------------------------------------------
# Binary derivation and satisfaction checking
# ---------------------------------------------------------------------------

def _strict_before(t1: float, t2: float, what: str) -> bool:
    if abs(t1 - t2) <= TOL:
        raise AmbiguousOrder(f"{what}: events coincide at t={t1}")
    return t1 < t2


def derive_binaries(instance: Instance, solution: Solution,
                    model: Optional[MilpModel] = None) -> dict[str, float]:
    """Full variable point for a semantic solution.

    Relational binaries are set consistently with the row system: spatial
    binaries from geometry for co-present pairs only, temporal binaries from
    strict event order, fixings from the initial conditions.  Rejected
    aircraft get all-zero continuous values and relational binaries.
    """
    if model is None:
        model = build_model(instance)
    h = instance.hangar
    by_id = solution.by_id()
    for aid in model.aircraft_ids:
        if aid not in by_id:
            raise MissingAssignment(aid)
    spec = {a.id: a for a in instance.all_aircraft()}
    fut = {a.id for a in instance.future}

    point: dict[str, float] = {CONST_VAR: 1.0}
    for aid in model.aircraft_ids:
        asg = by_id[aid]
        sp = spec[aid]
        if asg.accept:
            point[vAcc(aid)] = 1.0
            point[vX(aid)] = asg.x
            point[vY(aid)] = asg.y
            point[vIn(aid)] = asg.roll_in
            point[vOut(aid)] = asg.roll_out
            point[vDDep(aid)] = max(0.0, asg.roll_out - sp.etd)
            if aid in fut:
                point[vDArr(aid)] = max(0.0, asg.roll_in - sp.eta)
        else:
            point[vAcc(aid)] = 0.0
            for name in (vX(aid), vY(aid), vIn(aid), vOut(aid), vDDep(aid)):
                point[name] = 0.0
            if aid in fut:
                point[vDArr(aid)] = 0.0

    def accepted(aid):
        return by_id[aid].accept

    for a in model.aircraft_ids:
        for b in model.aircraft_ids:
            if a == b:
                continue
            aa, ab = by_id[a], by_id[b]
            sa, sb = spec[a], spec[b]
            right = above = outin = 0.0
            if accepted(a) and accepted(b):
                if intervals_overlap((aa.roll_in, aa.roll_out), (ab.roll_in, ab.roll_out)):
                    right = 1.0 if x_separated(aa.x, sa.width, ab.x, sb.width, h.buffer) else 0.0
                    above = 1.0 if x_separated(aa.y, sa.length, ab.y, sb.length, h.buffer) else 0.0
                else:
                    if abs(aa.roll_out - ab.roll_in) <= TOL:
                        raise AmbiguousOrder(
                            f"OutIn({a},{b}): events coincide at t={aa.roll_out}")
                    if aa.roll_out < ab.roll_in:
                        outin = 1.0
            point[vRight(a, b)] = right
            point[vAbove(a, b)] = above
            point[vOutIn(a, b)] = outin

            # InIn: honor fixings, otherwise strict roll-in order (accepted F pairs).
            if a not in fut and b in fut:
                point[vInIn(a, b)] = 1.0
            elif a in fut and b not in fut:
                point[vInIn(a, b)] = 0.0
            elif a not in fut and b not in fut:
                point[vInIn(a, b)] = 1.0
            else:
                if accepted(a) and accepted(b):
                    point[vInIn(a, b)] = 1.0 if _strict_before(
                        aa.roll_in, ab.roll_in, f"InIn({a},{b})") else 0.0
                else:
                    point[vInIn(a, b)] = 0.0

            if a in fut or b in fut:
                if accepted(a) and accepted(b):
                    point[vInOut(a, b)] = 1.0 if aa.roll_in < ab.roll_out - TOL else 0.0
                else:
                    point[vInOut(a, b)] = 0.0

    ids = model.aircraft_ids
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ids[i], ids[j]
            if accepted(a) and accepted(b):
                point[vOutOut(a, b)] = 1.0 if _strict_before(
                    by_id[a].roll_out, by_id[b].roll_out, f"OutOut({a},{b})") else 0.0
            else:
                point[vOutOut(a, b)] = 0.0

    return point


def check_satisfaction(model: MilpModel, point: dict[str, float],
                       tol: float = 1e-6) -> list[tuple[str, float]]:
    """Violated rows and bounds at the point, as (name, residual) pairs."""
    for name in model.variables:
        if name not in point:
            raise MissingVariable(name)
    violated: list[tuple[str, float]] = []
    for row in model.rows:
        res = row.residual(point)
        if res > tol:
            violated.append((row.name, res))
    for v in model.variables.values():
        val = point[v.name]
        res = max(v.lb - val, val - v.ub, 0.0)
        if res > tol:
            name = v.fix_name if v.fix_name else f"dom_nonneg({v.name})"
            violated.append((name, res))
    return sorted(violated)


def objective_value(model: MilpModel, point: dict[str, float]) -> float:
    return sum(c * point[v] for c, v in model.objective)


# ---------------------------------------------------------------------------
# Solver point import
# ---------------------------------------------------------------------------

def parse_point(text: str) -> dict[str, float]:
    """Parse a `name value` listing (one pair per line; blank lines and lines
    starting with '#' or '\\' ignored)."""
    point: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("\\"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'name value', got {raw!r}")
        try:
            value = float(tokens[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad numeric value {tokens[1]!r}") from exc
        if not math.isfinite(value):
            raise ParseError(f"line {lineno}: non-finite value {tokens[1]!r}")
        point[tokens[0]] = value
    return point


def import_solution(model: MilpModel, instance: Instance, text: str) -> Solution:
    """Reconstruct a Solution from a solver point dump; unlisted variables are
    treated as zero.  Delays are recomputed; the result must validate.  The
    model must be the instance's: the same aircraft in the same order."""
    ids = [a.id for a in instance.all_aircraft()]
    if model.aircraft_ids != ids:
        raise ParseError(f"model aircraft {model.aircraft_ids} are not the "
                         f"instance's {ids}")
    point = parse_point(text)
    spec = {a.id: a for a in instance.all_aircraft()}

    def val(name):
        v = point.get(name, 0.0)
        return 0.0 if abs(v) < TOL else v

    assignments = []
    for aid in model.aircraft_ids:
        sp = spec[aid]
        if val(vAcc(aid)) > 0.5:
            roll_in = val(vIn(aid))
            roll_out = val(vOut(aid))
            assignments.append(Assignment(
                aircraft_id=aid, accept=True,
                x=val(vX(aid)), y=val(vY(aid)),
                roll_in=roll_in, roll_out=roll_out,
                d_arr=max(0.0, roll_in - sp.eta),
                d_dep=max(0.0, roll_out - sp.etd)))
        else:
            assignments.append(Assignment(aircraft_id=aid, accept=False))
    solution = Solution(instance_label=instance.label,
                        assignments=tuple(assignments),
                        provenance=Provenance.IMPORTED)
    report = _validator.validate(instance, solution)
    if not report.feasible:
        raise InfeasibleImport(report)
    return solution
