"""Materialized continuous-time MILP: variable/row construction, LP-format
export and its checked reading (``parse_lp``), the numpy array form
(``to_arrays``), binary derivation from semantic solutions, point
satisfaction checking, and solver-point import (``solution_from_point``).

Row names follow ``eq<k>_<family>(<ids>)`` and are part of the external
contract.  Fixed initial conditions are variable bounds, not rows; bound
violations are reported under ``fix*``/``dom_nonneg`` names.  Rows and
variables are immutable ``NamedTuple`` records (``MilpRow``,
``MilpVariable``); the LP text of a model is byte-stable.  Rows share their
immutable ``(coef, var)`` term tuples: ``build_model`` builds a term that
several rows hold once, so a model of n aircraft holds far fewer term tuples
than term occurrences.

``to_arrays`` gives one numpy form of a model: COO triplets of the nonzero
coefficients in row-then-term order, row bounds with ±inf on the open side,
column bounds, a ``uint8`` integrality vector and the cost vector.
``check_satisfaction`` is one sparse product over it, and HiGHS's own
reading of the LP export equals it (``tests/test_lp_highs.py``).  These two
import numpy when called, so no command that does not call them loads it.
``derive_binaries`` gives a plan's point in the order of ``model.variables``,
the columns' order.  A point becomes a validated plan through
``solution_from_point`` alone.

``parse_lp``, which ``import`` runs, checks the LP text one block of
``_BLOCK_ROWS`` rows at a time, raises at the first fault in the file, and
gives only its outline (``LpOutline``); it builds no rows.  Beyond the text
it holds one slice of it, the tokens of one block of rows and the set of
variable names: at most twice the text's length, where holding every row's
tokens took 7.4 times (``tests/test_milp.py``).  It reads only what
``export_lp`` writes: a bound line is ``name = value``, so ``export_lp``
refuses a variable that is neither fixed nor bounded as its kind is.

``build_model``, ``export_lp``, ``parse_lp``, ``derive_binaries`` and
``parse_point`` run with the cyclic garbage collector paused
(``collector_paused``).  Each allocates tens of thousands of tuples and
records, which would otherwise trigger collector passes that rescan them.
The pause is lossless: none of these functions creates a reference cycle, so
reference counting frees everything they drop, and a collection after any of
them finds nothing (``tests/test_milp.py::TestCollectorPaused``).  The
collector keeps counting allocations while paused, so a caller that drops a
model should drop it inside the same pause (``cli export-milp`` does): the
first pass after the pause would otherwise scan the whole model.
"""

from __future__ import annotations

import contextlib
import gc
import math
import re
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, NamedTuple, NoReturn, Optional, Sequence

from .core import (
    TOL,
    Assignment,
    Instance,
    Kind,
    MissingAssignment,
    Provenance,
    Solution,
    delays,
    derive_big_m,
    intervals_overlap,
    x_separated,
)
from .io import ParseError
from . import validator as _validator

if TYPE_CHECKING:
    import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"


class AmbiguousOrder(Exception):
    """Two movement events coincide; no strict order can be derived."""


class MissingVariable(Exception):
    """A point does not assign every model variable."""


class MilpVariable(NamedTuple):
    """One model variable.  An immutable record: a ``NamedTuple``, so it
    compares, hashes and unpacks like the tuple of its fields."""

    name: str
    kind: str  # continuous | binary
    lb: float = 0.0
    ub: float = math.inf
    fix_name: Optional[str] = None  # reporting name for a fixing-bound violation


class MilpRow(NamedTuple):
    """One row ``sum(coef * var) <sense> rhs``; ``terms`` holds
    ``(coef, var)`` pairs.  An immutable record, like ``MilpVariable``."""

    name: str
    terms: tuple[tuple[float, str], ...]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass
class MilpModel:
    """The row system.  ``variables`` maps names to records and, with
    ``rows``, keeps ``build_model``'s order; ``objective`` holds
    ``(coef, var)``."""

    variables: dict[str, MilpVariable]
    rows: list[MilpRow]
    objective: tuple[tuple[float, str], ...]


@contextlib.contextmanager
def collector_paused():
    """Run a ``with`` block, or a function decorated ``@collector_paused()``,
    with the cyclic garbage collector disabled, and enable it again afterwards
    only if it was enabled on entry, so nested pauses and callers that paused
    it themselves are left as they were."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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

# Aircraft ids go into LP names.  The CPLEX LP format splits tokens at
# whitespace and ends a row name at its first ':', and HiGHS 1.12 refuses a
# name that holds any of \ / + - * ^ < > = [ ]; pair names join two ids with
# ',', so ids with one could give two pairs the same names.
_NOT_IN_LP_NAME = re.compile(r"[\s:\\/+\-*^<>=\[\],]")


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------

# ``MilpRow((name, terms, sense, rhs))`` and ``MilpVariable((name, kind, lb, ub,
# fix_name))`` without the Python-level ``__new__`` that ``NamedTuple``
# generates: every field is given, in order.
_row = partial(tuple.__new__, MilpRow)
_var = partial(tuple.__new__, MilpVariable)


def _terms(coef: float, names: dict) -> dict:
    """The term ``(coef, var)`` of each variable in ``names``, under its key."""
    return {key: (coef, var) for key, var in names.items()}


@collector_paused()
def build_model(instance: Instance) -> MilpModel:
    """The row system of ``instance``: variables in build order, rows grouped
    by family, and the objective with the rejection constant on ``Const``.

    Rows share immutable term tuples: an aircraft's ``(±1, X)``, ``(±1, Y)``,
    ``(±1, Rollin)``, ``(±1, Rollout)``, ``(1, DArr)``, ``(1, DDep)``,
    ``(-1, Accept)`` and ``(-M_T, Accept)`` and a pair's ``(M_T, Right)``
    and ``(-M_T, Above)`` are built once each.  Records are made by ``_row``
    and ``_var``, with no Python-level call per record."""
    h = instance.hangar
    m_t, m_x, m_y = derive_big_m(instance)
    eps = h.eps_t

    aircraft = instance.all_aircraft()
    future = instance.future
    ids = [a.id for a in aircraft]
    for i in ids:
        if _NOT_IN_LP_NAME.search(i):
            raise ParseError(f"aircraft id {i!r} cannot go into an LP model: it "
                             r"contains whitespace or one of , : \ / + - * ^ < > = [ ]")
    fut = {a.id for a in future}

    ordered = [(a, b) for a in ids for b in ids if a != b]
    unordered = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    mixed = [(a, b) for a, b in ordered if a in fut or b in fut]
    f_ordered = [(a, b) for a, b in ordered if a in fut and b in fut]

    # Every variable name is built once, per aircraft or per pair.
    X = {a: vX(a) for a in ids}
    Y = {a: vY(a) for a in ids}
    IN = {a: vIn(a) for a in ids}
    OUT = {a: vOut(a) for a in ids}
    DARR = {f: vDArr(f) for f in fut}
    DDEP = {a: vDDep(a) for a in ids}
    ACC = {a: vAcc(a) for a in ids}
    # A pair's name is at NAME[a][b]: two lookups by a string, whose hash is
    # cached, cost less than one by a new (a, b) tuple.
    RIGHT, ABOVE, OUTIN, ININ = ({a: {b: name(a, b) for b in ids if b != a} for a in ids}
                                 for name in (vRight, vAbove, vOutIn, vInIn))
    OUTOUT = {a: {b: vOutOut(a, b) for b in ids[i + 1:]} for i, a in enumerate(ids)}
    INOUT = {a: {b: vInOut(a, b) for b in ids if b != a and (a in fut or b in fut)}
             for a in ids}

    # Variables in build order; current aircraft get fixed bounds in place of
    # rows.
    inf = math.inf
    records: list[MilpVariable] = []
    for a in aircraft:
        i = a.id
        if a.kind is Kind.CURRENT:
            records += [_var((X[i], CONTINUOUS, a.x_init, a.x_init, f"fix20_xinit({i})")),
                        _var((Y[i], CONTINUOUS, a.y_init, a.y_init, f"fix21_yinit({i})")),
                        _var((IN[i], CONTINUOUS, 0.0, 0.0, f"fix22_rollin({i})")),
                        _var((ACC[i], BINARY, 1.0, 1.0, f"fix19_accept({i})"))]
        else:
            records += [_var((X[i], CONTINUOUS, 0.0, inf, None)),
                        _var((Y[i], CONTINUOUS, 0.0, inf, None)),
                        _var((IN[i], CONTINUOUS, 0.0, inf, None)),
                        _var((ACC[i], BINARY, 0.0, 1.0, None))]
        records += [_var((OUT[i], CONTINUOUS, 0.0, inf, None)),
                    _var((DDEP[i], CONTINUOUS, 0.0, inf, None))]
    records += [_var((DARR[f.id], CONTINUOUS, 0.0, inf, None)) for f in future]

    for a, b in ordered:
        if a not in fut and b in fut:
            inin = (1.0, 1.0, f"fix23_inin_cf({a},{b})")
        elif a in fut and b not in fut:
            inin = (0.0, 0.0, f"fix24_inin_fc({a},{b})")
        elif a not in fut and b not in fut:
            inin = (1.0, 1.0, f"fix25_inin_cd({a},{b})")
        else:
            inin = (0.0, 1.0, None)
        records += [_var((RIGHT[a][b], BINARY, 0.0, 1.0, None)),
                    _var((ABOVE[a][b], BINARY, 0.0, 1.0, None)),
                    _var((OUTIN[a][b], BINARY, 0.0, 1.0, None)),
                    _var((ININ[a][b], BINARY, *inin))]
    records += [_var((OUTOUT[a][b], BINARY, 0.0, 1.0, None)) for a, b in unordered]
    records += [_var((INOUT[a][b], BINARY, 0.0, 1.0, None)) for a, b in mixed]
    records.append(_var((CONST_VAR, CONTINUOUS, 1.0, 1.0, None)))
    variables = {v[0]: v for v in records}

    # Objective: rejection constant folded into the fixed Const variable.
    obj: list[tuple[float, str]] = []
    rej_sum = sum(f.p_rej for f in future)
    if future:
        obj.append((rej_sum, CONST_VAR))
    for f in future:
        obj.append((-f.p_rej, ACC[f.id]))
    for f in future:
        obj.append((f.p_arr, DARR[f.id]))
    for a in aircraft:
        obj.append((a.p_dep, DDEP[a.id]))
    for f in future:
        obj.append((h.eps_p, X[f.id]))
        obj.append((h.eps_p, Y[f.id]))
    if not future:
        obj.append((0.0, CONST_VAR))

    rows: list[MilpRow] = []
    # A term that more than one row holds is built once and shared, which is
    # safe because terms are immutable tuples.  Every right-hand side is a
    # float computed once per family or per aircraft.
    px, py, pin, pout, pdarr, pddep = (_terms(1.0, v) for v in (X, Y, IN, OUT, DARR, DDEP))
    nx, ny, nin, nout, nacc = (_terms(-1.0, v) for v in (X, Y, IN, OUT, ACC))
    nacc_m = _terms(-m_t, ACC)
    right_m = {a: _terms(m_t, names) for a, names in RIGHT.items()}
    nabove_m = {a: _terms(-m_t, names) for a, names in ABOVE.items()}

    # Acceptance / scheduling.
    link = m_x + m_y + 4.0 * m_t
    for f in future:
        i = f.id
        rows += [_row((f"eq2_accept({i})",
                       (px[i], py[i], pin[i], pout[i], pdarr[i], pddep[i], (-link, ACC[i])),
                       "<=", 0.0)),
                 _row((f"eq3_rollin_eta({i})", (pin[i], (-f.eta, ACC[i])), ">=", 0.0))]
    rows += [_row((f"eq4_servt({a.id})", (pout[a.id], nin[a.id], (-a.service, ACC[a.id])),
                   ">=", 0.0)) for a in aircraft]
    rows += [_row((f"eq5_darr({f.id})", (pdarr[f.id], nin[f.id]), ">=", float(-f.eta)))
             for f in future]
    rows += [_row((f"eq6_ddep({a.id})", (pddep[a.id], nout[a.id]), ">=", float(-a.etd)))
             for a in aircraft]

    # Boundaries (future aircraft; current positions are fixed by bounds).
    for f in future:
        i = f.id
        rows += [_row((f"eq7_xmin({i})", (px[i], (-h.buffer, ACC[i])), ">=", 0.0)),
                 _row((f"eq8_xmax({i})", (px[i], (m_x, ACC[i])),
                       "<=", float(h.hw - h.buffer - f.width + m_x))),
                 _row((f"eq9_ymin({i})", (py[i], (-h.buffer, ACC[i])), ">=", 0.0)),
                 _row((f"eq10_ymax({i})", (py[i], (m_y, ACC[i])),
                       "<=", float(h.hl - h.buffer - f.length + m_y)))]

    # Relative placement semantics.
    rhs_right = {a.id: float(m_x - a.width - h.buffer) for a in aircraft}
    rhs_above = {a.id: float(m_y - a.length - h.buffer) for a in aircraft}
    for a, b in ordered:
        rows += [_row((f"eq11_right({a},{b})", (px[b], nx[a], (m_x, RIGHT[a][b])),
                       "<=", rhs_right[b])),
                 _row((f"eq12_above({a},{b})", (py[b], ny[a], (m_y, ABOVE[a][b])),
                       "<=", rhs_above[b]))]

    # Pairwise disjunction.
    rows += [_row((f"eq13_rel({a},{b})",
                   ((1.0, RIGHT[b][a]), (1.0, RIGHT[a][b]), (1.0, ABOVE[b][a]),
                    (1.0, ABOVE[a][b]), (1.0, OUTIN[a][b]), (1.0, OUTIN[b][a]),
                    nacc[a], nacc[b]), ">=", -1.0))
             for a, b in unordered]

    # Temporal ordering semantics.
    rhs_outin = float(m_t - eps)
    rows += [_row((f"eq14_outin({a},{b})", (pout[a], nin[b], (m_t, OUTIN[a][b])),
                   "<=", rhs_outin))
             for a, b in ordered]
    # Event order: binary (a, b) = 1 puts a's earlier event eps before b's later
    # one, 0 the other way round; both rows relax when a or b is rejected.
    rhs_first, rhs_second = float(eps - 3.0 * m_t), float(eps - 2.0 * m_t)
    for first, second, pairs, (plater, nlater), (pearlier, nearlier), binary in (
            ("eq15_inin", "eq16_inin", f_ordered, (pin, nin), (pin, nin), ININ),
            ("eq15b_outout", "eq16b_outout", unordered, (pout, nout), (pout, nout), OUTOUT),
            ("eq16c_inout", "eq16d_inout", mixed, (pout, nout), (pin, nin), INOUT)):
        for a, b in pairs:
            rows += [_row((f"{first}({a},{b})",
                           (plater[b], nearlier[a], (-m_t, binary[a][b]), nacc_m[a], nacc_m[b]),
                           ">=", rhs_first)),
                     _row((f"{second}({a},{b})",
                           (pearlier[a], nlater[b], (m_t, binary[a][b]), nacc_m[a], nacc_m[b]),
                           ">=", rhs_second))]

    # Blocking.
    rows += [_row((f"eq17_exit_block({a},{b})",
                   (pout[a], nout[b], nabove_m[b][a], right_m[a][b], right_m[b][a],
                    (-m_t, ININ[a][b])), ">=", rhs_second))
             for a, b in ordered]
    rhs_entry = float(eps - m_t)
    rows += [_row((f"eq18_entry_block({a},{b})",
                   (pin[a], nout[b], nabove_m[b][a], right_m[a][b], right_m[b][a],
                    (m_t, ININ[a][b])), ">=", rhs_entry))
             for a, b in mixed]

    return MilpModel(variables=variables, rows=rows, objective=tuple(obj))


# ---------------------------------------------------------------------------
# LP text export and reading
# ---------------------------------------------------------------------------

LINE_WIDTH = 200
_SENSES = frozenset(("<=", ">=", "="))


def _num(x: float) -> str:
    return f"{x:.12g}"


def _wrap(prefix: str, body: str) -> list[str]:
    """``prefix body`` in lines of at most ``LINE_WIDTH`` characters, broken
    between the tokens of ``body``; continuation lines start with two
    spaces.  A line longer than ``LINE_WIDTH`` holds only its first token."""
    lines = []
    line, start = f"{prefix} {body}", len(prefix) + 1  # first token starts at ``start``
    while len(line) > LINE_WIDTH:
        cut = line.rfind(" ", start, LINE_WIDTH + 1)
        if cut < 0:
            cut = line.find(" ", start)
            if cut < 0:
                break
        lines.append(line[:cut])
        line, start = " " + line[cut:], 2
    lines.append(line)
    return lines


@collector_paused()
def export_lp(model: MilpModel) -> str:
    """Deterministic LP-format text (CPLEX dialect) of the model.

    The text is byte-stable: the same model always gives the same bytes.
    ``_wrap`` breaks each row at ``LINE_WIDTH`` characters between tokens,
    so a row that fits is one line.
    """
    signed: dict[float, str] = {}  # coefficient -> "± |coef|", for this call
    rhs_text: dict[float, str] = {}  # right-hand side -> text, for this call

    def terms_text(terms) -> str:
        parts = []
        for coef, var in terms:
            text = signed.get(coef)
            if text is None:
                text = signed[coef] = f"{'-' if coef < 0 else '+'} {_num(abs(coef))}"
            parts.append(text)
            parts.append(var)
        return " ".join(parts)

    out: list[str] = ["\\ hangarplan model export", "Minimize"]
    out.extend(_wrap(" obj:", terms_text(model.objective)))
    out.append("Subject To")
    for row in model.rows:
        if row.sense not in _SENSES:
            raise ValueError(f"row {row.name}: unknown sense {row.sense!r}")
        rhs = rhs_text.get(row.rhs)
        if rhs is None:
            rhs = rhs_text[row.rhs] = _num(row.rhs)
        out.extend(_wrap(f" {row.name}:", f"{terms_text(row.terms)} {row.sense} {rhs}"))
    out.append("Bounds")
    for v in model.variables.values():
        if v.lb == v.ub:
            out.append(f" {v.name} = {_num(v.lb)}")
        elif (v.lb, v.ub) != (0.0, 1.0 if v.kind == BINARY else math.inf):
            raise ValueError(f"variable {v.name}: bounds [{v.lb}, {v.ub}] are neither "
                             f"fixed nor the {v.kind} default")
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


def _parse_bound(line: str) -> str:
    """The name of ``name = value``, the one bound line the export writes,
    with nothing else on the line."""
    m = re.fullmatch(r"(\S+)\s*=\s*([0-9.eE+-]+)", line)
    if not m:
        raise ParseError(f"cannot parse bound {line!r}")
    _number(m[2], line)
    return m[1]


_SECTIONS = frozenset(("Minimize", "Subject To", "Bounds", "Binaries", "End"))
_SIGNS = frozenset("+-")
_PAD = ("",)  # no LP token is empty
# Rows per block of ``parse_lp``'s checks: a block's tokens stay in the cache
# through its passes.  One pass per check over the whole file was slower
# from n = 40 on, by 24 % at n = 80.
_BLOCK_ROWS = 256
# Characters per slice of the text that ``parse_lp`` splits into lines.
_SLICE_CHARS = 1 << 16


def _check_terms(tokens: Sequence[str], what: str) -> None:
    """``sign coef name`` triples; every token must belong to one, and every
    coef must be a finite number."""
    if len(tokens) % 3:
        raise ParseError(f"{what}: {len(tokens)} tokens do not form '± coef name' terms")
    if not _SIGNS.issuperset(tokens[::3]):
        sign = next(t for t in tokens[::3] if t not in _SIGNS)
        raise ParseError(f"{what}: expected a sign, got {sign!r}")
    for num in tokens[1::3]:
        _number(num, what)


def _raise_first_fault(rows: list[tuple[str, list[str]]]) -> NoReturn:
    """Raise the ``ParseError`` of the first faulty row of a block that
    failed the block checks: its structure, then its numbers."""
    for name, tokens in rows:
        # one or more terms, then exactly one "sense rhs"
        if len(tokens) < 5 or tokens[-2] not in _SENSES:
            raise ParseError(f"cannot parse row {name}")
        _check_terms(tokens[:-2], name)
        _number(tokens[-1], name)
    raise AssertionError("the block checks found a fault that the walk did not")


def _slices(text: str) -> Iterator[str]:
    """``text`` in slices of about ``_SLICE_CHARS`` characters.  Each slice
    but the last ends just after a ``\\n``, which ends every line break it is
    in, so the slices split into the same lines as the whole text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _SLICE_CHARS) + 1 or len(text)
        yield text[start:end]
        start = end


class LpOutline(NamedTuple):
    """What ``import`` takes from an LP file: the aircraft in build order and
    the set of declared variable names."""

    aircraft_ids: list[str]
    variables: frozenset[str]


@collector_paused()
def parse_lp(text: str) -> LpOutline:
    """Check our own LP export (not a general LP reader) one block of
    ``_BLOCK_ROWS`` rows at a time, dropping each block once it passes, and
    give its aircraft in build order and the names it declares; it builds
    no rows.

    Row tokens are ``± coef name`` triples, then ``sense rhs``, every
    number is finite, and a bound line is ``name = value``; the first fault
    in the file raises ``ParseError``.  The objective is checked when its
    section ends, or when the first other section begins if it has none.  A
    block is checked as a whole, with no Python step per row, when the row
    after it starts or its section ends, and ``_raise_first_fault`` walks a
    block that fails."""
    section = None
    obj_text = ""
    objective: Optional[list[str]] = None
    block: list[tuple[str, list[str]]] = []
    bounds: set[str] = set()
    aircraft_ids: list[str] = []
    values: dict[str, float] = {}  # number text -> value, for this call
    names: set[str] = set()

    def check(rows: list[tuple[str, list[str]]]) -> None:
        token_lists = list(map(itemgetter(1), rows))
        # A row's 3k + 2 tokens and one pad are triples: its terms, then
        # (sense, rhs, pad).  So one list holds every triple of the block,
        # and a row of another length moves a pad out of the third place,
        # where it fails the sign or the number check.
        triples = [*chain.from_iterable(chain.from_iterable(zip(token_lists, repeat(_PAD))))]
        signs = triples[::3]  # the terms' signs and each row's sense
        if (min(map(len, token_lists)) < 5
                or not _SENSES.issuperset(map(itemgetter(-2), token_lists))
                or signs.count("+") + signs.count("-") + len(rows) != len(signs)):
            _raise_first_fault(rows)
        try:
            new = {num: float(num) for num in set(triples[1::3]).difference(values)}
        except ValueError:
            _raise_first_fault(rows)
        if not all(map(math.isfinite, new.values())):
            _raise_first_fault(rows)
        values.update(new)
        names.update(triples[2::3])
        # Every aircraft has one eq4_servt row, and rows keep their build
        # order.
        aircraft_ids.extend([name[10:-1] for name, _ in rows
                             if name.startswith("eq4_servt(") and name.endswith(")")])

    # A last "End" ends the section the text ends in.
    for ln in chain(chain.from_iterable(map(str.splitlines, _slices(text))), ["End"]):
        if not ln or ln.startswith("\\"):
            continue
        stripped = ln.strip()
        if stripped in _SECTIONS:
            if block:
                check(block)
                block = []
            # the objective's section ends, or the first other section begins
            if section == "Minimize" or objective is None and stripped != "Minimize":
                if ":" not in obj_text:
                    raise ParseError("objective has no name")
                objective = obj_text.split(":", 1)[1].split()
                _check_terms(objective, "objective")
            section = stripped
        elif section == "Subject To":
            # A row starts with "name:"; a continuation line has no colon.
            if ":" in stripped:
                if len(block) == _BLOCK_ROWS:
                    check(block)
                    block = []
                name, _, body = stripped.partition(":")
                block.append((name.strip(), body.split()))
            elif block:
                block[-1][1].extend(stripped.split())
            else:
                raise ParseError(f"continuation before the first row: {stripped!r}")
        elif section == "Minimize":
            obj_text += " " + stripped
        elif section == "Bounds":
            name = _parse_bound(stripped)
            if name in bounds:
                raise ParseError(f"variable {name} is bounded twice")
            bounds.add(name)
        elif section == "Binaries":
            names.update(stripped.split())
        elif section is None:
            raise ParseError(f"line outside any section: {stripped!r}")
    names.update(objective[2::3])
    names.discard(_PAD[0])
    # A variable fixed by its bound alone (a lone parked aircraft's X and Y)
    # is in no term.
    return LpOutline(aircraft_ids, frozenset(names.union(bounds)))


# ---------------------------------------------------------------------------
# Array form
# ---------------------------------------------------------------------------

class MilpArrays(NamedTuple):
    """The numpy form of a ``MilpModel``.  Column ``j`` is the variable
    ``columns[j]``, row ``i`` the row ``model.rows[i]``; the matrix holds
    each nonzero ``vals[k]`` at ``(rows[k], cols[k])``, in row-then-term
    order.  Like HiGHS, it drops a zero term (``+ 0 Accept(f)`` at eta 0)."""

    columns: list[str]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    row_lower: np.ndarray  # -inf on a "<=" row
    row_upper: np.ndarray  # +inf on a ">=" row
    col_lower: np.ndarray
    col_upper: np.ndarray
    integrality: np.ndarray  # uint8: 1 on a binary column, else 0
    cost: np.ndarray  # the rejection constant is on Const


def to_arrays(model: MilpModel) -> MilpArrays:
    """``model`` as arrays, with columns in ``model.variables`` order."""
    import numpy as np

    columns = list(model.variables)
    index = {name: j for j, name in enumerate(columns)}
    n, m = len(columns), len(model.rows)
    term_lists = [row.terms for row in model.rows]
    terms = list(chain.from_iterable(term_lists))
    rows = np.repeat(np.arange(m), np.fromiter(map(len, term_lists), np.intp, m))
    cols = np.fromiter(map(index.__getitem__, map(itemgetter(1), terms)), np.intp, len(terms))
    vals = np.fromiter(map(itemgetter(0), terms), float, len(terms))
    nonzero = vals != 0
    rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
    rhs = np.fromiter(map(itemgetter(3), model.rows), float, m)
    sense = np.array([row.sense for row in model.rows], dtype="U2")
    variables = model.variables.values()
    cost = np.zeros(n)
    for coef, var in model.objective:
        cost[index[var]] += coef
    return MilpArrays(
        columns, rows, cols, vals,
        row_lower=np.where(sense == "<=", -np.inf, rhs),
        row_upper=np.where(sense == ">=", np.inf, rhs),
        col_lower=np.fromiter(map(itemgetter(2), variables), float, n),
        col_upper=np.fromiter(map(itemgetter(3), variables), float, n),
        integrality=np.fromiter((v.kind == BINARY for v in variables), np.uint8, n),
        cost=cost)


# ---------------------------------------------------------------------------
# Binary derivation and satisfaction checking
# ---------------------------------------------------------------------------

def _strict_before(t1: float, t2: float, what: str) -> bool:
    if abs(t1 - t2) <= TOL:
        raise AmbiguousOrder(f"{what}: events coincide at t={t1}")
    return t1 < t2


@collector_paused()
def derive_binaries(instance: Instance, solution: Solution,
                    model: MilpModel) -> dict[str, float]:
    """Full variable point for a semantic solution, in the order of
    ``model.variables``, ``model`` being the instance's.

    Relational binaries are set consistently with the row system: spatial
    binaries from geometry for co-present pairs only, temporal binaries from
    strict event order, fixings from the initial conditions.  A rejected
    aircraft has every variable at 0, and so has each pair binary it is in,
    but for the fixed ``InIn`` of a pair with a parked aircraft.
    """
    ids = [a.id for a in instance.all_aircraft()]
    h = instance.hangar
    by_id = solution.by_id()
    for aid in ids:
        if aid not in by_id:
            raise MissingAssignment(aid)
    spec = {a.id: a for a in instance.all_aircraft()}
    fut = {a.id for a in instance.future}

    point: dict[str, float] = {CONST_VAR: 1.0}
    for aid in ids:
        asg = by_id[aid]
        d_arr, d_dep = delays(spec[aid], asg.roll_in, asg.roll_out)
        values = {vAcc(aid): 1.0, vX(aid): asg.x, vY(aid): asg.y, vIn(aid): asg.roll_in,
                  vOut(aid): asg.roll_out, vDDep(aid): d_dep}
        if aid in fut:
            values[vDArr(aid)] = d_arr
        point.update(values if asg.accept else dict.fromkeys(values, 0.0))

    for a in ids:
        aa = by_id[a]
        for b in ids:
            if a == b:
                continue
            ab, sb = by_id[b], spec[b]
            both = aa.accept and ab.accept
            # each variable name also names its pair when the order is ambiguous
            outin_name, inin_name = vOutIn(a, b), vInIn(a, b)
            right = above = outin = 0.0
            if both:
                if intervals_overlap((aa.roll_in, aa.roll_out), (ab.roll_in, ab.roll_out)):
                    right = 1.0 if x_separated(aa.x, ab.x, sb.width, h.buffer) else 0.0
                    above = 1.0 if x_separated(aa.y, ab.y, sb.length, h.buffer) else 0.0
                elif _strict_before(aa.roll_out, ab.roll_in, outin_name):
                    outin = 1.0
            point[vRight(a, b)] = right
            point[vAbove(a, b)] = above
            point[outin_name] = outin
            if a in fut and b in fut:
                point[inin_name] = 1.0 if both and _strict_before(
                    aa.roll_in, ab.roll_in, inin_name) else 0.0
            else:
                # fixed with a parked aircraft (fix23-25): 0 when a is the request
                point[inin_name] = 0.0 if a in fut else 1.0
            if a in fut or b in fut:
                point[vInOut(a, b)] = 1.0 if both and aa.roll_in < ab.roll_out - TOL else 0.0

    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            aa, ab = by_id[a], by_id[b]
            name = vOutOut(a, b)
            point[name] = 1.0 if aa.accept and ab.accept and _strict_before(
                aa.roll_out, ab.roll_out, name) else 0.0

    return {name: point[name] for name in model.variables}


def check_satisfaction(model: MilpModel, point: dict[str, float]) -> list[tuple[str, float]]:
    """Rows and bounds violated at the point by more than ``TOL``, as sorted
    (name, residual) pairs; a bound goes by its ``fix_name``, else as
    ``dom_nonneg(<var>)``.  Each row's left side adds its terms left to
    right from 0.0 (``np.bincount``)."""
    import numpy as np

    def excess(value, lower, upper):
        """How far each value lies outside its ``[lower, upper]``, or 0."""
        return np.maximum(np.maximum(lower - value, value - upper), 0.0)

    arrays = to_arrays(model)
    try:
        x = np.array([point[name] for name in arrays.columns], dtype=float)
    except KeyError as exc:
        raise MissingVariable(exc.args[0]) from None
    lhs = np.bincount(arrays.rows, weights=arrays.vals * x[arrays.cols],
                      minlength=len(model.rows))
    rows = excess(lhs, arrays.row_lower, arrays.row_upper)
    bounds = excess(x, arrays.col_lower, arrays.col_upper)
    variables = list(model.variables.values())
    violated = [(model.rows[i].name, rows[i].item()) for i in np.flatnonzero(rows > TOL)]
    violated += [(variables[j].fix_name or f"dom_nonneg({variables[j].name})", bounds[j].item())
                 for j in np.flatnonzero(bounds > TOL)]
    return sorted(violated)


def objective_value(model: MilpModel, point: dict[str, float]) -> float:
    return sum(c * point[v] for c, v in model.objective)


# ---------------------------------------------------------------------------
# Solver point import
# ---------------------------------------------------------------------------

@collector_paused()
def parse_point(text: str) -> dict[str, float]:
    """Parse a `name value` listing (one pair per line; blank lines and lines
    starting with '#' or '\\' ignored)."""
    point: dict[str, float] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("\\"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'name value', got {raw!r}")
        name = tokens[0]
        if name in seen:
            raise ParseError(f"line {lineno}: {name} is already set on line {seen[name]}")
        seen[name] = lineno
        try:
            point[name] = _number(tokens[1], "point")
        except ParseError:
            _number(tokens[1], f"line {lineno}")  # raises, naming the line
            raise
    return point


def solution_from_point(instance: Instance, point: dict[str, float]) -> Solution:
    """The validated plan of a point of ``instance``'s model: an unlisted
    variable is 0, a value within ``TOL`` of 0 is 0, and an aircraft whose
    ``Accept`` exceeds 0.5 is placed at its ``X``, ``Y``, ``Rollin`` and
    ``Rollout``; delays are recomputed.  A time the plan refuses (past
    ``core.MAX_HORIZON``) is a ``ParseError``, and an infeasible plan raises
    ``validator.Infeasible``."""
    def val(name):
        v = point.get(name, 0.0)
        return 0.0 if abs(v) < TOL else v

    placed = [Assignment.placed(spec, val(vX(spec.id)), val(vY(spec.id)),
                                val(vIn(spec.id)), val(vOut(spec.id)))
              for spec in instance.all_aircraft() if val(vAcc(spec.id)) > 0.5]
    try:
        solution = Solution.compose(instance, placed, Provenance.IMPORTED)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    report = _validator.validate(instance, solution)
    if not report.feasible:
        raise _validator.Infeasible(report)
    return solution


def import_solution(outline: LpOutline, instance: Instance, text: str) -> Solution:
    """``solution_from_point`` of a solver point dump (``parse_point``); a
    name the model does not declare is a ParseError.  The outline must be the
    instance's model's: the same aircraft in the same order."""
    ids = [a.id for a in instance.all_aircraft()]
    if outline.aircraft_ids != ids:
        raise ParseError(f"model aircraft {outline.aircraft_ids} are not the "
                         f"instance's {ids}")
    point = parse_point(text)
    for name in point:  # in file order
        if name not in outline.variables:
            raise ParseError(f"point names {name}, a variable the model does not declare")
    return solution_from_point(instance, point)
