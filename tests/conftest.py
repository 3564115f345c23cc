"""Shared fixture builders and an independent unpruned brute-force optimizer.

The brute force enumerates full candidate cross-products (acceptance x times x
grid positions) and checks feasibility only through the validator, so it shares
no search code with the optimized oracle it cross-checks.
"""

from __future__ import annotations

import gc
import itertools
import re
import signal
from contextlib import contextmanager
from typing import Optional, Sequence

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from hangarplan.core import (
    GRID_TOL,
    AircraftSpec,
    Assignment,
    HangarConfig,
    Instance,
    Kind,
    Provenance,
    Solution,
    axis_separated,
    evaluate_cost,
)
from hangarplan import io, validator

# Every run draws the same examples, locally and in CI, and keeps the deadline
# of the profile hypothesis loaded for its environment.  The ``explore``
# profile (``pytest --hypothesis-profile=explore``, loaded after this file)
# draws at random and prints the blob that reproduces a failure.
settings.register_profile("derandomized", settings(settings.default, derandomize=True))
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("derandomized")


def make_future(aid: str, *, width=24.0, length=22.0, eta=0.0, service=100.0,
                slack=30.0, p_rej=800.0, p_arr=10.0, p_dep=20.0,
                vip=False, etd: Optional[float] = None) -> AircraftSpec:
    if etd is None:
        etd = eta + service + slack
    return AircraftSpec(id=aid, kind=Kind.FUTURE, width=width, length=length,
                        eta=eta, etd=etd, service=service,
                        p_rej=p_rej, p_arr=p_arr, p_dep=p_dep, vip=vip)


def make_current(aid: str, *, width=24.0, length=22.0, x=5.0, y=5.0,
                 service=100.0, slack=30.0, p_dep=20.0,
                 etd: Optional[float] = None) -> AircraftSpec:
    if etd is None:
        etd = service + slack
    return AircraftSpec(id=aid, kind=Kind.CURRENT, width=width, length=length,
                        eta=0.0, etd=etd, service=service, p_dep=p_dep,
                        x_init=x, y_init=y)


def make_instance(future: Sequence[AircraftSpec] = (),
                  current: Sequence[AircraftSpec] = (),
                  hangar: Optional[HangarConfig] = None,
                  label: str = "fixture") -> Instance:
    return Instance(hangar=hangar or HangarConfig(),
                    current=tuple(current), future=tuple(future), label=label)


def specs(instance: Instance) -> dict[str, AircraftSpec]:
    """The instance's aircraft by id."""
    return {a.id: a for a in instance.all_aircraft()}


def manual_solution(instance: Instance, by_id: dict[str, Assignment]) -> Solution:
    """Solution in instance order; unlisted aircraft become rejections."""
    return Solution.compose(instance, by_id.values(), Provenance.MANUAL)


def rects_separated(ax: float, ay: float, aw: float, al: float,
                    bx: float, by: float, bw: float, bl: float, buffer: float) -> bool:
    """Buffered separation of two footprints on at least one axis."""
    return (axis_separated(ax, aw, bx, bw, buffer)
            or axis_separated(ay, al, by, bl, buffer))


def axis_cells(lo: float, hi: float, step: float) -> list[float]:
    """One axis of the placement grid as a list, the cells lo + step * k
    (k >= 0) that do not pass hi by more than GRID_TOL: the reference that
    the tests hold ``core``'s lattice rule to."""
    cells: list[float] = []
    while lo + step * len(cells) <= hi + GRID_TOL:
        cells.append(lo + step * len(cells))
    return cells


def accept(aid: str, x: float, y: float, roll_in: float, roll_out: float,
           eta: float = 0.0, etd: float = 0.0) -> Assignment:
    return Assignment(aircraft_id=aid, accept=True, x=x, y=y,
                      roll_in=roll_in, roll_out=roll_out,
                      d_arr=max(0.0, roll_in - eta),
                      d_dep=max(0.0, roll_out - etd))


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the enclosed block after ``seconds`` of wall time,
    so that a hang fails its test instead of stalling the suite.  Uses
    SIGALRM, so it works in the main thread on POSIX only."""
    def expire(signum, frame):
        raise TimeoutError(f"not finished within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: The non-finite numbers every numeric input field must refuse.
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def instance_doc_with(instance: Instance, field: str, value) -> dict:
    """``io.instance_to_dict(instance)`` with ``field`` of the hangar, or else
    of the first future aircraft, set to ``value``."""
    doc = io.instance_to_dict(instance)
    (doc["hangar"] if field in doc["hangar"] else doc["future"][0])[field] = value
    return doc


#: The edits ``perturb_lp`` makes.
LP_EDITS = ["drop", "duplicate", "swap", "nan", "text", "delete-line", "duplicate-line"]


def perturb_lp(text: str, action: str, line_no: int, token_no: int) -> str:
    """One edit of an LP file: drop, duplicate or swap a token of a line,
    turn a number into ``nan`` or text, or delete or duplicate the line."""
    lines = text.splitlines()
    i = line_no % len(lines)
    if action == "delete-line":
        del lines[i]
        return "\n".join(lines) + "\n"
    if action == "duplicate-line":
        lines.insert(i, lines[i])
        return "\n".join(lines) + "\n"
    tokens = lines[i].split(" ")
    j = token_no % len(tokens)
    if action == "drop":
        del tokens[j]
    elif action == "duplicate":
        tokens.insert(j, tokens[j])
    elif action == "swap":
        k = (j + 1) % len(tokens)
        tokens[j], tokens[k] = tokens[k], tokens[j]
    else:
        numbers = [k for k, tok in enumerate(tokens) if re.fullmatch(r"[-+]?[0-9.]+(e[-+]?[0-9]+)?", tok)]
        if numbers:
            tokens[numbers[token_no % len(numbers)]] = "nan" if action == "nan" else "x1"
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def edge_instances(draw):
    """Instances with 1-3 requests on the edges that ``instgen`` does not
    draw: identical requests, eta 0, zero buffer, a parked aircraft against
    a wall, footprints exactly as wide or as long as the buffered hangar,
    and eps_t near its 2e-6 h floor.  Each edge is drawn on its own, so an
    example may combine several."""
    h = HangarConfig(hw=draw(st.sampled_from([40.0, 65.0])),
                     hl=draw(st.sampled_from([40.0, 60.0])),
                     buffer=draw(st.sampled_from([0.0, 0.0, 2.5, 5.0])),
                     eps_t=draw(st.sampled_from([2.5e-6, 1e-5, 0.1, 0.7])),
                     grid_step=draw(st.sampled_from([1.0, 2.5])))
    inner_w, inner_l = h.hw - 2 * h.buffer, h.hl - 2 * h.buffer

    def footprint(fits=False):
        widths, lengths = [inner_w, 10.0, 24.0, 36.0], [inner_l, 10.0, 22.0, 31.0]
        return (draw(st.sampled_from([w for w in widths if w <= inner_w or not fits])),
                draw(st.sampled_from([l for l in lengths if l <= inner_l or not fits])))

    current = []
    if draw(st.booleans()):
        width, length = footprint(fits=True)
        service = draw(st.integers(1, 150))
        current.append(make_current(
            "c", width=width, length=length, service=service,
            x=draw(st.sampled_from([h.buffer, h.hw - h.buffer - width])),
            y=draw(st.sampled_from([h.buffer, h.hl - h.buffer - length])),
            etd=service + draw(st.integers(0, 50))))

    def request():
        width, length = footprint()
        eta = draw(st.sampled_from([0.0, 0.0, 12.5, 40.0]))
        service = draw(st.sampled_from([h.eps_t, 30.0, 100.0]))
        return dict(width=width, length=length, eta=eta, service=service,
                    etd=eta + service + draw(st.integers(0, 50)),
                    p_rej=draw(st.sampled_from([100.0, 900.0, 5000.0])),
                    p_arr=draw(st.sampled_from([0.0, 10.0])),
                    p_dep=draw(st.sampled_from([0.0, 20.0])))

    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        fields = [request()] * n
    else:
        fields = [request() for _ in range(n)]
    future = [make_future(f"f{k}", **spec) for k, spec in enumerate(fields)]
    return make_instance(current=current, future=future, hangar=h)


#: Small hangar keeping brute-force cross-products tractable.
TINY_HANGAR = HangarConfig(hw=20.0, hl=18.0, buffer=2.0, eps_t=0.1,
                           eps_p=0.001, grid_step=2.0)


def _grid_positions(hangar: HangarConfig, spec: AircraftSpec) -> list[tuple[float, float]]:
    xs, ys = [], []
    x = hangar.buffer
    while x + spec.width <= hangar.hw - hangar.buffer + 1e-9:
        xs.append(x)
        x += hangar.grid_step
    y = hangar.buffer
    while y + spec.length <= hangar.hl - hangar.buffer + 1e-9:
        ys.append(y)
        y += hangar.grid_step
    return [(x, y) for x in xs for y in ys]


def _time_pool(instance: Instance, spec: AircraftSpec) -> list[float]:
    """Generous candidate roll-in times: the aircraft's ETA, small eps_t shifts,
    and every combination of other aircraft's departures plus shifts."""
    eps = instance.hangar.eps_t
    bases = {spec.eta}
    others = [a for a in instance.all_aircraft() if a.id != spec.id]
    for r in range(1, len(others) + 1):
        for combo in itertools.combinations(others, r):
            # possible chained departure time of the combo, with and without
            # waiting for this aircraft's own ETA first
            chain = max(o.eta for o in combo) + sum(o.service for o in combo)
            bases.add(chain)
            bases.add(max(spec.eta, max(o.eta for o in combo))
                      + sum(o.service for o in combo))
    pool = set()
    for b in bases:
        for k in range(4):
            pool.add(round(b + k * eps, 9))
    t_max = spec.eta + spec.p_rej / spec.p_arr if spec.p_arr > 0 else float("inf")
    return sorted(t for t in pool
                  if spec.eta - 1e-9 <= t <= t_max + 1e-9)


def brute_force_optimum(instance: Instance) -> tuple[float, Solution]:
    """Unpruned exhaustive enumeration over the full candidate cross-product;
    feasibility decided solely by the validator.  Only viable for tiny
    hangars and at most two future aircraft."""
    assert len(instance.future) <= 2, "brute force is limited to N<=2"
    h = instance.hangar
    eps = h.eps_t

    current_assignments = {}
    for c in instance.current:
        # current aircraft: fixed spot, depart at first separated slot
        t_out = c.service
        taken = [a.roll_out for a in current_assignments.values()]
        while any(abs(t_out - e) < eps - 1e-9 for e in taken):
            t_out += eps
        current_assignments[c.id] = accept(c.id, c.x_init, c.y_init, 0.0, t_out,
                                           eta=0.0, etd=c.etd)

    best_cost = float("inf")
    best_sol = None
    futures = list(instance.future)
    for mask in itertools.product([False, True], repeat=len(futures)):
        chosen = [f for f, m in zip(futures, mask) if m]
        axes = []
        for f in chosen:
            opts = []
            for t in _time_pool(instance, f):
                for k_out in range(3):
                    t_out = round(t + f.service + k_out * eps, 9)
                    for pos in _grid_positions(h, f):
                        opts.append((t, t_out, pos))
            axes.append(opts)
        for combo in itertools.product(*axes):
            by_id = dict(current_assignments)
            for f, (t, t_out, (x, y)) in zip(chosen, combo):
                by_id[f.id] = accept(f.id, x, y, t, t_out, eta=f.eta, etd=f.etd)
            sol = manual_solution(instance, by_id)
            rep = validator.validate(instance, sol)
            if not rep.feasible:
                continue
            if rep.cost.total < best_cost - 1e-12:
                best_cost = rep.cost.total
                best_sol = sol
    assert best_sol is not None, "brute force found no feasible plan"
    return best_cost, best_sol


@pytest.fixture
def tiny_hangar() -> HangarConfig:
    return TINY_HANGAR


@pytest.fixture
def collector():
    """Restores the cyclic collector's state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


# ---------------------------------------------------------------------------
# Directed infeasibility fixtures: one per violation kind.  Each value is
# (instance, solution); the solution violates exactly the named rule.
# ---------------------------------------------------------------------------

def directed_fixtures():
    from hangarplan.validator import ViolationKind as VK

    fixtures = {}

    # Accepted aircraft parked inside the wall buffer.
    f = make_future("a", eta=0.0, service=100.0)
    inst = make_instance(future=[f])
    fixtures[VK.OUT_OF_BOUNDS] = (inst, manual_solution(inst, {
        "a": accept("a", 2.0, 5.0, 0.0, 100.0, eta=f.eta, etd=f.etd)}))

    # Two co-present aircraft without buffered separation.
    fa = make_future("a", eta=0.0, service=100.0)
    fb = make_future("b", eta=0.0, service=100.0)
    inst = make_instance(future=[fa, fb])
    fixtures[VK.SPATIAL_OVERLAP] = (inst, manual_solution(inst, {
        "a": accept("a", 5.0, 5.0, 0.0, 100.0, eta=fa.eta, etd=fa.etd),
        "b": accept("b", 10.0, 5.0, 0.3, 100.5, eta=fb.eta, etd=fb.etd)}))

    # Stay shorter than the service requirement.
    f = make_future("a", eta=0.0, service=100.0)
    inst = make_instance(future=[f])
    fixtures[VK.SERVICE_TOO_SHORT] = (inst, manual_solution(inst, {
        "a": accept("a", 5.0, 5.0, 0.0, 50.0, eta=f.eta, etd=f.etd)}))

    # Roll-in before the expected arrival.
    f = make_future("a", eta=10.0, service=100.0)
    inst = make_instance(future=[f])
    fixtures[VK.EARLY_ROLL_IN] = (inst, manual_solution(inst, {
        "a": accept("a", 5.0, 5.0, 5.0, 105.0, eta=f.eta, etd=f.etd)}))

    # Two roll-ins closer than the separation slot.
    fa = make_future("a", eta=0.0, service=100.0)
    fb = make_future("b", eta=0.0, service=100.2)
    inst = make_instance(future=[fa, fb])
    fixtures[VK.MOVEMENT_TOO_CLOSE] = (inst, manual_solution(inst, {
        "a": accept("a", 5.0, 5.0, 0.0, 100.0, eta=fa.eta, etd=fa.etd),
        "b": accept("b", 36.0, 5.0, 0.05, 100.25, eta=fb.eta, etd=fb.etd)}))

    # Lower aircraft exits while an upper lane-mate is still parked.
    fa = make_future("a", eta=0.0, service=100.0, slack=0.0)   # ETD 100
    fb = make_future("b", eta=0.0, service=119.8, slack=10.0)
    inst = make_instance(future=[fa, fb])
    fixtures[VK.EXIT_BLOCKED] = (inst, manual_solution(inst, {
        "a": accept("a", 5.0, 5.0, 0.0, 100.0, eta=fa.eta, etd=fa.etd),
        "b": accept("b", 5.0, 32.0, 0.2, 120.0, eta=fb.eta, etd=fb.etd)}))

    # Lower aircraft rolls in underneath a parked upper lane-mate.
    fa = make_future("a", eta=50.0, service=100.0)
    fb = make_future("b", eta=0.0, service=120.0)
    inst = make_instance(future=[fa, fb])
    fixtures[VK.ENTRY_BLOCKED] = (inst, manual_solution(inst, {
        "a": accept("a", 5.0, 5.0, 50.0, 160.0, eta=fa.eta, etd=fa.etd),
        "b": accept("b", 5.0, 32.0, 0.0, 120.0, eta=fb.eta, etd=fb.etd)}))

    # Current aircraft moved away from its fixed initial position.
    c = make_current("c", x=5.0, y=5.0, service=100.0)
    inst = make_instance(current=[c])
    fixtures[VK.CURRENT_STATE_MISMATCH] = (inst, manual_solution(inst, {
        "c": accept("c", 10.0, 5.0, 0.0, 100.0, etd=c.etd)}))

    # Negative movement time.
    f = make_future("a", eta=0.0, service=100.0)
    inst = make_instance(future=[f])
    fixtures[VK.NEGATIVE_TIME] = (inst, manual_solution(inst, {
        "a": accept("a", 5.0, 5.0, -5.0, 95.0, eta=f.eta, etd=f.etd)}))

    return fixtures


#: Constraint-row families that implement each semantic rule.
FAMILY_BY_KIND = {
    "OutOfBounds": {"eq7_xmin", "eq8_xmax", "eq9_ymin", "eq10_ymax"},
    "SpatialOverlap": {"eq13_rel"},
    "ServiceTooShort": {"eq4_servt"},
    "EarlyRollIn": {"eq3_rollin_eta"},
    "MovementTooClose": {"eq14_outin", "eq15_inin", "eq16_inin",
                         "eq15b_outout", "eq16b_outout",
                         "eq16c_inout", "eq16d_inout"},
    "ExitBlocked": {"eq17_exit_block"},
    "EntryBlocked": {"eq18_entry_block"},
    "CurrentStateMismatch": {"fix19_accept", "fix20_xinit",
                             "fix21_yinit", "fix22_rollin"},
    "NegativeTime": {"dom_nonneg"},
}
