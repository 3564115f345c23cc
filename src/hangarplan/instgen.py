"""Deterministic synthetic instance generator.

Every parameter family draws from its own seeded substream, so changing how
many values one family consumes never perturbs another, and the same seed
always yields byte-identical instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MAX_GRID_CELLS,
    MAX_HORIZON,
    TOL,
    AircraftSpec,
    HangarConfig,
    Instance,
    Kind,
    grid,
)

#: (width, length) catalog of aircraft footprints, in increasing area.
DEFAULT_MODELS: tuple[tuple[float, float], ...] = (
    (24.0, 22.0), (26.0, 24.0), (28.0, 26.0), (30.0, 30.0),
    (34.0, 34.0), (36.0, 38.0), (40.0, 42.0), (45.0, 48.0),
)

# The instance distribution (times in hours, penalties per hour of delay);
# current aircraft carry the non-VIP P_DEP.
VIP_SHARE = 0.2
ETA_SPAN_PER_AIRCRAFT = 80.0
SERVICE_RANGE = (100.0, 400.0)
BUFFER_TIME_RANGE = (24.0, 72.0)
P_REJ_RANGE = (700, 1200)
P_REJ_RANGE_VIP = (1500, 2000)
P_ARR = 10.0
P_DEP = 20.0
P_ARR_VIP = 30.0
P_DEP_VIP = 60.0

_STREAMS = ("model", "eta", "service", "buffer_time", "vip", "p_rej", "current")


@dataclass(frozen=True)
class GeneratorConfig:
    n_future: int
    n_current: int = 0
    seed: int = 0
    hangar: HangarConfig = field(default_factory=HangarConfig)
    congestion: float = 1.0          # <1 compresses the arrival horizon
    rejection_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if min(self.n_future, self.n_current, self.seed) < 0:
            raise ValueError("n_future, n_current and seed must be non-negative, got "
                             f"{self.n_future}, {self.n_current}, {self.seed}")
        # each request adds at least SERVICE_RANGE[0] to the horizon M_T, and
        # no two parked aircraft share a grid cell
        if self.n_future * SERVICE_RANGE[0] >= MAX_HORIZON:
            raise ValueError(f"n_future {self.n_future} gives a time horizon of more than "
                             f"{self.n_future * SERVICE_RANGE[0]:g} h, past {MAX_HORIZON:g} h")
        if self.n_current > MAX_GRID_CELLS:
            raise ValueError(f"n_current {self.n_current} exceeds the {MAX_GRID_CELLS} "
                             "grid cells a hangar may have")
        if not all(0 < v < math.inf for v in (self.congestion, self.rejection_multiplier)):
            raise ValueError("congestion and rejection_multiplier must be positive and "
                             f"finite, got {self.congestion}, {self.rejection_multiplier}")


def _rngs(seed: int) -> dict[str, np.random.Generator]:
    return {name: np.random.default_rng(np.random.SeedSequence([seed, k]))
            for k, name in enumerate(_STREAMS)}


def _discrete(u: float, lo: int, hi: int) -> float:
    """Map one uniform draw to an integer in [lo, hi]."""
    return float(lo + min(int(u * (hi - lo + 1)), hi - lo))


#: A packed footprint: (x, y, width, length).
Rect = tuple[float, float, float, float]


def _bottom_left_spot(w: float, l: float, placed: list[Rect], h: HangarConfig):
    """The first cell of ``core.grid``, in y-then-x order, where a ``w`` x ``l``
    footprint is buffer-separated from every placed one, or ``None``.  One
    boolean mask over ``ys x xs`` per placed footprint, with the comparisons
    of ``core.x_separated`` in the same order."""
    xs = grid(h.buffer, h.hw - h.buffer - w, h.grid_step)
    ys = grid(h.buffer, h.hl - h.buffer - l, h.grid_step)
    free = np.ones((len(ys), len(xs)), dtype=bool)
    b = h.buffer
    for px, py, pw, pl in placed:
        sep_x = (px + pw + b <= xs + TOL) | (xs + w + b <= px + TOL)
        sep_y = (py + pl + b <= ys + TOL) | (ys + l + b <= py + TOL)
        free &= sep_y[:, None] | sep_x[None, :]
    if not free.any():
        return None
    i, j = divmod(int(np.argmax(free)), len(xs))
    return float(xs[j]), float(ys[i])


def _try_pack(idx: list[int], h: HangarConfig) -> list[Rect] | None:
    placed: list[Rect] = []
    for k in idx:
        w, l = DEFAULT_MODELS[k]
        spot = _bottom_left_spot(w, l, placed, h)
        if spot is None:
            return None
        placed.append((*spot, w, l))
    return placed


def _place_current(model_idx: list[int], hangar: HangarConfig,
                   services: list[float], buffers: list[float]) -> list[AircraftSpec]:
    """Greedy bottom-left packing of the aircraft already in the hangar.

    A spot is admissible when it is in bounds and buffer-separated from every
    placed aircraft; aircraft stacked behind others in the same lane are
    allowed (the solvers order their departures top-first).  When the drawn
    models do not all fit, the largest is repeatedly downsized to the next
    smaller catalog model until the whole set packs, so the requested count is
    met whenever geometrically possible.

    At most ``k`` aircraft fit.  Grow each packed footprint by ``(b - TOL) / 2``
    on every side, ``b`` the buffer: two buffer-separated footprints grow into
    disjoint rectangles, each at least ``(w0 + b - TOL) x (l0 + b - TOL)`` for
    the least catalog width ``w0`` and length ``l0``, and all inside a
    ``(hw - b + 2 TOL) x (hl - b + 2 TOL)`` rectangle.  So a draw of more than
    ``k`` models fails at every step until it is all smallest models and cut
    down to ``k`` of them, and it starts there.
    """
    b = hangar.buffer
    w0, l0 = (min(dims) for dims in zip(*DEFAULT_MODELS))
    k = math.floor((hangar.hw - b + 2 * TOL) * (hangar.hl - b + 2 * TOL)
                   / ((w0 + b - TOL) * (l0 + b - TOL)))
    # catalog indices, so a smaller index is a smaller model
    idx = list(model_idx) if len(model_idx) <= k else [0] * k
    while idx:
        placed = _try_pack(idx, hangar)
        if placed is not None:
            return [AircraftSpec(
                id=f"c{i + 1:02d}", kind=Kind.CURRENT, width=w, length=l,
                eta=0.0, etd=services[i] + buffers[i], service=services[i],
                p_dep=P_DEP, x_init=x, y_init=y)
                for i, (x, y, w, l) in enumerate(placed)]
        big = max(range(len(idx)), key=lambda i: idx[i])
        if idx[big] == 0:
            idx.pop()  # all at the smallest model; drop the last aircraft
        else:
            idx[big] -= 1
    return []


def generate(config: GeneratorConfig) -> Instance:
    """Build one reproducible instance from the seeded substreams."""
    rng = _rngs(config.seed)
    n = config.n_future
    h = config.hangar

    model_idx = rng["model"].integers(0, len(DEFAULT_MODELS), size=n)
    etas = rng["eta"].uniform(0.0, n * ETA_SPAN_PER_AIRCRAFT, size=n)
    services = rng["service"].uniform(*SERVICE_RANGE, size=n)
    t_buffers = rng["buffer_time"].uniform(*BUFFER_TIME_RANGE, size=n)
    vips = rng["vip"].random(size=n) < VIP_SHARE
    p_rej_u = rng["p_rej"].random(size=n)

    if config.congestion != 1.0 and n > 0:
        eta_min = float(np.min(etas))
        with np.errstate(over="ignore"):  # an eta that overflows to inf is refused below
            etas = eta_min + config.congestion * (etas - eta_min)

    future = []
    for i in range(n):
        w, l = DEFAULT_MODELS[model_idx[i]]
        vip = bool(vips[i])
        lo, hi = P_REJ_RANGE_VIP if vip else P_REJ_RANGE
        p_rej = _discrete(p_rej_u[i], lo, hi) * config.rejection_multiplier
        eta = float(etas[i])
        service = float(services[i])
        future.append(AircraftSpec(
            id=f"a{i + 1:02d}", kind=Kind.FUTURE, width=w, length=l,
            eta=eta, etd=eta + service + float(t_buffers[i]), service=service,
            p_rej=p_rej,
            p_arr=P_ARR_VIP if vip else P_ARR,
            p_dep=P_DEP_VIP if vip else P_DEP,
            vip=vip))

    current: list[AircraftSpec] = []
    if config.n_current > 0:
        cr = rng["current"]
        idx = cr.integers(0, len(DEFAULT_MODELS), size=config.n_current)
        c_serv = cr.uniform(*SERVICE_RANGE, size=config.n_current)
        c_buf = cr.uniform(*BUFFER_TIME_RANGE, size=config.n_current)
        current = _place_current([int(j) for j in idx], h,
                                 [float(s) for s in c_serv],
                                 [float(b) for b in c_buf])

    label = f"Inst-{n:02d}-{config.seed:04d}"
    return Instance(hangar=h, current=tuple(current), future=tuple(future),
                    label=label)

