"""Deterministic synthetic instance generator.

Every parameter family draws from its own seeded substream, so changing how
many values one family consumes never perturbs another, and the same seed
always yields byte-identical instances.

The substreams are frozen in this package (``Stream``): stream ``k`` of a
seed draws what numpy 2.4's ``default_rng(SeedSequence([seed, k]))`` draws,
a PCG64 generator (O'Neill, HMC-CS-2014-0905, 2014) seeded by numpy's
``SeedSequence``, with bounded integers by Lemire's method (ACM TOMACS
29(1), 2019).  numpy may change its ``Generator`` methods between releases
(NEP 19); a copy of them here keeps an instance the same across numpy
versions, and keeps numpy off the import path of every command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import (
    MAX_GRID_CELLS,
    MAX_HORIZON,
    TOL,
    AircraftSpec,
    HangarConfig,
    Instance,
    Kind,
    barred,
    first_free_cells,
    grid_count,
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


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The ``count`` (xor, multiplier) pairs of SeedSequence's hash, whose
    constant is multiplied by ``mult`` at each use."""
    pairs = []
    for _ in range(count):
        pairs.append((init, init * mult & _MASK32))
        init = pairs[-1][1]
    return pairs


# SeedSequence's constants for a pool of four words: four hashes to fill the
# pool and twelve to mix it, then eight to draw the 4 x 64-bit PCG64 state
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(value: int, constants: tuple[int, int]) -> int:
    value = (value ^ constants[0]) * constants[1] & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ value >> 16


def _seed_words(seed: int, k: int) -> list[int]:
    """The 32-bit words of SeedSequence's entropy ``[seed, k]``: each
    integer least significant word first, at least one word each."""
    words = []
    for v in (seed, k):
        words.append(v & _MASK32)
        while v > _MASK32:
            v >>= 32
            words.append(v & _MASK32)
    return words


class Stream:
    """numpy's ``default_rng(SeedSequence([seed, k]))`` in pure Python, for
    the draws ``generate`` makes: ``random``, ``uniform`` and ``integers``
    with a range of at most 2**32 values, each returning a list of ``n``.

    The seed sequence hashes the entropy words into a pool of four, mixes
    every pool word into every other, and hashes the pool into four 64-bit
    words: PCG64's initial state and its increment, set as PCG's
    ``srandom`` does.  Each 64-bit draw steps the 128-bit LCG and outputs
    XSL-RR.  ``random`` keeps the top 53 bits; ``integers`` draws 32-bit
    halves, the lower half of a 64-bit draw first and the upper half on the
    next call, and maps each by Lemire's multiply-and-reject.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int, k: int) -> None:
        words = _seed_words(seed, k)
        hashes = iter(_POOL_HASH if len(words) <= 4
                      else _hash_constants(0x43B0D7E5, 0x931E8875, 4 * len(words)))
        pool = [_hashmix(words[i] if i < len(words) else 0, next(hashes)) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(hashes)))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], _hashmix(word, next(hashes)))
        state = [_hashmix(pool[i % 4], c) for i, c in enumerate(_STATE_HASH)]
        # four little-endian 64-bit words: state high, state low, increment
        # high, increment low
        s0, s1, i0, i1 = (state[2 * j] | state[2 * j + 1] << 32 for j in range(4))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        # srandom: a step from state 0, the seed added, a second step
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _MASK128
        self._half: int | None = None

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        value, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (value >> rot | value << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def random(self, n: int) -> list[float]:
        """``n`` doubles uniform on [0, 1)."""
        return [(self._next64() >> 11) * (1.0 / 9007199254740992.0) for _ in range(n)]

    def uniform(self, low: float, high: float, n: int) -> list[float]:
        """``n`` doubles ``low + (high - low) * random()``."""
        span = high - low
        return [low + span * u for u in self.random(n)]

    def integers(self, low: int, high: int, n: int) -> list[int]:
        """``n`` integers uniform on [low, high); a range of one value draws
        nothing."""
        excl = high - low
        if not 0 < excl <= 1 << 32:
            raise ValueError(f"integers draws from 1 to 2**32 values, not {excl}")
        if excl == 1:
            return [low] * n
        threshold = (1 << 32) % excl
        out = []
        for _ in range(n):
            m = self._next32() * excl
            while m & _MASK32 < threshold:
                m = self._next32() * excl
            out.append(low + (m >> 32))
        return out


def _discrete(u: float, lo: int, hi: int) -> float:
    """Map one uniform draw to an integer in [lo, hi]."""
    return float(lo + min(int(u * (hi - lo + 1)), hi - lo))


#: A packed footprint: (x, y, width, length).
Rect = tuple[float, float, float, float]


def _bottom_left_spot(w: float, l: float, placed: list[Rect], h: HangarConfig):
    """The first cell ``buffer + grid_step * k``, in y-then-x order, where a
    ``w`` x ``l`` footprint is buffer-separated from every placed one, or None.

    A placed footprint bars the cells separated from it on neither axis, a run
    of rows times a run of columns of lattice indices (``core.barred``).  The
    first free cell is the least of ``core.first_free_cells``, the candidates
    that ``ach.find_best_placement`` scores, in O(k^2) for k placed footprints."""
    lo, step = h.buffer, h.grid_step
    nx = grid_count(lo, h.hw - h.buffer - w, step)
    ny = grid_count(lo, h.hl - h.buffer - l, step)
    rects = [(*barred(lo, step, ny, l, py, pl, h.buffer),
              *barred(lo, step, nx, w, px, pw, h.buffer)) for px, py, pw, pl in placed]
    cells = first_free_cells(rects, nx, ny)
    if not cells:
        return None
    row, col = min(cells)
    # a hangar given in ints has int cells
    return float(lo + step * col), float(lo + step * row)


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
    def stream(name: str) -> Stream:
        return Stream(config.seed, _STREAMS.index(name))

    n = config.n_future
    h = config.hangar

    model_idx = stream("model").integers(0, len(DEFAULT_MODELS), n)
    etas = stream("eta").uniform(0.0, n * ETA_SPAN_PER_AIRCRAFT, n)
    services = stream("service").uniform(*SERVICE_RANGE, n)
    t_buffers = stream("buffer_time").uniform(*BUFFER_TIME_RANGE, n)
    vips = [u < VIP_SHARE for u in stream("vip").random(n)]
    p_rej_u = stream("p_rej").random(n)

    if config.congestion != 1.0 and n > 0:
        # an eta that overflows to inf is refused below
        eta_min = min(etas)
        etas = [eta_min + config.congestion * (eta - eta_min) for eta in etas]

    future = []
    for i in range(n):
        w, l = DEFAULT_MODELS[model_idx[i]]
        vip = vips[i]
        lo, hi = P_REJ_RANGE_VIP if vip else P_REJ_RANGE
        p_rej = _discrete(p_rej_u[i], lo, hi) * config.rejection_multiplier
        eta = etas[i]
        service = services[i]
        future.append(AircraftSpec(
            id=f"a{i + 1:02d}", kind=Kind.FUTURE, width=w, length=l,
            eta=eta, etd=eta + service + t_buffers[i], service=service,
            p_rej=p_rej,
            p_arr=P_ARR_VIP if vip else P_ARR,
            p_dep=P_DEP_VIP if vip else P_DEP,
            vip=vip))

    current: list[AircraftSpec] = []
    if config.n_current > 0:
        cr = stream("current")
        idx = cr.integers(0, len(DEFAULT_MODELS), config.n_current)
        c_serv = cr.uniform(*SERVICE_RANGE, config.n_current)
        c_buf = cr.uniform(*BUFFER_TIME_RANGE, config.n_current)
        current = _place_current(idx, h, c_serv, c_buf)

    label = f"Inst-{n:02d}-{config.seed:04d}"
    return Instance(hangar=h, current=tuple(current), future=tuple(future),
                    label=label)

