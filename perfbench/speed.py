"""Machine-speed reference for the benchmark's timings.

The machine that defined the benchmark is a shared host whose speed drifts
by up to a factor of two over minutes (see README.md, Noise).  To keep that
drift out of the timings, a worker interleaves a fixed reference computation
with the workload and scales each instance's wall time by how fast the
reference ran around it:

    scaled = wall * REF_NOMINAL_S / mean(reference chunk times near it)

so the timings read as seconds at the speed at which a chunk takes
REF_NOMINAL_S.
The reference is code of the benchmark's own (plain Python arithmetic, dict
and list work, small numpy calls, building and serialising small objects:
the mix the planner runs), so a change to ``src/`` does not change it.  The reference runs between instances, off the
clock.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left, bisect_right

import numpy as np

#: Nominal time of one reference chunk.  On the defining machine (Intel Xeon,
#: 2 vCPU, Python 3.11, numpy 2.4) a chunk took 9 ms at best, and the mean
#: over a run was 11-20 ms, depending on how busy the host was.
REF_NOMINAL_S = 0.013
#: Reference time kept at this share of the measured workload time.
REF_SHARE = 0.3
#: Chunks within this many seconds of an instance's midpoint set its scale.
WINDOW_S = 0.5
#: A window holds at least this many chunks; it widens until it does.
MIN_CHUNKS = 8
#: Sizes of the three parts of a reference chunk.
PY_LOOPS, NP_LOOPS, OBJ_COUNT = 19000, 330, 2300

_AXIS = np.arange(64, dtype=float)
_STEPS = 0.1 * np.arange(20)


def reference_chunk() -> float:
    """Fixed work of about REF_NOMINAL_S in three equal parts: interpreter
    arithmetic with dict and list work, small-array numpy calls like the
    placement grid scan, and building, serialising and sorting a few
    thousand small objects.  Returns a checksum so that none of it can be
    skipped."""
    acc = 0.0
    table: dict[int, float] = {}
    row: list[float] = []
    for i in range(PY_LOOPS):
        x = (i * 0.37) % 11.0
        table[i & 255] = x
        if x > 3.0:
            acc += x * x
            row.append(x)
        else:
            acc -= table.get((i * 7) & 255, 0.0)
    for i in range(NP_LOOPS):
        grid = 0.5 * i + _STEPS
        valid = np.ones((20, 12), dtype=bool)
        valid &= grid[:, None] > 3.0
        acc += float(np.min(np.abs(_AXIS - i * 0.5))) + float(valid.sum())
    objs = {i: (i * 0.5, str(i)) for i in range(OBJ_COUNT)}
    text = json.dumps({str(k): v for k, v in objs.items()})
    acc += len(json.loads(text)) + sorted(objs.values(), key=lambda v: -v[0])[0][0]
    return acc + len(row)


class SpeedProbe:
    """Runs reference chunks between timed calls and scales their times."""

    def __init__(self) -> None:
        self.mid: list[float] = []
        self.took: list[float] = []
        self.checksum = 0.0
        self._owed = 0.0

    def _chunk(self) -> float:
        t0 = time.perf_counter()
        self.checksum += reference_chunk()
        t1 = time.perf_counter()
        self.mid.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        return t1 - t0

    def warm_up(self, seconds: float) -> None:
        """Run chunks for about ``seconds`` before the first timed call."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._chunk()

    def after(self, measured_s: float) -> None:
        """Run chunks until the reference time is back at REF_SHARE of the
        measured time so far."""
        self._owed += REF_SHARE * measured_s
        while self._owed > 0:
            self._owed -= self._chunk()

    def scale(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the mean chunk time around [t0, t1]."""
        mid = (t0 + t1) / 2
        half = max(WINDOW_S, (t1 - t0) / 2)
        while True:
            lo = bisect_left(self.mid, mid - half)
            hi = bisect_right(self.mid, mid + half)
            if hi - lo >= min(MIN_CHUNKS, len(self.mid)):
                break
            half *= 2
        return REF_NOMINAL_S * (hi - lo) / sum(self.took[lo:hi])
