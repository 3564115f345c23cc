"""Seeded instance generation: determinism, distributions, congestion."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hangarplan import instgen, io
from hangarplan.core import HangarConfig, Kind, barred

from conftest import axis_cells, rects_separated


def gen(**kwargs):
    defaults = dict(n_future=10, seed=42)
    defaults.update(kwargs)
    return instgen.generate(instgen.GeneratorConfig(**defaults))


class TestDeterminism:
    def test_same_seed_same_instance(self):
        assert gen() == gen()

    def test_different_seed_differs(self):
        assert gen(seed=1) != gen(seed=2)

    def test_label_encodes_size_and_seed(self):
        assert gen(n_future=7, seed=123).label == "Inst-07-0123"

    def test_ids_are_sequential(self):
        inst = gen(n_future=3, n_current=2)
        assert [a.id for a in inst.future] == ["a01", "a02", "a03"]
        assert [c.id for c in inst.current] == ["c01", "c02"]


class TestDistributions:
    def test_ranges(self):
        inst = gen(n_future=200)
        for f in inst.future:
            assert f.kind is Kind.FUTURE
            assert (f.width, f.length) in instgen.DEFAULT_MODELS
            assert 0.0 <= f.eta <= 200 * 80.0
            assert 100.0 <= f.service <= 400.0
            assert 24.0 - 1e-9 <= f.etd - f.eta - f.service <= 72.0 + 1e-9

    def test_penalties_split_by_vip(self):
        inst = gen(n_future=300)
        for f in inst.future:
            assert f.p_rej == int(f.p_rej)  # drawn from a discrete range
            if f.vip:
                assert 1500 <= f.p_rej <= 2000
                assert (f.p_arr, f.p_dep) == (30.0, 60.0)
            else:
                assert 700 <= f.p_rej <= 1200
                assert (f.p_arr, f.p_dep) == (10.0, 20.0)

    def test_vip_share_plausible(self):
        inst = gen(n_future=500)
        share = sum(f.vip for f in inst.future) / 500
        assert 0.1 < share < 0.3


class TestCongestion:
    def test_compression_preserves_non_eta_draws(self):
        base = gen(seed=5)
        comp = gen(seed=5, congestion=0.2)
        for f0, f1 in zip(base.future, comp.future):
            assert f1.service == f0.service
            assert f1.p_rej == f0.p_rej
            assert f1.vip == f0.vip
            # per-aircraft slack between etd and service end is kept
            assert f1.etd - f1.eta - f1.service == pytest.approx(
                f0.etd - f0.eta - f0.service)

    def test_compression_shrinks_eta_span(self):
        base = gen(seed=5)
        comp = gen(seed=5, congestion=0.2)
        span = lambda inst: (max(f.eta for f in inst.future)
                             - min(f.eta for f in inst.future))
        assert span(comp) == pytest.approx(0.2 * span(base))
        assert min(f.eta for f in comp.future) == pytest.approx(
            min(f.eta for f in base.future))

    def test_rejection_multiplier(self):
        base = gen(seed=5)
        high = gen(seed=5, rejection_multiplier=10.0)
        for f0, f1 in zip(base.future, high.future):
            assert f1.p_rej == pytest.approx(10.0 * f0.p_rej)


class TestCurrentPlacement:
    def test_catalog_in_increasing_area(self):
        # downsizing a current aircraft steps to the previous catalog index
        areas = [w * l for w, l in instgen.DEFAULT_MODELS]
        assert areas == sorted(set(areas))

    def test_current_positions_valid(self):
        # the Instance constructor enforces bounds and buffered separation
        inst = gen(n_future=2, n_current=2, seed=9)
        assert len(inst.current) == 2
        for c in inst.current:
            assert c.kind is Kind.CURRENT
            assert c.eta == 0.0
            assert c.etd == pytest.approx(c.service + (c.etd - c.service))

    def test_stacked_current_still_solvable(self):
        # lane stacking is allowed at generation time; the heuristic must
        # still schedule departures feasibly (top of the lane leaves first)
        from hangarplan import ach, validator
        inst = gen(n_future=1, n_current=3, seed=11)
        assert len(inst.current) >= 2
        sol = ach.solve(inst)
        assert validator.validate(inst, sol).feasible

    def test_overfull_hangar_truncates(self):
        inst = gen(n_future=0, n_current=10, seed=3)
        assert 0 < len(inst.current) < 10

    @pytest.mark.parametrize("seed", range(4))
    def test_positions_on_the_solvers_grid(self, seed):
        # a 0.1 m step is not a binary fraction: cells counted up by repeated
        # addition drift off the solvers' cells lo + k * step
        h = HangarConfig(grid_step=0.1)
        inst = gen(n_future=2, n_current=3, seed=seed, hangar=h)
        assert inst.current
        for c in inst.current:
            assert c.x_init in axis_cells(h.buffer, h.hw - h.buffer - c.width, h.grid_step)
            assert c.y_init in axis_cells(h.buffer, h.hl - h.buffer - c.length, h.grid_step)


def pack_by_dropping(model_idx, h):
    """``instgen._place_current``'s packing loop before it bounded the count,
    kept as its reference: downsize the largest model, or drop the last
    aircraft once every model is the smallest, until the set packs."""
    idx = list(model_idx)
    while idx:
        placed = instgen._try_pack(idx, h)
        if placed is not None:
            return placed
        big = max(range(len(idx)), key=lambda i: idx[i])
        if idx[big] == 0:
            idx.pop()
        else:
            idx[big] -= 1
    return []


#: The default hangar, a longer one, a wide one and one with no buffer.
PACKING_HANGARS = [HangarConfig(), HangarConfig(hl=100.0), HangarConfig(hw=120.0, hl=100.0),
                   HangarConfig(buffer=0.0)]


class TestPackingBound:
    @settings(max_examples=60, deadline=None)
    @given(model_idx=st.lists(st.integers(0, len(instgen.DEFAULT_MODELS) - 1), max_size=40),
           h=st.sampled_from(PACKING_HANGARS))
    def test_equals_the_dropping_loop(self, model_idx, h):
        ones = [1.0] * len(model_idx)
        got = instgen._place_current(model_idx, h, ones, ones)
        assert [(c.x_init, c.y_init, c.width, c.length) for c in got] == \
            pack_by_dropping(model_idx, h)


def per_cell_spot(w, l, placed, h):
    """The cell-by-cell scan that ``instgen._bottom_left_spot`` replaced,
    kept as its reference: the first cell in y-then-x order that is
    buffer-separated from every placed footprint.  It tests separation with
    the validator's TOL, the packing with the solvers' GRID_TOL (TOL less
    1e-9 m), so the two differ only where a buffer gap falls short by more
    than GRID_TOL and less than TOL (``test_differs_in_the_tolerance_band``)."""
    xs = axis_cells(h.buffer, h.hw - h.buffer - w, h.grid_step)
    ys = axis_cells(h.buffer, h.hl - h.buffer - l, h.grid_step)
    for y in ys:
        for x in xs:
            if all(rects_separated(x, y, w, l, *p, h.buffer) for p in placed):
                return float(x), float(y)
    return None


def lengths(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def spot_queries(draw):
    hw, hl = draw(lengths(20.0, 90.0)), draw(lengths(20.0, 90.0))
    hangar = HangarConfig(hw=hw, hl=hl, buffer=draw(st.sampled_from([0.0, 2.5, 5.0])),
                          grid_step=draw(st.sampled_from([0.7, 1.0, 3.7, 5.0])))
    # placed footprints anywhere, overlapping or out of bounds: the scan
    # does not assume a valid packing.  Coordinates on the grid and whole
    # sizes put edges exactly at, or a rounding error off, the separation
    # bound, where the tolerance decides.
    on_grid = st.integers(0, 90).map(lambda k: hangar.buffer + k * hangar.grid_step)
    rect = st.tuples(lengths(-5.0, hw) | on_grid, lengths(-5.0, hl) | on_grid,
                     lengths(1.0, 40.0) | st.integers(1, 40).map(float),
                     lengths(1.0, 40.0) | st.integers(1, 40).map(float))
    placed = draw(st.lists(rect, max_size=4))
    # a footprint wider or longer than the hangar leaves no grid cell at all
    size = lengths(1.0, 40.0) | st.integers(1, 40).map(float)
    return draw(size), draw(size), placed, hangar


class TestBottomLeftSpot:
    @settings(max_examples=150, deadline=None)
    @given(query=spot_queries())
    def test_matches_per_cell_scan(self, query):
        w, l, placed, hangar = query
        assert instgen._bottom_left_spot(w, l, placed, hangar) == \
            per_cell_spot(w, l, placed, hangar)

    def test_step_not_dividing_hangar(self):
        h = HangarConfig(hw=65.0, hl=60.0, buffer=5.0, grid_step=3.7)
        placed = [(5.0, 5.0, 24.0, 22.0)]
        spot = instgen._bottom_left_spot(24.0, 22.0, placed, h)
        assert spot == per_cell_spot(24.0, 22.0, placed, h)
        # the first cell right of the placed footprint and its buffer
        assert spot == (pytest.approx(5.0 + 8 * 3.7), 5.0)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_tolerance_decides_at_the_bound(self, axis):
        # with a 0.1 m step the buffered edge 0.3 + 8.3 + 5 rounds to just
        # above the cell 5 + 86 * 0.1 = 13.6, a rounding error short of it
        h = HangarConfig(grid_step=0.1)
        placed = [(0.3, 0.0, 8.3, h.hl) if axis == 0 else (0.0, 0.3, h.hw, 8.3)]
        spot = instgen._bottom_left_spot(10.0, 10.0, placed, h)
        assert spot == per_cell_spot(10.0, 10.0, placed, h)
        assert spot[axis] < 0.3 + 8.3 + h.buffer == pytest.approx(spot[axis])
        # the run that core.barred bars, in ach's scan as in the packing,
        # ends at that cell
        cells = axis_cells(h.buffer, (h.hw, h.hl)[axis] - h.buffer - 10.0, h.grid_step)
        assert barred(h.buffer, h.grid_step, len(cells), 10.0, 0.3, 8.3, h.buffer) == \
            (0, cells.index(spot[axis]))

    def test_differs_in_the_tolerance_band(self):
        # right of the placed footprint, the cell x = 36 is 0.9995e-6 m short
        # of its buffer: more than GRID_TOL, which bars it in the packing as
        # in the solvers' scans, and less than TOL, which keeps it in the
        # reference and the validator
        h = HangarConfig()
        placed = [(7.0 + 0.9995e-6, 5.0, 24.0, 50.0)]
        assert instgen._bottom_left_spot(24.0, 22.0, placed, h) is None
        assert per_cell_spot(24.0, 22.0, placed, h) == (36.0, 5.0)

    def test_empty_grid(self):
        h = HangarConfig()
        assert instgen._bottom_left_spot(h.hw, 10.0, [], h) is None

    def test_no_free_cell(self):
        h = HangarConfig()
        assert instgen._bottom_left_spot(24.0, 22.0, [(0.0, 0.0, h.hw, h.hl)], h) is None


class TestConfig:
    # counts, seed and congestion are checked through `gen` in test_cli.py;
    # the count bounds, which no instance can pass, at their edges here
    @pytest.mark.parametrize("field,bound", [("n_future", 10**7 - 1), ("n_current", 10**6)])
    def test_count_bounds(self, field, bound):
        instgen.GeneratorConfig(**{"n_future": 1, field: bound})
        with pytest.raises(ValueError, match=field):
            instgen.GeneratorConfig(**{"n_future": 1, field: bound + 1})

    @pytest.mark.parametrize("multiplier", [float("inf"), 0.0, -1.0])
    def test_invalid_rejection_multiplier(self, multiplier):
        with pytest.raises(ValueError):
            gen(rejection_multiplier=multiplier)


class TestSubstreamIndependence:
    def test_n_current_does_not_change_future(self):
        a = gen(seed=7, n_current=0)
        b = gen(seed=7, n_current=2)
        assert a.future == b.future


#: The hangars of the generator's sweep: the default one, one with no buffer,
#: one narrower than the widest models, a wide one, and a wide one on a finer
#: grid.
SWEEP_HANGARS = (
    HangarConfig(),
    HangarConfig(buffer=0.0),
    HangarConfig(hw=40.0, hl=35.0),
    HangarConfig(hw=120.0, hl=100.0),
    HangarConfig(hw=120.0, hl=100.0, buffer=2.5, grid_step=0.5),
)

#: Seeds of one, two, three and four 32-bit words, and zero.
SWEEP_SEEDS = (0, 1, 7, 42, 2**31 - 1, 2**32 + 7, 2**64 + 3, 2**100 + 5, 123456789)


def instgen_sweep():
    """4,680 configurations: each hangar, n 0-25, n_current 0-5, congestion
    0.2, 1 and 3.7 and rejection multiplier 1 and 10, the seeds in turn."""
    combos = itertools.product(SWEEP_HANGARS, range(26), range(6), (0.2, 1.0, 3.7), (1.0, 10.0))
    for i, (hangar, n, n_current, congestion, multiplier) in enumerate(combos):
        yield instgen.GeneratorConfig(
            n_future=n, n_current=n_current, seed=SWEEP_SEEDS[i % len(SWEEP_SEEDS)],
            hangar=hangar, congestion=congestion, rejection_multiplier=multiplier)


#: sha256 of the instances of ``instgen_sweep``: one line of key-sorted
#: instance JSON per configuration.  It was taken with numpy's
#: ``default_rng(SeedSequence([seed, k]))`` streams, before ``instgen`` drew
#: from its own copy of them.
INSTGEN_SWEEP_SHA256 = "533c807b42244a68e2e9232a318efabf13d5b1d44aa8cfbd24c9d53dd2900801"

#: The first draws of each of the seven streams of a seed of one, two, three
#: and four 32-bit words, taken from numpy: ``integers(0, 8, 3)``, then
#: ``random(1)``, then ``integers(0, 8, 1)``, which reads the upper half of
#: the 64-bit draw whose lower half the third integer took.
GOLDEN_DRAWS = {
    5: [
        ([5, 6, 0], 0.515325561042142, 6),
        ([1, 6, 6], 0.6958803443421149, 3),
        ([6, 1, 5], 0.5914133521906731, 3),
        ([7, 5, 2], 0.639093666561746, 0),
        ([5, 2, 0], 0.5688384627964234, 0),
        ([4, 5, 7], 0.6242029100814583, 6),
        ([0, 6, 7], 0.9018236345684187, 2),
    ],
    2**32 + 7: [
        ([6, 6, 7], 0.18909773329712753, 0),
        ([0, 5, 1], 0.11289056198850744, 4),
        ([5, 7, 7], 0.2663851419363449, 5),
        ([4, 4, 1], 0.20014055364870986, 1),
        ([6, 6, 0], 0.11954342753215752, 7),
        ([1, 4, 0], 0.5861121310577786, 0),
        ([1, 3, 7], 0.7008035355638462, 3),
    ],
    2**64 + 3: [
        ([2, 5, 4], 0.5065468852335154, 3),
        ([5, 5, 4], 0.8672692187273296, 7),
        ([6, 6, 5], 0.8821755282589219, 3),
        ([2, 2, 6], 0.22266275520182055, 3),
        ([3, 5, 1], 0.5645615152955545, 0),
        ([0, 7, 3], 0.10888019632602164, 7),
        ([4, 7, 1], 0.6588368060969894, 4),
    ],
    2**100 + 5: [
        ([5, 4, 3], 0.17257069552534576, 2),
        ([2, 7, 1], 0.32506094596831825, 1),
        ([4, 4, 0], 0.1712917585257403, 5),
        ([7, 1, 1], 0.211473868938316, 2),
        ([5, 4, 0], 0.263061014024886, 0),
        ([6, 6, 1], 0.7245301767207072, 2),
        ([5, 7, 3], 0.05167150482927929, 6),
    ],
}


class TestStream:
    """``instgen.Stream`` is numpy's ``default_rng(SeedSequence([seed, k]))``
    frozen in this package: the same seed gives the same instance whatever
    numpy is installed, or none."""

    def test_instgen_sweep_pinned(self):
        digest = hashlib.sha256()
        for config in instgen_sweep():
            inst = instgen.generate(config)
            digest.update(json.dumps(io.instance_to_dict(inst), sort_keys=True).encode()
                          + b"\n")
        assert digest.hexdigest() == INSTGEN_SWEEP_SHA256

    @pytest.mark.parametrize("seed", GOLDEN_DRAWS)
    def test_golden_draws(self, seed):
        for k, (first, u, last) in enumerate(GOLDEN_DRAWS[seed]):
            stream = instgen.Stream(seed, k)
            assert stream.integers(0, 8, 3) == first
            assert stream.random(1) == [u]
            assert stream.integers(0, 8, 1) == [last]

    def test_equals_numpy_on_random_call_sequences(self):
        import numpy as np
        draw = random.Random(43)
        # ranges of one value (no draw), small ones, ones that reject about
        # half the 32-bit draws, and the whole 32-bit range
        spans = (1, 2, 3, 8, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)
        for _ in range(3000):
            seed = draw.choice((draw.randrange(2**32), draw.randrange(2**32, 2**64),
                                draw.randrange(2**64, 2**140)))
            k, n = draw.randrange(10), draw.randrange(8)
            calls = []
            for _ in range(draw.randrange(1, 5)):
                lo = draw.uniform(-1e3, 1e3)
                calls.append(draw.choice((
                    ("integers", int(lo), int(lo) + draw.choice(spans), n),
                    ("uniform", lo, lo + draw.uniform(0.0, 1e4), n),
                    ("random", n))))
            ours = instgen.Stream(seed, k)
            theirs = np.random.default_rng(np.random.SeedSequence([seed, k]))
            for name, *args in calls:
                assert getattr(ours, name)(*args) == getattr(theirs, name)(*args).tolist(), \
                    (seed, k, calls)
