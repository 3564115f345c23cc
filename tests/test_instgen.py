"""Seeded instance generation: determinism, distributions, congestion."""

import numpy as np
import pytest

from hangarplan import instgen
from hangarplan.core import Kind


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


class TestConfig:
    # counts, seed and congestion are checked through `gen` in test_cli.py
    @pytest.mark.parametrize("multiplier", [float("inf"), 0.0, -1.0])
    def test_invalid_rejection_multiplier(self, multiplier):
        with pytest.raises(ValueError):
            gen(rejection_multiplier=multiplier)


class TestSubstreamIndependence:
    def test_n_current_does_not_change_future(self):
        a = gen(seed=7, n_current=0)
        b = gen(seed=7, n_current=2)
        assert a.future == b.future
