"""Sampler guarantees: region guards, memory-class membership, determinism."""

import numpy as np
import pytest

from hymem.sampling import AMPLITUDE, ArcSampler
from hymem.system import (Example1Params, Example2Params, LinearDelayConfig,
                          build_example1, build_example2,
                          build_linear_delay_system)


def _systems():
    s1, _ = build_example1(Example1Params.paper())
    s2, _ = build_example2(Example2Params.case2())
    s3, _ = build_example2(Example2Params.case1())
    return [("ex1", s1), ("ex2c2", s2), ("ex2c1", s3)]


@pytest.mark.parametrize("mode", ["reachable", "cover", "both"])
def test_membership_and_guards(mode):
    for name, spec in _systems():
        sampler = ArcSampler(spec, seed=0, mode=mode)
        for region in ("C", "D", "Gplus"):
            for s in sampler.sample(region, 15):
                assert s.arc.membership_violation() is None, (name, region)
                assert abs(s.arc.delta - spec.memory_size) < 1e-12
                if region == "C":
                    assert spec.flow_guard(s.arc) >= -1e-7
                elif region == "D":
                    assert spec.jump_guard(s.arc) >= -1e-7


def test_deterministic_across_instances():
    spec, _ = build_example2(Example2Params.case2())
    for mode in ("reachable", "cover"):
        a = ArcSampler(spec, seed=5, mode=mode).sample("D", 10)
        b = ArcSampler(spec, seed=5, mode=mode).sample("D", 10)
        for x, y in zip(a, b):
            assert x.origin == y.origin
            for sx, sy in zip(x.arc.memory_segments, y.arc.memory_segments):
                assert np.array_equal(sx.times, sy.times)
                assert np.array_equal(sx.values, sy.values)


def test_different_seeds_differ():
    spec, _ = build_example2(Example2Params.case2())
    a = ArcSampler(spec, seed=1, mode="cover").sample("C", 5)
    b = ArcSampler(spec, seed=2, mode="cover").sample("C", 5)
    assert not np.array_equal(a[0].arc.head, b[0].arc.head)


def test_no_jump_regions_without_clock():
    cfg = LinearDelayConfig(dimension=1, memory_size=0.3,
                            a0=np.array([[-1.0]]))
    spec, _ = build_linear_delay_system(cfg)
    sampler = ArcSampler(spec, seed=0, mode="cover")
    assert sampler.sample("D", 10) == []
    assert sampler.sample("Gplus", 10) == []
    assert len(sampler.sample("C", 10)) == 10


def test_cover_clock_history_is_consistent():
    """Clock components of synthesized arcs run at slope one and reset."""
    p = Example2Params.case2()
    spec, _ = build_example2(p)
    sampler = ArcSampler(spec, seed=0, mode="cover")
    for s in sampler.sample("D", 10):
        for seg in s.arc.memory_segments:
            taus = seg.values[:, 1]
            assert np.all(taus >= -1e-9) and np.all(taus <= p.delta + 1e-9)
            if len(seg.times) > 1:
                slopes = np.diff(taus) / np.diff(seg.times)
                assert np.allclose(slopes, 1.0)


def test_amplitude_range_respected():
    spec, _ = build_example2(Example2Params.case2())
    sampler = ArcSampler(spec, seed=0, mode="cover")
    for s in sampler.sample("C", 20):
        xs = np.concatenate([seg.values[:, 0] for seg in s.arc.memory_segments])
        assert np.max(np.abs(xs)) <= AMPLITUDE[1] + 1e-12
