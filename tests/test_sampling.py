"""Sampler guarantees: region guards, memory-class membership, determinism."""

from itertools import accumulate

import numpy as np
import pytest

from hymem.batch import _STACK_ROWS
from hymem.hybrid_time import ArcSegment, HybridMemoryArc, append_jump
from hymem.sampling import AMPLITUDE, SEGMENT_COUNTS, ArcSampler
from hymem.system import (DelayTerm, Example1Params, Example2Params,
                          LinearDelayConfig, build_example1, build_example2,
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


def delay_system(delay):
    """A 2-dimensional jump-free system of memory size 0.4 whose flow reads
    x(t - delay): the unclocked branch of the cover sampler."""
    spec, target = build_linear_delay_system(LinearDelayConfig(
        dimension=2, memory_size=0.4, a0=np.array([[-1.0, 0.5], [0.0, -2.0]]),
        flow_delayed=(DelayTerm(delay, np.array([[0.2, 0.0], [0.0, 0.1]])),)))
    return spec, target


@pytest.mark.parametrize("delay", [0.3, 0.05])
def test_unclocked_cover_arcs_reach_the_declared_delay(delay):
    """Memory jumps spend depth in s + k, so a cover arc keeps only the
    counts that leave the delay in time: the flow map reads every C arc
    (seed 3 gave 3 of 24 arcs shorter than a delay of 0.3)."""
    spec, _ = delay_system(delay)
    arcs = ArcSampler(spec, seed=3, mode="cover").sample("C", 200)
    assert len({len(s.arc.starts) for s in arcs}) > 1  # some memory jumps
    for s in arcs:
        assert s.arc.time_reach <= -delay
        spec.flow_candidates(s.arc)


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


def reference_cover_arc(sampler, region, index):
    """The cover arc as the sampler built it with one NumPy call per draw:
    the draw order and arithmetic that every seeded cover arc depends on."""
    rng = sampler._rng("cover", region, index)
    n = sampler.spec.dimension
    clock = sampler.spec.meta.get("clock_index")
    period = sampler.spec.meta.get("period")
    delta = sampler.spec.memory_size
    lo, hi = AMPLITUDE
    amp = rng.uniform(lo, hi)
    depth_total = delta + rng.uniform(0.05, 0.95)  # target depth in s + k

    if clock is not None:
        if region in ("D", "Gplus"):
            tau0 = period
        else:
            tau0 = rng.uniform(0.0, 0.9 * period)
        levels = [(0, 0.0, tau0)]
        while levels[-1][1] <= delta + 1.0:
            i, top, bot = levels[-1]
            levels.append((i + 1, bot + 1.0, bot + 1.0 + period))
        cands = []
        for i, top, bot in levels:
            d_lo, d_hi = max(top, delta), min(bot, delta + 1.0)
            if d_hi >= d_lo - 1e-12:
                cands.append((i, d_lo, max(d_hi, d_lo)))
        widths = np.array([hi_ - lo_ + 1e-6 for _, lo_, hi_ in cands])
        pick = int(rng.choice(len(cands), p=widths / widths.sum()))
        k_count, d_lo, d_hi = cands[pick]
        depth_cut = rng.uniform(d_lo, d_hi)
        bounds = [0.0] + [-tau0 - m * period for m in range(k_count)]
        bounds.append(-(depth_cut - k_count))
    else:
        max_jumps = min(max(SEGMENT_COUNTS), int(np.floor(depth_total)))
        reach = max(sampler.spec.meta.get("delays", ()), default=0.0)
        counts = [c for c in SEGMENT_COUNTS
                  if c <= max_jumps and depth_total - c >= reach] or [0]
        k_count = int(rng.choice(counts))
        time_depth = depth_total - k_count
        cuts = np.sort(rng.uniform(-time_depth, 0.0, size=k_count))[::-1]
        bounds = [0.0] + [float(c) for c in cuts] + [-time_depth]
        tau0 = None

    segments = []
    grid = max((bounds[0] - bounds[-1]) / 60.0, 1e-4)
    for i in range(len(bounds) - 1):
        s_hi, s_lo = bounds[i], bounds[i + 1]
        k = -i
        m = max(2, int(np.ceil((s_hi - s_lo) / grid)) + 1)
        times = np.linspace(s_lo, s_hi, m)
        knots = np.sort(np.concatenate([[s_lo, s_hi],
                                        rng.uniform(s_lo, s_hi, size=3)]))
        vals = np.empty((m, n))
        for comp in range(n):
            if comp == clock:
                continue
            kv = amp * rng.uniform(-1.0, 1.0, size=len(knots))
            vals[:, comp] = np.interp(times, knots, kv)
        if clock is not None:
            tau_hi = tau0 if i == 0 else period
            vals[:, clock] = tau_hi + (times - s_hi)
        if s_hi == s_lo:
            times, vals = times[:1], vals[:1]
        segments.append(ArcSegment(k, times, vals))
    segments.reverse()
    arc = HybridMemoryArc(np.concatenate([s.times for s in segments]),
                          np.concatenate([s.values for s in segments]),
                          np.cumsum([0] + [len(s.times) for s in segments[:-1]]),
                          delta)
    return arc, f"cover:{region}{index}"


def _reference_systems():
    jump_free, _ = build_linear_delay_system(LinearDelayConfig(
        dimension=2, memory_size=3.0, a0=np.array([[-1.0, 0.5], [0.0, -2.0]])))
    return _systems() + [("jump-free", jump_free)]


def _arc_bytes(arc):
    return [(s.jump_index, s.times.tobytes(), s.values.tobytes())
            for s in arc.memory_segments]


def _check_against_reference(spec, sampler, region, count, streams):
    """sample(region, count) gives, byte for byte, the arcs and origins of
    the reference sampler, each arc reading its own stream exactly as far;
    a post-jump arc is its pre-jump cover arc after the jump.  Returns the
    arcs and each pre-jump arc's number of stored samples."""
    streams.clear()
    got = sampler.sample(region, count)
    drawn = streams[:]  # one stream per arc, in index order
    assert [key for key, _ in drawn] == [("cover", region, i) for i in range(count)]
    assert [s.index for s in got] == list(range(count))
    sizes = []
    for s, (_, rng) in zip(got, drawn):
        arc, origin = reference_cover_arc(sampler, region, s.index)
        sizes.append(len(arc.times))
        if region == "Gplus":
            gs = spec.jump_selections(arc)
            arc, origin = append_jump(arc, gs[s.index % len(gs)]), origin + ":+g"
        assert s.origin == origin
        assert _arc_bytes(s.arc) == _arc_bytes(arc), (region, s.index)
        # exactly the draws the reference makes, none left unread
        assert str(rng.bit_generator.state) == \
            str(streams[-1][1].bit_generator.state), (region, s.index)
    return got, sizes


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("name, spec", _reference_systems(),
                         ids=[name for name, _ in _reference_systems()])
def test_cover_arcs_match_the_reference_sampler(name, spec, seed):
    """Byte for byte the arcs and origins of the one-call-per-draw sampler,
    in every region the system supports: example 1 (three free components),
    both example 2 cases, and a jump-free system (the unclocked branch,
    deep enough for every segment count).  400 arcs are several blocks of
    the array builder; one arc, and one more than fits a block, split the
    blocks unevenly."""
    sampler = ArcSampler(spec, seed=seed, mode="cover")
    streams = []  # each stream's key and generator, to see how far it was read
    make_rng = sampler._rng

    def recording_rng(*key):
        streams.append((key, make_rng(*key)))
        return streams[-1][1]

    sampler._rng = recording_rng
    regions = [r for r in ("C", "D", "Gplus") if sampler.region_supported(r)]
    assert regions == (["C"] if name == "jump-free" else ["C", "D", "Gplus"])
    levels = set()
    for region in regions:
        got, sizes = _check_against_reference(spec, sampler, region, 400, streams)
        levels.update(len(s.arc.starts) for s in got)
        full = sum(r <= _STACK_ROWS for r in accumulate(sizes))  # the first block
        assert 1 < full < 400
        for count in (1, full + 1):
            _check_against_reference(spec, sampler, region, count, streams)
        if region != "Gplus":  # each arc owns its read-only arrays (post-jump
            # arcs are cuts of append_jumps' blocks)
            arrays = [a for s in got for a in (s.arc.times, s.arc.values)]
            assert not any(a.flags.writeable for a in arrays)
            bases = {id(a if a.base is None else a.base) for a in arrays}
            assert len(bases) == len(arrays)
    if name == "jump-free":  # every entry of SEGMENT_COUNTS comes up
        assert levels == {c + 1 for c in SEGMENT_COUNTS}


class _Stub:
    """A stream of given uniforms: ``head``, then ``cycle`` repeated.  Its
    uniform and choice read it as Generator's do (choice with p reads one
    uniform; without p it takes a[0] and reads none)."""

    def __init__(self, head, cycle):
        self.head, self.cycle, self.pos = list(head), list(cycle), 0

    def _next(self):
        i, self.pos = self.pos, self.pos + 1
        return self.head[i] if i < len(self.head) else \
            self.cycle[(i - len(self.head)) % len(self.cycle)]

    def random(self, size=None):
        if size is None:
            return self._next()
        return np.array([self._next() for _ in range(int(np.prod(size)))]).reshape(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return low + (high - low) * self.random(size)

    def choice(self, a, p=None):
        if p is None:
            return a[0]
        cdf = np.cumsum(p)
        return int(np.searchsorted(cdf / cdf[-1], self.random(), side="right"))


@pytest.mark.parametrize("head, cycle, region", [
    # tau0 = 0: the newest level is the one sample at s = 0
    ([0.3, 0.5, 0.0, 0.5, 0.5], [0.2, 0.7, 0.4, 0.1, 0.9, 0.5, 0.3, 0.6], "C"),
    # coincident knots: two at s_lo (a draw of 0), two in between
    ([0.3, 0.5, 0.4, 0.5, 0.5], [0.0, 0.5, 0.5, 0.1, 0.9, 0.5, 0.3, 0.6], "C"),
    # three equal knot times, and a draw of 0 for the clock's tau0 and cut
    ([0.8, 0.5, 0.0, 0.5, 0.0], [0.25, 0.25, 0.25, 0.9, 0.1, 0.0, 0.7, 0.2], "C"),
    ([0.8, 0.5, 0.5, 0.0], [0.0, 0.0, 0.75, 0.9, 0.1, 0.0, 0.7, 0.2], "D"),
])
def test_cover_arcs_match_the_reference_on_edge_draws(head, cycle, region):
    """np.interp's zero-width intervals and a one-sample level, forced by a
    stub stream on example 2 case 2, give the reference's bytes."""
    spec, _ = build_example2(Example2Params.case2())
    sampler = ArcSampler(spec, seed=0, mode="cover")
    sampler._rng = lambda *key: _Stub(head, cycle)
    got = sampler.sample(region, 3)
    for s in got:
        arc, origin = reference_cover_arc(sampler, region, s.index)
        assert s.origin == origin
        assert _arc_bytes(s.arc) == _arc_bytes(arc)
    if head[2] == 0.0 and region == "C":
        assert len(got[0].arc.memory_segments[-1].times) == 1
