"""Sampler guarantees: region guards, memory-class membership, determinism."""

import dataclasses
import math
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest

from hymem import batch
from hymem.builtin import (example1_razumikhin_certificate,
                           example2_krasovskii_certificate)
from hymem.certificates import check_krasovskii, check_razumikhin
from hymem.hybrid_time import ArcSegment, HybridMemoryArc, append_jump
from hymem.sampling import AMPLITUDE, MIN_FLOW_WINDOWS, SEGMENT_COUNTS, ArcSampler
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
        assert s.arc.times[0] <= -delay
        spec.flow_selection(s.arc)


def test_reachable_pool_refuses_a_simulation_that_ended_in_error():
    """A pool simulation that overflows ends in error, and the sampler says
    so instead of handing out windows that hold infinities."""
    spec, _ = build_linear_delay_system(LinearDelayConfig(
        dimension=1, memory_size=0.1, a0=np.array([[800.0]]),
        flow_delayed=(DelayTerm(0.1, np.array([[1.0]])),)))
    sampler = ArcSampler(spec, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"simulation 0 ended in error: "
                           r"non-finite state at \(t=[0-9.]+, j=0\)"):
            sampler.sample("C", 20)


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


def reference_stride(spec):
    """The most uniforms a cover arc of spec reads: three, the jump times of
    an unclocked arc, and the levels of the deepest candidate an arc with
    tau0 = 0 has (no arc has more)."""
    clock = spec.meta.get("clock_index")
    per_level = 3 + 5 * (spec.dimension - (clock is not None))
    if clock is None:
        return 3 + max(SEGMENT_COUNTS) + (max(SEGMENT_COUNTS) + 1) * per_level
    cands = _clock_candidates(0.0, spec.meta["period"], spec.memory_size)
    return 3 + (max(i for i, _, _ in cands) + 1) * per_level


def _clock_candidates(tau0, period, delta):
    """(level, d_lo, d_hi): the jump levels, newest first, of a clock-
    consistent history whose depths meet [delta, delta + 1], and where."""
    levels = [(0.0, tau0)]  # each level's (top, bottom) depth
    while levels[-1][0] <= delta + 1.0:
        levels.append((levels[-1][1] + 1.0, tau0 + len(levels) * (1.0 + period)))
    cands = []
    for i, (top, bot) in enumerate(levels):
        d_lo, d_hi = max(top, delta), min(bot, delta + 1.0)
        if d_hi >= d_lo - 1e-12:
            cands.append((i, d_lo, max(d_hi, d_lo)))
    return cands


def reference_cover_arc(spec, region, row, index):
    """Cover arc ``index`` of ``region`` from its row of uniforms, one scalar
    step per uniform: the layout and arithmetic that every seeded cover arc
    depends on.  Returns the arc (through the checked constructor), its
    origin and the number of uniforms it read."""
    pos = 0

    def uniform(lo, hi):  # as Generator.uniform maps a uniform
        nonlocal pos
        pos += 1
        return lo + (hi - lo) * float(row[pos - 1])

    n = spec.dimension
    clock = spec.meta.get("clock_index")
    period = spec.meta.get("period")
    delta = spec.memory_size
    amp = uniform(*AMPLITUDE)
    if clock is not None:
        tau0 = uniform(0.0, 0.9 * period) if region == "C" else period
        # the widest candidate, the first of equally wide ones
        k_count, d_lo, d_hi = max(_clock_candidates(tau0, period, delta),
                                  key=lambda c: c[2] - c[1])
        depth_cut = uniform(d_lo, d_hi)
        bounds = [0.0] + [-tau0 - m * period for m in range(k_count)]
        bounds.append(-(depth_cut - k_count))
    else:
        depth_total = delta + uniform(0.05, 0.95)  # in s + k
        max_jumps = min(max(SEGMENT_COUNTS), math.floor(depth_total))
        reach = max(spec.meta.get("delays", ()), default=0.0)
        counts = [c for c in SEGMENT_COUNTS
                  if c <= max_jumps and depth_total - c >= reach] or [0]
        k_count = counts[int(uniform(0.0, 1.0) * len(counts))]
        time_depth = depth_total - k_count
        cuts = sorted((uniform(-time_depth, 0.0) for _ in range(k_count)), reverse=True)
        bounds = [0.0] + cuts + [-time_depth]
        tau0 = None

    segments = []
    grid = max((bounds[0] - bounds[-1]) / 60.0, 1e-4)
    for i in range(len(bounds) - 1):
        s_hi, s_lo = bounds[i], bounds[i + 1]
        m = max(2, int(np.ceil((s_hi - s_lo) / grid)) + 1)
        times = np.linspace(s_lo, s_hi, m)
        knots = np.sort([s_lo, s_hi] + [uniform(s_lo, s_hi) for _ in range(3)])
        vals = np.empty((m, n))
        for comp in range(n):
            if comp != clock:
                kv = [amp * uniform(-1.0, 1.0) for _ in range(len(knots))]
                vals[:, comp] = np.interp(times, knots, kv)
        if clock is not None:
            tau_hi = tau0 if i == 0 else period
            vals[:, clock] = tau_hi + (times - s_hi)
        if s_hi == s_lo:
            times, vals = times[:1], vals[:1]
        segments.append(ArcSegment(-i, times, vals))
    segments.reverse()
    arc = HybridMemoryArc(np.concatenate([s.times for s in segments]),
                          np.concatenate([s.values for s in segments]),
                          np.cumsum([0] + [len(s.times) for s in segments[:-1]]),
                          delta)
    return arc, f"cover:{region}{index}", pos


def _reference_systems():
    jump_free, _ = build_linear_delay_system(LinearDelayConfig(
        dimension=2, memory_size=3.0, a0=np.array([[-1.0, 0.5], [0.0, -2.0]])))
    # period 0.5 and memory size 1.7: a C arc cuts one or two jump levels
    # deep, as tau0 lies above or below 0.2
    deep_clock, _ = build_linear_delay_system(LinearDelayConfig(
        dimension=2, memory_size=1.7, a0=np.array([[-1.0, 0.5], [0.0, -2.0]]),
        jump_period=0.5, j0=np.eye(2) * 0.5))
    return _systems() + [("jump-free", jump_free), ("deep-clock", deep_clock)]


def _arc_bytes(arc):
    return [(s.jump_index, s.times.tobytes(), s.values.tobytes())
            for s in arc.memory_segments]


def _checked_bytes(arc):
    """The arc rebuilt through the checked constructor, as bytes."""
    rebuilt = HybridMemoryArc(arc.times, arc.values, arc.starts, arc.delta)
    assert (rebuilt.starts, rebuilt.n_memory, rebuilt.n) == (arc.starts, arc.n_memory, arc.n)
    return _arc_bytes(rebuilt)


def _check_against_reference(spec, sampler, region, count, streams):
    """sample(region, count) gives, byte for byte, the arcs and origins of
    the scalar reference on row i of one (count, stride) draw from the
    region's stream, which it reads exactly that far; every arc is also
    what the checked constructor builds from it, and a post-jump arc is its
    pre-jump cover arc after the jump.  Returns the arcs, each pre-jump
    arc's number of stored samples, and the uniforms each read."""
    streams.clear()
    got = sampler.sample(region, count)
    assert [key for key, _ in streams] == [("cover", region)]  # one stream a call
    stride = reference_stride(spec)
    fresh = sampler._rng("cover", region)
    rows = fresh.random((count, stride))
    assert str(streams[0][1].bit_generator.state) == str(fresh.bit_generator.state)
    assert [s.index for s in got] == list(range(count))
    sizes, read = [], []
    for s in got:
        arc, origin, used = reference_cover_arc(spec, region, rows[s.index], s.index)
        sizes.append(len(arc.times))
        read.append(used)
        if region == "Gplus":
            gs = spec.jump_selections(arc)
            arc, origin = append_jump(arc, gs[s.index % len(gs)]), origin + ":+g"
        assert s.origin == origin
        assert _arc_bytes(s.arc) == _arc_bytes(arc), (region, s.index)
        assert _checked_bytes(s.arc) == _arc_bytes(arc), (region, s.index)
    return got, sizes, read


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("name, spec", _reference_systems(),
                         ids=[name for name, _ in _reference_systems()])
def test_cover_arcs_match_the_reference_sampler(name, spec, seed, monkeypatch):
    """Byte for byte the arcs and origins of the one-uniform-at-a-time
    reference, in every region the system supports: example 1 (three free
    components), both example 2 cases, and a jump-free system (the
    unclocked branch, deep enough for every segment count).  At a budget of
    4096 stored samples a block, 400 arcs are several blocks of the array
    builder; one arc, and one more than the first 4096 samples hold, end
    the blocks unevenly."""
    budget = 4096
    monkeypatch.setattr(batch, "_BLOCK_SAMPLES", budget)
    sampler = ArcSampler(spec, seed=seed, mode="cover")
    streams = []  # each stream's key and generator, to see how far it was read
    make_rng = sampler._rng

    def recording_rng(*key):
        streams.append((key, make_rng(*key)))
        return streams[-1][1]

    sampler._rng = recording_rng
    blocks = []  # stored samples of each spline pass
    splines = sampler._splines

    def recording_splines(*levels):
        blocks.append(int(levels[2].sum()))
        return splines(*levels)

    sampler._splines = recording_splines
    regions = [r for r in ("C", "D", "Gplus") if sampler.region_supported(r)]
    assert regions == (["C"] if name == "jump-free" else ["C", "D", "Gplus"])
    levels = set()
    for region in regions:
        blocks.clear()
        got, sizes, read = _check_against_reference(spec, sampler, region, 400, streams)
        assert len(blocks) > 1 and max(blocks) <= budget
        levels.update(len(s.arc.starts) for s in got)
        assert max(read) <= reference_stride(spec)
        full = sum(r <= budget for r in accumulate(sizes))  # the first block
        assert 1 < full < 400
        for count in (1, full + 1):
            _check_against_reference(spec, sampler, region, count, streams)
        if region != "Gplus":  # each arc owns its read-only arrays (post-jump
            # arcs are cuts of append_jumps' blocks)
            arrays = [a for s in got for a in (s.arc.times, s.arc.values)]
            assert not any(a.flags.writeable for a in arrays)
            bases = {id(a if a.base is None else a.base) for a in arrays}
            assert len(bases) == len(arrays)
    if name == "jump-free":  # every entry of SEGMENT_COUNTS comes up, and
        # an arc with the most jumps reads the whole row
        assert levels == {c + 1 for c in SEGMENT_COUNTS}
        assert max(read) == reference_stride(spec)
    if name == "deep-clock":
        assert levels == {2, 3}


def _arcs_bytes(samples):
    return [(s.origin, _arc_bytes(s.arc)) for s in samples]


_ORDER_CASES = ([("cover", name, spec) for name, spec in _reference_systems()]
                + [("reachable", name, spec) for name, spec in _systems()[:2]])


@pytest.mark.parametrize("mode, name, spec", _ORDER_CASES,
                         ids=[f"{mode}-{name}" for mode, name, _ in _ORDER_CASES])
def test_arcs_are_prefixes_and_ignore_call_order(mode, name, spec):
    """sample(r, n) is a byte prefix of sample(r, m) for n < m, and drawing
    another region first leaves a region's arcs as they are: a cover arc
    reads its own row of its region's stream, and the reachable pool grows
    a trajectory at a time, each giving the windows its own length sets."""
    sampler = ArcSampler(spec, seed=4, mode=mode)
    regions = [r for r in ("C", "D", "Gplus") if sampler.region_supported(r)]
    for region in regions:
        longest = _arcs_bytes(sampler.sample(region, 150))
        for n in (1, 37, 149):
            assert _arcs_bytes(sampler.sample(region, n)) == longest[:n], (region, n)
    flows_first = ArcSampler(spec, seed=4, mode=mode)
    first_c = _arcs_bytes(flows_first.sample("C", 60))
    other = ArcSampler(spec, seed=4, mode=mode)
    for region in regions[:0:-1]:  # D and Gplus, when there are jumps
        assert _arcs_bytes(other.sample(region, 80)) \
            == _arcs_bytes(flows_first.sample(region, 80)), region
    assert _arcs_bytes(other.sample("C", 60)) == first_c


@pytest.mark.parametrize("name, spec, sims, per_trajectory", [
    ("ex1", _systems()[0][1], [7, 13, 13], 16),
    ("ex2c2", _systems()[1][1], [2, 4, 4], 51),
], ids=["ex1", "ex2c2"])
def test_reachable_pool_simulation_counts(name, spec, sims, per_trajectory):
    """Simulations run to draw 200 arcs of C, then D, then Gplus in
    ``both`` mode (100 from the pool each), and the flow windows each
    trajectory gives: one per POINTS_PER_WINDOW stored points, 332 points
    on example 1 and 1029 on example 2 case 2.  At a fixed 8 flow windows
    a trajectory the C draw alone ran 13 simulations on both systems, so
    the counts were [13, 13, 13].  Now the jumps set them: 8 a trajectory
    on example 1, 25 on example 2 case 2."""
    sampler = ArcSampler(spec, seed=0, mode="both")
    counts = []
    for region in ("C", "D", "Gplus"):
        sampler.sample(region, 200)
        counts.append(sampler._pool_sims)
    assert counts == sims
    taken = Counter(origin.partition(":flow")[0]
                    for _, origin in sampler._pool_flow_windows)
    assert len(taken) == sims[-1]
    assert set(taken.values()) == {per_trajectory}
    assert per_trajectory > MIN_FLOW_WINDOWS


# razumikhin-reachable's open-loop control: the sampler seed at each
# workload seed 1-3, and the violating arcs of 600 (28.7, 29.8 and 29.7 per
# 100) at a fixed 8 flow windows a trajectory
_OPEN_LOOP_CONTROLS = [(1740671847, 172), (201393339, 179), (63848401, 178)]


@pytest.mark.parametrize("seed, floor", _OPEN_LOOP_CONTROLS)
def test_reachable_open_loop_control_keeps_its_violation_rate(seed, floor):
    """Example 1 with K = [[0, 0]]: reachable arcs violate the nominal
    Razumikhin certificate at least as often as at a fixed 8 flow windows
    a trajectory, which drew C from more independent histories."""
    params = dataclasses.replace(Example1Params.paper(), K=[[0.0, 0.0]])
    spec, target = build_example1(params)
    cert, _ = example1_razumikhin_certificate(params)
    report = check_razumikhin(spec, cert, ArcSampler(spec, seed=seed), samples=600,
                              target=target)
    assert report.checked == 600 and _violating_arcs(report) >= floor


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reachable_enlarged_period_control_keeps_its_violation_rate(seed):
    """Example 2 with period 0.75, where rho >= exp(-sigma delta) breaks the
    jump condition: 180 of 600 reachable arcs (30.0 per 100) violate it at a
    fixed 8 flow windows a trajectory, every one in krasovskii.iii."""
    params = Example2Params(a=0.5, b=0.25, rho=0.5, r=0.05, delta=0.75,
                            sigma=2.0, mu=0.5)
    spec, target = build_example2(params)
    cert, _ = example2_krasovskii_certificate(params)
    report = check_krasovskii(spec, cert, ArcSampler(spec, seed=seed), samples=600,
                              target=target)
    assert report.checked == 600 and _violating_arcs(report) >= 180
    assert {v.condition for v in report.violations} == {"krasovskii.iii"}


def _violating_arcs(report):
    return len({(v.region, v.index) for v in report.violations})


class _Rows:
    """A stream whose every row of uniforms is ``head``, then ``cycle``
    repeated."""

    def __init__(self, head, cycle):
        self.head, self.cycle = list(head), list(cycle)

    def random(self, size):
        count, stride = size
        row = (self.head + self.cycle * stride)[:stride]
        return np.tile(np.array(row), (count, 1))


@pytest.mark.parametrize("head, cycle, region", [
    # tau0 = 0: the newest level is the one sample at s = 0
    ([0.3, 0.0, 0.5], [0.2, 0.7, 0.4, 0.1, 0.9, 0.5, 0.3, 0.6], "C"),
    # coincident knots: two at s_lo (a uniform of 0), two in between
    ([0.3, 0.4, 0.5], [0.0, 0.5, 0.5, 0.1, 0.9, 0.5, 0.3, 0.6], "C"),
    # three equal knot times, and a uniform of 0 for the clock's tau0 and cut
    ([0.8, 0.0, 0.0], [0.25, 0.25, 0.25, 0.9, 0.1, 0.0, 0.7, 0.2], "C"),
    ([0.8, 0.0], [0.0, 0.0, 0.75, 0.9, 0.1, 0.0, 0.7, 0.2], "D"),
])
def test_cover_arcs_match_the_reference_on_edge_draws(head, cycle, region):
    """np.interp's zero-width intervals and a one-sample level, forced by
    chosen rows of uniforms on example 2 case 2, give the reference's
    bytes, and the checked constructor's."""
    spec, _ = build_example2(Example2Params.case2())
    sampler = ArcSampler(spec, seed=0, mode="cover")
    sampler._rng = lambda *key: _Rows(head, cycle)
    got = sampler.sample(region, 3)
    rows = _Rows(head, cycle).random((3, reference_stride(spec)))
    for s in got:
        arc, origin, _ = reference_cover_arc(spec, region, rows[s.index], s.index)
        assert s.origin == origin
        assert _arc_bytes(s.arc) == _arc_bytes(arc)
        assert _checked_bytes(s.arc) == _arc_bytes(arc)
    if head[1] == 0.0 and region == "C":
        assert len(got[0].arc.memory_segments[-1].times) == 1
