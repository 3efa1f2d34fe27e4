"""Domain, arc, and window-operator tests."""

import copy
import dataclasses
import io
import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hymem import batch, solver
from hymem.batch import append_jumps, memory_windows
from hymem.builtin import example1_razumikhin_certificate
from hymem.hybrid_time import (TIME_TOL, ArcSegment, BatchView, DomainError,
                               History, HybridArc, HybridMemoryArc,
                               InsufficientHistoryError,
                               _blend, _interpolate, _pairs,
                               append_jump,
                               arc_from_csv, arc_to_csv, constant_memory_arc,
                               delayed_sq_integral, delta_inf,
                               memory_arc_from_function, memory_window,
                               sup_norm_w, validate_domain, vbar)
from hymem.sampling import ArcSampler
from hymem.solver import SimOptions, _rk4, flow_window, flow_windows, simulate
from hymem.system import (Example1Params, Example2Params, build_example1,
                          build_example2, build_linear_delay_system,
                          parse_linear_delay_config)


def row_loop(fn):
    """The array form of a map written for one state: fn row by row, as
    the window maximum takes it."""
    return lambda arr: np.array([fn(x) for x in arr])


def seg(j, times, values):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    return ArcSegment(j, np.asarray(times, dtype=float), values)


def store(memory, forward=()):
    """The store arguments (times, values, starts, n_memory, derivs, known)
    of level records, memory levels first.  A level's jump index must be its
    position; a level without derivatives gets zeros, flagged unknown."""
    levels = list(memory) + list(forward)
    assert [s.jump_index for s in levels] == \
        [*range(1 - len(memory), 1), *range(len(forward))]
    derivs = known = None
    if any(s.derivs is not None for s in levels):
        derivs = np.concatenate([np.zeros_like(s.values) if s.derivs is None
                                 else s.derivs for s in levels])
        known = np.concatenate([np.full(len(s.times), s.derivs is not None)
                                for s in levels])
    starts = np.cumsum([0] + [len(s.times) for s in levels[:-1]]).tolist()
    return (np.concatenate([s.times for s in levels]),
            np.concatenate([s.values for s in levels]), starts, len(memory),
            derivs, known)


def arc_of(memory, forward=(), interpolation="linear"):
    """The checked arc on the store of the level records."""
    return HybridArc(*store(memory, forward), interpolation)


def memory_arc_of(levels, delta, interpolation="linear"):
    """The checked memory arc of size delta on the store of the levels."""
    times, values, starts, _, derivs, known = store(levels)
    return HybridMemoryArc(times, values, starts, delta, derivs, known,
                           interpolation)


def unchecked(memory, forward=(), interpolation="linear", delta=None):
    """The arc of the level records with none of the constructor's checks:
    a memory arc when delta is given.  For data no constructor accepts."""
    cls = HybridArc if delta is None else HybridMemoryArc
    return cls._of(*store(memory, forward), interpolation=interpolation,
                   delta=delta)


def decay_arc(t_end=1.0, n=101, history_span=None):
    """Closed-form arc of dx = -x from x(0) = 1, optional constant history."""
    ts = np.linspace(0.0, t_end, n)
    fwd = [seg(0, ts, np.exp(-ts))]
    mem = []
    if history_span is not None:
        ms = np.linspace(-history_span, 0.0, 21)
        mem = [seg(0, ms, np.ones_like(ms))]
    return arc_of(mem, fwd)


def spans(*triples):
    """Segments on (lo, hi, j) spans: two samples each, one where lo == hi."""
    return [seg(j, [lo, hi], [1.0, 1.0]) if hi > lo else seg(j, [lo], [1.0])
            for lo, hi, j in triples]


class TestValidateDomain:
    """The domain clauses on an arc's store, and as the constructor's
    ValueError.  Jump indices are store positions, so only the CSV reader,
    where outside data brings them in, checks them."""

    JUMP_INDICES = ("invalid hybrid time domain: jump indices must increment "
                    "by exactly 1")

    @staticmethod
    def violated(memory, forward):
        """The clause validate_domain names on the unchecked arc, after
        checking that the constructor raises it."""
        msg = validate_domain(unchecked(spans(*memory), spans(*forward)))
        with pytest.raises(ValueError, match=f"invalid hybrid time domain: {msg}"):
            arc_of(spans(*memory), spans(*forward))
        return msg

    def test_minimal_two_segment_domain(self):
        arc = arc_of(spans((0.0, 0.0, 0)), spans((0.0, 1.0, 0), (1.0, 2.0, 1)))
        assert validate_domain(arc) is None

    def test_overlapping_forward_segments(self):
        assert self.violated([], [(0.0, 1.0, 0), (0.5, 2.0, 1)]) == \
            "segments must share boundary time"

    def test_example1_memory_window_domain(self):
        # one-segment history reaching the measurement delay r = 0.01
        arc = arc_of(spans((-0.01, 0.0, 0)), spans((0.0, 0.2, 0), (0.2, 0.4, 1)))
        assert validate_domain(arc) is None

    def test_forward_must_start_at_zero(self):
        assert self.violated([], [(0.5, 1.0, 0)]) == "forward domain must start at t = 0"

    def test_jump_index_gap(self):
        with pytest.raises(ValueError, match=self.JUMP_INDICES):
            arc_from_csv("0.0,0,1.0\n1.0,0,1.0\n1.0,2,1.0\n2.0,2,1.0\n")

    # the reader puts the first row at (0, 0) on memory level 0, so a
    # memory side always ends at j = 0
    @pytest.mark.parametrize("text", [
        "0.5,1,1.0\n1.0,1,1.0\n",
        "-1.0,-2,1.0\n-0.5,-2,1.0\n-0.5,0,1.0\n0.0,0,1.0\n",
        "-1.0,0,1.0\n0.0,0,1.0\n0.0,0,1.0\n1.0,0,1.0\n1.0,2,1.0\n2.0,2,1.0\n",
    ], ids=["forward-start", "memory-gap", "forward-gap"])
    def test_jump_indices_are_level_positions(self, text):
        with pytest.raises(ValueError, match=self.JUMP_INDICES):
            arc_from_csv(text)

    def test_memory_must_end_at_zero(self):
        assert self.violated([(-1.0, -0.5, 0)], []) == "memory domain must end at t = 0"


def stored_value(arc, t, j):
    """The value stored at time t on the memory arc's level of jump index j,
    read from that level's stored arrays."""
    a, b = arc.levels()[arc.n_memory - 1 + j]
    i = a + int(np.searchsorted(arc.times[a:b], t))
    assert i < b and arc.times[i] == t, (t, j)
    return arc.values[i]


class TestArcValue:
    def test_endpoint_sample(self):
        arc = decay_arc()
        assert arc.value(0.0)[0] == 1.0

    def test_interior_against_closed_form(self):
        arc = decay_arc()
        # linear interpolation on a 0.01 grid of e^-t is accurate to ~1.25e-5
        assert arc.value(0.5)[0] == pytest.approx(np.exp(-0.5), abs=2e-5)

    def test_off_domain_raises(self):
        arc = decay_arc(history_span=0.5)
        with pytest.raises(DomainError, match="after the stored history"):
            arc.value(1.5)
        with pytest.raises(DomainError, match="precedes all stored history"):
            arc.value(-0.6)
        for t, j in [(1.5, 0), (0.5, -1), (0.5, 1)]:
            with pytest.raises(DomainError, match="not in the arc domain"):
                memory_windows(arc, [(t, j)], 0.5)

    def test_hermite_beats_linear(self):
        ts = np.linspace(0.0, 1.0, 11)
        vals = np.exp(-ts).reshape(-1, 1)
        derivs = (-np.exp(-ts)).reshape(-1, 1)
        lin = HybridArc(ts, vals, [0], 0, interpolation="linear")
        her = HybridArc(ts, vals, [0], 0, derivs, interpolation="hermite")
        x = 0.55
        assert abs(her.value(x)[0] - np.exp(-x)) < \
            abs(lin.value(x)[0] - np.exp(-x)) / 50


def _memory_arc(times, values, derivs):
    return HybridMemoryArc(times, values, [0], 0.5, derivs)


def _plain_arc(times, values, derivs):
    return HybridArc(times, values, [0], 1, derivs)


class TestConstructorRejections:
    """The public constructors reject a malformed store with a message that
    names the violated rule."""

    @pytest.mark.parametrize("build", [_plain_arc, _memory_arc],
                             ids=["HybridArc", "HybridMemoryArc"])
    @pytest.mark.parametrize("times, values, derivs, message", [
        ([-1.0, -0.2, -0.5, 0.0], np.zeros((4, 1)), None,
         "strictly increasing"),
        ([-1.0, -0.5, -0.5, 0.0], np.zeros((4, 1)), None,
         "strictly increasing"),
        (np.array([]), np.zeros((0, 1)), None, "at least one sample"),
        ([-1.0, -0.5, 0.0], np.zeros((2, 1)), None,
         r"times of shape \(m,\) and values of shape \(m, n\)"),
        ([-1.0, -0.5, 0.0], np.zeros((3, 1)), np.zeros((2, 1)),
         "derivative samples must match value samples in shape"),
        (0.0, [1.0], None,
         r"times of shape \(m,\) and values of shape \(m, n\)"),
        ([-np.inf, 0.0], np.zeros((2, 1)), None,
         "invalid hybrid time domain: interval endpoints must be finite"),
        ([0.0, np.inf], np.zeros((2, 1)), None,
         "invalid hybrid time domain: interval endpoints must be finite"),
        ([np.nan], np.zeros((1, 1)), None,
         "invalid hybrid time domain: interval endpoints must be finite"),
        ([np.nan, 0.0], np.zeros((2, 1)), None, "strictly increasing"),
    ], ids=["decreasing", "duplicate", "empty", "values-shape", "derivs-shape",
            "scalar-times", "minus-inf-start", "plus-inf-end", "lone-nan",
            "nan-start"])
    def test_segment_checks(self, build, times, values, derivs, message):
        with pytest.raises(ValueError, match=message):
            build(times, values, derivs)

    @pytest.mark.parametrize("starts, n_memory, known, message", [
        ([], 0, None, "an arc has at least one segment"),
        ([1], 1, None, r"starts \[1\] must begin at 0"),
        ([0, 2, 2], 1, None, "each segment at least one sample"),
        ([0, 4], 1, None, "each segment at least one sample"),
        ([0, 2], 3, None, r"n_memory 3 must lie in \[0, 2\]"),
        ([0, 2], -1, None, r"n_memory -1 must lie in \[0, 2\]"),
        ([0, 2], 1, [True, False], "derivative samples must match"),
        ([0, 2], 1, [True] * 4, "derivative samples must match"),
    ], ids=["no-level", "late-start", "empty-level", "past-the-end",
            "too-many-memory", "negative-memory", "known-shape", "known-alone"])
    def test_store_checks(self, starts, n_memory, known, message):
        times, values = [-1.0, 0.0, 0.0, 1.0], np.ones((4, 1))
        derivs = None if known == [True] * 4 else np.ones((4, 1))
        with pytest.raises(ValueError, match=message):
            HybridArc(times, values, starts, n_memory, derivs, known)
        # the same store with a valid layout passes
        HybridArc(times, values, [0, 2], 1, np.ones((4, 1)), [True, False, True, True])

    def test_unknown_interpolation(self):
        with pytest.raises(ValueError, match="unknown interpolation scheme 'cubic'"):
            HybridArc([0.0, 1.0], [[1.0], [1.0]], [0], 0, interpolation="cubic")

    def test_invalid_domain(self):
        with pytest.raises(ValueError, match="invalid hybrid time domain: "
                                             "forward domain must start at t = 0"):
            HybridArc([0.5, 1.0], [[1.0], [1.0]], [0], 0)

    def test_negative_delta(self):
        # NaN once passed: both membership clauses compare False on it
        for delta in (-0.1, np.nan):
            with pytest.raises(ValueError, match="delta must be nonnegative"):
                HybridMemoryArc([-1.0, 0.0], [[1.0], [1.0]], [0], delta)
            with pytest.raises(ValueError, match="delta must be nonnegative"):
                arc_from_csv("-1.0,0,1.0\n0.0,0,1.0\n", delta=delta)

    def test_window_deeper_than_delta_plus_one(self):
        with pytest.raises(ValueError, match=r"reaches s \+ k = -2.5 < -delta - 1"):
            HybridMemoryArc([-2.5, 0.0], [[1.0], [1.0]], [0], 1.0)

    def test_window_shallower_than_delta(self):
        with pytest.raises(ValueError, match=r"only reaches s \+ k = -0.2; "
                                             r"some point must satisfy"):
            HybridMemoryArc([-0.2, 0.0], [[1.0], [1.0]], [0], 0.5)

    def test_nan_interior_time(self):
        # np.diff(times) <= 0 is False at a NaN, so this once passed
        with pytest.raises(ValueError, match="strictly increasing"):
            HybridArc([0.0, np.nan, 1.0], [[1.0], [2.0], [3.0]], [0], 0)

    def test_levels_may_share_a_time(self):
        # only times within a level must rise: the memory side's last
        # sample and the forward side's first share t = 0
        arc = HybridArc([-1.0, 0.0, 0.0, 1.0], np.ones((4, 1)), [0, 2], 1)
        assert arc.levels() == [(0, 2), (2, 4)]

    def test_the_arrays_are_copied(self):
        # the arc's arrays are read-only; the caller's stay writable
        times, values = np.array([-1.0, 0.0]), np.ones((2, 1))
        phi = HybridMemoryArc(times, values, [0], 0.5)
        times[0] = values[0, 0] = 7.0
        assert phi.times[0] == -1.0 and phi.values[0, 0] == 1.0
        assert not phi.times.flags.writeable

    @pytest.mark.parametrize("build, kwargs, message", [
        (constant_memory_arc, {"grid_step": 0.0}, "grid_step must be positive"),
        (constant_memory_arc, {"grid_step": -0.1}, "grid_step must be positive"),
        (memory_arc_from_function, {"grid_step": 0.0}, "grid_step must be positive"),
        (memory_arc_from_function, {"grid_step": -0.1},
         "grid_step must be positive"),
        (memory_arc_from_function, {"grid_step": np.nan},
         "grid_step must be positive and finite, got nan"),
        (constant_memory_arc, {"grid_step": np.inf}, "grid_step must be positive"),
        (constant_memory_arc, {"depth": np.nan}, "depth must be finite, got nan"),
        (memory_arc_from_function, {"depth": np.nan}, "depth must be finite"),
        (memory_arc_from_function, {"depth": np.inf}, "depth must be finite"),
    ], ids=["constant-zero-step", "constant-negative-step", "function-zero-step",
            "function-negative-step", "nan-step", "inf-step", "constant-nan-depth",
            "function-nan-depth", "inf-depth"])
    def test_bad_grid_arguments(self, build, kwargs, message):
        # they once raised ZeroDivisionError, built a two-sample arc, or
        # could not convert NaN to an integer
        first = np.ones(1) if build is constant_memory_arc else lambda s: np.ones(1)
        with pytest.raises(ValueError, match=message):
            build(first, 0.5, **kwargs)

    @pytest.mark.parametrize("text, delta", [
        ("-1.0,0,1.0\n-0.5,0,2.0\n-0.5,0,3.0\n0.0,0,4.0\n", 0.5),
        ("0.0,0,1.0\n0.5,0,2.0\n0.5,0,3.0\n1.0,0,4.0\n", None),
    ], ids=["memory-side", "forward-side"])
    def test_csv_with_duplicate_rows(self, text, delta):
        with pytest.raises(ValueError, match="strictly increasing"):
            arc_from_csv(text, delta=delta)


def brute_force_delta_inf(arc, t, j, delta, grid=2e-4):
    """Scan achievable s+k values on a fine grid."""
    best = np.inf
    for s in arc.all_segments():
        if s.jump_index > j:
            continue
        hi = min(s.hi, t)
        if hi < s.lo:
            continue
        k = s.jump_index - j
        for u in np.arange(s.lo, hi + grid / 2, grid):
            d = -(min(u, hi) - t + k)
            if d >= delta - 1e-12:
                best = min(best, d)
    return best


class TestDeltaInf:
    def test_continuous_coverage(self):
        arc = decay_arc(history_span=1.21)
        # achievable s+k at (0,0) covers [-1.21, 0]
        assert delta_inf(arc, 0.0, 0, 0.21) == pytest.approx(0.21, abs=1e-12)

    def test_gap_jumps_to_next_interval(self):
        # achievable s+k values {0} u [-2, -1]: memory jump right at 0
        mem = [seg(-1, np.linspace(-1.0, 0.0, 11), np.zeros(11)),
               seg(0, [0.0], [0.0])]
        arc = arc_of(mem, [])
        assert delta_inf(arc, 0.0, 0, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_zero_delta_single_point(self):
        arc = arc_of([seg(0, [0.0], [3.0])], [])
        assert delta_inf(arc, 0.0, 0, 0.0) == 0.0

    def test_insufficient_history(self):
        arc = decay_arc(history_span=0.3)
        with pytest.raises(InsufficientHistoryError):
            delta_inf(arc, 0.0, 0, 2.0)

    def test_matches_brute_force_on_random_domains(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            arc = _random_solution_like_arc(rng)
            t_seg = arc.forward_segments[-1]
            t, j = t_seg.hi, t_seg.jump_index
            delta = rng.uniform(0.0, 1.2)
            try:
                exact = delta_inf(arc, t, j, delta)
            except InsufficientHistoryError:
                assert brute_force_delta_inf(arc, t, j, delta) == np.inf
                continue
            approx = brute_force_delta_inf(arc, t, j, delta)
            assert exact == pytest.approx(approx, abs=5e-4)


def _random_solution_like_arc(rng, max_jumps=3):
    """Valid hybrid arc with a random domain and random sampled values."""
    mem_depth = rng.uniform(0.05, 1.0)
    ms = np.linspace(-mem_depth, 0.0, 9)
    mem = [seg(0, ms, rng.normal(size=(9, 1)))]
    fwd = []
    t0 = 0.0
    n_jumps = int(rng.integers(0, max_jumps + 1))
    for j in range(n_jumps + 1):
        span = rng.uniform(0.05, 0.8)
        ts = np.linspace(t0, t0 + span, 7)
        fwd.append(seg(j, ts, rng.normal(size=(7, 1))))
        t0 += span
    return arc_of(mem, fwd)


class TestMemoryWindow:
    @pytest.mark.parametrize("t, j", [(0.9, 0), (0.2, 1), (5.0, 2), (-0.2, 1),
                                      (0.3, -1)])
    def test_point_outside_the_domain_raises(self, t, j):
        # level 0 ends at t = 0.5, level 1 starts there, level 2 ends at 1.2
        spec, _ = build_example2(Example2Params(a=-0.5, b=0.25, rho=0.5,
                                                r=0.25, delta=0.5))
        init = constant_memory_arc(np.array([1.0, 0.0]), spec.memory_size,
                                   depth=spec.memory_size)
        arc = simulate(spec, init, SimOptions(t_max=1.2, step=0.01)).arc
        with pytest.raises(DomainError, match=f"point \\(t={t}, j={j}\\) is "
                                              "not in the arc domain"):
            memory_window(arc, t, j, spec.memory_size)
        memory_window(arc, 0.5, 0, spec.memory_size)
        memory_window(arc, 0.5 + 1e-13, 0, spec.memory_size)
        memory_window(arc, 0.0, 0, spec.memory_size)

    def test_window_and_memory_side_are_read_only(self):
        # a cut shares the arc's arrays, so a write into it would change the
        # trajectory it came from
        spec, _ = build_example2(Example2Params(a=-0.5, b=0.25, rho=0.5,
                                                r=0.25, delta=0.5))
        init = constant_memory_arc(np.array([1.0, 0.0]), spec.memory_size)
        traj = simulate(spec, init, SimOptions(t_max=1.2, step=0.01))
        window = memory_window(traj.arc, 0.3, 0, spec.memory_size)
        side = traj.arc.memory_side(traj.memory_size)
        for rows in (window.head, window.values, side.values, side.times,
                     side.head, traj.arc.values):
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 7.0

    def test_memory_side_needs_one(self):
        with pytest.raises(ValueError, match="arc has no memory side"):
            decay_arc().memory_side(0.0)

    def test_identity_at_origin(self):
        arc = decay_arc(history_span=1.0)
        w = memory_window(arc, 0.0, 0, 1.0)
        assert w.head[0] == 1.0
        assert w.times[0] == pytest.approx(-1.0)

    def test_constant_arc_windows_are_constant(self):
        mem = [seg(0, np.linspace(-1.5, 0, 16), np.full(16, 2.5))]
        fwd = [seg(0, np.linspace(0, 2, 21), np.full(21, 2.5))]
        arc = arc_of(mem, fwd)
        w = memory_window(arc, 1.3, 0, 1.0)
        for s in w.memory_segments:
            assert np.all(s.values == 2.5)

    def test_flow_with_history_window(self):
        # dx = -x flowed from constant history 1.0; window at t = 0.5, delta = 1
        ts = np.linspace(0.0, 1.0, 201)
        fwd = [seg(0, ts, np.exp(-ts))]
        mem = [seg(0, np.linspace(-1.0, 0.0, 41), np.ones(41))]
        arc = arc_of(mem, fwd)
        w = memory_window(arc, 0.5, 0, 1.0)
        for s_q in (-0.2, -0.45):
            assert w.delayed(s_q)[0] == pytest.approx(np.exp(-(0.5 + s_q)), abs=1e-4)
        for s_q in (-0.7, -0.95):
            assert w.delayed(s_q)[0] == 1.0

    def test_membership_propagates_along_solutions(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            arc = _random_solution_like_arc(rng)
            delta = rng.uniform(0.0, arc.memory_segments[0].hi
                                - arc.memory_segments[0].lo)
            for s in arc.forward_segments:
                t = rng.uniform(s.lo, s.hi)
                w = memory_window(arc, t, s.jump_index, delta)
                assert w.membership_violation() is None


class TestSupNormAndVbar:
    def test_zero_arc(self):
        phi = constant_memory_arc(np.zeros(2), 0.5)
        assert sup_norm_w([phi], row_loop(np.linalg.norm)).tolist() == [0.0]

    def test_ramp(self):
        phi = memory_arc_of([seg(0, np.linspace(-1, 0, 11),
                                   np.linspace(-1, 0, 11))], 0.0)
        assert sup_norm_w([phi], row_loop(np.linalg.norm))[0] == pytest.approx(1.0)
        assert vbar([phi], row_loop(lambda z: z[0] ** 2))[0] == pytest.approx(1.0)

    def test_constant_arc_vbar_equals_value(self):
        phi = constant_memory_arc(np.array([3.0]), 0.7)
        assert vbar([phi], row_loop(lambda z: abs(z[0]))).tolist() == [3.0]

    def test_piecewise_max_across_jump_levels(self):
        phi = memory_arc_of(
            [seg(-1, [-1.0, -0.4], [2.0, 2.0]), seg(0, [-0.4, 0.0], [0.5, 0.5])],
            1.0)
        assert vbar([phi], row_loop(lambda z: abs(z[0]))).tolist() == [2.0]

    def test_vbar_dominates_head(self):
        rng = np.random.default_rng(5)
        windows = []
        for _ in range(20):
            arc = _random_solution_like_arc(rng)
            windows.append(memory_window(arc, arc.forward_segments[0].hi, 0, 0.02))
        v = lambda z: float(z[0] ** 2 + 0.3 * abs(z[0]))
        for w, vb in zip(windows, vbar(windows, row_loop(v))):
            assert vb >= v(w.head) - 1e-12

    def test_refinement_finds_interior_peak(self):
        # V peaks strictly inside a sampling interval
        phi = memory_arc_of([seg(0, [-1.0, 0.0], [-1.0, 1.0])], 0.0)
        got = vbar([phi], row_loop(lambda z: 1.0 - z[0] ** 2))
        assert got[0] == pytest.approx(1.0, abs=1e-6)

    def test_monotone_under_extension(self):
        base = memory_arc_of([seg(0, np.linspace(-0.5, 0, 6),
                                    np.linspace(0.2, 0.7, 6))], 0.4)
        ext = memory_arc_of([seg(0, np.linspace(-0.9, 0, 10),
                                   np.concatenate([np.full(4, 0.9),
                                                   np.linspace(0.2, 0.7, 6)]))],
                              0.4)
        f = lambda z: abs(z[0])
        got_ext, got_base = sup_norm_w([ext, base], row_loop(f))
        assert got_ext >= got_base

    @staticmethod
    def two_levels(oldest, newest):
        return memory_arc_of([seg(-1, [-1.0, -0.5], oldest),
                                seg(0, [-0.5, -0.25, 0.0], newest)], 1.0)

    @pytest.mark.parametrize("oldest, newest, level", [
        ([np.nan, np.nan], [0.1, 0.2, 0.3], -1),
        ([0.1, 0.2], [0.1, np.nan, 0.3], 0),
    ], ids=["oldest-level", "newest-level"])
    @pytest.mark.parametrize("batch", [False, True], ids=["pointwise", "batch"])
    def test_nan_at_a_stored_sample_raises(self, oldest, newest, level, batch):
        # max(best, nan) keeps best: a NaN window used to read 0.3 here
        phi = self.two_levels(oldest, newest)
        fn = (lambda arr: np.abs(arr[:, 0])) if batch else row_loop(lambda z: abs(z[0]))
        with pytest.raises(DomainError, match=f"NaN on jump level {level}$"):
            sup_norm_w([phi], fn)

    @pytest.mark.parametrize("batch", [False, True], ids=["pointwise", "batch"])
    def test_nan_at_a_refined_midpoint_raises(self, batch):
        # fn is NaN only at the midpoint value 0.25 of the newest level
        phi = self.two_levels([0.1, 0.2], [0.0, 0.5, 1.0])

        def fn(z):
            return np.nan if z[0] == 0.25 else abs(z[0])

        def array_fn(arr):
            return np.where(arr[:, 0] == 0.25, np.nan, np.abs(arr[:, 0]))

        with pytest.raises(DomainError, match="NaN on jump level 0$"):
            sup_norm_w([phi], array_fn if batch else row_loop(fn))

    def test_minus_infinity_is_a_value_below_the_maximum(self):
        phi = self.two_levels([0.1, 0.2], [0.1, 0.2, 0.3])
        got = sup_norm_w([phi], row_loop(lambda z: -np.inf if z[0] < 0.3 else 0.3))
        assert got.tolist() == [0.3]

    @pytest.mark.parametrize("batch", [False, True], ids=["pointwise", "batch"])
    def test_plus_infinity_is_the_maximum(self, batch):
        # an infinite maximum used to raise "window is empty above the depth floor"
        phi = HybridMemoryArc([-1.0, 0.0], [[np.inf], [1.0]], [0], 0.0)
        fn = (lambda arr: np.abs(arr[:, 0])) if batch else row_loop(lambda z: abs(z[0]))
        assert sup_norm_w([phi], fn).tolist() == [np.inf]

    def test_window_below_its_floor_raises(self):
        # only unchecked arcs can lie wholly below s + k = -delta - 1
        deep = unchecked([seg(-1, [-3.0, -2.5], [1.0, 1.0]),
                          seg(0, [-2.5], [2.0])], delta=0.5)
        ok = constant_memory_arc(np.array([1.0]), 0.5)
        with pytest.raises(DomainError, match="window 1 is empty above the depth floor"):
            sup_norm_w([ok, deep], row_loop(lambda z: abs(z[0])))


class TestAppendJump:
    def test_single_point(self):
        phi = memory_arc_of([seg(0, [0.0], [4.0])], 0.0)
        psi = append_jump(phi, np.array([7.0]))
        assert psi.head[0] == 7.0
        assert stored_value(psi, 0.0, -1)[0] == 4.0

    def test_shift_identity_exact(self):
        rng = np.random.default_rng(11)
        arc = _random_solution_like_arc(rng)
        w = memory_window(arc, arc.forward_segments[-1].hi,
                          arc.forward_segments[-1].jump_index, 0.03)
        g = np.array([13.0])
        psi = append_jump(w, g)
        assert psi.head[0] == 13.0
        for s in w.memory_segments:
            for t, v in zip(s.times, s.values):
                if t + s.jump_index - 1 < -w.delta - 1 - 1e-12:
                    continue
                assert stored_value(psi, t, s.jump_index - 1)[0] == v[0]

    def test_truncation_keeps_membership(self):
        phi = memory_arc_of([seg(0, np.linspace(-1.5, 0, 31),
                                   np.linspace(5, 1, 31))], 0.5)
        psi = append_jump(phi, np.array([0.0]))
        assert psi.membership_violation() is None
        # brute-force: every retained point obeys the depth floor
        for s in psi.memory_segments:
            assert np.all(s.times + s.jump_index >= -psi.delta - 1 - 1e-12)


class TestDelayedValue:
    def test_continuous_history(self):
        phi = memory_arc_from_function(lambda s: np.array([np.cos(s)]), 1.0)
        assert phi.delayed(-0.3)[0] == pytest.approx(np.cos(0.3), abs=1e-4)

    def test_post_jump_value_wins(self):
        phi = memory_arc_of(
            [seg(-1, [-0.6, -0.2], [1.0, 1.0]), seg(0, [-0.2, 0.0], [0.5, 0.5])],
            0.9)
        assert phi.delayed(-0.2)[0] == 0.5

    def test_too_old_raises(self):
        phi = constant_memory_arc(np.array([1.0]), 0.5)
        with pytest.raises(DomainError):
            phi.delayed(-2.0)


def _reset_trajectory(interpolation="linear"):
    """example2 with dyadic data across three resets.

    Step, delay, reset period and history grid are multiples of 1/64, so
    every stored time, every jump time and the grid s = -delta + i/128 are
    exact binary fractions.  Shifting times by t, as memory_window does, is
    then exact and its reads must agree with the view's bit for bit.  The
    history carries no derivative samples; the forward samples do.
    """
    spec, _ = build_example2(Example2Params(a=-0.5, b=0.25, rho=0.5, r=0.25,
                                            delta=0.5))
    init = memory_arc_from_function(
        lambda s: np.array([np.cos(3 * s), 0.0]), spec.memory_size,
        depth=spec.memory_size + 0.5, grid_step=1 / 64)
    init = HybridMemoryArc(init.times, init.values, init.starts, init.delta,
                           interpolation=interpolation)
    return simulate(spec, init, SimOptions(t_max=2.0, step=1 / 64))


def _example1_trajectory():
    """example1 (paper parameters) from a constant history over 1.5 units."""
    spec, _ = build_example1(Example1Params.paper())
    init = constant_memory_arc(np.array([0.5, -0.3, 0.2, 0.0]), spec.memory_size,
                               depth=spec.memory_size + 0.5, grid_step=0.02)
    return simulate(spec, init, SimOptions(t_max=1.5, step=5e-3))


class TestHistory:
    def test_reads_match_memory_window(self):
        # linear, and Hermite with derivatives on the forward samples only:
        # a window joining the two sides of level 0 reads each side's way
        for interpolation in ("linear", "hermite"):
            traj = _reset_trajectory(interpolation)
            delta = traj.memory_size
            assert [t for t, _ in traj.jumps] == [0.5, 1.0, 1.5]
            hist = History([traj.arc], delta)
            grid = -delta + np.arange(int(delta * 128) + 1) / 128
            index = hist.starts[hist.n_memory]
            reads = 0
            for t, j, _ in traj.sample_points():
                view = hist.view(index)
                window = memory_window(traj.arc, t, j, delta)
                assert np.array_equal(view.head, window.head)
                # shared jump-boundary times read the post-jump value
                boundaries = [tj - t for tj, _ in traj.jumps if tj <= t]
                for s in np.concatenate([grid, boundaries]):
                    if s < window.times.item(0):
                        continue
                    got, want = view.delayed(float(s)), window.delayed(float(s))
                    assert got.tobytes() == want.tobytes(), (t, j, s)
                    reads += 1
                index += 1
            assert reads > 5000

    def test_hermite_window_reads_the_forward_derivatives(self):
        # dx = -x(t - 1/2) from a history without derivative samples: the
        # window at (0.3, 0) reads s = -0.05 on the forward samples, Hermite
        # as the view does, not linearly as the history side would
        cfg, _ = parse_linear_delay_config({
            "dimension": 1, "memory_size": 0.5,
            "flow": {"A0": [[0.0]], "delayed": [{"delay": 0.5, "A": [[-1.0]]}]}})
        spec, _ = build_linear_delay_system(cfg)
        init = memory_arc_from_function(lambda s: np.array([np.cos(3 * s)]), 0.5)
        init = HybridMemoryArc(init.times, init.values, init.starts, 0.5,
                               interpolation="hermite")
        traj = simulate(spec, init, SimOptions(t_max=0.6, step=0.1))
        hist = History([traj.arc], 0.5)
        view = hist.view(hist.starts[hist.n_memory] + 3)
        window = memory_window(traj.arc, 0.3, 0, 0.5)
        assert window.delayed(-0.05)[0] == pytest.approx(view.delayed(-0.05)[0],
                                                         abs=1e-12)
        linear = HybridMemoryArc(window.times, window.values, window.starts, 0.5,
                                 interpolation="hermite")  # no derivatives
        assert abs(linear.delayed(-0.05)[0] - view.delayed(-0.05)[0]) > 1e-4

    def test_provisional_point_extends_linearly(self):
        traj = _reset_trajectory()
        hist = History([traj.arc], traj.memory_size)
        view = hist.view(hist.n - 40)
        dt, x = 0.01, np.array([0.3, 0.7])
        stage = view.extend(dt, x)
        assert stage.head is x
        assert stage.delta == view.delta
        for s in (0.0, -0.002, -0.0075, -dt):
            w = (dt + s) / dt
            want = (1 - w) * view.head + w * x
            assert stage.delayed(s).tobytes() == want.tobytes()
        for s in (-0.0101, -0.2, -1.0):
            assert stage.delayed(s).tobytes() == view.delayed(dt + s).tobytes()

    def test_growth_keeps_every_sample(self):
        phi = constant_memory_arc(np.array([1.0, -1.0]), 0.5)
        hist = History([phi], phi.delta, room=2)
        hist.start_segment(0.0, np.array([0.0, 0.0]))
        for i in range(1, 1000):
            hist.append(i / 100, np.array([i, -i], dtype=float))
            if i % 250 == 0:
                hist.start_segment(i / 100, np.array([-i, i], dtype=float))
        assert hist.times.shape[0] >= 1003
        arc = hist.to_arc()
        assert _samples(arc)[0] == _samples(phi)[0]
        assert [s.jump_index for s in arc.forward_segments] == [0, 1, 2, 3]
        for s in arc.forward_segments:
            i = np.round(s.times * 100)
            assert np.array_equal(i, np.arange(i[0], i[-1] + 1))
            assert np.array_equal(s.values[1:, 0], i[1:])
            assert np.array_equal(s.values[:, 1], -s.values[:, 0])
        assert arc.forward_segments[-1].times[-1] == 9.99
        # a reset instant reads its post-jump value, an earlier time the line
        assert hist.value(2.5)[0] == -250.0
        assert hist.value(2.495)[0] == pytest.approx(249.5)
        assert hist.value(-0.25)[1] == -1.0

    def test_reads_never_see_later_samples(self):
        traj = _reset_trajectory()
        hist = History([traj.arc], traj.memory_size)
        view = hist.view(hist.starts[hist.n_memory] + 10)
        assert view.delayed(0.0).tobytes() == view.head.tobytes()
        with pytest.raises(DomainError):
            hist.value(float(hist.times[hist.n - 1]) + 1.0)
        with pytest.raises(InsufficientHistoryError):
            view.delayed(-5.0)


class TestDelayedSquareIntegral:
    def test_constant(self):
        phi = constant_memory_arc(np.array([2.0]), 1.0)
        assert delayed_sq_integral([phi], -0.5, 0.0)[0] == pytest.approx(2.0)

    def test_linear_ramp_exact(self):
        phi = memory_arc_of([seg(0, np.linspace(-1, 0, 5),
                                   np.linspace(-1, 0, 5))], 0.0)
        # integral of s^2 over [-1, 0] = 1/3, Simpson exact on quadratics
        assert delayed_sq_integral([phi], -1.0, 0.0)[0] == pytest.approx(1.0 / 3.0,
                                                                    abs=1e-14)

    def test_component_restriction(self):
        vals = np.column_stack([np.full(5, 2.0), np.full(5, 9.0)])
        phi = HybridMemoryArc(np.linspace(-1, 0, 5), vals, [0], 0.0)
        assert delayed_sq_integral([phi], -1.0, 0.0,
                                   components=slice(0, 1))[0] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# Array paths against the pointwise code they replaced
# ---------------------------------------------------------------------------

def _interpolate_loop(times, values, derivs, ts, scheme):
    """One pointwise interpolation per query time."""
    return np.array([_interpolate(times, values, derivs, t, scheme) for t in ts])


def _interpolate_array(times, values, derivs, ts, scheme):
    """_blend at every time of ts in its bracket, held constant past either
    end, as the batch reads and the window maximum use it."""
    i = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, times.shape[0] - 2)
    out = _blend(times, values, derivs if scheme == "hermite" else None, None, ts, i)
    out[ts <= times[0]] = values[0]
    out[ts >= times[-1]] = values[-1]
    return out


def _window_max_loop(phi, evaluate, refine_tol=1e-9, max_levels=6):
    """The window maximum of the array-form map ``evaluate`` with one
    pointwise interpolation per midpoint."""
    floor = -phi.delta - 1 - TIME_TOL
    best = -np.inf
    for s in phi.memory_segments:
        mask = (s.times + s.jump_index) >= floor
        if not np.any(mask):
            continue
        times = s.times[mask]
        est = float(np.max(evaluate(s.values[mask])))
        level_times = times
        for _ in range(max_levels):
            if level_times.shape[0] < 2:
                break
            mids = 0.5 * (level_times[:-1] + level_times[1:])
            mid_vals = evaluate(np.array([_interpolate(s.times, s.values, s.derivs,
                                                       t, phi.interpolation)
                                          for t in mids]))
            new_est = max(est, float(np.max(mid_vals)))
            merged = np.sort(np.concatenate([level_times, mids]))
            if abs(new_est - est) <= refine_tol * max(1.0, abs(new_est)):
                est = new_est
                break
            est = new_est
            level_times = merged
        best = max(best, est)
    return best


def _slice_lists(s, lo, hi, scheme="linear", tol=TIME_TOL):
    """A segment's samples on [lo, hi], with interpolated end samples where
    none lies within tol of lo or hi, built from Python lists, as (times,
    values, derivs) arrays or None: the slice of the segment-list window
    operators."""
    lo = max(lo, s.lo)
    hi = min(hi, s.hi)
    if hi < lo - tol:
        return None
    if hi < lo:
        hi = lo
    mask = (s.times >= lo - tol) & (s.times <= hi + tol)
    times = list(s.times[mask])
    values = list(s.values[mask])
    derivs = list(s.derivs[mask]) if s.derivs is not None else None
    if not times or times[0] > lo + tol:
        times.insert(0, lo)
        values.insert(0, _interpolate(s.times, s.values, s.derivs, lo, scheme))
        if derivs is not None:
            derivs.insert(0, _interpolate(s.times, s.derivs, None, lo))
    if times[-1] < hi - tol:
        times.append(hi)
        values.append(_interpolate(s.times, s.values, s.derivs, hi, scheme))
        if derivs is not None:
            derivs.append(_interpolate(s.times, s.derivs, None, hi))
    return (np.array(times), np.array(values),
            np.array(derivs) if derivs is not None else None)


def reference_delayed_runs(phi, lo, hi, tol=TIME_TOL):
    """The pieces of s -> phi(s, k(s)) on [lo, hi], one (times, values) pair
    per level, each through one list-built segment: the delayed runs of the
    segment-list arcs."""
    runs = []
    for idx in range(len(phi.memory_segments) - 1, -1, -1):
        s = phi.memory_segments[idx]
        if s.lo > hi + tol:
            continue
        if s.hi < lo - tol:
            break
        piece_hi = min(hi, s.hi)
        if runs:
            piece_hi = min(piece_hi, runs[-1][0][0])
        cut = _slice_lists(s, max(lo, s.lo), piece_hi, phi.interpolation, tol)
        if cut is not None:
            cut = ArcSegment(s.jump_index, *cut)
            runs.append((cut.times, cut.values))
        if s.lo <= lo + tol:
            break
    runs.reverse()
    return runs


def reference_delayed_sq_integral(phi, lo, hi, components=None):
    """delayed_sq_integral over reference_delayed_runs."""
    total = 0.0
    for times, values in reference_delayed_runs(phi, lo, hi):
        if times.shape[0] < 2:
            continue
        if components is not None:
            values = values[:, components]
        sq = np.einsum("ij,ij->i", values, values)
        mid = 0.5 * (values[:-1] + values[1:])
        sq_mid = np.einsum("ij,ij->i", mid, mid)
        h = times[1:] - times[:-1]
        total += float(np.sum(h / 6.0 * (sq[:-1] + 4.0 * sq_mid + sq[1:])))
    return total


def reference_merge_contiguous(segments):
    """Consecutive segments of one jump level and a shared boundary time
    joined, the later one's first sample dropped when within TIME_TOL."""
    merged = []
    for s in segments:
        if (merged and merged[-1].jump_index == s.jump_index
                and s.lo <= merged[-1].hi + TIME_TOL):
            prev = merged[-1]
            skip = 1 if s.times[0] <= prev.times[-1] + TIME_TOL else 0
            derivs = (np.concatenate([prev.derivs, s.derivs[skip:]])
                      if prev.derivs is not None and s.derivs is not None else None)
            merged[-1] = ArcSegment(s.jump_index,
                                    np.concatenate([prev.times, s.times[skip:]]),
                                    np.concatenate([prev.values, s.values[skip:]]),
                                    derivs)
        else:
            merged.append(s)
    return merged


def segment_list_memory_window(arc, t, j, delta):
    """memory_window as the segment lists had it: each segment sliced and
    shifted, then the pieces of jump level 0 merged."""
    dinf = delta_inf(arc, t, j, delta)
    segments = []
    for s in arc.all_segments():
        if s.jump_index > j:
            continue
        u_hi = min(s.hi, t)
        if u_hi < s.lo - TIME_TOL:
            continue
        k = s.jump_index - j
        s_lo = max(s.lo - t, -dinf - k)
        s_hi = u_hi - t
        if s_hi < s_lo - TIME_TOL:
            continue
        cut = _slice_lists(s, s_lo + t, s_hi + t, arc.interpolation)
        if cut is not None:
            times, values, derivs = cut
            segments.append(ArcSegment(k, times - t, values, derivs))
    return memory_arc_of(reference_merge_contiguous(segments), delta,
                           arc.interpolation)


def segment_list_append_jump(phi, g):
    """append_jump as the segment lists had it."""
    floor = -phi.delta - 1
    segments = []
    for s in phi.memory_segments:
        k_new = s.jump_index - 1
        s_cut = floor - k_new
        if s.hi < s_cut - TIME_TOL:
            continue
        if s.lo >= s_cut - TIME_TOL:
            segments.append(ArcSegment(k_new, s.times, s.values, s.derivs))
        else:
            segments.append(ArcSegment(k_new, *_slice_lists(s, s_cut, s.hi,
                                                            phi.interpolation)))
    segments.append(ArcSegment(0, np.array([0.0]), np.reshape(g, (1, -1))))
    return memory_arc_of(segments, phi.delta, phi.interpolation)


def assert_same_cut(got, want):
    """Same levels, with the same times and values bit for bit, and on a
    Hermite arc the same derivatives wherever the segment lists kept them.
    (They dropped a joined level 0's derivatives when the memory side had
    none; the store keeps the forward side's, and its sample at t = 0 takes
    the forward side's derivative.  Cuts of a linear arc keep none.)"""
    assert (got.delta, got.interpolation) == (want.delta, want.interpolation)
    assert _samples(got) == _samples(want)
    for a, b in zip(got.memory_segments, want.memory_segments, strict=True):
        if got.interpolation == "hermite":
            assert b.derivs is None or _same_bits(a.derivs, b.derivs)
        else:
            assert a.derivs is None


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_segment(rng, m, n, with_derivs):
    times = np.cumsum(rng.uniform(0.01, 0.4, m)) - rng.uniform(0.0, 3.0)
    values = rng.normal(size=(m, n)) * rng.uniform(0.1, 10.0)
    derivs = rng.normal(size=(m, n)) * 5.0 if with_derivs else None
    return ArcSegment(0, times, values, derivs)


def _query_times(rng, times):
    lo, hi = times[0], times[-1]
    mids = 0.5 * (times[:-1] + times[1:])
    return np.concatenate([
        [lo - 1.0, lo - 1e-13, np.nextafter(lo, -np.inf)],  # before the first
        times,                                                # on samples
        mids,                                                 # midpoints
        rng.uniform(lo, hi, 400),
        [np.nextafter(hi, np.inf), hi + 1e-13, hi + 2.0]])     # after the last


def _cover_arcs(spec, seed, total):
    sampler = ArcSampler(spec, seed=seed, mode="cover")
    per = total // 3
    return [a.arc for region in ("C", "D", "Gplus")
            for a in sampler.sample(region, per)]


def _with_derivs(segments):
    """The segments with finite-difference derivative samples."""
    return [ArcSegment(s.jump_index, s.times, s.values,
                       np.gradient(s.values, s.times, axis=0)
                       if s.times.shape[0] > 1 else np.zeros_like(s.values))
            for s in segments]


def _as_hermite(phi):
    """phi with finite-difference derivative samples, read as Hermite."""
    return memory_arc_of(_with_derivs(phi.memory_segments), phi.delta,
                           "hermite")


class TestArrayInterpolant:
    @pytest.mark.parametrize("scheme,with_derivs", [
        ("linear", False), ("linear", True), ("hermite", True),
        ("hermite", False)])
    def test_equals_pointwise_bit_for_bit(self, scheme, with_derivs):
        rng = np.random.default_rng(17)
        for m in (2, 3, 7, 40):
            for n in (1, 3):
                for _ in range(4):
                    s = _random_segment(rng, m, n, with_derivs)
                    ts = _query_times(rng, s.times)
                    got = _interpolate_array(s.times, s.values, s.derivs, ts, scheme)
                    want = _interpolate_loop(s.times, s.values, s.derivs, ts,
                                             scheme)
                    assert _same_bits(got, want), (m, n)

    def test_hermite_reads_cubic_exactly(self):
        # derivative samples of a cubic make the Hermite interpolant exact
        times = np.linspace(-1.0, 0.0, 5)
        f = lambda t: t ** 3 - 2 * t
        s = ArcSegment(0, times, f(times)[:, None], (3 * times ** 2 - 2)[:, None])
        ts = np.linspace(-1.0, 0.0, 33)
        got = _interpolate_array(s.times, s.values, s.derivs, ts, "hermite")
        assert np.allclose(got[:, 0], f(ts), atol=1e-14)


class TestWindowMaximumArrayPath:
    """vbar and sup_norm_w equal the pointwise refinement on cover arcs."""

    def test_example1_vbar(self):
        p = Example1Params.paper()
        spec, _ = build_example1(p)
        cert, _ = example1_razumikhin_certificate(p)
        arcs = _cover_arcs(spec, 5, 201)
        assert len(arcs) == 201
        got = vbar(arcs, cert.v_batch)
        for phi, vb in zip(arcs, got):
            assert vb == _window_max_loop(phi, cert.v_batch)
        # the one-state V, row by row
        v_rows = row_loop(cert.v)
        for phi, vb in zip(arcs[::10], vbar(arcs[::10], v_rows)):
            assert vb == _window_max_loop(phi, v_rows)

    @pytest.mark.parametrize("hermite", [False, True], ids=["linear", "hermite"])
    def test_example2_sup_norm(self, hermite):
        spec, target = build_example2(Example2Params.case2())
        arcs = _cover_arcs(spec, 6, 201)
        if hermite:
            arcs = [_as_hermite(phi) for phi in arcs]
        got = sup_norm_w(arcs, target.dist_batch)
        for phi, sup in zip(arcs, got):
            assert sup == _window_max_loop(phi, target.dist_batch)


def seg2(j, times, first):
    """A two-component level, the second component zero (as example 2's
    windows, with their clock)."""
    first = np.asarray(first, dtype=float)
    return seg(j, times, np.column_stack([first, np.zeros_like(first)]))


def _peak_window():
    """One level whose maximum, 1 at z = 0, lies off every dyadic midpoint,
    so each of the six refinement rounds raises the estimate."""
    return memory_arc_of([seg2(0, [-1.0, 0.0], [-1.0, 2.0])], 0.0)


def _floor_cut_window():
    """Unchecked initial data reaching below s + k = -delta - 1: the oldest
    level lies wholly below the floor, the next one partly, and the newest
    holds a single sample."""
    return unchecked([seg2(-2, [-2.0, -1.5], [9.0, 9.0]),
                      seg2(-1, [-1.5, -0.9, -0.3, 0.0], [8.0, 3.0, -0.7, 0.1]),
                      seg2(0, [0.0], [0.4])], delta=0.5)


def _mixed_windows():
    """Linear and Hermite windows, levels cut by the floor, single-sample
    levels, a level that refines every round, and a window of more stored
    samples than a block holds."""
    spec, _ = build_example2(Example2Params.case2())
    cover = _cover_arcs(spec, 7, 60)
    one_point = append_jump(cover[0], np.array([0.5, 0.01]))
    rng = np.random.default_rng(8)
    long_times = np.linspace(-1.5, 0.0, batch._BLOCK_SAMPLES + 300)
    long = memory_arc_of([seg2(0, long_times, rng.normal(size=long_times.shape[0]))],
                           0.5)
    return (cover[:30] + [_as_hermite(phi) for phi in cover[30:]]
            + [one_point, _as_hermite(one_point), _peak_window(),
               _floor_cut_window(), long])


class TestWindowMaximumPass:
    """One pass over many windows equals the pointwise refinement of each.
    The budget is 1024 stored samples a block here, so that the mixed list
    spans several blocks and its long window stays cheap for the pointwise
    loop; ``test_block_budget.py`` checks the default budget."""

    fn = staticmethod(lambda arr: 1.0 - arr[:, 0] * arr[:, 0])
    pointwise = staticmethod(row_loop(lambda z: float(1.0 - z[0] * z[0])))

    @pytest.fixture(autouse=True)
    def _budget(self, monkeypatch):
        monkeypatch.setattr(batch, "_BLOCK_SAMPLES", 1024)

    def test_mixed_list_equals_each_window_alone(self):
        windows = _mixed_windows()
        assert sum(s.times.shape[0] for w in windows
                   for s in w.memory_segments) > 2 * batch._BLOCK_SAMPLES
        got = sup_norm_w(windows, self.fn)
        want = [_window_max_loop(w, self.fn) for w in windows]
        assert got.tolist() == want
        assert sup_norm_w(windows[::5], self.pointwise).tolist() == want[::5]

    def test_peak_refines_every_round(self, monkeypatch):
        rounds = []
        for m in range(7):
            monkeypatch.setattr(batch, "_MAX_LEVELS", m)
            rounds.append(sup_norm_w([_peak_window()], self.fn)[0])
        assert all(a < b for a, b in zip(rounds, rounds[1:]))
        assert rounds[-1] == _window_max_loop(_peak_window(), self.fn)

    def test_floor_cut_levels(self):
        phi = _floor_cut_window()
        want = _window_max_loop(phi, self.fn)
        assert sup_norm_w([phi], self.fn).tolist() == [want]
        # the 9s, the 8 and the 3 lie below the floor
        assert sup_norm_w([phi], lambda arr: np.abs(arr[:, 0])).tolist() == [0.7]

    def test_result_does_not_depend_on_the_other_windows(self):
        windows = _mixed_windows()
        want = sup_norm_w(windows, self.fn)
        order = np.random.default_rng(9).permutation(len(windows))
        got = sup_norm_w([windows[i] for i in order], self.fn)
        assert got.tolist() == want[order].tolist()
        for lo, hi in ((0, 1), (3, 17), (len(windows) - 2, len(windows))):
            assert sup_norm_w(windows[lo:hi], self.fn).tolist() == want[lo:hi].tolist()

    @pytest.mark.parametrize("rows", [7, 150])
    def test_block_size_does_not_change_the_result(self, monkeypatch, rows):
        # 7: one window per block; 150: two or three
        windows = _mixed_windows()[:-1]
        want = sup_norm_w(windows, self.fn)
        monkeypatch.setattr(batch, "_BLOCK_SAMPLES", rows)
        assert sup_norm_w(windows, self.fn).tolist() == want.tolist()

    @staticmethod
    def _touching(where):
        """A level with two adjacent float times whose midpoint rounds onto
        one of them, at its start, inside it or at its end, and a signed zero
        there: 1/z tells which bracket the midpoint was read from."""
        a = np.nextafter(-0.75, 0.0)
        b = np.nextafter(a, 0.0)
        assert 0.5 * (-0.75 + a) == -0.75 and 0.5 * (a + b) == b
        if where == "start":  # on the first sample: its own value, -0.0
            return memory_arc_of([seg2(0, [-0.75, a, 0.0], [-0.0, 1.0, 1.0])], 0.0)
        if where == "inside":  # on b: b's bracket gives -0.0, a's would give +0.0
            return memory_arc_of([seg2(0, [a, b, 0.0], [1.0, -0.0, -1.0])], 0.0)
        # on the last sample: its own value, -0.0 (an unchecked arc ending at b)
        return unchecked([seg2(0, [-1.0, a, b], [1.0, 1.0, -0.0])], delta=0.0)

    @pytest.mark.parametrize("where", ["start", "inside", "end"])
    def test_midpoint_on_a_stored_time_reads_like_a_binary_search(self, where):
        phi = self._touching(where)
        inverse = lambda arr: 1.0 / arr[:, 0]
        with np.errstate(divide="ignore"):
            got = sup_norm_w([phi], inverse)
            want = _window_max_loop(phi, inverse)
        assert got.tolist() == [want] == [1.0]

    def test_empty_list(self):
        got = sup_norm_w([], self.fn)
        assert got.shape == (0,)

    @pytest.mark.parametrize("batch", [False, True], ids=["pointwise", "batch"])
    def test_nan_names_the_window_and_its_level(self, batch):
        windows = _mixed_windows()[:3] + [memory_arc_of(
            [seg2(-1, [-1.0, -0.5], [np.nan, 0.1]),
             seg2(0, [-0.5, -0.25, 0.0], [0.1, 0.2, 0.3])], 1.0)]
        fn = (lambda arr: np.abs(arr[:, 0])) if batch else row_loop(lambda z: abs(z[0]))
        with pytest.raises(DomainError, match="window 3: .*NaN on jump level -1$"):
            sup_norm_w(windows, fn)


class TestArraySlicing:
    def test_slice_equals_list_slicing(self):
        rng = np.random.default_rng(23)
        checked = 0
        for m in (1, 2, 5, 30):
            for with_derivs in (False, True):
                for _ in range(10):
                    s = _random_segment(rng, m, 2, with_derivs)
                    cuts = list(zip(rng.uniform(s.lo - 0.5, s.hi + 0.5, 12),
                                    rng.uniform(0.0, 1.5, 12)))
                    cuts += [(s.lo, 0.0), (s.hi, 0.0), (s.lo - 1.0, 0.5),
                             (s.hi + 1e-13, 1.0), (s.lo - 1e-13, s.hi - s.lo)]
                    cuts += [(t, 0.5 * w) for t, w in
                             zip(s.times, np.diff(s.times, append=s.hi + 1))]
                    for lo, width in cuts:
                        for scheme in ("linear", "hermite"):
                            stack = History([unchecked([], [s], scheme)])
                            level = np.zeros(1, dtype=np.intp)
                            ok, *piece = batch._pieces(stack, level, np.array([lo]),
                                                       np.array([lo + width]))
                            want = _slice_lists(s, lo, lo + width, scheme)
                            if want is None:
                                assert not ok[0]
                                continue
                            times, values, derivs, known, _, _ = batch._runs(
                                stack, level, *piece, bool(stack.has_derivs.any()))
                            assert _same_bits(times, want[0])
                            assert _same_bits(values, want[1])
                            # linear reads use no derivatives: cuts drop them
                            if scheme == "linear" or with_derivs:
                                assert _same_bits(derivs, want[2] if scheme ==
                                                  "hermite" else None)
                            else:
                                assert known is None
                            checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("hermite", [False, True], ids=["linear", "hermite"])
    def test_delayed_runs_equal_segment_path(self, hermite):
        p = Example2Params.case2()
        spec, _ = build_example2(p)
        arcs = _cover_arcs(spec, 8, 120)
        if hermite:
            arcs = [_as_hermite(phi) for phi in arcs]
        rng = np.random.default_rng(29)
        pieces = 0
        for phi in arcs:
            reach = phi.times.item(0)
            for lo, hi in [(-p.r, 0.0), (reach, 0.0),
                           *sorted(rng.uniform(reach, 0.0, (3, 2)).tolist())]:
                lo, hi = min(lo, hi), max(lo, hi)
                for components in (None, slice(0, 1)):
                    got = delayed_sq_integral([phi], lo, hi, components)[0]
                    assert got == reference_delayed_sq_integral(phi, lo, hi,
                                                                components)
                pieces += len(reference_delayed_runs(phi, lo, hi))
        assert pieces > 600

    def test_level_clip_edge_cases(self):
        # level boundaries apart by +-5e-13, a zero-width level (two jumps at
        # one instant), and lo and hi on a boundary or within TIME_TOL of
        # one, in one call for all arcs.  Where an older level's last sample
        # lies past the next level's first and lo just below it, a clip of
        # each level to [lo, hi] alone would keep a piece the walk hides
        arcs = []
        for e1, e2 in itertools.product((-5e-13, 0.0, 5e-13), repeat=2):
            for zero in (False, True):
                levels = [[-2.0, -1.6, -1.2, -1.0 + e1], *[[-1.0]] * zero,
                          [-1.0, -0.8, -0.7, -0.5 + e2], [-0.5, -0.3, 0.0]]
                arcs.append(memory_arc_of(
                    [seg(k - len(levels) + 1, times, np.cos(3 * np.array(times)) + k)
                     for k, times in enumerate(levels)], 4.0))
        # a row whose history starts at -1: bounds before that miss it
        arcs.append(memory_arc_of([seg(k - 3, times, np.cos(times)) for k, times in
                                   enumerate([[-1.0, -0.8], [-0.8, -0.6],
                                              [-0.6, -0.3], [-0.3, 0.0]])], 4.0))
        bounds = sorted({b + eps for b in (-2.0, -1.3, -1.0, -0.75, -0.5, 0.0)
                         for eps in (0.0, -3e-13, 3e-13, -8e-13, 8e-13, -1.2e-12,
                                     1.2e-12)})
        raised = checked = 0
        for lo, hi in itertools.combinations_with_replacement(bounds, 2):
            have = [bool(reference_delayed_runs(phi, lo, hi)) for phi in arcs]
            if not all(have):
                raised += 1
                with pytest.raises(DomainError, match="no stored history"):
                    delayed_sq_integral(arcs, lo, hi)
            some = [phi for phi, h in zip(arcs, have) if h]
            got = delayed_sq_integral(some, lo, hi).tolist()
            assert got == [reference_delayed_sq_integral(phi, lo, hi)
                           for phi in some], (lo, hi)
            checked += len(some)
        assert raised > 100 and checked > 10000


# ---------------------------------------------------------------------------
# The window cut one point at a time, as the scalar operators on the store
# had it before the array cut replaced them
# ---------------------------------------------------------------------------

def reference_delta_inf(arc, t, j, delta):
    """delta_inf level by level: each backward-shifted level contributes a
    closed interval [c, d] of achievable depths."""
    best = np.inf
    for k, (a, b) in enumerate(arc.levels()):
        jump, lo = arc.jump_index(k), arc.times.item(a)
        u_hi = min(arc.times.item(b - 1), t)
        if jump > j or u_hi < lo - TIME_TOL:
            continue
        c = t + j - max(u_hi, lo) - jump
        d = t + j - lo - jump
        if d >= delta - TIME_TOL:
            best = min(best, max(c, delta))
    if not np.isfinite(best):
        raise InsufficientHistoryError(
            f"no history at depth >= {delta} behind (t={t}, j={j})", t, j)
    return float(best)


def _piece(arc, a0, b0, lo, hi):
    """The level stored at [a0, b0) on [lo, hi] as parts, each a tuple of
    rows of the store's arrays (times, values, and derivs and known on a
    Hermite arc that has them), with an interpolated sample before or after
    the stored range where none lies within TIME_TOL of lo or hi; None when
    [lo, hi] misses the level by more than TIME_TOL."""
    times, values = arc.times, arc.values
    derivs, known = ((arc.derivs, arc.known) if arc.interpolation == "hermite"
                     else (None, None))
    lo, hi = max(lo, times.item(a0)), min(hi, times.item(b0 - 1))
    if hi < lo - TIME_TOL:
        return None
    hi = max(hi, lo)
    a = a0 + int(times[a0:b0].searchsorted(lo - TIME_TOL, "left"))
    b = a0 + int(times[a0:b0].searchsorted(hi + TIME_TOL, "right"))

    def sample(t, i):  # in the bracket [i - 1, i]
        x = _interpolate(times, values, derivs, t, arc.interpolation, a0, b0, known)
        if derivs is None:
            return np.array([t]), x[None]
        d = _interpolate(times, derivs, None, t, lo=a0, hi=b0)
        return np.array([t]), x[None], d[None], known[i - 1:i] & known[i:i + 1]

    parts = []
    if a < b:
        parts.append((times[a:b], values[a:b]) if derivs is None else
                     (times[a:b], values[a:b], derivs[a:b], known[a:b]))
    if a == b or times.item(a) > lo + TIME_TOL:
        parts.insert(0, sample(lo, a))
    if (times.item(b - 1) if a < b else lo) < hi - TIME_TOL:
        parts.append(sample(hi, b))
    return parts


def _cut(arc, pieces, shift, delta):
    """The memory arc of size delta made of (key, parts) pieces, times
    shifted by -shift.  Consecutive pieces with one key form one level: the
    later one's first sample gives way to the earlier one's last when they
    lie within TIME_TOL, and lends it its derivative when it has none."""
    parts, starts, rows, junction = [], [], 0, None
    for k, (key, piece) in enumerate(pieces):
        if k and key == pieces[k - 1][0]:
            first = piece[0]
            if first[0].item(0) - shift <= parts[-1][0].item(-1) - shift + TIME_TOL:
                junction = (rows - 1, first)
                piece[0] = tuple(f[1:] for f in first)
        else:
            starts.append(rows)
        parts += piece
        for p in piece:
            rows += p[0].shape[0]
    times, values, *rest = [f[0] if len(f) == 1 else np.concatenate(f)
                            for f in zip(*parts)]
    derivs, known = rest or (None, None)
    if junction is not None and derivs is not None and not known[junction[0]]:
        i, first = junction
        derivs[i], known[i] = first[2][0], first[3][0]
    return HybridMemoryArc._of(times - shift, values, starts, len(starts), derivs,
                               known, arc.interpolation, delta=delta)


def reference_level_at(arc, t, j):
    """(first, end) indices of the level holding hybrid time (t, j), up to
    TIME_TOL (at (0, 0) the memory side's); DomainError if none."""
    m, levels = arc.n_memory, arc.levels()
    for k, first, end, side in ((m - 1 + j, 0, m, j < 0 or t <= TIME_TOL),
                                (m + j, m, len(levels), j > 0 or t >= -TIME_TOL)):
        if side and first <= k < end:
            a, b = levels[k]
            if arc.times[a] - TIME_TOL <= t <= arc.times[b - 1] + TIME_TOL:
                return a, b
    raise DomainError(f"point (t={t}, j={j}) is not in the arc domain", t, j)


def reference_memory_window(arc, t, j, delta):
    """memory_window one level at a time."""
    reference_level_at(arc, t, j)
    dinf = reference_delta_inf(arc, t, j, delta)
    pieces = []
    for level, (a0, b0) in enumerate(arc.levels()):
        jump = arc.jump_index(level)
        if jump > j:
            break
        lo, u_hi = arc.times.item(a0), min(arc.times.item(b0 - 1), t)
        s_lo, s_hi = max(lo - t, -dinf - (jump - j)), u_hi - t
        piece = (u_hi >= lo - TIME_TOL and s_hi >= s_lo - TIME_TOL
                 and _piece(arc, a0, b0, s_lo + t, s_hi + t))
        if piece:
            pieces.append((jump, piece))
    return _cut(arc, pieces, t, delta)


def reference_append_jump(phi, g):
    """append_jump one level at a time."""
    g = np.asarray(g, dtype=float)
    floor = -phi.delta - 1
    pieces = []
    for level, (a0, b0) in enumerate(phi.levels()):
        s_cut = floor - (phi.jump_index(level) - 1)
        if phi.times.item(b0 - 1) >= s_cut - TIME_TOL:
            pieces.append((level, _piece(phi, a0, b0, s_cut, np.inf)))
    pieces.append((-1, [(np.zeros(1), g[None]) + (
        () if phi.derivs is None or phi.interpolation != "hermite"
        else (np.zeros((1, g.shape[0])), np.zeros(1, bool)))]))
    return _cut(phi, pieces, 0.0, phi.delta)


# ---------------------------------------------------------------------------
# The array forms of the functional check: flow windows, jumps and the
# delayed integral of many arcs at once, against one arc at a time
# ---------------------------------------------------------------------------

def reference_flow_window(spec, phi, h, n_steps=2):
    """flow_window as it stepped one arc: a History of phi, RK4 steps through
    flow_selection on its views, then reference_memory_window."""
    hist = History([phi], phi.delta, room=n_steps + 1)
    hist.start_segment(0.0, np.array(phi.head, dtype=float))
    t, sub = 0.0, h / n_steps
    for _ in range(n_steps):
        x_new, _ = _rk4(spec, hist.view(), sub)
        t += sub
        hist.append(t, x_new)
    hist.known[hist.starts[-1]:] = False
    return reference_memory_window(hist, t, 0, phi.delta)


def near_period(phi, period, gap=3e-6):
    """phi with its newest level's clock moved so that the head reads
    period - gap: a flow arc whose h = 1e-5 window leaves the flow set."""
    values = phi.values.copy()
    values[phi.starts[-1]:, 1] += period - gap - values[-1, 1]
    return HybridMemoryArc(phi.times, values, phi.starts, phi.delta,
                           phi.derivs, phi.known, phi.interpolation)


def functional_arcs(params, mode, count=40):
    """Example-2 arcs of the functional check from a sampler of the mode:
    its C arcs, five of them moved next to the clock period, a Hermite copy
    of five (with and without derivative samples), and its D and post-jump
    arcs."""
    spec, _ = build_example2(params)
    sampler = ArcSampler(spec, seed=5, mode=mode)
    c = [s.arc for s in sampler.sample("C", count)]
    hermite = [_as_hermite(phi) for phi in c[:3]] + [
        HybridMemoryArc(phi.times, phi.values, phi.starts, phi.delta,
                        interpolation="hermite") for phi in c[3:5]]
    c += [near_period(phi, params.delta) for phi in c[:5]] + hermite
    d = [s.arc for s in sampler.sample("D", count // 2)]
    g = [s.arc for s in sampler.sample("Gplus", count // 2)]
    return spec, c, d, g


def assert_same_store(got, want):
    """The same arc, bit for bit: every array of the store, its levels,
    memory size and scheme."""
    assert (got.starts, got.n_memory, got.delta, got.interpolation) == \
        (want.starts, want.n_memory, want.delta, want.interpolation)
    for name in ("times", "values", "derivs", "known"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name


def same_rows_by_chunks(batch, arcs, want, same, seed):
    """batch on all arcs, on random chunks of them and on each alone gives
    want row by row."""
    cuts = np.sort(np.random.default_rng(seed).choice(
        np.arange(1, len(arcs)), min(6, len(arcs) - 1), replace=False))
    chunks = [x for part in np.split(np.arange(len(arcs)), cuts)
              for x in batch([arcs[i] for i in part])]
    single = [x for arc in arcs for x in batch([arc])]
    for got in (batch(arcs), chunks, single):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same(g, w)


PARAMS_AND_MODES = pytest.mark.parametrize("params, mode", [
    (Example2Params.case1(), "cover"), (Example2Params.case1(), "both"),
    (Example2Params.case2(), "cover"), (Example2Params.case2(), "both")],
    ids=["case1-cover", "case1-both", "case2-cover", "case2-both"])


class TestArrayFormsOfTheFunctionalCheck:
    @PARAMS_AND_MODES
    def test_flow_windows_equal_one_arc_at_a_time(self, params, mode,
                                                  monkeypatch):
        spec, c, _, _ = functional_arcs(params, mode)
        # some windows hold a memory jump inside [-r, 0]
        assert any(phi.times[phi.starts[-1]] > -params.r for phi in c)
        for h, n_steps in ((1e-5, 2), (0.3 * params.delta, 2), (1e-3, 4)):
            want = [reference_flow_window(spec, phi, h, n_steps) for phi in c]
            with monkeypatch.context() as m:
                m.setattr(solver, "_FLOW_STEPS", n_steps)
                same_rows_by_chunks(lambda arcs: flow_windows(spec, arcs, h),
                                    c, want, assert_same_store, 31)
                for phi, w in zip(c[:8], want):
                    assert_same_store(flow_window(spec, phi, h), w)
        # a system without a batch map steps each row through its own view
        plain = dataclasses.replace(spec, flow_batch=None)
        want = [reference_flow_window(spec, phi, 1e-5) for phi in c]
        same_rows_by_chunks(lambda arcs: flow_windows(plain, arcs, 1e-5),
                            c, want, assert_same_store, 34)

    @PARAMS_AND_MODES
    def test_append_jumps_equal_append_jump(self, params, mode):
        spec, c, d, g = functional_arcs(params, mode)
        arcs = d + c + g
        values = [spec.jump_selections(phi)[0] for phi in d] + [
            0.5 * phi.head for phi in c + g]
        want = [reference_append_jump(phi, x) for phi, x in zip(arcs, values)]
        by_arc = dict(zip(map(id, arcs), values))
        same_rows_by_chunks(
            lambda part: append_jumps(part, [by_arc[id(phi)] for phi in part]),
            arcs, want, assert_same_store, 32)
        with pytest.raises(ValueError, match="shape"):
            append_jumps(d[:2], [values[0], np.zeros(3)])

    @PARAMS_AND_MODES
    def test_delayed_sq_integral_rows_alone(self, params, mode):
        spec, c, d, g = functional_arcs(params, mode)
        flowed = flow_windows(spec, c, 1e-5)
        jumped = [append_jump(phi, spec.jump_selections(phi)[0]) for phi in d]
        arcs = c + d + g + flowed + jumped
        # the segment lists read a joined level 0 with derivatives on its
        # forward part only linearly: those windows are checked alone
        joined = {id(w) for w in flowed if w.interpolation == "hermite"}
        for components in (slice(0, 1), None):
            want = [delayed_sq_integral([phi], -params.r, 0.0, components)[0]
                    if id(phi) in joined else
                    reference_delayed_sq_integral(phi, -params.r, 0.0, components)
                    for phi in arcs]

            def same(got, w):
                assert np.float64(got).tobytes() == np.float64(w).tobytes()
            same_rows_by_chunks(
                lambda part: delayed_sq_integral(part, -params.r, 0.0, components),
                arcs, want, same, 33)

    def test_delayed_sq_integral_names_an_empty_range(self):
        phi = constant_memory_arc(np.array([1.0]), 0.5)
        with pytest.raises(DomainError, match="no stored history"):
            delayed_sq_integral([phi, phi], 0.5, 0.7)
        with pytest.raises(ValueError, match="lo <= hi"):
            delayed_sq_integral([phi], 0.0, -0.1)


def _cut_runs():
    """Simulated runs of example 1, example 2 cases 1 and 2, Hermite case 1,
    and a Hermite run whose history has no derivative samples (its level-0
    windows lend the forward side's first derivative to t = 0), each with
    its spec."""
    from test_solver import example2_problem, hermite_case1_problem
    runs = {"example1": (build_example1(Example1Params.paper())[0],
                         _example1_trajectory()),
            "hermite-forward": (build_example2(Example2Params(
                a=-0.5, b=0.25, rho=0.5, r=0.25, delta=0.5))[0],
                _reset_trajectory("hermite"))}
    for name, (spec, init), t_max in (
            ("case1", example2_problem(Example2Params.case1(), [1.0, 0.0]), 2.0),
            ("case2", example2_problem(Example2Params.case2(), [1.0, 0.03]), 1.0),
            ("hermite-case1", hermite_case1_problem(), 2.0)):
        runs[name] = (spec, simulate(spec, init, SimOptions(t_max=t_max, step=5e-3)))
    return runs


def _cut_points(traj):
    """Every stored forward point of a run, and points on both sides of
    each jump instant: at it, 1e-3 away, and within TIME_TOL of it."""
    points = [(t, j) for t, j, _ in traj.sample_points()]
    for t, j in traj.jumps:
        points += [(t - 1e-3, j), (t + 5e-13, j), (t - 5e-13, j + 1),
                   (t + 1e-3, j + 1)]
    return points


def assert_same_cuts(arc, points, delta, seed):
    """memory_windows at all points, in random chunks and one point at a
    time, memory_window and delta_inf at each point, and append_jumps and
    append_jump on the windows, give the scalar references bit for bit."""
    want = [reference_memory_window(arc, t, j, delta) for t, j in points]
    same_rows_by_chunks(lambda part: memory_windows(arc, part, delta), points,
                        want, assert_same_store, seed)
    for (t, j), w in zip(points, want):
        assert_same_store(memory_window(arc, t, j, delta), w)
        assert np.float64(delta_inf(arc, t, j, delta)).tobytes() == \
            np.float64(reference_delta_inf(arc, t, j, delta)).tobytes()
    gs = [np.cos(np.arange(w.dimension) + i) for i, w in enumerate(want)]
    jumped = append_jumps(want, gs)
    for w, g, psi in zip(want, gs, jumped, strict=True):
        assert_same_store(psi, reference_append_jump(w, g))
        assert_same_store(append_jump(w, g), psi)
    return want


class TestOneWindowCut:
    """The array cut and its one-point forms against the scalar references,
    bit for bit: store, starts, derivatives and flags."""

    @pytest.mark.parametrize("name", ["example1", "case1", "case2", "hermite-case1",
                                      "hermite-forward"])
    def test_runs(self, name):
        spec, traj = _cut_runs()[name]
        points = _cut_points(traj)
        assert_same_cuts(traj.arc, points, 0.4 * traj.memory_size, 42)
        windows = assert_same_cuts(traj.arc, points, traj.memory_size, 41)
        # the flow windows of the C windows: a spec without its batch map
        # steps each row as flow_selection does
        plain = dataclasses.replace(spec, flow_batch=None)
        flows = [w for w in windows[::7] if spec.flow_guard(w) >= 0.0]
        assert len(flows) > 10
        for got, phi in zip(flow_windows(plain, flows, 1e-3), flows, strict=True):
            assert_same_store(got, reference_flow_window(spec, phi, 1e-3))

    def test_random_valid_arcs(self):
        """Criterion 5's random arcs: every stored point, at a random delta."""
        from test_acceptance import _random_valid_arc
        rng = np.random.default_rng(99)
        for i in range(60):
            arc = _random_valid_arc(rng)
            delta = rng.uniform(0.0, -arc.times[0])
            points = [(float(t), s.jump_index)
                      for s in arc.forward_segments for t in s.times]
            assert_same_cuts(arc, points, delta, i)

    def test_errors_name_the_first_bad_point(self):
        traj = _reset_trajectory()
        arc, delta = traj.arc, traj.memory_size
        (t0, j0), (t1, j1) = traj.jumps[:2]
        for point in [(t0 + 1e-9, j0), (t1, j1 + 1 + 1), (-0.1, 1), (0.3, -1)]:
            with pytest.raises(DomainError) as want:
                reference_memory_window(arc, *point, delta)
            with pytest.raises(DomainError, match=re.escape(str(want.value))):
                memory_windows(arc, [(0.1, 0), point, (t0 + 2e-9, j0)], delta)
        with pytest.raises(InsufficientHistoryError) as want:
            reference_memory_window(arc, 0.1, 0, 5.0)
        with pytest.raises(InsufficientHistoryError, match=re.escape(str(want.value))):
            memory_windows(arc, [(0.1, 0), (0.2, 0)], 5.0)
        with pytest.raises(InsufficientHistoryError, match=re.escape(str(want.value))):
            delta_inf(arc, 0.1, 0, 5.0)
        assert memory_windows(arc, [], delta) == []


class TestHistoryOfMemoryArc:
    def test_reads_like_a_fresh_history(self):
        phi = memory_arc_of(
            [seg(-1, np.linspace(-0.85, -0.4, 10), np.linspace(2.0, 1.0, 10)),
             seg(0, np.linspace(-0.4, 0.0, 9), np.cos(np.linspace(-0.4, 0, 9)))],
            0.9)
        grid = np.concatenate([np.linspace(phi.times.item(0), 0.0, 57),
                               [-0.4, -0.4 - 1e-13, 1e-13]])
        first = [phi.delayed(float(s)).tobytes() for s in grid]
        again = [phi.delayed(float(s)).tobytes() for s in grid]
        fresh = [History([phi], phi.delta).value(float(s)).tobytes() for s in grid]
        assert first == again == fresh
        # a jump instant reads the post-jump value
        assert phi.delayed(-0.4)[0] == phi.memory_segments[1].values[0, 0]
        with pytest.raises(DomainError, match="after the stored history"):
            phi.delayed(1e-6)
        with pytest.raises(InsufficientHistoryError):
            phi.delayed(-0.9)


class TestCsvRoundTrip:
    def test_bit_exact(self):
        rng = np.random.default_rng(17)
        arc = _random_solution_like_arc(rng)
        text = arc_to_csv(arc)
        back = arc_from_csv(text)
        for a, b in zip(arc.all_segments(), back.all_segments()):
            assert a.jump_index == b.jump_index
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.values, b.values)

    def test_sorted_by_jump_then_time(self):
        arc = _random_solution_like_arc(np.random.default_rng(19))
        rows = [line.split(",")[:2] for line in arc_to_csv(arc).splitlines()]
        keys = [(int(j), float(t)) for t, j in rows]
        assert keys == sorted(keys)

    def test_memory_only_round_trip(self):
        phi = constant_memory_arc(np.array([1.0, -2.0]), 0.8)
        back = arc_from_csv(arc_to_csv(phi), delta=0.8)
        assert isinstance(back, HybridMemoryArc)
        assert np.array_equal(back.memory_segments[0].values,
                              phi.memory_segments[0].values)

    @pytest.mark.parametrize("text, row", [
        ("-1.0,0,1.0\nnan,0,5.0\n0.0,0,2.0\n", "nan,0,5.0"),
        ("-1.0,0,1.0\n0.0,0,2.0\n0.0,0,2.0\ninf,0,3.0\n", "inf,0,3.0"),
        ("-1.0,0,1.0\n0.0,0,2.0\n0.0,0,2.0\n1.0,0,3.0\n1.0,1,4.0\n"
         "nan,1,5.0\n", "nan,1,5.0"),
    ], ids=["nan-at-zero", "inf-forward", "nan-level-1"])
    def test_non_finite_time_names_its_row(self, text, row):
        with pytest.raises(ValueError, match=f"non-finite time: '{row}'"):
            arc_from_csv(text)


def reference_arc_to_csv(arc):
    """arc_to_csv as it was written first: one (j, t, side, row) tuple per
    sample, sorted."""
    rows = []
    for side, segs in (("m", arc.memory_segments), ("f", arc.forward_segments)):
        for s in segs:
            for t, v in zip(s.times, s.values):
                rows.append((s.jump_index, float(t), side, v))
    rows.sort(key=lambda r: (r[0], r[1], 0 if r[2] == "m" else 1))
    lines = []
    for j, t, _, v in rows:
        lines.append(",".join([repr(t), str(j)] + [repr(float(x)) for x in v]))
    return "\n".join(lines) + "\n"


def reference_arc_from_csv(text, delta=None, interpolation="linear"):
    """arc_from_csv as it was written first: one ndarray per row."""
    rows = []
    for line in text.strip().splitlines():
        parts = line.strip().split(",")
        if len(parts) < 3:
            raise ValueError(f"CSV row needs t, j and at least one component: {line!r}")
        rows.append((float(parts[0]), int(parts[1]),
                     np.array([float(x) for x in parts[2:]])))
    if not rows:
        raise ValueError("empty CSV")

    mem_rows = [r for r in rows if r[1] < 0 or (r[1] == 0 and r[0] < -TIME_TOL)]
    fwd_rows = [r for r in rows if r[1] > 0 or (r[1] == 0 and r[0] > TIME_TOL)]
    zero_rows = [r for r in rows if r[1] == 0 and abs(r[0]) <= TIME_TOL]

    has_memory = bool(mem_rows) or (bool(zero_rows) and not fwd_rows)
    has_forward = bool(fwd_rows)
    if has_memory and has_forward:
        if len(zero_rows) < 2:
            raise ValueError("arc with both sides must store the shared (0, 0) "
                             "sample once per side")
        mem_rows.append(zero_rows[0])
        fwd_rows = zero_rows[1:2] + fwd_rows
    elif has_memory:
        if not zero_rows:
            raise ValueError("memory side must end at (0, 0)")
        mem_rows.extend(zero_rows[:1])
    else:
        fwd_rows = zero_rows[:1] + fwd_rows

    def build(side_rows):
        groups = {}
        for t, j, v in side_rows:
            groups.setdefault(j, []).append((t, v))
        segs = []
        for j in sorted(groups):
            pts = sorted(groups[j], key=lambda p: p[0])
            segs.append(ArcSegment(j, np.array([p[0] for p in pts]),
                                   np.array([p[1] for p in pts])))
        return segs

    mem_segs = build(mem_rows) if mem_rows else []
    fwd_segs = build(fwd_rows) if fwd_rows else []
    if delta is not None and not fwd_segs:
        return memory_arc_of(mem_segs, delta, interpolation)
    return arc_of(mem_segs, fwd_segs, interpolation)


def _csv_outcome(read, text, delta):
    """What a CSV reader makes of text: the arc's samples, bytes and all, or
    the ValueError it raised."""
    try:
        arc = read(text, delta=delta)
    except ValueError as exc:
        return str(exc)
    return (type(arc), getattr(arc, "delta", None), *_samples(arc))


def _samples(arc):
    return ([(s.jump_index, s.times.tobytes(), s.values.tobytes())
             for s in arc.memory_segments],
            [(s.jump_index, s.times.tobytes(), s.values.tobytes())
             for s in arc.forward_segments])


# sample times next to t = 0, all within TIME_TOL of it
NEAR_ZERO = (-1e-12, -6e-13, -1e-13, -0.0, 0.0, 2e-13, 7e-13, 1e-12)
SPECIAL_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7e308, 0.1)


@st.composite
def csv_arc(draw):
    """An arc the constructors accept: memory levels, forward levels or both,
    single-sample levels among them, 1 to 3 components with extreme and
    special values, and one to three samples within TIME_TOL of t = 0 on
    each side, where the memory side's last level may end after the forward
    side's first level starts."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    n = draw(st.integers(1, 3))
    n_mem, n_fwd = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    assume(n_mem + n_fwd > 0)
    span = st.sampled_from([0.0, 0.0625, 0.3, 0.5])
    near = st.lists(st.sampled_from(NEAR_ZERO), min_size=1, max_size=3,
                    unique_by=float).map(sorted)

    def between(a, b):
        return [a] if a == b else np.linspace(a, b, draw(st.integers(2, 5))).tolist()

    def level(j, times):
        values = rng.normal(size=(len(times), n)) * 10.0 ** rng.integers(
            -300, 300, size=(len(times), n))
        mask = rng.random(values.shape) < 0.2
        values[mask] = rng.choice(SPECIAL_VALUES, size=int(mask.sum()))
        return ArcSegment(j, np.array(times), values)

    mem, fwd = [], []
    if n_mem:
        zero = draw(near)
        ends = [zero[0]]
        for _ in range(n_mem):
            ends.insert(0, ends[0] - draw(span))
        for i, (lo, hi) in enumerate(zip(ends, ends[1:])):
            tail = zero[1:] if i == n_mem - 1 else []
            mem.append(level(i - n_mem + 1, between(lo, hi) + tail))
    if n_fwd:
        zero = draw(near)
        ends = [zero[-1]]
        for _ in range(n_fwd):
            ends.append(ends[-1] + draw(span))
        for j, (lo, hi) in enumerate(zip(ends, ends[1:])):
            head = zero[:-1] if j == 0 else []
            fwd.append(level(j, head + between(lo, hi)))
    return arc_of(mem, fwd)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@st.composite
def random_arc(draw):
    n_jumps = draw(st.integers(0, 3))
    mem_depth = draw(st.floats(0.1, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    ms = np.linspace(-mem_depth, 0, 6)
    mem = [seg(0, ms, rng.normal(size=(6, 1)))]
    fwd, t0 = [], 0.0
    for j in range(n_jumps + 1):
        span = draw(st.floats(0.05, 0.6))
        fwd.append(seg(j, np.linspace(t0, t0 + span, 5),
                       rng.normal(size=(5, 1))))
        t0 += span
    return arc_of(mem, fwd)


@settings(max_examples=60, deadline=None)
@given(random_arc(), st.floats(0.0, 1.1))
def test_window_membership_property(arc, delta):
    """Windows along any valid arc satisfy both memory-class clauses."""
    last = arc.forward_segments[-1]
    mem_depth = -arc.memory_segments[0].lo
    if delta > mem_depth:
        return
    w = memory_window(arc, last.hi, last.jump_index, delta)
    assert w.membership_violation() is None
    got = delta_inf(arc, last.hi, last.jump_index, delta)
    assert delta - 1e-12 <= got <= delta + 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(random_arc(), st.floats(-3.0, 3.0))
def test_append_shift_property(arc, gval):
    last = arc.forward_segments[-1]
    w = memory_window(arc, last.hi, last.jump_index, 0.05)
    psi = append_jump(w, np.array([gval]))
    assert psi.head[0] == gval
    assert psi.membership_violation() is None
    for s in w.memory_segments:
        for t, v in zip(s.times, s.values):
            if t + s.jump_index - 1 < -w.delta - 1 - 1e-12:
                continue
            assert stored_value(psi, t, s.jump_index - 1)[0] == v[0]


def _revalidate(phi):
    """phi's store rebuilt through the validating constructor, which raises
    if the unchecked result of a window operator broke a rule."""
    return HybridMemoryArc(phi.times, phi.values, phi.starts, phi.delta,
                           phi.derivs, phi.known, phi.interpolation)


@settings(max_examples=80, deadline=None)
@given(random_arc(), st.booleans(), st.data())
def test_window_cuts_pass_the_checks_property(arc, derivs, data):
    """memory_window and append_jump skip the checks; what they return at
    any stored point, also windows that reach back into the memory side and
    join its jump-0 piece to the forward one, passes them."""
    if derivs:
        arc = arc_of(_with_derivs(arc.memory_segments),
                        _with_derivs(arc.forward_segments), "hermite")
    delta = data.draw(st.floats(0.0, -arc.memory_segments[0].lo))
    points = [(float(t), s.jump_index)
              for s in arc.forward_segments for t in s.times]
    t, j = data.draw(st.sampled_from(points))
    w = memory_window(arc, t, j, delta)
    _revalidate(w)
    _revalidate(append_jump(w, np.array([data.draw(st.floats(-3.0, 3.0))])))


def test_window_cuts_of_a_solution_pass_the_checks():
    """The same at every stored point of a simulated run with three resets,
    whose forward samples carry derivatives and memory samples do not; the
    run itself, copied out of its History unchecked, passes too."""
    traj = _reset_trajectory()
    arc = traj.arc
    HybridArc(arc.times, arc.values, arc.starts, arc.n_memory, arc.derivs,
              arc.known, arc.interpolation)
    joined = 0
    for s in arc.forward_segments:
        for t in s.times:
            w = memory_window(arc, float(t), s.jump_index, traj.memory_size)
            _revalidate(w)
            _revalidate(append_jump(w, np.array([1.0, 0.0])))
            joined += s.jump_index == 0 and w.times.item(0) < -t
    assert joined > 10


@settings(max_examples=80, deadline=None)
@given(random_arc(), st.sampled_from(["linear", "hermite", "hermite-forward"]),
       st.data())
def test_window_operators_match_the_segment_references_property(arc, kind, data):
    """memory_window, append_jump and delayed_sq_integral give, bit for bit,
    what the segment-list operators gave: on linear arcs, Hermite arcs, and
    Hermite arcs whose memory side has no derivative samples."""
    if kind != "linear":
        memory = arc.memory_segments
        arc = arc_of(memory if kind == "hermite-forward" else _with_derivs(memory),
                        _with_derivs(arc.forward_segments), "hermite")
    delta = data.draw(st.floats(0.0, -arc.memory_segments[0].lo))
    t, j = data.draw(st.sampled_from([(float(t), s.jump_index)
                                      for s in arc.forward_segments for t in s.times]))
    w = memory_window(arc, t, j, delta)
    assert_same_cut(w, segment_list_memory_window(arc, t, j, delta))
    g = np.array([data.draw(st.floats(-3.0, 3.0))])
    assert_same_cut(append_jump(w, g), segment_list_append_jump(w, g))
    # a joined level 0 that has derivatives on its forward part only reads
    # them there, where the segment lists read that level linearly
    lo = data.draw(st.floats(w.times.item(0), 0.0))
    if kind != "hermite-forward":
        assert (delayed_sq_integral([w], lo, 0.0)[0]
                == reference_delayed_sq_integral(w, lo, 0.0))


@pytest.mark.parametrize("make", [_reset_trajectory,
                                  lambda: _reset_trajectory("hermite"),
                                  _example1_trajectory],
                         ids=["example2", "example2-hermite", "example1"])
def test_window_operators_match_the_segment_references_on_runs(make):
    traj = make()
    delta = traj.memory_size
    for t, j, x in traj.sample_points():
        w = memory_window(traj.arc, t, j, delta)
        assert_same_cut(w, segment_list_memory_window(traj.arc, t, j, delta))
        assert_same_cut(append_jump(w, 0.5 * x),
                        segment_list_append_jump(w, 0.5 * x))


@settings(max_examples=40, deadline=None)
@given(random_arc())
def test_round_trip_property(arc):
    back = arc_from_csv(arc_to_csv(arc))
    for a, b in zip(arc.all_segments(), back.all_segments()):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)


@settings(max_examples=150, deadline=None)
@given(csv_arc(), st.sampled_from([None, 0.0, 0.5]), st.randoms(use_true_random=False))
def test_csv_matches_the_reference_writer_and_reader(arc, delta, random):
    """Same text as the tuple-sorting writer, unless the writer refuses the
    arc's rows near (0, 0), and the same arc (or the same error) as the
    row-by-row reader, also from the rows in any order."""
    text = reference_arc_to_csv(arc)
    try:
        assert arc_to_csv(arc) == text
    except ValueError as exc:
        assert str(exc).startswith("cannot write jump level 0 as CSV: ")
    lines = text.splitlines()
    random.shuffle(lines)
    for t in (text, "\n".join(lines)):
        assert _csv_outcome(arc_from_csv, t, delta) == \
            _csv_outcome(reference_arc_from_csv, t, delta)


def test_csv_rows_interleave_both_sides_near_zero():
    # the memory side's last level ends after the forward side starts: the
    # rows at j = 0 are not the two sides' samples one after the other
    arc = arc_of([seg(0, [-1.0, -2e-13, 7e-13], [1.0, 2.0, 3.0])],
                    [seg(0, [-6e-13, 0.0, 1.0], [4.0, 5.0, 6.0])])
    with pytest.raises(ValueError, match="jump level 0 as CSV: the memory "
                                         "side holds 2 samples within TIME_TOL"):
        arc_to_csv(arc)
    text = reference_arc_to_csv(arc)
    assert [line.split(",")[2] for line in text.splitlines()] == \
        ["1.0", "4.0", "2.0", "5.0", "3.0", "6.0"]
    assert _csv_outcome(arc_from_csv, text, None) == \
        _csv_outcome(reference_arc_from_csv, text, None)


@settings(max_examples=300, deadline=None)
@given(csv_arc())
def test_csv_writer_refuses_exactly_what_would_not_read_back(arc):
    """Either the arc round-trips bit for bit, or the writer refuses it, and
    it refuses it only when the rows it would have written read back as
    another arc (or not at all)."""
    try:
        text = arc_to_csv(arc)
    except ValueError as exc:
        assert str(exc).startswith("cannot write jump level 0 as CSV: ")
        text = reference_arc_to_csv(arc)
        try:
            back = arc_from_csv(text)
        except ValueError:
            return
        assert _samples(back) != _samples(arc)
    else:
        assert _samples(arc_from_csv(text)) == _samples(arc)


def test_csv_writer_refuses_rows_the_reader_cannot_place():
    # two memory samples within TIME_TOL of t = 0: the second one would be
    # dropped and the head would change from 3 to 2
    arc = arc_of([seg(0, [-1.0, -5e-13, 0.0], [1.0, 2.0, 3.0])])
    with pytest.raises(ValueError, match=r"cannot write jump level 0 as CSV: "
                                         r"the memory side holds 2 samples"):
        arc_to_csv(arc)
    back = arc_from_csv(reference_arc_to_csv(arc))
    assert back.memory_segments[-1].values[-1, 0] == 2.0
    with pytest.raises(ValueError, match="the forward side holds 3 samples"):
        arc_to_csv(arc_of([], [seg(0, [0.0, 5e-13, 1e-12, 1.0],
                                      [1.0, 2.0, 3.0, 4.0])]))
    # one sample per side, the memory side's after the forward side's: the
    # reader would swap them
    with pytest.raises(ValueError, match=r"memory side's sample at t = 7e-13 "
                                         r"lies after the forward side's at "
                                         r"t = -6e-13"):
        arc_to_csv(arc_of([seg(0, [-1.0, 7e-13], [1.0, 2.0])],
                             [seg(0, [-6e-13, 1.0], [3.0, 4.0])]))
    # a lone forward sample at (0, 0) would read back as a memory side, and
    # a lone memory sample there beside a forward side as a forward sample
    with pytest.raises(ValueError, match="the forward side is one sample"):
        arc_to_csv(arc_of([], [seg(0, [-1e-12], [1.0])]))
    with pytest.raises(ValueError, match="the memory side is one sample"):
        arc_to_csv(arc_of([seg(0, [0.0], [1.0])],
                             [seg(0, [0.0, 1.0], [1.0, 2.0])]))
    lone = arc_of([seg(0, [0.0], [1.0])])
    assert _samples(arc_from_csv(arc_to_csv(lone))) == _samples(lone)
    # equal times keep the memory side first and read back
    arc = arc_of([seg(0, [-1.0, 5e-13], [1.0, 2.0])],
                    [seg(0, [5e-13, 1.0], [3.0, 4.0])])
    assert _samples(arc_from_csv(arc_to_csv(arc))) == _samples(arc)


@settings(max_examples=40, deadline=None)
@given(random_arc())
def test_domain_of_valid_arc_validates(arc):
    assert validate_domain(arc) is None


@st.composite
def leveled_history(draw):
    """A History over an arc with random jump levels on both sides of 0,
    single-sample levels among them, read linearly or as Hermite with
    derivative samples on some levels only."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    n = draw(st.integers(1, 3))
    hermite = draw(st.booleans())
    span = st.sampled_from([0.0, 0.0625, 0.2, 0.37, 0.5])

    def level(j, lo, hi):
        m = 1 if hi == lo else draw(st.integers(2, 6))
        derivs = (rng.normal(size=(m, n)) if hermite and draw(st.booleans())
                  else None)
        return ArcSegment(j, np.linspace(lo, hi, m), rng.normal(size=(m, n)),
                          derivs)

    n_mem, n_fwd = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    ends = [0.0]
    for _ in range(n_mem):
        ends.insert(0, ends[0] - draw(span))
    mem = [level(k - n_mem + 1, lo, hi)
           for k, (lo, hi) in enumerate(zip(ends, ends[1:]))]
    ends = [0.0]
    for _ in range(n_fwd):
        ends.append(ends[-1] + draw(span))
    fwd = [level(j, lo, hi) for j, (lo, hi) in enumerate(zip(ends, ends[1:]))]
    arc = arc_of(mem, fwd, interpolation="hermite" if hermite else "linear")
    return History([arc], 1.0)


def _rowwise_delayed(hist, rows, s):
    """view(i).delayed(s) for each row that can read it, and the rows that
    cannot (their read precedes all stored history)."""
    got, missing = {}, []
    for i in rows:
        try:
            got[i] = hist.view(i).delayed(s)
        except InsufficientHistoryError:
            missing.append(i)
    return got, missing


@settings(max_examples=80, deadline=None)
@given(leveled_history(), st.data())
def test_batch_view_reads_like_each_view_property(hist, data):
    rows = np.arange(hist.n)
    firsts = [float(hist.times[k]) for k in hist.starts]
    # delay 0, random depths, and depths that put some row's query on a
    # level boundary or within TIME_TOL of one
    shifts = [0.0] + [-data.draw(st.floats(0.0, 2.0)) for _ in range(3)]
    for b in firsts:
        i = data.draw(st.integers(0, hist.n - 1))
        for eps in (0.0, -5e-13, 5e-13, -3e-12, 3e-12):
            s = b - float(hist.times[i]) + eps
            if s <= 0.0:
                shifts.append(s)

    batch = BatchView(hist, rows)
    assert batch.delta == 1.0
    assert batch.head.tobytes() == hist.values[:hist.n].tobytes()
    assert [(v.index, v.segment) for v in batch.views()] == \
        [(hist.view(i).index, hist.view(i).segment) for i in rows]
    for s in shifts:
        want, missing = _rowwise_delayed(hist, rows, s)
        if missing:
            with pytest.raises(InsufficientHistoryError):
                batch.delayed(s)
        if want:
            got = BatchView(hist, list(want)).delayed(s)
            assert got.tobytes() == np.array(list(want.values())).tobytes(), s
    with pytest.raises(DomainError, match="after the stored history"):
        batch.delayed(1e-9)

    # samples after the rows' own are never read: poison them (in copies,
    # since a store of one arc without room reads its arc's read-only arrays)
    cut = data.draw(st.integers(0, hist.n - 1))
    reads = {s: _rowwise_delayed(hist, range(cut + 1), s)[0] for s in shifts}
    hist.values = hist.values.copy()
    hist.values[cut + 1:] = np.inf
    if hist.derivs is not None:  # a lone arc's store holds its own (or none)
        hist.derivs = hist.derivs.copy()
        hist.derivs[cut + 1:] = -np.inf
    with np.errstate(all="raise"):
        for s, want in reads.items():
            if want:
                got = BatchView(hist, list(want)).delayed(s)
                assert got.tobytes() == np.array(list(want.values())).tobytes()


class TestBatchView:
    def test_reset_trajectory_reads_across_jump_levels(self):
        # every forward sample of a run with three resets, read at delays
        # that cross one, two and three jump levels
        traj = _reset_trajectory()
        hist = History([traj.arc], traj.memory_size)
        rows = np.arange(hist.starts[hist.n_memory], hist.n)
        for s in (0.0, -1 / 64, -0.25, -0.5, -0.6, -1.0, -1.5, -traj.memory_size):
            want, missing = _rowwise_delayed(hist, rows.tolist(), s)
            assert not missing
            got = BatchView(hist, rows).delayed(s)
            assert got.tobytes() == np.array(list(want.values())).tobytes()


def _first_error(read):
    """The DomainError read() raises, or None."""
    try:
        read()
    except DomainError as exc:
        return exc
    return None


class TestOneViewStageReads:
    """A BatchView is a WindowView over many samples: its stage views read,
    row for row, what each row's own WindowView chain reads."""

    @pytest.mark.parametrize("interpolation", ["hermite", "linear"])
    def test_stage_reads_are_each_rows_view_chain(self, interpolation):
        traj = _reset_trajectory(interpolation)
        arcs = memory_windows(traj.arc, [(0.3, 0), (1.2, 2), (1.9, 3)],
                              traj.memory_size)
        if interpolation == "hermite":  # a row without derivatives reads linearly
            phi = arcs[1]
            arcs[1] = HybridMemoryArc(phi.times, phi.values, phi.starts, phi.delta,
                                      interpolation="hermite")
            assert arcs[0].derivs is not None and arcs[2].derivs is not None
        st = History(arcs)
        index = np.arange(st.n)
        rows = st.row[np.searchsorted(st.first, index, side="right") - 1]
        local = index - st.first[st.spans[rows]]
        alone = [History([phi]) for phi in arcs]
        views = [alone[r].view(i) for r, i in zip(rows.tolist(), local.tolist())]
        heads = st.values[:st.n]
        x, y, z = 1.5 * heads + 0.25, heads - 0.125, 0.5 * heads
        starts = st.times[st.first].tolist()
        checked, raised = 0, set()
        for dt in (0.0, 1 / 256, 1 / 64):
            # delays below, at and above dt, across levels, and reads on a
            # level's first time or within TIME_TOL of one
            delays = [1e-9, -dt / 2, -dt, -dt - 1 / 128, -0.3, -0.5, -1.2]
            delays += [b - float(st.times[i]) - dt + eps for b, i in
                       zip(starts, index[::23].tolist()) for eps in (0.0, -5e-13, 5e-13)]
            for s in delays:
                chains = [v.extend(dt, x[i]) for i, v in enumerate(views)]
                errors = [_first_error(lambda c=c: c.delayed(s)) for c in chains]
                bad = [e for e in errors if e is not None]
                if bad:
                    with pytest.raises(type(bad[0]), match=re.escape(str(bad[0]))):
                        BatchView(st, index).extend(dt, x).delayed(s)
                    raised.add(type(bad[0]))
                ok = np.flatnonzero([e is None for e in errors])
                if not ok.size:
                    continue
                stage = BatchView(st, index[ok]).extend(dt, x[ok])
                other, again = stage.with_head(y[ok]), stage.extend(dt, z[ok])
                assert other.reads is stage.reads and again.reads is not stage.reads
                for got, want in ((stage, chains),
                                  (other, [c.with_head(y[i]) for i, c in enumerate(chains)]),
                                  (again, [c.extend(dt, z[i]) for i, c in enumerate(chains)])):
                    want = np.array([want[i].delayed(s) for i in ok.tolist()])
                    assert got.delayed(s).tobytes() == want.tobytes(), (dt, s)
                checked += ok.size
        assert checked > 5000 and raised == {DomainError, InsufficientHistoryError}


# ---------------------------------------------------------------------------
# One store for one arc or many: rows grown together against rows grown
# alone, a lone row grown past its room, and a lone arc's own arrays
# ---------------------------------------------------------------------------

def _store_arcs(kind):
    """Example-2 case-2 cover arcs (linear), or Hermite windows of a run
    whose history carries derivative samples."""
    if kind == "cover":
        spec, _ = build_example2(Example2Params.case2())
        return _cover_arcs(spec, 3, 60)
    from test_solver import hermite_case1_problem
    spec, init = hermite_case1_problem()
    traj = simulate(spec, init, SimOptions(t_max=1.6, step=5e-3))
    points = [(t, j) for t, j, _ in traj.sample_points()][5::11]
    return memory_windows(traj.arc, points, traj.memory_size)


def _row(st, i):
    """Row i of a store: its samples in use, as arrays, and its level starts
    from the row's first sample."""
    a, b = st.first[st.spans[i]], st.end[st.spans[i + 1] - 1]
    arrays = [None if x is None else x[a:b] for x in (st.times, st.values,
                                                      st.derivs, st.known)]
    return arrays, [s - a for s in st.starts[st.spans[i]:st.spans[i + 1]]]


class TestOneStore:
    @pytest.mark.parametrize("kind", ["cover", "hermite"])
    def test_rows_grown_together_equal_rows_grown_alone(self, kind):
        arcs = _store_arcs(kind)
        assert len(arcs) > 20 and len({phi.delta for phi in arcs}) == 1
        hermite = kind == "hermite"
        assert all((phi.interpolation == "hermite") == hermite for phi in arcs)
        delta, k = arcs[0].delta, 4
        heads = np.array([phi.head for phi in arcs])
        xs = [heads * (1.0 + 0.25 * i) for i in range(k + 1)]
        times = [i / 64 for i in range(k + 1)]
        st = History(arcs, room=k + 1)
        alone = [History([phi], room=k + 1) for phi in arcs]
        assert (st.derivs is not None) == hermite  # linear rows keep none
        for i, (t, x) in enumerate(zip(times, xs)):
            at = st.start_segments(t, x) if i == 0 else st.append_rows(t, x)
            for r, (h, phi) in enumerate(zip(alone, arcs)):
                (h.start_segment if i == 0 else h.append)(t, x[r])
                assert at[r] == st.first[st.spans[r]] + phi.n + i
                arrays, starts = _row(st, r)
                assert starts == h.starts
                for name, got, want in zip(("times", "values", "derivs", "known"),
                                           arrays, (h.times, h.values, h.derivs,
                                                    h.known)):
                    if got is not None or name in ("times", "values"):
                        assert _same_bits(got, want[:h.n]), (name, r, i)
            # the cuts, with the rows' room partly free until the last step
            got = memory_windows(st, [(r, t, 0) for r in range(len(arcs))], delta)
            for w, h in zip(got, alone):
                assert_same_store(w, memory_windows(h, [(0, t, 0)], delta)[0])
        with pytest.raises(ValueError, match="no room"):
            st.append_rows(1.0, heads)

    @pytest.mark.parametrize("interpolation", ["linear", "hermite"])
    def test_one_row_grown_past_its_room(self, interpolation):
        phi = memory_arc_from_function(lambda s: np.array([np.cos(3 * s), s]), 0.5,
                                       grid_step=1 / 64)
        phi = HybridMemoryArc(phi.times, phi.values, phi.starts, 0.5,
                              interpolation=interpolation)
        hist = History([phi], room=3)
        hist.start_segment(0.0, np.array([1.0, 0.0]))
        for i in range(1, 200):
            t = i / 128
            x = np.array([np.cos(t) * (1 + (i >= 70) + (i >= 150)), t])
            (hist.start_segment if i in (70, 150) else hist.append)(t, x)
            hist.derivs[hist.n - 1] = [-np.sin(t), 1.0]  # as the solver writes
        assert hist.times.shape[0] > 2 * (phi.n + 3)  # doubled more than once
        arc = hist.to_arc()
        assert hist.levels() == arc.levels()
        assert [s.jump_index for s in arc.forward_segments] == [0, 1, 2]
        points = [(t, j) for j, s in enumerate(arc.forward_segments)
                  for t in s.times.tolist()]
        for delta in (0.5, 0.2):
            got = memory_windows(hist, [(0, t, j) for t, j in points], delta)
            for w, want in zip(got, memory_windows(arc, points, delta), strict=True):
                assert_same_store(w, want)
        rows = np.arange(phi.n, hist.n)
        for s in (0.0, -1 / 256, -0.3, -0.5):
            want = BatchView(History([arc], 0.5), rows).delayed(s)
            assert BatchView(hist, rows).delayed(s).tobytes() == want.tobytes()

    def test_a_lone_arc_keeps_its_own_arrays(self):
        phi = _as_hermite(_store_arcs("cover")[0])
        st = History([phi])
        for name in ("times", "values", "derivs", "known"):
            got, own = getattr(st, name), getattr(phi, name)
            assert np.shares_memory(got, own) and not got.flags.writeable, name
        assert st.starts == phi.starts and st.starts is not phi.starts
        # a linear arc's store keeps no derivatives, since no read uses them
        lin = HybridMemoryArc(phi.times, phi.values, phi.starts, phi.delta,
                              phi.derivs, phi.known)
        linear = History([lin])
        assert np.shares_memory(linear.values, lin.values) and linear.derivs is None
        # growing copies the arrays: the arc's stay as they were
        st.start_segment(0.0, phi.head)
        assert not np.shares_memory(st.values, phi.values)
        assert phi.n == phi.times.shape[0] and phi.starts == st.starts[:-1]

    def test_batch_view_on_three_rows(self):
        traj = _reset_trajectory("hermite")
        points = [(0.3, 0), (1.2, 2), (1.9, 3)]
        arcs = memory_windows(traj.arc, points, traj.memory_size)
        st = History(arcs)
        index = np.arange(st.n)
        batch = BatchView(st, index)
        assert batch.floor.tolist() == np.repeat(st.spans[:-1], np.diff(st.spans)
                                                 )[batch.segment].tolist()
        rows = st.row[batch.segment]
        local = index - st.first[st.spans[rows]]
        alone = [History([phi]) for phi in arcs]
        views = [alone[r].view(i) for r, i in zip(rows.tolist(), local.tolist())]
        assert batch.head.tobytes() == np.array([v.head for v in views]).tobytes()
        for s in (0.0, -1 / 128, -0.3, -0.5):
            reachable = [i for i, v in enumerate(views)
                         if v.history.times[0] <= v.history.times[v.index] + s]
            got = BatchView(st, index[reachable]).delayed(s)
            want = np.array([views[i].delayed(s) for i in reachable])
            assert got.tobytes() == want.tobytes(), s


# ---------------------------------------------------------------------------
# The level table and search keys kept across appends, and the array level
# kernel's path for reads on each row's own level
# ---------------------------------------------------------------------------

def fresh_search(st, lv, q, side):
    """History.search on (level, time) keys made afresh from the store's
    levels and its samples in use."""
    first = np.array(st.starts, dtype=np.intp)
    keys = _pairs(np.repeat(np.arange(first.size), np.diff(first, append=st.n)),
                  st.times[:st.n])
    return np.searchsorted(keys, _pairs(lv, q), side)


def assert_table_kept(st):
    """The store's level table and search equal those of a copy that builds
    its table afresh, and the search equals keys made afresh, on queries at,
    next to and between every level's times, at its first time less
    TIME_TOL, at +-inf and NaN."""
    fresh = copy.copy(st)
    fresh._index = None
    for name in ("first", "end", "jump", "row", "spans"):
        assert getattr(st, name).tolist() == getattr(fresh, name).tolist(), name
    assert st.level_keys.tobytes() == fresh.level_keys.tobytes()
    lv, q = [], []
    for k, (a, b) in enumerate(zip(st.first.tolist(), st.end.tolist())):
        times = st.times[a:b]
        for t in np.concatenate([times, times + 1e-13, times - 1e-13,
                                 0.5 * (times[1:] + times[:-1]),
                                 [times[0] - TIME_TOL, -np.inf, np.inf, np.nan]]):
            lv.append(k)
            q.append(t)
    lv, q = np.array(lv), np.array(q)
    for side in ("left", "right"):
        want = fresh_search(st, lv, q, side)
        assert st.search(lv, q, side).tolist() == want.tolist(), side
        assert fresh.search(lv, q, side).tolist() == want.tolist(), side


def own_level_reads(st, index, fractions=(0.0, 0.3, 1.0)):
    """Read times on each sample's own level: at the sample, at fractions
    of the way back to the level's first time, and at that time less
    TIME_TOL (the level rule's edge)."""
    view = BatchView(st, index)
    t = st.times[index]
    t0 = st.times[st.first[view.segment]]
    return view, [t - f * (t - t0) for f in fractions] + [t0 - TIME_TOL]


class TestKeptLevelSearch:
    """An append, a dropped sample (n lowered) and a new level keep the
    level table and search keys what a table made afresh holds, and
    BatchView._at's path for reads on each row's own level gives its
    general path's bits."""

    @pytest.mark.parametrize("interpolation", ["linear", "hermite"])
    def test_one_row_grown_by_appends_drops_and_levels(self, interpolation):
        phi = memory_arc_from_function(lambda s: np.array([np.cos(3 * s), s]),
                                       0.5, grid_step=1 / 64)
        phi = HybridMemoryArc(phi.times, phi.values, phi.starts, 0.5,
                              interpolation=interpolation)
        hist = History([phi], room=3)
        hist.start_segment(0.0, np.array([1.0, 0.0]))
        assert_table_kept(hist)
        for i in range(1, 130):
            t = i / 128
            x = np.array([np.cos(t) * (1 + (i >= 40) + (i >= 90)), t])
            (hist.start_segment if i in (40, 90) else hist.append)(t, x)
            if i % 5 == 0:
                assert_table_kept(hist)
            if i % 7 == 0:  # a dropped step end, then a sample before it
                hist.n -= 1
                assert_table_kept(hist)
                hist.append(t - 1 / 512, x)
            hist.derivs[hist.n - 1] = [-np.sin(t), 1.0]
            assert_table_kept(hist)
        assert hist.times.shape[0] > 2 * (phi.n + 3)  # doubled more than once
        arc = hist.to_arc()
        fresh = History([arc], 0.5)
        for s in (0.0, -1 / 256, -0.3, -0.5):
            index = np.arange(phi.n, hist.n)
            ok = hist.times[index] + s >= hist.times[0]
            want = BatchView(fresh, index[ok]).delayed(s)
            assert BatchView(hist, index[ok]).delayed(s).tobytes() == want.tobytes()

    def test_rows_grown_together_keep_their_free_samples(self):
        arcs = _store_arcs("cover")
        heads = np.array([phi.head for phi in arcs])
        st = History(arcs, room=4)
        assert_table_kept(st)
        st.start_segments(0.0, heads)
        assert_table_kept(st)
        for i in range(1, 4):
            st.append_rows(i / 64, heads * (1.0 + i / 8))
            if i < 3:  # each row but the last has free samples among those in use
                assert np.isinf(st.times[st.newest()[:-1] + 1]).all()
            assert_table_kept(st)

    @pytest.mark.parametrize("kind", ["one-row", "rows-with-room"])
    def test_own_level_path_equals_the_general_path(self, kind):
        if kind == "one-row":
            traj = _reset_trajectory("hermite")
            st = History([traj.arc], traj.memory_size, room=8)
            st.append(st.times[st.n - 1] + 1 / 64, st.values[st.n - 1])
            index = np.arange(st.starts[st.n_memory], st.n)
        else:
            arcs = _store_arcs("cover")
            st = History(arcs, room=4)
            st.start_segments(0.0, np.array([phi.head for phi in arcs]))
            st.append_rows(1 / 64, np.array([phi.head for phi in arcs]))
            index = np.concatenate([st.newest(), st.newest() - 1,
                                    st.first[st.spans[1:] - 2]])
        # a row on a later level reading before its level's first time: with
        # it, a call takes the general path for every row
        later = st.spans[-1] - 1  # the last row's newest level, not its first
        assert later > st.spans[-2]
        other, other_t = st.end[later] - 1, st.times[st.first[later]] - 1e-3
        checked = 0
        for frac in ((0.0, 0.3, 1.0), (0.5, 0.99), (1.0,)):
            view, reads = own_level_reads(st, index, frac)
            for tq in reads:
                t0 = st.times[st.first[view.segment]]
                assert (tq >= t0 - TIME_TOL).all()  # the own-level path
                got = view._at(tq)
                general = BatchView(st, np.append(index, other))._at(np.append(tq, other_t))
                assert got.tobytes() == general[:-1].tobytes()
                want = np.array([st.value(t, k, i + 1, f) for t, k, i, f in zip(
                    tq.tolist(), view.segment.tolist(), index.tolist(),
                    view.floor.tolist())])
                assert got.tobytes() == want.tobytes()
                checked += tq.size
                # just past the level rule's edge, a row on a later level
                # reads the level before: the general path
                on = np.flatnonzero(view.segment > view.floor)
                past = BatchView(st, index[on])
                edge = t0[on] - 1.5 * TIME_TOL
                want = np.array([st.value(t, k, i + 1, f) for t, k, i, f in zip(
                    edge.tolist(), past.segment.tolist(), index[on].tolist(),
                    past.floor.tolist())])
                assert past._at(edge).tobytes() == want.tobytes()
                assert (want != st.values[st.first[past.segment]]).any()
                bad = tq.copy()
                bad[len(bad) // 2] = np.nan  # NaN takes the general path, and fails
                with pytest.raises(InsufficientHistoryError,
                                   match="time nan precedes all stored history"):
                    view._at(bad)
        assert checked > 100
