"""Solver tests: closed forms, an independent method-of-steps reference,
order of accuracy, event location, and the a-posteriori solution check."""

import contextlib
import dataclasses
import functools
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hymem import batch, hybrid_time, solver
from hymem.hybrid_time import (TIME_TOL, BatchView, DomainError, History,
                               HybridArc, HybridMemoryArc,
                               InsufficientHistoryError, WindowView,
                               constant_memory_arc, memory_arc_from_function,
                               validate_domain)
from hymem.solver import (EventLocationError, PreconditionError, SimOptions,
                          Termination, Trajectory, _rk4, flow_window,
                          flow_windows, locate_event, run_summary, simulate,
                          verify_solution)
from hymem.system import (DelayTerm, Example1Params, Example2Params,
                          LinearDelayConfig, SystemSpec, build_example1,
                          build_example2, build_linear_delay_system)


def decay_system():
    """dx = -x with no jumps, via the linear-delay family."""
    cfg = LinearDelayConfig(dimension=1, memory_size=0.0, a0=np.array([[-1.0]]))
    return build_linear_delay_system(cfg)


def const_history(spec, values, step=5e-3):
    return constant_memory_arc(np.asarray(values, dtype=float),
                               spec.memory_size,
                               depth=spec.memory_size + 0.5,
                               grid_step=step * 4)


def head_view(phi):
    """The window view of a memory arc at its head."""
    return History([phi], phi.delta).view()


class TestIntegrateFlowStep:
    """One integration step of the flow: flow_window with its step count
    patched to 1 is one RK4 step from the arc's head."""

    @pytest.fixture(autouse=True)
    def one_step(self, monkeypatch):
        monkeypatch.setattr(solver, "_FLOW_STEPS", 1)

    def test_rk4_value_for_exponential_decay(self):
        spec, _ = decay_system()
        phi = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
        x_new = flow_window(spec, phi, 0.1).head
        assert x_new[0] == pytest.approx(0.9048375, abs=1e-12)
        assert abs(x_new[0] - np.exp(-0.1)) < 1e-7
        x_rk4, deriv = _rk4(spec, head_view(phi), 0.1)
        assert x_rk4.tobytes() == x_new.tobytes()
        assert deriv[0] == -1.0

    def test_zero_field(self):
        cfg = LinearDelayConfig(dimension=2, memory_size=0.0,
                                a0=np.zeros((2, 2)))
        spec, _ = build_linear_delay_system(cfg)
        phi = constant_memory_arc(np.array([1.0, -2.0]), 0.0, depth=0.0)
        for h in (1e-3, 0.1, 1.0):
            x_new = flow_window(spec, phi, h).head
            assert np.array_equal(x_new, np.array([1.0, -2.0]))

    def test_constant_history_delay_reduction(self):
        # dx = a x + b c with constant history c has a closed form
        a, b, c, r = -0.8, 0.5, 2.0, 0.3
        p = Example2Params(a=a, b=b, rho=1.0, r=r, delta=10.0)
        spec, _ = build_example2(p)
        phi = const_history(spec, [c, 0.0])
        h = 0.01
        x_new = flow_window(spec, phi, h).head
        want = (c + b * c / a) * np.exp(a * h) - b * c / a
        assert x_new[0] == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("history_derivs", [True, False])
    def test_hermite_window_reads_its_steps_linearly(self, history_derivs,
                                                    monkeypatch):
        # the steps store no derivative, so a Hermite window reads between
        # them linearly, whether or not its history carries derivatives
        monkeypatch.setattr(solver, "_FLOW_STEPS", 4)
        spec, phi = hermite_case1_problem()
        if not history_derivs:
            phi = HybridMemoryArc(phi.times, phi.values, [0], phi.delta,
                                  interpolation="hermite")
        w = flow_window(spec, phi, 0.1)
        for s in np.linspace(-0.1, 0.0, 41)[1:-1]:
            want = hybrid_time._interpolate(w.times, w.values, None, s)
            assert w.delayed(s).tobytes() == want.tobytes()

    def test_outside_flow_set_rejected(self):
        p = Example2Params(a=0.0, b=0.0, rho=1.0, r=0.1, delta=0.5)
        spec, _ = build_example2(p)
        phi = const_history(spec, [1.0, 0.7])  # clock beyond the period
        with pytest.raises(PreconditionError, match="not in the flow set"):
            flow_window(spec, phi, 0.01)


def count_rk4_steps(monkeypatch):
    """Count the RK4 steps the solver takes from now on, through _rk4 and
    through the linear-delay family's matrix step."""
    calls = []
    matrix_step = solver._MatrixStep.__call__

    def counting(*args, **kwargs):
        calls.append(args[2])
        return _rk4(*args, **kwargs)

    def counting_matrix(self, window, h, k1):
        calls.append(h)
        return matrix_step(self, window, h, k1)

    monkeypatch.setattr(solver, "_rk4", counting)
    monkeypatch.setattr(solver._MatrixStep, "__call__", counting_matrix)
    return calls


def example1_at_clock(tau0):
    """Example 1 (paper parameters) from a constant history with clock tau0."""
    p = Example1Params.paper()
    spec, _ = build_example1(p)
    return p, spec, const_history(spec, [1.0, 1.0, 0.0, tau0])


class TestLocateEvent:
    def test_linear_clock_crossing(self):
        p = Example2Params(a=0.0, b=0.0, rho=1.0, r=0.1, delta=0.2)
        spec, _ = build_example2(p)
        phi = const_history(spec, [1.0, 0.15])
        t_star, x_star = locate_event(spec, head_view(phi), 0.1, guard="flow")
        assert t_star == pytest.approx(0.05, abs=2e-9)
        assert x_star[1] == pytest.approx(0.2, abs=2e-9)

    def test_no_crossing_is_an_error(self):
        p = Example2Params(a=0.0, b=0.0, rho=1.0, r=0.1, delta=0.2)
        spec, _ = build_example2(p)
        phi = const_history(spec, [1.0, 0.05])
        with pytest.raises(EventLocationError, match="flow guard does not cross"):
            locate_event(spec, head_view(phi), 0.01, guard="flow")

    def test_unknown_guard_is_rejected(self):
        spec, _ = build_example2(Example2Params.case2())
        phi = const_history(spec, [1.0, 0.0])
        with pytest.raises(ValueError, match="'flw'"):
            locate_event(spec, head_view(phi), 0.1, guard="flw")

    @staticmethod
    def ramp(jump_guard=lambda x: x - 0.3, flow_guard=lambda x: 1.0):
        """dx = 1 with the jump set {jump_guard >= 0}; flows everywhere by
        default."""
        return SystemSpec(dimension=1, memory_size=0.0,
                          flow_guard=lambda w: flow_guard(float(w.head[0])),
                          jump_guard=lambda w: jump_guard(float(w.head[0])),
                          flow_selection=lambda w: np.array([1.0]),
                          jump_selections=lambda w: [np.zeros(1)])

    def test_jump_guard_crossing(self):
        phi = constant_memory_arc(np.array([0.25]), 0.0, depth=0.0)
        t_star, x_star = locate_event(self.ramp(), head_view(phi), 0.1,
                                      guard="jump")
        assert t_star == pytest.approx(0.05, abs=2e-9)
        assert 0.25 + t_star >= 0.3 - 1e-12  # on the jump-set side
        assert x_star[0] >= 0.3 - 1e-12

    @pytest.mark.parametrize("x0, bracket", [(0.25, 0.01), (0.35, 0.1)],
                             ids=["ends-before-the-set", "starts-in-the-set"])
    def test_jump_guard_without_crossing_is_an_error(self, x0, bracket):
        phi = constant_memory_arc(np.array([x0]), 0.0, depth=0.0)
        with pytest.raises(EventLocationError, match="jump guard does not cross"):
            locate_event(self.ramp(), head_view(phi), bracket, guard="jump")

    @pytest.mark.parametrize("guard, tau0", [("flow", 0.1973), ("flow", 0.1999),
                                             ("jump", 0.195)])
    def test_returned_state_is_the_rk4_step_at_the_returned_time(self, guard, tau0):
        # example 1's flow reads no delay, so the bracket and its trials take
        # the matrix step: the crossing's state is that step's at h, and
        # RK4's stagewise one up to rounding
        _, spec, phi = example1_at_clock(tau0)
        h, x = locate_event(spec, head_view(phi), 0.005, guard=guard)
        k1 = spec.flow_selection(head_view(phi))
        want, _ = solver._MatrixStep(spec, 0.005)(head_view(phi), h, k1)
        assert x.tobytes() == want.tobytes()
        stagewise, _ = _rk4(spec, head_view(phi), h)
        assert x[3] == stagewise[3]  # the clock
        assert np.abs(x - stagewise).max() <= 8 * np.spacing(np.abs(stagewise).max())

    @pytest.mark.parametrize("tau0", [0.1951, 0.1963, 0.19775, 0.1988, 0.19999])
    def test_affine_clock_guard_takes_at_most_four_rk4_steps(self, tau0, monkeypatch):
        p, spec, phi = example1_at_clock(tau0)
        steps = count_rk4_steps(monkeypatch)
        h, x = locate_event(spec, head_view(phi), 0.005, guard="flow")
        assert len(steps) <= 4  # the bracket's end plus at most three trials
        assert 0.0 <= (p.delta - tau0) - h <= 1e-9 + 1e-15
        assert spec.flow_guard(head_view(phi).extend(h, x)) >= 0.0

    @pytest.mark.parametrize("h_bracket", [0.005, 0.003, 2.0 ** -8])
    def test_v_shaped_jump_guard_at_the_period(self, h_bracket, monkeypatch):
        # Example 1's jump guard -|period - tau| touches zero only at the
        # period; a step that ends there rounds to either side of it.
        p, spec, phi = example1_at_clock(0.2 - h_bracket)
        tol = solver.EVENT_TOL
        steps = count_rk4_steps(monkeypatch)
        h, x = locate_event(spec, head_view(phi), h_bracket, guard="jump")
        assert len(steps) <= 2 * np.ceil(np.log2(h_bracket / tol)) + 2
        assert spec.jump_guard(head_view(phi).extend(h, x)) >= -1e-7
        assert abs(x[3] - p.delta) <= tol
        assert h <= h_bracket

    @pytest.mark.parametrize("guard", ["flow", "jump"])
    def test_flat_guard_stalling_the_secant(self, guard, monkeypatch):
        # x**9 - c is flat left of its root, so the secant creeps along
        # from the left end; the midpoint steps still close the bracket.
        c = 0.3 ** 9
        if guard == "jump":
            spec = self.ramp(jump_guard=lambda x: x ** 9 - c)
        else:
            spec = self.ramp(flow_guard=lambda x: c - x ** 9)
        phi = constant_memory_arc(np.array([0.0]), 0.0, depth=0.0)
        h_bracket, tol = 0.5, solver.EVENT_TOL
        steps = count_rk4_steps(monkeypatch)
        h, x = locate_event(spec, head_view(phi), h_bracket, guard=guard)
        assert len(steps) <= 2 * np.ceil(np.log2(h_bracket / tol)) + 2
        assert len(steps) > 4  # the secant alone does not close it
        root = 0.3
        if guard == "jump":  # on the jump-set side, at most tol after the root
            assert x[0] ** 9 - c >= 0.0
            assert root - 1e-15 <= h <= root + tol
        else:  # in the flow set, at most tol before the root
            assert c - x[0] ** 9 >= 0.0
            assert root - tol <= h <= root + 1e-15

    def test_event_tolerance_is_read_when_called(self, monkeypatch):
        # the flat guard of the test above, closed to a coarser bracket
        c = 0.3 ** 9
        spec = self.ramp(jump_guard=lambda x: x ** 9 - c)
        phi = constant_memory_arc(np.array([0.0]), 0.0, depth=0.0)
        fine_steps = count_rk4_steps(monkeypatch)
        locate_event(spec, head_view(phi), 0.5, guard="jump")
        monkeypatch.setattr(solver, "EVENT_TOL", 1e-3)
        steps = count_rk4_steps(monkeypatch)
        h, x = locate_event(spec, head_view(phi), 0.5, guard="jump")
        assert x[0] ** 9 - c >= 0.0
        assert 0.3 - 1e-15 <= h <= 0.3 + 1e-3
        assert len(steps) < len(fine_steps)

    def test_bracket_beyond_two_to_the_23_ends_at_adjacent_floats(self):
        # there two adjacent floats lie more than EVENT_TOL apart, so the
        # midpoint of the last bracket is one of its ends
        root = 9e6 + 0.3
        calls = []

        def guard(x):
            calls.append(1)
            if len(calls) > 10_000:
                raise RuntimeError("event location did not end")
            return x - root

        spec = self.ramp(jump_guard=guard)
        phi = constant_memory_arc(np.array([0.0]), 0.0, depth=0.0)
        h, x = locate_event(spec, head_view(phi), 1e7, guard="jump")
        assert x[0] >= root
        assert h - np.spacing(h) <= root <= h + np.spacing(h)

    def test_tolerance_finer_than_the_floats_ends(self, monkeypatch):
        # at EVENT_TOL = 1e-300 the bracket closes to two adjacent floats,
        # where the midpoint is one of its ends; the counted guards turn a
        # loop that never ends into a failure
        spec, init = example2_problem(Example2Params.case2(), [1.0, 0.03])
        calls = []

        def counted(guard):
            def g(w):
                calls.append(1)
                if len(calls) > 10_000:
                    raise RuntimeError("event location did not end")
                return guard(w)
            return g

        spec = dataclasses.replace(spec, flow_guard=counted(spec.flow_guard),
                                   jump_guard=counted(spec.jump_guard))
        with monkeypatch.context() as m:
            m.setattr(solver, "EVENT_TOL", 1e-300)
            fine = simulate(spec, init, SimOptions(t_max=0.3, step=0.003))
        calls.clear()
        coarse = simulate(spec, init, SimOptions(t_max=0.3, step=0.003))
        assert fine.termination is coarse.termination is Termination.horizon_reached
        assert len(fine.jumps) == len(coarse.jumps) == 3
        for (t, _), (u, _) in zip(fine.jumps, coarse.jumps):
            assert abs(t - u) <= 1e-9
        assert verify_solution(spec, fine).passed

    def test_jump_spacing_equals_period_across_many_jumps(self):
        p = Example1Params.paper()
        spec, _ = build_example1(p)
        init = const_history(spec, [1.0, 1.0, 0.0, 0.0])
        traj = simulate(spec, init, SimOptions(t_max=10.5, step=5e-3))
        times = [t for t, _ in traj.jumps]
        assert len(times) >= 50
        gaps = np.diff(times[:51])
        assert np.all(np.abs(gaps - p.delta) <= 2e-9)

    @pytest.mark.parametrize("jump_priority", ["jump", "flow"])
    @pytest.mark.parametrize("tau0", [0.0, 0.0137, 0.11, 0.19999])
    def test_jump_times_match_the_closed_form(self, tau0, jump_priority):
        # The clock runs at rate 1 from tau0 and resets at the period, so
        # jump k happens at (period - tau0) + k * period.
        p, spec, init = example1_at_clock(tau0)
        opts = SimOptions(t_max=2.5, step=5e-3, jump_priority=jump_priority)
        traj = simulate(spec, init, opts)
        times = np.array([t for t, _ in traj.jumps])
        want = (p.delta - tau0) + p.delta * np.arange(len(times))
        assert len(times) == 12 + (tau0 > 0.1)
        assert np.max(np.abs(times - want)) <= solver.EVENT_TOL
        assert verify_solution(spec, traj).issues == ()


class TestSimOptions:
    @pytest.mark.parametrize("field", ["t_max", "step"])
    def test_nan_is_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must not be NaN"):
            SimOptions(**{field: float("nan")})

    def test_infinite_step_is_rejected(self):
        with pytest.raises(ValueError, match="step must be finite"):
            SimOptions(step=float("inf"))

    @pytest.mark.parametrize("step", [0.0, -0.01, 1e-13, TIME_TOL])
    def test_step_must_exceed_the_time_tolerance(self, step):
        # the solver takes a step of at most TIME_TOL for none, so a run in
        # C would stop with left_C_and_D at t = 0
        with pytest.raises(ValueError, match="step must exceed"):
            SimOptions(step=step)
        assert SimOptions(step=2 * TIME_TOL).step == 2 * TIME_TOL

    @pytest.mark.parametrize("value", [float("nan"), 2.5, 3.0, True, float("inf")])
    def test_jump_horizon_must_be_an_integer(self, value):
        # a NaN bound would never stop a clocked run
        with pytest.raises(ValueError, match="j_max must be an integer"):
            SimOptions(j_max=value)
        assert SimOptions(j_max=np.int64(3)).j_max == 3

    def test_infinite_horizon_is_bounded_by_the_jump_horizon(self):
        p, spec, init = example1_at_clock(0.0)
        traj = simulate(spec, init, SimOptions(t_max=float("inf"), j_max=3,
                                               step=5e-3))
        assert traj.termination is Termination.horizon_reached
        assert traj.j_final == 3
        assert traj.t_final == pytest.approx(3 * p.delta, abs=1e-9)

    def test_infinite_horizon_without_a_jump_period_is_rejected(self):
        # a jump-free run never advances j, so nothing would bound it; the
        # bounded flow map turns an unbounded run into a failure, not a hang
        spec, _ = decay_system()
        calls = []

        def bounded(w):
            calls.append(1)
            if len(calls) > 1000:
                raise RuntimeError("the run was not bounded")
            return spec.flow_selection(w)

        counted = dataclasses.replace(spec, flow_selection=bounded)
        init = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
        with pytest.raises(PreconditionError, match="needs a system with a jump period"):
            simulate(counted, init, SimOptions(t_max=float("inf")))
        assert calls == []


class TestSimulateClosedForms:
    def test_exponential_decay_example2_reduction(self):
        p = Example2Params(a=-1.0, b=0.0, rho=1.0, r=0.1, delta=2.0)
        spec, _ = build_example2(p)
        init = const_history(spec, [1.0, 0.0])
        traj = simulate(spec, init, SimOptions(t_max=1.0, step=1e-3))
        assert traj.termination is Termination.horizon_reached
        assert traj.arc.value(1.0)[0] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_precondition_outside_both_sets(self):
        p = Example2Params(a=-1.0, b=0.0, rho=1.0, r=0.1, delta=0.5)
        spec, _ = build_example2(p)
        init = const_history(spec, [1.0, 0.8])
        with pytest.raises(PreconditionError):
            simulate(spec, init, SimOptions(t_max=1.0, step=1e-3))

    @pytest.mark.parametrize("where, bad", [
        ("values", np.nan), ("values", np.inf), ("derivs", np.nan)])
    def test_non_finite_initial_arc_is_refused(self, where, bad):
        # a NaN head once ran to the end and failed in run_summary
        spec, init = hermite_case1_problem()
        arrays = {"values": init.values.copy(), "derivs": init.derivs.copy()}
        arrays[where][-3, 0] = bad
        init = HybridMemoryArc(init.times, starts=[0], delta=spec.memory_size,
                               interpolation="hermite", **arrays)
        with pytest.raises(PreconditionError, match="non-finite"):
            simulate(spec, init, SimOptions(t_max=0.5, step=5e-3))

    def test_fourth_order_step_convergence(self):
        spec, _ = decay_system()
        errors = []
        for step in (0.04, 0.02, 0.01):
            init = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
            traj = simulate(spec, init, SimOptions(t_max=1.0, step=step))
            errs = [abs(v[0] - np.exp(-t))
                    for t, _, v in traj.sample_points()]
            errors.append(max(errs))
        for e0, e1 in zip(errors, errors[1:]):
            assert 12.0 <= e0 / e1 <= 20.0

    def test_determinism_bit_identical(self):
        p = Example2Params.case2()
        spec, _ = build_example2(p)
        init = const_history(spec, [1.0, 0.0])
        t1 = simulate(spec, init, SimOptions(t_max=2.0, step=2e-3))
        t2 = simulate(spec, init, SimOptions(t_max=2.0, step=2e-3))
        for a, b in zip(t1.arc.all_segments(), t2.arc.all_segments()):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.values, b.values)

    def test_sampled_data_relative_decay(self):
        # from constant history ((1,1), 0, 0) the distance falls below 1e-3
        # of the initial window sup for every t + j >= 20
        p = Example1Params.paper()
        spec, target = build_example1(p)
        init = const_history(spec, [1.0, 1.0, 0.0, 0.0])
        traj = simulate(spec, init, SimOptions(t_max=4.0, step=5e-3))
        sup0 = np.sqrt(2.0)
        tail = [target.dist(x) for t, j, x in traj.sample_points()
                if t + j >= 20.0]
        assert tail and max(tail) <= 1e-3 * sup0

    def test_zeno_guard_trips(self, monkeypatch):
        # jump map keeps the clock at the period: infinitely many jumps at t=0
        p = Example2Params(a=0.0, b=0.0, rho=0.5, r=0.1, delta=0.3)
        spec, _ = build_example2(p)
        from dataclasses import replace
        stuck = replace(spec, jump_selections=lambda w: [np.array([0.5, p.delta])])
        init = const_history(spec, [1.0, p.delta])
        monkeypatch.setattr(solver, "MAX_CONSECUTIVE_JUMPS", 40)
        traj = simulate(stuck, init, SimOptions(t_max=1.0, step=1e-2))
        assert traj.termination is Termination.zeno_guard

    def test_flow_priority_flows_through_and_jumps_at_boundary(self):
        p = Example2Params(a=0.0, b=0.0, rho=0.5, r=0.1, delta=0.25)
        spec, _ = build_example2(p)
        init = const_history(spec, [1.0, 0.0])
        traj = simulate(spec, init, SimOptions(t_max=0.6, step=1e-2,
                                               jump_priority="flow"))
        assert len(traj.jumps) == 2
        assert traj.arc.forward_segments[-1].values[-1][0] == pytest.approx(0.25)


def delay_horizon_problem():
    """dx = -k x(t - r), k r = pi/2, from the history cos(k s + 0.7): its
    solution is cos(k t + 0.7)."""
    r = 0.432
    k = np.pi / (2 * r)
    cfg = LinearDelayConfig(dimension=1, memory_size=r, a0=np.array([[0.0]]),
                            flow_delayed=(DelayTerm(r, np.array([[-k]])),))
    spec, _ = build_linear_delay_system(cfg)
    init = memory_arc_from_function(lambda s: np.array([np.cos(k * s + 0.7)]),
                                    r, depth=r, grid_step=0.01)
    return spec, init


def short_delay_problem():
    """Jump-free dx = -x/2 + 3/4 x(t - 1/4) - x(t - 1/256) on a dyadic grid
    of step 1/64: the short delay reads each stage's provisional line."""
    cfg = LinearDelayConfig(
        dimension=1, memory_size=0.25, a0=np.array([[-0.5]]),
        flow_delayed=(DelayTerm(0.25, np.array([[0.75]])),
                      DelayTerm(2.0 ** -8, np.array([[-1.0]]))))
    spec, _ = build_linear_delay_system(cfg)
    init = memory_arc_from_function(lambda s: np.array([np.cos(3.0 * s)]),
                                    0.25, depth=0.25, grid_step=2.0 ** -6)
    return spec, init


class TestOneFlowSelectionPerStage:
    def test_samples_equal_a_loop_that_recomputes_the_first_stage(self):
        spec, init = short_delay_problem()
        calls = []
        counted = dataclasses.replace(
            spec, flow_selection=lambda w: calls.append(1) or spec.flow_selection(w))
        h, steps = 2.0 ** -6, 96
        traj = simulate(counted, init, SimOptions(t_max=steps * h, step=h))
        # three stages per step plus the head derivative at every stored point
        assert len(calls) == 4 * steps + 1

        hist = History([init], spec.memory_size, room=64)
        hist.start_segment(0.0, np.array(init.head, dtype=float))
        for i in range(steps):
            x_new, _ = _rk4(spec, hist.view(), h)
            hist.append((i + 1) * h, x_new)
        (want,) = hist.to_arc().forward_segments
        (got,) = traj.arc.forward_segments
        assert got.times.tobytes() == want.times.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


def hermite_delay_problem(d):
    """Jump-free dx = -x(t - d) from a cosine history with exact derivative
    samples, read as cubic Hermite."""
    cfg = LinearDelayConfig(dimension=1, memory_size=0.25, a0=np.array([[0.0]]),
                            flow_delayed=(DelayTerm(d, np.array([[-1.0]])),))
    spec, _ = build_linear_delay_system(cfg)
    times = np.linspace(-0.25, 0.0, 26)
    return spec, HybridMemoryArc(times, np.cos(3 * times)[:, None], [0], 0.25,
                                 (-3 * np.sin(3 * times))[:, None],
                                 interpolation="hermite")


class TestStoredDerivatives:
    """A stored sample's derivative is unknown until simulate stores its flow
    selection, so a delay shorter than the step reads the newest interval
    linearly, not with a derivative 0 there."""

    @pytest.mark.parametrize("d, gap, err", [
        (0.004, 2e-5, 5e-6), (0.007, 2e-5, 5e-6), (0.25, 0.0, 1e-10)])
    def test_stored_derivative_is_the_flow_selection(self, d, gap, err):
        # the gap to the flow selection on the finished window, and the error
        # of x(1) against a run at step 1e-4; a derivative 0 at the newest
        # sample gave 1.4e-3 and 8.6e-5 at d = 0.004, 6.3e-4 and 3.8e-5 at
        # d = 0.007
        spec, init = hermite_delay_problem(d)
        traj = simulate(spec, init, SimOptions(t_max=1.0, step=0.01))
        hist = History([traj.arc], traj.memory_size)
        assert hist.known[hist.starts[1]:hist.n].all()
        got = max(float(np.abs(hist.derivs[i] - spec.flow_selection(hist.view(i))).max())
                  for i in range(hist.starts[1], hist.n))
        assert got <= gap
        fine = simulate(spec, init, SimOptions(t_max=1.0, step=1e-4))
        assert abs(traj.arc.values[-1, 0] - fine.arc.values[-1, 0]) <= err


# ---------------------------------------------------------------------------
# The stored-history read and the RK4 step as first written, kept as
# references: a read sliced every level it searched and bracketed with numpy
# scalars, and each of the four stages read the stored history itself.
# ---------------------------------------------------------------------------

def reference_interpolate(times, values, derivs, t, scheme="linear"):
    if t <= times[0]:
        return values[0].copy()
    if t >= times[-1]:
        return values[-1].copy()
    i = int(np.searchsorted(times, t, side="right")) - 1
    t0, t1 = times[i], times[i + 1]
    h = t1 - t0
    if h <= 0:
        return values[i].copy()
    w = (t - t0) / h
    if scheme == "hermite" and derivs is not None:
        return hybrid_time._hermite(values[i], values[i + 1], derivs[i],
                                    derivs[i + 1], h, w)
    return hybrid_time._lerp(values[i], values[i + 1], w)


def reference_value(hist, tq, segment=None, end=None, floor=0):
    if segment is None:
        segment, end = len(hist.starts) - 1, hist.n
    times = hist.times
    if tq > times[end - 1] + TIME_TOL:
        raise DomainError(f"time {tq} is after the stored history", tq, None)
    for k in range(segment, floor - 1, -1):
        lo = hist.starts[k]
        if tq >= times[lo] - TIME_TOL:
            # a level's samples all carry a derivative or none does (a
            # linear arc's store keeps none)
            derivs = (hist.derivs[lo:end] if hist.derivs is not None and hist.known[lo]
                      else None)
            return reference_interpolate(times[lo:end], hist.values[lo:end],
                                         derivs, tq, hist.interpolation)
        end = lo
    raise InsufficientHistoryError(
        f"time {tq} precedes all stored history", tq, None)


def reference_rk4(spec, window, h, k1=None):
    f = spec.flow_selection

    def stage(dt, x):  # a view that keeps no reads
        return WindowView(window.history, window.index, window.segment, x, dt)

    x0 = np.asarray(window.head, dtype=float)
    if k1 is None:
        k1 = np.asarray(f(window), dtype=float)
    k2 = np.asarray(f(stage(h / 2, x0 + (h / 2) * k1)), dtype=float)
    k3 = np.asarray(f(stage(h / 2, x0 + (h / 2) * k2)), dtype=float)
    k4 = np.asarray(f(stage(h, x0 + h * k3)), dtype=float)
    return x0 + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), k1


@contextlib.contextmanager
def reference_reads(monkeypatch):
    """Every read and RK4 step of the solver through the references: no
    block of stage reads is built."""
    with monkeypatch.context() as m:
        m.setattr(solver, "_rk4", reference_rk4)
        m.setattr(solver._ReadAhead, "build", lambda self, t, s: None)
        m.setattr(History, "value", reference_value)
        m.setattr(hybrid_time, "_interpolate", reference_interpolate)
        yield


def count_reads(monkeypatch):
    """Lists that grow by one at each block call (the array level kernel
    on a block's stage times) and at each scalar stored read."""
    blocks, scalar = [], []
    at, value = BatchView._at, History.value

    def block_call(self, tq):
        blocks.append(tq.shape[0])
        return at(self, tq)

    def scalar_read(self, *args):
        scalar.append(args[0])
        return value(self, *args)

    monkeypatch.setattr(BatchView, "_at", block_call)
    monkeypatch.setattr(History, "value", scalar_read)
    return blocks, scalar


def in_place_problem():
    """dx = -x/2 + 3/4 x(t - 1/4) through a flow selection that writes into
    the arrays its delayed reads return, reading the one delay twice."""
    def flow_selection(w):
        x = w.delayed(-0.25)
        x *= 0.5
        x += 0.25 * w.delayed(-0.25)
        x -= 0.5 * w.head
        return x

    spec = SystemSpec(dimension=1, memory_size=0.25,
                      flow_guard=lambda w: 1.0, jump_guard=lambda w: -1.0,
                      flow_selection=flow_selection,
                      jump_selections=lambda w: [])
    return spec, memory_arc_from_function(
        lambda s: np.array([np.cos(3.0 * s)]), 0.25, depth=0.25, grid_step=0.01)


def hermite_case1_problem():
    """Example 2, case 1, from a cosine history with exact derivative
    samples, read as cubic Hermite."""
    spec, _ = build_example2(Example2Params.case1())
    times = np.linspace(-spec.memory_size, 0.0, 161)
    values = np.column_stack([np.cos(3 * times), np.zeros_like(times)])
    derivs = np.column_stack([-3 * np.sin(3 * times), np.zeros_like(times)])
    return spec, HybridMemoryArc(times, values, [0], spec.memory_size, derivs,
                                 interpolation="hermite")


def example2_problem(params, state):
    spec, _ = build_example2(params)
    return spec, const_history(spec, state)


SHARED_READ_CASES = {
    # name: (problem, options)
    "delay-horizon": (delay_horizon_problem, SimOptions(t_max=4.0, step=0.01)),
    "example2-case1": (lambda: example2_problem(Example2Params.case1(), [1.0, 0.0]),
                       SimOptions(t_max=4.0, step=5e-3)),
    "example2-case2": (lambda: example2_problem(Example2Params.case2(), [1.0, 0.03]),
                       SimOptions(t_max=1.0, step=5e-3)),
    "hermite-case1": (hermite_case1_problem, SimOptions(t_max=3.5, step=5e-3)),
    "short-delay": (short_delay_problem, SimOptions(t_max=1.5, step=2.0 ** -6)),
    "in-place": (in_place_problem, SimOptions(t_max=2.0, step=0.01)),
    # r = 0.13 is off the step grid (32.5 steps); the resets fall inside
    # blocks and at their ends
    "example2-r013": (lambda: example2_problem(
        dataclasses.replace(Example2Params.case1(), r=0.13), [1.0, 0.0]),
        SimOptions(t_max=4.0, step=4e-3)),
    # d = 0.245 is off the step grid, so the last step of a block reads the
    # newest interval, whose derivative is unknown while the block is built
    "hermite-newest": (lambda: hermite_delay_problem(0.245),
                       SimOptions(t_max=1.0, step=0.01)),
    # the last step is shortened to 0.004
    "t-max-off-grid": (delay_horizon_problem, SimOptions(t_max=1.234, step=0.01)),
    # a step that does not divide the reset period: the resets are located
    "located-resets": (lambda: example2_problem(Example2Params.case1(), [1.0, 0.0]),
                       SimOptions(t_max=3.5, step=7e-3)),
}


def same_run(a, b):
    assert (a.termination, a.jumps, a.error) == (b.termination, b.jumps, b.error)
    for x, y in zip(a.arc.forward_segments, b.arc.forward_segments,
                    strict=True):
        assert x.times.tobytes() == y.times.tobytes()
        assert x.values.tobytes() == y.values.tobytes()
        # a one-sample level outside C stores no derivative
        assert (None if x.derivs is None else x.derivs.tobytes()) == \
            (None if y.derivs is None else y.derivs.tobytes())


class TestSharedHalfStepReads:
    """The two half-step stages of a step share their stored-history reads,
    the stages of a block of steps read them in one array call per delay,
    and a read left over is one lean scalar interpolation; all give, bit for
    bit, what the references give."""

    @pytest.mark.parametrize("case", sorted(SHARED_READ_CASES))
    def test_simulate_matches_the_references(self, case, monkeypatch):
        problem, opts = SHARED_READ_CASES[case]
        spec, init = problem()
        with monkeypatch.context() as m:
            # blocks from 2 steps on, whatever they cost
            m.setattr(solver, "_MIN_STEPS", 2)
            blocks, _ = count_reads(m)
            got = simulate(spec, init, opts)
        assert blocks  # every case reads a delay longer than two steps
        with reference_reads(monkeypatch):
            want = simulate(spec, init, opts)
        same_run(got, want)
        if case.startswith(("example2", "hermite-case1", "located")):
            assert len(got.jumps) >= 3
        if case == "located-resets":
            assert any(t % 7e-3 > 1e-9 for t, _ in got.jumps)
        if case == "t-max-off-grid":
            assert got.arc.times[-1] - got.arc.times[-2] == pytest.approx(0.004)

    @pytest.mark.parametrize("case", sorted(SHARED_READ_CASES))
    def test_reads_match_the_reference_read(self, case):
        # every level a run stores, read at and next to its stored times and
        # between them, from the newest point and from views further back
        problem, opts = SHARED_READ_CASES[case]
        spec, init = problem()
        traj = simulate(spec, init, opts)
        hist = History([traj.arc], traj.memory_size)
        times = hist.times[:hist.n]
        queries = np.concatenate([times[::7] + eps for eps in
                                  (0.0, -5e-13, 5e-13, -3e-12, 3e-12)]
                                 + [0.5 * (times[1::5] + times[:-1:5])])
        views = [hist.view(i) for i in range(0, hist.n, max(1, hist.n // 9))]
        for tq in queries.tolist() + [times[0] - 1.0, times[-1] + 1.0]:
            for segment, end in [(None, None)] + [(v.segment, v.index + 1)
                                                  for v in views]:
                try:
                    want = reference_value(hist, tq, segment, end)
                except DomainError as exc:
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        hist.value(tq, segment, end)
                    continue
                assert hist.value(tq, segment, end).tobytes() == want.tobytes()

    @pytest.mark.parametrize("guard, tau0, bracket", [
        ("flow", 0.9961, 0.007), ("flow", 0.9923, 0.01),
        ("jump", 0.995, 0.005)])
    def test_locate_event_trials_match_the_references(self, guard, tau0,
                                                      bracket, monkeypatch):
        # from a stored point past a reset, so the delayed reads hit
        # stored forward samples and their derivatives
        spec, init = hermite_case1_problem()
        traj = simulate(spec, init, SimOptions(t_max=1.6, step=5e-3))
        hist = History([traj.arc], traj.memory_size)
        w = hist.view(hist.n - 1)
        w.head = np.array([w.head[0], tau0])
        trials = count_rk4_steps(monkeypatch)
        got = locate_event(spec, w, bracket, guard)
        with reference_reads(monkeypatch):
            want = locate_event(spec, w, bracket, guard)
        assert len(trials) >= 2  # the bracket's end and a trial
        assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()

    def test_block_calls_and_scalar_reads(self, monkeypatch):
        # r = 0.432 and step 0.01: a block from the step at t reads up to
        # TIME_TOL before the sample before t, t - 0.01, so its m-th step's
        # full stage qualifies while m <= 41 and it covers 42 steps; the
        # first one 43, since at t = 0 the sample before the newest is the
        # memory's last, also at 0.  Rows are keyed by read time, so where
        # t + (h + s) and (t + h) + s round alike, a block's last full-stage
        # row serves the next step's first stage: that step (t = 0.43, 0.86,
        # 1.29, 1.72) reads its half and full stages one at a time, and the
        # next block starts a step later.  At t = 2.15 the two keys differ,
        # so the first stage builds the last block (35 steps), whose last
        # row also serves the flow selection at t_max.  The matrix step
        # reads each stage time once, as _rk4's shared half-step reads do.
        # The reference stages (through _rk4, so with flow_linear=None) are
        # views of the same store, so they read its rows too; at those four
        # steps they read three stages one at a time
        spec, init = delay_horizon_problem()
        steps = 250
        opts = SimOptions(t_max=steps * 0.01, step=0.01)
        blocks, scalar = count_reads(monkeypatch)
        simulate(spec, init, opts)
        assert blocks == [3 * 43] + [3 * 42] * 4 + [3 * 35]
        assert len(scalar) == 2 * 4
        blocks.clear()
        scalar.clear()
        monkeypatch.setattr(solver, "_rk4", reference_rk4)
        simulate(dataclasses.replace(spec, flow_linear=None), init, opts)
        assert blocks == [3 * 43] + [3 * 42] * 4 + [3 * 35]
        assert len(scalar) == 3 * 4

    @pytest.mark.parametrize("case", ["example1", "example2-case2"])
    def test_no_block_without_a_long_delay(self, case, monkeypatch):
        # example 1 reads its delay at jumps only; example 2 case 2 reads
        # r = 0.05, 10 steps of 5e-3, so a block would cover 9 steps
        if case == "example1":
            _, spec, init = example1_at_clock(0.0)
        else:
            spec, init = example2_problem(Example2Params.case2(), [1.0, 0.03])
        blocks, scalar = count_reads(monkeypatch)
        traj = simulate(spec, init, SimOptions(t_max=1.0, step=5e-3))
        assert len(traj.jumps) >= 4 and blocks == []
        assert solver._MIN_STEPS > 9 and len(scalar) > (0 if case == "example1"
                                                        else 3 * 200)

    def test_reads_are_fresh_arrays(self):
        spec, init = short_delay_problem()
        view = History([init], spec.memory_size).view()
        half = view.extend(0.01, np.array([2.0]))
        other = half.with_head(np.array([3.0]))
        first = half.delayed(-0.25)
        again, shared = half.delayed(-0.25), other.delayed(-0.25)
        assert first is not again and again is not shared
        first[:] = np.nan
        assert again.tobytes() == shared.tobytes() == \
            other.delayed(-0.25).tobytes() == view.delayed(-0.24).tobytes()
        # the provisional line follows each view's own head
        assert half.delayed(-0.005)[0] != other.delayed(-0.005)[0]


#: Components that the fixed-order rule must round as numpy's elementwise
#: operations do: signed zeros, subnormals, huge values that overflow,
#: infinities and NaN.
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1.7e308, 9e307, -9e307,
           np.inf, -np.inf, np.nan, 1.0, -3.25, 7e-17]


def same_floats(a, b):
    """Bit for bit, but a NaN only as a NaN: IEEE 754 leaves the sign of the
    NaN that adding two NaNs gives open, and numpy's loops and compiled
    scalar code settle it differently (nan + (-nan))."""
    nan = np.isnan(a)
    return (a.shape == b.shape and (nan == np.isnan(b)).all()
            and a[~nan].tobytes() == b[~nan].tobytes())


def kind_of(v):
    return ("nan" if v != v else "inf" if abs(v) == np.inf else "zero" if v == 0
            else "subnormal" if abs(v) < 2.3e-308 else "finite")


class TestFixedOrderRule:
    """The matrix step's sums run in one fixed order, each operation an IEEE
    one, so their bits depend on no BLAS kernel and no numpy dispatch."""

    def test_rows_times_a_vector_are_the_ordered_sums(self):
        # against numpy's elementwise operations in the same order, over
        # the special values, so every mix of them meets in the sums
        rng = np.random.default_rng(7)
        specials = np.array(SPECIAL)
        seen = set()
        with np.errstate(all="ignore"):
            for draw in range(400):
                # every other draw takes its rows from the tiny values, so
                # zeros and subnormals come out too
                pool = specials if draw % 2 else specials[np.abs(specials) < 1e-16]
                n, width = rng.integers(1, 5), rng.integers(1, 9)
                rows = pool[rng.integers(0, len(pool), (n, width))]
                v = specials[rng.integers(0, len(SPECIAL), width + 2)]
                want = np.full(n, -0.0)
                for j in range(width):
                    want = want + rows[:, j] * v[j]
                got = np.array(solver._combine(rows.tolist(), v.tolist()))
                assert same_floats(got, want)
                seen.update(map(kind_of, got.tolist()))
        assert seen == {"nan", "inf", "zero", "subnormal", "finite"}
        # a sum of negative zeros is a negative zero, as in the arrays
        assert np.signbit(solver._combine([[0.0, 0.0]], [-1.0, -2.0])[0])

    def test_products_sum_in_order(self):
        rng = np.random.default_rng(8)
        specials = np.array(SPECIAL)
        with np.errstate(all="ignore"):
            for draw in range(200):
                n, m, k = rng.integers(1, 5, 3)
                a = rng.normal(size=(n, m))
                b = rng.normal(size=(m, k))
                if draw % 2:
                    a.flat[rng.integers(0, a.size)] = rng.choice(specials)
                want = np.empty((n, k))
                for i in range(n):
                    for j in range(k):
                        acc = a[i, 0] * b[0, j]
                        for col in range(1, m):
                            acc += a[i, col] * b[col, j]
                        want[i, j] = acc
                assert same_floats(solver._product(a, b), want)


def random_linear_delay_system(rng, delays, clocked):
    """dx = A0 x + sum_k A_k x(t - d_k) on 1 to 3 components, with a clock of
    a long period when ``clocked``, from a smooth random history."""
    n = int(rng.integers(1, 4))
    cfg = LinearDelayConfig(
        dimension=n, memory_size=max(delays), a0=rng.normal(size=(n, n)),
        flow_delayed=tuple(DelayTerm(d, rng.normal(size=(n, n))) for d in delays),
        jump_period=100.0 if clocked else None)
    spec, _ = build_linear_delay_system(cfg)
    c, w = rng.normal(size=n), rng.uniform(1.0, 5.0, size=n)

    def history(s):
        x = c * np.cos(w * s + 1.0)
        return np.append(x, 0.25 + s / 1000) if clocked else x

    return spec, memory_arc_from_function(history, spec.memory_size,
                                          depth=spec.memory_size, grid_step=0.01)


class TestMatrixStep:
    """simulate steps a linear-delay flow whose every delay is longer than the
    step by RK4's affine map, and everything else by _rk4."""

    @pytest.mark.parametrize("clocked", [False, True], ids=["unclocked", "clocked"])
    @pytest.mark.parametrize("n_delays", [1, 2, 3])
    def test_the_step_is_rk4_up_to_rounding(self, clocked, n_delays):
        rng = np.random.default_rng(10 * n_delays + clocked)
        step = 0.01
        checked = 0
        for trial in range(12):
            # one delay just above the step, the others up to 40 steps
            delays = [float(np.nextafter(step, 1.0))] + list(
                rng.uniform(1.5 * step, 0.4, n_delays - 1))
            spec, init = random_linear_delay_system(rng, delays, clocked)
            rk4_spec = dataclasses.replace(spec, flow_linear=None)
            run = simulate(rk4_spec, init, SimOptions(t_max=0.3, step=step))
            hist = History([run.arc], run.memory_size)
            view = hist.view()
            k1 = spec.flow_selection(view)
            rule = solver._step_rule(spec, step)
            assert isinstance(rule, solver._MatrixStep)
            # a full step, a short last step and an event trial's length,
            # and on a clock one where tau + h and RK4's tau + (h/6) 6 differ
            lengths = [step, 0.37 * step, 1e-7]
            if clocked:
                tau = float(view.head[-1])
                lengths += [h for h in np.linspace(1e-4, step, 4001).tolist()
                            if tau + h != tau + (h / 6.0) * 6.0][:1]
                assert len(lengths) == 4
            for h in lengths:
                got, _ = rule(view, h, k1)
                want, _ = _rk4(spec, view, h, k1)
                n = rule.n
                # the size of the terms RK4 sums: the head, and h times the
                # flow's terms at each stage
                reads = rule.reads(view, h)
                y = np.abs(np.array(reads).reshape(3, n_delays, n))
                terms = np.abs(view.head[:n]) + h * (
                    np.abs(rule.a0) @ np.abs(view.head[:n])
                    + sum(np.abs(m) @ (y[0, k] + 2 * y[1, k] + y[2, k])
                          for k, m in enumerate(rule.mats)))
                err = np.abs(got[:n] - want[:n])
                assert np.all(err <= 8 * np.finfo(float).eps * terms), (trial, h)
                if clocked:
                    assert got[n] == want[n]  # the clock keeps RK4's bits
                checked += 1
        assert checked == 12 * (3 + clocked)

    @pytest.mark.parametrize("build, state, t_max", [
        (lambda: build_example1(Example1Params.paper()), [1.0, 1.0, 0.0, 0.0], 2.0),
        (lambda: build_example2(Example2Params.case1()), [1.0, 0.0], 4.0),
        (lambda: build_example2(Example2Params.case2()), [1.0, 0.03], 1.0),
    ], ids=["example1", "example2-case1", "example2-case2"])
    def test_clock_and_jump_times_are_rk4s(self, build, state, t_max):
        spec, _ = build()
        init, opts = const_history(spec, state), SimOptions(t_max=t_max, step=5e-3)
        assert isinstance(solver._step_rule(spec, opts.step), solver._MatrixStep)
        got = simulate(spec, init, opts)
        want = simulate(dataclasses.replace(spec, flow_linear=None), init, opts)
        assert len(got.jumps) >= 3 and got.jumps == want.jumps
        assert got.arc.times.tobytes() == want.arc.times.tobytes()
        assert got.arc.starts == want.arc.starts
        assert got.arc.values[:, -1].tobytes() == want.arc.values[:, -1].tobytes()
        assert np.abs(got.arc.values - want.arc.values).max() <= 1e-13
        assert verify_solution(spec, got).passed

    @pytest.mark.parametrize("d", [2.0 ** -8, 2.0 ** -6], ids=["shorter", "equal"])
    def test_a_delay_of_at_most_a_step_keeps_rk4(self, d):
        # one delay longer than the step and one not: the run is _rk4's,
        # bit for bit, its last step shortened and its trials included
        cfg = LinearDelayConfig(
            dimension=1, memory_size=0.25, a0=np.array([[-0.5]]),
            flow_delayed=(DelayTerm(0.25, np.array([[0.75]])),
                          DelayTerm(d, np.array([[-1.0]]))),
            jump_period=0.3)
        spec, _ = build_linear_delay_system(cfg)
        init = memory_arc_from_function(lambda s: np.array([np.cos(3.0 * s), 0.0]),
                                        0.25, depth=0.25, grid_step=2.0 ** -6)
        opts = SimOptions(t_max=1.234, step=2.0 ** -6)
        assert isinstance(solver._step_rule(spec, opts.step), functools.partial)
        got = simulate(spec, init, opts)
        want = simulate(dataclasses.replace(spec, flow_linear=None), init, opts)
        assert len(got.jumps) == 4
        same_run(got, want)

    def test_a_kept_flow_linear_is_refused(self, monkeypatch):
        spec, init = delay_horizon_problem()
        doubled = lambda w: 2.0 * spec.flow_selection(w)  # noqa: E731
        opts = SimOptions(t_max=1.0, step=0.01)
        kept = dataclasses.replace(spec, flow_selection=doubled, flow_batch=None)
        with pytest.raises(ValueError, match="flow_linear disagrees with "
                                             "flow_selection"):
            simulate(kept, init, opts)
        # with flow_linear=None the run steps the replaced selection by _rk4
        rederived = dataclasses.replace(kept, flow_linear=None)
        steps = count_rk4_steps(monkeypatch)
        traj = simulate(rederived, init, opts)
        assert len(steps) == 100
        hist = History([traj.arc], traj.memory_size)
        for i in range(hist.starts[1], hist.n):
            assert traj.arc.derivs[i].tobytes() == doubled(hist.view(i)).tobytes()

    def test_a_selection_that_parts_after_the_first_step_is_refused(self):
        # g adds a term that is zero at the initial head: the two agree at
        # t = 0 and part at the first step end, where the run stops
        spec, init = delay_horizon_problem()
        x0 = init.head.copy()
        parted = dataclasses.replace(
            spec, flow_selection=lambda w: spec.flow_selection(w) + (w.head - x0),
            flow_batch=None)
        with pytest.raises(ValueError, match=r"flow_linear disagrees with "
                                             r"flow_selection by \S+ at t=0\.01;"):
            simulate(parted, init, SimOptions(t_max=1.0, step=0.01))

    def test_a_traced_flow_selection_keeps_the_matrix_step(self):
        # a wrapper that returns the same values passes the screen: the
        # steps are the unwrapped spec's, with one flow selection a step
        spec, init = delay_horizon_problem()
        calls = []
        counted = dataclasses.replace(
            spec, flow_selection=lambda w: calls.append(1) or spec.flow_selection(w))
        opts = SimOptions(t_max=1.0, step=0.01)
        got = simulate(counted, init, opts)
        same_run(got, simulate(spec, init, opts))
        assert len(calls) == 100 + 1


class TestWrongShapes:
    """A flow selection or first jump candidate not of the state's shape
    is refused, not broadcast into it."""

    def test_a_short_flow_selection_on_a_linear_system(self):
        cfg = LinearDelayConfig(dimension=2, memory_size=0.0, a0=-np.eye(2))
        spec, _ = build_linear_delay_system(cfg)
        short = dataclasses.replace(spec, flow_selection=lambda w: np.array([-w.head[0]]),
                                    flow_batch=None)
        init = constant_memory_arc(np.array([1.0, 2.0]), 0.0, depth=0.0)
        with pytest.raises(PreconditionError, match=re.escape(
                "flow_selection must return shape (2,), got (1,)")):
            simulate(short, init, SimOptions(t_max=1.0, step=0.01))

    def test_a_flow_selection_without_the_clock(self):
        # it once froze example 2's clock: the run reached t_max unjumped
        spec, init = example2_problem(Example2Params.case2(), [1.0, 0.0])
        short = dataclasses.replace(spec, flow_selection=lambda w: np.array([-w.head[0]]),
                                    flow_batch=None, flow_linear=None)
        with pytest.raises(PreconditionError, match=re.escape(
                "flow_selection must return shape (2,), got (1,)")):
            simulate(short, init, SimOptions(t_max=1.0, step=5e-3))

    def test_a_short_jump_value(self):
        # it once raised a bare IndexError
        spec, init = example2_problem(Example2Params.case2(), [1.0, 0.0])
        short = dataclasses.replace(spec, jump_selections=lambda w: [np.array([0.5])])
        with pytest.raises(PreconditionError, match=re.escape(
                "the first jump candidate must return shape (2,), got (1,)")):
            simulate(short, init, SimOptions(t_max=1.0, step=5e-3))


def long_delay_guard_system():
    """dx = 0.5 + 0.3 x(t - 0.5), reset to 0 when x(t) + x(t - 0.5) reaches
    2.5: the flow guard reads a delay of 50 steps of 0.01."""
    def flow_guard(w):
        return 2.5 - float(w.head[0]) - float(w.delayed(-0.5)[0])

    return SystemSpec(
        dimension=1, memory_size=0.5, flow_guard=flow_guard,
        jump_guard=lambda w: -flow_guard(w),
        flow_selection=lambda w: 0.5 + 0.3 * w.delayed(-0.5),
        jump_selections=lambda w: [np.array([0.0])])


class TestReadAhead:
    """The solver's table of stored reads made ahead, keyed by read time:
    guards at stored views build from it too, and it holds one block per
    delay."""

    def test_guard_built_rows_are_the_scalar_reads(self, monkeypatch):
        # the guard at each stored step end builds blocks, also at the step
        # ends that cross it and are dropped, and at the located points just
        # before a jump; a row kept past its dropped sample or past a jump
        # would differ from the run that reads one at a time
        spec = long_delay_guard_system()
        init = constant_memory_arc(np.array([1.0]), spec.memory_size)
        opts = SimOptions(t_max=12.0, step=0.01)
        with monkeypatch.context() as m:
            blocks, _ = count_reads(m)
            got = simulate(spec, init, opts)
        assert blocks
        with monkeypatch.context() as m:
            m.setattr(solver._ReadAhead, "build", lambda self, t, s: None)
            want = simulate(spec, init, opts)
        same_run(got, want)
        assert len(got.jumps) == 6
        assert all(t % 0.01 > 1e-9 for t, _ in got.jumps)  # located

    def test_rows_survive_resets_and_dropped_step_ends(self, monkeypatch):
        # a row reads nothing a jump or a dropped step end changes, so the
        # table keeps it.  Example 2 case 1 at step delta/160 resets on the
        # step grid at t = 1, 2 and 3, and the rows built before a reset
        # serve the steps after it: no block is built near one.  The guard
        # system's 6 jumps are located, so each drops a step end and moves
        # the step grid; one block is built at each located point, whose
        # rows also serve the views after the jump, and none twice at one
        # time
        built = []
        build = solver._ReadAhead.build

        def recorded(self, t, s):
            row = build(self, t, s)
            if row is not None:
                built.append(t)
            return row

        monkeypatch.setattr(solver._ReadAhead, "build", recorded)
        p = Example2Params.case1()
        spec, init = example2_problem(p, [1.0, 0.0])
        traj = simulate(spec, init, SimOptions(t_max=4.0, step=p.delta / 160))
        resets = np.array([t for t, _ in traj.jumps])
        assert resets == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)
        # blocks of 38 steps (39 at t = 0), and one of 17 at t = 3.89 that
        # ends at t_max, since _MIN_STEPS is 16
        assert len(built) == 17
        assert np.abs(np.subtract.outer(resets, built)).min() > 0.01
        built.clear()
        spec = long_delay_guard_system()
        init = constant_memory_arc(np.array([1.0]), spec.memory_size)
        traj = simulate(spec, init, SimOptions(t_max=12.0, step=0.01))
        assert len(traj.jumps) == 6 and len(built) == 30
        assert len(set(built)) == 30
        assert {t for t, _ in traj.jumps} <= set(built)

    def test_two_jumps_at_one_instant(self, monkeypatch):
        # each unit of time the clock reaches 1 and the state jumps twice at
        # that instant, the second time from the marker clock 2; the guard
        # and the flow read the delay d = 30 steps + TIME_TOL / 2.  The run
        # starts in the jump set, and the block built at t = 0 has the
        # sample before the newest at 0 too, the memory's last.  The full
        # stage of the step at t = 29 h reads TIME_TOL / 2 before 0: on the
        # newest level at 0 while the block is built, but on the level two
        # jumps above it when the step is taken.  The margin leaves that
        # row out of the block
        h = 2.0 ** -7
        d = 30 * h + TIME_TOL / 2

        def flow_guard(w):
            return min(1.0 - w.head[1], 5.0 - abs(float(w.delayed(-d)[0])))

        def jump_selections(w):
            x, clock = w.head
            return [np.array([x + 1.0, 2.0]) if clock < 1.5
                    else np.array([-0.5 * x, 0.0])]

        spec = SystemSpec(
            dimension=2, memory_size=d, flow_guard=flow_guard,
            jump_guard=lambda w: w.head[1] - 1.0,
            flow_selection=lambda w: np.array([-0.5 * w.delayed(-d)[0], 1.0]),
            jump_selections=jump_selections)
        init = constant_memory_arc(np.array([1.0, 1.0]), d)
        opts = SimOptions(t_max=2.5, step=h)
        with monkeypatch.context() as m:
            blocks, _ = count_reads(m)
            got = simulate(spec, init, opts)
        assert [t for t, _ in got.jumps] == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]
        with monkeypatch.context() as m:
            m.setattr(solver._ReadAhead, "build", lambda self, t, s: None)
            want = simulate(spec, init, opts)
        same_run(got, want)
        assert len(blocks) == 11

    def test_one_block_per_delay(self, monkeypatch):
        tables = []

        class Recorded(solver._ReadAhead):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        monkeypatch.setattr(solver, "_ReadAhead", Recorded)
        spec, init = delay_horizon_problem()
        traj = simulate(spec, init, SimOptions(t_max=30.0, step=0.01))
        assert traj.arc.n - traj.arc.starts[1] == 3001
        (table,) = tables
        (s,) = table  # the one delay, r = 0.432
        assert s == -0.432 and len(table[s]) <= 3 * 43


def delayed_guard_system(d=0.004):
    """dx = 1, reset to 0 when x(t) + x(t - d) reaches 2: both guards read a
    delay d shorter than the solver's step."""
    def flow_guard(w):
        return 2.0 - float(w.head[0]) - float(w.delayed(-d)[0])

    return SystemSpec(
        dimension=1, memory_size=d, flow_guard=flow_guard,
        jump_guard=lambda w: -flow_guard(w),
        flow_selection=lambda w: np.array([1.0]),
        jump_selections=lambda w: [np.array([0.0])])


class TestOneGuardEvaluationPerStoredPoint:
    """Both guards run once on the initial data and once per stored forward
    sample, on its stored window; a step end that crosses a guard is judged
    too before it is dropped and its crossing located."""

    @pytest.mark.parametrize("case, jump_priority", [
        ("example1", "jump"), ("example2-case1", "jump"),
        ("example2-case1", "flow"), ("delayed-guard", "jump")])
    def test_guard_calls_outside_event_location(self, case, jump_priority,
                                                monkeypatch):
        if case == "example1":
            _, spec, init = example1_at_clock(0.0)
        elif case == "example2-case1":
            spec, _ = build_example2(Example2Params.case1())
            init = const_history(spec, [1.0, 0.0])
        else:
            spec = delayed_guard_system()
            init = constant_memory_arc(np.array([0.0]), spec.memory_size)
        calls, located, counting = [], [], [True]

        def counted(guard):
            def wrapped(w):
                if counting[0]:
                    calls.append(1)
                return guard(w)
            return wrapped

        def paused(*args, **kwargs):
            located.append(args[3])
            counting[0] = False
            try:
                return locate_event(*args, **kwargs)
            finally:
                counting[0] = True

        monkeypatch.setattr(solver, "locate_event", paused)
        counted_spec = dataclasses.replace(spec,
                                           flow_guard=counted(spec.flow_guard),
                                           jump_guard=counted(spec.jump_guard))
        traj = simulate(counted_spec, init,
                        SimOptions(t_max=3.5, step=1e-2,
                                   jump_priority=jump_priority))
        stored = sum(seg.times.shape[0] for seg in traj.arc.forward_segments)
        assert traj.termination is Termination.horizon_reached
        assert len(traj.jumps) >= 3 and located
        assert len(calls) == 2 + 2 * (stored + len(located))
        if case == "delayed-guard":
            assert verify_solution(spec, traj).issues == ()


def method_of_steps_reference(a, b, r, history, t_end, rtol=1e-10, atol=1e-12):
    """Independent delay-equation reference: integrate interval by interval,
    using the previous interval's dense output as the delayed forcing."""
    pieces = []  # (t_lo, t_hi, dense solution)

    def delayed(t):
        tq = t - r
        if tq <= 0:
            return history
        for lo, hi, sol in pieces:
            if lo - 1e-12 <= tq <= hi + 1e-12:
                return float(sol(np.clip(tq, lo, hi))[0])
        raise AssertionError("query outside integrated range")

    x0 = history
    t_lo = 0.0
    while t_lo < t_end - 1e-12:
        t_hi = min(t_lo + r, t_end)
        sol = solve_ivp(lambda t, y: [a * y[0] + b * delayed(t)],
                        (t_lo, t_hi), [x0], rtol=rtol, atol=atol,
                        dense_output=True, max_step=r / 8)
        pieces.append((t_lo, t_hi, sol.sol))
        x0 = float(sol.y[0, -1])
        t_lo = t_hi

    def evaluate(t):
        if t <= 0:
            return history
        for lo, hi, sol in pieces:
            if lo - 1e-12 <= t <= hi + 1e-12:
                return float(sol(np.clip(t, lo, hi))[0])
        raise AssertionError("query outside integrated range")

    return evaluate


class TestMethodOfStepsOracle:
    def test_agreement_with_jumps_disabled(self):
        a, b, r = -1.0, 0.25, 0.1
        p = Example2Params(a=a, b=b, rho=1.0, r=r, delta=5.0)  # delta > t_max
        spec, _ = build_example2(p)
        init = const_history(spec, [1.0, 0.0], step=1e-3)
        traj = simulate(spec, init, SimOptions(t_max=1.0, step=1e-3))
        ref = method_of_steps_reference(a, b, r, 1.0, 1.0)
        worst = max(abs(v[0] - ref(t)) for t, _, v in traj.sample_points())
        assert worst <= 1e-6


class TestVerifySolution:
    def test_passes_on_solver_output(self):
        p = Example1Params.paper()
        spec, _ = build_example1(p)
        init = const_history(spec, [1.0, 1.0, 0.0, 0.0])
        traj = simulate(spec, init, SimOptions(t_max=1.0, step=5e-3))
        report = verify_solution(spec, traj)
        assert report.passed, report.issues[:3]
        assert report.derivative_points_checked > 100
        assert report.jumps_checked == len(traj.jumps)

    def test_forged_jump_value_is_flagged(self):
        p = Example1Params.paper()
        spec, _ = build_example1(p)
        init = const_history(spec, [1.0, 1.0, 0.0, 0.0])
        traj = simulate(spec, init, SimOptions(t_max=1.0, step=5e-3))
        def bump(values):
            values[0] += np.array([0.3, 0.0, 0.0, 0.0])
            return values

        forged = forge(traj, 1, bump)
        report = verify_solution(spec, forged)
        kinds = {i.kind for i in report.issues}
        assert "S2.jump_value" in kinds

    def test_forged_flow_derivative_is_flagged(self):
        spec, _ = decay_system()
        init = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
        traj = simulate(spec, init, SimOptions(t_max=1.0, step=1e-2))
        seg0 = traj.arc.forward_segments[0]
        values = seg0.values.copy()
        values[40:60] *= 1.2  # kink the stored path
        forged = Trajectory(
            arc=HybridArc(seg0.times, values, [0], 0),
            termination=traj.termination, memory_size=0.0)
        report = verify_solution(spec, forged)
        assert any(i.kind == "S1.derivative" for i in report.issues)

    def test_domain_validity_of_solver_output(self):
        p = Example2Params.case1()
        spec, _ = build_example2(p)
        init = const_history(spec, [1.0, 0.0])
        traj = simulate(spec, init, SimOptions(t_max=4.0, step=5e-3))
        assert validate_domain(traj.arc) is None
        js = [s.jump_index for s in traj.arc.forward_segments]
        assert js == list(range(len(js)))
        # each jump's time ends its pre-jump level too
        arc = traj.arc
        pre = arc.levels()[arc.n_memory:-1]
        assert len(traj.jumps) == 3
        assert traj.jumps == tuple((arc.times.item(b - 1), j)
                                   for j, (_, b) in enumerate(pre))

    def test_domain_issue(self):
        spec, _ = decay_system()
        init = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
        arc = simulate(spec, init, SimOptions(t_max=1.0, step=1e-2)).arc
        times = arc.times.copy()
        times[arc.starts[arc.n_memory]:] += 0.1
        late = HybridArc._of(times, arc.values, arc.starts, arc.n_memory,
                             arc.derivs, arc.known, arc.interpolation)
        report = verify_solution(spec, Trajectory(
            arc=late, termination=Termination.horizon_reached, memory_size=0.0))
        assert [(i.kind, i.detail) for i in report.issues] == [
            ("domain", "forward domain must start at t = 0")]


def pointwise_verify_solution(spec, traj, tol):
    """verify_solution as it was before its flow check ran in arrays: one
    window view, flow guard and flow selection per stored point."""
    issues = []
    arc = traj.arc
    msg = validate_domain(arc)
    if msg is not None:
        issues.append(solver.SolutionIssue("domain", np.nan, 0, msg, 0.0, 0.0))
    delays = [d for d in spec.meta.get("delays", ()) if d > 0]
    kinks = np.array(sorted(t_j + d for (t_j, _) in traj.jumps for d in delays))

    def stencil_has_kink(lo, hi):
        if kinks.size == 0:
            return False
        i = int(np.searchsorted(kinks, lo - 1e-12))
        return i < kinks.size and kinks[i] <= hi + 1e-12

    n_deriv = n_guard = 0
    hist = History([arc], traj.memory_size)
    for seg, start in zip(arc.forward_segments, hist.starts[hist.n_memory:]):
        times, values = seg.times, seg.values
        m = len(times)
        for i in range(m):
            t_i, j_i = float(times[i]), seg.jump_index
            w = hist.view(start + i)
            fgv = spec.flow_guard(w)
            n_guard += 1
            if fgv < -tol:
                issues.append(solver.SolutionIssue(
                    "S1.flow_set", t_i, j_i,
                    "window left the flow set on a flow segment", fgv, -tol))
            if 2 <= i < m - 2:
                hs = np.diff(times[i - 2:i + 3])
                h = hs[0]
                if h <= 0 or np.max(np.abs(hs - h)) > 1e-9 * max(1.0, h):
                    continue
                if stencil_has_kink(float(times[i - 2]), float(times[i + 2])):
                    continue
                fd = (values[i - 2] - 8 * values[i - 1] + 8 * values[i + 1]
                      - values[i + 2]) / (12 * h)
                fval = np.asarray(spec.flow_selection(w), dtype=float)
                err = float(np.linalg.norm(fd - fval))
                bound = tol * (1.0 + float(np.linalg.norm(fval)))
                n_deriv += 1
                if err > bound:
                    issues.append(solver.SolutionIssue(
                        "S1.derivative", t_i, j_i,
                        "finite-difference derivative disagrees with the "
                        "flow selection", err, bound))
    n_jumps = 0
    for pre, post, post_start in zip(arc.forward_segments, arc.forward_segments[1:],
                                     hist.starts[hist.n_memory + 1:]):
        w = hist.view(post_start - 1)
        jg = spec.jump_guard(w)
        n_jumps += 1
        if jg < -tol:
            issues.append(solver.SolutionIssue(
                "S2.jump_set", pre.hi, pre.jump_index,
                "pre-jump window is not in the jump set", jg, -tol))
        g_stored = post.values[0]
        candidates = spec.jump_selections(w)
        if candidates:
            dist = min(float(np.linalg.norm(g_stored - np.asarray(c, dtype=float)))
                       for c in candidates)
            bound = tol * (1.0 + float(np.linalg.norm(g_stored)))
            if dist > bound:
                issues.append(solver.SolutionIssue(
                    "S2.jump_value", pre.hi, pre.jump_index,
                    "post-jump value matches no jump candidate", dist, bound))
        else:
            issues.append(solver.SolutionIssue(
                "S2.jump_value", pre.hi, pre.jump_index,
                "jump recorded but the jump map offers no candidate", 0.0, 0.0))
    return solver.SolutionCheckReport(
        passed=not issues, issues=tuple(issues),
        derivative_points_checked=n_deriv,
        guard_points_checked=n_guard, jumps_checked=n_jumps)


def assert_same_report(spec, traj, exact=True, tol=solver.VERIFY_TOL):
    """verify_solution's report at VERIFY_TOL = tol equals the pointwise
    loop's: the issues in order, with kind, t, j and detail, lhs and rhs
    (bit for bit, or within 1e-12 relative when the batch flow map sums
    products of more than one term in another order), and the three
    counters.  Returns the report."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "VERIFY_TOL", tol)
        got = verify_solution(spec, traj)
    want = pointwise_verify_solution(spec, traj, tol)
    assert (got.derivative_points_checked, got.guard_points_checked,
            got.jumps_checked) == (want.derivative_points_checked,
                                   want.guard_points_checked, want.jumps_checked)
    assert got.passed == want.passed
    assert [(i.kind, i.t, i.j, i.detail) for i in got.issues] == \
        [(i.kind, i.t, i.j, i.detail) for i in want.issues]
    for a, b in zip(got.issues, want.issues):
        if exact:
            assert (a.lhs, a.rhs) == (b.lhs, b.rhs)
        else:
            assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
            assert a.rhs == pytest.approx(b.rhs, rel=1e-12)
    return got


def delay_horizon_system(t_max):
    spec, init = delay_horizon_problem()
    return spec, simulate(spec, init, SimOptions(t_max=t_max, step=0.01))


def forge(traj, index, values_of):
    """traj with forward level ``index``'s values replaced."""
    arc = traj.arc
    a, b = arc.levels()[arc.n_memory + index]
    values = arc.values.copy()
    values[a:b] = values_of(values[a:b].copy())
    return Trajectory(
        arc=HybridArc(arc.times, values, arc.starts, arc.n_memory, arc.derivs,
                      arc.known, arc.interpolation),
        termination=traj.termination,
        memory_size=traj.memory_size, error=traj.error)


class TestVerifySolutionMatchesThePointwiseLoop:
    def test_delay_horizon(self):
        spec, traj = delay_horizon_system(8.0)
        report = assert_same_report(spec, traj)
        assert report.passed
        assert report.derivative_points_checked == 797

    def test_segment_longer_than_a_chunk(self, monkeypatch):
        # 4497 checked points: at a budget of 4096 a chunk, a chunk of 4096
        # and one of 401, with forged kinks in both and across their border
        monkeypatch.setattr(batch, "_BLOCK_SAMPLES", 4096)
        spec, traj = delay_horizon_system(45.0)

        def kinks(values):
            for at in (1000, 4097, 4098, 4400):
                values[at] *= 1.01
            return values

        report = assert_same_report(spec, traj)
        assert report.passed and report.derivative_points_checked == 4497
        report = assert_same_report(spec, forge(traj, 0, kinks))
        hits = [i.t for i in report.issues if i.kind == "S1.derivative"]
        assert min(hits) < 40.9 < max(hits)

    @pytest.mark.parametrize("build, state, t_max, exact", [
        (lambda: build_example1(Example1Params.paper()), [1.0, 1.0, 0.0, 0.0],
         2.0, False),
        (lambda: build_example2(Example2Params.case1()), [1.0, 0.0], 4.0, True),
        (lambda: build_example2(Example2Params.case2()), [1.0, 0.03], 1.0, True),
    ], ids=["example1", "example2-case1", "example2-case2"])
    def test_systems_with_jumps(self, build, state, t_max, exact):
        spec, _ = build()
        traj = simulate(spec, const_history(spec, state),
                        SimOptions(t_max=t_max, step=5e-3))
        assert len(traj.jumps) >= 3
        report = assert_same_report(spec, traj, exact)
        assert report.jumps_checked == len(traj.jumps)
        # and with a tolerance so tight that most derivative points fail
        report = assert_same_report(spec, traj, exact, tol=1e-13)
        assert any(i.kind == "S1.derivative" for i in report.issues)

    def test_hermite_initial_arc(self):
        spec, init = hermite_case1_problem()
        traj = simulate(spec, init, SimOptions(t_max=3.5, step=5e-3))
        assert traj.arc.interpolation == "hermite" and len(traj.jumps) == 3
        assert_same_report(spec, traj)
        assert_same_report(spec, traj, tol=1e-12)

    @pytest.mark.parametrize("case", ["decay", "example1"])
    def test_forged_flow_value(self, case):
        if case == "decay":
            spec, _ = decay_system()
            init = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
            traj = simulate(spec, init, SimOptions(t_max=1.0, step=1e-2))
        else:
            spec, _ = build_example1(Example1Params.paper())
            traj = simulate(spec, const_history(spec, [1.0, 1.0, 0.0, 0.0]),
                            SimOptions(t_max=1.0, step=5e-3))

        def kink(values):
            values[20:30] *= 1.2
            return values

        report = assert_same_report(spec, forge(traj, 0, kink), case == "decay")
        assert sum(i.kind == "S1.derivative" for i in report.issues) >= 4

    def test_uneven_stencils_are_skipped(self):
        # steps off by 5e-8 leave their stencils out, steps off by 2e-10
        # leave them in (the uniformity test allows 1e-9 max(1, h))
        spec, _ = decay_system()
        init = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
        traj = simulate(spec, init, SimOptions(t_max=1.0, step=1e-2))
        seg0 = traj.arc.forward_segments[0]
        times = seg0.times.copy()
        times[30] += 5e-8
        times[60] += 2e-10
        jittered = Trajectory(
            arc=HybridArc(times, seg0.values, [0], 0),
            termination=traj.termination, memory_size=0.0)
        report = assert_same_report(spec, jittered)
        assert report.derivative_points_checked == 97 - 5

    def test_forged_jump_value(self):
        spec, _ = build_example1(Example1Params.paper())
        traj = simulate(spec, const_history(spec, [1.0, 1.0, 0.0, 0.0]),
                        SimOptions(t_max=1.0, step=5e-3))

        def shift(values):
            values[0] += np.array([0.3, 0.0, 0.0, 0.0])
            return values

        report = assert_same_report(spec, forge(traj, 1, shift), False)
        assert [i.kind for i in report.issues] == ["S2.jump_value"]

    def test_forged_flow_set_and_derivative_interleave(self):
        # a clock pushed past the period fails the guard at each forged
        # point, and the kink it makes fails the derivative check nearby
        spec, _ = build_example2(Example2Params.case1())
        traj = simulate(spec, const_history(spec, [1.0, 0.0]),
                        SimOptions(t_max=0.8, step=5e-3))

        def late_clock(values):
            values[50:60, 1] += 1.0
            return values

        report = assert_same_report(spec, forge(traj, 0, late_clock))
        kinds = [i.kind for i in report.issues]
        assert kinds.count("S1.flow_set") == 10
        assert "S1.derivative" in kinds
        assert kinds != sorted(kinds)  # interleaved by time, not grouped

    def test_spec_without_a_batch_map(self):
        # dx = -x(t - 0.1) written by hand: flow_batch is the default
        spec = SystemSpec(dimension=1, memory_size=0.1,
                          flow_guard=lambda w: 1.0, jump_guard=lambda w: -1.0,
                          flow_selection=lambda w: -w.delayed(-0.1),
                          jump_selections=lambda w: [],
                          meta={"delays": (0.1,)})
        init = memory_arc_from_function(lambda s: np.array([1.0 + s]), 0.1,
                                        grid_step=0.01)
        traj = simulate(spec, init, SimOptions(t_max=1.0, step=0.01))
        assert_same_report(spec, traj)
        report = assert_same_report(spec, traj, tol=1e-12)
        assert report.issues

    def test_run_that_ends_in_error(self):
        # dx = 800 x overflows about halfway, leaving inf and nan samples
        cfg = LinearDelayConfig(dimension=1, memory_size=0.0,
                                a0=np.array([[800.0]]))
        spec, _ = build_linear_delay_system(cfg)
        init = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
        with np.errstate(all="ignore"):
            traj = simulate(spec, init, SimOptions(t_max=2.0, step=1e-2))
            assert traj.termination is Termination.error
            assert not np.all(np.isfinite(traj.arc.forward_segments[0].values))
            assert_same_report(spec, traj)

    def test_constant_history_breakpoint(self):
        # the constant history meets the solution at t = 0.13, where the
        # derivative jumps; no jump puts 0.13 on the kink list
        cfg = LinearDelayConfig(dimension=1, memory_size=0.13,
                                a0=np.array([[-2.0]]),
                                flow_delayed=(DelayTerm(0.13, np.array([[1.0]])),))
        spec, _ = build_linear_delay_system(cfg)
        init = constant_memory_arc([1.0], 0.13)
        traj = simulate(spec, init, SimOptions(t_max=2.0, step=0.01))
        report = assert_same_report(spec, traj)
        assert [i.kind for i in report.issues] == ["S1.derivative"] * 3
        assert [i.t for i in report.issues] == pytest.approx([0.12, 0.13, 0.14])


class TestVerifySolutionBatchGuard:
    def test_replaced_flow_selection_is_caught(self):
        spec, traj = delay_horizon_system(1.0)
        doubled = dataclasses.replace(
            spec, flow_selection=lambda w: 2.0 * spec.flow_selection(w))
        with pytest.raises(ValueError, match="flow_batch disagrees with "
                                             "flow_selection"):
            verify_solution(doubled, traj)

    def test_rederived_batch_map_agrees(self):
        spec, traj = delay_horizon_system(1.0)
        doubled = dataclasses.replace(
            spec, flow_selection=lambda w: 2.0 * spec.flow_selection(w),
            flow_batch=None)
        report = assert_same_report(doubled, traj)
        assert not report.passed

    def test_gap_within_tolerance_passes(self):
        spec, traj = delay_horizon_system(1.0)
        nudged = dataclasses.replace(
            spec, flow_batch=lambda w: spec.flow_batch(w) * (1 + 1e-7))
        assert verify_solution(nudged, traj).passed


def sloped_arcs(r):
    """Memory arcs x(s) = c + s on [-r, 0], one per offset c."""
    return [memory_arc_from_function(lambda s, c=c: np.array([c + s]), r,
                                     depth=r, grid_step=0.01)
            for c in (1.0, 0.5, -2.0)]


class TestFlowWindowsBatchGuard:
    def test_replaced_flow_selection_is_caught(self):
        spec, _ = delay_horizon_problem()
        doubled = dataclasses.replace(
            spec, flow_selection=lambda w: 2.0 * spec.flow_selection(w))
        arcs = sloped_arcs(spec.memory_size)
        with pytest.raises(ValueError, match="flow_batch disagrees with "
                                             "flow_selection"):
            flow_windows(doubled, arcs, 0.05)
        with pytest.raises(ValueError, match="flow_batch disagrees"):
            flow_window(doubled, arcs[0], 0.05)

    def test_one_screen_call_per_call(self):
        spec, _ = delay_horizon_problem()
        calls = []
        counted = dataclasses.replace(
            spec, flow_selection=lambda w: calls.append(1) or spec.flow_selection(w))
        arcs = sloped_arcs(spec.memory_size)
        flow_windows(counted, arcs, 0.05)
        assert len(calls) == 1
        flow_windows(counted, arcs[:1], 0.05)
        assert len(calls) == 2


class TestRunSummary:
    def test_summary_fields(self):
        p = Example2Params.case2()
        spec, target = build_example2(p)
        init = const_history(spec, [1.0, 0.0])
        traj = simulate(spec, init, SimOptions(t_max=1.0, step=2e-3))
        s = run_summary(traj, target)
        assert set(s) == {"termination", "jumps", "t_final", "j_final",
                          "sup_norm_initial", "final_distW"}
        assert s["termination"] == "horizon_reached"
        assert s["sup_norm_initial"] == pytest.approx(1.0)
        assert s["jumps"] == len(traj.jumps)


class TestTerminationReason:
    def test_too_deep_delayed_read_is_reported(self):
        spec, target = decay_system()
        deep = dataclasses.replace(spec, flow_selection=lambda w: -w.delayed(-5.0))
        init = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
        traj = simulate(deep, init, SimOptions(t_max=1.0, step=0.1))
        assert traj.termination is Termination.error
        assert "time -5.0 precedes all stored history" in traj.error
        assert "t=0.0" in traj.error
        assert "error" not in run_summary(traj, target)

    def test_overflow_is_reported(self):
        spec, _ = decay_system()
        blowup = dataclasses.replace(spec, flow_selection=lambda w: 1e308 * w.head,
                                     flow_linear=None)
        init = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(blowup, init, SimOptions(t_max=0.5, step=0.1))
        # k2 = 1e308 * (1 + 0.05e308) overflows, so the first step end is
        # inf: the run stops there, at the first non-finite stored sample
        assert traj.termination is Termination.error
        assert traj.error == "non-finite state at (t=0.1, j=0)"
        assert traj.t_final == 0.1 and traj.arc.values[-1].tolist() == [np.inf]

    def test_the_run_stops_at_the_first_non_finite_step_end(self):
        # x' = 800 x + x(t - 0.1) overflows near t = 1.25: the run keeps
        # that step end as its last sample and names it.  The matrix step
        # overflows where the step end does; RK4's stages overflowed a step
        # earlier, at t = 1.24, where k4 = 800 (x0 + h k3) exceeds the
        # largest float while the step end (4.2e306) does not
        cfg = LinearDelayConfig(dimension=1, memory_size=0.1, a0=np.array([[800.0]]),
                                flow_delayed=(DelayTerm(0.1, np.array([[1.0]])),))
        spec, _ = build_linear_delay_system(cfg)
        init = constant_memory_arc(np.array([1.0]), 0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(spec, init, SimOptions(t_max=5.0, step=0.01))
        assert traj.termination is Termination.error
        assert traj.error == f"non-finite state at (t={traj.t_final}, j=0)"
        assert traj.t_final == pytest.approx(1.25)
        values = traj.arc.values
        assert np.isfinite(values[:-1]).all() and not np.isfinite(values[-1]).all()
        assert traj.arc.n == init.n + 125 + 1

    def test_a_non_finite_jump_value_stops_the_run(self):
        # x' = 1 jumps where x reaches 0.5, to +inf: the post-jump sample is
        # kept, named with its jump index, and nothing is stepped from it
        spec = SystemSpec(
            dimension=1, memory_size=0.0, flow_guard=lambda w: 0.5 - w.head[0],
            jump_guard=lambda w: w.head[0] - 0.5,
            flow_selection=lambda w: np.array([1.0]),
            jump_selections=lambda w: [np.array([np.inf])])
        init = constant_memory_arc(np.array([0.0]), 0.0, depth=0.0)
        traj = simulate(spec, init, SimOptions(t_max=2.0, step=0.1))
        assert traj.termination is Termination.error
        assert traj.j_final == 1 and traj.arc.values[-1].tolist() == [np.inf]
        assert traj.error == f"non-finite state at (t={traj.t_final}, j=1)"
        assert traj.t_final == pytest.approx(0.5)

    def test_no_error_when_the_horizon_is_reached(self):
        spec, _ = decay_system()
        init = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
        traj = simulate(spec, init, SimOptions(t_max=0.5, step=0.1))
        assert traj.termination is Termination.horizon_reached
        assert traj.error is None


class TestMemoryArcViews:
    def test_view_ignores_earlier_flow_window(self):
        p = Example2Params.case2()
        spec, _ = build_example2(p)
        phi = const_history(spec, [1.0, 0.0])
        n_stored = sum(s.times.shape[0] for s in phi.memory_segments)
        before = _rk4(spec, head_view(phi), 0.01)
        w_h = flow_window(spec, phi, 0.05)
        assert w_h.head.tobytes() != phi.head.tobytes()
        view = head_view(phi)
        assert view.history.n == n_stored
        assert view.head.tobytes() == phi.head.tobytes()
        assert view.delayed(0.0).tobytes() == phi.head.tobytes()
        after = _rk4(spec, view, 0.01)
        fresh = _rk4(spec, head_view(const_history(spec, [1.0, 0.0])), 0.01)
        for a, b, c in zip(before, after, fresh):
            assert a.tobytes() == b.tobytes() == c.tobytes()
