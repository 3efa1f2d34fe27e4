"""Solver tests: closed forms, an independent method-of-steps reference,
order of accuracy, event location, and the a-posteriori solution check."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hymem import solver
from hymem.hybrid_time import (ArcSegment, History, HybridArc,
                               constant_memory_arc, memory_arc_from_function,
                               validate_domain)
from hymem.solver import (EventLocationError, PreconditionError, SimOptions,
                          Termination, Trajectory, _rk4, flow_window,
                          locate_event, run_summary, simulate, verify_solution)
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
    return History(phi, phi.delta).view()


class TestIntegrateFlowStep:
    """One integration step of the flow: flow_window with n_steps=1 is one
    RK4 step from the arc's head."""

    def test_rk4_value_for_exponential_decay(self):
        spec, _ = decay_system()
        phi = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
        x_new = flow_window(spec, phi, 0.1, n_steps=1).head
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
            x_new = flow_window(spec, phi, h, n_steps=1).head
            assert np.array_equal(x_new, np.array([1.0, -2.0]))

    def test_constant_history_delay_reduction(self):
        # dx = a x + b c with constant history c has a closed form
        a, b, c, r = -0.8, 0.5, 2.0, 0.3
        p = Example2Params(a=a, b=b, rho=1.0, r=r, delta=10.0)
        spec, _ = build_example2(p)
        phi = const_history(spec, [c, 0.0])
        h = 0.01
        x_new = flow_window(spec, phi, h, n_steps=1).head
        want = (c + b * c / a) * np.exp(a * h) - b * c / a
        assert x_new[0] == pytest.approx(want, abs=1e-8)

    def test_outside_flow_set_rejected(self):
        p = Example2Params(a=0.0, b=0.0, rho=1.0, r=0.1, delta=0.5)
        spec, _ = build_example2(p)
        phi = const_history(spec, [1.0, 0.7])  # clock beyond the period
        with pytest.raises(PreconditionError, match="not in the flow set"):
            flow_window(spec, phi, 0.01, n_steps=1)


def count_rk4_steps(monkeypatch):
    """Count the RK4 steps the solver takes from now on."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return _rk4(*args, **kwargs)

    monkeypatch.setattr(solver, "_rk4", counting)
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
        t_star, x_star = locate_event(spec, head_view(phi), 0.1, guard="flow",
                                      event_tol=1e-9)
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
                                      guard="jump", event_tol=1e-9)
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
        _, spec, phi = example1_at_clock(tau0)
        h, x = locate_event(spec, head_view(phi), 0.005, guard=guard)
        want, _ = _rk4(spec, head_view(phi), h)
        assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tau0", [0.1951, 0.1963, 0.19775, 0.1988, 0.19999])
    def test_affine_clock_guard_takes_at_most_four_rk4_steps(self, tau0, monkeypatch):
        p, spec, phi = example1_at_clock(tau0)
        steps = count_rk4_steps(monkeypatch)
        h, x = locate_event(spec, head_view(phi), 0.005, guard="flow",
                            event_tol=1e-9)
        assert len(steps) <= 4  # the bracket's end plus at most three trials
        assert 0.0 <= (p.delta - tau0) - h <= 1e-9 + 1e-15
        assert spec.flow_guard(head_view(phi).extend(h, x)) >= 0.0

    @pytest.mark.parametrize("h_bracket", [0.005, 0.003, 2.0 ** -8])
    def test_v_shaped_jump_guard_at_the_period(self, h_bracket, monkeypatch):
        # Example 1's jump guard -|period - tau| touches zero only at the
        # period; a step that ends there rounds to either side of it.
        p, spec, phi = example1_at_clock(0.2 - h_bracket)
        tol = 1e-9
        steps = count_rk4_steps(monkeypatch)
        h, x = locate_event(spec, head_view(phi), h_bracket, guard="jump",
                            event_tol=tol)
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
        h_bracket, tol = 0.5, 1e-9
        steps = count_rk4_steps(monkeypatch)
        h, x = locate_event(spec, head_view(phi), h_bracket, guard=guard,
                            event_tol=tol)
        assert len(steps) <= 2 * np.ceil(np.log2(h_bracket / tol)) + 2
        assert len(steps) > 4  # the secant alone does not close it
        root = 0.3
        if guard == "jump":  # on the jump-set side, at most tol after the root
            assert x[0] ** 9 - c >= 0.0
            assert root - 1e-15 <= h <= root + tol
        else:  # in the flow set, at most tol before the root
            assert c - x[0] ** 9 >= 0.0
            assert root - tol <= h <= root + 1e-15

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
        assert np.max(np.abs(times - want)) <= opts.event_tol
        assert verify_solution(spec, traj).issues == ()


class TestSimulateClosedForms:
    def test_exponential_decay_example2_reduction(self):
        p = Example2Params(a=-1.0, b=0.0, rho=1.0, r=0.1, delta=2.0)
        spec, _ = build_example2(p)
        init = const_history(spec, [1.0, 0.0])
        traj = simulate(spec, init, SimOptions(t_max=1.0, step=1e-3))
        assert traj.termination is Termination.horizon_reached
        assert traj.arc.eval(1.0, 0)[0] == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_precondition_outside_both_sets(self):
        p = Example2Params(a=-1.0, b=0.0, rho=1.0, r=0.1, delta=0.5)
        spec, _ = build_example2(p)
        init = const_history(spec, [1.0, 0.8])
        with pytest.raises(PreconditionError):
            simulate(spec, init, SimOptions(t_max=1.0, step=1e-3))

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

    def test_zeno_guard_trips(self):
        # jump map keeps the clock at the period: infinitely many jumps at t=0
        p = Example2Params(a=0.0, b=0.0, rho=0.5, r=0.1, delta=0.3)
        spec, _ = build_example2(p)
        from dataclasses import replace
        stuck = replace(spec, jump_selections=lambda w: [np.array([0.5, p.delta])])
        init = const_history(spec, [1.0, p.delta])
        traj = simulate(stuck, init, SimOptions(t_max=1.0, step=1e-2,
                                                max_consecutive_jumps=40))
        assert traj.termination is Termination.zeno_guard

    def test_flow_priority_flows_through_and_jumps_at_boundary(self):
        p = Example2Params(a=0.0, b=0.0, rho=0.5, r=0.1, delta=0.25)
        spec, _ = build_example2(p)
        init = const_history(spec, [1.0, 0.0])
        traj = simulate(spec, init, SimOptions(t_max=0.6, step=1e-2,
                                               jump_priority="flow"))
        assert len(traj.jumps) == 2
        assert traj.arc.forward_segments[-1].values[-1][0] == pytest.approx(0.25)


class TestOneFlowSelectionPerStage:
    def test_samples_equal_a_loop_that_recomputes_the_first_stage(self):
        # Jump-free dx = -x/2 + 3/4 x(t - 1/4) - x(t - 1/256) on a dyadic
        # grid: the short delay reads the stage's provisional line.
        cfg = LinearDelayConfig(
            dimension=1, memory_size=0.25, a0=np.array([[-0.5]]),
            flow_delayed=(DelayTerm(0.25, np.array([[0.75]])),
                          DelayTerm(2.0 ** -8, np.array([[-1.0]]))))
        spec, _ = build_linear_delay_system(cfg)
        calls = []
        counted = dataclasses.replace(
            spec, flow_selection=lambda w: calls.append(1) or spec.flow_selection(w))
        init = memory_arc_from_function(lambda s: np.array([np.cos(3.0 * s)]),
                                        0.25, depth=0.25, grid_step=2.0 ** -6)
        h, steps = 2.0 ** -6, 96
        traj = simulate(counted, init, SimOptions(t_max=steps * h, step=h))
        # three stages per step plus the head derivative at every stored point
        assert len(calls) == 4 * steps + 1

        hist = History(init, spec.memory_size)
        hist.start_segment(0.0, np.array(init.head, dtype=float))
        for i in range(steps):
            x_new, _ = _rk4(spec, hist.view(), h)
            hist.append((i + 1) * h, x_new)
        (want,) = hist.to_arc().forward_segments
        (got,) = traj.arc.forward_segments
        assert got.times.tobytes() == want.times.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


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
        report = verify_solution(spec, traj, tol=1e-4)
        assert report.passed, report.issues[:3]
        assert report.derivative_points_checked > 100
        assert report.jumps_checked == len(traj.jumps)

    def test_forged_jump_value_is_flagged(self):
        p = Example1Params.paper()
        spec, _ = build_example1(p)
        init = const_history(spec, [1.0, 1.0, 0.0, 0.0])
        traj = simulate(spec, init, SimOptions(t_max=1.0, step=5e-3))
        segs = list(traj.arc.forward_segments)
        bad = segs[1]
        values = bad.values.copy()
        values[0] = values[0] + np.array([0.3, 0.0, 0.0, 0.0])
        segs[1] = ArcSegment(bad.jump_index, bad.times, values, bad.derivs)
        forged = Trajectory(
            arc=HybridArc(traj.arc.memory_segments, segs, validate=False),
            termination=traj.termination, jumps=traj.jumps,
            memory_size=traj.memory_size)
        report = verify_solution(spec, forged, tol=1e-4)
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
            arc=HybridArc([], [ArcSegment(0, seg0.times, values)], validate=False),
            termination=traj.termination, jumps=(), memory_size=0.0)
        report = verify_solution(spec, forged, tol=1e-4)
        assert any(i.kind == "S1.derivative" for i in report.issues)

    def test_domain_validity_of_solver_output(self):
        p = Example2Params.case1()
        spec, _ = build_example2(p)
        init = const_history(spec, [1.0, 0.0])
        traj = simulate(spec, init, SimOptions(t_max=4.0, step=5e-3))
        assert validate_domain(traj.arc.domain()) is None
        js = [s.jump_index for s in traj.arc.forward_segments]
        assert js == list(range(len(js)))


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
        blowup = dataclasses.replace(spec, flow_selection=lambda w: 1e308 * w.head)
        init = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = simulate(blowup, init, SimOptions(t_max=0.5, step=0.1))
        assert traj.termination is Termination.error
        assert traj.error == "non-finite state at (t=0.5, j=0)"

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
