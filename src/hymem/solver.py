"""Event-driven integration of hybrid systems with memory.

Integrates the flow with a fixed-step classical Runge-Kutta scheme while the
memory window stays in the flow set, bisects guard crossings to locate
boundaries, applies jumps when the window is in the jump set, and records
the result as a hybrid arc (memory side = initial data, forward side =
computed solution).

The solution is built in a :class:`~hymem.hybrid_time.History`, and every
selection map and guard sees it through one window view, which exposes the
window protocol (head, delayed(s), delta) at a stored point without
materializing a memory arc.  Reads follow the maximal-jump-index rule and
agree with the formal clipped window for every delay the system declares,
because builders size the memory so declared delays stay inside it.  A
Runge-Kutta stage sees the view extended by its provisional point: delays
shorter than the stage offset read the straight line from the stored head
to that point, longer ones the stored history.  The solver is
deterministic: identical inputs produce bit-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hybrid_time import (TIME_TOL, DomainError, History, HybridArc,
                          HybridMemoryArc, WindowView, memory_window,
                          sup_norm_w, validate_domain)
from .system import SystemSpec, TargetSet


class PreconditionError(ValueError):
    """The initial data violates a solver precondition."""


class EventLocationError(RuntimeError):
    """Guard bisection failed; carries the bracketing interval."""

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


class Termination(Enum):
    horizon_reached = "horizon_reached"
    left_C_and_D = "left_C_and_D"
    zeno_guard = "zeno_guard"
    error = "error"


@dataclass(frozen=True)
class SimOptions:
    """Fixed-step integration options.

    ``jump_priority`` picks the branch taken when the window lies in both the
    flow and jump sets; ``max_consecutive_jumps`` bounds jumps at a single
    continuous time (Zeno guard).  ``guard_tol`` is the guard-value slack for
    set membership (event location places boundary times within
    ``event_tol``, which maps into guard values through the guard slope).
    """

    t_max: float = 10.0
    j_max: int = 1_000_000
    step: float = 1e-2
    event_tol: float = 1e-9
    jump_priority: str = "jump"
    max_consecutive_jumps: int = 10_000
    guard_tol: float = 1e-7

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.event_tol <= 0:
            raise ValueError("event_tol must be positive")
        if self.t_max <= 0 or self.j_max <= 0:
            raise ValueError("horizons must be positive")
        if self.jump_priority not in ("jump", "flow"):
            raise ValueError("jump_priority must be 'jump' or 'flow'")


@dataclass(frozen=True)
class Trajectory:
    """A computed solution: hybrid arc plus the reason integration stopped.

    ``error`` says what went wrong when ``termination`` is
    ``Termination.error``.
    """

    arc: HybridArc
    termination: Termination
    jumps: tuple[tuple[float, int], ...]  # (time, pre-jump index)
    memory_size: float
    error: str | None = None

    @property
    def t_final(self) -> float:
        return self.arc.forward_segments[-1].hi

    @property
    def j_final(self) -> int:
        return self.arc.forward_segments[-1].jump_index

    def sample_points(self):
        """Yield (t, j, value) over all stored forward samples in order."""
        for seg in self.arc.forward_segments:
            for t, v in zip(seg.times, seg.values):
                yield float(t), seg.jump_index, v


def run_summary(traj: Trajectory, target: TargetSet) -> dict:
    """Deterministic JSON-ready digest of a simulation run."""
    init = HybridMemoryArc(traj.arc.memory_segments, traj.memory_size,
                           traj.arc.interpolation, validate=False)
    sup0 = sup_norm_w(init, target.dist, batch=target.dist_batch)
    final = traj.arc.forward_segments[-1].values[-1]
    return {
        "termination": traj.termination.value,
        "jumps": len(traj.jumps),
        "t_final": traj.t_final,
        "j_final": traj.j_final,
        "sup_norm_initial": sup0,
        "final_distW": float(target.dist(final)),
    }


def _as_view(window) -> WindowView:
    """A window view of a memory arc at its head; views pass through."""
    if isinstance(window, WindowView):
        return window
    return History(window, window.delta, capacity=0).view()


def _rk4(spec: SystemSpec, window: WindowView,
         h: float) -> tuple[np.ndarray, np.ndarray]:
    f = spec.flow_selection
    x0 = np.asarray(window.head, dtype=float)
    k1 = np.asarray(f(window), dtype=float)
    k2 = np.asarray(f(window.extend(h / 2, x0 + (h / 2) * k1)), dtype=float)
    k3 = np.asarray(f(window.extend(h / 2, x0 + (h / 2) * k2)), dtype=float)
    k4 = np.asarray(f(window.extend(h, x0 + h * k3)), dtype=float)
    return x0 + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), k1


def integrate_flow_step(spec: SystemSpec, window, h: float,
                        guard_tol: float = 1e-7) -> tuple[np.ndarray, np.ndarray]:
    """One explicit RK4 step of the functional ODE from the window's head.

    Returns (new state sample, derivative sample at the step start).  The
    window must lie in the flow set.
    """
    if spec.flow_guard(window) < -guard_tol:
        raise PreconditionError("window is not in the flow set")
    if h <= 0:
        raise ValueError("step must be positive")
    return _rk4(spec, _as_view(window), h)


def locate_event(spec: SystemSpec, window, h_bracket: float,
                 guard: str = "flow", event_tol: float = 1e-9,
                 guard_tol: float = 1e-7) -> float:
    """Bisect the time at which the named guard crosses zero along the flow.

    The guard must change sign across (0, h_bracket]; the returned time h*
    satisfies guard(flow(h*)) >= -guard_tol with bracket width <= event_tol,
    so the accepted flow segment can end at h*.
    """
    # The flow guard crosses from inside (>= 0) to outside, the jump guard
    # from outside to inside; lo always stays on the starting side.
    crossing_down = guard == "flow"
    gfun = spec.flow_guard if crossing_down else spec.jump_guard
    window = _as_view(window)
    sign0 = gfun(window)
    x_end, _ = _rk4(spec, window, h_bracket)
    g_end = gfun(window.extend(h_bracket, x_end))
    if ((sign0 >= -guard_tol) != crossing_down
            or (g_end >= -guard_tol) == crossing_down):
        raise EventLocationError(
            f"{guard} guard does not cross in bracket (g0={sign0:.3e}, "
            f"g1={g_end:.3e})", (0.0, h_bracket))

    lo, hi = 0.0, h_bracket
    while hi - lo > event_tol:
        mid = 0.5 * (lo + hi)
        x_mid, _ = _rk4(spec, window, mid)
        g_mid = gfun(window.extend(mid, x_mid))
        if (g_mid >= 0.0) == crossing_down:
            lo = mid
        else:
            hi = mid
    return lo if crossing_down else hi


def simulate(spec: SystemSpec, init: HybridMemoryArc,
             opts: SimOptions) -> Trajectory:
    """Compute a solution from the initial memory arc.

    The initial data must be admissible for the system's memory size and lie
    in the union of the flow and jump sets.  Integration stops when t or j
    reaches its horizon, when the window leaves both sets, or when the Zeno
    guard trips.  A read outside the stored history or a non-finite state
    stops it with ``Termination.error``, and ``Trajectory.error`` says why.
    """
    if abs(init.delta - spec.memory_size) > 1e-12:
        raise PreconditionError(
            f"initial arc has memory size {init.delta}, system needs "
            f"{spec.memory_size}")
    if init.dimension != spec.dimension:
        raise PreconditionError(
            f"initial arc dimension {init.dimension} != system dimension "
            f"{spec.dimension}")

    fg0 = spec.flow_guard(init)
    jg0 = spec.jump_guard(init)
    if fg0 < -opts.guard_tol and jg0 < -opts.guard_tol:
        raise PreconditionError(
            "initial data lies outside both the flow and jump sets "
            f"(flow_guard={fg0:.3e}, jump_guard={jg0:.3e})")

    hist = History(init, spec.memory_size)
    hist.start_segment(0.0, np.array(init.head, dtype=float))
    t, j = 0.0, 0
    jumps: list[tuple[float, int]] = []
    termination = Termination.horizon_reached
    last_jump_t: float | None = None
    consecutive_jumps = 0
    error = None

    def set_head_deriv(w: WindowView) -> None:
        if spec.flow_guard(w) >= -opts.guard_tol:
            hist.derivs[hist.n - 1] = np.asarray(spec.flow_selection(w), dtype=float)

    def try_flow(w: WindowView) -> bool:
        """Advance by at most one step; True iff time progressed."""
        nonlocal t
        h = min(opts.step, opts.t_max - t)
        if h <= TIME_TOL:
            return False
        x_new, _ = _rk4(spec, w, h)
        end_w = w.extend(h, x_new)
        event_h = None
        if spec.flow_guard(end_w) < -opts.guard_tol:
            event_h = locate_event(spec, w, h, "flow", opts.event_tol,
                                   opts.guard_tol)
        elif (opts.jump_priority == "jump"
              and spec.jump_guard(w) < -opts.guard_tol
              and spec.jump_guard(end_w) >= -opts.guard_tol):
            event_h = locate_event(spec, w, h, "jump", opts.event_tol,
                                   opts.guard_tol)
        if event_h is not None:
            if event_h <= TIME_TOL:
                return False
            x_new, _ = _rk4(spec, w, event_h)
            h = event_h
        t = t + h
        hist.append(t, x_new)
        set_head_deriv(hist.view())
        return True

    try:
        set_head_deriv(hist.view())
        while True:
            if t >= opts.t_max - TIME_TOL or j >= opts.j_max:
                termination = Termination.horizon_reached
                break
            w = hist.view()
            jump_ok = spec.jump_guard(w) >= -opts.guard_tol
            flow_ok = spec.flow_guard(w) >= -opts.guard_tol

            do_jump = jump_ok and opts.jump_priority == "jump"
            if not do_jump:
                if flow_ok:
                    if try_flow(w):
                        continue
                    if t >= opts.t_max - TIME_TOL:
                        termination = Termination.horizon_reached
                        break
                    # flow cannot progress past the boundary
                    if jump_ok:
                        do_jump = True
                    else:
                        termination = Termination.left_C_and_D
                        break
                elif jump_ok:
                    do_jump = True
                else:
                    termination = Termination.left_C_and_D
                    break

            if do_jump:
                if last_jump_t is not None and abs(t - last_jump_t) <= TIME_TOL:
                    consecutive_jumps += 1
                else:
                    consecutive_jumps = 1
                last_jump_t = t
                if consecutive_jumps > opts.max_consecutive_jumps:
                    termination = Termination.zeno_guard
                    break
                candidates = spec.jump_selections(w)
                if not candidates:
                    raise PreconditionError(
                        f"jump set entered at (t={t}, j={j}) but the jump map "
                        "offers no candidate")
                g = np.array(spec.jump_choice(candidates), dtype=float)
                jumps.append((t, j))
                j += 1
                hist.start_segment(t, g)
                set_head_deriv(hist.view())
    except DomainError as exc:
        termination = Termination.error
        error = f"{type(exc).__name__} at (t={t}, j={j}): {exc}"
    arc = hist.to_arc()
    bad = [s for s in arc.forward_segments if not np.all(np.isfinite(s.values[-1]))]
    if bad:
        termination = Termination.error
        error = error or (f"non-finite state at (t={bad[0].hi}, "
                          f"j={bad[0].jump_index})")
    return Trajectory(arc=arc, termination=termination, jumps=tuple(jumps),
                      memory_size=spec.memory_size, error=error)


# ---------------------------------------------------------------------------
# A-posteriori solution check.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionIssue:
    kind: str
    t: float
    j: int
    detail: str
    lhs: float
    rhs: float


@dataclass(frozen=True)
class SolutionCheckReport:
    passed: bool
    issues: tuple[SolutionIssue, ...]
    derivative_points_checked: int
    guard_points_checked: int
    jumps_checked: int


def verify_solution(spec: SystemSpec, traj: Trajectory,
                    tol: float = 1e-4) -> SolutionCheckReport:
    """Check the stored trajectory against the solution semantics.

    Flow segments: at stored interior points with a uniform five-point
    stencil, the fourth-order finite-difference derivative must match the
    flow selection within tol * (1 + |f|), and the flow guard must be
    >= -tol at every stored point.  Jumps: the pre-jump window must satisfy
    the jump guard >= -tol and the post-jump value must match a jump
    candidate within tol * (1 + |g|).

    A state jump propagates through each declared delay d: the solution's
    derivative genuinely jumps at t_jump + d, so stencils straddling such a
    time are excluded from the derivative check (the guard check still runs
    there).
    """
    issues: list[SolutionIssue] = []
    arc = traj.arc
    msg = validate_domain(arc.domain())
    if msg is not None:
        issues.append(SolutionIssue("domain", np.nan, 0, msg, 0.0, 0.0))

    delays = [d for d in spec.meta.get("delays", ()) if d > 0]
    kinks = np.array(sorted(t_j + d for (t_j, _) in traj.jumps
                            for d in delays))

    def stencil_has_kink(lo: float, hi: float) -> bool:
        if kinks.size == 0:
            return False
        i = int(np.searchsorted(kinks, lo - 1e-12))
        return i < kinks.size and kinks[i] <= hi + 1e-12

    n_deriv = 0
    n_guard = 0
    hist = History(arc, traj.memory_size, capacity=0)
    for seg, start in zip(arc.forward_segments, hist.starts[hist.n_memory:]):
        times, values = seg.times, seg.values
        m = len(times)
        for i in range(m):
            t_i, j_i = float(times[i]), seg.jump_index
            w = hist.view(start + i)
            fgv = spec.flow_guard(w)
            n_guard += 1
            if fgv < -tol:
                issues.append(SolutionIssue(
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
                    issues.append(SolutionIssue(
                        "S1.derivative", t_i, j_i,
                        "finite-difference derivative disagrees with the "
                        "flow selection", err, bound))

    n_jumps = 0
    for pre, post, post_start in zip(arc.forward_segments, arc.forward_segments[1:],
                                     hist.starts[hist.n_memory + 1:]):
        t_jump = pre.hi
        j_pre = pre.jump_index
        w = hist.view(post_start - 1)
        jg = spec.jump_guard(w)
        n_jumps += 1
        if jg < -tol:
            issues.append(SolutionIssue(
                "S2.jump_set", t_jump, j_pre,
                "pre-jump window is not in the jump set", jg, -tol))
        g_stored = post.values[0]
        candidates = spec.jump_selections(w)
        if candidates:
            dist = min(float(np.linalg.norm(g_stored - np.asarray(c, dtype=float)))
                       for c in candidates)
            bound = tol * (1.0 + float(np.linalg.norm(g_stored)))
            if dist > bound:
                issues.append(SolutionIssue(
                    "S2.jump_value", t_jump, j_pre,
                    "post-jump value matches no jump candidate", dist, bound))
        else:
            issues.append(SolutionIssue(
                "S2.jump_value", t_jump, j_pre,
                "jump recorded but the jump map offers no candidate", 0.0, 0.0))

    return SolutionCheckReport(
        passed=not issues, issues=tuple(issues),
        derivative_points_checked=n_deriv,
        guard_points_checked=n_guard, jumps_checked=n_jumps)


def flow_window(spec: SystemSpec, phi: HybridMemoryArc, h: float,
                n_steps: int = 2, guard_tol: float = 1e-7) -> HybridMemoryArc:
    """Window reached by flowing from phi for duration h without jumping.

    Used by the functional-derivative evaluator.  Raises PreconditionError
    when phi is not in the flow set.
    """
    if spec.flow_guard(phi) < -guard_tol:
        raise PreconditionError("window is not in the flow set")
    hist = History(phi, phi.delta, capacity=n_steps + 1)
    hist.start_segment(0.0, np.array(phi.head, dtype=float))
    t = 0.0
    sub = h / n_steps
    for _ in range(n_steps):
        x_new, _ = _rk4(spec, hist.view(), sub)
        t += sub
        hist.append(t, x_new)
    return memory_window(hist.to_arc(), t, 0, phi.delta)
