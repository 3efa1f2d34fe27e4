"""Event-driven integration of hybrid systems with memory.

Integrates the flow with a fixed-step classical Runge-Kutta scheme while the
memory window stays in the flow set, locates guard crossings within
:data:`EVENT_TOL` by a safeguarded secant (regula falsi that falls back to
the midpoint), applies jumps when the window is in the jump set, and records
the result as a hybrid arc (memory side = initial data, forward side =
computed solution).  Each guard and the flow selection are evaluated once
per stored sample, on its stored window; the stored flow selection is the
first Runge-Kutta stage of the step and of every event trial from it.  A step
end that crosses a guard is dropped and the crossing located.  So a guard
that reads delayed values judges a step end on the stored window, which
:func:`verify_solution` re-checks, not on the stage view; the two can differ
in the last bits.

The solution is built in a one-row :class:`~hymem.hybrid_time.History`,
the store every arc keeps its samples in, grown a sample at a time, and
the trajectory's arc is a copy of its samples.  Every selection map and guard sees
it through one window view, which exposes the window protocol (head,
delayed(s), delta) at a stored point without cutting a memory arc.  Reads
follow the maximal-jump-index rule, as a cut window's do, and agree with
the formal clipped window for every delay the system declares, because
builders size the memory so declared delays stay inside it.  A Runge-Kutta
stage sees the view extended by its provisional point: delays shorter than
the stage offset read the straight line from the stored head to that point,
longer ones the stored history.  The two half-step stages sit at one stage
time and share its stored-history reads, one per delay; the straight line
depends on the stage's head and is read afresh.  Every read returns a fresh
array, so a selection map may write into it.  An infinite time horizon needs
a declared jump period.  The solver is deterministic: identical inputs
produce bit-identical trajectories.

Reads made ahead (the method of steps): a stage read at a time more than
``TIME_TOL`` before the sample before the newest is final, since no later
append, dropped step end or jump changes what it reads.  So at a stored
read of a delay s that misses, the solver's table
(:class:`_ReadAhead`, carried as ``History.ahead``) reads the stages of as
many of the next steps as its step recurrence allows in one call of
:class:`~hymem.hybrid_time.BatchView`'s level kernel, bit for bit the
scalar reads, and keys each row by the time it reads, one block per delay;
every view of the store looks that time up first.  A block needs
``_MIN_STEPS`` (16) steps, since a build costs about the scalar reads of 7
(about 100 us, its level search kept across appends); a flow that reads no
stored delay builds none, and event trials and delays of at most 16 steps
read one at a time.

The step: a linear-delay flow whose every delay is longer than the step
(``SystemSpec.flow_linear``) takes RK4 as one affine map of the head and
the three stored reads of each delay (:class:`_MatrixStep`), with one
flow-selection call a step, the one stored as the sample's derivative;
every other flow takes :func:`_rk4`'s four flow-selection calls.  The two
agree up to rounding, and on a clock bit for bit.  On the delay-horizon
benchmark (one component, one delay) the matrix step makes a step cost
about 13 us on a 2-vCPU host, 1 us of it the screen of the flow selection
against the matrices, against 23 us through four flow-map calls and
their reads.  A row made ahead is copied once per view read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import repeat
from typing import Sequence

import numpy as np

from . import batch
from .batch import _blocks, memory_windows, sup_norm_w
from .hybrid_time import (TIME_TOL, BatchView, DomainError, History,
                          HybridArc, HybridMemoryArc, WindowView,
                          validate_domain)
from .system import GUARD_TOL, SystemSpec, TargetSet


class PreconditionError(ValueError):
    """The initial data violates a solver precondition."""


class EventLocationError(RuntimeError):
    """The guard does not cross in the event bracket."""


class Termination(Enum):
    horizon_reached = "horizon_reached"
    left_C_and_D = "left_C_and_D"
    zeno_guard = "zeno_guard"
    error = "error"


@dataclass(frozen=True)
class SimOptions:
    """Fixed-step integration options: what ``--t-max``, ``--j-max``,
    ``--step`` and ``--jump-priority`` (or a config's ``sim`` section) set.

    ``jump_priority`` picks the branch taken when the window lies in both the
    flow and jump sets.  Event location, the Zeno guard and set membership
    use the constants :data:`EVENT_TOL`, :data:`MAX_CONSECUTIVE_JUMPS` and
    :data:`~hymem.system.GUARD_TOL`.
    """

    t_max: float = 10.0
    j_max: int = 1_000_000
    step: float = 1e-2
    jump_priority: str = "jump"

    def __post_init__(self):
        for name in ("t_max", "step"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")
        # an infinite t_max is fine: j_max then bounds the run
        if math.isinf(self.step):
            raise ValueError("step must be finite")
        if self.step <= TIME_TOL:  # the solver treats shorter steps as none
            raise ValueError(f"step must exceed {TIME_TOL:g}, got {self.step!r}")
        # a NaN j_max would never stop a clocked run
        if isinstance(self.j_max, bool) or not isinstance(self.j_max, numbers.Integral):
            raise ValueError(f"j_max must be an integer, got {self.j_max!r}")
        if self.t_max <= 0 or self.j_max <= 0:
            raise ValueError("horizons must be positive")
        if self.jump_priority not in ("jump", "flow"):
            raise ValueError("jump_priority must be 'jump' or 'flow'")


@dataclass(frozen=True)
class Trajectory:
    """A computed solution: hybrid arc plus the reason integration stopped.

    ``error`` says what went wrong when ``termination`` is
    ``Termination.error``.  ``jumps`` is read from the arc's store, whose
    forward level k >= 1 starts at the time of jump k - 1.
    """

    arc: HybridArc
    termination: Termination
    memory_size: float
    error: str | None = None

    @property
    def jumps(self) -> tuple[tuple[float, int], ...]:
        """(time, pre-jump index) of each jump."""
        arc = self.arc
        return tuple((arc.times.item(a), j)
                     for j, a in enumerate(arc.starts[arc.n_memory + 1:]))

    @property
    def t_final(self) -> float:
        return self.arc.times.item(self.arc.n - 1)

    @property
    def j_final(self) -> int:
        return len(self.arc.starts) - self.arc.n_memory - 1

    def sample_points(self):
        """Yield (t, j, value) over all stored forward samples in order."""
        arc = self.arc
        for j, (a, b) in enumerate(arc.levels()[arc.n_memory:]):
            yield from zip(arc.times[a:b].tolist(), repeat(j), arc.values[a:b])


def run_summary(traj: Trajectory, target: TargetSet) -> dict:
    """Deterministic JSON-ready digest of a simulation run."""
    init = traj.arc.memory_side(traj.memory_size)
    sup0 = float(sup_norm_w([init], target.dist_batch)[0])
    final = traj.arc.values[traj.arc.n - 1]
    return {
        "termination": traj.termination.value,
        "jumps": len(traj.jumps),
        "t_final": traj.t_final,
        "j_final": traj.j_final,
        "sup_norm_initial": sup0,
        "final_distW": float(target.dist(final)),
    }


#: Width within which :func:`locate_event` places a guard crossing.
EVENT_TOL = 1e-9

#: Most jumps at a single continuous time before a run stops (Zeno guard).
MAX_CONSECUTIVE_JUMPS = 10_000

#: Tolerance of every check :func:`verify_solution` makes.
VERIFY_TOL = 1e-4

#: RK4 steps that :func:`flow_windows` takes over its duration.
_FLOW_STEPS = 2


def _batch_map(spec: SystemSpec):
    """The spec's batch flow map: ``flow_batch``, or when that is None,
    ``flow_selection`` on each row's own view, read when called."""
    if spec.flow_batch is not None:
        return spec.flow_batch
    return lambda w: np.array([spec.flow_selection(v) for v in w.views()],
                              dtype=float)


def _screen_batch_map(spec: SystemSpec, row: np.ndarray, view: WindowView,
                      where: str) -> None:
    """Raise ValueError when ``row``, the batch map's row of a window, and
    ``flow_selection`` on that window's own ``view`` differ by more than
    :data:`VERIFY_TOL` * (1 + |f|): a batch map left over from another flow
    selection.  ``where`` names the window in the message."""
    _screen("flow_batch", row, np.asarray(spec.flow_selection(view), dtype=float),
            where)


def _apart(row: Sequence[float], f0: Sequence[float]) -> bool:
    """Whether ``row`` and the flow selection f0 differ by more than
    :data:`VERIFY_TOL` * (1 + |f0|), in Euclidean norms."""
    return math.dist(row, f0) > VERIFY_TOL * (1.0 + math.hypot(*f0))


def _screen(field: str, row: Sequence[float], f0: Sequence[float],
            where: str) -> None:
    """Raise ValueError when ``row``, the spec's ``field`` form of the flow
    selection at a window, and the flow selection f0 there are
    :func:`_apart`.  ``where`` names the window."""
    if _apart(row, f0):
        gap = math.dist(row, f0)
        raise ValueError(
            f"{field} disagrees with flow_selection by {gap:.3e} at {where}; "
            f"dataclasses.replace keeps the old {field} unless {field}=None "
            "is passed")


def _rk4(spec: SystemSpec, window: WindowView | BatchView, h: float,
         k1: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step from the window's head; ``k1``, when given, is the flow
    selection already evaluated on this same window.  The two half-step
    stages sit at one stage time, so they share its stored-history reads.
    On a :class:`~hymem.hybrid_time.BatchView` every row steps at once
    through the batch map (:func:`_batch_map`), with the same arithmetic
    row by row."""
    many = isinstance(window, BatchView)
    f = _batch_map(spec) if many else spec.flow_selection
    x0 = np.asarray(window.head, dtype=float)
    if k1 is None:
        k1 = np.asarray(f(window), dtype=float)
    half = window.extend(h / 2, x0 + (h / 2) * k1)
    k2 = np.asarray(f(half), dtype=float)
    k3 = np.asarray(f(half.with_head(x0 + (h / 2) * k2)), dtype=float)
    k4 = np.asarray(f(window.extend(h, x0 + h * k3)), dtype=float)
    return x0 + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), k1


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product a b by column accumulation: entry (i, j) sums
    a[i, l] b[l, j] over l in order, each operation an elementwise numpy
    one, so its bits do not depend on the BLAS kernel."""
    out = a[:, :1] * b[:1]
    for col in range(1, a.shape[1]):
        out = out + a[:, col:col + 1] * b[col:col + 1]
    return out


def _combine(rows: list, v: list) -> list:
    """Each row of ``rows`` times v, on Python floats: the products of a
    row's entries and v's leading ones, summed left to right from -0.0,
    which adds as zero to every float, signed zeros and NaN included."""
    out = []
    for r in rows:
        acc = -0.0
        for a, b in zip(r, v):
            acc += a * b
        out.append(acc)
    return out


class _MatrixStep:
    """One RK4 step of a linear-delay flow (``SystemSpec.flow_linear``) as
    one affine map of the head and its stored reads.

    With Z = h A0, and y_k(0), y_k(1/2), y_k(1) the reads of the delay d_k
    at the step's three stage times, on the state x before the clock:

        x1 = Phi x0 + sum_k [B_k0 y_k(0) + B_k1/2 y_k(1/2) + B_k1 y_k(1)],

    Phi = I + Z + Z^2/2 + Z^3/6 + Z^4/24 (RK4's stability polynomial),
    B_k0 = (h/6)(I + Z + Z^2/2 + Z^3/4) A_k, B_k1/2 = (h/6)(4I + 2Z + Z^2/2)
    A_k and B_k1 = (h/6) A_k, read off the stage formulas (k2 and k3 both
    read y(1/2)).  That is RK4 up to rounding when every delay is longer
    than h, so that every stage reads the stored history, not the straight
    line to its own head.  A clock advances by (h/6) 6, RK4's own bits, so
    the jump instants of a clocked system are RK4's.

    The matrices are built by :func:`_product`, once for the run's
    ``step`` and afresh for any other length (a shortened last step, an
    event trial), and a step is one pass of Python floats over their rows
    (:func:`_combine`), so neither depends on the BLAS kernel.  The reads
    are :meth:`~hymem.hybrid_time.WindowView.delayed`'s at dt = 0, h/2 and
    h: rows made ahead, else ``History.value``, with its DomainError.
    Every step screens the flow selection k1 against A0 x0 + sum_k A_k
    y_k(0), as :func:`verify_solution` screens a kept batch map, so a
    ``flow_linear`` left over from another flow selection raises ValueError
    at the first step where the two part.
    """

    def __init__(self, spec: SystemSpec, step: float):
        a0, terms = spec.flow_linear
        self.n = a0.shape[0]
        self.clock = spec.dimension > self.n
        self.a0 = np.asarray(a0, dtype=float)
        self.mats = [np.asarray(term.matrix, dtype=float) for term in terms]
        self.delays = [-float(term.delay) for term in terms]
        self.flow_rows = np.hstack([self.a0] + self.mats).tolist()
        self.step, self.step_rows = step, None

    def covers(self) -> bool:
        """Whether every stage of a step of at most ``step`` reads each
        delay from the stored history."""
        return all(self.step + s < 0.0 for s in self.delays)

    def matrices(self, h: float) -> list:
        """The rows of [Phi, B_10, ..., B_K0, B_1(1/2), ..., B_K1] at h."""
        if h == self.step:
            if self.step_rows is None:
                self.step_rows = self.build(h)
            return self.step_rows
        return self.build(h)

    def build(self, h: float) -> list:
        """:meth:`matrices` at h, built afresh."""
        eye, z = np.eye(self.n), h * self.a0
        z2 = _product(z, z)
        z3 = _product(z2, z)
        c = h / 6.0
        phi = eye + z + z2 / 2 + z3 / 6 + _product(z3, z) / 24
        first = c * (eye + z + z2 / 2 + z3 / 4)
        half = c * (4 * eye + 2 * z + z2 / 2)
        return np.hstack(
            [phi] + [_product(first, m) for m in self.mats]
            + [_product(half, m) for m in self.mats]
            + [c * m for m in self.mats]).tolist()

    def reads(self, window: WindowView, h: float) -> list:
        """[y_1(0), ..., y_K(0), y_1(1/2), ..., y_K(1)], each on the state
        before the clock, as one list of floats.  The reads at dt = 0 are
        the window's own, which its read cache (``simulate``'s stored views
        keep one) shares with the flow selection."""
        hist, n = window.history, self.n
        out = []
        for s in self.delays:
            out += window.delayed(s).tolist()[:n]
        t = hist.times.item(window.index)
        ahead = hist.ahead
        for dt in (h / 2, h):
            for s in self.delays:
                q = dt + s
                y = None if ahead is None else ahead.row(t, q, s, False)
                if y is None:
                    y = hist.value(t + q, window.segment, window.index + 1,
                                   window.floor)
                out += y.tolist()[:n]
        return out

    def __call__(self, window: WindowView, h: float,
                 k1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The state h after the window's head, and k1 (the flow selection
        on the window) as given."""
        n = self.n
        x0 = window.head.tolist()
        v = x0[:n]
        if self.delays:
            v += self.reads(window, h)
        f = _combine(self.flow_rows, v)
        if self.clock:
            f.append(1.0)
        f0 = k1.tolist()
        if _apart(f, f0):
            t = window.history.times.item(window.index)
            _screen("flow_linear", f, f0, f"t={t}")
        x1 = _combine(self.matrices(h), v)
        if self.clock:
            x1.append(x0[n] + (h / 6.0) * 6.0)
        return np.array(x1), k1


def _step_rule(spec: SystemSpec, step: float):
    """The RK4 step that :func:`simulate` takes at the step length
    ``step``, and at every shorter one of the run: a callable (window, h,
    k1) -> (the state h later, k1).  It is the matrix step of the spec's
    ``flow_linear`` (:class:`_MatrixStep`) when every flow delay is longer
    than ``step``, else :func:`_rk4`."""
    if spec.flow_linear is not None:
        rule = _MatrixStep(spec, step)
        if rule.covers():
            return rule
    return partial(_rk4, spec)


def locate_event(spec: SystemSpec, window: WindowView, h_bracket: float,
                 guard: str = "flow", k1: np.ndarray | None = None,
                 x_end: np.ndarray | None = None,
                 step: float | None = None) -> tuple[float, np.ndarray]:
    """Locate the time at which the named guard crosses zero along the flow.

    The guard ("flow" or "jump") must change sign across (0, h_bracket].
    Each trial shrinks the bracket: it is the secant root of the guard
    values at the bracket's ends, kept at least EVENT_TOL / 2 inside it
    (regula falsi), or the midpoint when the previous secant trial did not
    halve the bracket or the secant has no finite root.  An affine guard
    closes in two or three trials, any guard in at most about twice the
    trials of bisection.  Returns (h*, x*), x* the flow state at h*: the
    final bracket is at most :data:`EVENT_TOL` wide, or two adjacent floats
    when they are wider (a bracket above 2^23), and h* is its end on the flow
    set's side for the flow guard and on the jump set's side for the jump
    guard, so guard(x*) >= -GUARD_TOL (:data:`~hymem.system.GUARD_TOL`,
    the one guard slack) and the accepted flow segment can end at h*.
    ``k1`` (the flow selection on the window) and ``x_end`` (the RK4 state
    at h_bracket) may be passed when already computed.  Every trial takes
    the RK4 step (:func:`_step_rule`) of a run whose step length is
    ``step`` (at least h_bracket, and by default h_bracket);
    :func:`simulate` passes its own, so that a shortened step's trials
    step as its bracket did.
    """
    if guard not in ("flow", "jump"):
        raise ValueError(f"guard must be 'flow' or 'jump', not {guard!r}")
    # The flow guard crosses from inside (>= 0) to outside, the jump guard
    # from outside to inside; lo always stays on the starting side.
    crossing_down = guard == "flow"
    gfun = spec.flow_guard if crossing_down else spec.jump_guard
    step_rule = _step_rule(spec, h_bracket if step is None else max(step, h_bracket))
    k1 = np.asarray(spec.flow_selection(window) if k1 is None else k1, dtype=float)
    if x_end is None:
        x_end, _ = step_rule(window, h_bracket, k1)
    g_lo = gfun(window)
    g_hi = gfun(window.extend(h_bracket, x_end))
    if ((g_lo >= -GUARD_TOL) != crossing_down
            or (g_hi >= -GUARD_TOL) == crossing_down):
        raise EventLocationError(
            f"{guard} guard does not cross in bracket (g0={g_lo:.3e}, "
            f"g1={g_hi:.3e})")

    lo, hi = 0.0, h_bracket
    x_lo, x_hi = np.array(window.head, dtype=float), x_end
    secant_stalled = False
    while hi - lo > EVENT_TOL:
        width = hi - lo
        ratio = g_lo / (g_lo - g_hi) if g_lo != g_hi else math.nan
        secant = not secant_stalled and math.isfinite(ratio)
        if secant:
            trial = min(max(lo + width * ratio, lo + 0.5 * EVENT_TOL),
                        hi - 0.5 * EVENT_TOL)
        else:
            trial = 0.5 * (lo + hi)
            if not lo < trial < hi:  # adjacent floats, wider than EVENT_TOL
                break
        x_t, _ = step_rule(window, trial, k1)
        g_t = gfun(window.extend(trial, x_t))
        if (g_t >= 0.0) == crossing_down:
            lo, g_lo, x_lo = trial, g_t, x_t
        else:
            hi, g_hi, x_hi = trial, g_t, x_t
        secant_stalled = secant and hi - lo > 0.5 * width
    return (lo, x_lo) if crossing_down else (hi, x_hi)


#: Fewest steps in a block.  Building a block costs about 100 us on a
#: 2-vCPU host (40 us of it the level kernel, whose search the store keeps
#: across appends), what the scalar reads of 7 steps cost (three a step, at
#: about 5 us each), so a block of 16 steps pays for itself even when a
#: located jump moves the step grid off its rows halfway.
_MIN_STEPS = 16


class _ReadAhead(dict):
    """Stored reads made ahead (the method of steps): the solver's table,
    which its store carries as ``History.ahead`` and every view of that
    store looks up first, of one block per delay s: {tq: row}, its rows
    keyed by their absolute read time tq.

    A miss at a stored view (dt = 0) of the time t reading a delay s asks
    :meth:`build` for a block of s: the stored reads at t_k + s, t_k + (h_k/2
    + s) and t_k + (h_k + s), the RK4 stage times of each of the next K
    steps (t_k, h_k), predicted by the solver's recurrence h = min(step,
    t_max - t), t += h from t_0 = t, all in one call of
    :class:`~hymem.hybrid_time.BatchView`'s level kernel: bit for bit the
    scalar reads.  K is the largest count, at most a third of
    ``batch._BLOCK_SAMPLES`` (5461 steps), for which every such time lies
    more than ``TIME_TOL`` before the sample before the newest: the newest
    sample may yet be dropped or lack its derivative, and a jump opens a
    level at its time (two jumps at one instant, two) that reads up to
    ``TIME_TOL`` earlier take.  So a row reads nothing that changes later:
    it is the final read at its time, whichever view asks, and a step that
    leaves the prediction only misses.  A block replaces its delay's
    previous one; fewer than ``_MIN_STEPS`` steps make none, for that delay
    ever, since K depends on s, the step and the horizon (on the last
    step's length by one at most).  The cap binds only for a delay of more
    than 5461 steps.
    """

    def __init__(self, hist: History, opts: SimOptions):
        self.hist, self.opts = hist, opts
        self.short = set()  # the delays whose blocks are too short

    def row(self, t: float, q: float, s: float, build: bool) -> np.ndarray | None:
        """The row of the delay s at t + q; on a miss, when ``build`` (at a
        stored view, where q is s), the first row of a new block of s from
        the step at t.  None when there is neither."""
        block = self.get(s)
        x = None if block is None else block.get(t + q)
        if x is None and build:
            return self.build(t, s)
        return x

    def build(self, t: float, s: float) -> np.ndarray | None:
        """The row at t + s of a new block of s from the step at t; None
        when no block is built."""
        if s in self.short:
            return None
        hist, step, t_max = self.hist, self.opts.step, self.opts.t_max
        newest = hist.n - 1
        bound = hist.times.item(newest - 1) - TIME_TOL
        t_last = t_max - TIME_TOL
        h, tq, k = min(step, t_max - t), [], 0
        cap = batch._BLOCK_SAMPLES // 3
        while k < cap:
            last = t + (h + s)  # the stage that reads latest
            if not last < bound:
                break
            tq += (t + s, t + (h / 2 + s), last)
            t += h
            k += 1
            if t >= t_last:
                break
            h = min(step, t_max - t)
            if not h > TIME_TOL:
                break
        if k < _MIN_STEPS:
            self.short.add(s)
            return None
        rows = BatchView(hist, np.full(len(tq), newest))._at(np.array(tq))
        self[s] = dict(zip(tq, rows))
        return rows[0]


def _shaped(value, shape: tuple, label: str) -> np.ndarray:
    """value as a float array of the state's ``shape``; PreconditionError
    naming the map ``label`` and both shapes when it has another."""
    out = np.asarray(value, dtype=float)
    if out.shape != shape:
        raise PreconditionError(f"{label} must return shape {shape}, got {out.shape}")
    return out


class _NonFiniteState(Exception):
    """The newest stored sample holds a non-finite component."""


def _judge(spec: SystemSpec, hist: History) -> tuple[WindowView, bool, bool]:
    """The window at the newest stored sample, and whether it lies in the
    flow set and in the jump set; :class:`_NonFiniteState` when that
    sample is not finite.  The window keeps a read cache, so its guards,
    its flow selection and a matrix step from it read each delay once."""
    w = hist.view()
    w.reads = {}
    if not all(map(math.isfinite, w.head.tolist())):
        raise _NonFiniteState
    return (w, spec.flow_guard(w) >= -GUARD_TOL,
            spec.jump_guard(w) >= -GUARD_TOL)


def simulate(spec: SystemSpec, init: HybridMemoryArc,
             opts: SimOptions) -> Trajectory:
    """Compute a solution from the initial memory arc.

    The initial data must be admissible for the system's memory size and lie
    in the union of the flow and jump sets.  Integration stops when t or j
    reaches its horizon, when the window leaves both sets, or when the Zeno
    guard trips.  A read outside the stored history stops it with
    ``Termination.error``, and so does the first stored sample that is not
    finite (a step end, a located crossing or a post-jump value), which is
    kept as the run's last; ``Trajectory.error`` says why and where.  A
    non-finite initial arc is refused before integrating.
    An infinite ``t_max`` needs a jump period in ``spec.meta``.  Each guard
    and the flow selection run once per stored sample, on its stored window;
    a step end that leaves C, or enters D under jump priority, is dropped and
    the crossing located.  A flow selection or first jump candidate whose
    result is not of shape (dimension,) raises PreconditionError.  Each
    step, and each event trial, is :func:`_step_rule`'s at ``opts.step``.
    """
    if abs(init.delta - spec.memory_size) > 1e-12:
        raise PreconditionError(
            f"initial arc has memory size {init.delta}, system needs "
            f"{spec.memory_size}")
    if init.dimension != spec.dimension:
        raise PreconditionError(
            f"initial arc dimension {init.dimension} != system dimension "
            f"{spec.dimension}")
    if not (np.isfinite(init.values).all()
            and (init.derivs is None or np.isfinite(init.derivs).all())):
        raise PreconditionError("initial arc holds a non-finite value")
    if math.isinf(opts.t_max) and spec.meta.get("period") is None:
        raise PreconditionError("an infinite t_max needs a system with a "
                                "jump period; nothing else bounds the run")

    fg0 = spec.flow_guard(init)
    jg0 = spec.jump_guard(init)
    if fg0 < -GUARD_TOL and jg0 < -GUARD_TOL:
        raise PreconditionError(
            "initial data lies outside both the flow and jump sets "
            f"(flow_guard={fg0:.3e}, jump_guard={jg0:.3e})")

    hist = History([init], spec.memory_size, room=64)
    hist.start_segment(0.0, np.array(init.head, dtype=float))
    hist.ahead = _ReadAhead(hist, opts)
    flow, step, t_max, j_max = spec.flow_selection, opts.step, opts.t_max, opts.j_max
    advance, shape = _step_rule(spec, step), (spec.dimension,)
    t_last = t_max - TIME_TOL
    jump_first = opts.jump_priority == "jump"
    t, j = 0.0, 0
    termination = Termination.horizon_reached
    consecutive_jumps = 0
    error = None
    try:
        w, in_c, in_d = _judge(spec, hist)
        while True:
            h = min(step, t_max - t)
            if in_c:
                hist.derivs[w.index] = _shaped(flow(w), shape, "flow_selection")
                hist.known[w.index] = True
            if t >= t_last or j >= j_max:
                termination = Termination.horizon_reached
                break
            if in_c and h > TIME_TOL and not (in_d and jump_first):
                k1 = hist.derivs[w.index]
                x_new, _ = advance(w, h, k1)
                hist.append(t + h, x_new)
                end = _judge(spec, hist)
                if not end[1] or (end[2] and jump_first):
                    # the step end crossed a guard: drop it (its derivative
                    # slot is still unwritten) and store the located crossing
                    hist.n -= 1
                    guard = "jump" if end[1] else "flow"
                    h, x_new = locate_event(spec, w, h, guard, k1, x_new, step)
                    end = None
                    if h > TIME_TOL:
                        hist.append(t + h, x_new)
                        end = _judge(spec, hist)
                if end is not None:
                    t += h
                    w, in_c, in_d = end
                    consecutive_jumps = 0
                    continue
            # flow cannot progress past the boundary, or w is not in C
            if not in_d:
                termination = Termination.left_C_and_D
                break
            consecutive_jumps += 1
            if consecutive_jumps > MAX_CONSECUTIVE_JUMPS:
                termination = Termination.zeno_guard
                break
            candidates = spec.jump_selections(w)
            if not candidates:
                raise PreconditionError(
                    f"jump set entered at (t={t}, j={j}) but the jump map "
                    "offers no candidate")
            g = _shaped(candidates[0], shape, "the first jump candidate")
            j += 1
            hist.start_segment(t, g)
            w, in_c, in_d = _judge(spec, hist)
    except DomainError as exc:
        termination = Termination.error
        error = f"{type(exc).__name__} at (t={t}, j={j}): {exc}"
    except _NonFiniteState:
        termination = Termination.error
        error = f"non-finite state at (t={hist.times.item(hist.n - 1)}, j={j})"
    arc = hist.to_arc()
    return Trajectory(arc=arc, termination=termination,
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


def _stencil_centres(times: np.ndarray, kinks: np.ndarray) -> np.ndarray:
    """Indices i whose five-point stencil times[i-2 : i+3] is uniform (each
    step within 1e-9 max(1, h) of the first step h > 0) and holds no kink."""
    m = times.shape[0]
    if m < 5:
        return np.empty(0, dtype=np.intp)
    steps = np.diff(times)
    h = steps[:m - 4]
    dev = np.abs(steps[1:m - 3] - h)
    for k in (2, 3):
        dev = np.maximum(dev, np.abs(steps[k:m - 4 + k] - h))
    skip = (h <= 0) | (dev > 1e-9 * np.maximum(1.0, h))
    if kinks.size:
        nxt = np.searchsorted(kinks, times[:m - 4] - 1e-12)
        skip |= ((nxt < kinks.size)
                 & (kinks[np.minimum(nxt, kinks.size - 1)] <= times[4:] + 1e-12))
    return np.flatnonzero(~skip) + 2


def verify_solution(spec: SystemSpec, traj: Trajectory) -> SolutionCheckReport:
    """Check the stored trajectory against the solution semantics, with
    tol = :data:`VERIFY_TOL`.

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

    Each flow segment's derivative check runs in arrays, in chunks of at
    most ``batch._BLOCK_SAMPLES`` (16384) checked points, read when called:
    one call of the batch map (``flow_batch``, or ``flow_selection`` row by
    row when it is None) on a chunk's
    :class:`~hymem.hybrid_time.BatchView` gives each of its points' flow
    selection.  At the segment's first checked point that row is
    compared with ``flow_selection``, and a gap beyond tol * (1 + |f|)
    raises ValueError (a batch map left over from another flow selection).
    The guard runs point by point, and issues come out in time order, a
    point's guard issue before its derivative issue.
    """
    tol = VERIFY_TOL
    issues: list[SolutionIssue] = []
    arc = traj.arc
    msg = validate_domain(arc)
    if msg is not None:
        issues.append(SolutionIssue("domain", np.nan, 0, msg, 0.0, 0.0))

    delays = [d for d in spec.meta.get("delays", ()) if d > 0]
    kinks = np.array(sorted(t_j + d for (t_j, _) in traj.jumps
                            for d in delays))

    n_deriv = 0
    n_guard = 0
    hist = History([arc], traj.memory_size)
    batch_map = _batch_map(spec)
    forward = arc.levels()[arc.n_memory:]
    for j, (start, end) in enumerate(forward):
        times, values = arc.times[start:end], arc.values[start:end]
        centres = _stencil_centres(times, kinks)
        failed = {}
        chunk = batch._BLOCK_SAMPLES
        for lo in range(0, centres.size, chunk):
            i = centres[lo:lo + chunk]
            fd = ((values[i - 2] - 8 * values[i - 1] + 8 * values[i + 1]
                   - values[i + 2]) / (12 * (times[i - 1] - times[i - 2]))[:, None])
            fval = np.asarray(batch_map(BatchView(hist, start + i)), dtype=float)
            if lo == 0:
                _screen_batch_map(spec, fval[0], hist.view(start + i[0]),
                                  f"(t={times[i[0]]}, j={j})")
            # np.vecdot runs the dot kernel of np.linalg.norm on each row,
            # so err and bound are bit for bit the per-point norms
            diff = fd - fval
            err = np.sqrt(np.vecdot(diff, diff))
            bound = tol * (1.0 + np.sqrt(np.vecdot(fval, fval)))
            n_deriv += i.size
            bad = err > bound
            failed.update(zip(i[bad].tolist(),
                              zip(err[bad].tolist(), bound[bad].tolist())))
        for k, t in enumerate(times.tolist()):
            fgv = spec.flow_guard(hist.view(start + k))
            if fgv < -tol:
                issues.append(SolutionIssue(
                    "S1.flow_set", t, j,
                    "window left the flow set on a flow segment", fgv, -tol))
            if k in failed:
                issues.append(SolutionIssue(
                    "S1.derivative", t, j,
                    "finite-difference derivative disagrees with the "
                    "flow selection", *failed[k]))
        n_guard += times.shape[0]

    n_jumps = 0
    for j_pre, (post_start, _) in enumerate(forward[1:]):
        t_jump = arc.times.item(post_start - 1)
        w = hist.view(post_start - 1)
        jg = spec.jump_guard(w)
        n_jumps += 1
        if jg < -tol:
            issues.append(SolutionIssue(
                "S2.jump_set", t_jump, j_pre,
                "pre-jump window is not in the jump set", jg, -tol))
        g_stored = arc.values[post_start]
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


def flow_window(spec: SystemSpec, phi: HybridMemoryArc, h: float) -> HybridMemoryArc:
    """Window reached by flowing from phi for duration h without jumping:
    :func:`flow_windows` of phi alone.  Raises PreconditionError when phi
    is not in the flow set (its flow guard is below -GUARD_TOL), and
    ValueError on a batch map left over from another flow selection."""
    if spec.flow_guard(phi) < -GUARD_TOL:
        raise PreconditionError("window is not in the flow set")
    return flow_windows(spec, [phi], h)[0]


def flow_windows(spec: SystemSpec, phis: Sequence[HybridMemoryArc],
                 h: float) -> list[HybridMemoryArc]:
    """The window reached from each arc of phis by flowing for duration h
    without jumping, in ``_FLOW_STEPS`` (2) RK4 steps, for the
    functional-derivative evaluator.  The arcs must lie in the flow set.

    Each block of arcs is one :class:`~hymem.hybrid_time.History` with a
    row per arc, which opens a forward level at each row's head and
    appends every step's samples to all rows at once (see
    :mod:`hymem.batch`); every step takes all its arcs at once through the
    batch map on a :class:`~hymem.hybrid_time.BatchView`, whose stage reads
    are a WindowView's, and the windows are cut from the store.  So each
    window is bit for bit what stepping its arc alone through
    ``flow_selection`` gives, as long as the batch map gives each row
    flow_selection's bits: ``flow_batch=None`` does, and so does the linear
    family's ``flow_batch`` for one component besides the clock (example
    2).  With more, its matrix products may sum in another order (on
    example 1, 5 of 1000 cover windows differed, by at most 1 ulp, at
    h = 1e-3).  The first step's batch row of the first arc is screened
    against ``flow_selection`` as :func:`verify_solution` screens a
    segment's first point: a batch map left over from another flow
    selection raises ValueError.
    """
    n_steps, out, batch_map = _FLOW_STEPS, [], _batch_map(spec)
    for lo, hi in _blocks(phis, n_steps + 1):
        st = History(phis[lo:hi], room=n_steps + 1)
        new = st.start_segments(0.0, st.values[st.newest()])  # the heads, at t = 0
        t, sub = 0.0, h / n_steps
        for step in range(n_steps):
            view = BatchView(st, new)
            k1 = np.asarray(batch_map(view), dtype=float)
            if lo == step == 0:  # row 0's view reads only row 0's levels
                _screen_batch_map(spec, k1[0], st.view(new[0]),
                                  "the head of the first arc")
            x_new, _ = _rk4(spec, view, sub, k1)
            t += sub
            new = st.append_rows(t, x_new)
        out += memory_windows(st, [(r, t, 0) for r in range(hi - lo)], st.delta)
    return out
