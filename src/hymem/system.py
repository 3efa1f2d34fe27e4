"""Hybrid systems with memory: guard functions plus selection maps.

A system is described by signed guard functions (>= 0 means membership in
the flow set C or jump set D, up to the slack ``GUARD_TOL``) and selection
maps evaluated on memory windows.  Windows are duck-typed: anything exposing
``head`` (the value at (0, 0)), ``delayed(s)`` (the value at (s, k(s))),
and ``delta`` works, which lets the solver pass lightweight views instead
of materialized arcs.  A batch flow map reads a batch window, whose
``head`` and ``delayed(s)`` have one row per window.

Both stock systems are members of the linear-delay family below, jumping
when their clock reaches the period delta: ``example1`` has x = (z, u),
A0 = [[A, B], [0, 0]], J0 = [[I, 0], [0, 0]] and one jump term
[[0, 0], [K, 0]] at delay r; ``example2`` has A0 = [[a]], one flow term [[b]]
at delay r and J0 = [[rho]].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .hybrid_time import TIME_TOL, HybridMemoryArc, constant_memory_arc


# A window lies in a set when its guard is at least -GUARD_TOL.  Event
# location places a boundary time within the solver's EVENT_TOL, which maps
# into guard values through the guard's slope; the slack absorbs that.
GUARD_TOL = 1e-7


class ConfigError(ValueError):
    """A system configuration failed validation; the message names the field."""


@dataclass(frozen=True)
class TargetSet:
    """Point-to-set distance |z|_W; zero exactly on W.

    ``dist`` takes one state (the per-point distances); ``dist_batch`` maps
    an (m, n) array of states to m distances, for the window norm.  Row i
    of its result must depend on row i alone, bit for bit, as
    :func:`~hymem.hybrid_time.sup_norm_w` evaluates many windows' rows in
    one call and promises each window the value it would get alone.
    """

    dist: Callable[[np.ndarray], float]
    dist_batch: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SystemSpec:
    """Flow/jump sets as signed guards plus selection maps, and memory size.

    ``flow_selection`` must be defined whenever ``flow_guard`` >= 0 and
    ``jump_selections`` must be nonempty whenever ``jump_guard`` >= 0; the
    solver applies the first jump candidate, and the checkers evaluate the
    flow selection and every jump candidate.  ``flow_batch`` maps a batch
    of windows (``head`` and ``delayed(s)`` of shape (B, n), ``delta``) to a
    (B, n) array whose row i is the flow selection of window i; None means
    ``flow_selection`` on each row's own window
    (:meth:`~hymem.hybrid_time.BatchView.views`), read when called.  So
    ``dataclasses.replace(spec, flow_selection=f)`` steps ``f`` everywhere
    unless the spec keeps a batch map; :func:`~hymem.solver.flow_windows`
    and :func:`~hymem.solver.verify_solution` raise ValueError when a kept
    batch map and ``flow_selection`` disagree, so pass ``flow_batch=None``
    with ``f``.  ``flow_linear``, when not None, is the flow selection's
    matrices (A0, terms): the flow is A0 x + sum_k A_k x(t - d_k) on the
    first A0.shape[0] components, with one :class:`DelayTerm` (d_k, A_k)
    per delay, and 1 on a last clock component when the dimension is one
    more.  :func:`~hymem.solver.simulate` then steps by RK4's affine map of
    those matrices when every flow delay is longer than the step.  It
    raises ValueError at the first step where ``flow_selection``
    disagrees with a kept ``flow_linear``, so pass ``flow_linear=None``
    with a replaced ``f`` too.
    ``meta`` holds ``clock_index``, ``period`` and ``delays``.
    """

    dimension: int
    memory_size: float
    flow_guard: Callable
    jump_guard: Callable
    flow_selection: Callable
    jump_selections: Callable
    flow_batch: Callable | None = None
    flow_linear: tuple | None = None
    meta: dict = field(default_factory=dict)


def origin_target() -> TargetSet:
    return TargetSet(
        dist=lambda z: float(np.linalg.norm(z)),
        dist_batch=lambda arr: np.linalg.norm(arr, axis=1),
    )


def origin_times_clock_target(dimension: int, period: float) -> TargetSet:
    """Distance to {0}^(dimension-1) x [0, period]; the clock is the last
    component and contributes only when outside its interval."""
    d = dimension - 1

    def dist(z: np.ndarray) -> float:
        tau = z[d]
        excess = max(0.0, -tau, tau - period)
        return float(np.sqrt(np.dot(z[:d], z[:d]) + excess * excess))

    def dist_batch(arr: np.ndarray) -> np.ndarray:
        tau = arr[:, d]
        excess = np.maximum(0.0, np.maximum(-tau, tau - period))
        return np.sqrt(np.einsum("ij,ij->i", arr[:, :d], arr[:, :d]) + excess ** 2)

    return TargetSet(dist=dist, dist_batch=dist_batch)


def _number(value, where: str, integer: bool = False) -> float | int:
    """value as a float, or as an int if ``integer``; ConfigError naming the
    field ``where`` when it is not a number, or not an integral one."""
    try:
        if isinstance(value, bool):  # JSON's true and false are not numbers
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None
    if integer and not x.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(x) if integer else x


def _array(value, where: str, what: str) -> np.ndarray:
    """value as a float array; ConfigError naming the field ``where`` when
    it is not ``what``, as when a nested list holds a JSON boolean."""
    try:
        if _has_bool(value):
            raise TypeError
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be {what}, got {value!r}") from None


def _has_bool(value) -> bool:
    """Whether value, or a list or tuple nested in it, holds a boolean."""
    if isinstance(value, (list, tuple)):
        return any(_has_bool(v) for v in value)
    return isinstance(value, (bool, np.bool_)) or (
        isinstance(value, np.ndarray) and value.dtype == bool)


def _numbers(params, names: Sequence[str]) -> None:
    """Store each named field of the frozen params as a float; ConfigError
    naming the field when it is not a finite number."""
    for name in names:
        x = _number(getattr(params, name), name)
        if not np.isfinite(x):
            raise ConfigError(f"{name} must be finite, got {x}")
        object.__setattr__(params, name, x)


@dataclass(frozen=True)
class Example1Params:
    """Sampled-data loop: plant matrix A, input matrix B, gain K, sampling
    period delta, measurement delay r (must satisfy r < delta)."""

    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    delta: float = 0.2
    r: float = 0.01
    sigma: float | None = None  # tilt exponent; derived by the certificate builder

    def __post_init__(self):
        for name in ("A", "B", "K"):
            value = np.atleast_2d(_array(getattr(self, name), name, "a matrix of numbers"))
            if not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite, got {value.tolist()}")
            object.__setattr__(self, name, value)
        nz = self.A.shape[0]
        if self.A.shape != (nz, nz):
            raise ConfigError("A must be square")
        if self.B.shape[0] != nz:
            raise ConfigError("B must have as many rows as A")
        m = self.B.shape[1]
        if self.K.shape != (m, nz):
            raise ConfigError(f"K must have shape ({m}, {nz})")
        _numbers(self, ("delta", "r") if self.sigma is None
                 else ("delta", "r", "sigma"))
        if self.r <= 0 or self.delta <= 0:
            raise ConfigError("delta and r must be positive")
        if self.r >= self.delta:
            raise ConfigError("the measurement delay r must be smaller than the "
                              "sampling period delta")

    @classmethod
    def paper(cls) -> "Example1Params":
        return cls(A=[[4.0, 1.0], [5.0, -3.0]], B=[[-3.0], [-2.0]],
                   K=[[4.0, -2.0]], delta=0.2, r=0.01)

    @property
    def nz(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class Example2Params:
    """Scalar delay system dx = a x + b x(t - r) with reset x+ = rho x every
    delta units of time; sigma and mu parameterize the stock functional."""

    a: float
    b: float
    rho: float
    r: float
    delta: float
    sigma: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        _numbers(self, ("a", "b", "rho", "r", "delta", "sigma", "mu"))
        if self.r <= 0:
            raise ConfigError("delay r must be positive")
        if self.delta <= 0:
            raise ConfigError("reset period delta must be positive")
        if self.mu < 0:
            raise ConfigError("mu must be nonnegative")

    @classmethod
    def case1(cls) -> "Example2Params":
        """Stable flow, expanding resets; feasible with a long reset period."""
        return cls(a=-1.0, b=0.25, rho=1.2, r=0.25, delta=1.0, sigma=-0.5, mu=0.5)

    @classmethod
    def case2(cls) -> "Example2Params":
        """Unstable flow, contracting resets; feasible with a short period."""
        return cls(a=0.5, b=0.25, rho=0.5, r=0.05, delta=0.1, sigma=2.0, mu=0.5)


# ---------------------------------------------------------------------------
# General linear-delay family:
#   flow  dx = A0 x + sum_i Ai x(t - r_i)
#   jump  x+ = J0 x + sum_i Ji x(-r_i), fired by a clock with the given period
# A clock component is appended exactly when a jump period is given.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelayTerm:
    delay: float
    matrix: np.ndarray


@dataclass(frozen=True)
class LinearDelayConfig:
    dimension: int
    memory_size: float
    a0: np.ndarray
    flow_delayed: tuple[DelayTerm, ...] = ()
    jump_period: float | None = None
    j0: np.ndarray | None = None
    jump_delayed: tuple[DelayTerm, ...] = ()
    target_set: str = "origin"


def _square_matrix(m, n: int, where: str) -> np.ndarray:
    m = np.atleast_2d(_array(m, where, "a matrix of numbers"))
    if m.shape != (n, n):
        raise ConfigError(f"{where} must be {n}x{n}, got {m.shape}")
    if not np.isfinite(m).all():
        raise ConfigError(f"{where} must be finite, got {m.tolist()}")
    return m


def _check_terms(terms: Sequence[DelayTerm], n: int, memory_size: float,
                 where: str) -> tuple[DelayTerm, ...]:
    out = []
    for i, term in enumerate(terms):
        m = _square_matrix(term.matrix, n, f"{where}[{i}] matrix")
        if not (0.0 <= term.delay <= memory_size):
            raise ConfigError(f"{where}[{i}].delay must lie in [0, memory_size]")
        out.append(DelayTerm(float(term.delay), m))
    return tuple(out)


def build_linear_delay_system(cfg: LinearDelayConfig) -> tuple[SystemSpec, TargetSet]:
    n = cfg.dimension
    if n <= 0:
        raise ConfigError("dimension must be positive")
    if not 0 <= cfg.memory_size < np.inf:
        raise ConfigError("memory_size must be finite and nonnegative, "
                          f"got {cfg.memory_size}")
    a0 = _square_matrix(cfg.a0, n, "flow.A0")
    flow_terms = _check_terms(cfg.flow_delayed, n, cfg.memory_size, "flow.delayed")

    has_clock = cfg.jump_period is not None
    if has_clock:
        if not 0 < cfg.jump_period < np.inf:
            raise ConfigError("jump.period must be finite and positive, "
                              f"got {cfg.jump_period}")
        j0 = np.eye(n) if cfg.j0 is None else _square_matrix(cfg.j0, n, "jump.J0")
        jump_terms = _check_terms(cfg.jump_delayed, n, cfg.memory_size, "jump.delayed")
    elif cfg.j0 is not None or cfg.jump_delayed:
        raise ConfigError("jump.J0 and jump.delayed require jump.period")
    else:
        j0, jump_terms = None, ()

    dim = n + 1 if has_clock else n
    flow_reads = [(-t.delay, t.matrix) for t in flow_terms]
    jump_reads = [(-t.delay, t.matrix) for t in jump_terms]

    def linear(m0, reads, w, out=None) -> np.ndarray:
        """m0 head + the delayed terms, on the state before the clock,
        written into ``out`` when given."""
        if has_clock:
            out = m0.dot(w.head[:n], out=out)
            for s, m in reads:
                out += m.dot(w.delayed(s)[:n])
            return out
        out = m0.dot(w.head, out=out)  # the whole state: no view to slice
        for s, m in reads:
            out += m.dot(w.delayed(s))
        return out

    def linear_batch(m0, reads, w) -> np.ndarray:
        """``linear`` on each row of a batch window; a product of n > 1
        terms may sum in another order and differ in the last bits."""
        out = w.head[:, :n] @ m0.T
        for s, m in reads:
            out += w.delayed(s)[:, :n] @ m.T
        return out

    if has_clock:
        period = cfg.jump_period

        def flow_guard(w) -> float:
            tau = float(w.head[n])
            return min(tau, period - tau)

        def jump_guard(w) -> float:
            return -abs(period - float(w.head[n]))

        def flow_selection(w) -> np.ndarray:
            out = np.empty(dim)  # the state, then the clock's rate
            out[n] = 1.0
            linear(a0, flow_reads, w, out[:n])
            return out

        def flow_batch(w) -> np.ndarray:
            rates = np.ones((w.head.shape[0], 1))
            return np.hstack((linear_batch(a0, flow_reads, w), rates))

        def jump_selections(w) -> list[np.ndarray]:
            out = np.empty(dim)  # the state, then the clock's reset
            out[n] = 0.0
            linear(j0, jump_reads, w, out[:n])
            return [out]
    else:
        def flow_guard(w) -> float:
            return 1.0

        def jump_guard(w) -> float:
            return -1.0

        def flow_selection(w) -> np.ndarray:
            return linear(a0, flow_reads, w)

        def flow_batch(w) -> np.ndarray:
            return linear_batch(a0, flow_reads, w)

        def jump_selections(w) -> list[np.ndarray]:
            return []

    if cfg.target_set == "origin":
        target = origin_target()
    elif cfg.target_set == "origin_times_clock":
        if not has_clock:
            raise ConfigError("target_set origin_times_clock requires jump.period")
        target = origin_times_clock_target(dim, cfg.jump_period)
    else:
        raise ConfigError(f"target_set must be 'origin' or 'origin_times_clock', "
                          f"got {cfg.target_set!r}")

    spec = SystemSpec(
        dimension=dim, memory_size=cfg.memory_size,
        flow_guard=flow_guard, jump_guard=jump_guard,
        flow_selection=flow_selection, jump_selections=jump_selections,
        flow_batch=flow_batch, flow_linear=(a0, flow_terms),
        meta={"clock_index": n if has_clock else None,
              "period": cfg.jump_period,
              "delays": tuple(t.delay for t in flow_terms + jump_terms)},
    )
    return spec, target


def build_example1(p: Example1Params) -> tuple[SystemSpec, TargetSet]:
    """Sampled-data system with delayed measurements.

    State (z, u, tau); between samples dz = A z + B u, du = 0, dtau = 1; when
    the clock reaches delta the input resets to K times the z-measurement
    taken r units of time earlier and the clock restarts.  The memory size is
    r: the only delayed read happens at jumps, which are delta > r apart.
    """
    nz, m = p.nz, p.m
    zero_u = np.zeros((m, nz + m))
    return build_linear_delay_system(LinearDelayConfig(
        dimension=nz + m, memory_size=p.r,
        a0=np.block([[p.A, p.B], [zero_u]]),
        jump_period=p.delta,
        j0=np.block([[np.eye(nz), np.zeros((nz, m))], [zero_u]]),
        jump_delayed=(DelayTerm(p.r, np.block([[np.zeros((nz, nz + m))],
                                                [p.K, np.zeros((m, m))]])),),
        target_set="origin_times_clock"))


def build_example2(p: Example2Params) -> tuple[SystemSpec, TargetSet]:
    """Scalar delay flow with periodic resets.

    State (x, tau); dx = a x + b x(t - r), dtau = 1; at tau = delta the state
    resets to rho x and the clock to zero.  The memory size is r + 1 so the
    delayed lookup stays inside the window across a reset.
    """
    return build_linear_delay_system(LinearDelayConfig(
        dimension=1, memory_size=p.r + 1.0, a0=np.array([[p.a]]),
        flow_delayed=(DelayTerm(p.r, np.array([[p.b]])),),
        jump_period=p.delta, j0=np.array([[p.rho]]),
        target_set="origin_times_clock"))


# ---------------------------------------------------------------------------
# JSON config schema (used by the CLI).  Unknown fields are rejected with an
# error message naming the offending key.
# ---------------------------------------------------------------------------

def _object(d, where: str, allowed: set[str]) -> dict:
    """d, which must be a JSON object with no field outside ``allowed``;
    ConfigError naming the field ``where`` (the root when empty) otherwise."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where or 'config root'} must be an object")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown field {where and where + '.'}{key!r}")
    return d


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing field {where}{key!r}")
    return d[key]


def _parse_terms(entries, where: str) -> tuple[DelayTerm, ...]:
    if not isinstance(entries, list):
        raise ConfigError(f"{where} must be a list")
    terms = []
    for i, entry in enumerate(entries):
        entry = _object(entry, f"{where}[{i}]", {"delay", "A", "J"})
        delay = _require(entry, "delay", f"{where}[{i}].")
        mat = entry.get("A", entry.get("J"))
        if mat is None:
            raise ConfigError(f"{where}[{i}] needs a matrix field ('A' or 'J')")
        terms.append(DelayTerm(_number(delay, f"{where}[{i}].delay"), mat))
    return tuple(terms)


def parse_linear_delay_config(doc: dict) -> tuple[LinearDelayConfig, dict]:
    """Validate the JSON document; returns the config and the leftover
    sections ('initial_history' and 'sim') for the caller."""
    _object(doc, "", {"dimension", "memory_size", "flow", "jump", "target_set",
                      "initial_history", "sim"})
    dimension = _number(_require(doc, "dimension", ""), "dimension", integer=True)
    memory_size = _number(_require(doc, "memory_size", ""), "memory_size")

    flow = _object(_require(doc, "flow", ""), "flow", {"A0", "delayed"})
    a0 = _require(flow, "A0", "flow.")
    flow_delayed = _parse_terms(flow.get("delayed", []), "flow.delayed")

    jump_period, j0, jump_delayed = None, None, ()
    if "jump" in doc:
        jump = _object(doc["jump"], "jump", {"period", "J0", "delayed"})
        jump_period = _number(_require(jump, "period", "jump."), "jump.period")
        j0 = jump.get("J0")
        jump_delayed = _parse_terms(jump.get("delayed", []), "jump.delayed")

    extras = {}
    if "initial_history" in doc:
        hist = _object(doc["initial_history"], "initial_history",
                       {"kind", "value", "points"})
        kind = _require(hist, "kind", "initial_history.")
        if kind not in ("constant", "samples"):
            raise ConfigError("initial_history.kind must be 'constant' or 'samples'")
        if kind == "constant" and "value" not in hist:
            raise ConfigError("missing field initial_history.'value'")
        if kind == "samples" and "points" not in hist:
            raise ConfigError("missing field initial_history.'points'")
        extras["initial_history"] = hist
    if "sim" in doc:
        extras["sim"] = _object(doc["sim"], "sim", {"t_max", "j_max", "step",
                                                    "jump_priority"})

    cfg = LinearDelayConfig(
        dimension=dimension, memory_size=memory_size, a0=a0,
        flow_delayed=flow_delayed, jump_period=jump_period, j0=j0,
        jump_delayed=jump_delayed, target_set=doc.get("target_set", "origin"),
    )
    return cfg, extras


def constant_history(spec: SystemSpec, value, step: float) -> HybridMemoryArc:
    """The initial history holding ``value`` on [-memory_size - 0.5, 0] on a
    grid of ``4 * step``: ``--history``, its default, a config's ``constant``
    kind, the ``check-kl`` bundle and the reachable pool all start from it."""
    return constant_memory_arc(value, spec.memory_size,
                               depth=spec.memory_size + 0.5, grid_step=step * 4)


def history_from_config(hist: dict, spec: SystemSpec, step: float) -> HybridMemoryArc:
    """Build the initial memory arc described by an 'initial_history' section.

    A constant history is :func:`constant_history` of the given state
    vector with the run's ``step``.  A sampled history is the one-level
    memory arc of its [s, v_1, ..., v_n] rows sorted by s, no two with one
    s, read by the arcs' linear rule: from at or below -memory_size (not
    below -memory_size - 1) up to s = 0, up to ``TIME_TOL``.  No row may lie
    after s = 0, and only the last within ``TIME_TOL`` of it, which is then
    taken at s = 0, where the forward side starts.  The vectors include the
    clock component when the system has one.
    """
    if hist["kind"] == "constant":
        value = np.atleast_1d(_array(hist["value"], "initial_history.value",
                                     "a vector of numbers"))
        if value.shape != (spec.dimension,):
            raise ConfigError(f"initial_history.value must have length {spec.dimension}")
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"initial_history.value must be finite, got {hist['value']}")
        return constant_history(spec, value, step)
    points = hist["points"]
    if not isinstance(points, list) or len(points) < 2:
        raise ConfigError("initial_history.points must list at least two rows")
    rows = _array(points, "initial_history.points", "rows of numbers")
    if rows.ndim != 2 or rows.shape[1] != spec.dimension + 1:
        raise ConfigError("initial_history.points rows must be [s, v_1, ..., v_n]")
    if not np.all(np.isfinite(rows)):
        raise ConfigError("initial_history.points must be finite")
    rows = rows[np.argsort(rows[:, 0])]
    if (rows[1:, 0] == rows[:-1, 0]).any():
        raise ConfigError("initial_history.points must not repeat a time s")
    if rows[-1, 0] > 0.0:
        raise ConfigError("initial_history.points: rows must have s <= 0")
    if rows[-2, 0] >= -TIME_TOL:
        raise ConfigError("initial_history.points: only the last row may lie "
                          "within TIME_TOL of s = 0")
    if rows[-1, 0] >= -TIME_TOL:
        rows[-1, 0] = 0.0  # where the forward side starts
    try:
        return HybridMemoryArc(rows[:, 0], rows[:, 1:], [0], spec.memory_size)
    except ValueError as exc:  # no row at s = 0, or rows outside the memory window
        raise ConfigError(f"initial_history.points: {exc}") from None
