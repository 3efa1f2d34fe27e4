"""Hybrid time domains with memory, hybrid arcs, and memory-window operators.

A hybrid time domain tracks both continuous time t and a jump counter j.
The forward part lives in t >= 0, j >= 0 and the memory part in t <= 0,
j <= 0; both are unions of closed intervals, one per jump level, with
consecutive levels sharing their boundary time.  Arcs attach sampled vector
values to such a domain and interpolate between samples (piecewise linear by
default, cubic Hermite between samples that both carry a derivative).

Every arc keeps its samples in one store: arrays of times, values and
derivatives, the jump levels back to back, and each level's first index.
The store is the only description of the arc's domain: a level is one
interval of it, its jump index is its position, and :func:`validate_domain`
checks the domain's invariants on an arc's levels.  Arcs are built from
the store itself, checked or (``_of``) not.
:class:`History` is the growable form of that store, for the solver.  One
read rule, :meth:`HybridArc.value`, serves every store: a memory arc's
``delayed(s)`` is that rule, and :class:`WindowView` and :class:`BatchView`
read a History through it at one or many stored samples.

The window operator extracts the recent history of a stored solution at a
forward point (t, j): the result is a memory arc whose depth, measured in
s + k, lies between the memory size ``delta`` and ``delta + 1``.  It cuts an
index range of the store per jump level, with an interpolated sample where a
range ends between stored samples.  :class:`ArcSegment` is the read-only
view of one level that ``all_segments``, ``memory_segments`` and
``forward_segments`` return.

The window operators (the cut, the appended jump, the window maximum and
the delayed integral) have one implementation, in arrays, in
:mod:`hymem.batch`; this module re-exports :func:`memory_window`,
:func:`delta_inf`, :func:`append_jump`, :func:`sup_norm_w`, :func:`vbar` and
:func:`delayed_sq_integral` under their old names.

Arcs are checked once, where outside data enters: by the constructors of
:class:`HybridArc` and :class:`HybridMemoryArc`, and for jump indices by
:func:`arc_from_csv`.  The window operators and :meth:`History.to_arc`
only cut, shift and join the samples of checked arcs, which keeps them
valid, so they skip the checks.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

#: Absolute time tolerance for membership tests at segment boundaries.
#: Event location produces boundary times inexactly.
TIME_TOL = 1e-12


class DomainError(ValueError):
    """Raised when an arc is queried outside its hybrid time domain."""

    def __init__(self, message: str, t: float | None = None, j: int | None = None):
        super().__init__(message)
        self.t = t
        self.j = j


class InsufficientHistoryError(DomainError):
    """Raised when a memory lookup reaches past all stored history."""


def validate_domain(arc: HybridArc) -> Optional[str]:
    """Check the hybrid-time-domain invariants on the levels of an arc's
    store; return None if they hold, else the first violated clause.

    One walk over the levels checks, up to TIME_TOL: finite and
    non-decreasing endpoints, the memory side ending and the forward side
    starting at t = 0, consecutive levels of a side sharing their boundary
    time, and the sign of t on each side.  A level's jump index is its
    position in the store, so jump indices need no check.
    """
    times, m, hi = arc.times, arc.n_memory, None
    for k, (a, b) in enumerate(arc.levels()):
        lo, prev, hi = times.item(a), hi, times.item(b - 1)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return "interval endpoints must be finite"
        if hi < lo - TIME_TOL:
            return "interval endpoints must be non-decreasing"
        if k == m and abs(lo) > TIME_TOL:
            return "forward domain must start at t = 0"
        if k == m - 1 and abs(hi) > TIME_TOL:
            return "memory domain must end at t = 0"
        if k not in (0, m) and abs(lo - prev) > TIME_TOL:
            return "segments must share boundary time"
        if k >= m and lo < -TIME_TOL:
            return "forward points must satisfy t >= 0 and j >= 0"
        if k < m and hi > TIME_TOL:
            return "memory points must satisfy t <= 0 and j <= 0"
    return None


def _lerp(y0: np.ndarray, y1: np.ndarray, w):
    return (1 - w) * y0 + w * y1


def _hermite(y0: np.ndarray, y1: np.ndarray, d0: np.ndarray, d1: np.ndarray,
             h, w):
    """Cubic Hermite blend at weight w of an interval of length h.

    Squares are written as products: numpy's scalar ``** 2`` calls libm
    ``pow`` and its array ``** 2`` multiplies, which differ in the last bit
    now and then, so only products round alike on scalars and columns.
    """
    u = 1 - w
    h00 = (1 + 2 * w) * (u * u)
    h10 = w * (u * u)
    h01 = w * w * (3 - 2 * w)
    h11 = w * w * (w - 1)
    return h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1


def _interpolate(times: np.ndarray, values: np.ndarray,
                 derivs: np.ndarray | None, t: float, scheme: str = "linear",
                 lo: int = 0, hi: int | None = None,
                 known: np.ndarray | None = None) -> np.ndarray:
    """Value at time t of the increasing samples ``lo:hi`` (default: all),
    held constant past either end, as a fresh array.

    Cubic Hermite when ``scheme`` is "hermite", derivative samples are given
    and ``known`` (default: every sample) marks both ends of the bracket as
    carrying one; piecewise linear otherwise.  The bracket is read as Python
    floats and found by one binary search on the samples' times; values and
    derivatives are indexed in place, not sliced.
    """
    if hi is None:
        hi = times.shape[0]
    if t <= times.item(lo):
        return values[lo].copy()
    if t >= times.item(hi - 1):
        return values[hi - 1].copy()
    i = lo + int(times[lo:hi].searchsorted(t, "right")) - 1
    t0 = times.item(i)
    h = times.item(i + 1) - t0
    if h <= 0:
        return values[i].copy()
    w = (t - t0) / h
    if (scheme == "hermite" and derivs is not None
            and (known is None or known.item(i) and known.item(i + 1))):
        return _hermite(values[i], values[i + 1], derivs[i], derivs[i + 1], h, w)
    return _lerp(values[i], values[i + 1], w)


def _blend(times: np.ndarray, values: np.ndarray, derivs: np.ndarray | None,
           known: np.ndarray | None, ts: np.ndarray, i: np.ndarray) -> np.ndarray:
    """The interpolant at each time of ``ts`` in its bracket [times[i],
    times[i + 1]], one row each, bit for bit :func:`_interpolate`'s formulas:
    linear without ``derivs``, else cubic Hermite on the rows whose bracket
    ``known`` marks at both ends (every row when it is None)."""
    t0 = times[i]
    h = (times[i + 1] - t0)[:, None]
    w = (ts - t0)[:, None] / h
    if derivs is None:
        return _lerp(values[i], values[i + 1], w)
    hermite = None if known is None else known[i] & known[i + 1]
    if hermite is None or hermite.all():
        return _hermite(values[i], values[i + 1], derivs[i], derivs[i + 1], h, w)
    if not hermite.any():
        return _lerp(values[i], values[i + 1], w)
    out = _lerp(values[i], values[i + 1], w)
    k = i[hermite]
    out[hermite] = _hermite(values[k], values[k + 1], derivs[k], derivs[k + 1],
                            h[hermite], w[hermite])
    return out


def _bisect(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray, q: np.ndarray,
            right: bool) -> np.ndarray:
    """lo[i] + np.searchsorted(keys[lo[i]:hi[i]], q[i], side) for each i, each
    slice sorted: one binary search over many slices at once, which grows
    each row's count of keys before q by halving steps."""
    pos = lo.copy()
    widest = int((hi - lo).max(initial=0))
    step = 1 << (widest.bit_length() - 1) if widest else 0
    while step:
        cand = np.minimum(pos + step, hi)
        k = keys[cand - 1]  # cand = pos only where pos = hi: no move
        pos = np.where((k <= q) if right else (k < q), cand, pos)
        step >>= 1
    return pos


@dataclass(frozen=True)
class ArcSegment:
    """One jump level of an arc, as views of its store: the level's times
    (increasing), values as rows, and derivatives where every sample of the
    level carries one (else None).  :meth:`HybridArc.all_segments` makes
    them; nothing is built from them."""

    jump_index: int
    times: np.ndarray
    values: np.ndarray
    derivs: np.ndarray | None = None

    @property
    def lo(self) -> float:
        return float(self.times[0])

    @property
    def hi(self) -> float:
        return float(self.times[-1])


class HybridArc:
    """A hybrid time domain with memory plus sampled vector values.

    The store: ``times`` (m,), ``values`` (m, n) and, when some sample
    carries a derivative, ``derivs`` (m, n) with flags ``known`` (m,) for
    those samples (else both None).  The ``n_memory`` memory levels (jump
    indices -K+1, ..., 0) come first, then the forward levels (0, 1, ...);
    ``starts`` holds each level's first index, and ``n`` samples are in use.
    The memory side carries the initial data, the forward side a computed
    solution.  Querying off the domain raises :class:`DomainError`.

    The constructor takes that store (``known`` defaults to all True when
    ``derivs`` is given), copies its arrays and checks, in order: the
    interpolation scheme, the arrays' shapes, that ``starts`` begins at 0
    and rises strictly with every level nonempty and ``n_memory`` at most
    their number, strictly increasing times within each level (NaN fails),
    and the domain.  Cuts of checked arcs are built by :meth:`_of` on the
    same arguments, unchecked, since a certificate check cuts thousands of
    windows and each is valid by construction.  An arc's arrays are
    read-only; only a :class:`History` writes its own.
    """

    def __init__(self, times, values, starts: Sequence[int], n_memory: int,
                 derivs=None, known=None, interpolation: str = "linear"):
        if interpolation not in ("linear", "hermite"):
            raise ValueError(f"unknown interpolation scheme {interpolation!r}")
        times, values = np.array(times, dtype=float), np.array(values, dtype=float)
        if (times.ndim != 1 or values.ndim != 2
                or values.shape[0] != times.shape[0]):
            raise ValueError("segment needs times of shape (m,) and "
                             "values of shape (m, n)")
        if derivs is not None or known is not None:  # flags need derivatives
            derivs = np.array(derivs, dtype=float)
            known = (np.ones(times.shape, dtype=bool) if known is None
                     else np.array(known, dtype=bool))
            if derivs.shape != values.shape or known.shape != times.shape:
                raise ValueError("derivative samples must match value "
                                 "samples in shape")
        starts = [operator.index(a) for a in starts]
        bounds = starts + [times.shape[0]]
        if starts[:1] != [0] or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"starts {starts} must begin at 0 and rise strictly "
                             f"below {times.shape[0]}: an arc has at least one "
                             "segment, and each segment at least one sample")
        if not 0 <= n_memory <= len(starts):
            raise ValueError(f"n_memory {n_memory} must lie in [0, {len(starts)}], "
                             "the number of segments")
        rising = times[1:] > times[:-1]  # NaN fails here too
        rising[np.array(starts[1:], dtype=np.intp) - 1] = True  # across levels
        if not rising.all():
            raise ValueError("segment sample times must be strictly increasing")
        _read_only(times, values, derivs, known)
        self._store(times, values, derivs, known, starts, n_memory, interpolation)
        msg = validate_domain(self)
        if msg is not None:
            raise ValueError(f"invalid hybrid time domain: {msg}")

    def _store(self, times, values, derivs, known, starts, n_memory,
               interpolation, delta=None) -> "HybridArc":
        self.times, self.values, self.derivs, self.known = times, values, derivs, known
        self.starts, self.n_memory, self.n = starts, n_memory, times.shape[0]
        self.interpolation, self.dimension = interpolation, values.shape[1]
        if delta is not None:  # a memory arc's or a History's memory size
            self.delta = float(delta)
        return self

    @classmethod
    def _of(cls, times, values, starts, n_memory, derivs=None, known=None,
            interpolation="linear", delta=None) -> "HybridArc":
        """An arc on the given store, read-only and unchecked: for cuts of
        checked arcs."""
        _read_only(times, values, derivs, known)
        return cls.__new__(cls)._store(times, values, derivs, known, starts,
                                       n_memory, interpolation, delta)

    def levels(self) -> list[tuple[int, int]]:
        """(first, end) indices of each level, memory side first."""
        bounds = self.starts + [self.n]
        return list(zip(bounds, bounds[1:]))

    def jump_index(self, level: int) -> int:
        return level - self.n_memory + (level < self.n_memory)

    def all_segments(self) -> tuple[ArcSegment, ...]:
        """Each level as a segment on views of the store; a level shows
        derivatives only when all its samples carry one."""
        return tuple(ArcSegment(self.jump_index(k), self.times[a:b], self.values[a:b],
                                self.derivs[a:b] if self.derivs is not None
                                and self.known[a:b].all() else None)
                     for k, (a, b) in enumerate(self.levels()))

    @property
    def memory_segments(self) -> tuple[ArcSegment, ...]:
        return self.all_segments()[:self.n_memory]

    @property
    def forward_segments(self) -> tuple[ArcSegment, ...]:
        return self.all_segments()[self.n_memory:]

    def _level_at(self, t: float, j: int) -> tuple[int, int]:
        """(first, end) indices of the level holding hybrid time (t, j), up
        to TIME_TOL (at (0, 0) the memory side's); DomainError if none."""
        m, levels = self.n_memory, self.levels()
        for k, first, end, side in ((m - 1 + j, 0, m, j < 0 or t <= TIME_TOL),
                                    (m + j, m, len(levels), j > 0 or t >= -TIME_TOL)):
            if side and first <= k < end:
                a, b = levels[k]
                if self.times.item(a) - TIME_TOL <= t <= self.times.item(b - 1) + TIME_TOL:
                    return a, b
        raise DomainError(f"point (t={t}, j={j}) is not in the arc domain", t, j)

    def eval(self, t: float, j: int) -> np.ndarray:
        """Value at hybrid time (t, j), interpolated within its level."""
        a, b = self._level_at(t, j)
        return _interpolate(self.times, self.values, self.derivs, t,
                            self.interpolation, a, b, self.known)

    def value(self, tq: float, segment: int | None = None,
              end: int | None = None, floor: int = 0) -> np.ndarray:
        """Value at time tq on the newest jump level whose first sample is at
        or before tq (up to TIME_TOL): the maximal-jump-index rule, so a jump
        instant reads its post-jump value.  Only levels ``floor`` to
        ``segment`` and samples before ``end`` are read (default: all).
        Each call returns a fresh array."""
        starts, times = self.starts, self.times
        if segment is None:
            segment, end = len(starts) - 1, self.n
        if tq > times.item(end - 1) + TIME_TOL:
            raise DomainError(f"time {tq} is after the stored history", tq, None)
        for k in range(segment, floor - 1, -1):
            lo = starts[k]
            if tq >= times.item(lo) - TIME_TOL:
                return _interpolate(times, self.values, self.derivs, tq,
                                    self.interpolation, lo, end, self.known)
            end = lo
        raise InsufficientHistoryError(
            f"time {tq} precedes all stored history", tq, None)

    def memory_side(self, delta: float) -> "HybridMemoryArc":
        """The memory side as a memory arc of size delta, on read-only views
        of this arc's arrays (unchecked)."""
        m = self.n_memory
        if m == 0:
            raise ValueError("arc has no memory side")
        end = self.levels()[m - 1][1]
        times, values, derivs, known = (None if a is None else a[:end] for a in (
            self.times, self.values, self.derivs, self.known))
        return HybridMemoryArc._of(times, values, self.starts[:m], m, derivs, known,
                                   self.interpolation, delta=delta)


class HybridMemoryArc(HybridArc):
    """A hybrid arc restricted to the memory side, with memory size delta.

    Membership in the class of admissible memory arcs requires every domain
    point to satisfy s + k >= -delta - 1 and some point to reach
    s + k <= -delta.  A single-point domain {(0, 0)} is accepted only when
    delta = 0.  The constructor takes the store with ``delta`` in place of
    ``n_memory`` (every level is a memory level) and checks delta >= 0 (NaN
    fails), the arc's rules, then membership.
    """

    def __init__(self, times, values, starts: Sequence[int], delta: float,
                 derivs=None, known=None, interpolation: str = "linear"):
        if not delta >= 0:  # NaN fails here too
            raise ValueError("memory size delta must be nonnegative")
        self.delta = float(delta)
        super().__init__(times, values, starts, len(starts), derivs, known,
                         interpolation)
        msg = self.membership_violation()
        if msg is not None:
            raise ValueError(msg)

    def membership_violation(self) -> Optional[str]:
        """Check the two memory-class clauses; None when both hold."""
        deepest = np.inf
        for k, a in enumerate(self.starts, 1 - len(self.starts)):
            lo_depth = self.times.item(a) + k
            if lo_depth < -self.delta - 1 - TIME_TOL:
                return ("memory arc reaches s + k = "
                        f"{lo_depth:.6g} < -delta - 1 = {-self.delta - 1:.6g}")
            deepest = min(deepest, lo_depth)
        if deepest > -self.delta + TIME_TOL:
            return (f"memory arc only reaches s + k = {deepest:.6g}; "
                    f"some point must satisfy s + k <= -delta = {-self.delta:.6g}")
        return None

    @property
    def head(self) -> np.ndarray:
        """Value at (0, 0)."""
        return self.values[self.n - 1]

    @property
    def time_reach(self) -> float:
        """Oldest time covered by the arc (a nonpositive number)."""
        return self.times.item(0)

    #: Value at (s, k(s)), k(s) the maximal jump index at time s.
    delayed = HybridArc.value


class History(HybridArc):
    """The growable form of an arc's store, for the solver.

    It starts as the arc's samples and grows by forward levels, a sample at
    a time, in arrays that double in size when full; forward samples carry
    a derivative (0 until the solver writes one).  ``capacity`` rows are
    reserved up front; with none, it reads the arc's own read-only arrays
    until it grows.  Appending costs O(1) amortised; a delayed read is one binary
    search on one level's slice.
    """

    def __init__(self, arc: HybridArc, delta: float, capacity: int = 64):
        n = arc.n
        derivs, known = arc.derivs, arc.known
        if derivs is None:
            derivs, known = np.zeros_like(arc.values[:n]), np.zeros(n, dtype=bool)
        self._store(*(_padded(a[:n], capacity)
                      for a in (arc.times, arc.values, derivs, known)),
                    list(arc.starts), arc.n_memory, arc.interpolation, delta)
        self.n = n

    def start_segment(self, t: float, x: np.ndarray) -> None:
        """Open the next forward jump level with its first sample."""
        self.starts.append(self.n)
        self.append(t, x)

    def append(self, t: float, x: np.ndarray) -> None:
        """Add a sample to the newest level, with derivative 0."""
        if self.n == self.times.shape[0]:
            for name in ("times", "values", "derivs", "known"):
                setattr(self, name, _padded(getattr(self, name), self.n))
        self.times[self.n] = t
        self.values[self.n] = x
        self.n += 1

    def view(self, index: int | None = None) -> "WindowView":
        """The window at the stored sample ``index`` (default: the newest)."""
        if index is None:
            index, segment = self.n - 1, len(self.starts) - 1
        else:
            segment = bisect.bisect_right(self.starts, index) - 1
        return WindowView(self, index, segment, self.values[index])

    def to_arc(self) -> HybridArc:
        """The stored samples as an arc, on copies of the rows in use."""
        times, values, derivs, known = (a[:self.n].copy() for a in (
            self.times, self.values, self.derivs, self.known))
        return HybridArc._of(times, values, list(self.starts), self.n_memory,
                             derivs, known, self.interpolation)


def _read_only(*arrays: np.ndarray | None) -> None:
    """Mark the arrays, each but None, read-only."""
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


def _padded(a: np.ndarray, rows: int) -> np.ndarray:
    """a followed by ``rows`` rows of zeros, or of True for flags (appended
    samples carry a derivative); a itself when rows is 0."""
    return a if not rows else np.concatenate(
        [a, np.full((rows,) + a.shape[1:], a.dtype == bool, dtype=a.dtype)])


class WindowView:
    """The window protocol (head, delayed(s), delta) at a sample of a History.

    Reads follow the maximal-jump-index rule and never see samples stored
    after the view's own, nor levels below ``floor`` (another arc's, in a
    stack of many).  :meth:`extend` gives the window at a provisional
    point x, dt ahead on the same jump level, as Runge-Kutta stages need:
    delays shorter than dt read the straight line from the stored head to x,
    longer ones read the stored history.  A view from :meth:`extend` keeps
    its stored-history reads, keyed by s, and :meth:`with_head` hands them to
    a view at the same stage time with another head, so the two half-step
    stages of a step read the stored history once per delay.  The straight
    line depends on the head and is never kept.  Every read returns a fresh
    array.
    """

    __slots__ = ("history", "index", "segment", "head", "dt", "reads", "floor")

    def __init__(self, history: History, index: int, segment: int,
                 head: np.ndarray, dt: float = 0.0,
                 reads: dict[float, np.ndarray] | None = None, floor: int = 0):
        self.history = history
        self.index = index
        self.segment = segment
        self.head = head
        self.dt = dt
        self.reads = reads
        self.floor = floor

    @property
    def delta(self) -> float:
        return self.history.delta

    def extend(self, dt: float, x: np.ndarray) -> "WindowView":
        return WindowView(self.history, self.index, self.segment, x, dt, {},
                          self.floor)

    def with_head(self, x: np.ndarray) -> "WindowView":
        """The view at the same point and stage time with head x; it shares
        this view's stored-history reads."""
        return WindowView(self.history, self.index, self.segment, x, self.dt,
                          self.reads, self.floor)

    def delayed(self, s: float) -> np.ndarray:
        hist = self.history
        q = self.dt + s
        if q >= 0.0 and self.dt > 0.0:
            return _lerp(hist.values[self.index], self.head, q / self.dt)
        reads = self.reads
        x = None if reads is None else reads.get(s)
        if x is None:
            x = hist.value(hist.times.item(self.index) + q, self.segment,
                           self.index + 1, self.floor)
            if reads is None:
                return x
            reads[s] = x
        return x.copy()


class BatchView:
    """The window protocol at several stored samples of one store at once.

    ``head`` and ``delayed(s)`` are (B, n) arrays whose row i is bit for bit
    what the :class:`WindowView` at ``index[i]`` on level ``segment[i]``,
    reading no level below ``floor[i]``, gives; :meth:`views` lists those
    views.  The store is a History (``segment`` defaults to each sample's
    level, ``floor`` to 0) or a stack of many arcs' Histories, whose rows
    each name their own levels.  :meth:`extend` and :meth:`with_head` are
    the window view's, for every row at once: all rows of a batch share one
    stage offset dt.  A delayed read finds every row's jump level with one
    binary search over its own levels' first times, which an arc's levels
    have in time order, and interpolates all rows with one binary search
    each and one :func:`_blend` call.  Like a view, it never reads a sample
    stored after its row's own.
    """

    __slots__ = ("history", "index", "segment", "floor", "head", "dt", "reads")

    def __init__(self, history: HybridArc, index, segment=None, floor=None):
        self.history = history
        self.index = np.asarray(index, dtype=np.intp)
        self.segment = (np.searchsorted(history.starts, self.index, side="right") - 1
                        if segment is None else np.asarray(segment, dtype=np.intp))
        self.floor = (np.zeros_like(self.index) if floor is None
                      else np.asarray(floor, dtype=np.intp))
        self.head = history.values[self.index]
        self.dt, self.reads = 0.0, None

    @property
    def delta(self) -> float:
        return self.history.delta

    def _moved(self, head: np.ndarray, dt: float, reads: dict | None) -> "BatchView":
        view = object.__new__(BatchView)
        view.history, view.index = self.history, self.index
        view.segment, view.floor = self.segment, self.floor
        view.head, view.dt, view.reads = head, dt, reads
        return view

    def extend(self, dt: float, x: np.ndarray) -> "BatchView":
        return self._moved(x, dt, {})

    def with_head(self, x: np.ndarray) -> "BatchView":
        return self._moved(x, self.dt, self.reads)

    def views(self) -> list[WindowView]:
        hist, dt = self.history, self.dt
        return [WindowView(hist, i, k, x, dt, None if self.reads is None else {}, f)
                for i, k, x, f in zip(self.index.tolist(), self.segment.tolist(),
                                      self.head, self.floor.tolist())]

    def delayed(self, s: float) -> np.ndarray:
        hist, index = self.history, self.index
        q = self.dt + s
        if q >= 0.0 and self.dt > 0.0:
            return _lerp(hist.values[index], self.head, q / self.dt)
        reads = self.reads
        x = None if reads is None else reads.get(s)
        if x is None:
            x = self._read(hist.times[index] + q)
            if reads is None:
                return x
            reads[s] = x
        return x.copy()

    def _read(self, tq: np.ndarray) -> np.ndarray:
        """Each row's History.value at tq[i], on its own levels up to its
        own sample."""
        hist, index = self.history, self.index
        times = hist.times
        late = tq > times[index] + TIME_TOL
        if late.any():
            t = tq[late][0]
            raise DomainError(f"time {t} is after the stored history", t, None)
        first = np.array(hist.starts, dtype=np.intp)
        end = np.append(first[1:], hist.n)
        # History.value's rule: the newest of the row's levels, up to its
        # own, whose first sample lies at or before tq
        level = _bisect(times[first] - TIME_TOL, self.floor, self.segment + 1,
                        tq, True) - 1
        missing = level < self.floor
        if missing.any():
            t = tq[missing][0]
            raise InsufficientHistoryError(
                f"time {t} precedes all stored history", t, None)
        first = first[level]
        stop = np.where(level == self.segment, index + 1, end[level])
        # _interpolate on each row's samples first:stop, held constant past
        # either end
        values = hist.values
        out = np.empty_like(self.head)
        before = tq <= times[first]
        after = ~before & (tq >= times[stop - 1])
        out[before] = values[first[before]]
        out[after] = values[stop[after] - 1]
        inner = np.flatnonzero(~(before | after))
        if inner.size:
            i = _bisect(times, first[inner], stop[inner], tq[inner], True) - 1
            out[inner] = _blend(times, values, hist.derivs if hist.interpolation
                                == "hermite" else None, hist.known, tq[inner], i)
        return out


def _memory_grid(delta: float, depth: float, grid_step: float | None,
                 intervals: int) -> np.ndarray:
    """Uniform sample times of [-depth, 0], ``intervals`` of them by default,
    else as many as make each at most grid_step long (at least one); depth
    0 gives the single time 0."""
    if not math.isfinite(depth):
        raise ValueError(f"depth must be finite, got {depth}")
    if depth < delta:
        raise ValueError("depth must reach the memory size delta")
    if grid_step is not None and not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f"grid_step must be positive and finite, got {grid_step}")
    if depth == 0.0:
        return np.zeros(1)
    m = max(2, math.ceil(depth / (depth / intervals if grid_step is None
                                  else grid_step)) + 1)
    return np.linspace(-depth, 0.0, m)


def constant_memory_arc(value: np.ndarray, delta: float,
                        depth: float | None = None,
                        grid_step: float | None = None) -> HybridMemoryArc:
    """Single-segment memory arc holding a constant value.

    The segment spans [-depth, 0] with depth defaulting to delta, so the arc
    is admissible for memory size delta; depth 0 gives the single sample at
    (0, 0).  Its grid has 8 intervals unless grid_step is given.
    """
    value = np.atleast_1d(np.asarray(value, dtype=float))
    # max(0.0, nan) is 0.0: a NaN delta reaches the constructor, which names it
    times = _memory_grid(delta, max(0.0, delta) if depth is None else depth,
                         grid_step, 8)
    return HybridMemoryArc(times, np.tile(value, (times.shape[0], 1)), [0], delta)


def memory_arc_from_function(fn: Callable[[float], np.ndarray], delta: float,
                             depth: float | None = None,
                             grid_step: float | None = None) -> HybridMemoryArc:
    """Single-segment memory arc sampling fn(s) on a uniform grid of
    [-depth, 0]: depth defaults to delta (at least 1e-3), the grid to 50
    intervals."""
    times = _memory_grid(delta, max(1e-3, delta) if depth is None else depth,
                         grid_step, 50)
    values = np.array([np.atleast_1d(np.asarray(fn(s), dtype=float))
                       for s in times.tolist()])
    return HybridMemoryArc(times, values, [0], delta)


# ---------------------------------------------------------------------------
# CSV serialization: rows `t, j, v_1, ..., v_n`, one jump level of the
# store after another, which sorts them lexicographically by (j, t), the
# memory side's row first where both sides share (j, t); the memory side
# uses t <= 0, j <= 0.  Round-trips are bit-exact on sample points
# (derivative samples are not serialized; values may be non-finite, times
# may not).  Both directions go one jump level at a time, through Python
# floats and one array per level.
#
# A row at j = 0 within TIME_TOL of t = 0 names no side.  The reader gives
# the first such row to the memory side if the file has other memory rows
# or no other forward rows, and the next one to the forward side if it has
# other forward rows; it drops the rest.  So each side may hold at most one
# sample there, the memory side's not after the forward side's, and a side
# may be that one sample alone only in a memory arc.  arc_to_csv refuses
# other arcs with a ValueError instead of writing rows that read back as
# another arc.
# ---------------------------------------------------------------------------

def _csv_zero_rows_problem(arc: HybridArc) -> Optional[str]:
    """Why the jump-0 rows near t = 0 would not read back; None if they do."""
    levels, m = arc.levels(), arc.n_memory
    split = levels[m][0] if m < len(levels) else arc.n  # first forward row
    near = {}
    for side, (a, b), rows in (("memory", levels[m - 1] if m else (0, 0), split),
                               ("forward", levels[m] if split < arc.n else (0, 0),
                                arc.n - split)):
        times = arc.times[a:b]
        near[side] = times[np.abs(times) <= TIME_TOL].tolist()
        if len(near[side]) > 1:
            return (f"the {side} side holds {len(near[side])} samples within "
                    "TIME_TOL of t = 0")
        if near[side] and split < arc.n and rows == 1:
            return (f"the {side} side is one sample within TIME_TOL of t = 0, "
                    "which the reader cannot place on it")
    if near["memory"] and near["forward"] and near["memory"][0] > near["forward"][0]:
        return (f"the memory side's sample at t = {near['memory'][0]!r} lies "
                f"after the forward side's at t = {near['forward'][0]!r}")
    return None


def arc_to_csv(arc: HybridArc) -> str:
    problem = _csv_zero_rows_problem(arc)
    if problem is not None:
        raise ValueError(f"cannot write jump level 0 as CSV: {problem}; "
                         "its rows would read back as another arc")
    lines = []
    for k, (a, b) in enumerate(arc.levels()):
        tag = str(arc.jump_index(k))
        for t, *row in zip(arc.times[a:b].tolist(), *arc.values[a:b].T.tolist()):
            lines.append(",".join([repr(t), tag, *map(repr, row)]))
    return "\n".join(lines) + "\n"


def write_arc_csv(arc: HybridArc, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(arc_to_csv(arc))


def arc_from_csv(text: str, delta: float | None = None,
                 interpolation: str = "linear") -> HybridArc:
    """Parse the CSV produced by :func:`arc_to_csv`.

    When both sides are present the shared sample at (0, 0) must appear twice
    (once per side).  If ``delta`` is given and the forward side is empty, a
    :class:`HybridMemoryArc` is returned.
    """
    if not text.strip():
        raise ValueError("empty CSV")
    # per jump level of each side: its times and its rows' components, all
    # in file order
    memory: dict[int, tuple[list[float], list[float]]] = {}
    forward: dict[int, tuple[list[float], list[float]]] = {}
    zero: list[tuple[float, list[float]]] = []  # rows at (0, 0) up to TIME_TOL
    width = None
    for line in text.strip().splitlines():
        parts = line.strip().split(",")
        if len(parts) < 3:
            raise ValueError(f"CSV row needs t, j and at least one component: {line!r}")
        if len(parts) - 2 != width:
            if width is not None:
                raise ValueError("CSV rows differ in their number of components")
            width = len(parts) - 2
        t, j = float(parts[0]), int(parts[1])
        if not math.isfinite(t):
            raise ValueError(f"CSV row has a non-finite time: {line!r}")
        row = [float(x) for x in parts[2:]]
        if j < 0 or (j == 0 and t < -TIME_TOL):
            side = memory
        elif j > 0 or (j == 0 and t > TIME_TOL):
            side = forward
        else:
            zero.append((t, row))
            continue
        times, flat = side.setdefault(j, ([], []))
        times.append(t)
        flat += row

    has_memory = bool(memory) or (bool(zero) and not forward)
    has_forward = bool(forward)
    if has_memory and has_forward:
        if len(zero) < 2:
            raise ValueError("arc with both sides must store the shared (0, 0) "
                             "sample once per side")
        mem_zero, fwd_zero = zero[:1], zero[1:2]
    elif has_memory:
        if not zero:
            raise ValueError("memory side must end at (0, 0)")
        mem_zero, fwd_zero = zero[:1], []
    else:
        mem_zero, fwd_zero = [], zero[:1]
    for side, rows in ((memory, mem_zero), (forward, fwd_zero)):
        for t, row in rows:
            times, flat = side.setdefault(0, ([], []))
            times.append(t)
            flat += row

    mem_js, fwd_js = sorted(memory), sorted(forward)
    if mem_js != list(range(1 - len(mem_js), 1)) or fwd_js != list(range(len(fwd_js))):
        raise ValueError("invalid hybrid time domain: jump indices must "
                         "increment by exactly 1, ending at 0 on the memory "
                         "side and starting at 0 on the forward side")
    times, values, starts = [], [], [0]
    for level_times, flat in [memory[j] for j in mem_js] + [forward[j] for j in fwd_js]:
        order = np.argsort(level_times, kind="stable")
        times.append(np.array(level_times)[order])
        values.append(np.array(flat).reshape(-1, width)[order])
        starts.append(starts[-1] + order.shape[0])
    times, values, starts = np.concatenate(times), np.concatenate(values), starts[:-1]
    if delta is not None and not forward:
        return HybridMemoryArc(times, values, starts, delta,
                               interpolation=interpolation)
    return HybridArc(times, values, starts, len(mem_js), interpolation=interpolation)


# The window operators import this module's arcs and reads; they keep their
# names here, where callers look them up.
from .batch import (append_jump, delayed_sq_integral, delta_inf,  # noqa: E402,F401
                    memory_window, sup_norm_w, vbar)
