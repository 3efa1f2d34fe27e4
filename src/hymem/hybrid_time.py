"""Hybrid time domains with memory, hybrid arcs, and memory-window operators.

A hybrid time domain tracks both continuous time t and a jump counter j.
The forward part lives in t >= 0, j >= 0 and the memory part in t <= 0,
j <= 0; both are unions of closed intervals, one per jump level, with
consecutive levels sharing their boundary time.  Arcs attach sampled vector
values to such a domain and interpolate between samples (piecewise linear by
default, cubic Hermite when derivative samples are stored).

The window operator extracts the recent history of a stored solution at a
forward point (t, j): the result is a memory arc whose depth, measured in
s + k, lies between the memory size ``delta`` and ``delta + 1``.
:class:`History` stores an arc's samples in growable arrays for the solver,
and :class:`WindowView` reads them through the window protocol (head,
delayed(s), delta) without materializing that memory arc; a
:class:`BatchView` reads the windows at many stored samples at once.

The window maximum (:func:`sup_norm_w`, also named :func:`vbar`) takes
every window a check needs in one pass: consecutive windows go into blocks
of at most ``_BLOCK_ROWS`` stored samples, and each block makes one call of
the batch form for its stored samples and one per refinement round.  A
batch form must give each row the same bits whatever rows come with it, so
a window's maximum is what it would be alone.

Arcs are checked once, where outside data enters: by the constructors of
:class:`HybridArc` and :class:`HybridMemoryArc`.  The window operators and
:meth:`History.to_arc` only cut, shift and join the samples of checked
arcs, which keeps them valid, so they skip the checks.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate
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


@dataclass(frozen=True)
class HybridTimeDomain:
    """Piecewise-interval set in (time, jump counter) space.

    ``forward`` holds (lo, hi, j) triples with j = 0, 1, ... starting at
    lo = 0; ``memory`` holds (lo, hi, k) triples with k = -K+1, ..., 0 in
    chronological order, ending at hi = 0.  Consecutive triples on either
    side share their boundary time and step the jump index by exactly one.
    """

    forward: tuple[tuple[float, float, int], ...]
    memory: tuple[tuple[float, float, int], ...]

    def all_segments(self) -> tuple[tuple[float, float, int], ...]:
        return self.memory + self.forward


def validate_domain(domain: HybridTimeDomain) -> Optional[str]:
    """Check the hybrid-time-domain invariants; return None if they hold.

    On failure returns a string naming the first violated clause.
    """
    for lo, hi, _ in domain.all_segments():
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return "interval endpoints must be finite"
        if hi < lo - TIME_TOL:
            return "interval endpoints must be non-decreasing"

    if domain.forward:
        lo0, _, j0 = domain.forward[0]
        if abs(lo0) > TIME_TOL:
            return "forward domain must start at t = 0"
        if j0 != 0:
            return "forward domain must start at jump index 0"
        for (lo_a, hi_a, j_a), (lo_b, hi_b, j_b) in zip(domain.forward, domain.forward[1:]):
            if j_b != j_a + 1:
                return "forward jump indices must increment by exactly 1"
            if abs(lo_b - hi_a) > TIME_TOL:
                return "segments must share boundary time"
        for lo, hi, j in domain.forward:
            if lo < -TIME_TOL or j < 0:
                return "forward points must satisfy t >= 0 and j >= 0"

    if domain.memory:
        _, hi_last, k_last = domain.memory[-1]
        if abs(hi_last) > TIME_TOL:
            return "memory domain must end at t = 0"
        if k_last != 0:
            return "memory domain must end at jump index 0"
        for (lo_a, hi_a, k_a), (lo_b, hi_b, k_b) in zip(domain.memory, domain.memory[1:]):
            if k_b != k_a + 1:
                return "memory jump indices must increment by exactly 1"
            if abs(lo_b - hi_a) > TIME_TOL:
                return "segments must share boundary time"
        for lo, hi, k in domain.memory:
            if hi > TIME_TOL or k > 0:
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
                 lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Value at time t of the increasing samples ``lo:hi`` (default: all),
    held constant past either end, as a fresh array.

    Cubic Hermite when ``scheme`` is "hermite" and derivative samples are
    given, piecewise linear otherwise.  The bracket is read as Python floats
    and found by one binary search on the samples' times; values and
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
    if scheme == "hermite" and derivs is not None:
        return _hermite(values[i], values[i + 1], derivs[i], derivs[i + 1], h, w)
    return _lerp(values[i], values[i + 1], w)


def _blend(times: np.ndarray, values: np.ndarray, derivs: np.ndarray | None,
           ts: np.ndarray, i: np.ndarray, hermite: np.ndarray) -> np.ndarray:
    """The interpolant at each time of ``ts`` in its bracket [times[i],
    times[i + 1]], one row each: cubic Hermite on the rows that the mask
    ``hermite`` selects, linear on the others, with :func:`_interpolate`'s
    formulas."""
    t0 = times[i]
    h = (times[i + 1] - t0)[:, None]
    w = (ts - t0)[:, None] / h
    if not hermite.any():
        return _lerp(values[i], values[i + 1], w)
    if hermite.all():
        return _hermite(values[i], values[i + 1], derivs[i], derivs[i + 1], h, w)
    out = _lerp(values[i], values[i + 1], w)
    k = i[hermite]
    out[hermite] = _hermite(values[k], values[k + 1], derivs[k], derivs[k + 1],
                            h[hermite], w[hermite])
    return out


def _interpolate_many(times: np.ndarray, values: np.ndarray,
                      derivs: np.ndarray | None, ts: np.ndarray,
                      scheme: str = "linear") -> np.ndarray:
    """:func:`_interpolate` at every time of ``ts``, one row each, bit for bit.

    One binary search for all of ``ts``, then the same blend formulas with
    the weights as a column.  ``times`` must hold at least two strictly
    increasing samples (the window maximum refines only such segments).
    """
    i = np.clip(np.searchsorted(times, ts, side="right") - 1,
                0, times.shape[0] - 2)
    out = _blend(times, values, derivs, ts, i,
                 np.full(ts.shape[0], scheme == "hermite" and derivs is not None))
    out[ts <= times[0]] = values[0]
    out[ts >= times[-1]] = values[-1]
    return out


@dataclass(frozen=True)
class ArcSegment:
    """Samples of one jump level: times (increasing) and row-wise values.

    ``derivs`` optionally stores the time derivative at each sample, enabling
    cubic Hermite interpolation.  Construction only converts the samples to
    read-only float arrays (values as rows); :class:`HybridArc` checks them.
    """

    jump_index: int
    times: np.ndarray
    values: np.ndarray
    derivs: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if times.ndim == 1 and values.shape[0] != times.shape[0]:
            values = values.T
        derivs = self.derivs
        if derivs is not None:
            derivs = np.atleast_2d(np.asarray(derivs, dtype=float))
            derivs.flags.writeable = False
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivs", derivs)

    @property
    def lo(self) -> float:
        return float(self.times[0])

    @property
    def hi(self) -> float:
        return float(self.times[-1])

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    def contains_time(self, t: float) -> bool:
        return self.lo - TIME_TOL <= t <= self.hi + TIME_TOL

    def interpolate(self, t: float, scheme: str = "linear") -> np.ndarray:
        """Evaluate the segment at time t (in [lo, hi] up to TIME_TOL)."""
        return _interpolate(self.times, self.values, self.derivs, t, scheme)

    def _slice(self, lo: float, hi: float, scheme: str
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
        """(times, values, derivs) of the segment on [lo, hi], with
        interpolated boundary samples.

        The stored samples within TIME_TOL of [lo, hi] are one contiguous
        slice (a view, found by two binary searches); interpolated samples
        at lo and hi are concatenated on where no stored sample lies within
        TIME_TOL.  Returns None when [lo, hi] misses the segment by more
        than TIME_TOL.
        """
        lo = max(lo, self.lo)
        hi = min(hi, self.hi)
        if hi < lo - TIME_TOL:
            return None
        if hi < lo:
            hi = lo
        times, values, derivs = self.times, self.values, self.derivs
        a = int(np.searchsorted(times, lo - TIME_TOL, side="left"))
        b = int(np.searchsorted(times, hi + TIME_TOL, side="right"))

        def sample(t: float):
            return (np.array([t]), self.interpolate(t, scheme)[None],
                    None if derivs is None
                    else _interpolate(times, derivs, None, t)[None])

        pieces = [(times[a:b], values[a:b],
                   None if derivs is None else derivs[a:b])]
        if a == b or times[a] > lo + TIME_TOL:
            pieces.insert(0, sample(lo))
        if (times[b - 1] if a < b else lo) < hi - TIME_TOL:
            pieces.append(sample(hi))
        if len(pieces) == 1:
            return pieces[0]
        t, v, d = zip(*pieces)
        return (np.concatenate(t), np.concatenate(v),
                None if derivs is None else np.concatenate(d))


class HybridArc:
    """A hybrid time domain with memory plus sampled vector values.

    The memory side carries the initial data, the forward side a computed
    solution.  Evaluation is defined exactly on the domain; querying off the
    domain raises :class:`DomainError`.

    ``validate`` (default True) checks each segment (at least one sample,
    strictly increasing times, values of shape (m, n), derivatives of that
    shape) and the domain; no other place checks them.  Results cut from
    checked arcs pass ``validate=False``, since a certificate check cuts
    thousands of windows and each is valid by construction.
    """

    def __init__(self, memory_segments: Sequence[ArcSegment] = (),
                 forward_segments: Sequence[ArcSegment] = (),
                 interpolation: str = "linear", validate: bool = True):
        self.memory_segments = tuple(memory_segments)
        self.forward_segments = tuple(forward_segments)
        if interpolation not in ("linear", "hermite"):
            raise ValueError(f"unknown interpolation scheme {interpolation!r}")
        self.interpolation = interpolation
        if not self.memory_segments and not self.forward_segments:
            raise ValueError("arc must have at least one segment")
        dims = {s.dimension for s in self.memory_segments + self.forward_segments}
        if len(dims) != 1:
            raise ValueError("all segments must share one state dimension")
        self.dimension = dims.pop()
        if validate:
            for seg in self.all_segments():
                times, values = seg.times, seg.values
                if (times.ndim != 1 or values.ndim != 2
                        or values.shape[0] != times.shape[0]):
                    raise ValueError("segment needs times of shape (m,) and "
                                     "values of shape (m, n)")
                if times.shape[0] == 0:
                    raise ValueError("segment must contain at least one sample")
                if not (times[1:] > times[:-1]).all():  # NaN fails here too
                    raise ValueError("segment sample times must be strictly increasing")
                if seg.derivs is not None and seg.derivs.shape != values.shape:
                    raise ValueError("derivative samples must match value "
                                     "samples in shape")
            msg = validate_domain(self.domain())
            if msg is not None:
                raise ValueError(f"invalid hybrid time domain: {msg}")

    def domain(self) -> HybridTimeDomain:
        return HybridTimeDomain(
            forward=tuple((s.lo, s.hi, s.jump_index) for s in self.forward_segments),
            memory=tuple((s.lo, s.hi, s.jump_index) for s in self.memory_segments),
        )

    def _find_segment(self, t: float, j: int) -> ArcSegment | None:
        if j > 0 or (j == 0 and t > TIME_TOL):
            pools: tuple[tuple[ArcSegment, ...], ...] = (self.forward_segments,)
        elif j < 0 or (j == 0 and t < -TIME_TOL):
            pools = (self.memory_segments,)
        else:
            pools = (self.memory_segments, self.forward_segments)
        for pool in pools:
            for seg in pool:
                if seg.jump_index == j and seg.contains_time(t):
                    return seg
        return None

    def eval(self, t: float, j: int) -> np.ndarray:
        """Value at hybrid time (t, j); interpolates within the j segment."""
        seg = self._find_segment(t, j)
        if seg is None:
            raise DomainError(f"point (t={t}, j={j}) is not in the arc domain", t, j)
        return seg.interpolate(t, self.interpolation)

    def all_segments(self) -> tuple[ArcSegment, ...]:
        return self.memory_segments + self.forward_segments


class HybridMemoryArc(HybridArc):
    """A hybrid arc restricted to the memory side, with memory size delta.

    Membership in the class of admissible memory arcs requires every domain
    point to satisfy s + k >= -delta - 1 and some point to reach
    s + k <= -delta.  A single-point domain {(0, 0)} is accepted only when
    delta = 0.
    """

    def __init__(self, segments: Sequence[ArcSegment], delta: float,
                 interpolation: str = "linear", validate: bool = True):
        if delta < 0:
            raise ValueError("memory size delta must be nonnegative")
        self.delta = float(delta)
        super().__init__(memory_segments=segments, forward_segments=(),
                         interpolation=interpolation, validate=validate)
        if validate:
            msg = self.membership_violation()
            if msg is not None:
                raise ValueError(msg)

    def membership_violation(self) -> Optional[str]:
        """Check the two memory-class clauses; None when both hold."""
        deepest = np.inf
        for seg in self.memory_segments:
            lo_depth = seg.lo + seg.jump_index
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
        return self.memory_segments[-1].values[-1]

    @property
    def time_reach(self) -> float:
        """Oldest time covered by the arc (a nonpositive number)."""
        return self.memory_segments[0].lo

    def delayed(self, s: float) -> np.ndarray:
        """Value at (s, k(s)) where k(s) is the maximal jump index at time s.

        Reads the newest segment whose first sample is at or before s (up to
        TIME_TOL), as :meth:`History.value` does, but reads the segments in
        place rather than copying them into a :class:`History`.
        """
        segments = self.memory_segments
        if s > segments[-1].hi + TIME_TOL:
            raise DomainError(f"time {s} is after the stored history", s, None)
        for seg in reversed(segments):
            if s >= seg.times.item(0) - TIME_TOL:
                return seg.interpolate(s, self.interpolation)
        raise InsufficientHistoryError(
            f"time {s} precedes all stored history", s, None)

    def delayed_runs(self, lo: float,
                     hi: float) -> list[tuple[np.ndarray, np.ndarray]]:
        """Stored samples of s -> phi(s, k(s)) on [lo, hi], split at memory jumps.

        Returns one (times, values) pair of arrays per continuous piece,
        sliced from the segments by :meth:`ArcSegment._slice` (boundary
        points interpolated in) without building a segment per piece;
        they may be read-only views of the arc's own samples.  Jump
        instants belong to the newer (post-jump) piece, matching the
        maximal-k rule.
        """
        if hi < lo:
            raise ValueError("need lo <= hi")
        runs: list[tuple[np.ndarray, np.ndarray]] = []
        for idx in range(len(self.memory_segments) - 1, -1, -1):
            seg = self.memory_segments[idx]
            if seg.lo > hi + TIME_TOL:
                continue
            if seg.hi < lo - TIME_TOL:
                break
            piece_hi = min(hi, seg.hi)
            # the newer neighbour owns the shared boundary time
            if runs:
                piece_hi = min(piece_hi, runs[-1][0][0])
            piece_lo = max(lo, seg.lo)
            cut = seg._slice(piece_lo, piece_hi, self.interpolation)
            if cut is not None:
                runs.append(cut[:2])
            if seg.lo <= lo + TIME_TOL:
                break
        runs.reverse()
        if not runs:
            raise DomainError(f"no stored history on [{lo}, {hi}]", lo, None)
        return runs


class History:
    """An arc's samples in growable arrays, for appending and reading.

    All segments, memory side first, sit back to back in arrays of times,
    values and derivatives that double in size when full; ``starts`` holds
    each segment's first index.  Forward segment i has jump index i.
    Appending costs O(1) amortised; a delayed read is one binary search on
    one segment's slice.
    """

    def __init__(self, arc: HybridArc, delta: float, capacity: int = 64):
        segments = arc.all_segments()
        lengths = [seg.times.shape[0] for seg in segments]
        pad = np.zeros((capacity, arc.dimension))
        self.memory = arc.memory_segments
        self.n_memory = len(self.memory)
        self.delta = float(delta)
        self.interpolation = arc.interpolation
        self.n = sum(lengths)
        self.starts = list(accumulate([0] + lengths[:-1]))
        self.has_derivs = [seg.derivs is not None for seg in segments]
        self.times = np.concatenate([seg.times for seg in segments] + [pad[:, 0]])
        self.values = np.concatenate([seg.values for seg in segments] + [pad])
        self.derivs = np.concatenate(
            [np.zeros_like(seg.values) if seg.derivs is None else seg.derivs
             for seg in segments] + [pad])

    def start_segment(self, t: float, x: np.ndarray) -> None:
        """Open the next forward jump level with its first sample."""
        self.starts.append(self.n)
        self.has_derivs.append(True)
        self.append(t, x)

    def append(self, t: float, x: np.ndarray) -> None:
        """Add a sample to the newest segment, with derivative 0."""
        if self.n == self.times.shape[0]:
            for name in ("times", "values", "derivs"):
                old = getattr(self, name)
                setattr(self, name, np.concatenate([old, np.zeros_like(old)]))
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

    def value(self, tq: float, segment: int | None = None,
              end: int | None = None) -> np.ndarray:
        """Value at time tq on the newest jump level whose first sample is at
        or before tq (up to TIME_TOL): the maximal-jump-index rule, so a jump
        instant reads its post-jump value.  Only segments up to ``segment``
        and samples before ``end`` are read (default: all).  Each call
        returns a fresh array."""
        starts, times = self.starts, self.times
        if segment is None:
            segment, end = len(starts) - 1, self.n
        if tq > times.item(end - 1) + TIME_TOL:
            raise DomainError(f"time {tq} is after the stored history", tq, None)
        for k in range(segment, -1, -1):
            lo = starts[k]
            if tq >= times.item(lo) - TIME_TOL:
                return _interpolate(times, self.values,
                                    self.derivs if self.has_derivs[k] else None,
                                    tq, self.interpolation, lo, end)
            end = lo
        raise InsufficientHistoryError(
            f"time {tq} precedes all stored history", tq, None)

    def to_arc(self) -> HybridArc:
        """The stored memory segments plus copies of the forward samples."""
        bounds = self.starts[self.n_memory:] + [self.n]
        forward = [
            ArcSegment(j, self.times[lo:hi].copy(), self.values[lo:hi].copy(),
                       self.derivs[lo:hi].copy() if d else None)
            for j, (lo, hi, d) in enumerate(zip(bounds, bounds[1:],
                                                self.has_derivs[self.n_memory:]))]
        return HybridArc(self.memory, forward, interpolation=self.interpolation,
                         validate=False)


class WindowView:
    """The window protocol (head, delayed(s), delta) at a sample of a History.

    Reads follow the maximal-jump-index rule and never see samples stored
    after the view's own.  :meth:`extend` gives the window at a provisional
    point x, dt ahead on the same jump level, as Runge-Kutta stages need:
    delays shorter than dt read the straight line from the stored head to x,
    longer ones read the stored history.  A view from :meth:`extend` keeps
    its stored-history reads, keyed by s, and :meth:`with_head` hands them to
    a view at the same stage time with another head, so the two half-step
    stages of a step read the stored history once per delay.  The straight
    line depends on the head and is never kept.  Every read returns a fresh
    array.
    """

    __slots__ = ("history", "index", "segment", "head", "dt", "reads")

    def __init__(self, history: History, index: int, segment: int,
                 head: np.ndarray, dt: float = 0.0,
                 reads: dict[float, np.ndarray] | None = None):
        self.history = history
        self.index = index
        self.segment = segment
        self.head = head
        self.dt = dt
        self.reads = reads

    @property
    def delta(self) -> float:
        return self.history.delta

    def extend(self, dt: float, x: np.ndarray) -> "WindowView":
        return WindowView(self.history, self.index, self.segment, x, dt, {})

    def with_head(self, x: np.ndarray) -> "WindowView":
        """The view at the same point and stage time with head x; it shares
        this view's stored-history reads."""
        return WindowView(self.history, self.index, self.segment, x, self.dt,
                          self.reads)

    def delayed(self, s: float) -> np.ndarray:
        hist = self.history
        q = self.dt + s
        if q >= 0.0 and self.dt > 0.0:
            return _lerp(hist.values[self.index], self.head, q / self.dt)
        reads = self.reads
        x = None if reads is None else reads.get(s)
        if x is None:
            x = hist.value(hist.times.item(self.index) + q, self.segment,
                           self.index + 1)
            if reads is None:
                return x
            reads[s] = x
        return x.copy()


class BatchView:
    """The window protocol at several stored samples of one History at once.

    ``head`` and ``delayed(s)`` are (B, n) arrays whose row i is bit for bit
    what ``history.view(index[i])`` gives; :meth:`views` lists those views.
    A delayed read finds every row's jump level with one binary search over
    the levels' first times, which an arc's levels have in time order, and
    interpolates each level's rows with one :func:`_interpolate_many` call.
    Like a view, it never reads a sample stored after its row's own.
    """

    __slots__ = ("history", "index", "segment", "head")

    def __init__(self, history: History, index: np.ndarray):
        self.history = history
        self.index = np.asarray(index, dtype=np.intp)
        self.segment = np.searchsorted(history.starts, self.index, side="right") - 1
        self.head = history.values[self.index]

    @property
    def delta(self) -> float:
        return self.history.delta

    def views(self) -> list[WindowView]:
        hist = self.history
        return [WindowView(hist, i, k, hist.values[i])
                for i, k in zip(self.index.tolist(), self.segment.tolist())]

    def delayed(self, s: float) -> np.ndarray:
        hist, index = self.history, self.index
        times, values = hist.times, hist.values
        own = times[index]
        tq = own + s
        late = tq > own + TIME_TOL
        if late.any():
            t = tq[late][0]
            raise DomainError(f"time {t} is after the stored history", t, None)
        starts = np.array(hist.starts + [hist.n])
        # History.value's rule: the newest level, up to the row's own, whose
        # first sample lies at or before tq
        level = np.minimum(np.searchsorted(times[starts[:-1]] - TIME_TOL, tq,
                                           side="right") - 1, self.segment)
        if level.min() < 0:
            t = tq[level < 0][0]
            raise InsufficientHistoryError(
                f"time {t} precedes all stored history", t, None)
        first = starts[level]
        last = np.where(level == self.segment, index, starts[level + 1] - 1)
        out = np.empty_like(self.head)
        before = tq <= times[first]
        after = ~before & (tq >= times[last])
        out[before] = values[first[before]]
        out[after] = values[last[after]]
        inner = np.flatnonzero(~(before | after))
        for k in np.unique(level[inner]).tolist():
            rows = inner[level[inner] == k]
            lo, hi = starts[k], starts[k + 1]
            derivs = hist.derivs[lo:hi] if hist.has_derivs[k] else None
            out[rows] = _interpolate_many(times[lo:hi], values[lo:hi], derivs,
                                          tq[rows], hist.interpolation)
        return out


def delta_inf(arc: HybridArc, t: float, j: int, delta: float) -> float:
    """Smallest d >= delta such that some (t+s, j+k) in dom arc has s + k = -d.

    Computed exactly from the piecewise-interval domain structure: each
    backward-shifted segment contributes a closed interval [c, d] of
    achievable depths.
    """
    best = np.inf
    for seg in arc.all_segments():
        u_hi = min(seg.hi, t)
        if seg.jump_index > j or u_hi < seg.lo - TIME_TOL:
            continue
        # s + k ranges over [seg.lo - t + k, u_hi - t + k], k = seg.jump_index - j
        c = t + j - max(u_hi, seg.lo) - seg.jump_index
        d = t + j - seg.lo - seg.jump_index
        if d >= delta - TIME_TOL:
            best = min(best, max(c, delta))
    if not np.isfinite(best):
        raise InsufficientHistoryError(
            f"no history at depth >= {delta} behind (t={t}, j={j})", t, j)
    return float(best)


def _merge_contiguous(segments: list[ArcSegment]) -> list[ArcSegment]:
    """Merge consecutive segments that share a jump index and boundary time.

    Needed when a window spans the stored memory/forward boundary: both
    contribute pieces of the same jump level.
    """
    merged: list[ArcSegment] = []
    for seg in segments:
        if (merged and merged[-1].jump_index == seg.jump_index
                and seg.lo <= merged[-1].hi + TIME_TOL):
            prev = merged[-1]
            skip = 1 if (seg.times.shape[0] and
                         seg.times[0] <= prev.times[-1] + TIME_TOL) else 0
            times = np.concatenate([prev.times, seg.times[skip:]])
            values = np.concatenate([prev.values, seg.values[skip:]])
            if prev.derivs is not None and seg.derivs is not None:
                derivs = np.concatenate([prev.derivs, seg.derivs[skip:]])
            else:
                derivs = None
            merged[-1] = ArcSegment(seg.jump_index, times, values, derivs)
        else:
            merged.append(seg)
    return merged


def memory_window(arc: HybridArc, t: float, j: int,
                  delta: float) -> HybridMemoryArc:
    """The memory window (s, k) -> arc(t+s, j+k) clipped at depth delta_inf."""
    dinf = delta_inf(arc, t, j, delta)
    segments: list[ArcSegment] = []
    for seg in arc.all_segments():
        if seg.jump_index > j:
            continue
        u_hi = min(seg.hi, t)
        if u_hi < seg.lo - TIME_TOL:
            continue
        k = seg.jump_index - j
        s_lo = max(seg.lo - t, -dinf - k)
        s_hi = u_hi - t
        if s_hi < s_lo - TIME_TOL:
            continue
        cut = seg._slice(s_lo + t, s_hi + t, arc.interpolation)
        if cut is None:
            continue
        times, values, derivs = cut
        segments.append(ArcSegment(k, times - t, values, derivs))
    segments = _merge_contiguous(segments)
    if not segments:
        raise InsufficientHistoryError(f"empty window at (t={t}, j={j})", t, j)
    return HybridMemoryArc(segments, delta, arc.interpolation, validate=False)


def append_jump(phi: HybridMemoryArc, g: np.ndarray) -> HybridMemoryArc:
    """Memory arc after taking a jump of value g.

    The result psi satisfies psi(0,0) = g and psi(s, k-1) = phi(s, k) for all
    retained (s, k); material strictly older than s + k = -delta - 1 is
    dropped, the boundary point is kept.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (phi.dimension,):
        raise ValueError(f"jump value must have shape ({phi.dimension},)")
    floor = -phi.delta - 1
    segments: list[ArcSegment] = []
    for seg in phi.memory_segments:
        k_new = seg.jump_index - 1
        s_cut = floor - k_new
        if seg.hi < s_cut - TIME_TOL:
            continue
        if seg.lo >= s_cut - TIME_TOL:
            segments.append(ArcSegment(k_new, seg.times, seg.values, seg.derivs))
        else:
            segments.append(ArcSegment(
                k_new, *seg._slice(s_cut, seg.hi, phi.interpolation)))
    segments.append(ArcSegment(0, np.array([0.0]), g.reshape(1, -1)))
    return HybridMemoryArc(segments, phi.delta, phi.interpolation, validate=False)


#: Most stored samples in one block of :func:`sup_norm_w` (a window larger
#: than this is a block of its own).  Only one block's arrays and its
#: refinement midpoints exist at a time, whatever the number of windows.
_BLOCK_ROWS = 1024


def sup_norm_w(phis: Sequence[HybridMemoryArc], fn: Callable[[np.ndarray], float],
               batch: Callable[[np.ndarray], np.ndarray] | None = None,
               refine_tol: float = 1e-9, max_levels: int = 6) -> np.ndarray:
    """Max of fn over each window's s + k >= -delta - 1, with grid refinement:
    one value per window of ``phis``, as an array.

    Both window maxima of the conditions are this one function: with
    fn = |.|_W it is the window norm sup |phi(s,k)|_W (the argument of
    alpha2 in the functional form, and a run's initial size), and as
    :func:`vbar`, with fn = V, it is the maximum of V over the window that
    the Razumikhin and Halanay forms compare with.

    Each jump level's stored samples above the depth floor seed its
    estimate; each refinement round adds the midpoints of its current grid
    until successive estimates agree to refine_tol (relative), at most
    ``max_levels`` rounds, and a level leaves the pass once it converges.
    A window's maximum is the largest of its levels'.  One pass serves every
    window of the call: consecutive windows go into blocks of at most
    ``_BLOCK_ROWS`` stored samples, and a block makes one evaluation for all
    its stored samples and one per refinement round for all its midpoints.
    A midpoint's bracket is its stored interval, known from its index in the
    grid, and its value is bit for bit the arc's pointwise interpolant.

    ``batch`` maps an (m, n) array of states to the m values of fn; without
    it fn runs row by row.  Its contract: row i of the result depends on row
    i of the input alone, bit for bit, whatever rows come with it.  Then a
    window's maximum does not depend on the other windows of the call or on
    the blocks.  The windows must share one state dimension.  A NaN value of
    fn, at a stored sample or a midpoint, raises :class:`DomainError` naming
    the window's index and its jump level; infinite values are compared as
    they are, so a window may have an infinite maximum.  A window with no
    sample above its floor raises.
    """
    evaluate = batch if batch is not None else (
        lambda arr: np.array([fn(row) for row in arr]))
    out = np.empty(len(phis))
    lo = rows = 0
    for hi, phi in enumerate(phis):
        size = sum(seg.times.shape[0] for seg in phi.memory_segments)
        if hi > lo and rows + size > _BLOCK_ROWS:
            out[lo:hi] = _block_max(phis[lo:hi], lo, evaluate, refine_tol, max_levels)
            lo, rows = hi, 0
        rows += size
    if lo < len(phis):
        out[lo:] = _block_max(phis[lo:], lo, evaluate, refine_tol, max_levels)
    return out


def _block_max(phis: Sequence[HybridMemoryArc], offset: int, evaluate: Callable,
               refine_tol: float, max_levels: int) -> np.ndarray:
    """:func:`sup_norm_w` of one block of windows, the first of which has
    index ``offset`` in the call."""
    levels = [(w, phi, seg) for w, phi in enumerate(phis, offset)
              for seg in phi.memory_segments]
    win = np.array([w for w, _, _ in levels])
    jumps = np.array([seg.jump_index for _, _, seg in levels])
    lengths = np.array([seg.times.shape[0] for _, _, seg in levels])
    ends = np.cumsum(lengths)  # one past each level's last sample
    starts = ends - lengths
    times = np.concatenate([seg.times for _, _, seg in levels])
    values = np.concatenate([seg.values for _, _, seg in levels])
    hermite = np.array([phi.interpolation == "hermite" and seg.derivs is not None
                        for _, phi, seg in levels])
    derivs = None if not hermite.any() else np.concatenate(
        [np.zeros_like(seg.values) if seg.derivs is None else seg.derivs
         for _, _, seg in levels])
    floors = np.array([-phi.delta - 1 - TIME_TOL for _, phi, _ in levels])
    # a level's times increase, so its samples above the floor are a suffix
    above = times + np.repeat(jumps, lengths) >= np.repeat(floors, lengths)
    csum = np.concatenate(([0], np.cumsum(above)))
    count = csum[ends] - csum[starts]
    lv = np.flatnonzero(count)  # the levels with samples above the floor
    empty = np.flatnonzero(np.bincount(win[lv] - offset, minlength=len(phis)) == 0)
    if empty.size:
        raise DomainError(f"window {offset + empty[0]} is empty above the depth floor")
    first = ends - count

    def check_nan(level_max: np.ndarray, k: np.ndarray) -> None:
        bad = np.flatnonzero(np.isnan(level_max))
        if bad.size:
            j = int(jumps[k[bad[0]]])
            raise DomainError(f"window {win[k[bad[0]]]}: value is NaN on jump "
                              f"level {j}", None, j)

    def evaluate_rows(x: np.ndarray) -> np.ndarray:
        return np.asarray(evaluate(x), dtype=float).reshape(x.shape[0])

    est = np.maximum.reduceat(evaluate_rows(values[above]),
                              np.cumsum(count[lv]) - count[lv])
    check_nan(est, lv)
    # refinement: the grids of the levels still refining, back to back
    act = np.flatnonzero(count[lv] >= 2)
    grid = times[above & np.repeat(count >= 2, lengths)]
    for r in range(max_levels):
        if act.size == 0:
            break
        k = lv[act]
        cnt = (count[k] - 1) << r  # midpoints per level this round
        goff = np.concatenate(([0], np.cumsum(cnt + 1)))
        pairs = 0.5 * (grid[:-1] + grid[1:])
        mids = np.delete(pairs, goff[1:-1] - 1)  # drop pairs across levels
        moff = goff[:-1] - np.arange(act.shape[0])
        own = np.repeat(k, cnt)
        i = first[own] + ((np.arange(mids.shape[0]) - np.repeat(moff, cnt)) >> r)
        end = ends[own]
        # a midpoint on the bracket's right end reads the next bracket, as a
        # binary search would, except in the level's last bracket
        i += (mids >= times[i + 1]) & (i + 2 < end)
        x = _blend(times, values, derivs, mids, i, hermite[own])
        left = mids <= times[starts[own]]
        x[left] = values[starts[own][left]]
        right = mids >= times[end - 1]
        x[right] = values[end[right] - 1]
        level_max = np.maximum.reduceat(evaluate_rows(x), moff)
        check_nan(level_max, k)
        prev = est[act]
        new = np.maximum(prev, level_max)
        est[act] = new
        with np.errstate(invalid="ignore"):  # inf - inf never converges
            going = ~(np.abs(new - prev) <= refine_tol * np.maximum(1.0, np.abs(new)))
        if r + 1 == max_levels:
            break
        keep = np.repeat(going, 2 * (cnt + 1))
        keep[2 * goff[1:] - 1] = False
        merged = np.empty(2 * grid.shape[0] - 1)
        merged[0::2] = grid
        merged[1::2] = pairs
        grid = merged[keep[:-1]]
        act = act[going]
    return np.maximum.reduceat(est, np.searchsorted(win[lv], np.arange(
        offset, offset + len(phis))))


#: The maximum of V over the window: :func:`sup_norm_w` under its own name.
vbar = sup_norm_w


def delayed_sq_integral(phi: HybridMemoryArc, lo: float, hi: float,
                        components: slice | None = None) -> float:
    """Integral over [lo, hi] of |phi(s, k(s))|^2 ds, exact for the stored
    piecewise-linear interpolant (per-interval Simpson).  ``components``
    restricts the squared norm to a slice of the state vector."""
    total = 0.0
    for times, values in phi.delayed_runs(lo, hi):
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


def constant_memory_arc(value: np.ndarray, delta: float,
                        depth: float | None = None,
                        grid_step: float | None = None) -> HybridMemoryArc:
    """Single-segment memory arc holding a constant value.

    The segment spans [-depth, 0] with depth defaulting to max(delta, epsilon)
    so the arc is admissible for memory size delta.
    """
    value = np.atleast_1d(np.asarray(value, dtype=float))
    if depth is None:
        depth = max(delta, 0.0)
    if depth < delta:
        raise ValueError("depth must reach the memory size delta")
    if depth == 0.0:
        return HybridMemoryArc(
            [ArcSegment(0, np.array([0.0]), value.reshape(1, -1))], delta)
    if grid_step is None:
        grid_step = depth / 8.0
    m = max(2, int(np.ceil(depth / grid_step)) + 1)
    times = np.linspace(-depth, 0.0, m)
    values = np.tile(value, (m, 1))
    return HybridMemoryArc([ArcSegment(0, times, values)], delta)


def memory_arc_from_function(fn: Callable[[float], np.ndarray], delta: float,
                             depth: float | None = None,
                             grid_step: float | None = None) -> HybridMemoryArc:
    """Single-segment memory arc sampling fn(s) on a uniform grid of [-depth, 0]."""
    if depth is None:
        depth = max(delta, 1e-3)
    if depth < delta:
        raise ValueError("depth must reach the memory size delta")
    if grid_step is None:
        grid_step = depth / 50.0
    m = max(2, int(np.ceil(depth / grid_step)) + 1)
    times = np.linspace(-depth, 0.0, m)
    values = np.array([np.atleast_1d(np.asarray(fn(float(s)), dtype=float))
                       for s in times])
    return HybridMemoryArc([ArcSegment(0, times, values)], delta)


# ---------------------------------------------------------------------------
# CSV serialization: rows `t, j, v_1, ..., v_n`, sorted lexicographically by
# (j, t), the memory side's row first where both sides share (j, t); the
# memory side uses t <= 0, j <= 0.  Round-trips are bit-exact on sample
# points (derivative samples are not serialized).  Both directions go one
# jump level at a time, through Python floats and one array per level.
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
    near = {}
    for side, segs in (("memory", arc.memory_segments),
                       ("forward", arc.forward_segments)):
        near[side] = [t for seg in segs if seg.jump_index == 0
                      for t in seg.times[np.abs(seg.times) <= TIME_TOL].tolist()]
        if len(near[side]) > 1:
            return (f"the {side} side holds {len(near[side])} samples within "
                    "TIME_TOL of t = 0")
        if (near[side] and arc.forward_segments
                and sum(seg.times.shape[0] for seg in segs) == 1):
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
    levels: dict[int, list[ArcSegment]] = {}
    for seg in arc.memory_segments + arc.forward_segments:
        levels.setdefault(seg.jump_index, []).append(seg)
    lines = []
    for j in sorted(levels):
        segs = levels[j]
        times = np.concatenate([seg.times for seg in segs])
        values = np.concatenate([seg.values for seg in segs])
        # a stable sort keeps the memory side's row first on equal times
        order = np.argsort(times, kind="stable")
        tag = str(j)
        for t, *row in zip(times[order].tolist(), *values[order].T.tolist()):
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
        row = [float(x) for x in parts[2:]]
        if j < 0 or (j == 0 and t < -TIME_TOL):
            side = memory
        elif j > 0 or (j == 0 and t > TIME_TOL):
            side = forward
        else:
            if abs(t) <= TIME_TOL:  # a NaN time at j = 0 lies on no side
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

    def build(side):
        segs = []
        for j in sorted(side):
            times, flat = side[j]
            times = np.array(times)
            order = np.argsort(times, kind="stable")
            values = np.array(flat).reshape(times.shape[0], width)
            segs.append(ArcSegment(j, times[order], values[order]))
        return segs

    mem_segs, fwd_segs = build(memory), build(forward)
    if delta is not None and not fwd_segs:
        return HybridMemoryArc(mem_segs, delta, interpolation)
    return HybridArc(mem_segs, fwd_segs, interpolation)
