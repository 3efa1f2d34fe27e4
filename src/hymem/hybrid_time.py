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
:class:`History` is that store for one arc or many, each a row with room to
grow: the solver grows one row a sample at a time, the window operators
grow every row at once, and a lone arc's store is its own arrays.  One
read rule, :meth:`HybridArc.value`, serves every store: a memory arc's
``delayed(s)`` is that rule, and the window views of :mod:`hymem.batch`
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
:mod:`hymem.batch`; this module re-exports them and the views under their
old names.

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
from itertools import chain
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

    #: Value at (s, k(s)), k(s) the maximal jump index at time s.
    delayed = HybridArc.value


class History(HybridArc):
    """The store of one arc or of many, each arc a row with room to grow.

    It holds ``arcs`` (one interpolation scheme) back to back, each row
    followed by ``room`` free samples; ``delta`` defaults to the first
    arc's.  The last row grows by :meth:`start_segment` and :meth:`append`
    (the solver's solution) with no NumPy call, and by :meth:`extend` (a
    block of its steps) in one write, in arrays that double when full;
    every row grows at once by :meth:`start_segments` and
    :meth:`append_rows`, within its room.  A sample appended alone carries
    derivative 0, flagged unknown, until its writer sets one.  One arc
    without room is stored on its own read-only arrays.  Derivatives are
    kept on Hermite stores and on one row with room (where the solver
    stores flow selections); ``has_derivs`` marks the Hermite rows that
    have some or have room, whose cuts keep them.  ``starts``, ``n_memory``
    and ``n`` are an arc's, ``n`` the end of the last row.  The level
    table, built at its first read: per level, ``first`` and ``end`` are
    its index range, ``jump`` its jump index, ``row`` its row and
    ``level_keys`` the pair (row, first time - TIME_TOL) that
    :class:`~hymem.batch.BatchView` searches; row i's levels are
    ``spans[i]:spans[i + 1]``, ``memory[i]`` of them memory levels.  An
    append, or a dropped sample (``n`` lowered), keeps the table and the
    search keys; a new level rebuilds both, a doubling the search keys.
    """

    def __init__(self, arcs: Sequence[HybridArc], delta: float | None = None,
                 room: int = 0):
        arc, rows = arcs[0], len(arcs)
        hermite = arc.interpolation == "hermite"
        sizes = np.array([a.n for a in arcs])
        depth = np.array([len(a.starts) for a in arcs])  # stored levels
        self.memory = np.array([a.n_memory for a in arcs])
        self.has_derivs = np.array([hermite and (room > 0 or a.derivs is not None)
                                    for a in arcs])
        self._bounds = np.concatenate(([0], np.cumsum(sizes + room)))  # of the rows
        self._room, self._index = room, None
        join = np.concatenate if rows > 1 or room else operator.itemgetter(0)
        arrays = [join([a.times[:a.n] for a in arcs]),
                  join([a.values[:a.n] for a in arcs]), None, None]
        if hermite or room and rows == 1:
            arrays[2:] = (join([np.zeros_like(a.values[:a.n]) if a.derivs is None
                                else a.derivs[:a.n] for a in arcs]),
                          join([np.zeros(a.n, dtype=bool) if a.derivs is None
                                else a.known[:a.n] for a in arcs]))
        starts = (np.fromiter(chain.from_iterable(a.starts for a in arcs),
                              dtype=np.intp, count=int(depth.sum()))
                  + np.repeat(self._bounds[:-1], depth)).tolist()
        if room:  # one scatter; free times read +inf, for the search
            at = np.arange(arrays[0].shape[0]) + np.repeat(np.arange(rows) * room, sizes)
            for i, fill in enumerate((np.inf, 0.0, 0.0, False)):
                if arrays[i] is not None:
                    a = arrays[i]
                    arrays[i] = np.full((self._bounds[-1],) + a.shape[1:], fill, a.dtype)
                    arrays[i][at] = a
        self._store(*arrays, starts, arc.n_memory, arc.interpolation,
                    getattr(arc, "delta", None) if delta is None else delta)
        self.n = int(self._bounds[-1]) - room

    def _table(self) -> list:
        """[n, first, end, jump, row, spans, level keys, search keys]: the
        level arrays as long as the levels stand, each row's newest end as
        long as ``n`` does.  The level keys are the (row, first time -
        TIME_TOL) pairs of the levels; the search keys (made at the first
        search) are kept by the appends, which only ever write a row's
        newest level."""
        table = self._index
        if table is None or table[1].shape[0] != len(self.starts):
            first = np.array(self.starts, dtype=np.intp)
            spans = np.append(np.searchsorted(first, self._bounds[:-1]), first.shape[0])
            count = np.diff(spans)
            # a level's jump index from its place k in its row: HybridArc.jump_index
            k = np.arange(first.shape[0]) - np.repeat(spans[:-1], count)
            m = np.repeat(self.memory, count)
            row = np.repeat(np.arange(count.shape[0]), count)
            table = self._index = [None, first, np.append(first[1:], 0), k - m + (k < m),
                                   row, spans, _pairs(row, self.times[first] - TIME_TOL),
                                   None]
        if table[0] != self.n:  # each row's newest level ends at its newest sample
            table[0] = self.n
            table[2][table[5][1:] - 1] = self.newest() + 1
        return table

    first = property(lambda self: self._table()[1])
    end = property(lambda self: self._table()[2])
    jump = property(lambda self: self._table()[3])
    row = property(lambda self: self._table()[4])
    spans = property(lambda self: self._table()[5])
    level_keys = property(lambda self: self._table()[6])

    def search(self, lv: np.ndarray, q: np.ndarray, side: str) -> np.ndarray:
        """first[lv[i]] + np.searchsorted(level lv[i]'s times, q[i], side) for
        each i, in one search of the samples in use as (level, time) pairs (a
        row's free samples go with its last level), in the complex numbers'
        lexicographic order, which compares both exactly.  The pairs cover
        every slot of the arrays, so an append only writes its slot's time."""
        table = self._table()
        if table[7] is None:
            table[7] = _pairs(np.repeat(np.arange(table[1].shape[0]),
                                        np.diff(table[1], append=self.times.shape[0])),
                              self.times)
        return np.searchsorted(table[7][:self.n], _pairs(lv, q), side)

    def newest(self) -> np.ndarray:
        """Each row's newest sample, as an index array."""
        at = self._bounds[1:] - self._room - 1
        at[-1] = self.n - 1
        return at

    def start_segment(self, t: float, x: np.ndarray) -> None:
        """Open the last row's next forward jump level with its first sample."""
        self.starts.append(self.n)
        self.append(t, x)

    def append(self, t: float, x: np.ndarray) -> None:
        """Add a sample to the last row's newest level, doubling full arrays."""
        n, table = self.n, self._index
        if n == self.times.shape[0]:
            self._grow(n + 1)
        self.times[n] = t
        self.values[n] = x
        self.n = n + 1
        if table is not None and table[7] is not None:
            table[7].imag[n] = t

    def extend(self, times: Sequence[float], values: np.ndarray,
               derivs: np.ndarray) -> None:
        """Add samples, with their derivatives (flagged known), to the last
        row's newest level in one write: :meth:`append` of each, and its
        derivative set."""
        n, m = self.n, len(times)
        if n + m > self.times.shape[0]:
            self._grow(n + m)
        self.times[n:n + m] = times
        self.values[n:n + m] = values
        self.derivs[n:n + m] = derivs
        self.known[n:n + m] = True
        self.n = n + m
        table = self._index
        if table is not None and table[7] is not None:
            table[7].imag[n:n + m] = times

    def _grow(self, size: int) -> None:
        """Double the last row's arrays until they hold ``size`` samples;
        new samples have derivative 0, flagged unknown."""
        while self.times.shape[0] < size:
            for name in ("times", "values", "derivs", "known"):
                a = getattr(self, name)
                if a is not None:
                    setattr(self, name, np.concatenate([a, np.zeros_like(a)]))
        if self._index is not None:  # the search keys cover the old arrays
            self._index[7] = None

    def start_segments(self, t: float, xs) -> np.ndarray:
        """Open every row's next forward jump level with its first sample
        (t, xs[i]); return their indices."""
        self.starts = sorted(self.starts + (self.newest() + 1).tolist())
        return self.append_rows(t, xs)

    def append_rows(self, t: float, xs) -> np.ndarray:
        """Add the sample (t, xs[i]) to the newest level of every row i, in
        its room; return their indices."""
        if self._room < 1:
            raise ValueError("no room left in the rows")
        at = self.newest() + 1
        self.times[at], self.values[at] = t, xs
        if self._index is not None and self._index[7] is not None:
            self._index[7].imag[at] = t
        self._room -= 1
        self.n += 1
        return at

    def view(self, index: int | None = None) -> "WindowView":
        """The window at the stored sample ``index`` (default: the newest) of
        a one-row store; :class:`BatchView` reads a store of many."""
        if index is None:
            index, segment = self.n - 1, len(self.starts) - 1
        else:
            segment = bisect.bisect_right(self.starts, index) - 1
        return WindowView(self, index, segment, self.values[index])

    def to_arc(self) -> HybridArc:
        """The stored samples of a one-row store as an arc, on copies of the
        rows in use."""
        times, values, derivs, known = (None if a is None else a[:self.n].copy()
                                        for a in (self.times, self.values,
                                                  self.derivs, self.known))
        return HybridArc._of(times, values, list(self.starts), self.n_memory,
                             derivs, known, self.interpolation)


def _read_only(*arrays: np.ndarray | None) -> None:
    """Mark the arrays, each but None, read-only."""
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a[i], b[i]) as complex numbers a[i] + b[i] j, built without
    arithmetic, so each part keeps its bits."""
    z = np.empty(np.broadcast(a, b).shape, dtype=complex)
    z.real, z.imag = a, b
    return z


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


def arc_from_csv(text: str, delta: float | None = None) -> HybridArc:
    """Parse the CSV produced by :func:`arc_to_csv`.

    When both sides are present the shared sample at (0, 0) must appear twice
    (once per side).  If ``delta`` is given and the forward side is empty, a
    :class:`HybridMemoryArc` is returned.  The arc interpolates linearly.
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
        return HybridMemoryArc(times, values, starts, delta)
    return HybridArc(times, values, starts, len(mem_js))


# The window operators import this module's arcs and reads; they keep their
# names here, where callers look them up.
from .batch import (BatchView, WindowView, append_jump,  # noqa: E402,F401
                    delayed_sq_integral, delta_inf, memory_window, sup_norm_w, vbar)
