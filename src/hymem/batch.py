"""The window views and operators, in arrays: many windows or memory arcs
in one pass.

:class:`WindowView` is the window protocol (head, delayed(s), delta) at one
stored sample of a :class:`~hymem.hybrid_time.History`, and its subclass
:class:`BatchView` at many at once: one stage rule, two reads of the
stored history.  Those two level kernels stay apart for speed, the scalar
loop of :meth:`~hymem.hybrid_time.HybridArc.value` (one sample a read) and
the batch view's array search, :meth:`BatchView._at`, which also reads the
stages of the solver's blocks of steps; a change to the level rule changes
both.
This module holds the operators' one implementation.
Arcs are joined back to back in one History, each a row with its own
levels, and every operation runs on whole arrays of levels, pieces and
samples, giving each window or arc, bit for bit, what it would get alone:

* :func:`memory_windows` cuts an arc's window at many points (t, j), or a
  store's at a point per row; :func:`memory_window` and :func:`delta_inf`
  are its one-point cases.  The flow windows of many arcs
  (:func:`~hymem.solver.flow_windows`) are cut so from the store they grow;
* :func:`append_jumps`, with its one-arc case :func:`append_jump`;
* the window maximum (:func:`sup_norm_w`, also named :func:`vbar`) makes,
  per block, one call of its array-form map for the stored samples and one
  per refinement round.  The map must give each row the same bits whatever
  rows come with it, so a window's maximum is what it would be alone;
* :func:`delayed_sq_integral`, the functional check's delayed integral.

Consecutive memory arcs go into blocks of at most ``_BLOCK_SAMPLES``
(16384) stored samples, one memory size and one interpolation scheme each,
so only one block's arrays exist at a time, whatever the number of arcs.
Every array pass of the package, here and in :mod:`hymem.solver`,
:mod:`hymem.sampling` and :mod:`hymem.certificates`, reads that one budget
when called.  No output depends on it as long as each map's array form
gives each row what it would get alone: the stock maps do, except example
1's batch flow map (see :func:`~hymem.solver.flow_windows`).
``hymem.hybrid_time`` re-exports every public name here under its old name.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .hybrid_time import (TIME_TOL, DomainError, History, HybridArc,
                          HybridMemoryArc, InsufficientHistoryError, _blend,
                          _lerp, _pairs)

#: Most stored samples in one block of every array pass (an arc larger
#: than this is a block of its own), read when called: the window maximum
#: (and its refinement rounds, in midpoints), the delayed integral, appended
#: jumps, flow windows, :func:`~hymem.solver.verify_solution`'s chunks, the
#: solver's blocks of steps and their reads, and the cover sampler's
#: draws.  Each block
#: pays a fixed cost of about a hundred NumPy calls, so larger blocks are
#: faster until that cost is spread thin: krasovskii-cover's run_s (seed 1,
#: nproc 2, median of 6 alternating runs) was 68.5 ms with blocks of 1024
#: and 4096, and 62.7, 52.8, 49.4 and 48.7 ms with one budget of 4096,
#: 8192, 16384 and 32768.  Only one block's arrays exist at a time,
#: whatever the number of arcs.
_BLOCK_SAMPLES = 16384
#: The window maximum's refinement: the agreement that ends it, the most rounds.
_REFINE_TOL = 1e-9
_MAX_LEVELS = 6


def _blocks(phis: Sequence[HybridMemoryArc], room: int = 0):
    """(lo, hi) ranges of consecutive arcs of phis with at most
    ``_BLOCK_SAMPLES`` stored samples, ``room`` more per arc, and one memory
    size and one interpolation scheme each."""
    lo = rows = 0
    for hi, phi in enumerate(phis):
        key = (phi.delta, phi.interpolation)
        if hi > lo and (rows + phi.n + room > _BLOCK_SAMPLES or key != first):
            yield lo, hi
            lo, rows = hi, 0
        if hi == lo:
            first = key
        rows += phi.n + room
    if lo < len(phis):
        yield lo, len(phis)


class WindowView:
    """The window protocol (head, delayed(s), delta) at a sample of a History.

    Reads follow the maximal-jump-index rule and never see samples stored
    after the view's own, nor levels below ``floor`` (another row's, in a
    store of many).  :meth:`extend` gives the window at a provisional
    point x, dt ahead on the same jump level, as Runge-Kutta stages need:
    delays shorter than dt read the straight line from the stored head to x,
    longer ones read the stored history.  A view from :meth:`extend` keeps
    its stored-history reads, keyed by s, and :meth:`with_head` hands them to
    a view at the same stage time with another head, so the two half-step
    stages of a step read the stored history once per delay.  The straight
    line depends on the head and is never kept.  Every read returns a fresh
    array.  A :class:`BatchView` differs only in its stored-history read.
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

    def _moved(self, head: np.ndarray, dt: float, reads: dict | None) -> "WindowView":
        """This view's kind of view at the same stored sample, with another
        head, stage offset and read cache."""
        view = object.__new__(type(self))
        view.history, view.index = self.history, self.index
        view.segment, view.floor = self.segment, self.floor
        view.head, view.dt, view.reads = head, dt, reads
        return view

    def extend(self, dt: float, x: np.ndarray) -> "WindowView":
        return self._moved(x, dt, {})

    def with_head(self, x: np.ndarray) -> "WindowView":
        """The view at the same point and stage time with head x; it shares
        this view's stored-history reads."""
        return self._moved(x, self.dt, self.reads)

    def delayed(self, s: float) -> np.ndarray:
        q = self.dt + s
        if q >= 0.0 and self.dt > 0.0:
            return _lerp(self.history.values[self.index], self.head, q / self.dt)
        reads = self.reads
        x = None if reads is None else reads.get(s)
        if x is None:
            x = self._stored(q)
            if reads is None:
                return x
            reads[s] = x
        return x.copy()

    def _stored(self, q: float) -> np.ndarray:
        """The stored history q after the view's sample: History.value."""
        hist = self.history
        return hist.value(hist.times.item(self.index) + q, self.segment,
                          self.index + 1, self.floor)


class BatchView(WindowView):
    """The window protocol at several stored samples of one store at once.

    ``index``, ``segment`` and ``floor`` are arrays, and ``head`` and
    ``delayed(s)`` are (B, n) arrays whose row i is bit for bit what the
    :class:`WindowView` at ``index[i]`` gives, reading no level below its
    row's first; :meth:`views` lists those views, whose ``segment`` (the
    level holding the sample) and ``floor`` (its row's first level) are read
    from the store's level table.  The stage rule is the window view's, and
    all rows share one stage offset dt.  Its stored-history read finds every
    row's jump level with one search of (row, first time) pairs, since an
    arc's levels have their first times in order, and interpolates all rows
    with one :meth:`~hymem.hybrid_time.History.search` and one
    :func:`_blend` call.  Like a view, it never reads a sample stored after
    its row's own.
    """

    __slots__ = ()

    def __init__(self, history: History, index):
        index = np.asarray(index, dtype=np.intp)
        segment = np.searchsorted(history.first, index, side="right") - 1
        super().__init__(history, index, segment, history.values[index],
                         floor=history.spans[history.row[segment]])

    def views(self) -> list[WindowView]:
        hist, dt = self.history, self.dt
        return [WindowView(hist, i, k, x, dt, None if self.reads is None else {}, f)
                for i, k, x, f in zip(self.index.tolist(), self.segment.tolist(),
                                      self.head, self.floor.tolist())]

    def _stored(self, q: float) -> np.ndarray:
        """Each row's History.value q after its sample, on its own levels."""
        return self._at(self.history.times[self.index] + q)

    def _at(self, tq: np.ndarray) -> np.ndarray:
        """Each row's History.value at the time tq[i], on its own levels and
        up to its own sample: the array level kernel."""
        hist, index, segment = self.history, self.index, self.segment
        times = hist.times
        late = tq > times[index] + TIME_TOL
        if late.any():
            t = tq[late][0]
            raise DomainError(f"time {t} is after the stored history", t, None)
        first = hist.first
        if (tq >= times[first[segment]] - TIME_TOL).all():
            # every read on its sample's own level (NaN is not): what the
            # level search below gives, without it
            level, stop = segment, index + 1
        else:
            # History.value's rule: the newest of the row's levels, up to
            # its own, whose first sample lies at or before tq: one search of
            # the levels' (row, first time) pairs, in History.search's order
            level = np.minimum(np.searchsorted(hist.level_keys,
                                               _pairs(hist.row[segment], tq), "right"),
                               segment + 1) - 1
            missing = (level < self.floor) | np.isnan(tq)
            if missing.any():
                t = tq[missing][0]
                raise InsufficientHistoryError(
                    f"time {t} precedes all stored history", t, None)
            stop = np.where(level == segment, index + 1, hist.end[level])
        first = first[level]
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
            i = hist.search(level[inner], tq[inner], "right") - 1
            out[inner] = _blend(times, values, hist.derivs if hist.interpolation
                                == "hermite" else None, hist.known, tq[inner], i)
        return out


def _pymax(a, b):
    """max(a, b) as Python has it, elementwise: b where b > a, else a."""
    return np.where(b > a, b, a)


def _pymin(a, b):
    """min(a, b) as Python has it, elementwise: b where b < a, else a."""
    return np.where(b < a, b, a)


def _pieces(st: History, lv: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The piece of each level lv[i] of a store on [lo[i], hi[i]]: the
    index range of its stored samples within TIME_TOL of that interval
    (clipped to the level), with an interpolated sample before or after it
    where none lies within TIME_TOL of lo or hi.  As arrays: ok (False where
    the interval misses the level by more than TIME_TOL), the stored range
    [a, b), the bounds lo and hi as clipped, and pre and post, which flag an
    interpolated sample at lo before the range and at hi after it."""
    times = st.times
    a0, b0 = st.first[lv], st.end[lv]
    lo, hi = _pymax(lo, times[a0]), _pymin(hi, times[b0 - 1])
    ok = ~(hi < lo - TIME_TOL)
    hi = _pymax(hi, lo)
    a = st.search(lv, lo - TIME_TOL, "left")
    b = st.search(lv, hi + TIME_TOL, "right")
    stored = a < b
    pre = ~stored | (times[np.minimum(a, b0 - 1)] > lo + TIME_TOL)
    post = np.where(stored, times[np.maximum(b - 1, a0)], lo) < hi - TIME_TOL
    return ok, a, b, lo, hi, pre, post


def _runs(st: History, lv, a, b, lo, hi, pre, post, derivs: bool):
    """The samples of pieces (see :func:`_pieces`) back to back: times,
    values, derivs and known (None unless ``derivs``), and each piece's
    offset and sample count.  An interpolated sample is its level's
    interpolant there; its derivative is interpolated linearly and known
    when both ends of its bracket are."""
    count = pre + (b - a) + post
    off = np.cumsum(count) - count
    src = np.repeat(a - off - pre, count) + np.arange(off[-1] + count[-1])
    head, tail = off[pre], (off + count - 1)[post]
    src[head] = src[tail] = 0
    times, values = st.times[src], st.values[src]
    d = k = None
    if derivs:
        d, k = st.derivs[src], st.known[src]
    blend = st.derivs if st.interpolation == "hermite" else None
    # an interpolated sample lies strictly inside its bracket [i - 1, i]
    for at, flag, t, i in ((head, pre, lo, a), (tail, post, hi, b)):
        if not at.size:
            continue
        t, i = t[flag], i[flag]
        times[at] = t
        values[at] = _blend(st.times, st.values, blend, st.known, t, i - 1)
        if derivs:
            d[at] = _blend(st.times, st.derivs, None, None, t, i - 1)
            k[at] = st.known[i - 1] & st.known[i]
    return times, values, d, k, off, count


def _cut_rows(st: History, row, key, lv, a, b, lo, hi, pre, post, shift, derivs,
              delta: float) -> list[HybridMemoryArc]:
    """The memory arcs of size delta made of pieces (see :func:`_pieces`),
    in order by row, with keys, and each piece's times shifted by -shift;
    row i keeps derivatives when derivs[i] holds.  Consecutive pieces of a
    row with one key form one level: the later one's first sample gives way
    to the earlier one's last when they lie within TIME_TOL, and lends it
    its derivative when it has none.  Every row has a piece."""
    times, values, d, k, off, count = _runs(st, lv, a, b, lo, hi, pre, post,
                                            bool(derivs.any()))
    times = times - np.repeat(shift, count)
    last = off + count - 1
    joined = np.zeros(row.shape[0], dtype=bool)
    joined[1:] = (row[1:] == row[:-1]) & (key[1:] == key[:-1])
    drop = np.flatnonzero(joined)
    drop = drop[times[off[drop]] <= times[last[drop - 1]] + TIME_TOL]
    if d is not None and drop.size:
        lend = drop[~k[last[drop - 1]]]
        d[last[lend - 1]], k[last[lend - 1]] = d[off[lend]], k[off[lend]]
    keep = np.ones(times.shape[0], dtype=bool)
    keep[off[drop]] = False
    times, values = times[keep], values[keep]
    if d is not None:
        d, k = d[keep], k[keep]
    dropped = np.zeros(row.shape[0], dtype=np.intp)
    dropped[drop] = 1
    off = off - (np.cumsum(dropped) - dropped)  # after the dropped samples
    bounds = np.append(off[np.flatnonzero(np.diff(row, prepend=-1))], times.shape[0])
    level = ~joined
    rel = (off[level] - bounds[row[level]]).tolist()
    per_row = np.concatenate(([0], np.cumsum(np.bincount(
        row[level], minlength=len(bounds) - 1)))).tolist()
    bounds = bounds.tolist()
    arcs = []
    for i, (s, e) in enumerate(zip(bounds, bounds[1:])):
        starts = rel[per_row[i]:per_row[i + 1]]
        with_d = d is not None and derivs[i]
        arcs.append(HybridMemoryArc._of(
            times[s:e], values[s:e], starts, len(starts), d[s:e] if with_d else None,
            k[s:e] if with_d else None, st.interpolation, delta=delta))
    return arcs


def _check_points(st: History, row, t, j) -> None:
    """DomainError naming the first query (row, t, j) whose time t lies on
    no level of its row with jump index j, up to TIME_TOL (at j = 0, the
    memory side's level for t <= 0 and the forward side's for t >= 0)."""
    m, base = st.memory[row], st.spans[row]
    size = st.spans[row + 1] - base
    found = np.zeros(row.shape, dtype=bool)
    for k, first, end, side in ((m - 1 + j, 0, m, (j < 0) | (t <= TIME_TOL)),
                                (m + j, m, size, (j > 0) | (t >= -TIME_TOL))):
        side &= (first <= k) & (k < end)
        lv = np.where(side, base + k, 0)
        found |= side & (st.times[st.first[lv]] - TIME_TOL <= t) & (
            t <= st.times[st.end[lv] - 1] + TIME_TOL)
    if not found.all():
        t, j = (x.item(int(np.flatnonzero(~found)[0])) for x in (t, j))
        raise DomainError(f"point (t={t}, j={j}) is not in the arc domain", t, j)


def _reach(st: History, row, t, j, delta: float) -> tuple:
    """delta_inf of each query (row, t, j) of a store, with the pairs (q,
    lv) of a query and each level of its row with jump index at most j[q]
    that holds a time u <= u_hi = min(its last time, t[q]): each contributes
    the closed interval of depths t + j - u - jump."""
    spans = st.spans
    count = spans[row + 1] - spans[row]
    q = np.repeat(np.arange(row.shape[0]), count)
    lv = np.arange(q.shape[0]) + np.repeat(spans[row] - (np.cumsum(count) - count),
                                           count)
    lo, jump = st.times[st.first[lv]], st.jump[lv]
    u_hi = _pymin(st.times[st.end[lv] - 1], t[q])
    use = np.flatnonzero((jump <= j[q]) & ~(u_hi < lo - TIME_TOL))
    q, lv, lo, jump, u_hi = q[use], lv[use], lo[use], jump[use], u_hi[use]
    c = t[q] + j[q] - _pymax(u_hi, lo) - jump
    d = t[q] + j[q] - lo - jump
    deep = d >= delta - TIME_TOL
    dinf = np.full(row.shape, np.inf)
    np.minimum.at(dinf, q[deep], _pymax(c[deep], delta))
    if not np.isfinite(dinf).all():
        t, j = (x.item(int(np.flatnonzero(~np.isfinite(dinf))[0])) for x in (t, j))
        raise InsufficientHistoryError(
            f"no history at depth >= {delta} behind (t={t}, j={j})", t, j)
    return dinf, q, lv, u_hi


def memory_windows(arc: HybridArc, points, delta: float) -> list[HybridMemoryArc]:
    """The memory window (s, k) -> arc(t+s, j+k) clipped at depth delta_inf
    at each point of ``points``: (t, j) pairs on an arc, or (row, t, j)
    triples on a :class:`~hymem.hybrid_time.History` of many, one window per
    point, each what it would be alone.

    Each point must lie in its arc's domain up to TIME_TOL.  Each level up
    to j gives the index range of its samples in the window, times shifted
    by -t, with an interpolated sample where the range ends between stored
    samples.  Memory level 0 and forward level 0 join into one level, where
    the memory side's sample at t = 0 stands for both (see
    :func:`_cut_rows`), so the window reads what the arc's read rule gives.
    Cuts of a linear arc keep no derivatives.  One pass serves every point.
    """
    if not len(points):
        return []
    st = arc if isinstance(arc, History) else History([arc])
    if st is not arc:  # (t, j) pairs: points of the store's one row
        points = [(0, t, j) for t, j in points]
    row, t, j = (np.array(x, dtype=dtype) for x, dtype
                 in zip(zip(*points), (np.intp, float, np.intp)))
    _check_points(st, row, t, j)
    dinf, q, lv, u_hi = _reach(st, row, t, j, delta)
    tq, jump = t[q], st.jump[lv]
    s_lo = _pymax(st.times[st.first[lv]] - tq, -dinf[q] - (jump - j[q]))
    s_hi = u_hi - tq
    cut = np.flatnonzero(s_hi >= s_lo - TIME_TOL)
    ok, *piece = _pieces(st, lv[cut], s_lo[cut] + tq[cut], s_hi[cut] + tq[cut])
    at = cut[ok]
    return _cut_rows(st, q[at], jump[at], lv[at], *(x[ok] for x in piece), tq[at],
                     st.has_derivs[row], delta)


def memory_window(arc: HybridArc, t: float, j: int, delta: float) -> HybridMemoryArc:
    """:func:`memory_windows` at the one point (t, j)."""
    return memory_windows(arc, [(t, j)], delta)[0]


def delta_inf(arc: HybridArc, t: float, j: int, delta: float) -> float:
    """Smallest d >= delta such that some (t+s, j+k) in dom arc has s + k = -d,
    exactly: each level contributes a closed interval of depths (:func:`_reach`)."""
    one = np.zeros(1, dtype=np.intp)
    return float(_reach(History([arc]), one, np.array([t], dtype=float), one + j,
                        delta)[0][0])


def append_jumps(phis: Sequence[HybridMemoryArc],
                 gs: Sequence[np.ndarray]) -> list[HybridMemoryArc]:
    """Each memory arc of phis after taking a jump of value gs[i], one pass
    per block of arcs.

    The result psi satisfies psi(0,0) = g and psi(s, k-1) = phi(s, k) for all
    retained (s, k); material strictly older than s + k = -delta - 1 is
    dropped, the boundary point is kept.  g carries no derivative.
    """
    gs = [np.asarray(g, dtype=float) for g in gs]
    for phi, g in zip(phis, gs):
        if g.shape != (phi.dimension,):
            raise ValueError(f"jump value must have shape ({phi.dimension},)")
    out = []
    for lo, hi in _blocks(phis, 1):
        st = History(phis[lo:hi], room=1)
        st.start_segments(0.0, gs[lo:hi])  # each row's forward level: g alone
        top = st.spans[1:] - 1
        s_cut = -st.delta - 1 - (st.jump - 1)
        keep = st.times[st.end - 1] >= s_cut - TIME_TOL
        s_cut[top], keep[top] = -np.inf, True
        lv = np.flatnonzero(keep)
        _, *piece = _pieces(st, lv, s_cut[lv], np.full(lv.shape, np.inf))
        keeps = st.has_derivs & [phi.derivs is not None for phi in phis[lo:hi]]
        out += _cut_rows(st, st.row[lv], lv, lv, *piece, np.zeros(lv.shape), keeps,
                         st.delta)
    return out


def append_jump(phi: HybridMemoryArc, g: np.ndarray) -> HybridMemoryArc:
    """:func:`append_jumps` of the one arc phi."""
    return append_jumps([phi], [g])[0]


def sup_norm_w(phis: Sequence[HybridMemoryArc],
               fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Max of fn over each window's s + k >= -delta - 1, with grid refinement:
    one value per window of ``phis``, as an array.

    Both window maxima of the conditions are this one function: with
    fn = |.|_W (``dist_batch``) it is the window norm sup |phi(s,k)|_W (the
    argument of alpha2 in the functional form, and a run's initial size),
    and as :func:`vbar`, with fn = V (``v_batch``), it is the maximum of V
    over the window that the Razumikhin and Halanay forms compare with.

    Each jump level's stored samples above the depth floor seed its
    estimate; each refinement round adds the midpoints of its current grid
    until successive estimates agree to ``_REFINE_TOL`` (relative), at most
    ``_MAX_LEVELS`` rounds, and a level leaves the pass once it converges.
    A window's maximum is the largest of its levels'.  One pass serves every
    window of the call: consecutive windows go into blocks of at most
    ``_BLOCK_SAMPLES`` stored samples, and a block makes one evaluation for
    all its stored samples and, per refinement round, one for each group
    of consecutive levels of about ``_BLOCK_SAMPLES`` midpoints (one group
    unless the grids have grown past the budget).  So a call's memory is
    one block's, whatever the number of windows: at 16384 samples a block,
    the tracemalloc peak is about 11 MB when every level refines all six
    rounds, most of it the doubled grids.  A midpoint's bracket is its
    stored interval, known from its index in the grid, and its value is bit
    for bit the arc's pointwise interpolant.

    fn maps an (m, n) array of states to their m values, and row i of its
    result depends on row i of its input alone, bit for bit, whatever rows
    come with it.  Then a window's maximum does not depend on the other
    windows of the call or on the blocks.  The windows must share one state
    dimension.  A NaN value of fn, at a stored sample or a midpoint, raises
    :class:`~hymem.hybrid_time.DomainError` naming the window's index and
    its jump level; infinite values are compared as they are, so a window
    may have an infinite maximum.  A window with no sample above its floor
    raises.
    """
    out = np.empty(len(phis))
    for lo, hi in _blocks(phis):
        out[lo:hi] = _block_max(History(phis[lo:hi]), lo, fn)
    return out


def _block_max(st: History, offset: int, evaluate: Callable) -> np.ndarray:
    """:func:`sup_norm_w` of one block of windows, the first of which has
    index ``offset`` in the call."""
    win, jumps, starts, ends = st.row + offset, st.jump, st.first, st.end
    lengths = ends - starts
    times, values, derivs, known = st.times, st.values, st.derivs, st.known
    # a level's times increase, so its samples above the floor are a suffix
    above = times + np.repeat(jumps, lengths) >= -st.delta - 1 - TIME_TOL
    csum = np.concatenate(([0], np.cumsum(above)))
    count = csum[ends] - csum[starts]
    lv = np.flatnonzero(count)  # the levels with samples above the floor
    windows = st.spans.shape[0] - 1
    empty = np.flatnonzero(np.bincount(win[lv] - offset, minlength=windows) == 0)
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

    def refine(act: np.ndarray, grid: np.ndarray, cnt: np.ndarray, r: int):
        """Round r for the levels lv[act], whose grids are grid back to back
        and which take cnt midpoints each: raise their estimates, and return
        which of them go on refining and those levels' grids for the next
        round."""
        k = lv[act]
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
        x = _blend(times, values, derivs, known, mids, i)
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
            going = ~(np.abs(new - prev) <= _REFINE_TOL * np.maximum(1.0, np.abs(new)))
        if r + 1 == _MAX_LEVELS:
            return going, None
        keep = np.repeat(going, 2 * (cnt + 1))
        keep[2 * goff[1:] - 1] = False
        merged = np.empty(2 * grid.shape[0] - 1)
        merged[0::2] = grid
        merged[1::2] = pairs
        return going, merged[keep[:-1]]

    # refinement: the grids of the levels still refining, back to back, in
    # groups of consecutive levels of about _BLOCK_SAMPLES midpoints a round
    act = np.flatnonzero(count[lv] >= 2)
    grid = times[above & np.repeat(count >= 2, lengths)]
    for r in range(_MAX_LEVELS):
        if act.size == 0:
            break
        cnt = (count[lv[act]] - 1) << r  # midpoints per level this round
        goff = np.concatenate(([0], np.cumsum(cnt + 1)))
        upto = np.cumsum(cnt)  # midpoints up to each level's end
        cuts = [0, *np.unique(np.searchsorted(upto[:-1], np.arange(
            _BLOCK_SAMPLES, upto[-1], _BLOCK_SAMPLES), "right")).tolist(), act.shape[0]]
        rounds = [refine(act[a:b], grid[goff[a]:goff[b]], cnt[a:b], r)
                  for a, b in zip(cuts, cuts[1:]) if b > a]
        act = act[np.concatenate([going for going, _ in rounds])]
        grid = np.concatenate([g for _, g in rounds]) if r + 1 < _MAX_LEVELS else None
    return np.maximum.reduceat(est, np.searchsorted(win[lv], np.arange(
        offset, offset + windows)))


#: The maximum of V over the window: :func:`sup_norm_w` under its own name.
vbar = sup_norm_w


def delayed_sq_integral(phis: Sequence[HybridMemoryArc], lo: float, hi: float,
                        components: slice | None = None) -> np.ndarray:
    """Integral over [lo, hi] of |phi(s, k(s))|^2 ds for each arc of phis, as
    an array: exact for the stored piecewise-linear interpolant
    (per-interval Simpson).  ``components`` restricts the squared norm to a
    slice of the state vector.

    Each level contributes the index range of its samples (see
    :func:`_pieces`) on the part of [lo, hi] before its row's next level
    begins, with interpolated end samples: a jump instant belongs to the
    newer level, as the maximal-k rule has it, and no level older than the
    newest one begun by lo (up to TIME_TOL) reaches [lo, hi].  So each
    level is clipped on its own, all in one call, with no walk over the
    levels.  One Simpson pass serves a block of arcs: each level's interval
    terms are summed as one row of a C-contiguous array, which ``np.sum``
    reduces with the pairwise summation of a contiguous slice
    (``np.add.reduceat`` would not), and an arc adds its levels' sums oldest
    first.  So an arc's value is what it would be alone.  An arc with no
    stored history on [lo, hi] raises
    :class:`~hymem.hybrid_time.DomainError`.
    """
    if hi < lo:
        raise ValueError("need lo <= hi")
    out = np.empty(len(phis))
    for a, b in _blocks(phis):
        out[a:b] = _block_sq_integral(History(phis[a:b]), lo, hi, components)
    return out


def _block_sq_integral(st: History, lo: float, hi: float,
                       components: slice | None) -> np.ndarray:
    """:func:`delayed_sq_integral` of the rows of a store: every level
    clipped on its own, in one :func:`_pieces` call."""
    lv = np.arange(st.first.shape[0])
    start = st.times[st.first]
    # the maximal-jump-index rule: a level ends where its row's next begins,
    # and none older than the newest begun by lo + TIME_TOL reaches lo
    upto = np.append(start[1:], np.inf)
    upto[st.spans[1:] - 1] = np.inf
    floor = np.maximum.reduceat(np.where(start <= lo + TIME_TOL, lv, 0), st.spans[:-1])
    ok, *piece = _pieces(st, lv, lo, _pymin(hi, upto))
    ok &= lv >= floor[st.row]
    lv = lv[ok]
    r = st.row[lv]
    rows = st.spans.shape[0] - 1
    if not np.bincount(r, minlength=rows).all():
        raise DomainError(f"no stored history on [{lo}, {hi}]", lo, None)
    t, x, _, _, off, count = _runs(st, lv, *(p[ok] for p in piece), False)
    if components is not None:
        x = x[:, components]
    sq = np.einsum("ij,ij->i", x, x)
    mid = 0.5 * (x[:-1] + x[1:])
    sq_mid = np.einsum("ij,ij->i", mid, mid)
    terms = (t[1:] - t[:-1]) / 6.0 * (sq[:-1] + 4.0 * sq_mid + sq[1:])
    sums = np.zeros(count.shape[0])  # runs of one length: rows of one array
    for m in np.unique(count[count >= 2] - 1).tolist():
        at = np.flatnonzero(count - 1 == m)
        sums[at] = terms[off[at, None] + np.arange(m)].sum(axis=1)
    # the pieces run oldest first in each row, and bincount adds its weights
    # in order, from 0
    return np.bincount(r, weights=sums, minlength=rows)
