"""Array forms of the window operators: many memory arcs in one pass.

Consecutive arcs go into blocks of at most ``_BLOCK_ROWS`` stored samples
(one memory size and one interpolation scheme each), whose stores are
joined back to back in a :class:`_Stack`.  Each operation then runs on
whole arrays of levels, pieces and samples, and gives every arc, bit for
bit, what the arc alone gets from the scalar operators of
:mod:`hymem.hybrid_time`:

* the window maximum (:func:`sup_norm_w`, also named :func:`vbar`) makes,
  per block, one call of the batch form for the stored samples and one per
  refinement round.  A batch form must give each row the same bits
  whatever rows come with it, so a window's maximum is what it would be
  alone;
* :func:`delayed_sq_integral`, the functional check's delayed integral;
* :func:`append_jumps`, :func:`~hymem.hybrid_time.append_jump` of many arcs;
* the flow windows of many arcs (:func:`~hymem.solver.flow_windows`), which
  step a stack through a :class:`~hymem.hybrid_time.BatchView` and are cut
  from it by :func:`_stack_windows`, as
  :func:`~hymem.hybrid_time.memory_window` cuts one History.

Only one block's arrays exist at a time, whatever the number of arcs.
``hymem.hybrid_time`` re-exports :func:`sup_norm_w`, :func:`vbar` and
:func:`delayed_sq_integral` under their old names.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .hybrid_time import (TIME_TOL, DomainError, HybridArc, HybridMemoryArc,
                          InsufficientHistoryError, _blend)

#: Most stored samples in one block of the window maximum (an arc larger
#: than this is a block of its own).  Its refinement rounds hold up to 2^5
#: midpoints per sample interval, so its blocks stay small.
_BLOCK_ROWS = 1024
#: Most stored samples in one block of the other array forms, whose arrays
#: hold a few rows per stored sample.  Only one block's arrays exist at a
#: time, whatever the number of arcs.
_STACK_ROWS = 4096


def _blocks(phis: Sequence[HybridMemoryArc], extra: int = 0,
            budget: int | None = None):
    """(lo, hi) ranges of consecutive arcs of phis with at most ``budget``
    (default _STACK_ROWS) stored samples, ``extra`` more per arc, and one
    memory size and one interpolation scheme each."""
    budget = _STACK_ROWS if budget is None else budget
    lo = rows = 0
    for hi, phi in enumerate(phis):
        key = (phi.delta, phi.interpolation)
        if hi > lo and (rows + phi.n + extra > budget or key != first):
            yield lo, hi
            lo, rows = hi, 0
        if hi == lo:
            first = key
        rows += phi.n + extra
    if lo < len(phis):
        yield lo, len(phis)


class _Stack(HybridArc):
    """The stores of a block of memory arcs (one memory size, one scheme)
    back to back, each arc a row.

    ``extra`` > 0 gives each row what a History of its arc holds after
    ``start_segment``: a forward level of jump index 0 whose first sample is
    the head at t = 0, then ``extra - 1`` free samples, with derivative 0
    flagged known.  Per level, ``first`` and ``end`` are its index range,
    ``jump`` its jump index and ``row`` its arc; a row's levels are
    ``levels[i]:levels[i + 1]``.  Derivatives are kept on Hermite blocks
    only (zeros, not flagged known, for an arc that has none), since linear
    reads and cuts use none; ``has_derivs`` marks the arcs that have some.
    Reads go through ``HybridArc.value`` and
    :class:`~hymem.hybrid_time.BatchView`, with a row's first level as the
    floor.
    """

    def __init__(self, phis: Sequence[HybridMemoryArc], extra: int = 0):
        rows = len(phis)
        sizes = np.array([phi.n for phi in phis])
        depth = np.array([len(phi.starts) for phi in phis])  # memory levels
        fwd = 1 if extra else 0
        offset = np.concatenate(([0], np.cumsum(sizes + extra)))
        self.levels = np.concatenate(([0], np.cumsum(depth + fwd)))
        self.has_derivs = np.array([phi.derivs is not None for phi in phis])
        hermite = phis[0].interpolation == "hermite"
        times = np.concatenate([phi.times for phi in phis])
        values = np.concatenate([phi.values for phi in phis])
        derivs = known = None
        if hermite:
            derivs = np.concatenate([phi.derivs if has else np.zeros_like(phi.values)
                                     for phi, has in zip(phis, self.has_derivs)])
            known = np.concatenate([phi.known if has else np.zeros(phi.n, dtype=bool)
                                    for phi, has in zip(phis, self.has_derivs)])
        starts = (np.fromiter(chain.from_iterable(phi.starts for phi in phis),
                              dtype=np.intp, count=int(depth.sum()))
                  + np.repeat(offset[:-1], depth))
        jump = np.arange(starts.shape[0]) + 1 - np.repeat(np.cumsum(depth), depth)
        if extra:  # each row's forward level follows its samples
            n, levels = offset[-1], self.levels[-1]
            at = np.arange(times.shape[0]) + np.repeat(np.arange(rows) * extra, sizes)
            base = offset[:-1] + sizes  # the forward levels' first samples
            times, values = _spread(times, at, n, 0.0), _spread(values, at, n, 0.0)
            values[base] = values[base - 1]  # the head, at t = 0
            if hermite:
                derivs = _spread(derivs, at, n, 0.0)
                known = _spread(known, at, n, True)
            mem = np.arange(starts.shape[0]) + np.repeat(np.arange(rows), depth)
            starts = _spread(starts, mem, levels, base)
            jump = _spread(jump, mem, levels, 0)
        self.first, self.end = starts, np.append(starts[1:], offset[-1])
        self.jump, self.row = jump, np.repeat(np.arange(rows), depth + fwd)
        self._keys = None
        self._store(times, values, derivs, known, starts.tolist(), len(starts),
                    phis[0].interpolation, phis[0].delta)

    def search(self, lv: np.ndarray, q: np.ndarray, side: str) -> np.ndarray:
        """first[lv[i]] + np.searchsorted(level lv[i]'s times, q[i], side) for
        each i, in one search: the samples as (level, time) pairs, in the
        complex numbers' lexicographic order, which compares both parts
        exactly.  The pairs are taken from the times as they are at the
        first search."""
        if self._keys is None:
            self._keys = _pairs(np.repeat(np.arange(self.first.shape[0]),
                                          self.end - self.first), self.times)
        return np.searchsorted(self._keys, _pairs(lv, q), side)


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a[i], b[i]) as complex numbers a[i] + b[i] j, built without
    arithmetic, so each part keeps its bits."""
    z = np.empty(np.broadcast(a, b).shape, dtype=complex)
    z.real, z.imag = a, b
    return z


def _spread(a: np.ndarray, at: np.ndarray, size: int, fill) -> np.ndarray:
    """An array of ``size`` rows with a's rows at ``at`` and ``fill`` (a
    scalar, or an array for the rows not in ``at``, in order) elsewhere."""
    out = np.empty((size,) + a.shape[1:], dtype=a.dtype)
    rest = np.ones(size, dtype=bool)
    rest[at] = False
    out[rest] = fill
    out[at] = a
    return out


def _pymax(a, b):
    """max(a, b) as Python has it, elementwise: b where b > a, else a."""
    return np.where(b > a, b, a)


def _pymin(a, b):
    """min(a, b) as Python has it, elementwise: b where b < a, else a."""
    return np.where(b < a, b, a)


def _pieces(st: _Stack, lv: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """``hybrid_time._piece`` of levels lv of a stack on [lo, hi], as
    arrays: ok (False where it gives None), the stored range [a, b), the
    bounds lo and hi as it clips them, and pre and post, which flag an
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


def _runs(st: _Stack, lv, a, b, lo, hi, pre, post, derivs: bool):
    """The samples of pieces (see :func:`_pieces`) back to back: times,
    values, derivs and known (None unless ``derivs``), and each piece's
    offset and sample count.  An interpolated sample reads its level as
    ``hybrid_time._piece`` does; its derivative is interpolated linearly and
    known when both ends of its bracket are."""
    count = pre + (b - a) + post
    off = np.cumsum(count) - count
    src = np.repeat(a - off - pre, count) + np.arange(off[-1] + count[-1])
    head, tail = off[pre], (off + count - 1)[post]
    src[head] = src[tail] = 0
    times, values = st.times[src], st.values[src]
    d = k = None
    if derivs:
        d, k = st.derivs[src], st.known[src]
    # an interpolated sample lies strictly inside its bracket [i - 1, i]
    for at, flag, t, i in ((head, pre, lo, a), (tail, post, hi, b)):
        if not at.size:
            continue
        t, i = t[flag], i[flag]
        times[at] = t
        values[at] = _blend(st.times, st.values, st.derivs, st.known, t, i - 1)
        if derivs:
            d[at] = _blend(st.times, st.derivs, None, None, t, i - 1)
            k[at] = st.known[i - 1] & st.known[i]
    return times, values, d, k, off, count


def _cut_rows(st: _Stack, row, key, lv, a, b, lo, hi, pre, post, shift: float,
              derivs: np.ndarray) -> list[HybridMemoryArc]:
    """``hybrid_time._cut`` of every row of a stack at once: the memory arcs
    made of pieces (see :func:`_pieces`) in order by row, with keys, times
    shifted by -shift; row i keeps derivatives when derivs[i] holds.  Every
    row has a piece."""
    times, values, d, k, off, count = _runs(st, lv, a, b, lo, hi, pre, post,
                                            bool(derivs.any()))
    last = off + count - 1
    joined = np.zeros(row.shape[0], dtype=bool)
    joined[1:] = (row[1:] == row[:-1]) & (key[1:] == key[:-1])
    drop = np.flatnonzero(joined)
    drop = drop[times[off[drop]] - shift <= times[last[drop - 1]] - shift + TIME_TOL]
    if d is not None and drop.size:
        lend = drop[~k[last[drop - 1]]]
        d[last[lend - 1]], k[last[lend - 1]] = d[off[lend]], k[off[lend]]
    keep = np.ones(times.shape[0], dtype=bool)
    keep[off[drop]] = False
    times, values = times[keep] - shift, values[keep]
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
            k[s:e] if with_d else None, st.interpolation, delta=st.delta))
    return arcs


def _stack_windows(st: _Stack, t: float) -> list[HybridMemoryArc]:
    """:func:`~hymem.hybrid_time.memory_window` of every row of a stack
    with a forward level at (t, 0), t a time that level holds: each row's
    window of size delta, with ``delta_inf`` and every level's cut computed
    as memory_window does, in arrays.  Memory level 0 and forward level 0
    join as there."""
    j = 0
    times, delta = st.times, st.delta
    lo, jump = times[st.first], st.jump
    u_hi = _pymin(times[st.end - 1], t)
    use = ~(u_hi < lo - TIME_TOL)
    c = t + j - _pymax(u_hi, lo) - jump
    d = t + j - lo - jump
    depth = np.where(use & (d >= delta - TIME_TOL), _pymax(c, delta), np.inf)
    dinf = np.minimum.reduceat(depth, st.levels[:-1])
    if not np.isfinite(dinf).all():
        raise InsufficientHistoryError(
            f"no history at depth >= {delta} behind (t={t}, j={j})", t, j)
    s_lo = _pymax(lo - t, -dinf[st.row] - (jump - j))
    s_hi = u_hi - t
    lv = np.flatnonzero(use & (s_hi >= s_lo - TIME_TOL))
    ok, *piece = _pieces(st, lv, s_lo[lv] + t, s_hi[lv] + t)
    lv = lv[ok]
    return _cut_rows(st, st.row[lv], jump[lv], lv, *(x[ok] for x in piece), t,
                     np.full(st.levels.shape[0] - 1, st.derivs is not None))


def append_jumps(phis: Sequence[HybridMemoryArc],
                 gs: Sequence[np.ndarray]) -> list[HybridMemoryArc]:
    """:func:`~hymem.hybrid_time.append_jump` of each arc of phis with the
    jump value at the same position of gs, bit for bit, one pass per block
    of arcs."""
    gs = [np.asarray(g, dtype=float) for g in gs]
    for phi, g in zip(phis, gs):
        if g.shape != (phi.dimension,):
            raise ValueError(f"jump value must have shape ({phi.dimension},)")
    out = []
    for lo, hi in _blocks(phis, 1):
        st = _Stack(phis[lo:hi], 1)
        top = st.levels[1:] - 1  # each row's forward level: g alone, at t = 0
        st.values[st.first[top]] = gs[lo:hi]
        if st.derivs is not None:
            st.known[st.first[top]] = False  # g carries no derivative
        s_cut = -st.delta - 1 - (st.jump - 1)
        keep = st.times[st.end - 1] >= s_cut - TIME_TOL
        s_cut[top], keep[top] = -np.inf, True
        lv = np.flatnonzero(keep)
        _, *piece = _pieces(st, lv, s_cut[lv], np.full(lv.shape, np.inf))
        out += _cut_rows(st, st.row[lv], lv, lv, *piece, 0.0,
                         st.has_derivs & (st.derivs is not None))
    return out


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
    fn, at a stored sample or a midpoint, raises
    :class:`~hymem.hybrid_time.DomainError` naming the window's index and
    its jump level; infinite values are compared as they are, so a window
    may have an infinite maximum.  A window with no sample above its floor
    raises.
    """
    evaluate = batch if batch is not None else (
        lambda arr: np.array([fn(row) for row in arr]))
    out = np.empty(len(phis))
    for lo, hi in _blocks(phis, budget=_BLOCK_ROWS):
        out[lo:hi] = _block_max(_Stack(phis[lo:hi]), lo, evaluate, refine_tol,
                                max_levels)
    return out


def _block_max(st: _Stack, offset: int, evaluate: Callable, refine_tol: float,
               max_levels: int) -> np.ndarray:
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
    windows = st.levels.shape[0] - 1
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
        offset, offset + windows)))


#: The maximum of V over the window: :func:`sup_norm_w` under its own name.
vbar = sup_norm_w


def delayed_sq_integral(phis: Sequence[HybridMemoryArc], lo: float, hi: float,
                        components: slice | None = None) -> np.ndarray:
    """Integral over [lo, hi] of |phi(s, k(s))|^2 ds for each arc of phis, as
    an array: exact for the stored piecewise-linear interpolant
    (per-interval Simpson).  ``components`` restricts the squared norm to a
    slice of the state vector.

    Each level contributes the index range of its samples on the part of
    [lo, hi] that no newer level covers (a jump instant belongs to the newer
    level, as the maximal-k rule has it), with interpolated end samples.
    One Simpson pass serves a block of arcs: each level's interval terms are
    summed as one row of a C-contiguous array, which ``np.sum`` reduces with
    the pairwise summation of a contiguous slice (``np.add.reduceat`` would
    not), and an arc adds its levels' sums oldest first.  So an arc's value
    is what it would be alone.  An arc with no stored history on [lo, hi]
    raises :class:`~hymem.hybrid_time.DomainError`.
    """
    if hi < lo:
        raise ValueError("need lo <= hi")
    out = np.empty(len(phis))
    for a, b in _blocks(phis):
        out[a:b] = _block_sq_integral(_Stack(phis[a:b]), lo, hi, components)
    return out


def _block_sq_integral(st: _Stack, lo: float, hi: float,
                       components: slice | None) -> np.ndarray:
    """:func:`delayed_sq_integral` of the rows of a stack: the levels of all
    rows are walked newest first in lockstep, one rank of level a round."""
    times = st.times
    rows = st.levels.shape[0] - 1
    depth = np.diff(st.levels)
    top = np.full(rows, hi)
    active = np.ones(rows, dtype=bool)
    runs = []  # per rank of level, newest first: (rows, pieces)
    for rank in range(int(depth.max())):
        r = np.flatnonzero(active & (rank < depth))
        if not r.size:
            break
        lv = st.levels[r + 1] - 1 - rank
        first, last = times[st.first[lv]], times[st.end[lv] - 1]
        go = ~(first > hi + TIME_TOL)
        stop = go & (last < lo - TIME_TOL)
        active[r[stop]] = False
        go &= ~stop
        r, lv, first, last = r[go], lv[go], first[go], last[go]
        ok, a, b, p_lo, p_hi, pre, post = _pieces(st, lv, _pymax(lo, first),
                                                  _pymin(top[r], last))
        run_first = np.where(pre, p_lo, times[np.minimum(a, st.end[lv] - 1)])
        top[r[ok]] = _pymin(hi, run_first[ok])  # older levels end there
        active[r[first <= lo + TIME_TOL]] = False
        runs.append(tuple(x[ok] for x in (r, lv, a, b, p_lo, p_hi, pre, post)))
    rank_of = np.concatenate([np.full(run[0].shape, k) for k, run in enumerate(runs)])
    r, lv, a, b, p_lo, p_hi, pre, post = (np.concatenate(f) for f in zip(*runs))
    missing = np.flatnonzero(np.bincount(r, minlength=rows) == 0)
    if missing.size:
        raise DomainError(f"no stored history on [{lo}, {hi}]", lo, None)
    t, x, _, _, off, count = _runs(st, lv, a, b, p_lo, p_hi, pre, post, False)
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
    total = np.zeros(rows)
    for k in range(len(runs) - 1, -1, -1):  # oldest level first
        at = (rank_of == k) & (count >= 2)
        total[r[at]] += sums[at]
    return total
