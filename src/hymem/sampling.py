"""Random memory-arc generation for certificate falsification.

Two modes:

* ``reachable``: arcs are memory windows harvested from simulations of the
  system itself, started from random constant histories.  Flow-set windows
  come from random accepted sample points, one per ``POINTS_PER_WINDOW``
  stored forward points of the simulation (at least ``MIN_FLOW_WINDOWS``),
  jump-set windows from every pre-jump instant, and post-jump arcs from
  appending the selected jump value.  What a simulation gives depends on
  it alone, so the pools fill in simulation order whichever region is
  drawn first, and the region that needs the most simulations sets their
  number.  These arcs are dynamically consistent, which matters for
  certificates whose jump condition relies on the delayed state tracking the
  flow (the sampled-data example does).  A simulation that ends in error
  stops the sampler with a RuntimeError that names it and says why.
* ``cover``: arcs are synthesized directly: clock components follow the
  clock structure (the guard constrains them), all other components are
  random piecewise-linear splines that may change discontinuously across
  memory jumps.  This is the adversarial surrogate for quantifying over the
  whole flow/jump set.

All randomness derives from the sampler seed through named seed sequences,
so sampling is deterministic and independent of call order.

Each ``sample`` call starts the region's cover stream afresh, keyed by
(seed, "cover", region), and reads a (count, stride) array of uniforms on
[0, 1) from it; arc i reads row i from its left end, so arc i is the same
whatever the count and whichever region was drawn first.  ``stride`` is
the most uniforms an arc of the system can read.  A row holds:

1. with a clock: the amplitude, tau0 (region C only), the cut depth;
   without one: the amplitude, the depth in s + k, the number of memory
   jumps (mapped onto the counts that leave a time depth of at least the
   longest declared delay), then one time per jump;
2. per jump level, newest first: three knot times, then five knot values
   for each non-clock component in component order.

A uniform u maps onto [lo, hi) as lo + (hi - lo) * u.  Any change to that
layout or to a mapping changes every seeded cover arc.

The array is drawn a block of consecutive rows at a time (the same
numbers as one draw), as many rows as ``batch._BLOCK_SAMPLES`` (16384)
stored samples surely hold, and each block is planned (its levels' bounds
and sizes) and splined (every level's grid as ``np.linspace``, sorted knots
and values as ``np.interp``, bit for bit) in one set of array passes, so
only one block's arrays exist at a time.  The arcs are valid by
construction and built unchecked (``HybridMemoryArc._of``), each on its own
copy of its rows; ``sample`` checks every C and D arc's guard.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import batch
from .batch import append_jumps, memory_windows
from .hybrid_time import HybridMemoryArc
from .solver import SimOptions, Termination, simulate
from .system import GUARD_TOL, SystemSpec, constant_history

_REGIONS = ("C", "D", "Gplus")
AMPLITUDE = (0.1, 2.0)  # range of a random arc's amplitude
SEGMENT_COUNTS = (0, 1, 2, 3)  # memory jumps of an unclocked cover arc: a run from 0
POINTS_PER_WINDOW = 20  # stored forward points per flow window a simulation yields
MIN_FLOW_WINDOWS = 8  # the flow windows a simulation yields however short it is


@dataclass(frozen=True)
class ArcSample:
    arc: HybridMemoryArc
    region: str
    index: int
    origin: str


@dataclass
class ArcSampler:
    """Deterministic generator of memory arcs in a designated region."""

    spec: SystemSpec
    seed: int = 0
    mode: str = "reachable"  # "reachable" | "cover" | "both"

    def __post_init__(self):
        if self.mode not in ("reachable", "cover", "both"):
            raise ValueError("mode must be 'reachable', 'cover' or 'both'")
        self._pool_sims = 0  # simulations run to fill the reachable pool
        self._pool_jump_windows: list[tuple[HybridMemoryArc, str]] = []
        self._pool_flow_windows: list[tuple[HybridMemoryArc, str]] = []

    # -- public API ---------------------------------------------------------

    def region_supported(self, region: str) -> bool:
        if region not in _REGIONS:
            raise ValueError(f"unknown region {region!r}")
        if region in ("D", "Gplus"):
            return self.spec.meta.get("period") is not None
        return True

    def sample(self, region: str, count: int) -> list[ArcSample]:
        """Deterministic list of arcs lying in the requested region: each C
        or D arc's guard is at least -:data:`~hymem.system.GUARD_TOL`."""
        if region not in _REGIONS:
            raise ValueError(f"unknown region {region!r}")
        if count <= 0 or not self.region_supported(region):
            return []
        n_reach = {"reachable": count, "cover": 0,
                   "both": (count + 1) // 2}[self.mode]
        arcs = self._reachable(region, n_reach) if n_reach else []
        arcs += self._cover_arcs(region, count - n_reach)
        if region == "Gplus":  # one pass appends every arc's jump
            gs = [self.spec.jump_selections(arc) for arc, _ in arcs]
            kind = [i if i < n_reach else i - n_reach for i in range(len(arcs))]
            psis = append_jumps([arc for arc, _ in arcs],  # each kind counts from 0
                                [g[i % len(g)] for i, g in zip(kind, gs)])
            arcs = [(psi, origin + ":+g") for psi, (_, origin) in zip(psis, arcs)]
        out: list[ArcSample] = []
        for idx, (arc, origin) in enumerate(arcs):
            self._check_guard(arc, region)
            out.append(ArcSample(arc=arc, region=region, index=idx, origin=origin))
        return out

    # -- internals ----------------------------------------------------------

    def _rng(self, *key) -> np.random.Generator:
        # stable across processes: strings hash via crc32, ints pass through
        words = tuple(zlib.crc32(k.encode()) if isinstance(k, str) else int(k)
                      for k in key)
        ss = np.random.SeedSequence((self.seed,) + words)
        return np.random.Generator(np.random.Philox(ss))

    def _check_guard(self, arc: HybridMemoryArc, region: str) -> None:
        if region == "C":
            g = self.spec.flow_guard(arc)
        elif region == "D":
            g = self.spec.jump_guard(arc)
        else:
            return  # post-jump arcs are in C u D by construction of the clock
        if g < -GUARD_TOL:
            raise RuntimeError(f"sampler emitted an arc violating its {region} "
                               f"guard (value {g:.3e})")

    def _sim_options(self) -> SimOptions:
        period = self.spec.meta.get("period")
        depth = self.spec.memory_size + 1.0
        if period is not None:
            step = min(period / 40.0, depth / 50.0)
        else:
            step = depth / 100.0
        horizon = 1.1 * depth + (2.5 * period if period else 0.5 * depth)
        return SimOptions(t_max=horizon, j_max=10 ** 6, step=step)

    def _random_history(self, rng: np.random.Generator):
        n = self.spec.dimension
        clock = self.spec.meta.get("clock_index")
        period = self.spec.meta.get("period")
        lo, hi = AMPLITUDE
        amp = rng.uniform(lo, hi)
        v = amp * rng.uniform(-1.0, 1.0, size=n)
        if clock is not None:
            v[clock] = rng.uniform(0.0, 0.95 * period)
        return constant_history(self.spec, v, self._sim_options().step)

    def _extend_pool(self, traj_index: int) -> None:
        rng = self._rng("reachable-traj", traj_index)
        opts = self._sim_options()
        init = self._random_history(rng)
        traj = simulate(self.spec, init, opts)
        if traj.termination is Termination.error:
            raise RuntimeError(f"reachable sampler: simulation {traj_index} "
                               f"ended in error: {traj.error}")
        self._pool_sims += 1
        tag = f"reachable:traj{traj_index}"
        delta = self.spec.memory_size
        clock = self.spec.meta.get("clock_index")
        period = self.spec.meta.get("period")
        # flow windows at the points in a deterministic pseudo-random order,
        # until one per POINTS_PER_WINDOW stored points (at least
        # MIN_FLOW_WINDOWS) pass.  The take depends on the trajectory alone,
        # so the pool does not depend on which region was drawn first.  One
        # cut holds the jump windows and the first 2 * take points; more
        # only if too few of them pass.
        points = [(t, j) for (t, j, _) in traj.sample_points()]
        order = [points[i] for i in rng.permutation(len(points)).tolist()]
        take = max(MIN_FLOW_WINDOWS, len(points) // POINTS_PER_WINDOW)
        chunk = 2 * take
        jumps = list(traj.jumps)
        windows = memory_windows(traj.arc, jumps + order[:chunk], delta)
        for nj, w in enumerate(windows[:len(jumps)]):
            self._pool_jump_windows.append((w, f"{tag}:jump{nj}"))
        windows, taken = windows[len(jumps):], 0
        for a in range(0, len(order), chunk):
            if a:
                windows = memory_windows(traj.arc, order[a:a + chunk], delta)
            for (t, j), w in zip(order[a:], windows):
                if clock is not None and not 0.0 <= float(w.head[clock]) <= 0.9 * period:
                    continue
                if self.spec.flow_guard(w) < -GUARD_TOL:
                    continue
                self._pool_flow_windows.append((w, f"{tag}:flow@({t:.6g},{j})"))
                taken += 1
                if taken >= take:
                    return

    def _reachable(self, region: str, count: int) -> list[tuple[HybridMemoryArc, str]]:
        pool = self._pool_jump_windows if region in ("D", "Gplus") \
            else self._pool_flow_windows
        traj_index = self._pool_sims
        while len(pool) < count:
            before = len(pool)
            self._extend_pool(traj_index)
            traj_index += 1
            if len(pool) == before and traj_index > 50 * (count + 1):
                raise RuntimeError(
                    f"reachable sampler cannot populate region {region!r}")
        return pool[:count]

    def _cover_arcs(self, region: str, count: int) -> list[tuple[HybridMemoryArc, str]]:
        """The first ``count`` cover arcs of ``region``, arc i from row i of
        the region's (count, stride) uniforms, drawn and built a block of
        consecutive rows at a time."""
        clock = self.spec.meta.get("clock_index")
        period = self.spec.meta.get("period")
        jumps = max(SEGMENT_COUNTS)  # the most memory jumps an arc holds
        if clock is not None:  # the deepest level whose depths can meet
            # [delta, delta + 1]: level k + 1 starts at depth k (1 + period) + 1
            # when tau0 = 0, and deeper when tau0 > 0
            jumps = 0
            while jumps * (1.0 + period) + 1.0 <= self.spec.memory_size + 1.0 + 1e-12:
                jumps += 1
        # knot times, then knot values of each non-clock component
        per_level = 3 + 5 * (self.spec.dimension - (clock is not None))
        stride = 3 + (clock is None) * jumps + (jumps + 1) * per_level
        # an arc's grid step is at least its depth / 60, so it holds at most
        # 60 samples plus 2 per level, and rounding adds at most 1 per level
        block = max(1, batch._BLOCK_SAMPLES // (60 + 3 * (jumps + 1)))
        rng, out = self._rng("cover", region), []
        for a in range(0, count, block):  # each draw continues the stream
            u = rng.random((min(block, count - a), stride))
            k, levels = self._cover_levels(region, u, jumps, per_level)
            ts, vals = self._splines(*levels)
            lvl = np.concatenate([[0], np.cumsum(k + 1)]).tolist()  # arc -> first level
            first = np.concatenate([[0], np.cumsum(levels[2])]).tolist()  # -> first sample
            for i, (l0, l1) in enumerate(zip(lvl, lvl[1:]), a):
                at, end = first[l0], first[l1]  # each arc on its own copy of its rows
                arc = HybridMemoryArc._of(ts[at:end].copy(), vals[at:end].copy(),
                                          [f - at for f in first[l0:l1]], l1 - l0,
                                          delta=self.spec.memory_size)
                out.append((arc, f"cover:{region}{i}"))
        return out

    def _cover_levels(self, region: str, u: np.ndarray, jumps: int, per_level: int):
        """The memory jumps k of the arcs of rows u, and their levels, each
        arc's oldest first, as :meth:`_splines` takes them."""
        clock = self.spec.meta.get("clock_index")
        period = self.spec.meta.get("period")
        delta = self.spec.memory_size
        count = u.shape[0]
        rows = np.arange(count)
        lo, hi = AMPLITUDE
        amp = lo + (hi - lo) * u[:, 0]
        if clock is not None:
            head = np.full(count, 2 + (region == "C"))  # uniforms before the levels
            tau0 = 0.9 * period * u[:, 1] if region == "C" else np.full(count, period)
            # A clock-consistent history reaches depths in unit-gapped
            # intervals, one per jump level (rows, newest first); the cut
            # depth lies in the widest of their intersections with
            # [delta, delta + 1], the first of equally wide ones.
            bot = tau0 + np.arange(jumps + 1)[:, None] * (1.0 + period)
            top = np.vstack([np.zeros(count), bot[:-1] + 1.0])
            d_lo, d_hi = np.maximum(top, delta), np.minimum(bot, delta + 1.0)
            width = np.where(d_hi >= d_lo - 1e-12, np.maximum(d_hi - d_lo, 0.0), -1.0)
            k = width.argmax(0)
            d_lo, d_hi = d_lo[k, rows], np.maximum(d_hi[k, rows], d_lo[k, rows])
            cut = d_lo + (d_hi - d_lo) * u[:, 1 + (region == "C")]
            bounds = np.column_stack([np.zeros(count),
                                      -tau0[:, None] - np.arange(jumps) * period,
                                      np.zeros(count)])
            bounds[rows, k + 1] = -(cut - k)
        else:
            depth = delta + (0.05 + (0.95 - 0.05) * u[:, 1])  # in s + k
            # each memory jump spends a unit of depth; the time left must
            # still hold the longest delay the flow and jump maps read.  The
            # counts that fit run from 0, as SEGMENT_COUNTS does.
            reach = max(self.spec.meta.get("delays", ()), default=0.0)
            fits = (depth[:, None] - np.array(SEGMENT_COUNTS) >= reach).sum(1)
            k = (u[:, 2] * np.maximum(fits, 1)).astype(np.intp)
            head, time_depth = 3 + k, (depth - k)[:, None]
            cuts = -time_depth + time_depth * u[:, 3:3 + jumps]
            cuts[np.arange(jumps) >= k[:, None]] = -np.inf  # no such jump
            bounds = np.column_stack([np.zeros(count), cuts, -time_depth])
            bounds = -np.sort(-bounds, 1)  # each arc's jump times, newest first
        # level q (newest first) holds np.linspace(s_lo, s_hi, m) on
        # [bounds[q + 1], bounds[q]], or its first sample alone if s_lo == s_hi
        q = k[:, None] - np.arange(jumps + 1)
        arc = np.nonzero(q >= 0)[0]
        q = q[q >= 0]
        s_lo, s_hi = bounds[arc, q + 1], bounds[arc, q]
        grid = np.maximum(-bounds[rows, k + 1] / 60.0, 1e-4)[arc]
        m = np.where(s_hi == s_lo, 1, np.maximum(2, np.ceil((s_hi - s_lo) / grid) + 1))
        cols = (head[arc] + q * per_level)[:, None] + np.arange(per_level)
        levels = [s_lo, s_hi, m.astype(np.intp), amp[arc], u[arc[:, None], cols]]
        if clock is not None:  # the clock at s_hi
            levels.append(np.where(q == 0, tau0[arc], period))
        return k, levels

    def _splines(self, s_lo, s_hi, m, amp, u, tau_hi=None):
        """Times and values of levels of m samples on [s_lo, s_hi], with
        amplitudes amp, uniforms u and clocks tau_hi at s_hi, as np.linspace
        and np.interp give them, bit for bit."""
        n = self.spec.dimension
        clock = self.spec.meta.get("clock_index")
        free = [comp for comp in range(n) if comp != clock]
        # the grid: k * (span / (m - 1)) + s_lo, then s_hi; 0.0 + s_lo alone
        span = s_hi - s_lo
        level = np.repeat(np.arange(len(m)), m)
        ends = np.cumsum(m)
        step = span / np.maximum(m - 1, 1)  # 0.0 / 1 on a one-sample level
        ts = (np.arange(ends[-1]) - np.repeat(ends - m, m)) * step[level]
        ts += s_lo[level]
        ts[(ends - 1)[m > 1]] = s_hi[m > 1]
        vals = np.empty((ts.shape[0], n))
        if clock is not None:
            vals[:, clock] = tau_hi[level] + (ts - s_hi[level])
        # the knots, sorted per level as sorted() orders ties
        knots = np.column_stack([s_lo, s_hi, s_lo[:, None] + span[:, None] * u[:, :3]])
        knots = np.sort(knots, axis=1, kind="stable").ravel()
        # np.interp: the interval by a side="right" search, then its slope;
        # every temporary is one value per stored sample
        level *= 5  # now each row's first knot
        at = sum((knots[level + q] <= ts for q in range(5)), np.intp(0))
        j0 = np.clip(at - 1, 0, 4)
        j0 += level
        inner = (at > 0) & (at < 5)  # x0 <= x < x1 = knots[j0 + 1], else past an end
        del level, at
        x0 = knots[j0]
        exact = ts == x0  # a knot's value
        exact |= ~inner
        dt = ts - x0
        dx = knots[j0 + inner]
        dx -= x0
        del x0
        kv = amp[:, None] * (-1.0 + 2.0 * u[:, 3:])
        # np.interp retries a NaN value from the interval's other end; here
        # none arises: off the exact rows x0 <= x < x1, knots and values are
        # finite, and distinct knots differ by far more than 4 / DBL_MAX
        for c, comp in enumerate(free):
            y = kv[:, 5 * c:5 * c + 5].ravel()
            y0, v = y[j0], y[j0 + inner]
            v -= y0
            with np.errstate(divide="ignore", invalid="ignore"):
                v /= dx  # the slope, 0/0 only where exact
            v *= dt
            v += y0
            np.copyto(v, y0, where=exact)
            vals[:, comp] = v
        return ts, vals
