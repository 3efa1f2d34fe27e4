"""Random memory-arc generation for certificate falsification.

Two modes:

* ``reachable``: arcs are memory windows harvested from simulations of the
  system itself, started from random constant histories.  Flow-set windows
  come from random accepted sample points, jump-set windows from the
  pre-jump instants, and post-jump arcs from appending the selected jump
  value.  These arcs are dynamically consistent, which matters for
  certificates whose jump condition relies on the delayed state tracking the
  flow (the sampled-data example does).
* ``cover``: arcs are synthesized directly: clock components follow the
  clock structure (the guard constrains them), all other components are
  random piecewise-linear splines that may change discontinuously across
  memory jumps.  This is the adversarial surrogate for quantifying over the
  whole flow/jump set.

All randomness derives from the sampler seed through named seed sequences,
so sampling is deterministic and independent of call order.

Each cover arc reads its own Philox stream, keyed by (seed, "cover",
region, index), in a fixed order of uniforms on [0, 1):

1. with a clock: amplitude, target depth (drawn, unused), tau0 (region C
   only), the jump-level pick (drawn, unused: the widest candidate level is
   taken), the cut depth; without one: amplitude, target depth, then one
   integer draw for the number of memory jumps (among the counts that leave
   a time depth of at least the longest declared delay), then the jump
   times;
2. per segment, newest jump level first: three knot times, then five knot
   values for each non-clock component in component order.

Any change to that order, or to how a uniform maps onto its range, changes
every seeded cover arc.

Only those draws and the bounds arithmetic run per arc.  A ``sample`` call
builds its cover arcs in blocks of consecutive arcs, at most
``_STACK_ROWS`` (4096) stored samples each: one set of array passes makes
every level's grid (as ``np.linspace``), sorted knots and spline values (as
``np.interp``), bit for bit, and each arc then goes through the checked
``HybridMemoryArc`` constructor.  Since every arc has its own stream, the
blocking moves no draw.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .batch import _STACK_ROWS, append_jumps, memory_windows
from .hybrid_time import HybridMemoryArc, constant_memory_arc
from .solver import SimOptions, simulate
from .system import GUARD_TOL, SystemSpec

_REGIONS = ("C", "D", "Gplus")
AMPLITUDE = (0.1, 2.0)  # range of a random arc's amplitude
SEGMENT_COUNTS = (0, 1, 2, 3)  # memory jumps of an unclocked cover arc
_FLOW_CHUNK = 16  # flow points cut per window call while filling the pool


class _CoverPlan(NamedTuple):
    """A cover arc's draws and levels, each level list oldest first."""
    index: int
    amp: float
    spans: list[tuple[float, float]]  # (s_lo, s_hi)
    sizes: list[int]  # stored samples
    tau_hi: list[float] | None  # the clock at s_hi
    draws: np.ndarray  # one row of uniforms per level


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
        arcs += self._cover_arcs(region, range(count - n_reach))
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
        return constant_memory_arc(v, self.spec.memory_size,
                                   depth=self.spec.memory_size + 0.5,
                                   grid_step=self._sim_options().step * 4)

    def _extend_pool(self, traj_index: int) -> None:
        rng = self._rng("reachable-traj", traj_index)
        opts = self._sim_options()
        init = self._random_history(rng)
        traj = simulate(self.spec, init, opts)
        self._pool_sims += 1
        tag = f"reachable:traj{traj_index}"
        delta = self.spec.memory_size
        clock = self.spec.meta.get("clock_index")
        period = self.spec.meta.get("period")
        # one cut for the jump windows and the first flow points, taken in
        # a deterministic pseudo-random order until 8 pass; more only if not
        points = [(t, j) for (t, j, _) in traj.sample_points()]
        order = [points[i] for i in rng.permutation(len(points)).tolist()]
        jumps = list(traj.jumps)
        windows = memory_windows(traj.arc, jumps + order[:_FLOW_CHUNK], delta)
        for nj, w in enumerate(windows[:len(jumps)]):
            self._pool_jump_windows.append((w, f"{tag}:jump{nj}"))
        windows, taken = windows[len(jumps):], 0
        for a in range(0, len(order), _FLOW_CHUNK):
            if a:
                windows = memory_windows(traj.arc, order[a:a + _FLOW_CHUNK], delta)
            for (t, j), w in zip(order[a:], windows):
                if clock is not None and not 0.0 <= float(w.head[clock]) <= 0.9 * period:
                    continue
                if self.spec.flow_guard(w) < -GUARD_TOL:
                    continue
                self._pool_flow_windows.append((w, f"{tag}:flow@({t:.6g},{j})"))
                taken += 1
                if taken >= 8:
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

    def _cover_arcs(self, region: str,
                    indices: Sequence[int]) -> list[tuple[HybridMemoryArc, str]]:
        """The cover arcs of ``region`` at ``indices``: each arc's draws from
        its own stream, then the grids, knots and spline values of a block
        of consecutive arcs (at most ``_STACK_ROWS`` stored samples) in one
        set of array passes."""
        out, block, rows = [], [], 0
        for index in indices:
            plan = self._cover_plan(region, index)
            size = sum(plan.sizes)
            if block and rows + size > _STACK_ROWS:
                out += self._cover_block(region, block)
                block, rows = [], 0
            block.append(plan)
            rows += size
        if block:
            out += self._cover_block(region, block)
        return out

    def _cover_plan(self, region: str, index: int) -> _CoverPlan:
        """One cover arc's draws, in the order the module docstring lists,
        and the levels they give.  Each uniform u on [lo, hi) is mapped as
        lo + (hi - lo) * u like Generator.uniform."""
        rng = self._rng("cover", region, index)
        clock = self.spec.meta.get("clock_index")
        period = self.spec.meta.get("period")
        delta = self.spec.memory_size
        # knot times, then knot values of each non-clock component
        per_segment = 3 + 5 * (self.spec.dimension - (clock is not None))
        lo, hi = AMPLITUDE

        if clock is not None:
            u = rng.random(4 if region in ("D", "Gplus") else 5).tolist()
            amp = lo + (hi - lo) * u[0]
            # u[1] is the target depth of an unclocked arc, unused here
            if region in ("D", "Gplus"):
                tau0 = period
            else:
                tau0 = 0.9 * period * u[2]
            # Clock-consistent histories reach depths in unit-gapped intervals
            # (one per backward jump level); sample the cut depth from the
            # intersection of those intervals with [delta, delta + 1].
            levels = [(0, 0.0, tau0)]
            while levels[-1][1] <= delta + 1.0:
                i, top, bot = levels[-1]
                levels.append((i + 1, bot + 1.0, bot + 1.0 + period))
            cands = []
            for i, top, bot in levels:
                d_lo, d_hi = max(top, delta), min(bot, delta + 1.0)
                if d_hi >= d_lo - 1e-12:
                    cands.append((i, d_lo, max(d_hi, d_lo)))
            # u[-2] is drawn, unused, to keep the stream's order: the widest
            # candidate is taken, the first of equally wide ones
            k_count, d_lo, d_hi = max(cands, key=lambda c: c[2] - c[1])
            depth_cut = d_lo + (d_hi - d_lo) * u[-1]
            bounds = [0.0] + [-tau0 - m * period for m in range(k_count)]
            bounds.append(-(depth_cut - k_count))
            draws = rng.random((k_count + 1) * per_segment)
            # slope-1 clock consistent with the jump placement
            tau_hi = [period] * k_count + [tau0]
        else:
            u = rng.random(2).tolist()
            amp = lo + (hi - lo) * u[0]
            depth_total = delta + (0.05 + (0.95 - 0.05) * u[1])  # in s + k
            max_jumps = min(max(SEGMENT_COUNTS), math.floor(depth_total))
            # each memory jump spends a unit of depth; the time left must
            # still hold the longest delay the flow and jump maps read
            reach = max(self.spec.meta.get("delays", ()), default=0.0)
            counts = [c for c in SEGMENT_COUNTS
                      if c <= max_jumps and depth_total - c >= reach] or [0]
            # integers read the stream unlike uniforms: kept as a choice
            k_count = int(rng.choice(counts))
            time_depth = depth_total - k_count
            draws = rng.random(k_count + (k_count + 1) * per_segment)
            cuts = sorted((-time_depth + time_depth * x
                           for x in draws[:k_count].tolist()), reverse=True)
            draws = draws[k_count:]
            bounds = [0.0] + cuts + [-time_depth]
            tau_hi = None

        # level i (newest first) holds np.linspace(s_lo, s_hi, m), or its
        # first sample alone if s_lo == s_hi
        grid = max((bounds[0] - bounds[-1]) / 60.0, 1e-4)
        spans = list(zip(bounds[:0:-1], bounds[-2::-1]))  # oldest first
        sizes = [1 if s_hi == s_lo else max(2, math.ceil((s_hi - s_lo) / grid) + 1)
                 for s_lo, s_hi in spans]
        return _CoverPlan(index, amp, spans, sizes, tau_hi,
                          draws.reshape(k_count + 1, per_segment)[::-1])

    def _cover_block(self, region: str,
                     block: list[_CoverPlan]) -> list[tuple[HybridMemoryArc, str]]:
        """The arcs of a block of cover plans, each level's grid, knots and
        spline values as np.linspace and np.interp give them, bit for bit."""
        n = self.spec.dimension
        clock = self.spec.meta.get("clock_index")
        free = [comp for comp in range(n) if comp != clock]
        s_lo, s_hi = np.array([s for plan in block for s in plan.spans]).T
        m = np.array([s for plan in block for s in plan.sizes])
        amp = np.repeat([plan.amp for plan in block],
                        [len(plan.sizes) for plan in block])
        u = np.concatenate([plan.draws for plan in block])
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
            tau = np.array([t for plan in block for t in plan.tau_hi])
            vals[:, clock] = tau[level] + (ts - s_hi[level])
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
        del j0, inner, exact, dt, dx  # before the arcs are built: a lower peak
        out, a = [], 0
        for plan in block:  # the checked constructor copies each arc's rows
            b = a + sum(plan.sizes)
            arc = HybridMemoryArc(ts[a:b], vals[a:b], [0, *accumulate(plan.sizes[:-1])],
                                  self.spec.memory_size)
            out.append((arc, f"cover:{region}{plan.index}"))
            a = b
        return out
