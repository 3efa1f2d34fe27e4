"""Sampling-based verification of Lyapunov stability certificates.

The pointwise certificates (threshold and Halanay form) and the functional
(Krasovskii) certificate state the same three hypotheses: (i) sandwich
bounds on the window, (ii) decrease along flows, (iii) decrease across
jumps.  One pipeline, :func:`_check`, draws flow, jump and post-jump arcs
from the sampler, evaluates (i) on all of them, (ii) on the flow arcs and
(iii) on the jump arcs, and records every evaluation; each checker only
supplies its certificate's values and its (ii) and (iii) terms.  The terms
take whole lists of arcs, so the functional, which maps a list of arcs to
an array, runs over all arcs for (i), over the flow windows of a block of
flow arcs for (ii) (:func:`~hymem.solver.flow_windows`) and over the
appended arcs of a block of jump candidates for (iii)
(:func:`~hymem.batch.append_jumps`).  The window maximum takes V or the
distance in array form.  Evaluations are still recorded in drawing order.

The checkers falsify, not prove: zero violations over a sample set is
evidence, a reported violation is a certified counterexample (re-evaluating
the witness reproduces it exactly).

Default slack: 1e-9 for algebraic conditions, 1e-7 + 10 h for conditions on
a derivative: h = ``DERIVATIVE_STEP`` (1e-5) for the functional form's
difference quotient, h = 0 for the pointwise forms' gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable, Iterable, Sequence

import numpy as np

from . import batch
from .batch import _blocks, append_jumps, memory_windows, sup_norm_w
from .hybrid_time import HybridMemoryArc
from .sampling import ArcSample, ArcSampler
from .solver import _FLOW_STEPS, PreconditionError, Trajectory, flow_windows
from .system import GUARD_TOL, SystemSpec, TargetSet

ALGEBRAIC_SLACK = 1e-9
DERIVATIVE_STEP = 1e-5  # the flow duration of check_krasovskii's quotients
OVERSHOOT_CAP = 100.0  # largest excursion over initial size a KL bundle may show
_VBAR_POINTS = 64  # windows that check_vbar_monotone holds at once


def derivative_slack(h: float) -> float:
    return 1e-7 + 10.0 * h


VALIDATION_GRID = np.logspace(-8.0, 8.0, 50)


class CertificateValidationError(ValueError):
    """A certificate failed its screening (before any sampling ran)."""


# ---------------------------------------------------------------------------
# Certificate containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RazumikhinCertificate:
    """Pointwise function V with threshold p and jump contraction rho.

    v acts on one state and serves only the head terms of (i) and (iii);
    grad_v maps one state to shape (n,), for (ii).  alpha1, alpha2 are
    class-K-infinity bounds, alpha3 is positive definite, p(r) > r and
    rho(r) < r for r > 0.  ``v_batch`` maps an (m, n) array of states to m
    values of V, for Vbar and for the gradient screen's differences
    (:func:`check_gradient`): row i must depend on row i alone, bit for
    bit, as :func:`~hymem.hybrid_time.sup_norm_w` evaluates many windows'
    rows in one call.
    """

    v: Callable[[np.ndarray], float]
    grad_v: Callable[[np.ndarray], np.ndarray]
    alpha1: Callable[[float], float]
    alpha2: Callable[[float], float]
    alpha3: Callable[[float], float]
    p: Callable[[float], float]
    rho: Callable[[float], float]
    v_batch: Callable[[np.ndarray], np.ndarray]
    name = "razumikhin"  # label of the report and its conditions


@dataclass(frozen=True)
class HalanayCertificate:
    """Linear-form variant: decay -mu V + q Vbar with mu > q > 0, jump
    contraction by a constant rho in (0, 1).  v (the head terms), grad_v
    and ``v_batch`` (Vbar and the gradient screen) are as in
    :class:`RazumikhinCertificate`."""

    v: Callable[[np.ndarray], float]
    grad_v: Callable[[np.ndarray], np.ndarray]
    alpha1: Callable[[float], float]
    alpha2: Callable[[float], float]
    mu: float
    q: float
    rho: float
    v_batch: Callable[[np.ndarray], np.ndarray]
    name = "halanay"


@dataclass(frozen=True)
class KrasovskiiCertificate:
    """Functional certificate: vf maps a sequence of memory arcs to the
    array of their values.

    Row i of its result must depend on arc i alone, bit for bit, whatever
    arcs come with it, since the check evaluates all arcs, flow windows and
    jump candidates in a few calls.  A functional written arc by arc takes
    this form as ``lambda phis: np.array([f(phi) for phi in phis])``.
    """

    vf: Callable[[Sequence[HybridMemoryArc]], np.ndarray]
    alpha1: Callable[[float], float]
    alpha2: Callable[[float], float]
    alpha3: Callable[[float], float]
    name = "krasovskii"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    condition: str
    region: str
    index: int
    origin: str
    lhs: float
    rhs: float
    margin: float  # rhs - lhs; a violation has margin < -slack, or NaN
    arc: HybridMemoryArc = field(repr=False, compare=False)
    aux: tuple = ()

    def to_json_dict(self) -> dict:
        return {"seed": self.origin, "condition": self.condition,
                "region": self.region, "index": self.index,
                "lhs": self.lhs, "rhs": self.rhs, "margin": self.margin}


@dataclass(frozen=True)
class CheckReport:
    certificate: str
    checked: int
    conditions_evaluated: int
    violations: tuple[Violation, ...]
    worst_margin: float
    slack_algebraic: float
    slack_derivative: float
    region_counts: dict
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "certificate": self.certificate,
            "samples": self.checked,
            "conditions_evaluated": self.conditions_evaluated,
            "violations": [v.to_json_dict() for v in self.violations],
            "worst_margin": self.worst_margin,
            "slack": {"algebraic": self.slack_algebraic,
                      "derivative": self.slack_derivative},
            "region_counts": dict(sorted(self.region_counts.items())),
            "meta": {k: v for k, v in sorted(self.meta.items())
                     if isinstance(v, (int, float, str, bool))},
            "elapsed": None,
        }


class _Recorder:
    """Accumulates condition evaluations and violations.  A NaN margin is
    a violation, and makes the worst margin NaN; a margin of -inf is the
    worst margin as it is."""

    def __init__(self, slack_alg: float, slack_der: float):
        self.slack_alg = slack_alg
        self.slack_der = slack_der
        self.violations: list[Violation] = []
        self.worst = np.inf
        self.evaluated = 0

    def record(self, condition: str, sample: ArcSample, lhs: float, rhs: float,
               algebraic: bool, aux: tuple = ()) -> None:
        slack = self.slack_alg if algebraic else self.slack_der
        margin = rhs - lhs
        self.evaluated += 1
        # min keeps a NaN it starts from, but not one that comes second
        self.worst = margin if math.isnan(margin) else min(self.worst, margin)
        if not margin >= -slack:
            self.violations.append(Violation(
                condition=condition, region=sample.region, index=sample.index,
                origin=sample.origin, lhs=float(lhs), rhs=float(rhs),
                margin=float(margin), arc=sample.arc, aux=aux))

    def report(self, name: str, checked: int, counts: dict,
               meta: dict) -> CheckReport:
        return CheckReport(
            certificate=name, checked=checked, conditions_evaluated=self.evaluated,
            violations=tuple(self.violations),
            # +inf: nothing was evaluated, or every margin was +inf
            worst_margin=0.0 if self.worst == np.inf else float(self.worst),
            slack_algebraic=self.slack_alg, slack_derivative=self.slack_der,
            region_counts=counts, meta=meta)


# ---------------------------------------------------------------------------
# Screening
# ---------------------------------------------------------------------------

def _screen_comparison_functions(alpha1, alpha2, name: str) -> None:
    g = VALIDATION_GRID
    a1 = np.array([alpha1(float(r)) for r in g])
    a2 = np.array([alpha2(float(r)) for r in g])
    for label, vals in (("alpha1", a1), ("alpha2", a2)):
        if np.any(~np.isfinite(vals)) or np.any(vals < 0):
            raise CertificateValidationError(f"{name}: {label} must be finite "
                                             "and nonnegative on the grid")
        if np.any(np.diff(vals) <= 0):
            raise CertificateValidationError(f"{name}: {label} must be strictly "
                                             "increasing on the validation grid")
    if np.any(a1 > a2):
        raise CertificateValidationError(f"{name}: alpha1 must not exceed alpha2")


def _screen_alpha3(alpha3, name: str) -> None:
    vals = np.array([alpha3(float(r)) for r in VALIDATION_GRID])
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        raise CertificateValidationError(
            f"{name}: alpha3 must be positive for positive arguments")


def validate_razumikhin(cert: RazumikhinCertificate) -> None:
    _screen_comparison_functions(cert.alpha1, cert.alpha2, cert.name)
    _screen_alpha3(cert.alpha3, cert.name)
    for r in VALIDATION_GRID:
        if not cert.p(float(r)) > r:
            raise CertificateValidationError(
                f"{cert.name}: threshold p(r) > r fails at r = {r:.3e}")
        if not cert.rho(float(r)) < r:
            raise CertificateValidationError(
                f"{cert.name}: contraction rho(r) < r fails at r = {r:.3e}")


def validate_halanay(cert: HalanayCertificate) -> None:
    _screen_comparison_functions(cert.alpha1, cert.alpha2, cert.name)
    if not (cert.mu > cert.q > 0):
        raise CertificateValidationError(
            f"{cert.name}: needs mu > q > 0, got mu={cert.mu}, q={cert.q}")
    if not (0 < cert.rho < 1):
        raise CertificateValidationError(
            f"{cert.name}: needs 0 < rho < 1, got rho={cert.rho}")


def validate_krasovskii(cert: KrasovskiiCertificate) -> None:
    _screen_comparison_functions(cert.alpha1, cert.alpha2, cert.name)
    _screen_alpha3(cert.alpha3, cert.name)


def check_gradient(cert, points: np.ndarray) -> None:
    """Reject the certificate when grad_v disagrees with central finite
    differences of V beyond 1e-6 (norm-relative), or either is NaN, at any
    supplied point; the first such point is named.

    The differences take ``v_batch`` at the 2n states x +- step_i e_i,
    step_i = 1e-6 max(1, |x_i|), of a block of points at a time, at most
    ``batch._BLOCK_SAMPLES`` states a block (or one point's).  grad_v, the
    map screened, is called once per point.  A grad_v result of another
    shape than (n,), or a v_batch without one value per row, is refused.
    """
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        return
    n = points.shape[1]
    diag = np.arange(n)
    size = max(1, batch._BLOCK_SAMPLES // (2 * n))
    for lo in range(0, len(points), size):
        xs = points[lo:lo + size]
        g = np.empty_like(xs)
        for r, x in enumerate(xs):
            g[r] = _shaped(cert, "grad_v", cert.grad_v(x), (n,))
        steps = 1e-6 * np.maximum(1.0, np.abs(xs))
        rows = np.repeat(xs, 2 * n, axis=0).reshape(-1, 2, n, n)
        rows[:, 0, diag, diag] += steps  # row (r, 0, i) is x_r + step e_i
        rows[:, 1, diag, diag] -= steps
        vals = _shaped(cert, "v_batch", cert.v_batch(rows.reshape(-1, n)),
                       (rows.size // n,)).reshape(-1, 2, n)
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN gap, refused
            fd = (vals[:, 0] - vals[:, 1]) / (2 * steps)
            gap = np.linalg.norm(fd - g, axis=1)
        scale = np.linalg.norm([g, fd], axis=2).max(axis=0, initial=1.0)
        bad = np.flatnonzero(~(gap <= 1e-6 * scale))
        if bad.size:
            raise CertificateValidationError(
                f"{cert.name}: grad_v disagrees with finite differences at "
                f"x={xs[bad[0]].tolist()} (|diff|={gap[bad[0]]:.3e})")


def _shaped(cert, label: str, result, shape: tuple) -> np.ndarray:
    out = np.asarray(result, dtype=float)
    if out.shape != shape:
        raise CertificateValidationError(
            f"{cert.name}: {label} must return shape {shape}, got {out.shape}")
    return out


def _split_counts(total: int) -> tuple[int, int, int]:
    n_c = max(1, int(round(total * 0.4)))
    n_d = min(max(1, int(round(total * 0.3))), total - n_c)
    n_g = max(0, total - n_c - n_d)
    return n_c, n_d, n_g


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def _check(cert, sampler: ArcSampler, slack: float | None, samples: int,
           target: TargetSet, h: float,
           values: Callable[[list[HybridMemoryArc]], Sequence[float]],
           window: Callable[[np.ndarray], np.ndarray], upper_is_window: bool,
           flow: Callable[[list[ArcSample], list[tuple]], Iterable[Iterable[tuple]]],
           jump: Callable[[list[ArcSample], list[tuple]], Iterable[Iterable[tuple]]],
           meta: dict) -> CheckReport:
    """The pipeline of every checker; a certificate form supplies its terms.

    Draws C, D and post-jump arcs and records, in this order: (i) on every
    arc, alpha1(|head|_W) <= value(phi) <= alpha2(U), where U is the window
    maximum when upper_is_window holds and |head|_W otherwise; (ii) on every
    flow arc, each (lhs, rhs, aux) that flow yields for it as lhs <= rhs;
    (iii) on every jump arc, each triple that jump yields for it.  The terms
    take whole lists: ``values`` maps the arcs to their values, and
    ``flow`` and ``jump`` map the flow (jump) arcs and their (value,
    |head|_W, window maximum) triples to one iterable of triples per arc.
    ``window`` is the array form whose maximum :func:`sup_norm_w` takes, in
    one call for the whole check: over every arc when (i) reads it, over
    the flow and jump arcs otherwise.  Every arc's value and head
    distance are computed once, in (i).  A certificate with a gradient has
    it screened against central differences of its ``v_batch`` at up to
    1000 flow and jump heads, in array blocks (:func:`check_gradient`),
    before anything is recorded.  h sets the default derivative slack;
    meta joins the report's meta when the run ends, so the terms may
    update it.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if slack is not None and not np.isfinite(slack):
        raise ValueError(f"slack must be finite, got {slack}")
    rec = _Recorder(slack if slack is not None else ALGEBRAIC_SLACK,
                    slack if slack is not None else derivative_slack(h))
    # without a jump set the sampler draws no D or G+ arc: C takes them all
    n_c, n_d, n_g = (_split_counts(samples) if sampler.region_supported("D")
                     else (samples, 0, 0))
    c_arcs = sampler.sample("C", n_c)
    d_arcs = sampler.sample("D", n_d)
    g_arcs = sampler.sample("Gplus", n_g)
    if hasattr(cert, "grad_v"):
        check_gradient(cert, np.array([s.arc.head
                                       for s in (c_arcs + d_arcs)[:1000]]))

    arcs = c_arcs + d_arcs + g_arcs
    maxima = sup_norm_w([s.arc for s in (arcs if upper_is_window
                                         else c_arcs + d_arcs)], window).tolist()
    terms = []  # (value, |head|_W, window maximum) of every arc, in drawing order
    for s, val, wm in zip_longest(arcs, values([s.arc for s in arcs]), maxima):
        dw = float(target.dist(s.arc.head))
        rec.record(f"{cert.name}.i.lower", s, cert.alpha1(dw), val, True)
        rec.record(f"{cert.name}.i.upper", s, val,
                   cert.alpha2(wm if upper_is_window else dw), True)
        terms.append((val, dw, wm))

    n_cd = len(c_arcs) + len(d_arcs)
    for s, rows in zip(c_arcs, flow(c_arcs, terms[:len(c_arcs)])):
        for lhs, rhs, aux in rows:
            rec.record(f"{cert.name}.ii", s, lhs, rhs, False, aux)

    for s, rows in zip(d_arcs, jump(d_arcs, terms[len(c_arcs):n_cd])):
        for lhs, rhs, aux in rows:
            rec.record(f"{cert.name}.iii", s, lhs, rhs, True, aux)

    counts = {"C": len(c_arcs), "D": len(d_arcs), "Gplus": len(g_arcs)}
    return rec.report(cert.name, sum(counts.values()), counts,
                      meta={"sampler_mode": sampler.mode, "seed": sampler.seed,
                            **meta})


def _check_pointwise(spec: SystemSpec, cert, sampler: ArcSampler,
                     slack: float | None, samples: int, target: TargetSet,
                     premise: Callable[[float, float], bool],
                     flow_rhs: Callable[[float, float], float],
                     jump_rhs: Callable[[float], float]) -> CheckReport:
    """The pointwise forms' terms for :func:`_check`.

    (i) sandwich at the window head; (ii) on a flow arc whose premise(V,
    Vbar) holds, grad V . f <= flow_rhs(V, Vbar) for the flow selection f,
    recorded with the aux ("flow_candidate", 0); (iii) V(g) <= jump_rhs(Vbar)
    for every jump candidate g.
    """
    def flow(s: ArcSample, vh: float, dw: float, vb: float):
        if not premise(vh, vb):
            return  # no decay required here
        grad = np.asarray(cert.grad_v(s.arc.head), dtype=float)
        f = np.asarray(spec.flow_selection(s.arc), dtype=float)
        yield float(grad @ f), flow_rhs(vh, vb), ("flow_candidate", 0)

    def jump(s: ArcSample, vh: float, dw: float, vb: float):
        for gi, g in enumerate(spec.jump_selections(s.arc)):
            yield float(cert.v(np.asarray(g))), jump_rhs(vb), ("jump_candidate", gi)

    def each(term):  # the per-arc generators, one per arc, run as recorded
        return lambda arcs, terms: (term(s, *t) for s, t in zip(arcs, terms))

    return _check(cert, sampler, slack, samples, target, 0.0,
                  values=lambda arcs: [float(cert.v(arc.head)) for arc in arcs],
                  window=cert.v_batch, upper_is_window=False,
                  flow=each(flow), jump=each(jump), meta={})


def check_razumikhin(spec: SystemSpec, cert: RazumikhinCertificate,
                     sampler: ArcSampler, slack: float | None = None,
                     samples: int = 1000, *, target: TargetSet) -> CheckReport:
    """Evaluate the threshold certificate's three conditions on sampled arcs.

    (i) sandwich at the window head on C, D and post-jump arcs; (ii) when
    the threshold premise p(V) >= Vbar holds on a flow arc, the flow
    selection must descend at rate alpha3(V); (iii) every jump candidate
    must contract below rho(Vbar).
    """
    validate_razumikhin(cert)
    return _check_pointwise(
        spec, cert, sampler, slack, samples, target,
        premise=lambda vh, vb: not cert.p(vh) < vb,
        flow_rhs=lambda vh, vb: -cert.alpha3(vh),
        jump_rhs=cert.rho)


def check_halanay(spec: SystemSpec, cert: HalanayCertificate,
                  sampler: ArcSampler, slack: float | None = None,
                  samples: int = 1000, *, target: TargetSet) -> CheckReport:
    """Linear-form conditions: (ii) grad V . f <= -mu V + q Vbar on all flow
    arcs, (iii) V(g) <= rho Vbar on all jump arcs; sandwich as in the
    threshold check."""
    validate_halanay(cert)
    return _check_pointwise(
        spec, cert, sampler, slack, samples, target,
        premise=lambda vh, vb: True,
        flow_rhs=lambda vh, vb: -cert.mu * vh + cert.q * vb,
        jump_rhs=lambda vb: cert.rho * vb)


def _quotients(spec: SystemSpec, functional: Callable,
               phis: Sequence[HybridMemoryArc], h: float,
               bases: Sequence[float]) -> list[float | None]:
    """(Vf(flow window of phi over h) - base) / h for each arc phi of phis
    and its base Vf(phi), a block of arcs at once.

    An arc whose window leaves the flow set retries at h/2 with the others
    that did, up to 30 halvings; None where no step keeps it inside, or phi
    is not in the flow set.
    """
    out: list[float | None] = [None] * len(phis)
    todo = [i for i, phi in enumerate(phis) if spec.flow_guard(phi) >= -GUARD_TOL]
    for _ in range(30):
        if not todo:
            break
        retry = []
        # one block of windows at a time; a window's store adds the head and
        # flow_windows' steps to its arc's samples
        for lo, hi in _blocks([phis[i] for i in todo], _FLOW_STEPS + 1):
            rows = todo[lo:hi]
            windows = flow_windows(spec, [phis[i] for i in rows], h)
            inside = [spec.flow_guard(w) >= -GUARD_TOL for w in windows]
            done = [i for i, ok in zip(rows, inside) if ok]
            if done:
                kept = [w for w, ok in zip(windows, inside) if ok]
                for i, v in zip(done, functional(kept).tolist()):
                    out[i] = (v - bases[i]) / h
            retry += [i for i, ok in zip(rows, inside) if not ok]
        todo = retry
        h *= 0.5
    return out


def dplus_v(spec: SystemSpec, cert: KrasovskiiCertificate,
            phi: HybridMemoryArc, h: float) -> float:
    """Finite-difference upper right-hand derivative of the functional at phi
    along the selected flow (exact for single-valued flow maps as h -> 0+).

    Halves h while the flow would leave the flow set within h; raises
    PreconditionError when phi is not in the flow set or no positive
    duration keeps its flow inside, and ValueError on a batch map left over
    from another flow selection.  The check evaluates it for all its flow
    arcs at once; this is the one-arc case.
    """
    d = _quotients(spec, cert.vf, [phi], h, cert.vf([phi]).tolist())[0]
    if d is None:
        if spec.flow_guard(phi) < -GUARD_TOL:
            raise PreconditionError("window is not in the flow set")
        raise PreconditionError("flow leaves the flow set immediately; the "
                                "functional derivative is undefined here")
    return d


def check_krasovskii(spec: SystemSpec, cert: KrasovskiiCertificate,
                     sampler: ArcSampler, slack: float | None = None,
                     samples: int = 1000, *, target: TargetSet) -> CheckReport:
    """Functional certificate conditions on sampled arcs.

    (i) alpha1(|head|_W) <= Vf(phi) <= alpha2(sup-norm); (ii) the difference
    quotient over a flow of h = ``DERIVATIVE_STEP`` (the report's
    ``meta.h``) descends at rate alpha3(|head|_W) on flow arcs; (iii)
    appending any jump value decreases Vf by alpha3(|head|_W).  The flow
    selection's norm on the flow arcs is reported as ``meta.flow_bound_observed``
    (local boundedness).  A batch map left over from another flow selection
    raises ValueError (:func:`~hymem.solver.flow_windows`).

    The functional runs on lists of arcs: one call for the arcs of (i), and
    for (ii) and (iii) one per block of the flow windows (a block of flow
    arcs flows at once, and those whose window leaves the flow set retry at
    h/2) and of the jump candidates' appended arcs, so that one block's
    windows exist at a time.  The window norm of (i) is the target's
    ``dist_batch`` maximised over each arc.
    """
    validate_krasovskii(cert)
    h = DERIVATIVE_STEP
    meta = {"flow_bound_observed": 0.0, "flow_arcs_skipped": 0, "h": h}

    def flow(samples: list[ArcSample], terms: list[tuple]):
        for s in samples:
            meta["flow_bound_observed"] = max(
                meta["flow_bound_observed"],
                float(np.linalg.norm(spec.flow_selection(s.arc))))
        quotients = _quotients(spec, cert.vf, [s.arc for s in samples], h,
                               [vf for vf, _, _ in terms])
        meta["flow_arcs_skipped"] += quotients.count(None)
        return [() if d is None else ((d, -cert.alpha3(dw), ()),)
                for d, (_, dw, _) in zip(quotients, terms)]

    def jump(samples: list[ArcSample], terms: list[tuple]):
        cands = [(i, gi, np.asarray(g, dtype=float)) for i, s in enumerate(samples)
                 for gi, g in enumerate(spec.jump_selections(s.arc))]
        arcs, lhs = [samples[i].arc for i, _, _ in cands], []
        for lo, hi in _blocks(arcs, 1):  # one block's appended arcs at a time
            lhs += cert.vf(append_jumps(
                arcs[lo:hi], [g for _, _, g in cands[lo:hi]])).tolist()
        rows: list[list[tuple]] = [[] for _ in samples]
        for (i, gi, _), v in zip(cands, lhs):
            vf, dw, _ = terms[i]
            rows[i].append((v - vf, -cert.alpha3(dw), ("jump_candidate", gi)))
        return rows

    return _check(cert, sampler, slack, samples, target, h,
                  values=lambda arcs: cert.vf(arcs).tolist(),
                  window=target.dist_batch, upper_is_window=True,
                  flow=flow, jump=jump, meta=meta)


# ---------------------------------------------------------------------------
# Trajectory-level conclusions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VbarMonotoneReport:
    passed: bool
    first_violation: tuple[float, int, float, float] | None  # t, j, prev, cur
    initial_value: float
    final_value: float
    points: int


def check_vbar_monotone(traj: Trajectory, v: Callable[[np.ndarray], np.ndarray],
                        tol: float) -> VbarMonotoneReport:
    """The maximum of V over the window of the trajectory's memory size must
    be non-increasing along the trajectory, up to tol.  v is V's array form,
    (m, n) states to m values, as a certificate's ``v_batch``.  The windows
    are cut and maximised ``_VBAR_POINTS`` points at a time."""
    points = [(t, j) for t, j, _ in traj.sample_points()]
    maxima = np.concatenate([sup_norm_w(memory_windows(
        traj.arc, points[i:i + _VBAR_POINTS], traj.memory_size), v)
        for i in range(0, len(points), _VBAR_POINTS)]).tolist()
    first = next(((t, j, prev, cur) for (t, j), prev, cur
                  in zip(points[1:], maxima, maxima[1:]) if cur > prev + tol), None)
    return VbarMonotoneReport(passed=first is None, first_violation=first,
                              initial_value=maxima[0], final_value=maxima[-1],
                              points=len(points))


@dataclass(frozen=True)
class KLEnvelopeReport:
    bounded_ok: bool
    attractive_ok: bool
    gamma_table: tuple[tuple[float, float], ...]          # (eta, sup bound)
    time_table: tuple[tuple[float, float, float | None], ...]  # (eps, eta, T)
    overshoot_cap: float
    trajectories: int

    @property
    def passed(self) -> bool:
        return self.bounded_ok and self.attractive_ok

    def to_json_dict(self) -> dict:
        return {
            "bounded_ok": self.bounded_ok,
            "attractive_ok": self.attractive_ok,
            "gamma_table": [list(row) for row in self.gamma_table],
            "time_table": [list(row) for row in self.time_table],
            "overshoot_cap": self.overshoot_cap,
            "trajectories": self.trajectories,
            "elapsed": None,
        }


def _settling_time(tj: np.ndarray, dist: np.ndarray, eps: float) -> float | None:
    """The t + j after which dist stays at most eps: 0.0 if it never
    exceeds eps, None if its last sample does.  A NaN distance counts as
    above eps."""
    above = np.flatnonzero(~(dist <= eps))
    if above.size == 0:
        return 0.0
    if above[-1] == dist.size - 1:
        return None
    return float(tj[above[-1] + 1])


def check_kl_envelope(trajectories: Sequence[Trajectory], target: TargetSet,
                      eps_grid: Sequence[float], eta_grid: Sequence[float]
                      ) -> KLEnvelopeReport:
    """Empirical uniform boundedness and uniform attractivity over a bundle.

    Boundedness: within each initial-size bucket eta, the largest excursion
    must stay below OVERSHOOT_CAP * eta.  Attractivity: for every grid pair
    (eps, eta) a single time T(eps, eta) must exist by which every bucket
    trajectory's distance has permanently dropped below eps; T is measured
    in t + j and must lie within the simulated horizon.  A NaN distance
    is neither bounded nor settled: it makes its buckets' bound NaN and
    fails both.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    mem = {round(t.memory_size, 12) for t in trajectories}
    dims = {t.arc.dimension for t in trajectories}
    if len(mem) > 1 or len(dims) > 1:
        raise ValueError("trajectories come from mismatched systems")

    etas = sup_norm_w([t.arc.memory_side(t.memory_size) for t in trajectories],
                      target.dist_batch)
    sups, curves = [], []
    for traj in trajectories:
        tj, dist = np.array([(t + j, target.dist(x))
                             for t, j, x in traj.sample_points()]).T
        sups.append(float(np.max(dist)))
        curves.append((tj, dist))

    gamma_rows, buckets = [], []  # buckets: each eta with its members
    bounded_ok = True
    for eta in sorted(eta_grid):
        members = np.flatnonzero(etas <= eta + 1e-12)
        if members.size == 0:
            continue
        gamma = float(np.max([sups[i] for i in members]))  # NaN if any is
        gamma_rows.append((float(eta), gamma))
        buckets.append((float(eta), members))
        if not gamma <= OVERSHOOT_CAP * max(eta, 1e-9):
            bounded_ok = False

    time_rows = []
    for eps in sorted(eps_grid):
        settled = [_settling_time(tj, dist, eps) for tj, dist in curves]
        for eta, members in buckets:
            times = [settled[i] for i in members]
            worst_T = None if None in times else max(times)
            time_rows.append((float(eps), eta, worst_T))
    attractive_ok = all(worst_T is not None for _, _, worst_T in time_rows)

    return KLEnvelopeReport(
        bounded_ok=bounded_ok, attractive_ok=attractive_ok,
        gamma_table=tuple(gamma_rows), time_table=tuple(time_rows),
        overshoot_cap=OVERSHOOT_CAP, trajectories=len(trajectories))
