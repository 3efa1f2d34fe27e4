"""The benchmark's workloads: seeded inputs, the timed body, gates and oracles.

Each workload is built from the benchmark seed alone; the library receives
only the generated inputs (a sampler seed, delay parameters, a history).
``run`` is the timed body.  ``gate`` and ``control`` run outside the timed
region and turn wrong outputs into failed operations; ``oracle_err`` compares
outputs with a closed form.  Library functions are always called through
their module attribute (``certificates.check_razumikhin``, not a local
alias) so the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zlib
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from hymem import builtin, certificates, hybrid_time, sampling, solver, system


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _digest(obj) -> str:
    if not isinstance(obj, str):
        obj = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(obj.encode()).hexdigest()


@dataclass
class Gate:
    """Operations attempted and failed by a check, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Gate", label: str) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += [f"{label}: {p}" for p in other.problems]


def _report_digest(report: certificates.CheckReport) -> str:
    return _digest(report.to_json_dict())


def _violating_arcs(report: certificates.CheckReport) -> int:
    return len({(v.region, v.index) for v in report.violations})


class RazumikhinReachable:
    """check_razumikhin on example1 (paper parameters, stock certificate) over
    arcs from the reachable sampler: the criterion-1 path, dominated by
    clocked delay-free simulate calls inside the sampler's pool."""

    name = "razumikhin-reachable"

    def __init__(self, seed: int, samples: int = 500, control_samples: int = 600,
                 oracle_arcs: int = 200):
        rng = _rng(seed, self.name)
        self.sampler_seed = int(rng.integers(2 ** 31))
        self.control_seed = int(rng.integers(2 ** 31))
        self.samples = samples
        self.control_samples = control_samples
        self.oracle_arcs = oracle_arcs
        self.params = system.Example1Params.paper()
        self.spec, self.target = system.build_example1(self.params)
        self.cert, _ = builtin.example1_razumikhin_certificate(self.params)

    def run(self, spec):
        sampler = sampling.ArcSampler(spec, seed=self.sampler_seed, mode="reachable")
        report = certificates.check_razumikhin(spec, self.cert, sampler,
                                               samples=self.samples,
                                               target=self.target)
        return report, sampler

    def digests(self, out) -> dict:
        return {"report": _report_digest(out[0])}

    def gate(self, out) -> Gate:
        report, _ = out
        bad = _violating_arcs(report)
        problems = [] if report.passed else [f"{bad} arcs violate the certificate"]
        return Gate(report.checked, bad, problems)

    def control(self) -> Gate:
        """Open loop (K = 0): the nominal certificate must be violated."""
        params = dataclasses.replace(self.params, K=[[0.0, 0.0]])
        spec, target = system.build_example1(params)
        cert, _ = builtin.example1_razumikhin_certificate(params)
        sampler = sampling.ArcSampler(spec, seed=self.control_seed, mode="reachable")
        report = certificates.check_razumikhin(spec, cert, sampler,
                                               samples=self.control_samples,
                                               target=target)
        if report.violations:
            return Gate(report.checked)
        return Gate(report.checked, report.checked,
                    ["negative control K=[[0,0]] reported no violation"])

    def oracle_err(self, out) -> float:
        """Mean relative error of a window's head against the exact flow
        expm(A_f s) from an earlier stored sample of the same window.

        The first sample of a window's newest segment may be interpolated at
        the depth cut, so the comparison starts from the second one.  The
        mean, not the maximum, because it repeats across seeds.
        """
        _, sampler = out
        p = self.params
        n1 = p.nz + p.m
        a_f = np.block([[p.A, p.B], [np.zeros((p.m, n1))]])
        errs = []
        for region in ("C", "D"):
            for s in sampler.sample(region, self.oracle_arcs):
                seg = s.arc.memory_segments[-1]
                if seg.jump_index != 0 or seg.times.shape[0] < 3:
                    continue
                x1 = seg.values[1, :n1]
                exact = scipy.linalg.expm(a_f * -seg.times[1]) @ x1
                errs.append(np.linalg.norm(seg.values[-1, :n1] - exact)
                            / np.linalg.norm(x1))
        return float(np.mean(errs))


class KrasovskiiCover:
    """check_krasovskii on example2 case2 over synthesized cover arcs: no
    simulate calls; the window maximum, flow_window and the functional's
    delayed integral carry the time."""

    name = "krasovskii-cover"

    def __init__(self, seed: int, samples: int = 800, control_samples: int = 500,
                 oracle_arcs: int = 2000):
        rng = _rng(seed, self.name)
        self.sampler_seed = int(rng.integers(2 ** 31))
        self.control_seed = int(rng.integers(2 ** 31))
        self.samples = samples
        self.control_samples = control_samples
        self.oracle_arcs = oracle_arcs
        self.params = system.Example2Params.case2()
        self.spec, self.target = system.build_example2(self.params)
        self.cert, _ = builtin.example2_krasovskii_certificate(self.params)

    def run(self, spec):
        sampler = sampling.ArcSampler(spec, seed=self.sampler_seed, mode="cover")
        report = certificates.check_krasovskii(spec, self.cert, sampler,
                                               samples=self.samples,
                                               target=self.target)
        return report, sampler

    def digests(self, out) -> dict:
        return {"report": _report_digest(out[0])}

    def gate(self, out) -> Gate:
        report, _ = out
        bad = _violating_arcs(report)
        skipped = int(report.meta.get("flow_arcs_skipped", 0))
        problems = []
        if bad:
            problems.append(f"{bad} arcs violate the certificate")
        if skipped:
            problems.append(f"{skipped} flow arcs skipped")
        return Gate(report.checked, bad + skipped, problems)

    def control(self) -> Gate:
        """Enlarged reset period (delta = 0.75): jumps must break (iii)."""
        params = dataclasses.replace(self.params, delta=0.75)
        spec, target = system.build_example2(params)
        cert, _ = builtin.example2_krasovskii_certificate(params)
        sampler = sampling.ArcSampler(spec, seed=self.control_seed, mode="cover")
        report = certificates.check_krasovskii(spec, cert, sampler,
                                               samples=self.control_samples,
                                               target=target)
        if any(v.condition == "krasovskii.iii" for v in report.violations):
            return Gate(report.checked)
        return Gate(report.checked, report.checked,
                    ["negative control delta=0.75 reported no krasovskii.iii"])

    def oracle_err(self, out) -> float:
        """Share of flow arcs on which the checker's condition-(ii)
        difference quotient misses the closed-form right derivative of the
        functional,

            e^(-sigma tau) (2 x (a x + b x_r) - sigma x^2) + mu (x^2 - x_r^2),

        by more than the checker's own derivative slack.

        It is a share, not a mean or a quantile of the errors.  The errors
        span six decades, because the quotient's error scales with the
        random history's slope at -r, and their mean or median moved by
        about 0.1 across seeds.  The share runs over more arcs than one check
        draws, and counts (misses + 1) / (arcs + 1) so that it never reads 0.
        """
        p = self.params
        h = 1e-5  # check_krasovskii's default step
        slack = certificates.derivative_slack(h)
        misses = arcs = 0
        for s in out[1].sample("C", self.oracle_arcs):
            x, tau = s.arc.head
            x_r = s.arc.delayed(-p.r)[0]
            exact = (np.exp(-p.sigma * tau) * (2 * x * (p.a * x + p.b * x_r)
                                               - p.sigma * x * x)
                     + p.mu * (x * x - x_r * x_r))
            try:
                quotient = certificates.dplus_v(self.spec, self.cert, s.arc, h)
            except solver.PreconditionError:
                continue
            arcs += 1
            misses += abs(quotient - exact) > slack
        return (misses + 1) / (arcs + 1)


class DelayHorizon:
    """One long jump-free simulation of dx = -k x(t - r) with k r = pi/2 from
    the history A cos(k s + phi), then verify_solution and a CSV round trip.
    The exact solution is A cos(k t + phi) on every horizon.  Appending to the
    history and delayed lookups carry the time; no sampler or certificate
    code runs."""

    name = "delay-horizon"
    step = 0.01
    oracle_tol = 0.015  # relative to |A|; about twice the error at t_max = 30

    def __init__(self, seed: int, t_max: float = 30.0):
        rng = _rng(seed, self.name)
        # The error of the delayed lookups depends on where t - r falls
        # between grid points, that is on r / step mod 1.  A narrow band of r
        # off the step grid keeps oracle_err comparable across seeds.
        self.r = float(rng.uniform(0.4319, 0.4321))
        self.amplitude = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        self.phase = float(rng.uniform(0.0, 2 * np.pi))
        self.k = np.pi / (2 * self.r)
        cfg, _ = system.parse_linear_delay_config({
            "dimension": 1, "memory_size": self.r,
            "flow": {"A0": [[0.0]],
                     "delayed": [{"delay": self.r, "A": [[-self.k]]}]},
        })
        self.spec, self.target = system.build_linear_delay_system(cfg)
        self.init = hybrid_time.memory_arc_from_function(
            self.exact, self.r, depth=self.r, grid_step=self.step)
        self.opts = solver.SimOptions(t_max=t_max, step=self.step)

    def exact(self, t):
        return np.atleast_1d(self.amplitude * np.cos(self.k * t + self.phase))

    def run(self, spec):
        traj = solver.simulate(spec, self.init, self.opts)
        check = solver.verify_solution(spec, traj)
        text = hybrid_time.arc_to_csv(traj.arc)
        back = hybrid_time.arc_from_csv(text)
        return traj, check, text, back

    def digests(self, out) -> dict:
        traj, _, text, _ = out
        return {"report": _digest(solver.run_summary(traj, self.target)),
                "csv": _digest(text)}

    def gate(self, out) -> Gate:
        traj, check, _, back = out
        problems = []
        if traj.termination is not solver.Termination.horizon_reached:
            problems.append(f"terminated with {traj.termination.value}")
        err = self.oracle_err(out)
        if not err < self.oracle_tol:
            problems.append(f"oracle error {err:.3e} >= {self.oracle_tol}")
        if check.issues:
            problems.append(f"verify_solution reported {len(check.issues)} issues")
        if not _same_arc(traj.arc, back):
            problems.append("CSV round trip is not bit-exact")
        return Gate(1, 1 if problems else 0, problems)

    def control(self) -> Gate:
        return Gate()

    def oracle_err(self, out) -> float:
        """Largest |x - A cos(k t + phi)| over the stored points, over |A|."""
        seg = out[0].arc.forward_segments[0]
        dev = np.abs(seg.values[:, 0] - self.exact(seg.times))
        return float(np.max(dev) / abs(self.amplitude))


def _same_arc(a: hybrid_time.HybridArc, b: hybrid_time.HybridArc) -> bool:
    def key(segs):
        return [(s.jump_index, s.times.tobytes(), s.values.tobytes()) for s in segs]
    return (key(a.memory_segments) == key(b.memory_segments)
            and key(a.forward_segments) == key(b.forward_segments))


WORKLOADS = {w.name: w for w in (RazumikhinReachable, KrasovskiiCover, DelayHorizon)}
