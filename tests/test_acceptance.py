"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hymem as hm
from hymem.builtin import (example1_razumikhin_certificate,
                           example2_krasovskii_certificate)
from hymem.certificates import (check_kl_envelope, check_krasovskii,
                                check_razumikhin, check_vbar_monotone)
from hymem.hybrid_time import (HybridArc, append_jump,
                               arc_from_csv, arc_to_csv, constant_memory_arc,
                               delta_inf, memory_window, validate_domain,
                               vbar)
from hymem.sampling import ArcSampler
from hymem.solver import SimOptions, Trajectory, simulate, verify_solution

CLI = [sys.executable, "-m", "hymem"]
# the subprocess imports this checkout's package, installed or not
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(hm.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def _line(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _const_history(spec, values, step=5e-3):
    return constant_memory_arc(np.asarray(values, dtype=float),
                               spec.memory_size,
                               depth=spec.memory_size + 0.5,
                               grid_step=step * 4)


def test_criterion_1_sampled_data_pipeline():
    """Certificate pipeline for the sampled-data example at stock values."""
    t_start = time.perf_counter()
    p = hm.Example1Params.paper()
    af = np.block([[p.A, p.B], [np.zeros((1, 3))]])
    ag = np.block([[np.eye(2), np.zeros((2, 1))], [p.K, np.zeros((1, 1))]])
    h = hm.expm(af * p.delta) @ ag
    sr = hm.spectral_radius(h)
    assert sr < 1.0

    p_mat = hm.solve_discrete_lyapunov(h)
    residual = np.linalg.norm(h.T @ p_mat @ h - p_mat + np.eye(3))
    assert residual <= 1e-10
    rho = hm.contraction_factor(h, p_mat)
    assert rho < 1.0

    spec, target = hm.build_example1(p)
    cert, info = example1_razumikhin_certificate(p)
    report = check_razumikhin(spec, cert, ArcSampler(spec, seed=0),
                              samples=10_000, target=target)
    elapsed = time.perf_counter() - t_start
    ok = report.passed and elapsed <= 60.0
    _line(1, ok, f"spectral radius {sr:.4f}, residual {residual:.2e}, "
                 f"rho {rho:.4f}, {len(report.violations)} violations over "
                 f"{report.checked} arcs, {elapsed:.1f}s")


def test_criterion_2_sampled_data_decay():
    """Qualitative decay: 20 random constant histories reach 1e-3 by t+j=30
    and the windowed maximum of V never increases."""
    p = hm.Example1Params.paper()
    spec, target = hm.build_example1(p)
    cert, _ = example1_razumikhin_certificate(p)
    opts = SimOptions(t_max=6.0, step=5e-3)
    rng_root = np.random.SeedSequence(20240)
    worst_tail = 0.0
    all_monotone = True
    for child in rng_root.spawn(20):
        rng = np.random.Generator(np.random.Philox(child))
        v = rng.normal(size=4)
        v[3] = 0.0
        v = v / np.linalg.norm(v) * rng.uniform(0.05, 1.0)
        v[3] = rng.uniform(0.0, 0.9 * p.delta)
        init = _const_history(spec, v)
        traj = simulate(spec, init, opts)
        tail = [target.dist(x) for t, j, x in traj.sample_points()
                if t + j >= 30.0]
        assert tail, "horizon did not reach t + j = 30"
        worst_tail = max(worst_tail, max(tail))
        vbar0 = vbar([memory_window(traj.arc, 0.0, 0, spec.memory_size)],
                     cert.v_batch)[0]
        rep = check_vbar_monotone(traj, cert.v_batch, tol=1e-6 * vbar0)
        all_monotone = all_monotone and rep.passed
    ok = worst_tail <= 1e-3 and all_monotone
    _line(2, ok, f"worst |x|_W beyond t+j=30 is {worst_tail:.2e}, "
                 f"windowed max monotone: {all_monotone}")


def test_criterion_3_delay_reset_cases():
    """Functional certificate for both stock delay-reset instances, decay
    from unit history, and the enlarged-period negative control."""
    results = []
    for params in (hm.Example2Params.case1(), hm.Example2Params.case2()):
        spec, target = hm.build_example2(params)
        cert, info = example2_krasovskii_certificate(params)
        assert info.feasible
        rep = check_krasovskii(spec, cert,
                               ArcSampler(spec, seed=0, mode="both"),
                               samples=10_000, target=target)
        results.append(rep.passed)

        # decay below 1e-3 by t + j = 50 from history identically one
        per_period = params.delta + 1.0
        t_max = 50.0 * params.delta / per_period + 2 * params.delta
        init = _const_history(spec, [1.0, 0.0], step=params.delta / 40)
        traj = simulate(spec, init,
                        SimOptions(t_max=t_max, step=params.delta / 40))
        tail = [target.dist(x) for t, j, x in traj.sample_points()
                if t + j >= 50.0]
        assert tail, "horizon did not reach t + j = 50"
        results.append(max(tail) <= 1e-3)

    # enlarge the period until rho >= e^(-sigma delta): jump condition breaks
    bad = hm.Example2Params(a=0.5, b=0.25, rho=0.5, r=0.05, delta=0.75,
                            sigma=2.0, mu=0.5)
    assert bad.rho >= np.exp(-bad.sigma * bad.delta)
    spec_b, target_b = hm.build_example2(bad)
    cert_b, _ = example2_krasovskii_certificate(bad)
    rep_b = check_krasovskii(spec_b, cert_b,
                             ArcSampler(spec_b, seed=0, mode="both"),
                             samples=2_000, target=target_b)
    has_jump_violation = any(v.condition == "krasovskii.iii"
                             for v in rep_b.violations)
    results.append(has_jump_violation)
    ok = all(results)
    _line(3, ok, f"case checks clean: {results[0] and results[2]}, decay ok: "
                 f"{results[1] and results[3]}, enlarged-period jump "
                 f"violations: {has_jump_violation}")


def test_criterion_4_solver_oracles():
    """Method-of-steps agreement and fourth-order step convergence."""
    from test_solver import method_of_steps_reference

    a, b, r = -1.0, 0.25, 0.1
    p = hm.Example2Params(a=a, b=b, rho=1.0, r=r, delta=5.0)  # jumps disabled
    spec, _ = hm.build_example2(p)
    init = _const_history(spec, [1.0, 0.0], step=1e-3)
    traj = simulate(spec, init, SimOptions(t_max=1.0, step=1e-3))
    ref = method_of_steps_reference(a, b, r, 1.0, 1.0)
    sup_err = max(abs(v[0] - ref(t)) for t, _, v in traj.sample_points())

    cfg = hm.LinearDelayConfig(dimension=1, memory_size=0.0,
                               a0=np.array([[-1.0]]))
    spec_d, _ = hm.build_linear_delay_system(cfg)
    errors = []
    for step in (0.04, 0.02, 0.01):
        init_d = constant_memory_arc(np.array([1.0]), 0.0, depth=0.0)
        t_d = simulate(spec_d, init_d, SimOptions(t_max=1.0, step=step))
        errors.append(max(abs(v[0] - np.exp(-t))
                          for t, _, v in t_d.sample_points()))
    ratios = [e0 / e1 for e0, e1 in zip(errors, errors[1:])]
    ratios_ok = all(12.0 <= rt <= 20.0 for rt in ratios)
    ok = sup_err <= 1e-6 and ratios_ok
    _line(4, ok, f"method-of-steps sup error {sup_err:.2e}, "
                 f"step-halving ratios {[f'{rt:.1f}' for rt in ratios]}")


def _random_valid_arc(rng):
    mem_depth = rng.uniform(0.05, 1.0)
    m = int(rng.integers(4, 10))
    times, values = [np.linspace(-mem_depth, 0.0, m)], [rng.normal(size=(m, 2))]
    t0 = 0.0
    for _ in range(int(rng.integers(1, 4))):
        span = rng.uniform(0.05, 0.8)
        k = int(rng.integers(3, 9))
        times.append(np.linspace(t0, t0 + span, k))
        values.append(rng.normal(size=(k, 2)))
        t0 += span
    starts = np.cumsum([0] + [len(t) for t in times[:-1]])
    return HybridArc(np.concatenate(times), np.concatenate(values), starts, 1)


def _brute_force_delta_inf(arc, t, j, delta, grid=1e-3):
    best = np.inf
    for s in arc.all_segments():
        if s.jump_index > j:
            continue
        hi = min(s.hi, t)
        if hi < s.lo:
            continue
        us = np.arange(s.lo, hi + grid, grid)
        us = np.minimum(us, hi)
        depths = -(us - t + s.jump_index - j)
        cand = depths[depths >= delta - 1e-12]
        if cand.size:
            best = min(best, float(np.min(cand)))
    return best


def test_criterion_5_semantics_invariants():
    """Randomized domain/arc invariants and solver self-consistency."""
    rng = np.random.default_rng(99)
    n_domain = 0
    for _ in range(1000):
        arc = _random_valid_arc(rng)
        assert validate_domain(arc) is None
        back = arc_from_csv(arc_to_csv(arc))
        for s_a, s_b in zip(arc.all_segments(), back.all_segments()):
            assert np.array_equal(s_a.times, s_b.times)
            assert np.array_equal(s_a.values, s_b.values)
        n_domain += 1

        last = arc.forward_segments[-1]
        t, j = float(rng.uniform(last.lo, last.hi)), last.jump_index
        mem_depth = -arc.memory_segments[0].lo
        delta = rng.uniform(0.0, mem_depth)
        w = memory_window(arc, t, j, delta)
        assert w.membership_violation() is None

        exact = delta_inf(arc, t, j, delta)
        approx = _brute_force_delta_inf(arc, t, j, delta)
        assert abs(exact - approx) <= 2e-3

        g = rng.normal(size=2)
        psi = append_jump(w, g)
        assert np.array_equal(psi.head, g)
        for seg in w.memory_segments:
            for ts, vs in zip(seg.times, seg.values):
                if ts + seg.jump_index - 1 < -w.delta - 1 - 1e-12:
                    continue
                a, b = psi.levels()[psi.n_memory + seg.jump_index - 2]
                i = a + int(np.searchsorted(psi.times[a:b], ts))
                assert i < b and psi.times[i] == ts and np.array_equal(psi.values[i], vs)

    # verify_solution on a batch of solver outputs
    verified = 0
    sim_cases = []
    for k in range(6):
        r = np.random.default_rng(1000 + k)
        v = np.concatenate([r.normal(size=3), [r.uniform(0, 0.18)]])
        sim_cases.append((hm.build_example1(hm.Example1Params.paper())[0], v))
    for k in range(6):
        r = np.random.default_rng(2000 + k)
        params = hm.Example2Params.case2() if k % 2 else hm.Example2Params.case1()
        spec2, _ = hm.build_example2(params)
        v = np.array([r.normal(), r.uniform(0, 0.9 * params.delta)])
        sim_cases.append((spec2, v))
    for spec_i, v in sim_cases:
        init = _const_history(spec_i, v)
        traj = simulate(spec_i, init, SimOptions(t_max=1.5, step=5e-3))
        rep = verify_solution(spec_i, traj)
        assert rep.passed, rep.issues[:2]
        verified += 1
    _line(5, True, f"{n_domain} randomized arcs, {verified} verified runs")


def test_criterion_6_negative_controls():
    """Constructed failures must all be detected (no false negatives)."""
    r = subprocess.run(CLI + ["check-razumikhin", "--system", "example1",
                              "--set", "K=[[0,0]]", "--samples", "600",
                              "--seed", "0"],
                       capture_output=True, text=True, env=ENV)
    open_loop_detected = r.returncode == 1

    p_open = hm.Example1Params(A=[[4.0, 1.0], [5.0, -3.0]],
                               B=[[-3.0], [-2.0]], K=[[0.0, 0.0]])
    spec_o, target_o = hm.build_example1(p_open)
    trajs = []
    for k in range(5):
        rg = np.random.default_rng(300 + k)
        v = rg.normal(size=4)
        v[3] = 0.0
        v = v / np.linalg.norm(v) * 0.7
        trajs.append(simulate(spec_o, _const_history(spec_o, v),
                              SimOptions(t_max=5.0, step=5e-3)))
    kl = check_kl_envelope(trajs, target_o, eps_grid=[1e-1], eta_grid=[1.0])
    attractivity_fails = not kl.attractive_ok

    p = hm.Example1Params.paper()
    spec, _ = hm.build_example1(p)
    traj = simulate(spec, _const_history(spec, [1.0, 1.0, 0.0, 0.0]),
                    SimOptions(t_max=1.0, step=5e-3))
    arc = traj.arc
    values = arc.values.copy()
    values[arc.levels()[arc.n_memory + 2][0]] += np.array([0.0, 0.2, 0.0, 0.0])
    forged = Trajectory(arc=HybridArc(arc.times, values, arc.starts, arc.n_memory,
                                      arc.derivs, arc.known),
                        termination=traj.termination,
                        memory_size=traj.memory_size)
    fault_flagged = not verify_solution(spec, forged).passed

    ok = open_loop_detected and attractivity_fails and fault_flagged
    _line(6, ok, f"open-loop exit 1: {open_loop_detected}, attractivity "
                 f"fails: {attractivity_fails}, forged jump flagged: "
                 f"{fault_flagged}")


def test_criterion_7_cli_determinism(tmp_path):
    """Identical seeds give byte-identical CSV and JSON for every command."""
    commands = [
        ["simulate", "--system", "example1", "--t-max", "2"],
        ["check-razumikhin", "--system", "example1", "--samples", "200",
         "--seed", "0"],
        ["check-halanay", "--system", "example1", "--samples", "200",
         "--seed", "0"],
        ["check-krasovskii", "--system", "example2", "--samples", "200",
         "--seed", "0", "--sampler-mode", "both"],
        ["check-kl", "--system", "example2", "--t-max", "4",
         "--trajectories", "5", "--seed", "0"],
    ]
    all_same = True
    for idx, cmd in enumerate(commands):
        payloads = []
        for run_i in (1, 2):
            rep = tmp_path / f"{idx}_{run_i}.json"
            args = CLI + cmd + ["--report", str(rep)]
            if cmd[0] == "simulate":
                args += ["--out", str(tmp_path / f"{idx}_{run_i}.csv"),
                         "--plot-out", str(tmp_path / f"{idx}_{run_i}_p.csv")]
            r = subprocess.run(args, capture_output=True, text=True, env=ENV)
            assert r.returncode in (0, 1), r.stderr
            assert rep.exists(), f"{cmd[0]} wrote no report: {r.stderr}"
            payload = rep.read_bytes()
            if cmd[0] == "simulate":
                payload += (tmp_path / f"{idx}_{run_i}.csv").read_bytes()
                payload += (tmp_path / f"{idx}_{run_i}_p.csv").read_bytes()
            payloads.append(payload)
        all_same = all_same and payloads[0] == payloads[1]
    _line(7, all_same, f"{len(commands)} commands, two runs each")
