"""Certificate screening, the functional derivative, checkers, and the
trajectory-level conclusion checks."""

import cmath
import dataclasses
import json
import math
import re
from collections import Counter

import numpy as np
import pytest

from hymem import builtin, certificates
from hymem.batch import append_jumps
from hymem.builtin import (example1_halanay_certificate,
                           example1_razumikhin_certificate,
                           example2_krasovskii_certificate)
from hymem.certificates import (CertificateValidationError, HalanayCertificate,
                                KrasovskiiCertificate, RazumikhinCertificate,
                                check_gradient, check_halanay,
                                check_kl_envelope, check_krasovskii,
                                check_razumikhin, check_vbar_monotone, dplus_v,
                                validate_halanay, validate_razumikhin)
from hymem.hybrid_time import (HybridMemoryArc, constant_memory_arc,
                               delayed_sq_integral, sup_norm_w)
from hymem.sampling import ArcSampler
from hymem.solver import (PreconditionError, SimOptions, flow_window,
                          flow_windows, simulate)
from hymem.system import (GUARD_TOL, Example1Params, Example2Params,
                          LinearDelayConfig, SystemSpec, TargetSet,
                          build_example1, build_example2,
                          build_linear_delay_system, origin_target)


def row_loop(v):
    """The array form of a V written for one state: v row by row."""
    return lambda arr: np.array([v(x) for x in arr])


def arc_by_arc(vf):
    """The list form of a functional written for one arc: vf arc by arc."""
    return lambda phis: np.array([vf(phi) for phi in phis])


def square(x):
    return float(x @ x)


def quadratic_razumikhin(rho=0.5, alpha3=None):
    return RazumikhinCertificate(
        v=square,
        grad_v=lambda x: 2.0 * x,
        alpha1=lambda s: 0.5 * s * s,
        alpha2=lambda s: 2.0 * s * s,
        alpha3=alpha3 if alpha3 is not None else (lambda s: 0.1 * s),
        p=lambda r: 2.0 * r,
        rho=lambda r: rho * r,
        v_batch=row_loop(square),
    )


def quadratic_halanay():
    return HalanayCertificate(
        v=square, grad_v=lambda x: 2.0 * x,
        alpha1=lambda s: 0.5 * s * s, alpha2=lambda s: 2.0 * s * s,
        mu=2.0, q=1.0, rho=0.5, v_batch=row_loop(square))


class TestScreening:
    def test_non_contractive_rho_rejected_before_sampling(self):
        cert = quadratic_razumikhin(rho=1.0)
        with pytest.raises(CertificateValidationError, match="rho"):
            validate_razumikhin(cert)

    def test_threshold_must_exceed_identity(self):
        cert = dataclasses.replace(quadratic_razumikhin(), p=lambda r: r)
        with pytest.raises(CertificateValidationError, match="p\\(r\\)"):
            validate_razumikhin(cert)

    def test_halanay_needs_mu_above_q(self):
        cert = dataclasses.replace(quadratic_halanay(), mu=1.0)
        with pytest.raises(CertificateValidationError, match="mu > q"):
            validate_halanay(cert)

    def test_alpha_order_enforced(self):
        bad = dataclasses.replace(quadratic_razumikhin(),
                                  alpha1=lambda s: 3.0 * s * s)
        with pytest.raises(CertificateValidationError, match="alpha1"):
            validate_razumikhin(bad)

    def test_wrong_gradient_rejected(self):
        cert = dataclasses.replace(quadratic_razumikhin(),
                                   grad_v=lambda x: 3.0 * x)
        pts = np.random.default_rng(0).normal(size=(20, 3))
        with pytest.raises(CertificateValidationError, match="grad"):
            check_gradient(cert, pts)

    def test_correct_gradient_accepted(self):
        cert = quadratic_razumikhin()
        pts = np.random.default_rng(0).normal(size=(1000, 3))
        check_gradient(cert, pts)

    def test_nan_gradient_gap_rejected(self):
        cert = dataclasses.replace(quadratic_razumikhin(),
                                   grad_v=lambda x: np.full(3, np.nan))
        with pytest.raises(CertificateValidationError, match="grad"):
            check_gradient(cert, np.ones((1, 3)))

    def test_nan_certificate_fails_the_check(self):
        # a V whose array form is NaN everywhere has a NaN finite difference
        p = Example1Params.paper()
        spec, target = build_example1(p)
        stock, _ = example1_razumikhin_certificate(p)
        cert = dataclasses.replace(stock, v_batch=lambda arr: np.full(len(arr), np.nan))
        with pytest.raises(CertificateValidationError, match="grad"):
            check_razumikhin(spec, cert, ArcSampler(spec, seed=0, mode="cover"),
                             samples=100, target=target)

    def test_nan_scalar_v_makes_nan_head_margins(self):
        # the screen differences v_batch; a NaN v reaches the head terms
        p = Example1Params.paper()
        spec, target = build_example1(p)
        stock, _ = example1_razumikhin_certificate(p)
        cert = dataclasses.replace(stock, v=lambda x: float("nan"))
        rep = check_razumikhin(spec, cert, ArcSampler(spec, seed=0, mode="cover"),
                               samples=100, target=target)
        heads = [v for v in rep.violations if ".i." in v.condition]
        assert len(heads) == 2 * rep.checked == 200
        assert all(math.isnan(v.margin) for v in heads)
        assert not rep.passed and math.isnan(rep.worst_margin)

    def test_minus_infinite_v_batch_fails_the_screen(self):
        # -inf - (-inf) is NaN
        p = Example1Params.paper()
        spec, target = build_example1(p)
        stock, _ = example1_halanay_certificate(p)
        cert = dataclasses.replace(stock, v_batch=lambda arr: np.full(len(arr), -np.inf))
        with pytest.raises(CertificateValidationError, match="grad"):
            check_halanay(spec, cert, ArcSampler(spec, seed=0, mode="cover"),
                          samples=100, target=target)

    @pytest.mark.parametrize("size", [2, 4])
    def test_gradient_of_another_shape_rejected(self, size):
        cert = dataclasses.replace(quadratic_razumikhin(),
                                   grad_v=lambda x: np.ones(size))
        with pytest.raises(CertificateValidationError,
                           match=rf"grad_v must return shape \(3,\), got \({size},\)"):
            check_gradient(cert, np.ones((2, 3)))

    def test_v_batch_without_one_value_per_row_rejected(self):
        cert = dataclasses.replace(quadratic_razumikhin(),
                                   v_batch=lambda arr: row_loop(square)(arr)[:-1])
        with pytest.raises(CertificateValidationError,
                           match=r"v_batch must return shape \(12,\), got \(11,\)"):
            check_gradient(cert, np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_no_points_accepted(self, shape):
        check_gradient(quadratic_razumikhin(), np.empty(shape))

    @pytest.mark.parametrize("name", ["quadratic", "razumikhin", "halanay"])
    @pytest.mark.parametrize("wrong", [False, True])
    def test_array_screen_matches_the_loop(self, name, wrong):
        cert, heads = screened(name, wrong)
        want = loop_screen(cert, heads)
        assert (want is None) == (not wrong)
        assert screen_outcome(cert, heads) == want


def screened(name, wrong, count=200, seed=7):
    """A certificate and ``count`` random heads; when ``wrong``, its
    grad_v is off in the half-space x_0 > 0.5 only."""
    rng = np.random.default_rng(seed)
    if name == "quadratic":
        cert, heads = quadratic_razumikhin(), rng.normal(size=(count, 3))
    else:
        p = Example1Params.paper()
        certificate = {"razumikhin": example1_razumikhin_certificate,
                       "halanay": example1_halanay_certificate}[name]
        cert, _ = certificate(p)
        heads = rng.normal(size=(count, 4))
        heads[:, -1] = rng.uniform(0.0, p.delta, count)  # the clock
    if wrong:
        grad = cert.grad_v

        def off(x):
            g = np.array(grad(x), dtype=float)
            g[0] += 1e-3 * (1.0 + abs(g[0])) * (x[0] > 0.5)
            return g

        cert = dataclasses.replace(cert, grad_v=off)
    return cert, heads


def loop_screen(cert, points):
    """The screen as a loop over points, each difference through v_batch
    on one row: the first offending point as a list, or None."""
    def v(x):
        return float(cert.v_batch(x[None, :])[0])

    for x in points:
        g = np.asarray(cert.grad_v(x), dtype=float)
        fd = np.empty_like(g)
        for i in range(x.shape[0]):
            step = 1e-6 * max(1.0, abs(x[i]))
            e = np.zeros_like(x)
            e[i] = step
            fd[i] = (v(x + e) - v(x - e)) / (2 * step)
        scale = max(1.0, float(np.linalg.norm(g)), float(np.linalg.norm(fd)))
        if not np.linalg.norm(fd - g) <= 1e-6 * scale:
            return x.tolist()
    return None


def screen_outcome(cert, points):
    """check_gradient's outcome: the point it names, or None."""
    try:
        check_gradient(cert, points)
    except CertificateValidationError as err:
        return json.loads(re.search(r"x=(\[[^]]*\])", str(err)).group(1))
    return None


def decay_spec():
    cfg = LinearDelayConfig(dimension=1, memory_size=0.4,
                            a0=np.array([[-1.0]]))
    return build_linear_delay_system(cfg)


class TestDplusV:
    def test_pointwise_square_along_decay(self):
        spec, _ = decay_spec()
        cert = KrasovskiiCertificate(
            vf=lambda phis: np.array([phi.head[0] ** 2 for phi in phis]),
            alpha1=lambda s: 0.5 * s * s, alpha2=lambda s: 2 * s * s,
            alpha3=lambda s: 0.1 * s * s)
        phi = constant_memory_arc(np.array([1.0]), 0.4)
        d = dplus_v(spec, cert, phi, h=1e-4)
        assert d == pytest.approx(-2.0, abs=3e-4)

    def test_constant_functional_is_flat(self):
        spec, _ = decay_spec()
        cert = KrasovskiiCertificate(
            vf=lambda phis: np.full(len(phis), 4.5),
            alpha1=lambda s: 0.5 * s * s, alpha2=lambda s: 2 * s * s,
            alpha3=lambda s: 0.1 * s * s)
        phi = constant_memory_arc(np.array([1.0]), 0.4)
        assert dplus_v(spec, cert, phi, h=1e-5) == 0.0

    def test_case2_functional_matches_closed_form(self):
        p = Example2Params.case2()
        spec, _ = build_example2(p)
        cert, _ = example2_krasovskii_certificate(p)
        phi = constant_memory_arc(np.array([1.0, 0.0]), spec.memory_size,
                                  depth=spec.memory_size + 0.2,
                                  grid_step=1e-3)
        # flow-form value on a constant arc with tau = 0:
        # 2 x e^0 (a x + b x) - sigma x^2 + mu x^2 - mu x^2 = 2(a+b) - sigma
        want = 2.0 * (p.a + p.b) - p.sigma
        got = dplus_v(spec, cert, phi, h=1e-5)
        assert got == pytest.approx(want, abs=1e-3)

    def test_finite_difference_consistency_ratio(self):
        # differences D(h) - D(h/2) should halve with h (first-order error)
        spec, _ = decay_spec()
        cert = KrasovskiiCertificate(
            vf=lambda phis: np.array([phi.head[0] ** 4 for phi in phis])
            + delayed_sq_integral(phis, -0.3, 0.0),
            alpha1=lambda s: 0.1 * s * s, alpha2=lambda s: 9 * (s ** 4 + s * s),
            alpha3=lambda s: 0.01 * s * s)
        phi = constant_memory_arc(np.array([1.3]), 0.4, grid_step=5e-3)
        ratios = []
        for h in (1e-3, 5e-4, 2.5e-4):
            d1 = dplus_v(spec, cert, phi, h=h)
            d2 = dplus_v(spec, cert, phi, h=h / 2)
            ratios.append(d1 - d2)
        assert 1.5 <= ratios[0] / ratios[1] <= 2.5
        assert 1.5 <= ratios[1] / ratios[2] <= 2.5


class TestCheckHalanayScalar:
    def test_delay_free_decay_passes(self):
        spec, target = decay_spec()
        sampler = ArcSampler(spec, seed=0, mode="cover")
        rep = check_halanay(spec, quadratic_halanay(), sampler, samples=200,
                            target=target)
        assert rep.passed
        # no jump set without a clock: C takes the whole count
        assert rep.region_counts == {"C": 200, "D": 0, "Gplus": 0}


# the three checkers, each on a stock system with its certificate
CHECKERS = pytest.mark.parametrize("check, params, build, certificate", [
    (check_razumikhin, Example1Params.paper(), build_example1,
     example1_razumikhin_certificate),
    (check_halanay, Example1Params.paper(), build_example1,
     example1_halanay_certificate),
    (check_krasovskii, Example2Params.case2(), build_example2,
     example2_krasovskii_certificate),
], ids=["razumikhin", "halanay", "krasovskii"])


@pytest.mark.parametrize("samples", [0, -5])
@CHECKERS
def test_sample_counts_below_one_rejected(check, params, build, certificate,
                                          samples):
    # no count may be stretched into a token run of one C and one D arc
    spec, target = build(params)
    cert, _ = certificate(params)
    with pytest.raises(ValueError, match="samples must be at least 1"):
        check(spec, cert, ArcSampler(spec, seed=0), samples=samples,
              target=target)


@CHECKERS
def test_one_sample_checks_one_flow_arc(check, params, build, certificate):
    # C's share of one sample is that sample; D and G+ get none
    spec, target = build(params)
    cert, _ = certificate(params)
    rep = check(spec, cert, ArcSampler(spec, seed=0), samples=1, target=target)
    assert rep.checked == 1
    assert rep.region_counts == {"C": 1, "D": 0, "Gplus": 0}


def test_split_counts_sum_to_the_total():
    for total in range(1, 5001):
        n_c, n_d, n_g = certificates._split_counts(total)
        assert n_c >= 1 and n_d >= 0 and n_g >= 0
        assert n_c + n_d + n_g == total


def test_split_counts_above_one_sample_are_forty_thirty_thirty():
    # capping D's share at what C leaves changes only the split of one
    for total in range(2, 5001):
        n_c = max(1, int(round(total * 0.4)))
        n_d = max(1, int(round(total * 0.3)))
        want = (n_c, n_d, max(0, total - n_c - n_d))
        assert certificates._split_counts(total) == want


def test_krasovskii_quotient_step_is_read_when_called(monkeypatch):
    params = Example2Params.case2()
    spec, target = build_example2(params)
    cert, _ = example2_krasovskii_certificate(params)

    def run():
        return check_krasovskii(spec, cert, ArcSampler(spec, seed=0), samples=3,
                                target=target)

    assert run().meta["h"] == certificates.DERIVATIVE_STEP == 1e-5
    monkeypatch.setattr(certificates, "DERIVATIVE_STEP", 4e-5)
    rep = run()
    assert rep.meta["h"] == 4e-5
    assert rep.passed


@pytest.mark.parametrize("slack", [np.nan, np.inf, -np.inf])
@CHECKERS
def test_non_finite_slack_rejected(check, params, build, certificate, slack):
    # a NaN slack makes every margin test false and an infinite one true,
    # either way no condition could fail
    spec, target = build(params)
    cert, _ = certificate(params)
    with pytest.raises(ValueError, match="slack must be finite"):
        check(spec, cert, ArcSampler(spec, seed=0), slack=slack, samples=10,
              target=target)


class TestExample1Checks:
    def test_paper_instance_razumikhin_clean(self):
        p = Example1Params.paper()
        spec, target = build_example1(p)
        cert, info = example1_razumikhin_certificate(p)
        assert info.feasible and info.rho_hat < 1
        rep = check_razumikhin(spec, cert, ArcSampler(spec, seed=0),
                               samples=600, target=target)
        assert rep.passed, rep.violations[:3]

    def test_paper_instance_halanay_clean(self):
        p = Example1Params.paper()
        spec, target = build_example1(p)
        cert, _ = example1_halanay_certificate(p)
        rep = check_halanay(spec, cert, ArcSampler(spec, seed=0),
                            samples=400, target=target)
        assert rep.passed

    @pytest.mark.parametrize("gain", [[[5.3, -2.65]], [[2.3, -1.15]]],
                             ids=["sr-0.961", "sr-0.976"])
    @pytest.mark.parametrize("certificate", [example1_razumikhin_certificate,
                                             example1_halanay_certificate])
    def test_theta_lies_above_a_spectral_radius_past_the_cap(self, certificate,
                                                             gain):
        # with 0.95 <= sr < 1 the 0.95 cap on theta is not above sr; the
        # builder used to raise about a theta the caller never passed
        p = dataclasses.replace(Example1Params.paper(), K=gain)
        _, info = certificate(p)
        assert 0.95 <= info.spectral_radius < info.theta < 1.0
        assert info.theta == 0.5 * (info.spectral_radius + 1.0)

    def test_open_loop_fails_at_jumps(self):
        p = Example1Params(A=[[4.0, 1.0], [5.0, -3.0]], B=[[-3.0], [-2.0]],
                           K=[[0.0, 0.0]])
        spec, target = build_example1(p)
        cert, info = example1_razumikhin_certificate(p)
        assert not info.feasible
        rep = check_razumikhin(spec, cert, ArcSampler(spec, seed=0),
                               samples=300, target=target)
        assert not rep.passed
        assert {v.condition for v in rep.violations} == {"razumikhin.iii"}

    def test_witnesses_reproduce_exactly(self):
        p = Example1Params(A=[[4.0, 1.0], [5.0, -3.0]], B=[[-3.0], [-2.0]],
                           K=[[0.0, 0.0]])
        spec, target = build_example1(p)
        cert, _ = example1_razumikhin_certificate(p)
        rep = check_razumikhin(spec, cert, ArcSampler(spec, seed=0),
                               samples=200, target=target)
        from hymem.hybrid_time import vbar
        for v in rep.violations[:10]:
            assert v.condition == "razumikhin.iii"
            vb = vbar([v.arc], cert.v_batch)[0]
            g = spec.jump_selections(v.arc)[v.aux[1]]
            assert float(cert.v(np.asarray(g))) == v.lhs
            assert cert.rho(vb) == v.rhs
            assert v.lhs > v.rhs + rep.slack_algebraic

    def test_scaling_invariance_of_verdicts(self):
        # scaling V by c > 0 with conjugated p, rho, alphas leaves every
        # sampled arc's verdict unchanged
        p = Example1Params.paper()
        spec, target = build_example1(p)
        cert, info = example1_razumikhin_certificate(p)
        c = 7.3
        scaled = RazumikhinCertificate(
            v=lambda x: c * cert.v(x),
            grad_v=lambda x: c * cert.grad_v(x),
            alpha1=lambda s: c * cert.alpha1(s),
            alpha2=lambda s: c * cert.alpha2(s),
            alpha3=lambda s: c * cert.alpha3(s / c),
            p=lambda r: c * cert.p(r / c),
            rho=lambda r: c * cert.rho(r / c),
            v_batch=(lambda arr: c * cert.v_batch(arr)),
        )
        rep1 = check_razumikhin(spec, cert, ArcSampler(spec, seed=3),
                                samples=200, target=target)
        rep2 = check_razumikhin(spec, scaled, ArcSampler(spec, seed=3),
                                samples=200, target=target)
        key1 = {(v.condition, v.region, v.index) for v in rep1.violations}
        key2 = {(v.condition, v.region, v.index) for v in rep2.violations}
        assert key1 == key2 == set()

        p_open = Example1Params(A=[[4.0, 1.0], [5.0, -3.0]],
                                B=[[-3.0], [-2.0]], K=[[0.0, 0.0]])
        spec_o, target_o = build_example1(p_open)
        cert_o, _ = example1_razumikhin_certificate(p_open)
        scaled_o = RazumikhinCertificate(
            v=lambda x: c * cert_o.v(x),
            grad_v=lambda x: c * cert_o.grad_v(x),
            alpha1=lambda s: c * cert_o.alpha1(s),
            alpha2=lambda s: c * cert_o.alpha2(s),
            alpha3=lambda s: c * cert_o.alpha3(s / c),
            p=lambda r: c * cert_o.p(r / c),
            rho=lambda r: c * cert_o.rho(r / c),
            v_batch=(lambda arr: c * cert_o.v_batch(arr)),
        )
        r1 = check_razumikhin(spec_o, cert_o, ArcSampler(spec_o, seed=3),
                              samples=150, target=target_o)
        r2 = check_razumikhin(spec_o, scaled_o, ArcSampler(spec_o, seed=3),
                              samples=150, target=target_o)
        k1 = {(v.condition, v.region, v.index) for v in r1.violations}
        k2 = {(v.condition, v.region, v.index) for v in r2.violations}
        assert k1 == k2 and k1


@pytest.mark.parametrize("check", ["razumikhin", "halanay", "krasovskii"])
def test_cover_checks_run_on_an_unclocked_delay_system(check):
    """Every check evaluates as many cover arcs of a jump-free system with
    a flow delay of 0.3 as asked for (they stopped at an arc shorter than
    the delay, and C used to get only its 40 % share of the count)."""
    from test_sampling import delay_system
    spec, target = delay_system(0.3)
    sampler = ArcSampler(spec, seed=3, mode="cover")
    if check == "razumikhin":
        rep = check_razumikhin(spec, quadratic_razumikhin(), sampler, samples=60,
                               target=target)
    elif check == "halanay":
        rep = check_halanay(spec, quadratic_halanay(), sampler, samples=60,
                            target=target)
    else:
        cert = KrasovskiiCertificate(
            vf=lambda phis: np.array([phi.head @ phi.head for phi in phis])
            + delayed_sq_integral(phis, -0.3, 0.0),
            alpha1=lambda s: 0.5 * s * s, alpha2=lambda s: 9.0 * s * s,
            alpha3=lambda s: 0.01 * s * s)
        rep = check_krasovskii(spec, cert, sampler, samples=60, target=target)
    assert rep.checked == 60
    assert rep.region_counts == {"C": 60, "D": 0, "Gplus": 0}
    assert rep.meta.get("flow_arcs_skipped", 0) == 0


def test_nan_margin_is_a_violation():
    """A functional that is NaN on every arc makes every margin NaN: each
    is a violation with its arc, and the worst margin is NaN."""
    p = Example2Params.case2()
    spec, target = build_example2(p)
    stock, _ = example2_krasovskii_certificate(p)
    cert = dataclasses.replace(stock, vf=lambda phis: np.full(len(phis), np.nan))
    rep = check_krasovskii(spec, cert, ArcSampler(spec, seed=0, mode="cover"),
                           samples=100, target=target)
    kinds = Counter(v.condition for v in rep.violations)
    assert kinds["krasovskii.i.lower"] == kinds["krasovskii.i.upper"] == 100
    assert kinds["krasovskii.ii"] > 0 and kinds["krasovskii.iii"] > 0
    assert len(rep.violations) == rep.conditions_evaluated
    assert all(math.isnan(v.margin) and v.arc is not None for v in rep.violations)
    assert not rep.passed and math.isnan(rep.worst_margin)
    assert '"worst_margin": NaN' in json.dumps(rep.to_json_dict())


def test_infinite_margin_is_the_worst_margin():
    """A Halanay decay rate mu = inf makes every (ii) right side -inf, so
    every flow arc's (ii) margin is -inf, and the report says so instead
    of a worst margin of 0."""
    p = Example1Params.paper()
    spec, target = build_example1(p)
    stock, _ = example1_halanay_certificate(p)
    cert = dataclasses.replace(stock, mu=np.inf)
    rep = check_halanay(spec, cert, ArcSampler(spec, seed=0, mode="cover"),
                        samples=100, target=target)
    flow = [v.margin for v in rep.violations if v.condition == "halanay.ii"]
    assert flow == [-np.inf] * rep.region_counts["C"]
    assert rep.worst_margin == -np.inf


def test_certificate_maps_have_no_optional_second_form():
    """Each certificate map and the target distance has the forms its
    callers read, every one required: no field defaults to None."""
    for cls in (RazumikhinCertificate, HalanayCertificate,
                KrasovskiiCertificate, TargetSet):
        for f in dataclasses.fields(cls):
            assert f.default is not None, (cls.__name__, f.name)


def with_flow(spec, scale, rebuilt=False):
    """spec with the flow selection scaled entrywise: through
    dataclasses.replace, keeping the batch map, or rebuilt with a batch map
    scaled alike."""
    def flow(w):
        return scale * spec.flow_selection(w)

    if not rebuilt:
        return dataclasses.replace(spec, flow_selection=flow)
    return SystemSpec(dimension=spec.dimension, memory_size=spec.memory_size,
                      flow_guard=spec.flow_guard, jump_guard=spec.jump_guard,
                      flow_selection=flow, jump_selections=spec.jump_selections,
                      flow_batch=lambda w: scale * spec.flow_batch(w),
                      meta=spec.meta)


def report_text(rep):
    return json.dumps(rep.to_json_dict(), sort_keys=True)


class TestReplacedFlowSelection:
    """A spec replaced with a new flow selection is checked against that
    flow, as one built with it is."""

    @pytest.mark.parametrize("check, certificate, count", [
        (check_razumikhin, example1_razumikhin_certificate, 38),
        (check_halanay, example1_halanay_certificate, 78),
    ], ids=["razumikhin", "halanay"])
    def test_pointwise_checks_read_the_replaced_flow(self, check, certificate,
                                                     count):
        # example 1 with the state's rates negated, the clock's kept
        p = Example1Params.paper()
        spec, target = build_example1(p)
        cert, _ = certificate(p)
        scale = np.array([-1.0, -1.0, -1.0, 1.0])
        reports = [check(s, cert, ArcSampler(s, seed=0, mode="cover"),
                         samples=300, target=target)
                   for s in (with_flow(spec, scale), with_flow(spec, scale, True))]
        ii = [v for v in reports[0].violations if v.condition == f"{cert.name}.ii"]
        assert len(ii) == count
        assert all(v.aux == ("flow_candidate", 0) for v in ii)
        assert report_text(reports[0]) == report_text(reports[1])

    def case2_scaled(self):
        # example 2 case 2 with the state's rate times 50
        p = Example2Params.case2()
        spec, target = build_example2(p)
        cert, _ = example2_krasovskii_certificate(p)
        return spec, target, cert, np.array([50.0, 1.0])

    def test_kept_batch_map_is_refused(self):
        spec, target, cert, scale = self.case2_scaled()
        replaced = with_flow(spec, scale)
        sampler = ArcSampler(replaced, seed=0, mode="cover")
        with pytest.raises(ValueError, match="flow_batch"):
            check_krasovskii(replaced, cert, sampler, samples=200, target=target)
        phi = sampler.sample("C", 1)[0].arc
        with pytest.raises(ValueError, match="flow_batch"):
            dplus_v(replaced, cert, phi, 1e-5)

    def test_krasovskii_reads_the_replaced_flow(self):
        spec, target, cert, scale = self.case2_scaled()
        reports = [check_krasovskii(s, cert, ArcSampler(s, seed=0, mode="cover"),
                                    samples=200, target=target)
                   for s in (dataclasses.replace(with_flow(spec, scale),
                                                 flow_batch=None),
                             with_flow(spec, scale, True))]
        kinds = Counter(v.condition for v in reports[0].violations)
        assert kinds["krasovskii.ii"] == 74
        assert reports[0].meta["flow_bound_observed"] == pytest.approx(55.8, abs=0.05)
        assert report_text(reports[0]) == report_text(reports[1])


class TestExample2Checks:
    @pytest.mark.parametrize("params", [Example2Params.case1(),
                                        Example2Params.case2()],
                             ids=["case1", "case2"])
    def test_feasible_instances_clean(self, params):
        spec, target = build_example2(params)
        cert, info = example2_krasovskii_certificate(params)
        assert info.feasible
        rep = check_krasovskii(spec, cert, ArcSampler(spec, seed=0, mode="both"),
                               samples=400, target=target)
        assert rep.passed, rep.violations[:3]

    def test_exponentials_overflow_to_inf(self):
        # libm raises where np.exp gives inf: a huge sigma still builds a
        # certificate, which screening then refuses (exit 2, not 3)
        cert, _ = example2_krasovskii_certificate(
            dataclasses.replace(Example2Params.case2(), sigma=9000.0))
        assert cert.alpha2(1.0) == np.inf and cert.alpha1(1.0) == 0.0
        # each entry is libm's, whatever its neighbours
        x = np.array([0.1 * k for k in range(-30, 30)] + [800.0])
        assert builtin._exp(x).tolist() == [math.exp(v) for v in x[:-1]] + [np.inf]
        z = np.array([0.3 - 0.7j, 800.0 + 1.0j, 800.0 + 0.0j, complex(800.0, -0.0)])
        got = builtin._exp(z)
        assert got[0] == cmath.exp(0.3 - 0.7j)
        assert got[1].real == np.inf and got[1].imag == np.inf
        assert got[2] == np.inf and math.copysign(1.0, got[3].imag) == -1.0

    def test_enlarged_period_reports_jump_violations(self):
        p = Example2Params(a=0.5, b=0.25, rho=0.5, r=0.05, delta=0.75,
                           sigma=2.0, mu=0.5)
        assert p.rho >= np.exp(-p.sigma * p.delta)
        spec, target = build_example2(p)
        cert, info = example2_krasovskii_certificate(p)
        rep = check_krasovskii(spec, cert, ArcSampler(spec, seed=0, mode="both"),
                               samples=300, target=target)
        assert any(v.condition == "krasovskii.iii" for v in rep.violations)

    def test_functional_evaluated_once_per_arc_window_and_jump(self, monkeypatch):
        """Every arc, flow window and jump candidate goes through the
        functional once, as one row of a vf call."""
        p = Example2Params.case2()
        spec, target = build_example2(p)
        stock, _ = example2_krasovskii_certificate(p)
        rows = Counter()

        def counted(name, fn, arcs=0):  # arcs: the position of the arc list
            def call(*args):
                rows[name] += len(args[arcs])
                return fn(*args)
            return call

        monkeypatch.setattr(certificates, "flow_windows",
                            counted("window", certificates.flow_windows, 1))
        monkeypatch.setattr(certificates, "append_jumps",
                            counted("jump", certificates.append_jumps))
        cert = dataclasses.replace(stock, vf=counted("vf", stock.vf))
        rep = check_krasovskii(spec, cert, ArcSampler(spec, seed=0, mode="cover"),
                               samples=50, target=target)
        assert rep.passed
        assert rows["window"] == rep.region_counts["C"] > 0
        assert rows["jump"] >= rep.region_counts["D"] > 0
        assert rows["vf"] == rep.checked + rows["window"] + rows["jump"]

    def test_report_json_shape(self):
        p = Example2Params.case2()
        spec, target = build_example2(p)
        cert, _ = example2_krasovskii_certificate(p)
        rep = check_krasovskii(spec, cert, ArcSampler(spec, seed=0),
                               samples=60, target=target)
        doc = rep.to_json_dict()
        assert {"certificate", "samples", "violations", "worst_margin",
                "slack", "elapsed"} <= set(doc)
        assert doc["elapsed"] is None


def reference_vf(params):
    """Example 2's functional arc by arc, as its scalar form computed it,
    with the certificate's libm exponential."""
    def vf(phi):
        head = phi.head
        point = head[0] * head[0] * math.exp(-params.sigma * head[1])
        return float(point + params.mu * delayed_sq_integral(
            [phi], -params.r, 0.0, components=slice(0, 1))[0])
    return vf


def near_period(phi, period, gap=3e-6):
    """phi with its newest level's clock moved so that the head reads
    period - gap (beyond the period for a negative gap)."""
    values = phi.values.copy()
    values[phi.starts[-1]:, 1] += period - gap - values[-1, 1]
    return HybridMemoryArc(phi.times, values, phi.starts, phi.delta)


def functional_rows(params, mode):
    """Every kind of arc the functional check evaluates: sampled C, D and
    post-jump arcs, flow windows of the C arcs and the D arcs' jumps."""
    spec, _ = build_example2(params)
    sampler = ArcSampler(spec, seed=7, mode=mode)
    c, d, g = (sampler.sample(r, n) for r, n in (("C", 40), ("D", 20), ("Gplus", 20)))
    c, d = [s.arc for s in c], [s.arc for s in d]
    return spec, (c + d + [s.arc for s in g] + flow_windows(spec, c, 1e-5)
                  + append_jumps(d, [spec.jump_selections(phi)[0] for phi in d]))


PARAMS_AND_MODES = pytest.mark.parametrize("params, mode", [
    (Example2Params.case1(), "cover"), (Example2Params.case1(), "both"),
    (Example2Params.case2(), "cover"), (Example2Params.case2(), "both")],
    ids=["case1-cover", "case1-both", "case2-cover", "case2-both"])


class TestFunctionalInArrays:
    """The stock functional, the flow quotient and the check, all on lists
    of arcs, give what the functional gives one arc at a time."""

    @PARAMS_AND_MODES
    def test_vf_rows_equal_the_functional_arc_by_arc(self, params, mode):
        spec, arcs = functional_rows(params, mode)
        cert, _ = example2_krasovskii_certificate(params)
        want = np.array([reference_vf(params)(phi) for phi in arcs])
        cuts = np.sort(np.random.default_rng(41).choice(
            np.arange(1, len(arcs)), 12, replace=False))
        parts = np.split(np.arange(len(arcs)), cuts)
        chunks = np.concatenate([cert.vf([arcs[i] for i in part])
                                 for part in parts])
        single = np.concatenate([cert.vf([phi]) for phi in arcs])
        assert cert.vf(arcs).tobytes() == want.tobytes()
        assert chunks.tobytes() == single.tobytes() == want.tobytes()

    @PARAMS_AND_MODES
    def test_check_of_the_functional_arc_by_arc_reports_the_same(self, params,
                                                                  mode):
        spec, target = build_example2(params)
        cert, _ = example2_krasovskii_certificate(params)
        plain = dataclasses.replace(cert, vf=arc_by_arc(reference_vf(params)))
        reports = [check_krasovskii(spec, c, ArcSampler(spec, seed=2, mode=mode),
                                    samples=80, target=target).to_json_dict()
                   for c in (cert, plain)]
        assert json.dumps(reports[0]) == json.dumps(reports[1])

    def test_flow_arcs_at_the_period_halve_their_step(self):
        p = Example2Params.case2()
        spec, _ = build_example2(p)
        cert, _ = example2_krasovskii_certificate(p)
        arcs = [s.arc for s in ArcSampler(spec, seed=3, mode="cover").sample("C", 12)]
        arcs = (arcs[:6] + [near_period(phi, p.delta) for phi in arcs[6:11]]
                + [near_period(arcs[11], p.delta, gap=-1e-3)])  # last: not in C
        h = 1e-5
        bases = cert.vf(arcs).tolist()
        got = certificates._quotients(spec, cert.vf, arcs, h, bases)
        assert got[-1] is None
        with pytest.raises(PreconditionError, match="not in the flow set"):
            dplus_v(spec, cert, arcs[-1], h)
        steps = []
        for phi, base, d in zip(arcs[:-1], bases, got):
            step = h
            while spec.flow_guard(flow_window(spec, phi, step)) < -GUARD_TOL:
                step *= 0.5
            steps.append(step)
            want = (reference_vf(p)(flow_window(spec, phi, step)) - base) / step
            assert np.float64(d).tobytes() == np.float64(want).tobytes()
            assert np.float64(dplus_v(spec, cert, phi, h)).tobytes() == \
                np.float64(d).tobytes()
        assert steps[:6] == [h] * 6 and all(s < h for s in steps[6:])


def _states(spec, seed):
    """Window samples of cover arcs plus random states, clocks out of range
    included."""
    sampler = ArcSampler(spec, seed=seed, mode="cover")
    rows = [seg.values for s in sampler.sample("C", 40) + sampler.sample("D", 40)
            for seg in s.arc.memory_segments]
    rng = np.random.default_rng(seed)
    rows.append(rng.normal(size=(300, spec.dimension)) * 3.0)
    return np.concatenate(rows)


def _same_bits_by_chunks(batch, rows, seed):
    """batch on the whole block, on random chunks and row by row agree bit
    for bit."""
    whole = np.asarray(batch(rows))
    cuts = np.sort(np.random.default_rng(seed).choice(
        np.arange(1, rows.shape[0]), 40, replace=False))
    chunks = np.concatenate([batch(part) for part in np.split(rows, cuts)])
    single = np.concatenate([batch(row[None]) for row in rows])
    assert whole.shape == (rows.shape[0],)
    assert whole.tobytes() == chunks.tobytes() == single.tobytes()


class TestBatchRowContract:
    """Batch forms give each row the same bits whatever rows come with it."""

    @pytest.mark.parametrize("gain", ["paper", "open-loop"])
    @pytest.mark.parametrize("certificate", [example1_razumikhin_certificate,
                                             example1_halanay_certificate])
    def test_example1_v_batch(self, gain, certificate):
        p = Example1Params.paper()
        if gain == "open-loop":
            p = dataclasses.replace(p, K=[[0.0, 0.0]])
        spec, _ = build_example1(p)
        cert, _ = certificate(p)
        _same_bits_by_chunks(cert.v_batch, _states(spec, 11), 11)

    @pytest.mark.parametrize("build, params", [
        (build_example1, Example1Params.paper()),
        (build_example2, Example2Params.case2())], ids=["example1", "example2"])
    def test_target_dist_batch(self, build, params):
        spec, target = build(params)
        _same_bits_by_chunks(target.dist_batch, _states(spec, 12), 12)

    def test_origin_target_dist_batch(self):
        target = origin_target()
        rows = np.random.default_rng(13).normal(size=(500, 3))
        _same_bits_by_chunks(target.dist_batch, rows, 13)

    @pytest.mark.parametrize("check, params, build, certificate, expect", [
        (check_razumikhin, Example1Params.paper(), build_example1,
         example1_razumikhin_certificate, ("C", "D")),
        (check_halanay, Example1Params.paper(), build_example1,
         example1_halanay_certificate, ("C", "D")),
        (check_krasovskii, Example2Params.case2(), build_example2,
         example2_krasovskii_certificate, ("C", "D", "Gplus")),
    ], ids=["razumikhin", "halanay", "krasovskii"])
    def test_one_window_maximum_call_per_check(self, monkeypatch, check, params,
                                               build, certificate, expect):
        spec, target = build(params)
        cert, _ = certificate(params)
        calls = []

        def counted(phis, *args, **kwargs):
            calls.append(len(phis))
            return sup_norm_w(phis, *args, **kwargs)

        monkeypatch.setattr(certificates, "sup_norm_w", counted)
        rep = check(spec, cert, ArcSampler(spec, seed=0, mode="cover"),
                    samples=60, target=target)
        assert calls == [sum(rep.region_counts[r] for r in expect)]


class TestVbarMonotone:
    def _trajectory(self, spec, value, t_max=4.0):
        init = constant_memory_arc(np.asarray(value, dtype=float),
                                   spec.memory_size,
                                   depth=spec.memory_size + 0.5,
                                   grid_step=2e-2)
        return simulate(spec, init, SimOptions(t_max=t_max, step=5e-3))

    def test_certified_trajectory_is_monotone(self):
        p = Example1Params.paper()
        spec, target = build_example1(p)
        cert, _ = example1_razumikhin_certificate(p)
        traj = self._trajectory(spec, [1.0, -0.5, 0.3, 0.0])
        rep = check_vbar_monotone(traj, cert.v_batch, tol=1e-6 * 1.0)
        assert rep.passed
        assert rep.final_value < rep.initial_value

    def test_unstable_open_loop_violates(self):
        p = Example1Params(A=[[4.0, 1.0], [5.0, -3.0]], B=[[-3.0], [-2.0]],
                           K=[[0.0, 0.0]])
        spec, _ = build_example1(p)
        cert, _ = example1_razumikhin_certificate(p)
        traj = self._trajectory(spec, [1.0, 1.0, 0.0, 0.0], t_max=2.0)
        rep = check_vbar_monotone(traj, cert.v_batch, tol=1e-6)
        assert not rep.passed
        assert rep.first_violation is not None

    def test_zero_trajectory_trivially_monotone(self):
        p = Example1Params.paper()
        spec, _ = build_example1(p)
        cert, _ = example1_razumikhin_certificate(p)
        traj = self._trajectory(spec, [0.0, 0.0, 0.0, 0.0], t_max=1.0)
        rep = check_vbar_monotone(traj, cert.v_batch, tol=1e-12)
        assert rep.passed
        assert rep.initial_value == 0.0


class TestKLEnvelope:
    def _bundle(self, spec, seeds, scale=1.0, t_max=7.0):
        trajs = []
        for sd in seeds:
            rng = np.random.default_rng(sd)
            v = rng.normal(size=spec.dimension)
            clock = spec.meta.get("clock_index")
            if clock is not None:
                v[clock] = 0.0
            v = v / np.linalg.norm(v) * rng.uniform(0.1, scale)
            init = constant_memory_arc(v, spec.memory_size,
                                       depth=spec.memory_size + 0.5,
                                       grid_step=2e-2)
            trajs.append(simulate(spec, init, SimOptions(t_max=t_max, step=5e-3)))
        return trajs

    def test_stable_bundle_passes_with_finite_times(self):
        p = Example1Params.paper()
        spec, target = build_example1(p)
        trajs = self._bundle(spec, range(10))
        rep = check_kl_envelope(trajs, target, eps_grid=[1e-2, 1e-1],
                                eta_grid=[0.5, 1.0])
        assert rep.passed
        t_at = {(e, n): T for e, n, T in rep.time_table}
        assert t_at[(1e-2, 1.0)] is not None

    def test_zero_history_stays_on_target(self):
        p = Example1Params.paper()
        spec, target = build_example1(p)
        init = constant_memory_arc(np.zeros(4), spec.memory_size,
                                   depth=spec.memory_size + 0.5,
                                   grid_step=2e-2)
        traj = simulate(spec, init, SimOptions(t_max=2.0, step=5e-3))
        # distance stays at zero up to clock-boundary roundoff
        assert all(target.dist(x) <= 1e-12 for _, _, x in traj.sample_points())
        rep = check_kl_envelope([traj], target, eps_grid=[1e-3],
                                eta_grid=[1.0])
        assert rep.passed

    def test_unstable_bundle_fails_attractivity(self):
        p = Example1Params(A=[[4.0, 1.0], [5.0, -3.0]], B=[[-3.0], [-2.0]],
                           K=[[0.0, 0.0]])
        spec, target = build_example1(p)
        trajs = self._bundle(spec, range(4), t_max=5.0)
        rep = check_kl_envelope(trajs, target, eps_grid=[1e-1],
                                eta_grid=[1.0])
        assert not rep.attractive_ok
        assert not rep.passed

    def test_nan_distance_is_neither_bounded_nor_settled(self):
        p = Example1Params.paper()
        spec, target = build_example1(p)
        trajs = self._bundle(spec, range(3), t_max=1.0)
        blind = dataclasses.replace(target, dist=lambda z: float("nan"))
        rep = check_kl_envelope(trajs, blind, eps_grid=[1e-1], eta_grid=[1.0])
        assert not rep.bounded_ok and not rep.attractive_ok
        assert math.isnan(rep.gamma_table[0][1])
        assert rep.time_table == ((0.1, 1.0, None),)

    def test_nan_distance_counts_as_above_eps(self):
        tj = np.arange(4.0)
        assert certificates._settling_time(tj, np.array([0.0, np.nan, 0.0, 0.0]),
                                           0.1) == 2.0
        assert certificates._settling_time(tj, np.array([0.0, 0.0, 0.0, np.nan]),
                                           0.1) is None

    def test_mismatched_systems_rejected(self):
        p1 = Example1Params.paper()
        spec1, target1 = build_example1(p1)
        p2 = Example2Params.case2()
        spec2, _ = build_example2(p2)
        t1 = self._bundle(spec1, [0], t_max=1.0)
        t2 = self._bundle(spec2, [1], t_max=1.0)
        with pytest.raises(ValueError, match="mismatched"):
            check_kl_envelope(t1 + t2, target1, [0.1], [1.0])
