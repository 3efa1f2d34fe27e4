"""Stock certificates for the built-in example systems.

The sampled-data system gets a pointwise (threshold / Halanay) certificate
built from a quadratic form propagated through the inter-sample transition
matrix; the delay-with-resets system gets a functional certificate with a
pointwise term and an integral of the squared recent history.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics
from .certificates import (HalanayCertificate, KrasovskiiCertificate,
                           RazumikhinCertificate)
from .batch import delayed_sq_integral
from .hybrid_time import HybridMemoryArc
from .system import Example1Params, Example2Params


def _exp1(v: float) -> float:
    """e to the real v through libm; inf where libm overflows."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _cexp1(v: complex) -> complex:
    """e to the complex v through libm; its modulus inf where libm overflows."""
    try:
        return cmath.exp(v)
    except OverflowError:
        im = v.imag and math.inf * math.sin(v.imag)  # a zero keeps its sign
        return complex(math.inf * math.cos(v.imag), im)


def _exp(x: np.ndarray) -> np.ndarray:
    """e to each entry of x through libm, so each entry's bits depend on it
    alone: numpy picks its ``exp`` loop by the CPU's features, and an
    AVX-512 loop differs from libm in the last bit now and then."""
    f = _cexp1 if x.dtype.kind == "c" else _exp1
    return np.fromiter(map(f, x.ravel().tolist()), x.dtype, x.size).reshape(x.shape)


class _MatrixExpFamily:
    """E(s) = expm(M s) for many s, via eigendecomposition when reliable.

    Falls back to per-call scaling-and-squaring when M is too far from
    diagonalizable for the factored form to be accurate.
    """

    def __init__(self, m: np.ndarray):
        self.m = np.asarray(m, dtype=float)
        n = self.m.shape[0]
        self.eig_ok = False
        try:
            w, s = np.linalg.eig(self.m)
            s_inv = np.linalg.inv(s)
            recon = (s * w) @ s_inv
            err = np.linalg.norm(recon - self.m)
            cond = np.linalg.cond(s)
            if err <= 1e-9 * max(1.0, np.linalg.norm(self.m)) and cond < 1e8:
                self.w, self.s, self.s_inv = w, s, s_inv
                self.eig_ok = True
        except np.linalg.LinAlgError:
            pass

    def at(self, s: float) -> np.ndarray:
        if self.eig_ok:
            return ((self.s * _exp(self.w * s)) @ self.s_inv).real
        return numerics.expm(self.m * s)

    def apply_batch(self, svec: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
        """Rows of E(svec[i]) @ x_rows[i]; row i depends on row i alone, bit
        for bit.  The products are einsum loops rather than BLAS matmuls,
        which round differently by the number of rows."""
        if self.eig_ok:
            y = np.einsum("ij,mj->mi", self.s_inv, x_rows)
            y = _exp(np.multiply.outer(svec, self.w)) * y
            return np.einsum("ij,mj->mi", self.s, y).real
        return np.array([self.at(float(si)) @ xi
                         for si, xi in zip(svec, x_rows)])


@dataclass(frozen=True)
class Example1CertificateInfo:
    h: np.ndarray
    p: np.ndarray
    spectral_radius: float
    rho_quad: float
    sigma: float
    rho_hat: float
    c1: float
    c2: float
    theta: float | None
    feasible: bool


def _example1_ingredients(params: Example1Params,
                          fam: _MatrixExpFamily) -> Example1CertificateInfo:
    """Quadratic form and comparison constants; ``fam`` is expm(A_f s)."""
    a_f = fam.m
    a_g = np.block([[np.eye(params.nz), np.zeros((params.nz, params.m))],
                    [params.K, np.zeros((params.m, params.m))]])
    h = numerics.expm(a_f * params.delta) @ a_g
    sr = numerics.spectral_radius(h)

    feasible = sr < 1.0
    if feasible:
        # A theta-scaled solve caps the contraction factor at theta^2, which
        # leaves room for the delayed-measurement perturbation; the plain
        # identity-forcing solve can land within a fraction of a percent of 1.
        # theta: the midpoint of (sr, 1), capped at 0.95 where that exceeds sr
        theta = 0.5 * (sr + 1.0)
        if sr < 0.95:
            theta = min(theta, 0.95)
        p = numerics.solve_discrete_lyapunov(h / theta)
        rho_quad = numerics.contraction_factor(h, p)
        sigma = params.sigma if params.sigma is not None else \
            min(1.0, math.log((1.0 + rho_quad) / (2.0 * rho_quad)) / params.delta)
        rho_hat = max(0.9, 0.5 * (1.0 + rho_quad * _exp1(sigma * params.delta)))
        if rho_hat >= 1.0:
            feasible = False
            rho_hat = 0.95
    else:
        theta = None
        p = np.eye(params.nz + params.m)
        rho_quad = numerics.contraction_factor(h, p)
        sigma = params.sigma if params.sigma is not None else 0.5
        rho_hat = 0.95

    taus = np.linspace(0.0, params.delta, 401)
    c1, c2 = np.inf, 0.0
    for tau in taus:
        e = fam.at(params.delta - tau)
        mat = _exp1(-sigma * tau) * (e.T @ p @ e)
        vals = np.linalg.eigvalsh(mat)
        c1 = min(c1, vals[0])
        c2 = max(c2, vals[-1])
    c1 *= 0.999
    c2 *= 1.001
    return Example1CertificateInfo(h=h, p=p, spectral_radius=sr,
                                   rho_quad=rho_quad, sigma=float(sigma),
                                   rho_hat=float(rho_hat), c1=float(c1),
                                   c2=float(c2), theta=theta, feasible=feasible)


def _example1_parts(params: Example1Params):
    """(info, v, grad_v, v_batch) of the sampled-data certificate."""
    n1 = params.nz + params.m
    a_f = np.block([[params.A, params.B],
                    [np.zeros((params.m, n1))]])
    fam = _MatrixExpFamily(a_f)
    info = _example1_ingredients(params, fam)
    p = info.p
    sigma = info.sigma
    delta = params.delta

    def v(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        y = fam.at(delta - x[n1]) @ x[:n1]
        return float(_exp1(-sigma * x[n1]) * (y @ p @ y))

    def grad_v(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        e = fam.at(delta - x[n1])
        y = e @ x[:n1]
        py = p @ y
        scale = _exp1(-sigma * x[n1])
        g = np.empty(n1 + 1)
        g[:n1] = 2.0 * scale * (e.T @ py)
        g[n1] = -sigma * scale * (y @ py) - 2.0 * scale * ((a_f @ y) @ py)
        return g

    def v_batch(arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr, dtype=float)
        taus = arr[:, n1]
        y = fam.apply_batch(delta - taus, arr[:, :n1])
        return _exp(-sigma * taus) * np.einsum("ij,jk,ik->i", y, p, y)

    return info, v, grad_v, v_batch


def example1_razumikhin_certificate(
        params: Example1Params
) -> tuple[RazumikhinCertificate, Example1CertificateInfo]:
    """Threshold certificate for the sampled-data system.

    When the inter-sample transition matrix is unstable (no admissible
    quadratic form exists) a nominal certificate with the identity form is
    returned so the checker can exhibit the violations; ``info.feasible``
    records which case occurred.
    """
    info, v, grad_v, v_batch = _example1_parts(params)
    sigma, rho_hat = info.sigma, info.rho_hat
    cert = RazumikhinCertificate(
        v=v, grad_v=grad_v,
        alpha1=lambda s, c=info.c1: c * s * s,
        alpha2=lambda s, c=info.c2: c * s * s,
        alpha3=lambda s, sg=sigma: 0.999 * sg * s,
        p=lambda r: 2.0 * r,
        rho=lambda r, rh=rho_hat: rh * r,
        v_batch=v_batch,
    )
    return cert, info


def example1_halanay_certificate(
        params: Example1Params
) -> tuple[HalanayCertificate, Example1CertificateInfo]:
    """Linear-form variant: the flow identity gives decay at exactly rate
    sigma, so any 0 < q < sigma works alongside the jump contraction; this
    one takes q = 1e-6."""
    info, v, grad_v, v_batch = _example1_parts(params)
    q = 1e-6
    if not 0 < q < info.sigma:
        raise ValueError(f"q must lie in (0, sigma) = (0, {info.sigma})")
    cert = HalanayCertificate(
        v=v, grad_v=grad_v,
        alpha1=lambda s, c=info.c1: c * s * s,
        alpha2=lambda s, c=info.c2: c * s * s,
        mu=info.sigma, q=q, rho=info.rho_hat,
        v_batch=v_batch,
    )
    return cert, info


@dataclass(frozen=True)
class Example2CertificateInfo:
    flow_margin: float
    jump_margin: float
    gamma3: float
    feasible: bool
    flow_form_value: float      # paper-style binding value of the flow form
    flow_coupling_value: float  # determinant-style condition value
    jump_condition_value: float  # e^(-sigma delta) - rho


def example2_feasibility(params: Example2Params) -> Example2CertificateInfo:
    """Margins of the functional certificate for the delay-with-resets system.

    The flow margin is the negated largest eigenvalue of the quadratic form
    coupling (x(0), x(-r)) over the clock range; the jump margin is
    e^(-sigma delta) - rho^2.  Also reports the closed-form case inequalities
    (at the binding clock value) used to pick parameter instances.
    """
    a, b, rho = params.a, params.b, params.rho
    sigma, mu, delta = params.sigma, params.mu, params.delta
    taus = np.linspace(0.0, delta, 401)
    worst = -np.inf
    for tau in taus:
        w = _exp1(-sigma * tau)
        mat = np.array([[(2 * a - sigma) * w + mu, b * w],
                        [b * w, -mu]])
        worst = max(worst, float(np.linalg.eigvalsh(mat)[-1]))
    flow_margin = -worst
    jump_margin = float(_exp1(-sigma * delta) - rho * rho)

    w_bind = _exp1(-sigma * delta) if sigma < 0 else 1.0
    flow_form = (2 * a - sigma) * w_bind + mu
    flow_coupling = -flow_form * mu - b * b * w_bind * w_bind
    jump_cond = float(_exp1(-sigma * delta) - rho)

    feasible = flow_margin > 0 and jump_margin > 0
    gamma3 = 0.5 * min(flow_margin, jump_margin) if feasible else 0.05
    return Example2CertificateInfo(
        flow_margin=flow_margin, jump_margin=jump_margin, gamma3=gamma3,
        feasible=feasible, flow_form_value=float(flow_form),
        flow_coupling_value=float(flow_coupling),
        jump_condition_value=jump_cond)


def example2_krasovskii_certificate(
        params: Example2Params
) -> tuple[KrasovskiiCertificate, Example2CertificateInfo]:
    """Functional certificate for the delay system with resets.

    Vf(psi) = x(0,0)^2 e^(-sigma tau(0,0)) + mu * integral of x(s, k(s))^2
    over the last r units of time.  The decay rate gamma3 is half the
    smaller of the flow and jump margins (a fixed small value when the
    instance is infeasible, so the checker can exhibit the violations).
    """
    info = example2_feasibility(params)
    sigma, mu, r, delta = params.sigma, params.mu, params.r, params.delta

    def vf(phis: Sequence[HybridMemoryArc]) -> np.ndarray:
        heads = np.array([phi.head for phi in phis]).reshape(len(phis), 2)
        point = heads[:, 0] * heads[:, 0] * _exp(-sigma * heads[:, 1])
        if mu == 0.0:
            return point
        return point + mu * delayed_sq_integral(phis, -r, 0.0,
                                                components=slice(0, 1))

    abs_sig = abs(sigma)
    cert = KrasovskiiCertificate(
        vf=vf,
        alpha1=lambda s: s * s * _exp1(-abs_sig * delta),
        alpha2=lambda s: s * s * (_exp1(abs_sig * delta) + r * mu),
        alpha3=lambda s, g=info.gamma3: g * s * s,
    )
    return cert, info
