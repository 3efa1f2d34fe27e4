"""Matrix computations for certificate construction.

Matrix exponential, discrete Lyapunov solve, and the quadratic-form
contraction factor.  Matrices are plain numpy arrays (row-major, finite
entries, positive dimensions).  Only example 1's certificate builder needs
scipy, so ``scipy.linalg`` is imported by the functions that call it, and
``import hymem`` does not load it.
"""

from __future__ import annotations

import numpy as np


class InfeasibleError(ValueError):
    """The requested matrix equation has no admissible solution."""


def _square(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must have finite entries")
    return m


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with a Pade core)."""
    import scipy.linalg
    return scipy.linalg.expm(_square(m, "M"))


def spectral_radius(m: np.ndarray) -> float:
    """Largest absolute eigenvalue."""
    return float(np.max(np.abs(np.linalg.eigvals(_square(m, "M")))))


def solve_discrete_lyapunov(h: np.ndarray) -> np.ndarray:
    """Symmetric P > 0 with H^T P H - P = -I.

    Requires the spectral radius of H to be below one; otherwise the fixed
    point series sum_k (H^T)^k H^k diverges and an InfeasibleError is
    raised (stabilizability failure).
    """
    h = _square(h, "H")
    q = np.eye(h.shape[0])
    sr = spectral_radius(h)
    if sr >= 1.0:
        raise InfeasibleError(f"spectral radius {sr:.6g} >= 1; no positive "
                              "definite solution exists")
    import scipy.linalg
    p = scipy.linalg.solve_discrete_lyapunov(h.T, q)
    p = 0.5 * (p + p.T)
    residual = np.linalg.norm(h.T @ p @ h - p + q)
    if residual > 1e-10 * np.linalg.norm(q):
        raise InfeasibleError(f"Lyapunov residual {residual:.3e} exceeds "
                              "1e-10 * ||I||")
    return p


def contraction_factor(h: np.ndarray, p: np.ndarray) -> float:
    """Smallest rho with x^T H^T P H x <= rho x^T P x for all x.

    Equals the largest generalized eigenvalue of (H^T P H, P); below one
    exactly when H^T P H - P is negative definite.
    """
    h = _square(h, "H")
    p = _square(p, "P")
    if not np.allclose(p, p.T, atol=1e-10 * max(1.0, np.linalg.norm(p))):
        raise ValueError("P must be symmetric")
    try:
        np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        raise ValueError("P must be positive definite") from None
    import scipy.linalg
    vals = scipy.linalg.eigh(h.T @ p @ h, p, eigvals_only=True)
    return float(np.max(vals))
