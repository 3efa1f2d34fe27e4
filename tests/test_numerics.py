"""Matrix-computation tests with brute-force oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hymem
from hymem.numerics import (InfeasibleError, contraction_factor, expm,
                            solve_discrete_lyapunov, spectral_radius)


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        got = expm(np.diag([1.0, -1.0]))
        assert np.allclose(got, np.diag([np.e, 1 / np.e]), rtol=1e-13)

    def test_nilpotent_series_terminates(self):
        got = expm(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(got, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            expm(np.ones((2, 3)))

    def test_inverse_property(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = rng.normal(size=(4, 4))
            m *= 2.0 / max(np.linalg.norm(m, 2), 1e-9)
            prod = expm(m) @ expm(-m)
            assert np.linalg.norm(prod - np.eye(4)) <= 1e-10

    def test_accuracy_against_eig(self):
        # diagonalizable case with a closed form through the eigensystem
        rng = np.random.default_rng(1)
        for _ in range(10):
            q = rng.normal(size=(3, 3))
            d = np.diag(rng.uniform(-2, 2, size=3))
            m = q @ d @ np.linalg.inv(q)
            want = q @ np.diag(np.exp(np.diag(d))) @ np.linalg.inv(q)
            assert np.allclose(expm(m), want, rtol=1e-9, atol=1e-9)


class TestDiscreteLyapunov:
    def test_h_zero(self):
        p = solve_discrete_lyapunov(np.zeros((3, 3)))
        assert np.allclose(p, np.eye(3))

    def test_scalar_geometric_series(self):
        p = solve_discrete_lyapunov(np.array([[0.5]]))
        assert p[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_residual_bound_random_stable(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            h = rng.normal(size=(n, n))
            h *= 0.9 / max(spectral_radius(h), 1e-12)
            q = np.eye(n)
            p = solve_discrete_lyapunov(h)
            resid = np.linalg.norm(h.T @ p @ h - p + q)
            assert resid <= 1e-10 * np.linalg.norm(q)
            assert np.min(np.linalg.eigvalsh(p)) > 0

    def test_unstable_rejected(self):
        with pytest.raises(InfeasibleError):
            solve_discrete_lyapunov(np.array([[1.5]]))


class TestContractionFactor:
    def test_h_zero(self):
        assert contraction_factor(np.zeros((2, 2)), np.eye(2)) == 0.0

    def test_scalar_scaling(self):
        c = 0.7
        got = contraction_factor(c * np.eye(3), np.eye(3))
        assert got == pytest.approx(c * c, rel=1e-12)

    def test_below_one_iff_lyapunov_decrease(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = rng.normal(size=(3, 3))
            h *= 0.8 / max(spectral_radius(h), 1e-12)
            p = solve_discrete_lyapunov(h)
            assert contraction_factor(h, p) < 1.0

    def test_matches_sampling_oracle(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(3, 3))
        h *= 0.8 / spectral_radius(h)
        p = solve_discrete_lyapunov(h)
        rho = contraction_factor(h, p)
        # brute force: maximize the ratio over random unit directions
        xs = rng.normal(size=(100_000, 3))
        num = np.einsum("ij,jk,ik->i", xs @ h.T, p, xs @ h.T)
        den = np.einsum("ij,jk,ik->i", xs, p, xs)
        best = float(np.max(num / den))
        assert best <= rho + 1e-12
        assert best == pytest.approx(rho, abs=1e-6)

    def test_indefinite_p_rejected(self):
        with pytest.raises(ValueError):
            contraction_factor(np.eye(2), np.diag([1.0, -1.0]))


@pytest.mark.parametrize("module", ["hymem", "hymem.cli"])
def test_import_leaves_scipy_out(module):
    # only example 1's certificate builder needs scipy; it imports it when
    # called
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(hymem.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
