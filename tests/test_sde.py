"""Tests of the oracle's linear model: the matrix exponential, the exact
Van Loan transitions and their stationary covariances, and the model's
independence of the analytic formulas. No Monte Carlo."""

import ast
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sideband_lab.sde as sde
from sideband_lab.model import TWO_PI, BathSpec, ToneConfig
from sideband_lab.presets import preset
from sideband_lab.sde import _expm, _sde_matrices, _squarings, propagator

from conftest import default_layout, equivalence_case, fast_params, tone_with_gamma_opt


class TestMatrixExponential:
    @pytest.mark.parametrize("name", ["oracle-demo", "main-text", "cooled"])
    def test_matches_scipy_on_the_propagators(self, name, monkeypatch):
        from scipy.linalg import expm

        params, baths, cfg = equivalence_case("cooling")[:3] if name == "cooled" else preset(name)
        calls = []  # the Van Loan blocks propagator exponentiates and their squarings, per call
        monkeypatch.setattr(sde, "_expm", lambda m, s: calls.append((m, s)) or _expm(m, s))
        phi = propagator(params, baths, cfg, default_layout(params, cfg).dt)[0]
        # one call per substep, each with one block per slot
        assert len(calls) == (1 if len(phi) == 1 else sde.SUBSTEPS)
        for m, s in calls:
            assert m.shape == (len(phi), 12, 12)
            np.testing.assert_allclose(_expm(m, s), expm(m), rtol=0, atol=1e-13 * np.abs(expm(m)).max())

    def test_matches_scipy_with_squarings(self):
        from scipy.linalg import expm

        m = np.random.default_rng(7).standard_normal((20, 12, 12))
        assert _squarings(m) >= 6
        np.testing.assert_allclose(_expm(m, _squarings(m)), expm(m), rtol=0,
                                   atol=1e-13 * np.abs(expm(m)).max())

    def test_identities(self):
        z = np.zeros((2, 12, 12))
        np.testing.assert_array_equal(_expm(z, _squarings(z)), np.broadcast_to(np.eye(12), (2, 12, 12)))
        d = np.diag(np.linspace(-3.0, 3.0, 12))[None]
        np.testing.assert_allclose(_expm(d, _squarings(d))[0], np.diag(np.exp(np.diag(d[0]))), rtol=1e-14)


def whole_stack_propagator(params, baths, config, dt):
    """propagator as first written: the Van Loan matrices of every slot and
    substep exponentiated as one stack, with the squarings that stack needs."""
    slots = round(TWO_PI / (config.delta_c(params) - config.delta(params)) / dt)
    h = dt / sde.SUBSTEPS
    a, llt = _sde_matrices(params, baths, config, (np.arange(slots * sde.SUBSTEPS) + 0.5) * h)
    block = np.zeros(a.shape[:-2] + (12, 12))
    block[..., :6, :6] = -a
    block[..., :6, 6:] = llt
    block[..., 6:, 6:] = np.swapaxes(a, -1, -2)
    block *= h
    e = _expm(block, _squarings(block))
    phi_k = np.swapaxes(e[..., 6:, 6:], -1, -2)
    q_k = phi_k @ e[..., :6, 6:]
    q_k = (q_k + np.swapaxes(q_k, -1, -2)) / 2.0
    phi, q = np.broadcast_to(np.eye(6), (slots, 6, 6)), np.zeros((slots, 6, 6))
    for k in range(sde.SUBSTEPS):
        sub = phi_k[k::sde.SUBSTEPS]
        phi, q = sub @ phi, sub @ q @ np.swapaxes(sub, -1, -2) + q_k[k::sde.SUBSTEPS]
    live = np.flatnonzero(np.diagonal(q[0]) > 0.0)[:, None]
    factor = np.zeros_like(q)
    factor[:, live, live.T] = np.linalg.cholesky(q[:, live, live.T])
    return phi, q, factor


class TestVanLoanBySubstep:
    """propagator exponentiates one substep of every slot at a time, so it
    never holds the whole period's stack of Van Loan matrices, and gives the
    whole-stack values to the bit."""

    def test_cooled_case(self):
        p, baths, cfg, _ = equivalence_case("cooling")
        dt = default_layout(p, cfg).dt
        propagator(p, baths, cfg, dt)  # lazy imports and caches out of the measurement
        tracemalloc.start()
        try:
            result = propagator(p, baths, cfg, dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result[0]) == 35
        # the whole stack is 35 x 64 matrices of 12 x 12, 2.6 MB, and its Taylor
        # series held about 14 MB
        assert peak < 1e6
        for got, expected in zip(result, whole_stack_propagator(p, baths, cfg, dt)):
            assert got.tobytes() == expected.tobytes()


class TestPropagator:
    def test_dt_halving_consistency(self):
        # the propagator is exact: one step of 2 dt is two steps of dt, and its
        # stationary covariance solves the SDE's Lyapunov equation
        from scipy.linalg import solve_continuous_lyapunov, solve_discrete_lyapunov

        p = fast_params(gamma_m_hz=1000.0)
        red = ToneConfig(tones=(tone_with_gamma_opt(p, 0.2 * p.gamma_m, "red_probe"),))
        bp, bbaths, balanced, _ = equivalence_case("balanced")
        for params, baths, cfg in ((p, BathSpec(n_m=50.0), red), (bp, bbaths, balanced)):
            dt = default_layout(params, cfg).dt
            (phi,), (q,), _ = propagator(params, baths, cfg, dt)
            (phi2,), (q2,), _ = propagator(params, baths, cfg, 2.0 * dt)
            np.testing.assert_allclose(phi2, phi @ phi, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(q2, phi @ q @ phi.T + q, rtol=1e-12,
                                       atol=1e-12 * np.abs(q).max())
            a, llt = _sde_matrices(params, baths, cfg, [0.0])
            a, llt = a[0, :4, :4], llt[:4, :4]
            sigma = solve_discrete_lyapunov(phi[:4, :4], q[:4, :4])
            np.testing.assert_allclose(a @ sigma + sigma @ a.T + llt, 0.0,
                                       atol=1e-12 * np.abs(llt).max())
            np.testing.assert_allclose(sigma, solve_continuous_lyapunov(a, -llt), rtol=1e-12,
                                       atol=1e-12 * np.abs(sigma).max())


class TestEquilibration:
    def test_mechanical_occupation_fluctuation_dissipation(self):
        # drive off, thermal mechanics: the stationary covariance of the exact
        # transitions, Sigma = Phi Sigma Phi^T + Q, holds <|c|^2> = n_m + 1/2
        p = fast_params(kappa_left_hz=50.0, kappa_right_hz=100.0, kappa_internal_hz=0.0,
                        gamma_m_hz=40.0, omega_m_hz=1e5)
        n_m = 4.0
        (phi,), (q,), _ = propagator(p, BathSpec(n_m=n_m), ToneConfig(tones=()), 0.05 / p.gamma_m)
        phi, q = phi[:4, :4], q[:4, :4]  # the state; the output integral restarts every step
        sigma = np.linalg.solve(np.eye(16) - np.kron(phi, phi), q.ravel()).reshape(4, 4)
        np.testing.assert_allclose(phi @ sigma @ phi.T + q, sigma, rtol=0, atol=1e-15 * n_m)
        assert sigma[1, 1] + sigma[3, 3] == pytest.approx(n_m + 0.5, rel=1e-13)


def imported_modules(source: str) -> set[str]:
    """The modules that ``source`` imports anywhere, the package's own as ``.name``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import name
                found.update("." * node.level + alias.name for alias in node.names)
            else:
                found.add("." * node.level + node.module)
    return {"." + m.removeprefix("sideband_lab.") if m.startswith("sideband_lab.") else m
            for m in found}


def test_the_scan_sees_every_form_of_import():
    source = ("from __future__ import annotations\nimport numpy as np, os.path\n"
              "from .model import TWO_PI\nfrom . import scattering\n"
              "def f():\n    from sideband_lab.multitone import sideband_weights\n")
    assert imported_modules(source) == {"__future__", "numpy", "os.path", ".model", ".scattering",
                                        ".multitone"}


def test_the_model_imports_no_analytic_formula():
    # the oracle stays independent of the closed forms: the model needs the
    # standard library, numpy, and the package's errors and parameters only
    source = (Path(__file__).resolve().parents[1] / "src" / "sideband_lab" / "sde.py").read_text()
    modules = imported_modules(source)
    assert {m for m in modules if m.startswith(".")} <= {".errors", ".model"}
    assert {m.split(".")[0] for m in modules if not m.startswith(".")} <= {*sys.stdlib_module_names, "numpy"}
