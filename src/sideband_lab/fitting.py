"""Deterministic damped Gauss-Newton least squares with analytic Jacobians.

One engine backs every fit in the calibration pipeline so that repeated runs
are bit-reproducible: no stochastic restarts, fixed damping schedule, fixed
iteration and convergence thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateData, NonConvergence

__all__ = ["LorentzianFit", "gauss_newton", "fit_lorentzian", "median"]

MAX_ITER = 200
STEP_TOL = 1e-10
# exact to rounding: noise-free calibration tables of the presets fit to at most 5.4
# eps ||data||, and with 1e-13 relative noise to at least 370, a factor of 6 either side
EXACT_ULPS = 32.0


def median(values: np.ndarray) -> float:
    """The median of a 1-d array, equal to ``np.median`` to the bit: the middle
    value, or the mean of the two middle values, of the sorted array; NaN if
    any value is NaN or there are none. Unlike ``np.median`` it does not
    import ``numpy.ma``, which costs 10-30 ms at start-up."""
    s = np.sort(values)
    n = s.size
    if n == 0 or np.isnan(s[-1]):  # the sort puts NaN last
        return math.nan
    if n % 2:  # np.mean's sum starts from +0.0, which turns -0.0 into 0.0
        return float(0.0 + s[n // 2])
    return float((0.0 + s[n // 2 - 1] + s[n // 2]) / 2.0)


def gauss_newton(model_jac: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                 data: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Minimize ||r(x)||^2, r = model(x) - data, given the model and its Jacobian.

    Damped Gauss-Newton: solve (J^T J + lam*diag(J^T J)) step = -J^T r,
    increase lam tenfold on a rejected step, relax threefold on acceptance.
    Converged when the relative step norm drops below 1e-10; raises
    NonConvergence after 200 iterations. Returns (x, covariance,
    residual_norm, n_iter); the covariance is s^2 (J^T J)^-1 with
    s^2 = RSS/(N - p), all zero if exact: ||r|| <= EXACT_ULPS eps ||data||.
    """
    x = np.asarray(x0, dtype=float).copy()
    model, jac = model_jac(x)
    r = model - data
    cost = float(r @ r)
    lam = 0.0
    for iteration in range(1, MAX_ITER + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ r
        diag = np.diag(np.maximum(np.diag(jtj), 1e-300))
        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(jtj + lam * diag, -jtr)
            except np.linalg.LinAlgError:
                raise DegenerateData("normal equations are singular") from None
            model, jac_new = model_jac(x + step)
            r_new = model - data
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                accepted = True
                break
            lam = 10.0 * lam if lam > 0.0 else 1e-4
        if not accepted:
            raise NonConvergence(f"no acceptable step after iteration {iteration}")
        rel_step = np.linalg.norm(step) / max(np.linalg.norm(x), 1e-300)
        x = x + step
        r, jac, cost = r_new, jac_new, cost_new
        lam /= 3.0
        if rel_step < STEP_TOL:
            break
    else:
        raise NonConvergence(f"no convergence in {MAX_ITER} iterations")
    rnorm = float(np.sqrt(cost))
    if rnorm <= EXACT_ULPS * np.finfo(float).eps * np.linalg.norm(data):
        return x, np.zeros((x.size, x.size)), rnorm, iteration
    dof = max(r.size - x.size, 1)
    try:
        cov = np.linalg.inv(jac.T @ jac) * (cost / dof)
    except np.linalg.LinAlgError:
        cov = np.full((x.size, x.size), np.nan)
    return x, cov, rnorm, iteration


@dataclass(frozen=True)
class LorentzianFit:
    """Peak parameters of floor + amplitude/(1 + ((x - center)/(width/2))^2).

    ``width`` is the FWHM; ``covariance`` is ordered (center, width,
    amplitude, floor).
    """

    center: float
    width: float
    amplitude: float
    floor: float
    residual_norm: float
    covariance: np.ndarray

    def __post_init__(self):
        if self.width <= 0:
            raise DegenerateData(f"non-positive fitted width {self.width!r}")

    def uncertainty(self, name: str) -> float:
        idx = {"center": 0, "width": 1, "amplitude": 2, "floor": 3}[name]
        return float(np.sqrt(self.covariance[idx, idx]))


def _lorentzian_initial_guess(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    floor = median(np.concatenate([v[: max(2, x.size // 10)], v[-max(2, x.size // 10):]]))
    dev = v - floor
    peak_idx = int(np.argmax(np.abs(dev)))
    amp = float(dev[peak_idx])
    if abs(amp) < 1e-12 * max(np.max(np.abs(v)), 1.0):
        raise DegenerateData("flat spectrum: no peak to fit")
    half = np.abs(dev) >= abs(amp) / 2.0
    width = max(x[half][-1] - x[half][0], (x[-1] - x[0]) / x.size)
    return np.array([x[peak_idx], width, amp, floor])


def fit_lorentzian(x: np.ndarray, v: np.ndarray) -> LorentzianFit:
    """Four-parameter Lorentzian least squares on values ``v`` at sorted offsets ``x``.

    A repeated x is one more observation. Initialized from a peak/half-maximum
    scan; dips (negative amplitude) are handled. The offsets should hold enough
    points to pin four parameters: `dataio.CALIBRATION_TABLES` asks 20 distinct
    ones of a sideband table.
    """
    if np.ptp(v) <= 1e-14 * max(np.max(np.abs(v)), 1.0):
        raise DegenerateData("flat spectrum: no peak to fit")
    x0 = _lorentzian_initial_guess(x, v)

    def model_jac(p):
        center, width, amp, floor = p
        width = max(abs(width), 1e-300)
        dx = x - center
        denom = dx**2 + width**2 / 4.0
        shape = (width**2 / 4.0) / denom
        jac = np.empty((x.size, 4))
        jac[:, 0] = amp * (width**2 / 4.0) * 2.0 * dx / denom**2
        jac[:, 1] = amp * (width / 2.0) * dx**2 / denom**2
        jac[:, 2] = shape
        jac[:, 3] = 1.0
        return floor + amp * shape, jac

    p, cov, rnorm, _ = gauss_newton(model_jac, v, x0)
    return LorentzianFit(center=float(p[0]), width=float(abs(p[1])),
                         amplitude=float(p[2]), floor=float(p[3]),
                         residual_norm=rnorm, covariance=cov)
