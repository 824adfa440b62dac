"""The oracle's linear model: the linearized rotating-frame equations of the
cavity and mechanical envelopes as an SDE, and its exact transitions. It
imports none of the analytic formulas, so the oracle stays independent of them.

Linear equations need no small steps: each output sample is one exact
Gaussian transition (Van Loan, IEEE TAC 23, 395 (1978)). In the frame
c~ = c e^{i delta t} the probe tones have constant coefficients. The state
(Re d, Re c~, Im d, Im c~) is augmented with the integral I of the right-port
output d_in + sqrt(kappa_r) d, reset at every sample, so I/dt is the exact
boxcar-averaged output. One 12x12 matrix exponential gives the transition
Phi and noise covariance Q over the output step dt; a step is
X+ = Phi X + eta, eta ~ N(0, Q). A cooling tone leaves e^{+-i Omega t},
Omega = delta_c - delta, in the coefficients, so dt is a whole fraction
2 pi/(|Omega| P) of that period and each of the P phase slots has its own
(Phi_j, Q_j), composed from 64 piecewise-constant substeps. `_expm`
evaluates the exponentials of a stack of blocks at once, by scaling and
squaring a Taylor series; `propagator` passes it one substep of every slot
at a time, with the squarings that the whole period's stack needs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StepSizeError
from .model import TWO_PI, BathSpec, SystemParams, ToneConfig

SUBSTEPS = 64  # piecewise-constant Van Loan substeps per Floquet slot
TAYLOR_DEGREE = 18  # of _expm's series

__all__ = ["cooling_rate", "propagator"]


def cooling_rate(params: SystemParams, config: ToneConfig) -> float | None:
    """Omega = delta_c - delta > 0, the rate of a cooling tone's rotating coefficients, or None."""
    delta_c = config.delta_c(params)
    return None if delta_c is None else delta_c - config.delta(params)


def _sde_matrices(params: SystemParams, baths: BathSpec, config: ToneConfig,
                  times) -> tuple[np.ndarray, np.ndarray]:
    """(A per time, LL^T) of dZ = A Z dt + L dW, Z = (Re d, Re c~, Im d, Im c~, Re I, Im I)."""
    rates = {"red_probe": 0.0, "blue_probe": 0.0, "cooling": 0.0}
    for tone in config.tones:
        rates[tone.role] = tone.coupling_rate(params)
    gp, gm, gc = rates.values()
    rot = gc * np.exp(1j * (cooling_rate(params, config) or 0.0) * np.asarray(times))
    # (d, c~)' = m (d, c~) + n (d, c~)^*, written out in real and imaginary parts
    m = np.empty(rot.shape + (2, 2), dtype=np.complex128)
    m[:, 0, 0] = -params.kappa / 2.0
    m[:, 0, 1] = -1j * (gp + rot)
    m[:, 1, 0] = -1j * (gp + np.conj(rot))
    m[:, 1, 1] = -params.gamma_m / 2.0 + 1j * config.delta(params)
    n = np.array([[0.0, -1j * gm], [-1j * gm, 0.0]])
    a = np.zeros(rot.shape + (6, 6))
    a[:, :2, :2], a[:, :2, 2:4] = (m + n).real, (n - m).imag
    a[:, 2:4, :2], a[:, 2:4, 2:4] = (m + n).imag, (m - n).real
    sqrt_kr = math.sqrt(params.kappa_r)
    a[:, 4, 0] = a[:, 5, 2] = sqrt_kr
    # white inputs, half in each quadrature: the right port enters d as
    # -sqrt(kappa_r) d_in and I as +d_in; left + intrinsic enter d, mechanics c~
    w_r, w_l, w_i, w_m = baths.strengths("symmetrized")
    llt = np.zeros((6, 6))
    for d, c, i in ((0, 1, 4), (2, 3, 5)):
        llt[np.ix_((d, i), (d, i))] = w_r / 2.0 * np.array([[params.kappa_r, -sqrt_kr],
                                                            [-sqrt_kr, 1.0]])
        llt[d, d] += (params.kappa_l * w_l + params.kappa_i * w_i) / 2.0
        llt[c, c] = params.gamma_m * w_m / 2.0
    return a, llt


def _squarings(m: np.ndarray) -> int:
    """The squarings s of `_expm` that bring every 1-norm of the stack ``m`` to at most 1/4."""
    norm = float(np.abs(m).sum(axis=-2).max())
    return math.ceil(math.log2(max(4.0 * norm, 1.0)))


def _expm(m: np.ndarray, s: int) -> np.ndarray:
    """e^m of each matrix in the stack ``m``: scaling by 2^-s, a degree-18
    Taylor series by Horner's rule, then s squarings. With s at least
    ``_squarings(m)`` the truncation error, (1/4)^19/19!, is far below
    rounding; each matrix's result depends only on that matrix and s."""
    m = m / 2.0**s
    eye = np.eye(m.shape[-1])
    e = eye + m / TAYLOR_DEGREE
    for k in range(TAYLOR_DEGREE - 1, 0, -1):
        e = eye + (m @ e) / k
    for _ in range(s):
        e = e @ e
    return e


def _van_loan_block(a: np.ndarray, llt: np.ndarray, dt: float) -> np.ndarray:
    """The 12x12 Van Loan matrix over dt (Van Loan 1978) of each drift in the stack ``a``."""
    block = np.zeros(a.shape[:-2] + (12, 12))
    block[..., :6, :6] = -a
    block[..., :6, 6:] = llt
    block[..., 6:, 6:] = np.swapaxes(a, -1, -2)
    return block * dt


def _van_loan(block: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact (Phi, Q) of each Van Loan matrix in the stack ``block``, exponentiated with s squarings."""
    e = _expm(block, s)
    phi = np.swapaxes(e[..., 6:, 6:], -1, -2)
    q = phi @ e[..., :6, 6:]
    return phi, (q + np.swapaxes(q, -1, -2)) / 2.0


def propagator(params: SystemParams, baths: BathSpec, config: ToneConfig,
               dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi, q, factor), each (P, 6, 6): the exact transition and noise
    covariance over the output step ``dt`` for each phase slot j = step mod P
    of the cooling period (P = 1 without one), and the Cholesky factor of q
    (zero where a coordinate gets no noise).

    With a cooling tone, slot j composes SUBSTEPS piecewise-constant
    substeps. Substep k of every slot is exponentiated in one call, so no
    more than P Van Loan matrices are held at a time; the squarings are those
    of the whole stack of P x SUBSTEPS matrices, found in a first pass."""
    omega = cooling_rate(params, config)
    slots, substeps = 1, 1
    if omega is not None:
        period = TWO_PI / omega
        slots, substeps = round(period / dt), SUBSTEPS
        if slots < 1 or abs(slots * dt - period) > 1e-9 * period:
            raise StepSizeError(f"output step {dt:.6g} s is not a whole fraction of the "
                                f"cooling period {period:.6g} s")
    h = dt / substeps

    def blocks(k):  # substep k of every slot, at its midpoint time
        return _van_loan_block(*_sde_matrices(params, baths, config,
                                              (np.arange(slots) * substeps + k + 0.5) * h), h)

    s = max(_squarings(blocks(k)) for k in range(substeps))
    phi, q = np.broadcast_to(np.eye(6), (slots, 6, 6)), np.zeros((slots, 6, 6))
    for k in range(substeps):  # compose the substeps of every slot at once
        sub, q_k = _van_loan(blocks(k), s)
        phi, q = sub @ phi, sub @ q @ np.swapaxes(sub, -1, -2) + q_k
    live = np.flatnonzero(np.diagonal(q[0]) > 0.0)[:, None]
    factor = np.zeros_like(q)
    factor[:, live, live.T] = np.linalg.cholesky(q[:, live, live.T])
    return phi, q, factor
