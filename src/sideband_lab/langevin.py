"""Brute-force time-domain cross-check of the analytic spectra.

The linearized rotating-frame equations for the cavity and mechanical
fluctuation envelopes are integrated by Euler-Maruyama with classical
complex Gaussian inputs whose variances are the symmetrized bath strengths
(n_sigma + w_sigma/2). For linear dynamics this classical ensemble has
exactly the symmetrized quantum spectra; normal-ordered spectra are not
reproduced by this construction and are checked analytically elsewhere.

The right-port output d_out = d_in + sqrt(kappa_r) d is boxcar-decimated to
the bandwidth of interest and Welch-averaged into a power spectral density in
quanta, normalized so a flat vacuum input gives 1/2. `oracle_compare` reads
the floor, weights and centres from that PSD with `_measure_peak`, which
takes every feature to be a Lorentzian of full width gamma_tot.

One pure-numpy Euler-Maruyama kernel runs everywhere, vectorized over the
trajectories. Reproducibility: every trajectory draws from its own
counter-based stream, numpy Philox-4x64-10 seeded with
SeedSequence(seed, spawn_key=(index,)), so trajectory j is the same whatever
the number of trajectories run beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StepSizeError
from .model import (
    TWO_PI,
    BathSpec,
    Spectrum,
    SystemParams,
    ToneConfig,
    validate_stability,
)
from .multitone import sideband_weights
from .scattering import noise_floor, single_tone_integrated_weight

RNG_ALGORITHM = "numpy-philox-4x64-10"

__all__ = [
    "SimConfig",
    "TrajectoryOutput",
    "synthesize_input_noise",
    "integrate_langevin",
    "estimate_psd",
    "choose_decimation",
    "oracle_compare",
    "RNG_ALGORITHM",
]


@dataclass(frozen=True)
class SimConfig:
    """Integration and averaging layout for one stochastic run."""

    dt: float
    n_steps: int
    n_trajectories: int
    seed: int
    burn_in: int
    psd_segments: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        for name in ("n_steps", "n_trajectories", "psd_segments"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0 <= self.burn_in < self.n_steps:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < n_steps")

    @classmethod
    def auto(cls, params: SystemParams, config: ToneConfig, *, n_segments: int = 2000,
             seed: int = 0, n_trajectories: int = 64, dt_factor: float = 0.04) -> "SimConfig":
        """dt, lengths and an 8/gamma_tot burn-in within the step gates; 4 PSD bins per gamma_tot."""
        gamma_tot = config.gamma_tot(params)
        dt = min(dt_factor / params.kappa, 9e-4 / gamma_tot)
        t_seg = TWO_PI * 4.0 / gamma_tot
        steps_per_seg = max(2, math.ceil(t_seg / dt))
        segs_per_traj = max(2, math.ceil(n_segments / n_trajectories))
        kept = math.ceil((segs_per_traj + 1) / 2 * steps_per_seg)
        kept = max(kept, math.ceil(51.0 / (gamma_tot * dt)))
        burn = math.ceil(8.0 / (gamma_tot * dt))
        return cls(dt=dt, n_steps=kept + burn, n_trajectories=n_trajectories,
                   seed=seed, burn_in=burn, psd_segments=n_segments)


@dataclass(frozen=True)
class TrajectoryOutput:
    """Decimated right-port output samples for every trajectory.

    ``output_field`` has shape (n_trajectories, (n_steps - burn_in)//decimation)
    and ``sampling`` is the decimated step base_dt * decimation.
    ``mech_abs2`` (optional) holds the per-trajectory time average of |c|^2.
    """

    output_field: np.ndarray
    sampling: float
    decimation: int
    base_dt: float
    mech_abs2: np.ndarray | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.output_field)):
            raise StepSizeError("trajectory diverged: non-finite output samples")


def synthesize_input_noise(params: SystemParams, baths: BathSpec, dt: float,
                           rngs: list[np.random.Generator],
                           n_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-step complex noise increments of the integrator, one column per stream.

    Returns (right, left + intrinsic, mechanical), each of shape
    (n_steps, len(rngs)), with <|xi|^2> per step W_r dt,
    (kappa_l W_l + kappa_i W_i) dt and gamma_m W_m dt, where W = n + w/2 are
    the symmetrized bath strengths. Real and imaginary parts are independent
    with half the variance each. Column j draws (n_steps, 6) standard normals
    from ``rngs[j]`` alone, so it does not depend on the other streams.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    w_r, w_l, w_i, w_m = baths.strengths("symmetrized")
    scale_r = math.sqrt(w_r * dt / 2.0)
    scale_o = math.sqrt((params.kappa_l * w_l + params.kappa_i * w_i) * dt / 2.0)
    scale_m = math.sqrt(params.gamma_m * w_m * dt / 2.0)
    z = np.empty((n_steps, len(rngs), 6))
    for j, rng in enumerate(rngs):
        z[:, j, :] = rng.standard_normal((n_steps, 6))
    return (scale_r * (z[:, :, 0] + 1j * z[:, :, 1]),
            scale_o * (z[:, :, 2] + 1j * z[:, :, 3]),
            scale_m * (z[:, :, 4] + 1j * z[:, :, 5]))


def _drive_terms(params: SystemParams, config: ToneConfig) -> tuple[float, float, float, float, float]:
    """(G+, G-, G_cool, delta, delta_c) in rad/s for the integrator."""
    gp = gm = gc = 0.0
    for tone in config.tones:
        if tone.role == "red_probe":
            gp = tone.coupling_rate(params)
        elif tone.role == "blue_probe":
            gm = tone.coupling_rate(params)
        elif tone.role == "cooling":
            gc = tone.coupling_rate(params)
        else:
            raise ConfigError(
                "generic-role tones are ambiguous for time-domain integration; "
                "use red_probe/blue_probe/cooling"
            )
    delta_c = config.delta_c if config.delta_c is not None else 0.0
    return gp, gm, gc, config.delta, delta_c


def _kernel_numpy(d, c, zr, zo, zm, pp, pc, consts, dec, out, out_col, record, mech_acc):
    # output samples use the midpoint (d_k + d_{k+1})/2, which restores the
    # continuum input-output interference to O((kappa dt)^2)
    dt, half_kappa, half_gamma, gp, gm, gc, sqrt_kr, inv_dt = consts
    nsteps = zr.shape[0]
    acc = np.zeros(d.shape, dtype=np.complex128)
    k = 0
    m = out_col
    for s in range(nsteps):
        p = pp[s]
        q = pc[s]
        cd = np.conj(d)
        cc = np.conj(c)
        drift_d = -half_kappa * d - 1j * (gp * p * c + gm * np.conj(p) * cc + gc * q * c)
        drift_c = -half_gamma * c - 1j * (np.conj(p) * (gp * d + gm * cd) + gc * np.conj(q) * d)
        d_new = d + dt * drift_d - sqrt_kr * zr[s] - zo[s]
        c_new = c + dt * drift_c - zm[s]
        if record:
            acc += zr[s] * inv_dt + sqrt_kr * 0.5 * (d + d_new)
        d[:] = d_new
        c[:] = c_new
        if mech_acc is not None:
            mech_acc += np.abs(c) ** 2
        if record:
            k += 1
            if k == dec:
                out[:, m] = acc / dec
                acc[:] = 0.0
                k = 0
                m += 1
    return m


def integrate_langevin(params: SystemParams, baths: BathSpec, config: ToneConfig,
                       sim: SimConfig, *, decimate: int = 1,
                       record_mech: bool = False) -> TrajectoryOutput:
    """Euler-Maruyama integration of the coupled cavity/mechanics envelopes.

    All configured tones are applied with their rotating phases
    (e^{-+i delta t} beamsplitter / two-mode-squeezing pair, e^{-i delta_c t}
    cooling). Deterministic for a fixed seed. ``decimate`` boxcar-averages
    the output to a lower sampling rate; the response of that boxcar is not
    compensated (see ``choose_decimation`` for the margin that bounds it).
    """
    params.require_good_cavity()
    validate_stability(params, config)
    gamma_tot = config.gamma_tot(params)
    if sim.dt * params.kappa >= 0.05:
        raise StepSizeError(
            f"step gate dt*kappa < 0.05 violated (dt*kappa = {sim.dt * params.kappa:.3g})"
        )
    if sim.dt * gamma_tot >= 1e-3:
        raise StepSizeError(
            f"step gate dt*gamma_tot < 1e-3 violated (dt*gamma_tot = {sim.dt * gamma_tot:.3g})"
        )
    if sim.n_steps * sim.dt <= 50.0 / gamma_tot:
        raise StepSizeError(
            "length gate n_steps*dt > 50/gamma_tot violated "
            f"(T = {sim.n_steps * sim.dt:.3g}, 50/gamma_tot = {50.0 / gamma_tot:.3g})"
        )
    if decimate < 1:
        raise ConfigError("decimate must be >= 1")

    dt = sim.dt
    gp, gm, gc, delta, delta_c = _drive_terms(params, config)
    ntraj = sim.n_trajectories
    kept_steps = sim.n_steps - sim.burn_in
    rngs = [np.random.Generator(np.random.Philox(np.random.SeedSequence(sim.seed, spawn_key=(j,))))
            for j in range(ntraj)]
    d = np.zeros(ntraj, dtype=np.complex128)
    c = np.zeros(ntraj, dtype=np.complex128)
    out = np.empty((ntraj, kept_steps // decimate), dtype=np.complex128)
    mech_acc = np.zeros(ntraj, dtype=np.float64)
    consts = (dt, params.kappa / 2.0, params.gamma_m / 2.0, gp, gm, gc,
              math.sqrt(params.kappa_r), 1.0 / dt)

    # chunks of whole output samples; burn-in ends on a chunk boundary
    chunk = max(decimate, decimate * (8192 // decimate))
    out_col = 0
    step = 0
    while step < sim.n_steps:
        recording = step >= sim.burn_in
        n = min(chunk, (sim.n_steps if recording else sim.burn_in) - step)
        zr, zo, zm = synthesize_input_noise(params, baths, dt, rngs, n)
        t = (step + np.arange(n)) * dt
        out_col = _kernel_numpy(d, c, zr, zo, zm, np.exp(1j * delta * t), np.exp(1j * delta_c * t),
                                consts, decimate, out, out_col, recording,
                                mech_acc if (record_mech and recording) else None)
        step += n

    return TrajectoryOutput(output_field=out[:, :out_col], sampling=dt * decimate,
                            decimation=decimate, base_dt=dt,
                            mech_abs2=mech_acc / kept_steps if record_mech else None)


def _welch_spectrum(traj: TrajectoryOutput, psd_segments: int) -> tuple[Spectrum, int]:
    from scipy import signal  # deferred: only the oracle needs it, not every CLI command

    # The boxcar-decimated white background folds back to an exactly flat
    # density, so no response compensation is applied; narrowband features are
    # attenuated by |H(f)|^2 < 1, kept below ~0.3% by the oversampling margin
    # in choose_decimation.
    kept = traj.output_field.shape[1]
    ntraj = traj.output_field.shape[0]
    segs_per_traj = max(1, math.ceil(psd_segments / ntraj))
    nperseg = min(kept, max(8, int(2 * kept / (segs_per_traj + 1))))

    def count(n):  # 50%-overlap segments of length n over every trajectory
        return ntraj * (1 + max(0, kept - n) // max(1, n - n // 2))

    # shrink until the segment count actually reaches the request
    while nperseg > 8 and count(nperseg) < psd_segments:
        nperseg -= max(1, nperseg // 50)
    noverlap = nperseg // 2
    f, pxx = signal.welch(traj.output_field, fs=1.0 / traj.sampling, window="hann",
                          nperseg=nperseg, noverlap=noverlap, detrend=False,
                          return_onesided=False, scaling="density", axis=-1)
    pxx = pxx.mean(axis=0)
    # engineer's +f axis holds e^{+i 2 pi f t} content; the physics convention
    # f(omega) = int f(t) e^{i omega t} dt places it at omega = -2 pi f
    offsets = -TWO_PI * f
    order = np.argsort(offsets)
    return Spectrum(offsets[order], pxx[order]), count(nperseg)


def estimate_psd(traj: TrajectoryOutput, psd_segments: int) -> Spectrum:
    """Welch PSD of the output field in quanta (flat vacuum input gives 1/2).

    Two-sided over the decimated bandwidth, Hann window, 50% overlap,
    averaged over segments and trajectories, reported on the offset-from-
    cavity grid.
    """
    spec, _ = _welch_spectrum(traj, psd_segments)
    return spec


def choose_decimation(params: SystemParams, config: ToneConfig, sim: SimConfig) -> int:
    """Largest decimation that keeps the peaks well inside the folded band.

    32x oversampling of the outermost feature, 12 gamma_tot beyond the
    farthest peak, keeps the boxcar attenuation of a peak below ~0.32%
    (sinc^2 at 1/32 of the output rate).
    """
    gamma_tot = config.gamma_tot(params)
    span = abs(config.delta) + 12.0 * gamma_tot
    fs_needed = 32.0 * span / TWO_PI
    return max(1, int(1.0 / (fs_needed * sim.dt)))


def _measure_peak(spec: Spectrum, centers: list[float], gamma_tot: float):
    """(floor, weights, centroids) of the Lorentzian features at ``centers``.

    The floor is the median farther than 12 gamma_tot from every centre. The
    sums above it over +-4 gamma_tot around each centre are solved for the
    share of every feature's Lorentzian (full width gamma_tot) in each window,
    which restores the cut tails and removes the leakage between features.
    Weights are in domega/2pi units, negative for dips; a centroid is the first
    moment of |values - floor| over the window. The grid must be uniform.
    """
    x = spec.freq_offsets
    centers = np.asarray(centers, dtype=float)
    far = np.ones(x.size, dtype=bool)
    for center in centers:
        far &= np.abs(x - center) > 12.0 * gamma_tot
    floor = float(np.median(spec.values[far]))
    step = (x[-1] - x[0]) / (x.size - 1)
    sums = np.empty(centers.size)
    shares = np.empty((centers.size, centers.size))
    centroids = []
    for i, center in enumerate(centers):
        inside = np.abs(x - center) <= 4.0 * gamma_tot
        xw = x[inside]
        v = spec.values[inside] - floor
        sums[i] = np.sum(v) * step / TWO_PI
        lo, hi = xw[0] - step / 2.0, xw[-1] + step / 2.0
        shares[i] = (np.arctan(2.0 * (hi - centers) / gamma_tot)
                     - np.arctan(2.0 * (lo - centers) / gamma_tot)) / np.pi
        norm = np.sum(np.abs(v))
        centroids.append(float(np.sum(xw * np.abs(v)) / norm) if norm > 0 else float(center))
    weights = np.linalg.solve(shares, sums)
    return floor, [float(w) for w in weights], centroids


def oracle_compare(params: SystemParams, baths: BathSpec, config: ToneConfig,
                   sim: SimConfig) -> tuple[dict, Spectrum]:
    """Run the stochastic oracle and compare against the analytic spectra.

    Returns (report, mc_spectrum): a JSON-ready report with analytic and
    Monte-Carlo Lorentzian weights, floors and centers for every sideband
    present, plus the estimated spectrum. Disagreement is reported as-is;
    nothing is rescaled.
    """
    from .config import describe_run

    traj = integrate_langevin(params, baths, config, sim,
                              decimate=choose_decimation(params, config, sim))
    spec, n_segments = _welch_spectrum(traj, sim.psd_segments)

    peaks = []
    if config.has_probe_pair:
        w_anti, w_stokes = sideband_weights(params, baths, config)
        peaks.append(("anti_stokes", -config.delta, w_anti))
        peaks.append(("stokes", +config.delta, w_stokes))
    else:
        single = [t for t in config.tones if t.role in ("red_probe", "blue_probe")]
        if len(single) != 1:
            raise ConfigError("oracle_compare needs a probe pair or a single probe tone")
        tone = single[0]
        sign = +1 if tone.role == "red_probe" else -1
        w = single_tone_integrated_weight(params, baths, tone, sign, "symmetrized")
        peaks.append(("peak", -config.delta if sign == +1 else config.delta, w))

    floor_analytic = noise_floor(params, baths)
    mc_floor, mc_weights, mc_centers = _measure_peak(spec, [c for _, c, _ in peaks],
                                                     config.gamma_tot(params))
    report = {
        "config_hash": describe_run(params, baths, config, sim)["config_hash"],
        "seed": sim.seed,
        "rng": RNG_ALGORITHM,
        "n_segments": int(n_segments),
        "decimation": traj.decimation,
        "analytic_floor": floor_analytic,
        "mc_floor": mc_floor,
        "floor_rel_err": abs(mc_floor - floor_analytic) / abs(floor_analytic),
        "analytic_weight": {},
        "mc_weight": {},
        "rel_err": {},
        "mc_center": {},
    }
    for (name, _, w_analytic), w_mc, centroid in zip(peaks, mc_weights, mc_centers):
        report["analytic_weight"][name] = w_analytic
        report["mc_weight"][name] = w_mc
        report["rel_err"][name] = abs(w_mc - w_analytic) / abs(w_analytic) if w_analytic else math.inf
        report["mc_center"][name] = centroid
    return report, spec
