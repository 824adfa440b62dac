"""Exact time-domain cross-check of the analytic spectra.

The linear model of `sde` is driven by classical complex Gaussian inputs of
intensity n_sigma + w_sigma/2, which for linear dynamics gives exactly the
symmetrized quantum spectra (normal-ordered ones are checked analytically
elsewhere); each output sample is one exact transition of `sde.propagator`.

The samples are Welch-averaged (Hann window, 50% overlap, `numpy.fft`) into
a PSD in quanta (flat vacuum gives 1/2); `_measure_peak` reads floor,
weights and centres from it, taking every feature to be a Lorentzian of full
width gamma_tot. Trajectory j draws six standard normals per step from its
own Philox-4x64-10 stream, SeedSequence(seed, spawn_key=(j,)), and its
arithmetic is elementwise, so it is the same whatever the number of
trajectories run beside it. The module needs numpy only; `SimConfig` refuses
a layout whose output samples would take more than 2 GiB.

Layout of the hot path. A worker runs its trajectories in blocks of at most
BLOCK = 64, one block after another through one set of buffers, allocated
once per worker for its widest block and viewed contiguous at each block's
width. Per chunk of CHUNK = 256 output steps, each stream fills its own
contiguous (steps, 6) row of a (trajectories, steps, 6) buffer. One copy
moves the chunk to a trajectories-last noise buffer (6, steps,
trajectories), where the lower-triangular factor maps it in place, last row
first, through two scratch planes. The step loop writes X into a
(steps + 1, 4, trajectories) array with ufunc ``out=`` arguments, and the
output rows are mapped over the whole chunk into a ring of nperseg + CHUNK
samples per trajectory, which keeps the samples of unfinished segments.
Each value goes through the same operations in the same order whatever the
chunk length or the block, so no output sample depends on CHUNK or BLOCK.
Per trajectory of a block, the chunk buffers take about 3 x CHUNK x 6 x 8
bytes, the ring (nperseg + CHUNK) x 16 and the power sums nperseg x 8:
about 37, 50 and 23 KB at criterion 1 (nperseg = 2880).

Welch runs inside the integrator: `_welch_layout` fixes nperseg, the hop and
the segments per trajectory before the run. As soon as a segment's last
sample is in the ring, the worker windows and transforms it, WELCH_BLOCK = 4
trajectories at a time through one complex (WELCH_BLOCK, nperseg) buffer, and
adds |X|^2 into its block's (trajectories, nperseg) power sums, so each
trajectory's segments are summed in order. When a block is done, worker 0
adds its rows, in trajectory order, into a shared (nperseg,) sum; the other
workers copy theirs into shared rows, which the caller adds in order after
the join. The additions are those of summing all the rows in trajectory
order, whatever the workers and blocks, and `_welch_spectrum` only scales
and orders the sum. No process holds the output samples unless a caller
records them.

Trajectories are split between workers, one per CPU that the process may run
on, at most one per trajectory: `_fork_join` forks every worker, and each
writes into anonymous shared mappings, so the calling process holds no
block's buffers. `_share` gives each worker a contiguous range of
trajectories, which it integrates and transforms, and splits that range into
near-equal blocks, so no process touches another's rows. Each worker flags
its non-finite output chunks, and the caller raises for them. No output bit
depends on the worker count. ``timings`` are worker 0's: ``noise`` is its
draws and map, ``noise_wait`` the draws alone, ``welch`` its transforms; all
three are part of ``propagate``, which the caller times.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StepSizeError, ValidityError
from .fitting import median
from .model import TWO_PI, BathSpec, Spectrum, SystemParams, ToneConfig
from .multitone import multitone_spectra, sideband_weights
from .scattering import noise_floor, single_tone_integrated_weight, single_tone_spectrum
from .sde import cooling_rate, propagator

RNG_ALGORITHM = "numpy-philox-4x64-10"
CHUNK = 256  # output steps drawn at a time
BLOCK = 64  # trajectories a worker integrates at a time, which bounds its buffers
WELCH_BLOCK = 4  # trajectories transformed at once, which bounds the transform buffer
MAX_OUTPUT_BYTES = 2 * 2**30  # memory guard on the output samples a run produces

__all__ = ["SimConfig", "TrajectoryOutput", "integrate_langevin", "oracle_compare",
           "RNG_ALGORITHM"]


def _ceil(x: float) -> int:
    """``math.ceil``, except that a ratio within 1e-9 relative of an integer is
    that integer: a layout must not move with the last bit of a detuning."""
    n = round(x)
    return n if abs(x - n) <= 1e-9 * abs(x) else math.ceil(x)


@dataclass(frozen=True)
class SimConfig:
    """Layout of one stochastic run: output step dt (s), lengths in output steps."""

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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.burn_in < self.n_steps:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < n_steps")
        output = 16 * self.n_trajectories * (self.n_steps - self.burn_in)  # complex128
        if output > MAX_OUTPUT_BYTES:
            raise ConfigError(f"the output would take {output / 2**30:.3g} GiB, more than the "
                              f"{MAX_OUTPUT_BYTES / 2**30:g} GiB memory guard; "
                              "ask for fewer segments or trajectories")

    @classmethod
    def auto(cls, params: SystemParams, config: ToneConfig, *, n_segments: int = 2000,
             seed: int = 0, n_trajectories: int = 64) -> "SimConfig":
        """dt, lengths and an 8/gamma_tot burn-in; 4 PSD bins per gamma_tot.

        Sampling 32x the span to 12 gamma_tot beyond the farthest peak keeps
        the boxcar attenuation of a peak below ~0.32%; a cooling tone rounds
        dt down to a whole fraction of its period."""
        if n_trajectories < 1:  # before it divides the segments
            raise ConfigError("n_trajectories must be >= 1")
        gamma_tot = config.gamma_tot(params)
        dt = TWO_PI / (32.0 * (abs(config.delta(params)) + 12.0 * gamma_tot))
        omega = cooling_rate(params, config)
        if omega is not None:
            dt = TWO_PI / omega / _ceil(TWO_PI / omega / dt)
        t_seg = TWO_PI * 4.0 / gamma_tot
        steps_per_seg = max(2, _ceil(t_seg / dt))
        segs_per_traj = max(2, _ceil(n_segments / n_trajectories))
        kept = _ceil((segs_per_traj + 1) / 2 * steps_per_seg)
        kept = max(kept, _ceil(51.0 / (gamma_tot * dt)))
        burn = _ceil(8.0 / (gamma_tot * dt))
        return cls(dt=dt, n_steps=kept + burn, n_trajectories=n_trajectories,
                   seed=seed, burn_in=burn, psd_segments=n_segments)


@dataclass(frozen=True)
class TrajectoryOutput:
    """Welch power of a run: ``power``, (nperseg,), sums |FFT|^2 over the
    Hann-windowed segments of every trajectory, each trajectory's segments in
    order and then the trajectories in order, of the right-port output
    averaged over ``sampling`` seconds per sample; ``segments`` counts them
    over all trajectories. Also the Floquet ``slots``, stage ``timings`` and
    the output samples, (n_trajectories, n_steps - burn_in) if the run
    recorded them, else (n_trajectories, 0). ``decimation`` (1) is kept for
    the tracer. `integrate_langevin` refuses non-finite samples; this class
    checks nothing."""

    power: np.ndarray
    segments: int
    sampling: float
    output_field: np.ndarray
    slots: int = 1
    timings: dict = field(default_factory=dict)
    decimation: int = 1


def _slot_coefficients(matrices: np.ndarray, first_step: int, n_steps: int) -> np.ndarray:
    """The entries of each step's slot matrix: (rows, cols) scalars for one slot,
    else a (rows, cols, n_steps, 1) stack that broadcasts over trajectories."""
    if len(matrices) == 1:
        return matrices[0]
    return matrices[(first_step + np.arange(n_steps)) % len(matrices)].transpose(1, 2, 0)[..., None]


def _draw_normals(rngs: list[np.random.Generator], raw: np.ndarray) -> None:
    """Fill row j of ``raw`` (trajectories, steps, 6) with standard normals of ``rngs[j]``."""
    for rng, row in zip(rngs, raw):
        rng.standard_normal(out=row)


def _map_normals(factor: np.ndarray, raw: np.ndarray, first_step: int,
                 eta: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """eta[:, :steps], (6, steps, trajectories), of the standard normals ``raw``
    (trajectories, steps, 6) of steps first_step, ..., each mapped by its slot's
    factor in place; ``scratch`` holds two (steps, trajectories) planes."""
    n_steps = raw.shape[1]
    z = eta[:, :n_steps]
    np.copyto(z, raw.transpose(2, 1, 0))
    f = _slot_coefficients(factor, first_step, n_steps)
    acc, term = scratch[:, :n_steps]
    # the factor is lower triangular: row i adds terms 0..i in order, and
    # overwrites z[i] once no later row needs it
    for i in range(5, 0, -1):
        np.multiply(f[i, 0], z[0], out=acc)
        for k in range(1, i):
            np.multiply(f[i, k], z[k], out=term)
            np.add(acc, term, out=acc)
        np.multiply(f[i, i], z[i], out=term)
        np.add(acc, term, out=z[i])
    np.multiply(f[0, 0], z[0], out=z[0])
    return z


def _workers(blocks: int) -> int:
    """One worker per CPU that this process may run on, at most one per block of work."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, blocks)


def _share(n: int, workers: int, worker: int) -> slice:
    """Worker ``worker``'s contiguous share of n items split between ``workers``."""
    return slice(n * worker // workers, n * (worker + 1) // workers)


def _shared(shape: tuple, dtype=np.float64) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping, which forked workers write into."""
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1))  # an empty mapping is refused
    return np.frombuffer(buffer, dtype, count).reshape(shape)


def _fork_join(workers: int, run) -> None:
    """Run ``run(0)``, ..., ``run(workers - 1)`` in forked children (here, in
    turn, without ``os.fork``), which report through shared mappings only and
    call no BLAS: a forked child has one thread. They are awaited in worker
    order; the first failure seen has the rest killed and raises
    ChildProcessError naming it. A child that raises prints its traceback."""
    if not hasattr(os, "fork"):
        for worker in range(workers):
            run(worker)
        return
    pids = []  # the children not yet reaped, in worker order
    try:
        for worker in range(workers):
            pid = os.fork()
            if pid == 0:
                try:
                    run(worker)
                    os._exit(0)
                except BaseException:
                    import traceback

                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(1)
            pids.append(pid)
        for worker in range(workers):
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            if status:
                raise ChildProcessError(f"forked worker {worker} of {workers} failed with exit "
                                        f"code {os.waitstatus_to_exitcode(status)}")
    finally:
        for pid in pids:  # left after a failure, or if this process is interrupted
            os.kill(pid, 9)  # SIGKILL; importing signal would cost every command its enums
            os.waitpid(pid, 0)


def _welch_layout(kept: int, ntraj: int, psd_segments: int) -> tuple[int, int, int]:
    """(nperseg, hop, segments per trajectory) of Welch with 50% overlap over
    ``kept`` samples of each of ``ntraj`` trajectories: the longest segment
    whose count over every trajectory reaches ``psd_segments``."""
    segs_per_traj = max(1, math.ceil(psd_segments / ntraj))
    nperseg = min(kept, max(8, int(2 * kept / (segs_per_traj + 1))))

    def count(n):  # 50%-overlap segments of length n over one trajectory
        return 1 + (kept - n) // (n - n // 2)

    # shrink until the segment count actually reaches the request
    while nperseg > 8 and ntraj * count(nperseg) < psd_segments:
        nperseg -= max(1, nperseg // 50)
    return nperseg, nperseg - nperseg // 2, count(nperseg)


def _hann(n: int) -> np.ndarray:
    """The periodic Hann window of n points."""
    return 0.5 - 0.5 * np.cos(TWO_PI * np.arange(n) / n)


def integrate_langevin(params: SystemParams, baths: BathSpec, config: ToneConfig,
                       sim: SimConfig, *, record_field: bool = False) -> TrajectoryOutput:
    """Exact output-rate propagation of the coupled cavity/mechanics envelopes,
    with each trajectory's Welch power summed as its segments complete.

    All configured tones are applied with their rotating phases
    (e^{-+i delta t} beamsplitter / two-mode-squeezing pair, e^{-i delta_c t}
    cooling). Deterministic for a fixed seed. The output samples are kept only
    with ``record_field``.
    """
    params.require_good_cavity()
    gamma_tot = config.gamma_tot(params)
    if sim.n_steps * sim.dt <= 50.0 / gamma_tot:
        raise StepSizeError(
            "length gate n_steps*dt > 50/gamma_tot violated "
            f"(T = {sim.n_steps * sim.dt:.3g}, 50/gamma_tot = {50.0 / gamma_tot:.3g})"
        )

    start = time.perf_counter()
    phi, _, factor = propagator(params, baths, config, sim.dt)
    setup = time.perf_counter() - start
    slots, ntraj, kept = len(phi), sim.n_trajectories, sim.n_steps - sim.burn_in
    rngs = [np.random.Generator(np.random.Philox(np.random.SeedSequence(sim.seed, spawn_key=(j,))))
            for j in range(ntraj)]
    chunks, step = [], 0  # (first step, steps); burn-in ends on a chunk boundary
    while step < sim.n_steps:
        n = min(CHUNK, (sim.n_steps if step >= sim.burn_in else sim.burn_in) - step)
        chunks.append((step, n))
        step += n
    nperseg, hop, segments = _welch_layout(kept, ntraj, sim.psd_segments)
    window = _hann(nperseg)
    out = _shared((ntraj, kept), np.complex128) if record_field else np.empty((ntraj, 0), np.complex128)
    inv_dt = 1.0 / sim.dt
    workers = _workers(ntraj)
    diverged = _shared((workers,), np.bool_)
    stages = _shared((3,))  # worker 0's noise, noise_wait and welch seconds
    # worker 0 folds its blocks' power into the sum; the others' rows are folded after the join
    total = _shared((nperseg,))
    rest_start = _share(ntraj, workers, 0).stop
    rest = _shared((ntraj - rest_start, nperseg))
    size = min(CHUNK, sim.n_steps)

    def shapes(w):
        """The buffers of a block of w trajectories: normals, Phi_xx spread over the
        trajectories (so that the product of a step is one contiguous pass), noise, two
        scratch planes, states (state[s] meets step s's noise), products, a ring of output
        samples, as float64 pairs, and the trajectories' power sums."""
        return ((w, size, 6), (slots, 4, 4, w), (6, size, w), (2, size, w), (size + 1, 4, w),
                (4, 4, w), (w, nperseg + CHUNK, 2), (w, nperseg))

    def run(worker: int) -> None:  # a contiguous range of trajectories, a block at a time
        rows = _share(ntraj, workers, worker)
        n_rows = rows.stop - rows.start
        n_blocks = math.ceil(n_rows / BLOCK)
        widest = math.ceil(n_rows / n_blocks)
        # one flat store per buffer, sized for the widest block, viewed contiguous at each width
        stores = [np.empty(math.prod(shape)) for shape in shapes(widest)]
        spec = np.empty((min(WELCH_BLOCK, widest), nperseg), np.complex128)
        multiply, add_reduce, add = np.multiply, np.add.reduce, np.add
        noise_s = noise_wait_s = welch_s = 0.0
        for b in range(n_blocks):
            share = _share(n_rows, n_blocks, b)
            block = slice(rows.start + share.start, rows.start + share.stop)
            streams, width = rngs[block], share.stop - share.start
            raw, phi_x, noise, scratch, state, products, ring, power = (
                store[:math.prod(shape)].reshape(shape) for store, shape in zip(stores, shapes(width)))
            ring = ring.view(np.complex128)[..., 0]
            np.copyto(phi_x, phi[:, :4, :4, None])
            state[0], power[:] = 0.0, 0.0
            # ring[:, i] holds kept sample base + i; a segment is transformed once complete,
            # and a chunk that would run past the end first moves the unfinished ones to the front
            base = done = 0  # the ring's first sample, and the segments transformed
            for step, n in chunks:
                began = time.perf_counter()
                _draw_normals(streams, raw[:, :n])
                drawn = time.perf_counter()
                eta = _map_normals(factor, raw[:, :n], step, noise, scratch)
                noise_wait_s += drawn - began
                noise_s += time.perf_counter() - began
                # a sum over a short middle axis adds in a fixed order, unlike BLAS, so a
                # trajectory does not depend on the ensemble size; out= is positional
                # and the ufuncs are locals because the per-call overhead is most of a step
                for phi_s, x, x_next, eta_s in zip(itertools.islice(itertools.cycle(phi_x), step % slots, None),
                                                   state[:n], state[1:], eta[:4].swapaxes(0, 1)):
                    multiply(phi_s, x, products)
                    add_reduce(products, 1, None, x_next)
                    add(x_next, eta_s, x_next)
                if step >= sim.burn_in:
                    t = step - sim.burn_in
                    if t + n > base + ring.shape[1]:  # keep only the unfinished segments' samples
                        keep = min(done * hop, t)
                        for row in ring:
                            row[:t - keep] = row[keep - base:t - base]
                        base = keep
                    # the output rows: (eta_I + Phi_I x)/dt, terms added in the order of x;
                    # times 1/dt is to the bit numpy's complex division by the real dt
                    f = _slot_coefficients(phi[:, 4:, :4], step, n)
                    dest = ring[:, t - base:t - base + n]
                    term = scratch[1, :n]
                    for r, part in enumerate((dest.real, dest.imag)):
                        y = eta[4 + r]
                        for k in range(4):
                            np.multiply(f[r, k], state[:n, k], out=term)
                            np.add(y, term, out=y)
                        np.multiply(y, inv_dt, out=y)
                        np.copyto(part, y.T)
                    diverged[worker] |= not np.isfinite(dest).all()
                    if record_field:
                        out[block, t:t + n] = dest
                    began = time.perf_counter()
                    # each trajectory's |X|^2 added in segment order, WELCH_BLOCK rows at a time
                    while done < segments and done * hop + nperseg <= t + n:
                        first = done * hop - base
                        for i in range(0, width, WELCH_BLOCK):
                            buf = spec[:min(WELCH_BLOCK, width - i)]
                            np.multiply(ring[i:i + len(buf), first:first + nperseg], window, out=buf)
                            np.fft.fft(buf, axis=-1, out=buf)
                            re, im = buf.real, buf.imag  # |X|^2 squared in place
                            np.square(re, out=re)
                            np.square(im, out=im)
                            np.add(power[i:i + len(buf)], np.add(re, im, out=re), out=power[i:i + len(buf)])
                        done += 1
                    welch_s += time.perf_counter() - began
                state[0] = state[n]
            if worker:  # a shared row per trajectory
                rest[block.start - rest_start:block.stop - rest_start] = power
            else:  # the sum in trajectory order, as each block finishes
                for row in power:
                    np.add(total, row, out=total)
                stages[:] = noise_s, noise_wait_s, welch_s  # its stage times so far

    with np.errstate(over="ignore", invalid="ignore"):  # a diverged run raises below
        _fork_join(workers, run)
    if diverged.any():  # raised here: a child's raise would be a ChildProcessError
        raise StepSizeError("trajectory diverged: non-finite output samples")
    for row in rest:  # the other workers' trajectories, in order
        np.add(total, row, out=total)
    stage_s = dict(zip(("noise", "noise_wait", "welch"), stages.tolist()))
    timings = {"propagator_setup": setup, **stage_s, "propagate": time.perf_counter() - start - setup}
    return TrajectoryOutput(power=total, segments=ntraj * segments, sampling=sim.dt,
                            output_field=out, slots=slots, timings=timings)


def _welch_spectrum(traj: TrajectoryOutput) -> tuple[Spectrum, int]:
    """(PSD in quanta, segment count): two-sided Welch, Hann window, 50% overlap,
    averaged over segments and trajectories, on the offset-from-cavity grid."""
    # The boxcar-averaged white background folds back to an exactly flat
    # density, so no response compensation is applied; SimConfig.auto's output
    # rate keeps the boxcar's attenuation of a peak below ~0.3%.
    nperseg = traj.power.size
    pxx = traj.power * (traj.sampling / (np.sum(_hann(nperseg) ** 2) * traj.segments))
    f = np.fft.fftfreq(nperseg, traj.sampling)
    # engineer's +f axis holds e^{+i 2 pi f t} content; the physics convention
    # f(omega) = int f(t) e^{i omega t} dt places it at omega = -2 pi f
    offsets = -TWO_PI * f
    order = np.argsort(offsets)
    return Spectrum(offsets[order], pxx[order]), traj.segments


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
    floor = median(spec.values[far])
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


def oracle_compare(params: SystemParams, baths: BathSpec, config: ToneConfig, *, n_segments: int,
                   seed: int, n_trajectories: int
                   ) -> tuple[dict, Spectrum, dict[str, Spectrum] | Spectrum]:
    """Run the stochastic oracle in the layout of `SimConfig.auto` and compare
    against the analytic spectra.

    Returns (report, mc_spectrum, analytic): a JSON-ready report with analytic
    and Monte-Carlo Lorentzian weights, floors and centers for every sideband
    present, the output layout (``output_step_s``, ``floquet_slots``,
    ``n_output_samples`` per trajectory) and the seconds per stage
    (``timings_s``), the estimated spectrum, and the closed form on +-8
    gamma_tot: `multitone_spectra` for a probe pair, else the lone probe's
    single-tone spectrum at -sign delta, where the Monte Carlo puts it; that
    form leaves out a cooling tone, so a lone probe beside one is refused
    (ValidityError). Disagreement is reported as-is; nothing is rescaled. A
    relative error (``floor_rel_err``, ``rel_err``) against an analytic value
    of exactly 0 has no scale and is None. The closed-form side comes first,
    so a gated configuration fails before the layout is derived.
    """
    from .config import describe_run

    def rel_err(mc: float, analytic: float) -> float | None:
        return abs(mc - analytic) / abs(analytic) if analytic else None

    gamma_tot = config.gamma_tot(params)
    grid = np.linspace(-8.0 * gamma_tot, 8.0 * gamma_tot, 1001)
    if config.has_probe_pair:
        analytic = multitone_spectra(params, baths, config, "symmetrized", grid,
                                     enforce_separation=False)
        w_anti, w_stokes = sideband_weights(params, baths, config)
        delta = config.delta(params)
        peaks = [("anti_stokes", -delta, w_anti), ("stokes", +delta, w_stokes)]
    else:
        tone = config.probe()
        if config.tone("cooling") is not None:
            raise ValidityError("lone-probe gate: the single-tone closed form leaves out the "
                                "cooling tone; add the mirror probe or drop the cooling tone")
        center = -tone.detuning_sign * config.delta(params)
        analytic = single_tone_spectrum(params, baths, tone, "symmetrized", grid).shifted(center)
        w = single_tone_integrated_weight(params, baths, tone, "symmetrized")
        peaks = [("peak", center, w)]
    floor_analytic = noise_floor(params, baths)

    sim = SimConfig.auto(params, config, n_segments=n_segments, seed=seed,
                         n_trajectories=n_trajectories)
    traj = integrate_langevin(params, baths, config, sim)
    start = time.perf_counter()
    spec, segments = _welch_spectrum(traj)
    welch = traj.timings["welch"] + time.perf_counter() - start
    start = time.perf_counter()
    mc_floor, mc_weights, mc_centers = _measure_peak(spec, [c for _, c, _ in peaks], gamma_tot)
    report = {
        "config_hash": describe_run(params, baths, config, sim)["config_hash"],
        "seed": sim.seed,
        "rng": RNG_ALGORITHM,
        "n_segments": int(segments),
        "output_step_s": sim.dt,
        "floquet_slots": traj.slots,
        "n_output_samples": sim.n_steps - sim.burn_in,
        "timings_s": {**traj.timings, "welch": welch, "peaks": time.perf_counter() - start},
        "analytic_floor": floor_analytic,
        "mc_floor": mc_floor,
        "floor_rel_err": rel_err(mc_floor, floor_analytic),
        "analytic_weight": {},
        "mc_weight": {},
        "rel_err": {},
        "mc_center": {},
    }
    for (name, _, w_analytic), w_mc, centroid in zip(peaks, mc_weights, mc_centers):
        report["analytic_weight"][name] = w_analytic
        report["mc_weight"][name] = w_mc
        report["rel_err"][name] = rel_err(w_mc, w_analytic)
        report["mc_center"][name] = centroid
    return report, spec, analytic
