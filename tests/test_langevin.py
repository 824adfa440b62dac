"""Stochastic-integrator tests.

The heavier Monte-Carlo comparisons live in test_acceptance; configurations
here are rate-scaled so each run stays in the seconds range while still
exercising every contract (noise synthesis, determinism, per-trajectory
streams, floor normalization, analytic agreement). The model's exact
transitions are tested in test_sde.
"""

import dataclasses
import math
import mmap
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sideband_lab.langevin as langevin
import sideband_lab.sde as sde
from sideband_lab.config import save_config
from sideband_lab.errors import ConfigError, StepSizeError, ValidityError
from sideband_lab.langevin import (
    CHUNK,
    MAX_OUTPUT_BYTES,
    RNG_ALGORITHM,
    WELCH_BLOCK,
    SimConfig,
    _measure_peak,
    _welch_spectrum,
    integrate_langevin,
    oracle_compare,
)
from sideband_lab.model import TWO_PI, BathSpec, Spectrum, ToneConfig, ToneSpec
from sideband_lab.multitone import full_rwa_spectrum, sideband_weights
from sideband_lab.presets import preset
from sideband_lab.scattering import single_tone_integrated_weight, single_tone_spectrum
from sideband_lab.sde import propagator

from conftest import equivalence_case, fast_params, tone_with_gamma_opt


def philox_streams(seed, n):
    return [np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(j,))))
            for j in range(n)]


def synthesize_input_noise(factor, rngs, first_step, n_steps):
    """Noise eta of output steps first_step .. first_step + n_steps - 1, drawn
    and mapped by integrate_langevin's ``noise`` stage as one chunk.

    Shape (n_steps, 6, len(rngs)), a view of the integrator's (6, n_steps,
    len(rngs)) layout; eta ~ N(0, factor factor^T) of the step's slot."""
    raw = np.empty((len(rngs), n_steps, 6))
    langevin._draw_normals(rngs, raw)
    eta = langevin._map_normals(factor, raw, first_step, np.empty((6, n_steps, len(rngs))),
                                np.empty((2, n_steps, len(rngs))))
    return eta.transpose(1, 0, 2)


def rows_of(eta):
    """(steps x streams, 6) samples of a (steps, 6, streams) draw."""
    return eta.transpose(0, 2, 1).reshape(-1, 6)


def assert_sample_covariance(eta, q, n_sigma=5.0):
    """Sample covariance of the rows of ``eta`` against ``q``, element by element."""
    n = eta.shape[0]
    cov = eta.T @ eta / n
    sd = np.sqrt((np.outer(np.diag(q), np.diag(q)) + q ** 2) / n)
    assert np.all(np.abs(cov - q) < n_sigma * sd), np.max(np.abs(cov - q) / sd)


class TestNoiseSynthesis:
    # symmetrized strengths n + w/2: right 0.9, left 2.0, intrinsic 2.5, mechanical 3.5
    BATHS = BathSpec(n_r=0.4, n_l=1.5, n_i=2.0, n_m=3.0)

    @staticmethod
    def red_propagator(baths):
        """(q, factor) of a red tone: one slot."""
        p = fast_params()
        cfg = ToneConfig(tones=(tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe"),))
        return propagator(p, baths, cfg, SimConfig.auto(p, cfg).dt)[1:]

    @staticmethod
    def cooled_propagator():
        """(q, factor) of the cooled case: one per Floquet slot."""
        p, baths, cfg, _ = equivalence_case("cooling")
        return propagator(p, baths, cfg, SimConfig.auto(p, cfg).dt)[1:]

    def test_vacuum_per_sample_variance(self):
        # vacuum inputs: the draw has the exact one-step covariance Q
        q, factor = self.red_propagator(BathSpec())
        eta = synthesize_input_noise(factor, philox_streams(1, 4), 0, 50_000)
        assert eta.shape == (50_000, 6, 4)
        assert_sample_covariance(rows_of(eta), q[0])

    def test_thermal_variance(self):
        # thermal baths and the cooling tone's Floquet slots: step s has Q of slot s mod P
        q, factor = self.cooled_propagator()
        slots = len(q)
        assert slots > 1
        first = 3
        eta = synthesize_input_noise(factor, philox_streams(2, 8), first, 2_000 * slots)
        for slot in (0, 1, slots // 2):
            rows = eta[(slot - first) % slots::slots]
            assert_sample_covariance(rows_of(rows), q[slot])
        # over a short step Q/dt -> LL^T: half of each symmetrized strength per
        # quadrature, and the right port enters d as -sqrt(kappa_r) d_in and I as d_in
        p = fast_params()
        cfg = ToneConfig(tones=(tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe"),))
        dt = 1e-11
        _, (q,), _ = propagator(p, self.BATHS, cfg, dt)
        cavity = p.kappa_r * 0.9 + p.kappa_l * 2.0 + p.kappa_i * 2.5
        for d, c, i in ((0, 1, 4), (2, 3, 5)):
            np.testing.assert_allclose(
                [q[d, d], q[c, c], q[i, i], q[d, i]],
                [cavity / 2 * dt, p.gamma_m * 3.5 / 2 * dt, 0.9 / 2 * dt,
                 -math.sqrt(p.kappa_r) * 0.9 / 2 * dt], rtol=1e-4)

    def test_channels_uncorrelated(self):
        # independent between steps and between streams
        q, factor = self.red_propagator(self.BATHS)
        eta = synthesize_input_noise(factor, philox_streams(3, 2), 0, 100_000)
        n = eta.shape[0] - 1
        sd = np.sqrt(np.outer(np.diag(q[0]), np.diag(q[0])) / n)
        for a, b in ((eta[:-1, :, 0], eta[1:, :, 0]), (eta[:-1, :, 0], eta[:-1, :, 1])):
            assert np.all(np.abs(a.T @ b / n) < 5.0 * sd)

    def test_column_depends_only_on_its_stream(self):
        _, factor = self.cooled_propagator()
        slots = len(factor)
        full = synthesize_input_noise(factor, philox_streams(7, 3), 5, 50)
        alone = synthesize_input_noise(factor, philox_streams(7, 3)[1:2], 5, 50)
        swapped = synthesize_input_noise(factor, philox_streams(8, 1) + philox_streams(7, 3)[1:], 5, 50)
        np.testing.assert_array_equal(full[:, :, 1:2], alone)
        np.testing.assert_array_equal(full[:, :, 1:], swapped[:, :, 1:])
        assert not np.any(full[:, :, 0] == swapped[:, :, 0])
        # each step takes six normals of the stream, mapped by its slot's factor
        z = philox_streams(7, 3)[2].standard_normal((50, 6))
        expected = [factor[(5 + s) % slots] @ z[s] for s in range(50)]
        np.testing.assert_allclose(full[:, :, 2], expected, rtol=1e-13, atol=0)


def reference_noise(factor, rngs, first_step, n_steps):
    """The noise draw as first written: strided copies and a gathered factor stack."""
    z = np.empty((n_steps, 6, len(rngs)))
    for j, rng in enumerate(rngs):
        z[:, :, j] = rng.standard_normal((n_steps, 6))
    factor = factor[(first_step + np.arange(n_steps)) % len(factor)]
    eta = factor[:, :, 0, None] * z[:, None, 0, :]
    for k in range(1, 6):
        eta[:, k:] += factor[:, k:, k, None] * z[:, None, k, :]
    return eta


def reference_integrate(params, baths, config, sim):
    """The output samples of integrate_langevin's loop as first written."""
    phi, _, factor = propagator(params, baths, config, sim.dt)
    slots, phi_x = len(phi), phi[:, :4, :4, None]
    ntraj = sim.n_trajectories
    rngs = philox_streams(sim.seed, ntraj)
    out = np.empty((ntraj, sim.n_steps - sim.burn_in), dtype=np.complex128)
    x = np.zeros((4, ntraj))
    step = 0
    while step < sim.n_steps:
        n = min(CHUNK, (sim.n_steps if step >= sim.burn_in else sim.burn_in) - step)
        eta = reference_noise(factor, rngs, step, n)
        states = np.empty((n, 4, ntraj))
        for s in range(n):
            states[s] = x
            x = (phi_x[(step + s) % slots] * x).sum(axis=1) + eta[s, :4]
        if step >= sim.burn_in:
            phi_i = phi[(step + np.arange(n)) % slots, 4:, :4]
            y = eta[:, 4:]
            for k in range(4):
                y += phi_i[:, :, k, None] * states[:, None, k, :]
            out[:, step - sim.burn_in:step - sim.burn_in + n] = (y[:, 0] + 1j * y[:, 1]).T / sim.dt
        step += n
    return out


def bitwise_case(name):
    """(params, baths, config) of oracle-demo (one slot) or the cooled case (35 slots)."""
    return preset(name) if name == "oracle-demo" else equivalence_case("cooling")[:3]


class TestBitwiseReference:
    """The chunked, in-place hot path gives exactly the values of the plain one."""

    @pytest.mark.parametrize("name, first_step", [("oracle-demo", 0), ("cooled", 11)])
    @pytest.mark.parametrize("n_steps", [1, 257, 4097])
    @pytest.mark.parametrize("ntraj", [1, 3, 16])
    def test_noise(self, name, first_step, n_steps, ntraj):
        p, baths, cfg = bitwise_case(name)
        factor = propagator(p, baths, cfg, SimConfig.auto(p, cfg).dt)[2]
        assert (len(factor) > 1) == (name == "cooled")
        eta = synthesize_input_noise(factor, philox_streams(5, ntraj), first_step, n_steps)
        assert eta.shape == (n_steps, 6, ntraj)
        np.testing.assert_array_equal(
            eta, reference_noise(factor, philox_streams(5, ntraj), first_step, n_steps))

    @pytest.mark.parametrize("name", ["oracle-demo", "cooled"])
    @pytest.mark.parametrize("ntraj", [1, 3, 16])
    def test_integrator(self, name, ntraj):
        p, baths, cfg = bitwise_case(name)
        sim = SimConfig.auto(p, cfg, n_segments=2 * ntraj, seed=13, n_trajectories=ntraj)
        assert sim.n_steps - sim.burn_in > CHUNK  # more than one chunk, and a tail
        traj = integrate_langevin(p, baths, cfg, sim, record_field=True)
        np.testing.assert_array_equal(traj.output_field, reference_integrate(p, baths, cfg, sim))


def reference_welch(traj, psd_segments):
    """(offsets, pxx, segment count) of Welch over the recorded output samples
    as first written: one process, one trajectory's segments at a time, with
    separate buffers for |X|^2; each trajectory's segments are summed in order,
    then the trajectories in order."""
    ntraj, kept = traj.output_field.shape
    segs_per_traj = max(1, math.ceil(psd_segments / ntraj))
    nperseg = min(kept, max(8, int(2 * kept / (segs_per_traj + 1))))

    def count(n):
        return ntraj * (1 + (kept - n) // (n - n // 2))

    while nperseg > 8 and count(nperseg) < psd_segments:
        nperseg -= max(1, nperseg // 50)
    hop = nperseg - nperseg // 2
    window = 0.5 - 0.5 * np.cos(TWO_PI * np.arange(nperseg) / nperseg)
    pxx = np.zeros(nperseg)
    for row in traj.output_field:
        spec = np.fft.fft(np.lib.stride_tricks.sliding_window_view(row, nperseg)[::hop] * window,
                          axis=-1)
        pxx += (np.square(spec.real) + np.square(spec.imag)).sum(axis=0)
    pxx *= traj.sampling / (np.sum(window**2) * count(nperseg))
    offsets = -TWO_PI * np.fft.fftfreq(nperseg, traj.sampling)
    order = np.argsort(offsets)
    return offsets[order], pxx[order], count(nperseg)


def recorded_workers(monkeypatch, cpus):
    """Make the machine show ``cpus`` CPUs; return the list that collects the
    worker count of every fork-join."""
    started, real_fork_join = [], langevin._fork_join

    def recording_fork_join(workers, run):
        started.append(workers)
        real_fork_join(workers, run)

    monkeypatch.setattr(langevin, "_fork_join", recording_fork_join)
    if cpus is None:  # a platform without sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return started


def welch_case(ntraj, segments_per_trajectory):
    """oracle-demo with 6146 kept samples per trajectory. At 45 segments per
    trajectory a 262-point segment is complete every 131 steps, several per
    chunk, and the last chunk moves the ring after the last segment is done;
    at 2 the hop is 2049 steps, four chunks."""
    p, baths, cfg = preset("oracle-demo")
    auto = SimConfig.auto(p, cfg, n_segments=2 * ntraj, seed=ntraj, n_trajectories=ntraj)
    sim = dataclasses.replace(auto, n_steps=auto.burn_in + 6146,
                              psd_segments=segments_per_trajectory * ntraj)
    return p, baths, cfg, sim


class TestWelchWorkers:
    """The integrator's workers, which transform each segment as soon as it is
    complete, give exactly the single-process Welch of the recorded samples
    for any worker count."""

    @pytest.mark.parametrize("fork", [True, False])
    @pytest.mark.parametrize("cpus", [1, 2, 3, None])
    @pytest.mark.parametrize("ntraj, per_trajectory", [(1, 45), (16, 2), (40, 45)])  # 40: a ragged block
    def test_matches_serial_reference(self, monkeypatch, cpus, fork, ntraj, per_trajectory):
        p, baths, cfg, sim = welch_case(ntraj, per_trajectory)
        started = recorded_workers(monkeypatch, cpus)
        if not fork:
            monkeypatch.delattr(os, "fork", raising=False)
        traj = integrate_langevin(p, baths, cfg, sim, record_field=True)
        spec, n_segments = _welch_spectrum(traj)
        offsets, pxx, expected_segments = reference_welch(traj, sim.psd_segments)
        assert started == [min(3 if cpus is None else cpus, ntraj)]  # one fork-join per run
        assert n_segments == expected_segments
        np.testing.assert_array_equal(spec.freq_offsets, offsets)
        np.testing.assert_array_equal(spec.values, pxx)
        # recording the samples changes no bit of the spectrum
        unrecorded = integrate_langevin(p, baths, cfg, sim)
        assert unrecorded.output_field.shape == (ntraj, 0)
        assert _welch_spectrum(unrecorded)[0].values.tobytes() == spec.values.tobytes()

    @pytest.mark.parametrize("ntraj, block", [(128, 64), (128, 16), (40, 64)])
    def test_each_worker_transforms_the_rows_it_integrates(self, monkeypatch, ntraj, block):
        # three workers run here, in turn, so that one process sees which
        # trajectories each one draws and which rows of the shared power sums
        # it writes; those rows start as NaN, so a write of any value shows
        started, running, integrated, written, shared, shared_rows = [], [], {}, {}, [], []
        real_shared, real_draw = langevin._shared, langevin._draw_normals

        def inline_fork_join(workers, run):
            started.append(workers)
            (rest,) = [a for a in shared if a.ndim == 2]
            rest[:] = np.nan
            for worker in range(workers):
                running.append(worker)
                untouched = np.isnan(rest).all(axis=1)
                run(worker)
                written[worker] = np.flatnonzero(untouched & ~np.isnan(rest).all(axis=1)).tolist()
            assert not np.isnan(rest).any()  # every shared row written
            shared_rows.append(len(rest))

        def draw(rngs, raw):
            integrated.setdefault(running[-1], set()).update(
                rng.bit_generator.seed_seq.spawn_key[0] for rng in rngs)
            real_draw(rngs, raw)

        monkeypatch.setattr(langevin, "_fork_join", inline_fork_join)
        monkeypatch.setattr(langevin, "_shared", lambda *a: shared.append(real_shared(*a)) or shared[-1])
        monkeypatch.setattr(langevin, "_draw_normals", draw)
        monkeypatch.setattr(langevin, "BLOCK", block)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        p, baths, cfg = preset("oracle-demo")
        sim = SimConfig.auto(p, cfg, n_segments=2 * ntraj, seed=3, n_trajectories=ntraj)
        integrate_langevin(p, baths, cfg, sim)
        assert started == [3]
        # in worker order, each a contiguous run, every trajectory once
        ranges = [sorted(integrated[w]) for w in range(3)]
        assert [j for r in ranges for j in r] == list(range(ntraj))
        # worker 0 writes no shared row: it folds its trajectories into the sum here;
        # the shared rows are the other workers' trajectories, each worker's own
        first = len(ranges[0])
        assert written[0] == [] and shared_rows == [ntraj - first]
        for w in (1, 2):
            assert [first + r for r in written[w]] == ranges[w]


class TestFootprint:
    """Each worker runs its trajectories in blocks of at most BLOCK, one after
    another through one set of buffers: a few noise chunks, a ring of
    nperseg + CHUNK output samples per trajectory, the block's power sums and
    one transform block of WELCH_BLOCK segments. Worker 0 folds its blocks
    into one shared (nperseg,) sum; the other workers' power sums are shared
    rows. The output samples are held only when a caller records them.
    CHUNK = 256 steps and WELCH_BLOCK = 4 keep the chunk and transform buffers
    small: a wider block, a longer chunk, or one more buffer of the size of
    any of these, fails here. tracemalloc sees the test process, so the
    workers that it measures run here, in turn."""

    NTRAJ = 128
    SEGMENTS = 4  # per trajectory: 2880-point segments, over more than four chunks

    def layout(self):
        p, baths, cfg = preset("oracle-demo")
        sim = SimConfig.auto(p, cfg, n_segments=self.SEGMENTS * self.NTRAJ, seed=2,
                             n_trajectories=self.NTRAJ)
        assert sim.n_steps > 4 * CHUNK
        return p, baths, cfg, sim

    def peak(self, monkeypatch):
        """(run, peak bytes of tracemalloc plus the shared mappings, the block
        bound, the shared mappings' sizes) of an integration of the layout, on
        the workers already set, run here in turn."""
        p, baths, cfg, sim = self.layout()
        monkeypatch.delattr(os, "fork", raising=False)
        # tracemalloc does not see the shared mappings that the workers write into
        shared, real_mmap = [], mmap.mmap

        def recording_mmap(fileno, length, *args, **kwargs):
            shared.append(length)
            return real_mmap(fileno, length, *args, **kwargs)

        monkeypatch.setattr(mmap, "mmap", recording_mmap)
        np.random.Philox, np.fft.fft  # imported lazily, at the first integration
        tracemalloc.start()
        try:
            traj = integrate_langevin(p, baths, cfg, sim)
            peak = tracemalloc.get_traced_memory()[1] + sum(shared)
        finally:
            tracemalloc.stop()
        # one block's normals, noise buffer, two scratch planes and states take 3
        # draws of a chunk of its trajectories; the run's streams (0.12 MB) and the
        # per-chunk temporaries, under a quarter draw more. Finiteness is checked chunk
        # by chunk: a check of whole rows would add one bool per sample, about 4 draws here
        draw = CHUNK * 6 * langevin.BLOCK * 8
        assert CHUNK <= 256 and langevin.BLOCK <= 64 and WELCH_BLOCK <= 4
        nperseg = langevin._welch_layout(sim.n_steps - sim.burn_in, self.NTRAJ, sim.psd_segments)[0]
        ring = langevin.BLOCK * (nperseg + CHUNK) * 16
        # numpy's FFT copies its input when it writes over it: two transform blocks
        transform = 2 * WELCH_BLOCK * nperseg * 16
        block = 3.25 * draw + ring + transform + langevin.BLOCK * nperseg * 8
        return traj, peak, block, shared

    def test_integrator_and_welch(self, monkeypatch):
        # each of two workers holds one 64-trajectory block, in turn
        started = recorded_workers(monkeypatch, 2)
        traj, peak, block, shared = self.peak(monkeypatch)
        assert started == [2]
        nperseg = traj.power.size
        assert traj.power.shape == (nperseg,)
        assert max(shared) == (self.NTRAJ // 2) * nperseg * 8  # worker 1's rows
        assert peak < block + traj.power.nbytes + sum(shared)

    def test_one_worker_holds_one_block_at_a_time(self, monkeypatch):
        # one worker runs all 128 trajectories in two blocks of 64 through one set of buffers
        started = recorded_workers(monkeypatch, 1)
        traj, peak, block, shared = self.peak(monkeypatch)
        assert started == [1] and self.NTRAJ == 2 * langevin.BLOCK
        assert peak < block + traj.power.nbytes  # and the sum

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="no /proc/self/smaps")
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers run inline without os.fork")
    def test_this_process_touches_only_its_own_rows(self, monkeypatch):
        # both workers are forked children, which write the recorded output rows,
        # and worker 1 the shared power rows; touching either here would make them
        # resident here too. Measured at the join, before this process folds the power rows
        p, baths, cfg, sim = self.layout()
        recorded_workers(monkeypatch, 2)
        arrays, resident = [], []
        real_shared, real_fork_join = langevin._shared, langevin._fork_join
        monkeypatch.setattr(langevin, "_shared", lambda *a: arrays.append(real_shared(*a)) or arrays[-1])

        def measuring_fork_join(workers, run):
            real_fork_join(workers, run)
            resident.extend((resident_bytes(a), a.nbytes) for a in arrays if a.ndim == 2)

        monkeypatch.setattr(langevin, "_fork_join", measuring_fork_join)
        traj = integrate_langevin(p, baths, cfg, sim, record_field=True)
        (field, field_bytes), (power, power_bytes) = resident
        assert field_bytes == traj.output_field.nbytes and field == 0
        assert power_bytes == (self.NTRAJ // 2) * traj.power.nbytes and power == 0

    def test_the_caller_holds_no_block_buffers(self, tmp_path):
        # the calling process's peak above a bare import of what it runs, with two
        # forked workers; ru_maxrss counts them too, but each touches only its own
        # block buffers and rows. Running a worker here would add one block's ring and
        # chunk buffers; what is left is mostly worker 1's shared power rows, folded
        # after the join, which are smaller, so the bound tells the two apart
        sim = self.layout()[3]
        nperseg = langevin._welch_layout(sim.n_steps - sim.burn_in, self.NTRAJ, sim.psd_segments)[0]
        buffers = langevin.BLOCK * ((nperseg + CHUNK) * 16 + 3 * CHUNK * 6 * 8)
        powers = (self.NTRAJ // 2) * nperseg * 8
        assert powers < buffers
        bare = fresh_peak(tmp_path, "import sideband_lab.cli, numpy.random, numpy.fft")
        run = fresh_peak(tmp_path, "import os; os.sched_getaffinity = lambda pid: {0, 1}; "
                         "from sideband_lab.cli import main; raise SystemExit(main(["
                         "'oracle-compare', '--preset', 'oracle-demo', '--seed', '2', "
                         f"'--segments', '{sim.psd_segments}', '--trajectories', '{self.NTRAJ}', "
                         "'--out', 'out']))")
        assert run - bare < buffers

    def test_oracle_compare_holds_no_output_samples(self, tmp_path):
        # the calling process's peak above a bare import of what it runs; holding
        # the samples of its share of the trajectories would take at least that share
        ntraj, segments = 64, 2000
        p, _, cfg = preset("oracle-demo")
        sim = SimConfig.auto(p, cfg, n_segments=segments, seed=3, n_trajectories=ntraj)
        rows = langevin._share(ntraj, langevin._workers(ntraj), 0)
        share = 16 * (rows.stop - rows.start) * (sim.n_steps - sim.burn_in)
        assert share > 4 * 3 * CHUNK * 6 * 8 * (rows.stop - rows.start)  # 4x its chunk buffers
        bare = fresh_peak(tmp_path, "import sideband_lab.cli, numpy.random, numpy.fft")
        run = fresh_peak(tmp_path, "from sideband_lab.cli import main; raise SystemExit(main(["
                         "'oracle-compare', '--preset', 'oracle-demo', '--seed', '3', "
                         f"'--segments', '{segments}', '--trajectories', '{ntraj}', '--out', 'out']))")
        assert run - bare < share / 2

    def test_cooled_oracle_compare_holds_no_van_loan_stack(self, tmp_path):
        # the cooled case (35 Floquet slots) on one worker, made to see one CPU,
        # with 65 trajectories: two blocks. Exponentiating the whole period's
        # 35 x 64 Van Loan matrices at once took over five times their size
        p, baths, cfg, _ = equivalence_case("cooling")
        save_config(tmp_path / "cooled.json", p, baths, cfg)
        slots = len(propagator(p, baths, cfg, SimConfig.auto(p, cfg).dt)[0])
        stack = slots * sde.SUBSTEPS * 12 * 12 * 8
        bare = fresh_peak(tmp_path, "import sideband_lab.cli, numpy.random, numpy.fft")
        run = fresh_peak(tmp_path, "import os; os.sched_getaffinity = lambda pid: {0}; "
                         "from sideband_lab.cli import main; raise SystemExit(main(["
                         "'oracle-compare', '--config', 'cooled.json', '--seed', '3', "
                         "'--segments', '130', '--trajectories', '65', '--out', 'out']))")
        assert run - bare < 4 * stack


def fresh_peak(cwd, code):
    """Peak resident bytes (ru_maxrss) of a fresh interpreter that runs ``code``
    with this checkout's sources. It is started from a bare interpreter: a
    child's ru_maxrss counts the resident set of the process it was forked
    from, up to its exec."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    launch = ("import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:], "
              "stdout=subprocess.DEVNULL); _, status, usage = os.wait4(child.pid, 0); "
              "print(status, usage.ru_maxrss)")
    done = subprocess.run([sys.executable, "-c", launch, sys.executable, "-c", code],
                          env=env, cwd=cwd, capture_output=True, text=True, check=True)
    status, maxrss = map(int, done.stdout.split())
    assert status == 0
    return maxrss * 1024


def resident_bytes(array):
    """Resident bytes of the mapping that starts at ``array``'s data, from /proc/self/smaps."""
    address = array.ctypes.data
    with open("/proc/self/smaps") as smaps:
        inside = False
        for line in smaps:
            head = line.split()[0]
            if "-" in head and not head.endswith(":"):
                start, end = (int(x, 16) for x in head.split("-"))
                inside = start <= address < end
            elif inside and head == "Rss:":
                return int(line.split()[1]) * 1024
    raise LookupError("no mapping holds the array")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers run inline without os.fork")
class TestForkedWorkers:
    """integrate_langevin runs every worker in a forked child: it leaves no
    child behind, whether it returns or raises, a child that fails makes it
    raise and kill the rest once the children before it are done, and no
    output bit depends on the number of workers. ``run``'s 8 trajectories are 4 per worker on two CPUs, so a
    worker is told by the spawn key of its first stream: 0 or 4."""

    @staticmethod
    def run(ntraj=8, **kw):
        p, baths, cfg = preset("oracle-demo")
        sim = SimConfig.auto(p, cfg, n_segments=16, seed=4, n_trajectories=ntraj)
        assert sim.n_steps > 4 * CHUNK
        return integrate_langevin(p, baths, cfg, sim, **kw)

    @staticmethod
    def first_stream(rngs):
        return rngs[0].bit_generator.seed_seq.spawn_key[0]

    @pytest.fixture
    def children(self, monkeypatch):
        """The pids forked, on a machine that shows two CPUs; a test still
        running after 60 s fails, and a child it left running is killed."""
        pids, real_fork = [], os.fork

        def fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        def expire(signum, frame):
            raise TimeoutError("integrate_langevin waited on a forked worker")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", fork)
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield pids
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            for pid in pids:
                try:
                    if os.waitpid(pid, os.WNOHANG) == (0, 0):  # still running, so still ours
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                except ChildProcessError:  # reaped already
                    pass

    @staticmethod
    def assert_reaped(pids, forked=2):
        assert len(pids) == forked
        for pid in pids:
            with pytest.raises(ChildProcessError):  # no such child: neither running nor a zombie
                os.waitpid(pid, os.WNOHANG)

    def test_no_process_left_after_a_run(self, children):
        traj = self.run()
        assert 0.0 <= traj.timings["noise_wait"] <= traj.timings["noise"] <= traj.timings["propagate"]
        assert 0.0 < traj.timings["welch"] < traj.timings["propagate"] - traj.timings["noise"]
        self.assert_reaped(children)

    def test_no_process_left_after_a_failure_in_worker_0(self, children, monkeypatch, capfd):
        # worker 1 never finishes: the run returns only because it is killed
        calls, real_draw = [], langevin._draw_normals

        def failing_draw(rngs, raw):
            if self.first_stream(rngs) != 0:
                time.sleep(3600)
            calls.append(None)
            if len(calls) == 3:
                raise ArithmeticError("injected in worker 0's third chunk")
            real_draw(rngs, raw)

        monkeypatch.setattr(langevin, "_draw_normals", failing_draw)
        with pytest.raises(ChildProcessError, match="^forked worker 0 of 2 failed with exit code 1$"):
            self.run()
        self.assert_reaped(children)
        assert "ArithmeticError: injected in worker 0's third chunk" in capfd.readouterr().err

    @pytest.mark.parametrize("death, code", [("raises", 1), ("killed", -signal.SIGKILL)])
    def test_a_failed_child_raises(self, children, monkeypatch, capfd, death, code):
        calls, real_draw = [], langevin._draw_normals

        def dying_draw(rngs, raw):
            if self.first_stream(rngs) == 4:  # worker 1
                calls.append(None)
                if len(calls) == 3:
                    if death == "killed":
                        os.kill(os.getpid(), signal.SIGKILL)
                    raise MemoryError("injected in the child's third chunk")
            real_draw(rngs, raw)

        monkeypatch.setattr(langevin, "_draw_normals", dying_draw)
        with pytest.raises(ChildProcessError,
                           match=f"^forked worker 1 of 2 failed with exit code {code}$"):
            self.run()
        self.assert_reaped(children)
        traceback = "MemoryError: injected in the child's third chunk" in capfd.readouterr().err
        assert traceback == (death == "raises")

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_a_diverged_run_is_a_step_size_error(self, children, monkeypatch, cpus):
        real_propagator = langevin.propagator

        def unstable(*args):  # every step multiplies the state by about 1e200
            phi, q, factor = real_propagator(*args)
            return phi * 1e200, q, factor

        monkeypatch.setattr(langevin, "propagator", unstable)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        with pytest.raises(StepSizeError, match="^trajectory diverged: non-finite output samples$"):
            with np.errstate(over="ignore", invalid="ignore"):
                self.run()
        self.assert_reaped(children, forked=cpus)

    @pytest.mark.parametrize("worker", [0, 1])
    def test_either_workers_divergence_is_a_step_size_error(self, children, monkeypatch, worker):
        # a NaN drawn for one trajectory of one worker, in the last step of its
        # last chunk only; burn-in ends on a chunk boundary
        p, baths, cfg = preset("oracle-demo")
        sim = SimConfig.auto(p, cfg, n_segments=16, seed=4, n_trajectories=8)  # run's layout
        chunks = math.ceil(sim.burn_in / CHUNK) + math.ceil((sim.n_steps - sim.burn_in) / CHUNK)
        calls, real_draw = [], langevin._draw_normals

        def draw(rngs, raw):
            real_draw(rngs, raw)
            if self.first_stream(rngs) == 4 * worker:
                calls.append(None)
                if len(calls) == chunks:
                    raw[-1, -1, 0] = np.nan

        monkeypatch.setattr(langevin, "_draw_normals", draw)
        with pytest.raises(StepSizeError, match="^trajectory diverged: non-finite output samples$"):
            self.run()
        self.assert_reaped(children)

    @pytest.mark.parametrize("block", [64, 8])
    def test_output_does_not_depend_on_the_workers(self, children, monkeypatch, block):
        # with 8-trajectory blocks, 40 trajectories are 5 blocks on one worker, 3 on
        # each of two and 2 on each of three; the reference runs one block per worker
        ntraj = 8 if block == 64 else 40
        reference = self.run(ntraj, record_field=True)
        monkeypatch.setattr(langevin, "BLOCK", block)
        runs = []
        for cpus in (1, 2, 3):  # three workers: more than this machine may have CPUs
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            runs.append(self.run(ntraj, record_field=True))
        self.assert_reaped(children, forked=2 + 1 + 2 + 3)
        monkeypatch.delattr(os, "fork")
        runs.append(self.run(ntraj, record_field=True))  # three workers, in turn
        assert reference.power.ndim == 1  # the sum over the trajectories
        for traj in runs:
            assert traj.output_field.tobytes() == reference.output_field.tobytes()
            assert traj.power.tobytes() == reference.power.tobytes()
            assert set(traj.timings) == set(reference.timings)


class TestIntegratorContracts:
    def test_all_noise_off_gives_zero_output(self):
        p = fast_params()
        dead = BathSpec(alpha_r=0.0, alpha_l=0.0, alpha_i=0.0, beta=0.0)
        cfg = ToneConfig(tones=(tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe"),))
        sim = SimConfig.auto(p, cfg, n_segments=20, seed=0, n_trajectories=4)
        traj = integrate_langevin(p, dead, cfg, sim, record_field=True)
        assert traj.output_field.size and np.all(traj.output_field == 0.0)
        assert np.all(traj.power == 0.0)

    def test_seed_determinism_bit_identical(self):
        p = fast_params()
        cfg = ToneConfig(tones=(tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe"),))
        sim = SimConfig.auto(p, cfg, n_segments=30, seed=42, n_trajectories=4)
        a = integrate_langevin(p, BathSpec(n_m=1.0), cfg, sim, record_field=True)
        b = integrate_langevin(p, BathSpec(n_m=1.0), cfg, sim, record_field=True)
        np.testing.assert_array_equal(a.output_field, b.output_field)
        assert a.power.ndim == 1  # the sum over the trajectories
        np.testing.assert_array_equal(a.power, b.power)

    def test_trajectory_streams_do_not_depend_on_the_ensemble(self):
        # trajectory j draws from its own Philox stream, so the first k
        # trajectories of an n-trajectory run are exactly a k-trajectory run
        p = fast_params()
        cfg = ToneConfig(tones=(tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe"),))
        sim = SimConfig.auto(p, cfg, n_segments=30, seed=42, n_trajectories=6)
        full = integrate_langevin(p, BathSpec(n_m=1.0), cfg, sim, record_field=True)
        for k in (1, 4):
            part = integrate_langevin(p, BathSpec(n_m=1.0), cfg, dataclasses.replace(sim, n_trajectories=k),
                                      record_field=True)
            np.testing.assert_array_equal(full.output_field[:k], part.output_field)

    def test_linearity_in_noise_power(self):
        # doubling every (n + w/2) scales the same noise draws by sqrt(2)
        p = fast_params()
        cfg = ToneConfig(tones=(tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe"),))
        sim = SimConfig.auto(p, cfg, n_segments=40, seed=9, n_trajectories=4)
        base = BathSpec(n_m=1.0)
        doubled = BathSpec(n_r=0.5, n_l=0.5, n_i=0.5, n_m=2.5)  # n + 1/2 doubled
        s1, _ = _welch_spectrum(integrate_langevin(p, base, cfg, sim))
        s2, _ = _welch_spectrum(integrate_langevin(p, doubled, cfg, sim))
        np.testing.assert_allclose(s2.values, 2.0 * s1.values, rtol=1e-10)

    def test_step_gates(self):
        p = fast_params()
        cfg = ToneConfig(tones=())
        good = SimConfig.auto(p, cfg, n_segments=20, seed=0, n_trajectories=2)
        too_short = SimConfig(dt=good.dt, n_steps=int(10.0 / (p.gamma_m * good.dt)),
                              n_trajectories=2, seed=0, burn_in=0, psd_segments=20)
        with pytest.raises(StepSizeError, match="n_steps"):
            integrate_langevin(p, BathSpec(), cfg, too_short)

    def test_generic_tone_rejected(self):
        # the oracle takes each tone's rotating phase from its role, and a
        # configuration refuses a generic tone when it is built
        p = fast_params()
        with pytest.raises(ConfigError, match="generic"):
            ToneConfig(tones=(ToneSpec(detuning=-p.omega_m, role="generic", coupling=1.0),))

    def test_rng_algorithm_documented(self):
        assert "philox" in RNG_ALGORITHM

    def test_memory_guard(self):
        # 16 bytes per kept output sample and trajectory; arithmetic only
        layout = dict(dt=1e-6, seed=0, burn_in=10, psd_segments=100)
        limit = MAX_OUTPUT_BYTES // 16
        SimConfig(n_steps=limit // 4 + 10, n_trajectories=4, **layout)
        with pytest.raises(ConfigError, match="memory guard"):
            SimConfig(n_steps=limit // 4 + 11, n_trajectories=4, **layout)
        p, _, cfg = preset("oracle-demo")
        criterion_1 = SimConfig.auto(p, cfg, n_segments=4000, seed=0, n_trajectories=128)
        assert 16 * 128 * (criterion_1.n_steps - criterion_1.burn_in) < 0.05 * MAX_OUTPUT_BYTES
        with pytest.raises(ConfigError, match="memory guard"):
            SimConfig.auto(p, cfg, n_segments=100_000_000, seed=0, n_trajectories=64)


class TestEstimatePsd:
    def test_vacuum_floor_is_half(self):
        p = fast_params()
        cfg = ToneConfig(tones=())
        sim = SimConfig.auto(p, cfg, n_segments=400, seed=1, n_trajectories=16)
        traj = integrate_langevin(p, BathSpec(), cfg, sim)
        spec, _ = _welch_spectrum(traj)
        assert np.mean(spec.values) == pytest.approx(0.5, rel=0.01)
        # pointwise scatter consistent with segment averaging
        assert np.std(spec.values) < 0.5 * 5.0 / math.sqrt(sim.psd_segments)

    def test_red_tone_peak_location_sign_convention(self):
        # red probe detuned delta below the red sideband puts the up-converted
        # feature at offset -delta
        p = fast_params(gamma_m_hz=800.0)
        delta = TWO_PI * 12e3
        cfg = ToneConfig(tones=(tone_with_gamma_opt(p, 0.5 * p.gamma_m, "red_probe",
                                                    -(p.omega_m + delta)),))
        sim = SimConfig.auto(p, cfg, n_segments=400, seed=4, n_trajectories=16)
        traj = integrate_langevin(p, BathSpec(n_m=30.0), cfg, sim)
        spec, _ = _welch_spectrum(traj)
        peak_offset = spec.freq_offsets[np.argmax(spec.values)]
        assert peak_offset == pytest.approx(-delta, abs=3.0 * cfg.gamma_tot(p))


class TestOracleEquivalence:
    """Monte-Carlo PSD vs analytic spectra: floor +-2%, weight +-5%,
    center +-gamma_tot/10 on the five canonical configurations."""

    @pytest.mark.parametrize("name", ["red", "blue", "balanced", "cooling",
                                      "squashing"])
    def test_configuration(self, name):
        p, baths, cfg, sim_kw = equivalence_case(name)
        report, _, _ = oracle_compare(p, baths, cfg, **sim_kw)
        gamma_tot = cfg.gamma_tot(p)
        assert report["floor_rel_err"] < 0.02
        centers = {"anti_stokes": -cfg.delta(p), "stokes": +cfg.delta(p), "peak": 0.0}
        for peak, err in report["rel_err"].items():
            assert err < 0.05, (name, peak, err)
            assert abs(report["mc_center"][peak] - centers[peak]) < gamma_tot / 10.0
        if name == "squashing":
            assert report["mc_weight"]["peak"] < 0.0
            assert report["analytic_weight"]["peak"] < 0.0
        if name == "red":
            assert report["n_segments"] >= 2000


def exact_oracle_grid(gamma_tot):
    """The oracle's resolution and reach: 4 bins per gamma_tot over +-360 gamma_tot."""
    return np.arange(-1440, 1441) * gamma_tot / 4.0


class TestMeasurePeak:
    """The peak estimator on exact closed-form spectra, no Monte Carlo."""

    @pytest.mark.parametrize("name", ["red", "squashing", "balanced", "cooling"])
    def test_weights_of_exact_spectra(self, name):
        p, baths, cfg, _ = equivalence_case(name)
        gamma_tot = cfg.gamma_tot(p)
        grid = exact_oracle_grid(gamma_tot)
        if cfg.has_probe_pair:
            spec = full_rwa_spectrum(p, baths, cfg, grid)["total"]
            centers = [-cfg.delta(p), cfg.delta(p)]
            exact = sideband_weights(p, baths, cfg)
        else:
            tone = cfg.tones[0]
            spec = single_tone_spectrum(p, baths, tone, "symmetrized", grid,
                                        enforce_window=False)
            centers = [0.0]
            exact = [single_tone_integrated_weight(p, baths, tone, "symmetrized")]
        _, weights, centroids = _measure_peak(spec, centers, gamma_tot)
        np.testing.assert_allclose(weights, exact, rtol=1e-3)
        np.testing.assert_allclose(centroids, centers, rtol=0, atol=gamma_tot / 50.0)

    def test_imbalance_of_exact_oracle_demo(self):
        # the mixing term is even in the offset, so it cancels in the difference
        p, baths, cfg = preset("oracle-demo")
        gamma_opt, _ = cfg.gamma_opt_pair(p)
        gamma_tot = cfg.gamma_tot(p)
        spec = full_rwa_spectrum(p, baths, cfg, exact_oracle_grid(gamma_tot))["total"]
        _, (w_anti, w_stokes), _ = _measure_peak(spec, [-cfg.delta(p), cfg.delta(p)], gamma_tot)
        imbalance = (w_stokes - w_anti) / (p.kappa_r / p.kappa * gamma_opt)
        assert imbalance == pytest.approx(1.0, abs=1e-4)


class TestOracleCompare:
    def test_report_fields(self):
        p = fast_params()
        tone = tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe")
        cfg = ToneConfig(tones=(tone,))
        report, spec, _ = oracle_compare(p, BathSpec(n_m=20.0), cfg, n_segments=100, seed=0,
                                         n_trajectories=8)
        sim = SimConfig.auto(p, cfg, n_segments=100, seed=0, n_trajectories=8)
        for key in ("config_hash", "seed", "rng", "n_segments",
                    "analytic_weight", "mc_weight", "rel_err"):
            assert key in report
        assert isinstance(spec, Spectrum)
        assert report["output_step_s"] == sim.dt
        assert report["n_output_samples"] == sim.n_steps - sim.burn_in

    @pytest.mark.parametrize("case", ["non-unit weight", "off-sideband probe",
                                      "lone red probe beside a cooling tone",
                                      "lone blue probe beside a cooling tone"])
    def test_gated_config_fails_before_the_monte_carlo(self, case, monkeypatch):
        def integrate(*args, **kwargs):
            raise AssertionError("integrated a gated configuration")

        p, baths, cfg = preset("oracle-demo")
        if case == "non-unit weight":
            baths = dataclasses.replace(baths, alpha_r=1.5)
        elif case == "off-sideband probe":
            blue = cfg.tone("blue_probe")
            cfg = ToneConfig(tones=(dataclasses.replace(blue, detuning=3.0 * blue.detuning),))
        else:
            # the single-tone closed form leaves the cooling tone out: at seeds 5
            # and 6 the Monte Carlo read that sideband 18-33% off it
            p, baths, cooled, _ = equivalence_case("cooling")
            dropped = "blue_probe" if "red" in case else "red_probe"
            cfg = ToneConfig(tones=tuple(t for t in cooled.tones if t.role != dropped))
        monkeypatch.setattr(langevin, "integrate_langevin", integrate)
        with pytest.raises(ValidityError):
            oracle_compare(p, baths, cfg, n_segments=100, seed=0, n_trajectories=8)

    @pytest.mark.parametrize("direction", ["towards", "away"])
    def test_layout_survives_a_one_ulp_detuning(self, direction):
        # criterion 1's t_seg/dt sits 4e-15 relative below 2880 steps, so a
        # plain ceil moved its layout with the last bit of the probe detunings;
        # dt follows delta continuously, every count stays
        p, _, cfg = preset("oracle-demo")
        target = {"towards": 0.0, "away": math.inf}[direction]  # the cavity, or away from it
        nudged = ToneConfig(tones=tuple(
            dataclasses.replace(t, detuning=math.nextafter(t.detuning,
                                                           math.copysign(target, t.detuning)))
            if t.role.endswith("_probe") else t for t in cfg.tones))
        assert nudged.tones != cfg.tones
        sim = SimConfig.auto(p, cfg, n_segments=4000, seed=3, n_trajectories=128)
        assert sim.n_steps == 48_437
        moved = SimConfig.auto(p, nudged, n_segments=4000, seed=3, n_trajectories=128)
        assert moved.dt == pytest.approx(sim.dt, rel=1e-12)
        assert dataclasses.replace(moved, dt=sim.dt) == sim

    def test_cooled_layout_has_floquet_slots(self):
        # the output step is a whole fraction of the cooling period 2 pi/(delta_c - delta)
        p, baths, cfg, _ = equivalence_case("cooling")
        report, _, _ = oracle_compare(p, baths, cfg, n_segments=100, seed=0, n_trajectories=8)
        sim = SimConfig.auto(p, cfg, n_segments=100, seed=0, n_trajectories=8)
        period = TWO_PI / (cfg.delta_c(p) - cfg.delta(p))
        assert report["floquet_slots"] * sim.dt == pytest.approx(period, rel=1e-12)
        assert report["floquet_slots"] > 1
        with pytest.raises(StepSizeError, match="cooling period"):
            integrate_langevin(p, baths, cfg, dataclasses.replace(sim, dt=sim.dt * 1.01))
        # the slots compose to the same map over one period at half the step,
        # which places every substep at its own phase (to O((Omega h)^2))
        maps = []
        for dt in (sim.dt, sim.dt / 2.0):
            phi, q, _ = propagator(p, baths, cfg, dt)
            m, c = np.eye(6), np.zeros((6, 6))
            for phi_j, q_j in zip(phi, q):
                m, c = phi_j @ m, phi_j @ c @ phi_j.T + q_j
            maps.append((m, c))
        for a, b in zip(*maps):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-5 * np.abs(a).max())

    def test_blocked_welch_matches_one_call(self):
        from scipy import signal

        p = fast_params()
        cfg = ToneConfig(tones=(tone_with_gamma_opt(p, 0.1 * p.gamma_m, "red_probe"),))
        sim = SimConfig.auto(p, cfg, n_segments=200, seed=4, n_trajectories=40)
        traj = integrate_langevin(p, BathSpec(n_m=20.0), cfg, sim, record_field=True)
        spec, _ = _welch_spectrum(traj)
        nperseg = spec.freq_offsets.size  # two-sided: one bin per sample of a segment
        f, pxx = signal.welch(traj.output_field, fs=1.0 / traj.sampling, window="hann",
                              nperseg=nperseg, noverlap=nperseg // 2, detrend=False,
                              return_onesided=False, scaling="density", axis=-1)
        order = np.argsort(-f)
        np.testing.assert_allclose(spec.freq_offsets, -TWO_PI * f[order], rtol=1e-15)
        np.testing.assert_allclose(spec.values, pxx.mean(axis=0)[order], rtol=1e-12)
