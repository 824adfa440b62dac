"""Span tracer for the benchmark's in-process traced run.

Spans are recorded from the benchmark's side of each layer boundary: while
`Tracer.instrument` is active, a function of a ``sideband_lab`` module is
replaced, in every loaded ``sideband_lab`` module that looks it up by name,
by a wrapper that records a span (name, job, start, end, parent) and the
work counts the layer reports. The originals are put back on exit.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    job: str
    start: float
    end: float = 0.0
    parent: int | None = None


def _integrate_counts(tracer: "Tracer", args, result) -> None:
    sim = args[3]
    tracer.count("langevin.trajectory_steps", sim.n_steps * sim.n_trajectories)
    tracer.count("langevin.kept_steps", (sim.n_steps - sim.burn_in) * sim.n_trajectories)
    tracer.count("langevin.output_samples", result.output_field.size)
    tracer.count("langevin.output_bytes", result.output_field.nbytes)
    tracer.gauges["langevin.decimation"] = result.decimation


def _welch_counts(tracer: "Tracer", args, result) -> None:
    tracer.count("langevin.welch_segments", result[1])


def _gauss_newton_counts(tracer: "Tracer", args, result) -> None:
    tracer.count("fitting.gauss_newton_calls", 1)
    tracer.count("fitting.gauss_newton_iterations", result[3])


def _spectrum_rows(tracer: "Tracer", args, result) -> None:
    tracer.count("dataio.csv_rows_written", len(args[1]))


def _component_rows(tracer: "Tracer", args, result) -> None:
    tracer.count("dataio.csv_rows_written", sum(len(spec) for spec in args[1].values()))


#: (module, function, span name, counter) for every traced layer boundary.
#: ``_welch_spectrum`` and ``_measure_peak`` are private, but they are the
#: names ``oracle_compare`` looks up for its PSD and peak stages.
TARGETS = (
    ("langevin", "oracle_compare", "langevin.oracle_compare", None),
    ("langevin", "integrate_langevin", "langevin.integrate", _integrate_counts),
    ("langevin", "_welch_spectrum", "langevin.psd", _welch_counts),
    ("langevin", "_measure_peak", "langevin.peaks", None),
    ("multitone", "multitone_spectra", "multitone.spectra", None),
    ("multitone", "full_rwa_spectrum", "multitone.full_rwa", None),
    ("multitone", "sideband_weights", "multitone.weights", None),
    ("scattering", "single_tone_spectrum", "scattering.single_tone", None),
    ("linear_response", "resonance_correlators", "linear_response.correlators", None),
    ("fitting", "gauss_newton", "fitting.gauss_newton", _gauss_newton_counts),
    ("calibration", "run_synthetic_calibration", "calibration.synthetic", None),
    ("calibration", "fit_linewidth_vs_power", "calibration.fit", None),
    ("calibration", "fit_shunt_capacitance", "calibration.fit", None),
    ("calibration", "fit_output_occupation", "calibration.fit", None),
    ("config", "load_config", "config.load", None),
    ("config", "describe_run", "config.describe_run", None),
    ("dataio", "write_spectrum_csv", "dataio.write_csv", _spectrum_rows),
    ("dataio", "write_components_csv", "dataio.write_csv", _component_rows),
    ("dataio", "read_xy_csv", "dataio.read_csv", None),
    ("dataio", "write_manifest", "dataio.manifest", None),
)


class Tracer:
    """Spans kept in memory, plus summed counts and last-value gauges."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.job = ""
        self._stack: list[int] = []

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recording one span per call and, after it returns, its counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, self.job, time.perf_counter(), parent=parent))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = time.perf_counter()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    @contextmanager
    def instrument(self, package: str = "sideband_lab"):
        """Trace every function of `TARGETS` for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        replaced = []
        try:
            for module_name, attr, span, counter in TARGETS:
                original = getattr(sys.modules[f"{package}.{module_name}"], attr)
                wrapper = self.wrap(span, original, counter)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            replaced.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(replaced):
                setattr(module, key, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, child in zip(self.spans, covered):
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start - child
        return totals

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]
