"""The benchmark's traced layer boundaries name functions that exist.

`bench/tracing.py` wraps each `(module, function)` of its `TARGETS` by name;
a renamed or deleted function makes `bench/run.py --trace 1` fail with an
`AttributeError`. This loads that file by path and resolves every name, and
feeds its oracle and CSV-row counters the arguments and results of real
calls, so a renamed argument or result field fails here too.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_oracle_counters_read_real_calls():
    from sideband_lab.langevin import SimConfig, _welch_spectrum, integrate_langevin
    from sideband_lab.presets import preset

    tracing = _tracing()
    params, baths, config = preset("oracle-demo")
    sim = SimConfig.auto(params, config, n_segments=40, seed=1, n_trajectories=4)
    args = (params, baths, config, sim)
    traj = integrate_langevin(*args, record_field=True)  # the tracer counts recorded samples
    welch = _welch_spectrum(traj)
    tracer = tracing.Tracer()
    tracing._integrate_counts(tracer, args, traj)
    tracing._welch_counts(tracer, (traj,), welch)
    values = {**tracer.counts, **tracer.gauges}
    for name in ("langevin.trajectory_steps", "langevin.kept_steps", "langevin.output_samples",
                 "langevin.output_bytes", "langevin.decimation", "langevin.welch_segments"):
        assert values[name] > 0 and math.isfinite(values[name]), name


def test_csv_row_counters_read_real_writes(tmp_path):
    # the tracer counts the rows of a spectrum file as len() of its Spectrum
    from sideband_lab.dataio import write_components_csv, write_spectrum_csv
    from sideband_lab.multitone import multitone_spectra
    from sideband_lab.presets import preset

    tracing = _tracing()
    params, baths, config = preset("oracle-demo")
    grid = np.linspace(-5.0, 5.0, 11) * config.gamma_tot(params)
    components = multitone_spectra(params, baths, config, "symmetrized", grid)
    for write, data, counter in ((write_spectrum_csv, components["stokes"], tracing._spectrum_rows),
                                 (write_components_csv, components, tracing._component_rows)):
        args = (tmp_path / f"{write.__name__}.csv", data)
        write(*args)
        tracer = tracing.Tracer()
        counter(tracer, args, None)
        rows = [line for line in args[0].read_text().splitlines() if not line.startswith("#")]
        assert tracer.counts["dataio.csv_rows_written"] == len(rows) > 0, write.__name__


@pytest.mark.parametrize("module_name, function", [t[:2] for t in _tracing().TARGETS])
def test_traced_function_exists(module_name, function):
    module = importlib.import_module(f"sideband_lab.{module_name}")
    assert callable(getattr(module, function, None)), f"sideband_lab.{module_name}.{function}"
