"""The benchmark's traced layer boundaries name functions that exist.

`bench/tracing.py` wraps each `(module, function)` of its `TARGETS` by name;
a renamed or deleted function makes `bench/run.py --trace 1` fail with an
`AttributeError`. This loads that file by path and resolves every name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, function", [t[:2] for t in _targets()])
def test_traced_function_exists(module_name, function):
    module = importlib.import_module(f"sideband_lab.{module_name}")
    assert callable(getattr(module, function, None)), f"sideband_lab.{module_name}.{function}"
