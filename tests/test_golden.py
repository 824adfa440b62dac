"""Byte-identity: every run of `golden.RUNS` gives the outputs `golden.json` holds.

An unintended change of any output bit fails here; an intended one shows as
a re-blessed digest (`scripts/bless_golden.py`). The oracle's outputs must
not depend on its workers, so its runs are also checked on one and three
workers and without `os.fork`.
"""

import json
import os

import numpy as np
import pytest

from golden import GOLDEN, RUNS, run

ORACLE_RUNS = [name for name in RUNS if name.startswith("oracle-compare")]


@pytest.fixture(scope="module")
def golden():
    blessed = json.loads(GOLDEN.read_text())
    if blessed["numpy"] != np.__version__:
        pytest.fail(f"golden.json was blessed with numpy {blessed['numpy']}, this is numpy "
                    f"{np.__version__}: rerun scripts/bless_golden.py and review the changes")
    return blessed["runs"]


def test_every_blessed_run_is_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", RUNS)
def test_output_matches_the_blessed_digests(golden, tmp_path, name):
    assert run(RUNS[name], tmp_path) == golden[name]


@pytest.mark.parametrize("cpus", [1, 3, None], ids=["1-worker", "3-workers", "no-fork"])
@pytest.mark.parametrize("name", ORACLE_RUNS)
def test_oracle_output_does_not_depend_on_the_workers(golden, tmp_path, monkeypatch, name, cpus):
    if cpus is None:
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert run(RUNS[name], tmp_path) == golden[name]
