"""Rewrite tests/golden.json, the digests of the fixed CLI runs of tests/golden.py.

Run from the repository root:

    PYTHONPATH=src python scripts/bless_golden.py

It prints the name of every run whose record changed. A change that
re-blesses lists each changed digest, and why, in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import numpy as np
from golden import GOLDEN, RUNS, run


def main() -> int:
    old = json.loads(GOLDEN.read_text())["runs"] if GOLDEN.exists() else {}
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for index, (name, argv) in enumerate(RUNS.items()):
            directory = Path(tmp) / str(index)
            directory.mkdir()
            records[name] = run(argv, directory)
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "runs": records},
                                 indent=2, sort_keys=True) + "\n")
    for name in sorted(records.keys() | old.keys()):
        if records.get(name) != old.get(name):
            print(f"changed: {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
