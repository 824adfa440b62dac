#!/usr/bin/env python3
"""Reproduce the +1 quantum sideband imbalance with the stochastic oracle.

Runs the rate-scaled 'oracle-demo' configuration (vacuum baths, balanced
probes), estimates both sideband weights from the simulated time series,
and prints the imbalance normalized to (kappa_r/kappa) * gamma_opt, whose
analytic value is exactly 1. Expect a Monte-Carlo scatter of about 1.2%
(one standard deviation over seeds) at the default layout.

    python scripts/quantum_imbalance_experiment.py [--segments N] [--seed S]
"""

import argparse
import json
import time

from sideband_lab.langevin import oracle_compare
from sideband_lab.presets import preset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--segments", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--trajectories", type=int, default=128)
    args = parser.parse_args()

    params, baths, config = preset("oracle-demo")
    start = time.monotonic()
    report, _, _ = oracle_compare(params, baths, config, n_segments=args.segments,
                                  seed=args.seed, n_trajectories=args.trajectories)
    runtime = time.monotonic() - start

    gamma_opt, _ = config.gamma_opt_pair(params)
    pref = params.kappa_r / params.kappa
    imbalance = (report["mc_weight"]["stokes"] - report["mc_weight"]["anti_stokes"]) \
        / (pref * gamma_opt)
    print(json.dumps({k: report[k] for k in
                      ("analytic_weight", "mc_weight", "rel_err", "n_segments",
                       "mc_floor", "analytic_floor")}, indent=2))
    print(f"normalized imbalance: {imbalance:.4f} (analytic: 1.0000)")
    print(f"runtime: {runtime:.1f} s, rng = {report['rng']}, seed = {report['seed']}")


if __name__ == "__main__":
    main()
