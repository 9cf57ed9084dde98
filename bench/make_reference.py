"""Regenerate bench/reference.json from the current code.

Usage, from the repository root:  python3 bench/make_reference.py

Runs ``solve`` and ``simulate`` on both shipped configs and keeps every
64th row (and the last) of thresholds.csv and coefficients.csv, and all
of costs.csv.  Only regenerate when a change to the outputs is intended
and documented; the tabulate workload fails every job that disagrees.
"""

import json
import os
import sys

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from impulsegame import cli  # noqa: E402
from workloads import CONFIGS, reference_rows, write_configs  # noqa: E402


def main():
    scratch = os.path.join(ROOT, ".bench_run", "reference")
    paths = write_configs(ROOT, scratch)
    ref = {}
    for name in CONFIGS:
        for command in ("solve", "simulate"):
            if cli.main([command, "--config", paths[name]]) != 0:
                raise SystemExit(f"{command} failed on {name}")
        out = os.path.join(scratch, name)

        def load(fname):
            return np.loadtxt(os.path.join(out, fname), delimiter=",", skiprows=1, ndmin=2)

        ref[name] = {
            "thresholds": reference_rows(load("thresholds.csv")),
            "coefficients": reference_rows(load("coefficients.csv")),
            "costs": reference_rows(load("costs.csv"), stride=1),
        }
    with open(os.path.join(BENCH, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
