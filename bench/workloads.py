"""The three workloads: seeded inputs, one job each, and output checks.

A job is one round over a workload's two scenarios: the same piece of
work on each, in a fixed order.  The scenarios' pieces differ in length
by up to a third, and the median of a sample drawn from two clusters
jumps between the clusters' edges from run to run; a round is one kind
of job, and host drift hits both scenarios of a round alike.

Each piece takes one seeded draw.  Draws are a golden-ratio rotation
from a seeded offset: each is uniform on its interval and any run of
consecutive draws covers the interval evenly, so medians depend little
on the seed.

Library calls go through module attributes (``ig.rollout``,
``cli.main``) so the tracer's wrappers are the ones called.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import random

import numpy as np

CONFIGS = ("table1", "table1_w2_1")
# long_horizon: (config, horizon T): about 290 and 200 events per rollout.
LONG_HORIZON = (("table1", 200.0), ("table1_w2_1", 400.0))
ORACLE_GRID = 800
# Fixed-input CSVs are compared to reference.json at these tolerances:
# |value - ref| <= REF_ATOL + REF_RTOL * |ref|.  The repo's tests check the
# same thresholds to 1e-2 absolute.
REF_RTOL = 1e-8
REF_ATOL = 1e-10
REF_STRIDE = 64          # reference rows: every 64th solver node and the last
ORACLE_TOL = 5e-2        # acceptance criterion 7
ORACLE_CELLS = 2

WORKLOADS = ("tabulate", "certify", "long_horizon")
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def draws(seed, n):
    """n numbers in [0, 1): a golden-ratio rotation from a seeded offset."""
    u0 = random.Random(seed).random()
    return [(u0 + k * _GOLDEN) % 1.0 for k in range(n)]


def make_inputs(workload, seed, n, scales=None):
    """The first ``n`` jobs of ``workload`` for ``seed``: lists of piece inputs.

    ``scales`` maps scenario to T for tabulate (t is drawn from [0, T)) and
    to (x_lo, x_hi) for long_horizon (x0 is drawn from that box); the
    defaults are the shipped configs' values.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    us = draws(seed, 2 * n)
    jobs = []
    for k in range(n):
        pieces = []
        for i in range(2):
            u = us[2 * k + i]
            if workload == "long_horizon":
                name, T = LONG_HORIZON[i]
                lo, hi = (scales or {}).get(name, (0.0, 10.0))
                pieces.append({"scenario": name, "T": T, "x0": round(lo + (hi - lo) * u, 6)})
            elif workload == "tabulate":
                name = CONFIGS[i]
                T = (scales or {}).get(name, 1.0)
                pieces.append({"scenario": name, "t": f"{T * u:.6f}"})
            else:
                pieces.append({"scenario": CONFIGS[i]})
        jobs.append(pieces)
    return jobs


def load_reference(bench_dir):
    with open(os.path.join(bench_dir, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_configs(root, scratch):
    """Shipped configs with output_dir pointed into ``scratch``; name -> path."""
    paths = {}
    for name in CONFIGS:
        with open(os.path.join(root, "configs", f"{name}.cfg"), encoding="utf-8") as fh:
            text = fh.read()
        out_dir = os.path.join(scratch, name)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(scratch, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + f"\noutput_dir = {out_dir}\n")
        paths[name] = path
    return paths


class Workload:
    """Set-up state for one workload in one interpreter."""

    def __init__(self, name, root, scratch):
        import impulsegame as ig
        from impulsegame import cli

        self.name = name
        self.ig = ig
        self.cli = cli
        self.bench_dir = os.path.dirname(os.path.abspath(__file__))
        self.cfg_paths = write_configs(root, scratch)
        self.cfgs = {name: cli.load_config(p) for name, p in self.cfg_paths.items()}
        self.solved = {}
        if name == "tabulate":
            self.reference = load_reference(self.bench_dir)
        elif name == "certify":
            for scen, cfg in self.cfgs.items():
                path = ig.solve_backward(cfg.params, n_steps=cfg.n_steps)
                self.solved[scen] = (cfg.params, path, ig.build_policy(path, cfg.params))
        elif name == "long_horizon":
            for scen, T in LONG_HORIZON:
                params = dataclasses.replace(self.cfgs[scen].params, T=T)
                path = ig.solve_backward(params, n_steps=self.cfgs[scen].n_steps)
                self.solved[scen] = (params, path, ig.build_policy(path, params))
        else:
            raise ValueError(f"unknown workload {name!r}")

    def inputs(self, seed, n):
        if self.name == "tabulate":
            scales = {k: c.params.T for k, c in self.cfgs.items()}
        else:
            scales = {k: (c.box.x_lo, c.box.x_hi) for k, c in self.cfgs.items()}
        return make_inputs(self.name, seed, n, scales)

    def out_dir(self, scenario):
        return self.cfgs[scenario].output_dir

    # ---------------------------------------------------------------- jobs
    def run(self, job):
        """Run one job (every piece in order); returns what :meth:`check` needs."""
        piece = getattr(self, "_run_" + self.name)
        return [piece(inp) for inp in job]

    def check(self, job, outs):
        """List of failed checks (empty when every output of the job is right)."""
        piece = getattr(self, "_check_" + self.name)
        return [f"{inp['scenario']}: {msg}" for inp, out in zip(job, outs)
                for msg in piece(inp, out)]

    def bytes_written(self, job):
        """Bytes of the CSV files the job's CLI commands left in their output dirs."""
        if self.name == "long_horizon":
            return 0
        return sum(e.stat().st_size for inp in job
                   for e in os.scandir(self.out_dir(inp["scenario"])) if e.is_file())

    def clean(self, job):
        """Remove the per-job value tables so each job starts from the same files."""
        if self.name != "tabulate":
            return
        for inp in job:
            path = os.path.join(self.out_dir(inp["scenario"]),
                                f"values_t{float(inp['t']):.12g}.csv")
            if os.path.exists(path):
                os.remove(path)

    def _run_tabulate(self, inp):
        cfg = self.cfg_paths[inp["scenario"]]
        return [self.cli.main(["solve", "--config", cfg]),
                self.cli.main(["simulate", "--config", cfg]),
                self.cli.main(["value", "--config", cfg, "--t", inp["t"]])]

    def _run_certify(self, inp):
        params, path, _ = self.solved[inp["scenario"]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(["verify", "--config", self.cfg_paths[inp["scenario"]]])
        box = self.cfgs[inp["scenario"]].box
        oracle = self.ig.dp_oracle_v2(params, path, box, ORACLE_GRID, ORACLE_GRID)
        return rc, buf.getvalue(), oracle

    def _run_long_horizon(self, inp):
        params, path, policy = self.solved[inp["scenario"]]
        traj = self.ig.rollout(path, policy, params, 0.0, inp["x0"], params.T / 4096.0)
        return traj, self.ig.admissibility_check(traj, policy)

    # -------------------------------------------------------------- checks
    def _check_tabulate(self, inp, rcs):
        scen = inp["scenario"]
        cfg = self.cfgs[scen]
        out = self.out_dir(scen)
        errors = [f"{cmd} exited {rc}" for cmd, rc in zip(("solve", "simulate", "value"), rcs)
                  if rc != 0]
        if errors:
            return errors
        ref = self.reference[scen]
        rows = cfg.n_steps + 1
        th = _read_numeric(os.path.join(out, "thresholds.csv"), 5, rows, errors)
        if th is not None:
            ell1, alpha, beta, ell2 = th[:, 1], th[:, 2], th[:, 3], th[:, 4]
            if not np.all((ell1 < alpha) & (alpha < beta) & (beta < ell2)):
                errors.append("thresholds.csv: ell1 < alpha < beta < ell2 fails")
            _compare(th, ref["thresholds"], "thresholds.csv", errors)
        co = _read_numeric(os.path.join(out, "coefficients.csv"), 8, rows, errors)
        if co is not None:
            _compare(co, ref["coefficients"], "coefficients.csv", errors)
        costs = _read_numeric(os.path.join(out, "costs.csv"), 4,
                              len(cfg.initial_states), errors)
        if costs is not None:
            _compare(costs, ref["costs"], "costs.csv", errors)
        for x0 in cfg.initial_states:
            for stem in ("trajectory", "events"):
                if not os.path.isfile(os.path.join(out, f"{stem}_{x0:.12g}.csv")):
                    errors.append(f"missing {stem}_{x0:.12g}.csv")
        values = os.path.join(out, f"values_t{float(inp['t']):.12g}.csv")
        try:
            with open(values, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            return errors + [f"values file: {exc}"]
        if lines[0] != "x0,V1,V2,region" or len(lines) != cfg.nx + 2:
            errors.append(f"{os.path.basename(values)}: bad header or {len(lines) - 1} rows")
        else:
            cells = [line.split(",") for line in lines[1:]]
            v = np.array([[float(c[1]), float(c[2])] for c in cells])
            if not np.all(np.isfinite(v)):
                errors.append(f"{os.path.basename(values)}: non-finite value")
            if any(c[3] not in ("below", "interior", "above") for c in cells):
                errors.append(f"{os.path.basename(values)}: unknown region")
        return errors

    def _check_certify(self, inp, result):
        rc, stdout, oracle = result
        scen = inp["scenario"]
        cfg = self.cfgs[scen]
        errors = []
        if rc != 0:
            errors.append(f"verify exited {rc}")
        if not stdout.rstrip().endswith("verification passed"):
            errors.append("verify did not print 'verification passed'")
        with open(os.path.join(self.out_dir(scen), "report.csv"), "rb") as fh:
            n_lines = fh.read().count(b"\n")
        if n_lines != (cfg.nt + 1) * (cfg.nx + 1) + 1:
            errors.append(f"report.csv has {n_lines} lines")
        params, path, policy = self.solved[scen]
        ell1, _, _, ell2 = policy.thresholds_at(0.0)
        xs = oracle.x_grid
        inside = (xs > ell1) & (xs < ell2)
        exact = self.ig.value_v2(path, policy, params, 0.0, xs)
        disc = float(np.max(np.abs(oracle.values[0] - exact)[inside]))
        if not disc <= ORACLE_TOL:
            errors.append(f"DP oracle off by {disc!r} inside the band")
        lo, hi = oracle.continuation_bracket(0)
        cell = xs[1] - xs[0]
        if abs(lo - ell1) > ORACLE_CELLS * cell or abs(hi - ell2) > ORACLE_CELLS * cell:
            errors.append(f"DP bracket ({lo!r}, {hi!r}) misses ({ell1!r}, {ell2!r})")
        return errors

    def _check_long_horizon(self, inp, result):
        traj, adm = result
        params = self.solved[inp["scenario"]][0]
        cfg = self.cfgs[inp["scenario"]]
        errors = list(adm.violations[:3]) if not adm.ok else []
        bound = self.ig.impulse_bound(params, cfg.box)
        if not 0 < len(traj.events) <= bound:
            errors.append(f"{len(traj.events)} events, bound {bound}")
        if not (math.isfinite(traj.j1) and math.isfinite(traj.j2)):
            errors.append(f"non-finite cost J1={traj.j1!r} J2={traj.j2!r}")
        return errors


def _read_numeric(path, n_cols, n_rows, errors):
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        errors.append(f"{os.path.basename(path)}: {exc}")
        return None
    if data.shape != (n_rows, n_cols) or not np.all(np.isfinite(data)):
        errors.append(f"{os.path.basename(path)}: shape {data.shape} or non-finite values")
        return None
    return data


def _compare(data, ref, label, errors):
    rows = ref["rows"]
    expected = np.asarray(ref["values"], dtype=float)
    got = data[rows]
    bad = np.abs(got - expected) > REF_ATOL + REF_RTOL * np.abs(expected)
    if np.any(bad):
        r, c = np.argwhere(bad)[0]
        errors.append(f"{label}: row {rows[r]} col {c} is {got[r, c]!r}, "
                      f"reference {expected[r, c]!r}")


def reference_rows(data, stride=REF_STRIDE):
    """Rows of a fixed-input CSV kept as reference: every stride-th and the last."""
    rows = list(range(0, len(data), stride))
    if rows[-1] != len(data) - 1:
        rows.append(len(data) - 1)
    return {"rows": rows, "values": data[rows].tolist()}
