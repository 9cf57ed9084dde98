"""Command-line front end: parse a flat key=value config, run the
solve / simulate / value / verify / bound pipelines, emit CSV artifacts.

All CSV output is deterministic: '.' decimal separator, 12 significant
digits, header row, newline-terminated rows.  Exit codes: 0 success,
1 config error, 2 numeric or model violation, 3 verification failure.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    ConfigError,
    ConvexityViolation,
    DegenerateParameterError,
    ImpulseBudgetExceeded,
    InvalidParameterError,
    NonFiniteStateError,
    OrderingViolation,
)
from .model import GameParams, StateBox, validate, validate_box
from .policy import build_policy, gamma_star, value_v2
from .riccati import DEFAULT_STEPS, solve_backward
from .simulate import impulse_bound_parts, make_rollout_hook
from .verify import DEFAULT_GRID, run_verification

PARAM_KEYS = ("a", "b", "w1", "r1", "z1", "s1", "rho1",
              "w2", "s2", "rho2", "C", "D", "c", "d", "T")
BOX_KEYS = ("x_lo", "x_hi")
INT_KEYS = ("n_steps", "nt", "nx")
FLOAT_KEYS = ("sim_step",)
LIST_KEYS = ("initial_states",)
STR_KEYS = ("output_dir",)
ALL_KEYS = PARAM_KEYS + BOX_KEYS + INT_KEYS + FLOAT_KEYS + LIST_KEYS + STR_KEYS

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MODEL = 2
EXIT_VERIFY = 3


@dataclass
class RunConfig:
    params: GameParams
    box: StateBox
    n_steps: int = DEFAULT_STEPS
    sim_step: float = None
    nt: int = DEFAULT_GRID
    nx: int = DEFAULT_GRID
    initial_states: list = field(default_factory=list)
    output_dir: str = "."


def parse_config(text: str) -> RunConfig:
    """Parse one key=value pair per line; '#' starts a comment.

    Later assignments override earlier ones, so a scenario file can be a
    base file plus trailing overrides.  Every violation is reported with
    its line number.
    """
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = (lineno, value)

    missing = [k for k in PARAM_KEYS + BOX_KEYS if k not in raw]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    def as_float(key):
        lineno, value = raw[key]
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} is not a number: {value!r}") from None

    def as_int(key, default):
        if key not in raw:
            return default
        lineno, value = raw[key]
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} is not an integer: {value!r}") from None

    def check_finite(key, numbers):
        if not all(map(math.isfinite, numbers)):
            lineno, value = raw[key]
            raise ConfigError(f"line {lineno}: {key} must be finite: {value!r}")

    params = validate(GameParams(**{k: as_float(k) for k in PARAM_KEYS}))
    box = validate_box(StateBox(x_lo=as_float("x_lo"), x_hi=as_float("x_hi")))

    cfg = RunConfig(params=params, box=box, sim_step=params.T / DEFAULT_STEPS)
    cfg.n_steps = as_int("n_steps", cfg.n_steps)
    cfg.nt = as_int("nt", cfg.nt)
    cfg.nx = as_int("nx", cfg.nx)
    if "sim_step" in raw:
        cfg.sim_step = as_float("sim_step")
        check_finite("sim_step", [cfg.sim_step])
    if "initial_states" in raw:
        lineno, value = raw["initial_states"]
        try:
            cfg.initial_states = [float(v) for v in value.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(
                f"line {lineno}: initial_states must be comma-separated numbers: {value!r}"
            ) from None
        check_finite("initial_states", cfg.initial_states)
    if "output_dir" in raw:
        cfg.output_dir = raw["output_dir"][1]

    for key in ("n_steps", "nt", "nx", "sim_step"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive (got {getattr(cfg, key)!r})")
    if cfg.n_steps < 2:
        raise ConfigError(f"n_steps must be >= 2 (got {cfg.n_steps})")
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _fmt(value) -> str:
    return f"{value:.12g}"


def _write_csv(path, header, rows):
    """Write ``header`` and ``rows``, one line per row.

    Each line is formatted by one ``%`` template built from the first
    row: ``%s`` for str cells and ``%.12g`` for numbers, the same float
    formatter as :func:`_fmt`.  Every row must have the first row's cell
    types.
    """
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if first is not None:
            template = ",".join("%s" if isinstance(cell, str) else "%.12g"
                                for cell in first) + "\n"
            fh.writelines(template % tuple(row) for row in chain((first,), rows))


def _build(cfg: RunConfig):
    path = solve_backward(cfg.params, cfg.n_steps)
    policy = build_policy(path, cfg.params)
    return path, policy


def _outpath(cfg, name):
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def cmd_solve(cfg: RunConfig) -> int:
    """Write thresholds.csv and coefficients.csv over the solver grid."""
    path, policy = _build(cfg)
    ts = path.time_grid
    _write_csv(
        _outpath(cfg, "thresholds.csv"),
        ["t", "ell1", "alpha", "beta", "ell2"],
        zip(ts, policy.ell1, policy.alpha, policy.beta, policy.ell2),
    )
    _write_csv(
        _outpath(cfg, "coefficients.csv"),
        ["t", "p1", "q1", "n1", "p2", "q2", "n2", "a_x"],
        zip(ts, path.p1, path.q1, path.n1, path.p2, path.q2, path.n2, path.a_x),
    )
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    """Roll out every configured initial state and write the artifacts."""
    if not cfg.initial_states:
        raise ConfigError("simulate needs a non-empty initial_states list")
    path, policy = _build(cfg)
    hook = make_rollout_hook(path, policy, cfg.params, cfg.sim_step)
    cost_rows = []
    for x0 in cfg.initial_states:
        traj = hook(0.0, x0)
        tag = _fmt(x0)
        rows = []
        for seg_t, seg_x in traj.segments:
            rows.extend(zip(seg_t, seg_x, gamma_star(path, cfg.params, seg_t, seg_x)))
        _write_csv(_outpath(cfg, f"trajectory_{tag}.csv"), ["t", "x", "u"], rows)
        _write_csv(
            _outpath(cfg, f"events_{tag}.csv"),
            ["tau", "x_minus", "x_plus", "xi", "cost_p1", "cost_p2"],
            [(e.tau, e.x_minus, e.x_plus, e.xi, e.cost_p1, e.cost_p2) for e in traj.events],
        )
        cost_rows.append((x0, traj.j1, traj.j2, float(len(traj.events))))
    _write_csv(_outpath(cfg, "costs.csv"), ["x0", "J1", "J2", "n_events"], cost_rows)
    return EXIT_OK


def cmd_value(cfg: RunConfig, t: float) -> int:
    """Write both players' values over the box grid at one time."""
    if not 0.0 <= t <= cfg.params.T:
        raise ConfigError(f"value time must lie in [0, T] (got {t!r})")
    path, policy = _build(cfg)
    xs = np.linspace(cfg.box.x_lo, cfg.box.x_hi, cfg.nx + 1)
    v2 = value_v2(path, policy, cfg.params, t, xs)
    hook = make_rollout_hook(path, policy, cfg.params, cfg.sim_step)
    v1 = [hook(t, x).j1 for x in xs]
    regions = policy.region(t, xs)
    _write_csv(
        _outpath(cfg, f"values_t{_fmt(t)}.csv"),
        ["x0", "V1", "V2", "region"],
        zip(xs, v1, v2, regions),
    )
    return EXIT_OK


def _report_rows(report):
    """report.csv rows, one per (t, x) node, t-major."""
    xs = report.x_nodes.tolist()
    per_t = zip(report.t_nodes.tolist(), report.x11.tolist(), report.x22.tolist(),
                report.theta_alpha.tolist(), report.theta_beta.tolist(),
                report.margin_ell1.tolist(), report.margin_ell2.tolist(),
                report.convexity_margin.tolist())
    per_node = zip(report.region.tolist(), report.hjb1.tolist(),
                   report.qvi_residual.tolist(), report.gap.tolist(),
                   report.complementarity.tolist())
    for (t, *tail), cells in zip(per_t, per_node):
        tail = tuple(tail)
        for row in zip(xs, *cells):
            yield (t,) + row + tail


def cmd_verify(cfg: RunConfig) -> int:
    """Run the full certification grid; report to stdout and report.csv."""
    if cfg.n_steps < 4:
        # the residuals' finite-difference slopes need five solver nodes
        raise ConfigError(f"verify needs n_steps >= 4 (got {cfg.n_steps})")
    path, policy = _build(cfg)
    report = run_verification(path, policy, cfg.params, cfg.box, nt=cfg.nt, nx=cfg.nx)
    _write_csv(
        _outpath(cfg, "report.csv"),
        ["t", "x", "region", "hjb1_residual", "qvi_residual", "gap", "complementarity",
         "x11", "x22", "theta_alpha", "theta_beta", "margin_ell1", "margin_ell2",
         "convexity_margin"],
        _report_rows(report),
    )
    for cond in report.conditions:
        where = "" if cond.t is None else (
            f" at t={_fmt(cond.t)}" + ("" if cond.x is None else f", x={_fmt(cond.x)}"))
        status = "PASS" if cond.passed else "FAIL"
        print(f"{status} {cond.name}: worst={_fmt(cond.worst)}{where} ({cond.note})")
    print(f"verification {'passed' if report.passed else 'FAILED'}")
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_bound(cfg: RunConfig) -> int:
    """Print the intervention-count bound and its three ingredients."""
    k, h2_sup, s2_sup, mu = impulse_bound_parts(cfg.params, cfg.box)
    print(f"sup running cost ||h2||_inf = {_fmt(h2_sup)}")
    print(f"sup terminal cost ||s2||_inf = {_fmt(s2_sup)}")
    print(f"minimal impulse cost mu = {_fmt(mu)}")
    print(f"impulse bound K = {k}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="impulsegame",
        description="Solve, simulate and verify the impulse-intervention game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("solve", "write threshold and coefficient tables"),
        ("simulate", "roll out the configured initial states"),
        ("verify", "run the certification grid"),
        ("bound", "print the intervention-count bound"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to a key=value config file")
    p = sub.add_parser("value", help="tabulate both value functions at one time")
    p.add_argument("--config", required=True)
    p.add_argument("--t", required=True, type=float, help="evaluation time in [0, T]")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "value":
            return cmd_value(cfg, args.t)
        if args.command == "verify":
            return cmd_verify(cfg)
        return cmd_bound(cfg)
    except (ConfigError, InvalidParameterError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvexityViolation, OrderingViolation, ImpulseBudgetExceeded,
            NonFiniteStateError, DegenerateParameterError) as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
