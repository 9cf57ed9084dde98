"""Command-line front end: parse a flat key=value config, run the
solve / simulate / value / verify / bound pipelines, emit CSV artifacts.

All CSV output is deterministic: '.' decimal separator, 12 significant
digits, header row, newline-terminated rows.  Every CSV goes through one
writer, :func:`_write_csv`: each numeric cell is Python's ``'%.12g' % v``
of the float64 value, byte for byte (``nan``, ``inf``, ``-inf``, ``-0``
included), formatted a column at a time in numpy with a per-cell ``%``
only where the fast path cannot be sure of the rounding.  report.csv
formats each time's cells once: its rows are ready bytes, each node's
cells spliced between its time's head (t) and tail (the seven per-t
cells).
Exit codes: 0 success, 1 config error, 2 numeric or model violation,
3 verification failure.
"""

import argparse
import os
import sys
from dataclasses import dataclass, field, fields

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
from .simulate import impulse_bound_parts, make_rollout_hook, value_v1
from .verify import DEFAULT_GRID, run_verification

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


def _numbers(value):
    return [float(v) for v in value.split(",") if v.strip()]


# the required keys are the model's fields, the optional ones the run's
PARAM_KEYS = tuple(f.name for f in fields(GameParams))
BOX_KEYS = tuple(f.name for f in fields(StateBox))
OPTIONAL_KEYS = {f.name: f.type for f in fields(RunConfig)
                 if f.type not in (GameParams, StateBox)}
PARSERS = {int: (int, "is not an integer"), float: (float, "is not a number"),
           list: (_numbers, "must be comma-separated numbers"), str: (str, None)}


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
        if key not in PARAM_KEYS + BOX_KEYS and key not in OPTIONAL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        raw[key] = (lineno, value)

    missing = [k for k in PARAM_KEYS + BOX_KEYS if k not in raw]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    def fail(key, what):
        lineno, value = raw[key]
        raise ConfigError(f"line {lineno}: {key} {what}: {value!r}") from None

    def parse(key, kind):
        parser, what = PARSERS[kind]
        try:
            return parser(raw[key][1])
        except ValueError:
            fail(key, what)

    params = validate(GameParams(**{k: parse(k, float) for k in PARAM_KEYS}))
    box = validate_box(StateBox(**{k: parse(k, float) for k in BOX_KEYS}))

    cfg = RunConfig(params=params, box=box, sim_step=params.T / DEFAULT_STEPS)
    for key, kind in OPTIONAL_KEYS.items():
        if key in raw:
            value = parse(key, kind)
            if kind in (float, list) and not np.all(np.isfinite(value)):
                fail(key, "must be finite")
            setattr(cfg, key, value)

    for key, kind in OPTIONAL_KEYS.items():
        if kind in (int, float) and getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive (got {getattr(cfg, key)!r})")
    if cfg.n_steps < 2:
        raise ConfigError(f"n_steps must be >= 2 (got {cfg.n_steps})")
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _fmt(value) -> str:
    return f"{value:.12g}"


# '%.12g' of a float64 column, in numpy.  Cells are position-major: row j of
# a (width, n) uint8 array is byte j of every cell.  A cell may hold NULs
# anywhere, since _lines deletes them, so each byte has a fixed row: a float
# cell is a sign, five bytes for "0." and up to three zeros, thirteen for
# twelve digits with the point among them, and four for "e-XX".  With X the
# decimal exponent, column X + 30 of _AFFIX holds the prefix and exponent
# bytes for X in [-30, 11] (fixed notation for -4 <= X < 12, as %g has it);
# columns 42-44 hold "nan", "inf" and "0".
_X = np.arange(-30, 12)
_SCI = _X < -4
_POINT = np.concatenate([np.where(_SCI, 1, np.where(_X >= 0, _X + 1, 13)), [13, 13, 13]])
_AFFIX = np.zeros((9, 45), np.uint8)
_AFFIX[:5, :42] = (np.arange(5)[:, None] < 1 - _X) * (~_SCI & (_X < 0)) * np.frombuffer(
    b"0.000", np.uint8)[:, None]
_AFFIX[5:, :42] = np.stack([np.full(42, ord("e")), np.where(_X < 0, ord("-"), ord("+")),
                            ord("0") + -_X // 10, ord("0") + -_X % 10]) * _SCI
_AFFIX[:3, 42:] = np.frombuffer(b"naninf0\0\0", np.uint8).reshape(3, 3).T
# the four digits of each group 0..9999, as one uint32, and its trailing zeros
_GROUPS = np.stack(np.broadcast_arrays(*np.ix_(*4 * [np.frombuffer(b"0123456789", np.uint8)])),
                   -1).reshape(10000, 4)
_DIGITS = _GROUPS.view(np.uint32).ravel()
_ZEROS = (_GROUPS == ord("0")).T
_TRAILING_ZEROS = _ZEROS[3] * (1 + _ZEROS[2] * (1 + _ZEROS[1] * (1 + _ZEROS[0].astype(np.intp))))
_POW10 = 10.0 ** np.arange(23)
_SLOTS = np.arange(13, dtype=np.uint8)[:, None]
_MINUS, _DOT = np.uint8(ord("-")), np.uint8(ord("."))
_BLOCK = 16384      # cells written at a time


def _format(v):
    """``'%.12g' % x`` for every x of the float64 array ``v``, as (23, n) cells.

    Finite |x| in [1e-30, 1e11) takes the fast path: an estimate of
    X = floor(log10 |x|), corrected by +-1 where s = |x|*10**(11 - X) is
    not in [1e11, 1e12) and s taken again there, and the twelve digits of
    m = rint(s).  A cell whose m may not be the correctly rounded
    mantissa, and any other nonzero finite cell, is formatted by
    :func:`_exact`.
    """
    n = len(v)
    a = np.abs(v)
    fast = (a >= 1e-30) & (a < 1e11)
    a1 = np.where(fast, a, 1.0)
    expo = np.floor(np.log10(a1.astype(np.float32))).astype(np.intp)   # X, or X +- 1

    def scaled(a, expo):    # at most two products with exact powers 10**j, j <= 22
        k = 11 - expo
        return a * _POW10.take(k, mode="clip") * _POW10.take(k - 22, mode="clip")

    s = scaled(a1, expo)
    miss = np.flatnonzero((s >= 1e12) | (s < 1e11))
    if miss.size:
        expo[miss] += np.where(s[miss] >= 1e12, 1, -1)
        s[miss] = scaled(a1[miss], expo[miss])
    m = np.rint(s)
    # s is the exact product after at most two roundings, so within
    # 2 * 2**-53 * 1e12 < 2.3e-4 of it: m is the correctly rounded mantissa
    # unless s is within 1e-3 of a tie or near either end of [1e11, 1e12)
    unsure = (np.abs(s - m) >= 0.5 - 1e-3) | (np.abs(s - 1e11) < 0.1) | (np.abs(s - 1e12) < 1e-3)
    carry = m == 1e12
    expo += carry
    m[carry] = 1e11
    # four-digit groups by float division: exact, since m < 2**53 and each
    # quotient is over 1e-8 from the next integer, far above its rounding
    g0 = np.floor(m / 1e8)
    m -= g0 * 1e8
    g1 = np.floor(m / 1e4)
    groups = np.stack([g0, g1, m - g1 * 1e4]).astype(np.intp)
    digits = np.zeros((14, n), np.uint8)      # NUL, the twelve digits, NUL
    digits[1:13].reshape(3, 4, n)[:] = _DIGITS.take(groups).view(np.uint8).reshape(
        3, n, 4).transpose(0, 2, 1)
    g0, g1, g2 = groups
    z0, z1, z2 = _TRAILING_ZEROS.take(groups)
    significant = 12 - (z2 + (g2 == 0) * (z1 + (g1 == 0) * z0))
    col = np.where(fast, expo + 30, np.where(np.isnan(v), 42, np.where(a == np.inf, 43, 44)))
    point = _POINT.take(col).astype(np.uint8)      # digits before the point; 13: no point
    shown = np.where(expo >= 0, np.maximum(significant, expo + 1), significant)
    length = ((shown + (shown > point)) * fast).astype(np.uint8)
    cells = np.empty((23, n), np.uint8)
    cells[0] = (np.signbit(v) & ~np.isnan(v)) * _MINUS
    affix = _AFFIX.take(col, axis=1)
    cells[1:6], cells[19:] = affix[:5], affix[5:]
    cells[6:19] = (digits[1:] * (_SLOTS < point) + digits[:13] * (_SLOTS > point)
                   + (_SLOTS == point) * _DOT) * (_SLOTS < length)
    slow = (fast & unsure) | (np.isfinite(v) & ~fast & (a != 0.0))
    if slow.any():
        cells[:, slow] = _exact(v[slow])
    return cells


def _exact(v):
    """The fast path's fallback: ``'%.12g' % x`` one cell at a time."""
    return np.array([b"%.12g" % x for x in v.tolist()], "S23").view(np.uint8).reshape(-1, 23).T


def _text(column):
    """A str or bytes column as (width, n) NUL-padded cells, verbatim."""
    if column.dtype.kind == "U":
        codes = column.view(np.uint32)
        if np.any(codes > 127):
            raise ValueError("CSV text cells must be ASCII")
        column = codes.astype(np.uint8).view(f"S{column.itemsize // 4}")
    return column.view(np.uint8).reshape(len(column), column.itemsize).T


def _lines(columns) -> bytes:
    """The CSV lines of equal-length ``columns``, newline-terminated.

    str and bytes columns are written verbatim; the other columns are
    numbers, all formatted by one :func:`_format` call.
    """
    columns = [np.asarray(c) for c in columns]
    text = [c.dtype.kind in "US" for c in columns]
    numbers = [c for c, is_text in zip(columns, text) if not is_text]
    formatted = iter(np.hsplit(_format(np.concatenate(numbers).astype(np.float64)),
                               len(numbers)) if numbers else [])
    cells = [_text(c) if is_text else next(formatted) for c, is_text in zip(columns, text)]
    buf = np.empty((sum(len(c) + 1 for c in cells), len(columns[0])), np.uint8)
    at = 0
    for c in cells:
        buf[at:at + len(c)] = c
        buf[at + len(c)] = ord(",")
        at += len(c) + 1
    buf[-1] = ord("\n")
    return buf.T.tobytes().translate(None, b"\0")


def _strings(columns):
    """The lines of :func:`_lines` as a bytes array, to be repeated as cells."""
    return np.array(_lines(columns).split(b"\n")[:-1])


def _write_csv(path, header, blocks):
    """Write ``header`` and then each block: ready bytes, or a sequence of
    equal-length columns.

    A str or bytes column is written verbatim, any other column cell by
    cell as Python's ``'%.12g' %`` of its float64 value.  A block of
    columns is written in pieces of about ``_BLOCK`` cells.  An existing
    file is written over in place and then cut at the end of the new
    bytes: truncating a file that holds data first costs more than the
    write.
    """
    # O_BINARY (Windows only) keeps the C runtime from translating newlines
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(os.open(path, flags, 0o666), "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for block in blocks:
            if isinstance(block, bytes):
                fh.write(block)
                continue
            columns = [np.asarray(c) for c in block]
            step = max(1, _BLOCK // len(columns))       # rows
            for i in range(0, len(columns[0]), step):
                fh.write(_lines([c[i:i + step] for c in columns]))
        fh.truncate()


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
    _write_csv(_outpath(cfg, "thresholds.csv"), ["t", "ell1", "alpha", "beta", "ell2"],
               [[ts, policy.ell1, policy.alpha, policy.beta, policy.ell2]])
    _write_csv(_outpath(cfg, "coefficients.csv"), ["t", "p1", "q1", "n1", "p2", "q2", "n2", "a_x"],
               [[ts, path.p1, path.q1, path.n1, path.p2, path.q2, path.n2, path.a_x]])
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    """Roll out every configured initial state and write the artifacts."""
    if not cfg.initial_states:
        raise ConfigError("simulate needs a non-empty initial_states list")
    tagged = {}     # a start per file tag
    for x0 in cfg.initial_states:
        if tagged.setdefault(_fmt(x0), x0) != x0:
            raise ConfigError(f"initial_states {tagged[_fmt(x0)]!r} and {x0!r} would both "
                              f"write trajectory_{_fmt(x0)}.csv")
    path, policy = _build(cfg)
    hook = make_rollout_hook(path, policy, cfg.params, cfg.sim_step)
    event_fields = ["tau", "x_minus", "x_plus", "xi", "cost_p1", "cost_p2"]
    costs = []
    for x0 in cfg.initial_states:
        traj = hook(0.0, x0)
        tag = _fmt(x0)
        t, x = (np.concatenate([seg[i] for seg in traj.segments]) for i in (0, 1))
        _write_csv(_outpath(cfg, f"trajectory_{tag}.csv"), ["t", "x", "u"],
                   [[t, x, gamma_star(path, cfg.params, t, x)]])
        _write_csv(_outpath(cfg, f"events_{tag}.csv"), event_fields,
                   [[[getattr(e, k) for e in traj.events] for k in event_fields]])
        costs.append((x0, traj.j1, traj.j2, len(traj.events)))
    _write_csv(_outpath(cfg, "costs.csv"), ["x0", "J1", "J2", "n_events"], [list(zip(*costs))])
    return EXIT_OK


def cmd_value(cfg: RunConfig, t: float) -> int:
    """Write both players' values over the box grid at one time.

    V2 is :func:`.policy.value_v2`; V1 is :func:`.simulate.value_v1`, each
    start's rollout J1, bit for bit what a rollout hook gives start by start.
    """
    if not 0.0 <= t <= cfg.params.T:
        raise ConfigError(f"value time must lie in [0, T] (got {t!r})")
    impulse_bound_parts(cfg.params, cfg.box)      # fails on a box too far from rho2
    path, policy = _build(cfg)
    xs = np.linspace(cfg.box.x_lo, cfg.box.x_hi, cfg.nx + 1)
    v2 = value_v2(path, policy, cfg.params, t, xs)
    v1 = value_v1(path, policy, cfg.params, t, xs, cfg.sim_step)
    _write_csv(_outpath(cfg, f"values_t{_fmt(t)}.csv"), ["x0", "V1", "V2", "region"],
               [[xs, v1, v2, policy.region(t, xs)]])
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    """Run the full certification grid; report to stdout and report.csv."""
    if cfg.n_steps < 4:
        # the residuals' finite-difference slopes need five solver nodes
        raise ConfigError(f"verify needs n_steps >= 4 (got {cfg.n_steps})")
    path, policy = _build(cfg)
    report = run_verification(path, policy, cfg.params, cfg.box, nt=cfg.nt, nx=cfg.nx)
    # one line per (t, x) node, t-major: t and the seven per-t cells are
    # formatted once per t, as the head and tail of every line of its row.
    # Each block of whole t rows formats x and the five per-node cells, one
    # line per node, and splices each row's lines between its head and tail.
    nx = len(report.x_nodes)
    heads = [t + b"," for t in _strings([report.t_nodes])]
    tails = [b"," + c + b"\n" for c in _strings([
        report.x11, report.x22, report.theta_alpha, report.theta_beta,
        report.margin_ell1, report.margin_ell2, report.convexity_margin])]
    xs = _strings([report.x_nodes])
    per_node = (report.region, report.hjb1, report.qvi_residual, report.gap,
                report.complementarity)
    step = max(1, _BLOCK // ((len(per_node) + 1) * nx))    # t rows in _BLOCK cells

    def rows():
        for i in range(0, len(heads), step):
            block_heads, block_tails = heads[i:i + step], tails[i:i + step]
            text = _lines([np.tile(xs, len(block_heads)),
                           *(c[i:i + step].ravel() for c in per_node)])
            # each t row's lines end at its last node's newline
            ends = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n"))[nx - 1::nx].tolist()
            starts = [0] + [e + 1 for e in ends[:-1]]
            for a, b, head, tail in zip(starts, ends, block_heads, block_tails):
                yield head + text[a:b].replace(b"\n", tail + head) + tail

    _write_csv(
        _outpath(cfg, "report.csv"),
        ["t", "x", "region", "hjb1_residual", "qvi_residual", "gap", "complementarity",
         "x11", "x22", "theta_alpha", "theta_beta", "margin_ell1", "margin_ell2",
         "convexity_margin"],
        rows(),
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
    p.add_argument("--t", required=True, type=float,
                   help="evaluation time in [0, T]; the table is values_t<t>.csv with t to 12 "
                        "significant digits, so a later run at a time that rounds to the same name "
                        "replaces it")
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
