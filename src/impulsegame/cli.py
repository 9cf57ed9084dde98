"""Command-line front end: parse a flat key=value config, run the
solve / simulate / value / verify / bound pipelines, emit CSV artifacts.

All CSV output is deterministic: '.' decimal separator, 12 significant
digits, header row, newline-terminated rows.  Every CSV goes through one
writer, :func:`_write_csv`: each numeric cell is Python's ``'%.12g' % v``
of the float64 value, byte for byte (``nan``, ``inf``, ``-inf``, ``-0``
included), formatted in numpy with a per-cell ``%`` only where the fast
path cannot be sure of the rounding.  Each cell is a 24-byte slot of three
little-endian uint64 words, the NULs deleted when a block is joined.
Blocks of 2048 cells keep every temporary small enough for glibc to reuse
its heap memory without page faults.  report.csv formats each time's
cells once and splices its rows, each node's cells between its time's
head (t) and tail (the seven per-t cells), in blocks of about 16384
cells: splicing is per block, so smaller blocks cost more there.
Exit codes: 0 success, 1 config error, 2 numeric or model violation,
3 verification failure.
"""

import argparse
import functools
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
from .model import MAX_CELLS, GameParams, StateBox, validate, validate_box
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
        if kind in (int, float):    # the cell counts n_steps, nt, nx and the cell width sim_step
            value = getattr(cfg, key)
            if value <= 0:
                raise ConfigError(f"{key} must be positive (got {value!r})")
            if (value if kind is int else params.T / value) >= MAX_CELLS:
                raise ConfigError(f"{key} = {value!r} makes more grid cells than an array can hold")
    if cfg.n_steps < 2:
        raise ConfigError(f"n_steps must be >= 2 (got {cfg.n_steps})")
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _fmt(value) -> str:
    return f"{value:.12g}"


@functools.cache
def _tables():
    """:func:`_words`' masks per (column, significant digits, sign), and the
    digits and trailing zeros of each group 0..9999, built on first use: a
    process that writes no CSV pays neither their time nor their pages."""
    affix = np.array([(b"0.000"[:1 - x] if -5 < x < 0 else b"").ljust(5, b"\0")
                      + (b"e-%02d" % -x if x < -4 else b"") for x in range(-30, 12)]
                     + [b"nan", b"inf", b"0"], "S9").view(np.uint8).reshape(45, 9)
    col, sig, sign = np.indices((45, 13, 2)).reshape(3, -1, 1)
    x = col - 30
    point = np.where(x < -4, 1, np.where(x >= 0, x + 1, 13))    # 13: no point
    shown = np.where(x >= 0, np.maximum(sig, x + 1), sig)       # an integer part's zeros show
    length = (shown + (shown > point)) * (x < 12)
    j = np.arange(16)
    fixed = np.concatenate([sign * (x != 12) * ord("-"), affix[col[:, 0], :5],
                            ((j[:13] == point) & (j[:13] < length)) * ord("."),
                            affix[col[:, 0], 5:], 0 * sign], 1).astype(np.uint8)
    masks = np.concatenate([(np.uint8(255) * ((j < point) & (j < length))).view("<u8"),
                            (np.uint8(255) * ((j > point) & (j < length))).view("<u8"),
                            fixed.view("<u8")], 1).T.copy()
    groups = np.stack(np.broadcast_arrays(*np.ix_(*4 * [np.frombuffer(b"0123456789", np.uint8)]),
                                          *4 * [np.uint8(0)]), -1).reshape(10000, 8)
    zeros = sum(np.arange(10000) % 10 ** k == 0 for k in range(1, 5)).astype(np.int8)
    return masks, groups.view("<u8").ravel(), zeros


_POW10 = 10.0 ** np.arange(23)
_U8, _U16, _U32, _U48, _U56 = (np.uint64(k) for k in (8, 16, 32, 48, 56))
_BLOCK = 16384      # report.csv cells formatted at a time (cmd_verify)
_CHUNK = 2048       # other cells formatted at a time (_write_csv)


def _words(v):
    """``'%.12g' % x`` for every x of the float64 array ``v``: (3, n) '<u8'
    words, column i cell i's 24-byte slot with NULs that _lines deletes:
    byte 0 the sign, 1-5 the prefix ("0." and up to three zeros, "nan",
    "inf" or "0"), 6-18 twelve digits and the point, 19-22 "e-XX", 23 the
    separator.  Finite |x| in [1e-30, 1e11) takes the fast path: X =
    floor(log10 |x|) from float32, corrected by +-1 where s =
    |x|*10**(11 - X) is not in [1e11, 1e12), and the digits of m = rint(s)
    in two words, put in place by the masks of the cell's column (X + 30;
    42-44 for nan, inf and 0), significant digits and sign.  A cell whose
    m may not be correctly rounded, and any other nonzero finite cell, is
    formatted by :func:`_exact`.
    """
    a = np.abs(v)
    fast = (a >= 1e-30) & (a < 1e11)
    a = np.where(fast, a, 1.0)
    expo = np.floor(np.log10(a.astype(np.float32))).astype(np.intp)    # X, or X +- 1

    def scaled(a, expo):    # at most two products with exact powers 10**j, j <= 22
        k = 11 - expo
        return a * _POW10.take(k, mode="clip") * _POW10.take(k - 22, mode="clip")

    s = scaled(a, expo)
    miss = np.flatnonzero((s >= 1e12) | (s < 1e11))
    if miss.size:
        expo[miss] += np.where(s[miss] >= 1e12, 1, -1)
        s[miss] = scaled(a[miss], expo[miss])
    m = np.rint(s)
    # s is the exact product after at most two roundings, so within
    # 2 * 2**-53 * 1e12 < 2.3e-4 of it: m is the correctly rounded mantissa
    # unless s is within 1e-3 of a tie or near either end of [1e11, 1e12)
    unsure = (np.abs(s - m) >= 0.5 - 1e-3) | (np.abs(s - 1e11) < 0.1) | (np.abs(s - 1e12) < 1e-3)
    del a, s        # two planes fewer alive at the digit stage's peak
    carry = m == 1e12
    expo += carry
    m[carry] = 1e11
    g0, m = np.divmod(m.astype(np.int64), 100000000)     # exact: m is an integer below 2**53
    g1, g2 = np.divmod(m, 10000)
    masks, digits, zeros = _tables()
    lo, hi = digits.take(g0) | (digits.take(g1) << _U32), digits.take(g2)
    shown = 12 - (zeros.take(g2) + (g2 == 0) * (zeros.take(g1) + (g1 == 0) * zeros.take(g0)))
    cell = ((expo + 30) * 13 + shown) * 2 + np.signbit(v)
    odd = np.flatnonzero(~fast)
    if odd.size:    # 0, inf, nan, and finite cells out of the fast path's range
        b = np.abs(v[odd])
        cell[odd] = (42 + (b == np.inf) + 2 * (b == 0.0)) * 26 + np.signbit(v[odd])
        unsure[odd] = np.isfinite(b) & (b != 0.0)
    keep_lo, keep_hi, up_lo, up_hi = (mask.take(cell) for mask in masks[:4])
    lo_slots = (lo & keep_lo) | ((lo << _U8) & up_lo)
    hi_slots = (hi & keep_hi) | (((hi << _U8) | (lo >> _U56)) & up_hi)
    words = masks[4:].take(cell, axis=1)
    words[0] |= lo_slots << _U48
    words[1] |= (lo_slots >> _U16) | (hi_slots << _U48)
    words[2] |= hi_slots >> _U16
    if unsure.any():
        words[:, unsure] = _exact(v[unsure])
    return words


def _exact(v):
    """The fast path's fallback: ``'%.12g' % x`` one cell at a time, as (3, n) words."""
    return np.array([b"%.12g" % x for x in v.tolist()], "S24").view("<u8").reshape(-1, 3).T


def _text(column):
    """A str or bytes column as (n, width) NUL-padded cells, verbatim."""
    if column.dtype.kind == "U":
        codes = column.view(np.uint32)
        if np.any(codes > 127):
            raise ValueError("CSV text cells must be ASCII")
        column = codes.astype(np.uint8).view(f"S{column.itemsize // 4}")
    return column.view(np.uint8).reshape(len(column), column.itemsize)


def _lines(columns) -> bytes:
    """The CSV lines of equal-length ``columns``, newline-terminated: one
    (rows, columns, words) '<u8' array of slots, numbers from one
    :func:`_words` call put in place by one transposing copy where adjacent,
    str and bytes cells verbatim; its bytes with the NULs deleted."""
    columns = [np.asarray(c) for c in columns]
    text = {j: _text(c) for j, c in enumerate(columns) if c.dtype.kind in "US"}
    numbers = [j for j in range(len(columns)) if j not in text]
    rows, width = len(columns[0]), max([3] + [t.shape[1] // 8 + 1 for t in text.values()])
    block = np.zeros((rows, len(columns), width), "<u8")
    if numbers:
        words = _words(np.concatenate([columns[j] for j in numbers]).astype(np.float64, copy=False))
        at = numbers if np.ptp(numbers) >= len(numbers) else slice(numbers[0], numbers[-1] + 1)
        block[:, at, :3] = words.reshape(3, len(numbers), rows).transpose(2, 1, 0)
    cells = block.view(np.uint8).reshape(rows, len(columns), 8 * width)
    for j, t in text.items():
        cells[:, j, :t.shape[1]] = t
    cells[:, :, -1] = np.frombuffer(b"," * (len(columns) - 1) + b"\n", np.uint8)
    return block.tobytes().translate(None, b"\0")


def _strings(columns):
    """The lines of :func:`_lines` as a bytes array, to be repeated as cells."""
    return np.array(_lines(columns).split(b"\n")[:-1])


def _write_csv(path, header, blocks):
    """Write ``header`` and then each block: ready bytes, or a sequence of
    equal-length columns.

    A str or bytes column is written verbatim, any other column cell by
    cell as Python's ``'%.12g' %`` of its float64 value.  Each cell is a
    24-byte slot of three little-endian uint64 words (:func:`_words`).  A
    block of columns is formatted by :func:`_lines` in pieces of about
    ``_CHUNK`` (2048) cells, whatever its length; the bytes do not depend
    on where the pieces end.  A piece's temporaries are 16-48 KB arrays,
    few alive at once, so glibc serves them from the same heap memory piece
    after piece, below its mmap and trim thresholds.  Pieces of 16384
    cells take 2-4 MB of fresh pages each, which glibc hands back to the
    OS and faults in again for the next.  report.csv's rows come here as
    ready bytes, formatted by :func:`cmd_verify` in blocks of about
    ``_BLOCK`` (16384) cells, since it splices its rows per block.  An
    existing file is written over in place and then cut at the end of the
    new bytes: truncating a file that holds data first costs more than
    the write.
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
            step = max(1, _CHUNK // len(columns))       # rows
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
    except MemoryError as exc:
        print(f"config error: {exc}: lower n_steps, nt or nx, or raise sim_step", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvexityViolation, OrderingViolation, ImpulseBudgetExceeded,
            NonFiniteStateError, DegenerateParameterError) as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
