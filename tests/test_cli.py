import csv
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from impulsegame import (
    build_policy,
    gamma_star,
    make_rollout_hook,
    run_verification,
    solve_backward,
    value_v2,
)
from impulsegame.cli import (
    _write_csv,
    cmd_simulate,
    cmd_solve,
    cmd_value,
    cmd_verify,
    load_config,
    main,
    parse_config,
)
from impulsegame.errors import ConfigError

REPO = Path(__file__).resolve().parent.parent
BASE_CFG = REPO / "configs" / "table1.cfg"
W2_1_CFG = REPO / "configs" / "table1_w2_1.cfg"


def write_cfg(tmp_path, base=BASE_CFG, name="run.cfg", **overrides):
    """Copy a shipped config and append key overrides (later keys win)."""
    text = base.read_text()
    for key, value in overrides.items():
        text += f"\n{key} = {value}\n"
    out = tmp_path / name
    out.write_text(text)
    return out


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_parse_config_matches_baseline():
    cfg = parse_config(BASE_CFG.read_text())
    p = cfg.params
    assert (p.a, p.b, p.w1, p.s1, p.r1, p.z1) == (0.1, -0.3, 1.0, 1.0, 1.0, 2.0)
    assert (p.w2, p.s2, p.c, p.C, p.D, p.d) == (4.0, 1.0, 2.0, 3.0, 5.0, 3.0)
    assert (p.rho1, p.rho2, p.T) == (2.5, 5.0, 1.0)
    assert cfg.n_steps == 4096 and cfg.nt == 200 and cfg.nx == 200
    assert cfg.sim_step == pytest.approx(1.0 / 4096)
    assert cfg.initial_states == [2.0, 5.0, 8.0]


def test_parse_config_override_wins():
    cfg = parse_config(BASE_CFG.read_text() + "\nw2 = 1\n")
    assert cfg.params.w2 == 1.0


def test_parse_config_empty_lists_required_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    msg = str(err.value)
    for key in ("a", "b", "w1", "T", "x_lo", "x_hi"):
        assert key in msg


def test_parse_config_unknown_key_with_line_number():
    text = BASE_CFG.read_text() + "bogus = 1\n"
    lineno = 1 + next(i for i, line in enumerate(text.splitlines())
                      if line.startswith("bogus"))
    with pytest.raises(ConfigError, match=f"line {lineno}.*bogus"):
        parse_config(text)


def test_parse_config_bad_number_with_line_number():
    with pytest.raises(ConfigError, match="line 1.*not a number"):
        parse_config("a = fast\n" + "\n".join(
            line for line in BASE_CFG.read_text().splitlines()
            if not line.startswith("a =")))


@pytest.mark.parametrize("key, value, message", [
    ("n_steps", "1.5", "line {n}: n_steps is not an integer: '1.5'"),
    ("nt", "1.5", "line {n}: nt is not an integer: '1.5'"),
    ("nx", "1.5", "line {n}: nx is not an integer: '1.5'"),
    ("sim_step", "fast", "line {n}: sim_step is not a number: 'fast'"),
    ("initial_states", "2, x",
     "line {n}: initial_states must be comma-separated numbers: '2, x'"),
    ("nt", "0", "nt must be positive (got 0)"),
    ("sim_step", "-1", "sim_step must be positive (got -1.0)"),
    ("n_steps", "1", "n_steps must be >= 2 (got 1)"),
])
def test_bad_run_setting_message(key, value, message):
    text = BASE_CFG.read_text() + f"\n{key} = {value}\n"
    lineno = len(text.splitlines())                     # the override is the last line
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message.format(n=lineno)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["sim_step", "initial_states"])
def test_nonfinite_run_setting_is_config_error_with_line(tmp_path, capsys, key, bad):
    # before, nan steps raised a traceback and inf states or steps were
    # reported as model violations or as a state box the user never set
    value = bad if key == "sim_step" else f"2, {bad}"
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out", **{key: value})
    lineno = len(cfg.read_text().splitlines())          # the override is the last line
    with pytest.raises(ConfigError, match=f"line {lineno}: {key} must be finite"):
        parse_config(cfg.read_text())
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert f"line {lineno}: {key} must be finite" in capsys.readouterr().err


def test_solve_outputs_threshold_row(tmp_path):
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out")
    assert main(["solve", "--config", str(cfg)]) == 0
    rows = read_csv(tmp_path / "out" / "thresholds.csv")
    first = rows[0]
    assert float(first["t"]) == 0.0
    assert float(first["ell1"]) == pytest.approx(3.3822, abs=1e-2)
    assert float(first["alpha"]) == pytest.approx(4.5111, abs=1e-2)
    assert float(first["beta"]) == pytest.approx(5.5731, abs=1e-2)
    assert float(first["ell2"]) == pytest.approx(7.0305, abs=1e-2)
    ts = np.array([float(r["t"]) for r in rows])
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert np.all(np.diff(ts) > 0.0)
    cols = read_csv(tmp_path / "out" / "coefficients.csv")[0]
    assert set(cols) == {"t", "p1", "q1", "n1", "p2", "q2", "n2", "a_x"}


def test_solve_low_weight_threshold_row(tmp_path):
    cfg = write_cfg(tmp_path, base=W2_1_CFG, output_dir=tmp_path / "out")
    assert main(["solve", "--config", str(cfg)]) == 0
    first = read_csv(tmp_path / "out" / "thresholds.csv")[0]
    assert float(first["ell1"]) == pytest.approx(2.0468, abs=1e-2)
    assert float(first["alpha"]) == pytest.approx(3.8380, abs=1e-2)
    assert float(first["beta"]) == pytest.approx(6.5116, abs=1e-2)
    assert float(first["ell2"]) == pytest.approx(8.8240, abs=1e-2)


def test_solve_is_byte_deterministic(tmp_path):
    cfg_a = write_cfg(tmp_path, name="a.cfg", output_dir=tmp_path / "a")
    cfg_b = write_cfg(tmp_path, name="b.cfg", output_dir=tmp_path / "b")
    assert main(["solve", "--config", str(cfg_a)]) == 0
    assert main(["solve", "--config", str(cfg_b)]) == 0
    for name in ("thresholds.csv", "coefficients.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_artifacts(tmp_path):
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out")
    assert main(["simulate", "--config", str(cfg)]) == 0
    events8 = read_csv(tmp_path / "out" / "events_8.csv")
    assert len(events8) == 1
    assert float(events8[0]["tau"]) == 0.0
    assert float(events8[0]["x_plus"]) == pytest.approx(5.5731, abs=1e-2)
    events5 = read_csv(tmp_path / "out" / "events_5.csv")
    assert events5 == []
    costs = read_csv(tmp_path / "out" / "costs.csv")
    assert [float(r["x0"]) for r in costs] == [2.0, 5.0, 8.0]
    assert [float(r["n_events"]) for r in costs] == [1.0, 0.0, 1.0]
    traj = read_csv(tmp_path / "out" / "trajectory_8.csv")
    assert {"t", "x", "u"} == set(traj[0])
    # the event shows up as two rows at t = 0: pre- and post-jump states
    assert float(traj[0]["t"]) == 0.0 and float(traj[0]["x"]) == 8.0
    assert float(traj[1]["t"]) == 0.0
    assert float(traj[1]["x"]) == pytest.approx(5.5731, abs=1e-2)


def test_simulate_builds_one_grid_for_all_initial_states(tmp_path, monkeypatch):
    from impulsegame import simulate

    starts = []

    class CountingGrid(simulate._RolloutGrid):
        def __init__(self, path, policy, params, t0, step):
            starts.append(t0)
            super().__init__(path, policy, params, t0, step)

    monkeypatch.setattr(simulate, "_RolloutGrid", CountingGrid)
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out")
    assert parse_config(cfg.read_text()).initial_states == [2.0, 5.0, 8.0]
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert starts == [0.0]

def test_simulate_low_weight_interior_start(tmp_path):
    cfg = write_cfg(tmp_path, base=W2_1_CFG, output_dir=tmp_path / "out",
                    initial_states="6")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert read_csv(tmp_path / "out" / "events_6.csv") == []


def test_simulate_requires_initial_states(tmp_path):
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out", initial_states="")
    assert main(["simulate", "--config", str(cfg)]) == 1


def test_simulate_rejects_distinct_starts_that_share_a_file_tag(tmp_path, capsys):
    # both print as 5 to 12 significant digits, so one would overwrite the other's files
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out",
                    initial_states="2, 5.0000000000001, 5.0000000000002")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == ("config error: initial_states 5.0000000000001 and "
                                       "5.0000000000002 would both write trajectory_5.csv\n")
    assert not (tmp_path / "out").exists()
    # equal starts write the same files twice, and costs.csv gets a row for each
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out", initial_states="5, 5.0")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert [r["x0"] for r in read_csv(tmp_path / "out" / "costs.csv")] == ["5", "5"]


def test_value_command_at_zero(tmp_path):
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out", nx=500)
    assert main(["value", "--config", str(cfg), "--t", "0"]) == 0
    rows = read_csv(tmp_path / "out" / "values_t0.csv")
    assert len(rows) == 501
    xs = np.array([float(r["x0"]) for r in rows])
    v1 = np.array([float(r["V1"]) for r in rows])
    v2 = np.array([float(r["V2"]) for r in rows])
    regions = [r["region"] for r in rows]
    assert regions[0] == "below" and regions[-1] == "above"
    # V2 continuous: adjacent deltas bounded by the worst local slope
    dx = xs[1] - xs[0]
    max_slope = max(abs(v2[1:] - v2[:-1]) / dx)
    assert max_slope < 25.0  # |p2*x + q2| stays below this over the box
    # V1 jumps across ell1: the step dwarfs the local interior slope
    jump_idx = int(np.argmax(np.abs(np.diff(v1))))
    interior_slope = np.median(np.abs(np.diff(v1) / dx))
    assert abs(v1[jump_idx + 1] - v1[jump_idx]) > 5 * interior_slope * dx


def test_value_command_at_horizon(tmp_path):
    # V1 reduces to its terminal quadratic everywhere (no impulse can fire
    # at the horizon); V2 keeps its piecewise form, so the terminal identity
    # holds on the continuation region where play actually ends
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out", nx=100)
    assert main(["value", "--config", str(cfg), "--t", "1"]) == 0
    rows = read_csv(tmp_path / "out" / "values_t1.csv")
    assert any(row["region"] == "interior" for row in rows)
    for row in rows:
        x = float(row["x0"])
        assert float(row["V1"]) == pytest.approx(0.5 * 1.0 * (x - 2.5) ** 2, rel=1e-9)
        if row["region"] == "interior":
            assert float(row["V2"]) == pytest.approx(0.5 * 1.0 * (x - 5.0) ** 2, rel=1e-9)


def test_value_table_is_named_by_t_to_12_significant_digits(tmp_path):
    # 0.9999999999999 is 1 to 12 significant digits: both runs write
    # values_t1.csv, the later replacing the earlier
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out", nx=20)
    for t in ("0.9999999999999", "1"):
        assert main(["value", "--config", str(cfg), "--t", t]) == 0
        assert [f.name for f in (tmp_path / "out").iterdir()] == ["values_t1.csv"], t


def test_verify_passes_both_scenarios(tmp_path, capsys):
    for base in (BASE_CFG, W2_1_CFG):
        cfg = write_cfg(tmp_path, base=base, output_dir=tmp_path / "out",
                        nt=80, nx=80)
        assert main(["verify", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "verification passed" in out
        assert "FAIL" not in out
    assert (tmp_path / "out" / "report.csv").exists()


@pytest.mark.parametrize("base", [BASE_CFG, W2_1_CFG], ids=["table1", "table1_w2_1"])
def test_report_csv_is_the_report_cell_by_cell(tmp_path, base, capsys):
    # report.csv against the VerificationReport it writes: every cell
    # formatted on its own, t-major, in header order, the region verbatim
    cfg = load_config(str(write_cfg(tmp_path, base=base, output_dir=tmp_path / "out")))
    assert cmd_verify(cfg) == 0
    capsys.readouterr()
    path = solve_backward(cfg.params, cfg.n_steps)
    report = run_verification(path, build_policy(path, cfg.params), cfg.params, cfg.box,
                              nt=cfg.nt, nx=cfg.nx)
    per_node = (report.hjb1, report.qvi_residual, report.gap, report.complementarity)
    per_t = (report.x11, report.x22, report.theta_alpha, report.theta_beta,
             report.margin_ell1, report.margin_ell2, report.convexity_margin)
    lines = ["t,x,region,hjb1_residual,qvi_residual,gap,complementarity,x11,x22,"
             "theta_alpha,theta_beta,margin_ell1,margin_ell2,convexity_margin"]
    for i, t in enumerate(report.t_nodes):
        for j, x in enumerate(report.x_nodes):
            cells = [t, x, report.region[i, j], *(a[i, j] for a in per_node),
                     *(a[i] for a in per_t)]
            lines.append(",".join(c if isinstance(c, str) else format(c, ".12g")
                                  for c in cells))
    assert (tmp_path / "out" / "report.csv").read_bytes() == "".join(
        line + "\n" for line in lines).encode()
    # the special cells are covered: hjb1 is NaN at every exterior node, and
    # table1's upper root condition is inapplicable (margin +inf) at some times
    assert np.isnan(report.hjb1).any()
    if base == BASE_CFG:
        assert np.isposinf(report.margin_ell2).any()


@pytest.mark.parametrize("base", [BASE_CFG, W2_1_CFG], ids=["table1", "table1_w2_1"])
def test_solve_and_simulate_csvs_are_their_arrays_cell_by_cell(tmp_path, base):
    # every number is format(value, ".12g") of the array it comes from, and
    # V1 each start's J1 from the per-start hook; the region is verbatim
    cfg = load_config(str(write_cfg(tmp_path, base=base, output_dir=tmp_path / "out")))
    assert cmd_solve(cfg) == 0 and cmd_simulate(cfg) == 0 and cmd_value(cfg, 0.3) == 0
    path = solve_backward(cfg.params, cfg.n_steps)
    policy = build_policy(path, cfg.params)

    def expect(name, header, columns):
        lines = [",".join(header)] + [",".join(v if isinstance(v, str) else format(v, ".12g")
                                               for v in row) for row in zip(*columns)]
        assert (tmp_path / "out" / name).read_bytes() == "".join(
            line + "\n" for line in lines).encode(), name

    ts = path.time_grid
    expect("thresholds.csv", ["t", "ell1", "alpha", "beta", "ell2"],
           (ts, policy.ell1, policy.alpha, policy.beta, policy.ell2))
    expect("coefficients.csv", ["t", "p1", "q1", "n1", "p2", "q2", "n2", "a_x"],
           (ts, path.p1, path.q1, path.n1, path.p2, path.q2, path.n2, path.a_x))
    hook = make_rollout_hook(path, policy, cfg.params, cfg.sim_step)
    for x0 in cfg.initial_states:
        traj = hook(0.0, x0)
        t, x = (np.concatenate([seg[i] for seg in traj.segments]) for i in (0, 1))
        expect(f"trajectory_{format(x0, '.12g')}.csv", ["t", "x", "u"],
               (t, x, gamma_star(path, cfg.params, t, x)))
    xs = np.linspace(cfg.box.x_lo, cfg.box.x_hi, cfg.nx + 1)
    expect("values_t0.3.csv", ["x0", "V1", "V2", "region"],
           (xs, [hook(0.3, x).j1 for x in xs], value_v2(path, policy, cfg.params, 0.3, xs),
            policy.region(0.3, xs).tolist()))


def test_verify_fails_with_named_condition_on_adversarial_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out", nt=60, nx=60, C="1e-6")
    assert main(["verify", "--config", str(cfg)]) == 3
    out = capsys.readouterr().out
    assert "FAIL band_margin_lower" in out
    assert "verification FAILED" in out


def test_verify_fails_on_the_locator_regression_game(tmp_path, capsys):
    # band_margin_lower fails inside the horizon; the residual rows that
    # also fail on this game peak at t = T
    base = REPO / "tests" / "data" / "locator_inside_band.cfg"
    cfg = write_cfg(tmp_path, base=base, output_dir=tmp_path / "out")
    assert main(["verify", "--config", str(cfg)]) == 3
    out = capsys.readouterr().out
    t = float(re.search(r"^FAIL band_margin_lower: .* at t=(\S+) ", out, re.M).group(1))
    assert t < load_config(base).params.T


def test_verify_rejects_grid_too_short_for_difference_slopes(tmp_path):
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out", n_steps=3, nt=20, nx=20)
    assert main(["verify", "--config", str(cfg)]) == 1


def test_bound_prints_k_and_ingredients(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["bound", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "K = 42" in out
    assert "= 50" in out and "= 12.5" in out and "mu = 3" in out


def test_bound_rejects_degenerate_box(tmp_path):
    cfg = write_cfg(tmp_path, x_lo=5, x_hi=5)
    assert main(["bound", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("command, overrides, what", [
    ("bound", {"x_lo": -1e200}, "impulse bound"),
    ("simulate", {"initial_states": "2, 1e200"}, "impulse bound"),
    ("verify", {"x_lo": -1e200}, "obstacle tolerance"),
    ("value --t 0", {"x_lo": -1e200}, "impulse bound"),
    ("value --t 1", {"x_lo": -1e200}, "impulse bound"),
    ("verify", {"x_lo": -1e155}, "impulse bound"),
], ids=["bound", "simulate", "verify", "value_at_0", "value_at_T", "verify_finite_tolerance"])
def test_overflowing_bound_or_tolerance_is_config_error(tmp_path, capsys, command, overrides,
                                                        what):
    # a box or start this far from rho2 has no finite impulse bound, nor
    # verify a finite obstacle tolerance: exit 1 with that diagnosis, no warning
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out", **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*command.split(), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"config error: the {what} over StateBox\(.*\) overflows\n", err), err


@pytest.mark.parametrize("command, line, message", [
    ("value --t 1.5", "nx = 200", r"value time must lie in \[0, T\] \(got 1\.5\)"),
    ("value --t -0.1", "nx = 200", r"value time must lie in \[0, T\] \(got -0\.1\)"),
    ("bound", "x_lo = -inf",
     r"state box endpoints must be finite \(got StateBox\(x_lo=-inf, x_hi=10\.0\)\)"),
    ("bound", "a line without an equals sign",
     r"line {n}: expected key=value, got 'a line without an equals sign'"),
], ids=["value_past_T", "value_before_0", "infinite_box", "line_without_equals"])
def test_config_error_exits_one_naming_it(tmp_path, capsys, command, line, message):
    # the CLI smoke step's config errors: exit 1 with one line naming the fault
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out")
    cfg.write_text(cfg.read_text() + f"\n{line}\n")
    n = 1 + cfg.read_text().splitlines().index(line)
    assert main([*command.split(), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"config error: {message.format(n=n)}\n", err), err


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "sim_step", "1e-300"),
    ("value --t 0", "sim_step", "1e-300"),
    ("solve", "n_steps", "1000000000000000000"),
], ids=["simulate_step", "value_step", "solve_steps"])
def test_grid_too_large_to_allocate_is_config_error(tmp_path, capsys, command, key, value):
    # 1e300 cells cannot be indexed, and 1e18 float64 values (8 EB) lie
    # beyond any address space, so each fails before anything is allocated
    # (a grid that fits the address space could be granted and fill memory)
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out", **{key: value})
    assert main([*command.split(), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"config error: [^\n]*\b{key}\b[^\n]*\n", err), err


def test_event_counts_never_exceed_bound(tmp_path):
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out")
    assert main(["simulate", "--config", str(cfg)]) == 0
    k = 42
    for row in read_csv(tmp_path / "out" / "costs.csv"):
        assert float(row["n_events"]) <= k


def test_missing_config_file_is_config_error():
    assert main(["solve", "--config", "/nonexistent/nope.cfg"]) == 1


def test_invalid_parameter_exits_one(tmp_path):
    cfg = write_cfg(tmp_path, w1=-1)
    assert main(["solve", "--config", str(cfg)]) == 1


def test_degenerate_model_exits_two(tmp_path, capsys):
    # b = 0 passes validation but the closed forms degenerate: with a > 0
    # c1's divisor vanishes, with a < 0 p1's closed form divides by b_x = 0
    for a, cause in ((0.1, "theta + 2*(b^2/r1)*s1 - 2*a vanished"),
                     (-0.1, "b = 0: p1 closed form undefined")):
        cfg = write_cfg(tmp_path, output_dir=tmp_path / "out", b=0, a=a)
        assert main(["solve", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"model violation: {cause}")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "impulsegame", "bound", "--config", str(BASE_CFG)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "K = 42" in proc.stdout


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; the package runs on numpy alone
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, impulsegame; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_commands_do_not_load_scipy(tmp_path):
    # nor does a run: verify and the V1 sweep of value stay on numpy
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out")
    code = ("import sys; from impulsegame.cli import main; "
            f"codes = (main(['verify', '--config', {str(cfg)!r}]), "
            f"main(['value', '--t', '0.3', '--config', {str(cfg)!r}])); "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "(0, 0) []"


def test_csv_uses_12_significant_digits(tmp_path):
    cfg = write_cfg(tmp_path, output_dir=tmp_path / "out")
    assert main(["solve", "--config", str(cfg)]) == 0
    with open(tmp_path / "out" / "coefficients.csv") as fh:
        next(fh)
        cell = next(fh).split(",")[4]  # p2 at t = 0, an irrational-looking value
    mantissa = cell.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) == 12
    assert "," not in cell and "." in cell


def test_write_csv_matches_per_cell_format(tmp_path):
    # the column writer must give the bytes of formatting each cell
    # with format(cell, ".12g") (str cells verbatim)
    row = (np.float64(1.0 / 3.0), 2.0 / 3.0, 7, 10 ** 15, np.nan, np.inf, -np.inf, -0.0,
           1e-300, 1e300, np.float64(-2.5e-7), "interior", np.str_("above"))
    rng = np.random.default_rng(3)
    rows = [row] + [tuple(float(v) for v in rng.normal(size=11) * 10.0 ** rng.integers(-20, 20))
                    + ("below", np.str_("interior")) for _ in range(50)]
    header = [f"c{k}" for k in range(len(row))]
    expected = ",".join(header) + "\n" + "".join(
        ",".join(c if isinstance(c, str) else format(c, ".12g") for c in r) + "\n"
        for r in rows)
    for name, given in (("list.csv", [list(zip(*rows))]),
                        ("gen.csv", (list(zip(*rows[i:i + 7])) for i in range(0, len(rows), 7)))):
        _write_csv(tmp_path / name, header, given)
        assert (tmp_path / name).read_bytes() == expected.encode("utf-8")
    _write_csv(tmp_path / "empty.csv", ["x", "y"], [])
    assert (tmp_path / "empty.csv").read_bytes() == b"x,y\n"


def test_write_csv_over_an_existing_file_leaves_a_fresh_writes_bytes(tmp_path):
    # the writer rewrites an existing file in place and cuts it after the
    # new bytes: over a longer file and over a shorter one alike
    header, block = ["x", "y"], [[np.arange(40) / 7.0, np.arange(40) * 1e-3]]
    _write_csv(tmp_path / "fresh.csv", header, block)
    fresh = (tmp_path / "fresh.csv").read_bytes()
    for name, old in (("longer.csv", fresh + b"9" * 5000), ("shorter.csv", fresh[:17])):
        (tmp_path / name).write_bytes(old)
        _write_csv(tmp_path / name, header, block)
        assert (tmp_path / name).read_bytes() == fresh, name
